//! Chirp-bank correlation: the streaming gateway's preamble-sync evaluator.
//!
//! The NetScatter receiver detects packets by correlating the incoming
//! stream against the known preamble chirps (§3.3.1). [`ChirpBank`] scores
//! a symbol against **every** cyclic-shift chirp template with the paper's
//! "single FFT operation" (§3.1), and a run of one-sample-apart windows
//! with one transform plus a rank-one update per slide. [`shift_template`]
//! builds one template explicitly; it is the oracle the bank's tests
//! compare against.

use crate::chirp::{ChirpParams, ChirpSynthesizer};
use crate::complex::Complex64;
use crate::fft::{Fft, FftError};

/// Builds the shift-`b` chirp template `ref[t] · e^{+j2πbt/n}` used by the
/// preamble correlators — the tone-offset form whose lag-0 correlation with
/// a received symbol equals bin `b` of the dechirped symbol's FFT (constant
/// phase aside, this is the cyclically shifted chirp of §2.1).
///
/// `down` selects the downchirp reference (used for the downchirp half of
/// the preamble, §3.3.1). `bin` is taken modulo `n`.
pub fn shift_template(synth: &ChirpSynthesizer, bin: usize, down: bool) -> Vec<Complex64> {
    let reference = if down {
        synth.baseline_downchirp()
    } else {
        synth.baseline_upchirp()
    };
    let n = reference.len();
    let bin = (bin % n.max(1)) as f64;
    reference
        .iter()
        .enumerate()
        .map(|(t, r)| *r * Complex64::cis(2.0 * std::f64::consts::PI * bin * t as f64 / n as f64))
        .collect()
}

/// Correlates one symbol against **every** cyclic-shift chirp template at
/// once: dechirp (multiply by the conjugate reference chirp) and take a
/// critically-sampled `n`-point FFT. Output bin `b` is then exactly
///
/// ```text
/// Σ_t symbol[t] · conj(ref[t] · e^{+j2πbt/n})
/// ```
///
/// i.e. the lag-0 cross-correlation against [`shift_template`]`(synth, b)`.
/// Compared to evaluating each template separately this computes all `n`
/// correlations in a single `n·log n` pass, and compared to the receiver's
/// zero-padded demodulation transform it is `pad×` smaller — the detector's
/// preamble comb only reads integer bins, for which the critically-sampled
/// transform is mathematically identical to the padded one.
#[derive(Debug, Clone)]
pub struct ChirpBank {
    synth: ChirpSynthesizer,
    fft: Fft,
}

impl ChirpBank {
    /// Creates a bank for the given chirp parameters (`n = 2^SF` bins).
    pub fn new(params: ChirpParams) -> Result<Self, FftError> {
        let synth = ChirpSynthesizer::new(params);
        let fft = Fft::new(params.num_bins())?;
        Ok(Self { synth, fft })
    }

    /// The chirp parameters the bank was built for.
    #[inline]
    pub fn params(&self) -> &ChirpParams {
        self.synth.params()
    }

    /// Correlates `symbol` against all `n` upchirp shift templates, writing
    /// the complex correlations into `out` (cleared and resized to `n`).
    /// `symbol` must be exactly `n` samples.
    pub fn upchirp_bank_into(
        &self,
        symbol: &[Complex64],
        out: &mut Vec<Complex64>,
    ) -> Result<(), FftError> {
        self.bank_into(symbol, false, out)
    }

    /// As [`Self::upchirp_bank_into`] but against the downchirp shift
    /// templates (dechirp with the baseline upchirp).
    pub fn downchirp_bank_into(
        &self,
        symbol: &[Complex64],
        out: &mut Vec<Complex64>,
    ) -> Result<(), FftError> {
        self.bank_into(symbol, true, out)
    }

    fn bank_into(
        &self,
        symbol: &[Complex64],
        down: bool,
        out: &mut Vec<Complex64>,
    ) -> Result<(), FftError> {
        let n = self.fft.size();
        if symbol.len() != n {
            return Err(FftError::LengthMismatch {
                expected: n,
                actual: symbol.len(),
            });
        }
        if down {
            self.synth.dechirp_down_into(symbol, out);
        } else {
            self.synth.dechirp_into(symbol, out);
        }
        self.fft.forward_in_place(out)
    }

    /// Correlates **every** `n`-sample window of `samples` against all
    /// shift templates (downchirp ones when `down`) with one transform.
    /// Window `c` starts at `samples[c]`, so `n + C − 1` samples hold `C`
    /// of them; `visit(c, spectrum)` sees each once, in order.
    ///
    /// Window 0 goes through the bank into `spec`. Against the
    /// `n`-periodic reference the whole run dechirps to one sequence
    /// `y[j] = samples[j]·conj(ref[j mod n])`, and sliding its `n`-point
    /// spectrum `S` by a sample is the rank-one update
    /// `S[m] += (y[c+n] − y[c])·e^{-j2πmc/n}`. Window `c` dechirped on its
    /// own is `y` times a tone of `±c` bins, so its bank output is `S`
    /// read `c` bins down (upchirp) or up (downchirp) —
    /// [`SlidingSpectrum::power`] does that. A non-finite sample stays in
    /// `S` for the rest of the run.
    pub fn sliding_bank_into(
        &self,
        samples: &[Complex64],
        down: bool,
        spec: &mut Vec<Complex64>,
        mut visit: impl FnMut(usize, SlidingSpectrum<'_>),
    ) -> Result<(), FftError> {
        let n = self.fft.size();
        self.bank_into(&samples[..n.min(samples.len())], down, spec)?;
        let reference = if down {
            self.synth.baseline_upchirp()
        } else {
            self.synth.baseline_downchirp()
        };
        visit(0, SlidingSpectrum { spec, turn: 0 });
        for (c, (&leaving, &entering)) in samples.iter().zip(&samples[n..]).enumerate() {
            self.fft
                .add_impulse(spec, c, (entering - leaving) * reference[c % n]);
            let turn = if down { (c + 1) % n } else { n - (c + 1) % n };
            visit(c + 1, SlidingSpectrum { spec, turn });
        }
        Ok(())
    }
}

/// One window's correlations out of [`ChirpBank::sliding_bank_into`].
#[derive(Debug)]
pub struct SlidingSpectrum<'a> {
    spec: &'a [Complex64],
    turn: usize,
}

impl SlidingSpectrum<'_> {
    /// Correlation power against the shift-`bin` template (`bin` taken
    /// modulo `n`): `|X[bin]|²` of the `*_bank_into` output `X` of this
    /// window alone. (The two differ by a phase, so only the power is
    /// offered.)
    #[inline]
    pub fn power(&self, bin: usize) -> f64 {
        self.spec[(bin + self.turn) & (self.spec.len() - 1)].norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn shift_template_correlation_equals_chirp_bank_bin() {
        // The bank output at bin b must equal the lag-0 correlation against
        // shift_template(b) — the identity the detector's comb relies on.
        let params = ChirpParams::new(500e3, 5).unwrap();
        let bank = ChirpBank::new(params).unwrap();
        let n = params.num_bins();
        let mut rng = StdRng::seed_from_u64(99);
        let symbol = random_signal(&mut rng, n);
        for down in [false, true] {
            let mut bins = Vec::new();
            if down {
                bank.downchirp_bank_into(&symbol, &mut bins).unwrap();
            } else {
                bank.upchirp_bank_into(&symbol, &mut bins).unwrap();
            }
            let synth = ChirpSynthesizer::new(params);
            for b in [0usize, 1, 5, n - 1] {
                let template = shift_template(&synth, b, down);
                let direct: Complex64 = symbol
                    .iter()
                    .zip(template.iter())
                    .map(|(s, t)| *s * t.conj())
                    .sum();
                assert!(
                    (bins[b] - direct).abs() < 1e-9 * n as f64,
                    "down={down} bin {b}: {:?} != {direct:?}",
                    bins[b]
                );
            }
        }
    }

    #[test]
    fn chirp_bank_rejects_wrong_symbol_length() {
        let params = ChirpParams::new(500e3, 5).unwrap();
        let bank = ChirpBank::new(params).unwrap();
        let mut out = Vec::new();
        assert!(bank
            .upchirp_bank_into(&vec![Complex64::ONE; 31], &mut out)
            .is_err());
        assert!(bank
            .downchirp_bank_into(&vec![Complex64::ONE; 33], &mut out)
            .is_err());
    }

    #[test]
    fn chirp_bank_detects_embedded_shift() {
        // A clean shifted upchirp correlates maximally at its own shift.
        let params = ChirpParams::new(500e3, 6).unwrap();
        let bank = ChirpBank::new(params).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let n = params.num_bins();
        for shift in [0usize, 3, 17, n - 1] {
            let symbol = synth.shifted_upchirp(shift);
            let mut bins = Vec::new();
            bank.upchirp_bank_into(&symbol, &mut bins).unwrap();
            let peak = (0..n)
                .max_by(|&a, &b| bins[a].norm_sqr().total_cmp(&bins[b].norm_sqr()))
                .unwrap();
            assert_eq!(peak, shift);
        }
    }
}
