//! Chirp-bank correlation: the streaming gateway's preamble-sync evaluator.
//!
//! The NetScatter receiver detects packets by correlating the incoming
//! stream against the known preamble chirps (§3.3.1). [`ChirpBank`]
//! correlates a single symbol against **every** cyclic-shift chirp template
//! at once: dechirping a symbol and taking a critically-sampled FFT yields,
//! in bin `b`, exactly the lag-0 cross-correlation against the shift-`b`
//! chirp template (the correlation theorem specialized to the chirp
//! alphabet, §3.1/§3.3.1) — the paper's "single FFT operation" that scores
//! all concurrent devices. [`shift_template`] builds one such template
//! explicitly; it is the oracle the bank's tests compare against.

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
        let n = self.fft.size();
        if symbol.len() != n {
            return Err(FftError::LengthMismatch {
                expected: n,
                actual: symbol.len(),
            });
        }
        self.synth.dechirp_into(symbol, out);
        self.fft.forward_in_place(out)
    }

    /// As [`Self::upchirp_bank_into`] but against the downchirp shift
    /// templates (dechirp with the baseline upchirp).
    pub fn downchirp_bank_into(
        &self,
        symbol: &[Complex64],
        out: &mut Vec<Complex64>,
    ) -> Result<(), FftError> {
        let n = self.fft.size();
        if symbol.len() != n {
            return Err(FftError::LengthMismatch {
                expected: n,
                actual: symbol.len(),
            });
        }
        self.synth.dechirp_down_into(symbol, out);
        self.fft.forward_in_place(out)
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
