//! Indoor multipath: exponential power-delay profiles and their effect on a
//! narrowband CSS receiver.
//!
//! §3.2.1 of the paper argues that indoor delay spreads of 50–300 ns are
//! negligible for a 500 kHz chirp (< 0.15 FFT bins). At critical sampling the
//! sample period is 2 µs, so multipath is *frequency-flat* for the chirp: its
//! net effect is (a) a composite complex channel gain and (b) a small excess
//! group delay that adds to the timing offset budget. This module provides
//! both views: a tapped-delay-line generator (for analysis at arbitrary
//! sampling rates) and the narrowband summary used by the packet-level
//! simulator.

use crate::noise::standard_normal;
use netscatter_dsp::Complex64;
use rand::Rng;

/// An exponential power-delay profile with a configurable RMS delay spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDelayProfile {
    /// RMS delay spread in seconds (indoor offices: 50–300 ns).
    pub rms_delay_spread_s: f64,
    /// Number of discrete taps used when realizing the profile.
    pub num_taps: usize,
    /// Spacing between taps in seconds.
    pub tap_spacing_s: f64,
}

impl PowerDelayProfile {
    /// An indoor office profile with the given RMS delay spread (seconds).
    /// The realization uses 16 taps spanning four times the delay spread so
    /// the exponential tail is represented faithfully.
    pub fn indoor(rms_delay_spread_s: f64) -> Self {
        let rms = rms_delay_spread_s.max(1e-9);
        Self {
            rms_delay_spread_s: rms,
            num_taps: 16,
            tap_spacing_s: rms / 4.0,
        }
    }

    /// An outdoor profile with the given RMS delay spread (seconds;
    /// suburban/rural deployments: 0.5–2 µs). Outdoor scatterers produce a
    /// longer, sparser tail than office reflections, so the realization uses
    /// 24 taps spanning six times the delay spread.
    pub fn outdoor(rms_delay_spread_s: f64) -> Self {
        let rms = rms_delay_spread_s.max(1e-9);
        Self {
            rms_delay_spread_s: rms,
            num_taps: 24,
            tap_spacing_s: rms / 4.0,
        }
    }

    /// Mean power of tap `k` under the exponential profile (unnormalized).
    fn tap_power(&self, k: usize) -> f64 {
        (-(k as f64) * self.tap_spacing_s / self.rms_delay_spread_s).exp()
    }

    /// Draws a channel realization: complex tap gains (Rayleigh per tap) with
    /// total mean power normalized to one, along with each tap's delay.
    pub fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> MultipathChannel {
        let raw_powers: Vec<f64> = (0..self.num_taps).map(|k| self.tap_power(k)).collect();
        let total: f64 = raw_powers.iter().sum();
        let taps: Vec<(f64, Complex64)> = raw_powers
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let sigma = (p / total / 2.0).sqrt();
                let gain =
                    Complex64::new(sigma * standard_normal(rng), sigma * standard_normal(rng));
                (k as f64 * self.tap_spacing_s, gain)
            })
            .collect();
        MultipathChannel { taps }
    }
}

/// One realization of a multipath channel: a list of `(delay_s, complex gain)`
/// taps.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipathChannel {
    /// The taps as `(delay in seconds, complex gain)` pairs.
    pub taps: Vec<(f64, Complex64)>,
}

impl MultipathChannel {
    /// The narrowband composite gain: the coherent sum of all taps. For
    /// signals whose bandwidth is much smaller than `1/delay spread` (the CSS
    /// case), the channel acts as this single complex multiplier.
    pub fn flat_gain(&self) -> Complex64 {
        self.taps.iter().map(|(_, g)| *g).sum()
    }

    /// Power-weighted mean excess delay in seconds — the contribution
    /// multipath makes to the link's timing offset.
    pub fn mean_excess_delay_s(&self) -> f64 {
        let total: f64 = self.taps.iter().map(|(_, g)| g.norm_sqr()).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.taps.iter().map(|(d, g)| d * g.norm_sqr()).sum::<f64>() / total
    }

    /// Applies the channel to a signal sampled at `sample_rate_hz` by
    /// convolving with the tap response. The output has the same length as
    /// the input.
    ///
    /// Each tap delay is split into an integer sample shift plus a residual
    /// fractional delay. The fractional part is realized with a first-order
    /// (linear-interpolation) fractional-delay filter, so sub-sample delays
    /// survive instead of rounding to zero: at critical CSS sampling (2 µs
    /// period) every indoor tap (50–300 ns) used to collapse onto shift 0,
    /// silently degenerating the tapped-delay line into a scalar gain with
    /// no group delay. For a narrowband signal the interpolated tap is
    /// phase-accurate: a tone at frequency `f` picks up the expected
    /// `−2π·f·τ` phase for the residual delay `τ`. Taps whose integer shift
    /// falls past the end of the buffer contribute nothing.
    pub fn apply(&self, signal: &[Complex64], sample_rate_hz: f64) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; signal.len()];
        for (delay_s, gain) in &self.taps {
            let delay_samples = (delay_s * sample_rate_hz).max(0.0);
            let shift = delay_samples.floor() as usize;
            if shift >= out.len() {
                continue;
            }
            let frac = delay_samples - delay_samples.floor();
            for (i, o) in out.iter_mut().enumerate().skip(shift) {
                let current = signal[i - shift];
                let previous = if i - shift > 0 {
                    signal[i - shift - 1]
                } else {
                    Complex64::ZERO
                };
                *o += (current.scale(1.0 - frac) + previous.scale(frac)) * *gain;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_dsp::stats::mean;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// RMS delay spread of a realization in seconds.
    fn rms_delay_spread_s(ch: &MultipathChannel) -> f64 {
        let total: f64 = ch.taps.iter().map(|(_, g)| g.norm_sqr()).sum();
        if total == 0.0 {
            return 0.0;
        }
        let mean = ch.mean_excess_delay_s();
        let second: f64 = ch
            .taps
            .iter()
            .map(|(d, g)| (d - mean) * (d - mean) * g.norm_sqr())
            .sum::<f64>()
            / total;
        second.sqrt()
    }

    #[test]
    fn realized_channel_has_unit_mean_power() {
        let mut rng = StdRng::seed_from_u64(11);
        let profile = PowerDelayProfile::indoor(150e-9);
        let mean_gain: Vec<f64> = (0..20_000)
            .map(|_| {
                profile
                    .realize(&mut rng)
                    .taps
                    .iter()
                    .map(|(_, g)| g.norm_sqr())
                    .sum::<f64>()
            })
            .collect();
        assert!((mean(&mean_gain) - 1.0).abs() < 0.05);
    }

    #[test]
    fn rms_delay_spread_tracks_profile_parameter() {
        let mut rng = StdRng::seed_from_u64(12);
        for target in [50e-9, 150e-9, 300e-9] {
            let profile = PowerDelayProfile::indoor(target);
            let spreads: Vec<f64> = (0..5_000)
                .map(|_| rms_delay_spread_s(&profile.realize(&mut rng)))
                .collect();
            let avg = mean(&spreads);
            // The realized spread is of the same order as the target (the
            // 8-tap realization truncates the exponential tail).
            assert!(
                avg > 0.2 * target && avg < 1.5 * target,
                "target {target}, got {avg}"
            );
        }
    }

    #[test]
    fn excess_delay_is_negligible_in_fft_bins_at_500khz() {
        // §3.2.1: indoor delay spreads of 50–300 ns translate to well under
        // one FFT bin at 500 kHz (the paper quotes < 0.15 bins for the
        // spread itself); the mean excess delay stays in the same ballpark.
        let mut rng = StdRng::seed_from_u64(13);
        let profile = PowerDelayProfile::indoor(300e-9);
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        let trials = 1000;
        for _ in 0..trials {
            let ch = profile.realize(&mut rng);
            let bins = ch.mean_excess_delay_s() * 500e3;
            worst = worst.max(bins);
            sum += bins;
        }
        assert!(
            sum / (trials as f64) < 0.2,
            "average excess delay too large"
        );
        assert!(
            worst < 0.6,
            "worst-case excess delay {worst} bins is implausibly large"
        );
    }

    #[test]
    fn flat_gain_is_sum_of_taps() {
        let ch = MultipathChannel {
            taps: vec![
                (0.0, Complex64::new(0.5, 0.0)),
                (25e-9, Complex64::new(0.0, 0.5)),
            ],
        };
        assert_eq!(ch.flat_gain(), Complex64::new(0.5, 0.5));
        assert!((ch.mean_excess_delay_s() - 12.5e-9).abs() < 1e-15);
    }

    #[test]
    fn empty_or_zero_channel_is_degenerate_but_safe() {
        let ch = MultipathChannel { taps: vec![] };
        assert_eq!(ch.flat_gain(), Complex64::ZERO);
        assert_eq!(ch.mean_excess_delay_s(), 0.0);
        assert_eq!(rms_delay_spread_s(&ch), 0.0);
    }

    #[test]
    fn apply_at_narrowband_rate_approximates_flat_gain() {
        // At 500 kHz sampling all sub-µs taps are a small fraction of one
        // sample, so applying the channel stays close to multiplying by the
        // flat gain — but no longer *exactly* equal: the fractional delays
        // are preserved instead of rounded away.
        let mut rng = StdRng::seed_from_u64(14);
        let profile = PowerDelayProfile::indoor(200e-9);
        let ch = profile.realize(&mut rng);
        let signal: Vec<Complex64> = (0..64).map(|i| Complex64::cis(i as f64 * 0.1)).collect();
        let out = ch.apply(&signal, 500e3);
        let flat = ch.flat_gain();
        for (o, s) in out.iter().zip(&signal).skip(1) {
            assert!((*o - *s * flat).abs() < 0.05 * flat.abs().max(1e-6));
        }
    }

    #[test]
    fn apply_preserves_sub_sample_group_delay() {
        // A single tap delayed by a fraction of a sample must impose the
        // narrowband delay signature: a tone at frequency f acquires a phase
        // of −2π·f·τ. Before the fractional-delay fix the tap rounded to
        // shift 0 and the phase was identically that of the gain.
        let fs = 500e3;
        let tau = 0.3 / fs; // 0.3 samples of delay
        let ch = MultipathChannel {
            taps: vec![(tau, Complex64::ONE)],
        };
        let f = 20e3; // well inside the band
        let n = 256;
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * std::f64::consts::PI * f * i as f64 / fs))
            .collect();
        let out = ch.apply(&signal, fs);
        // Compare steady-state phase (skip the first sample edge effect).
        let expected = -2.0 * std::f64::consts::PI * f * tau;
        for (o, s) in out.iter().zip(&signal).skip(1) {
            let phase = (*o * s.conj()).arg();
            assert!(
                (phase - expected).abs() < 0.02,
                "phase {phase} vs expected {expected}"
            );
        }
    }

    #[test]
    fn taps_beyond_buffer_length_are_ignored() {
        // A 10 µs tap at 40 MHz is a 400-sample shift; on a 32-sample buffer
        // it must contribute nothing (and not panic or wrap).
        let ch = MultipathChannel {
            taps: vec![
                (0.0, Complex64::new(0.5, 0.0)),
                (10e-6, Complex64::new(100.0, 0.0)),
            ],
        };
        let signal = vec![Complex64::ONE; 32];
        let out = ch.apply(&signal, 40e6);
        for o in &out {
            assert!((*o - Complex64::new(0.5, 0.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_at_high_rate_spreads_energy_over_taps() {
        // At 40 MHz sampling the 25 ns tap spacing is one sample, so an
        // impulse is spread across multiple output samples.
        let mut rng = StdRng::seed_from_u64(15);
        let profile = PowerDelayProfile::indoor(200e-9);
        let ch = profile.realize(&mut rng);
        let mut impulse = vec![Complex64::ZERO; 32];
        impulse[0] = Complex64::ONE;
        let out = ch.apply(&impulse, 40e6);
        let nonzero = out.iter().filter(|c| c.abs() > 1e-12).count();
        assert!(
            nonzero >= 2,
            "expected echoes, got {nonzero} non-zero samples"
        );
    }
}
