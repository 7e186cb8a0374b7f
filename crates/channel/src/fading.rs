//! Small-scale fading: a temporal process that reproduces the SNR variation
//! the paper measures in a busy office.
//!
//! Fig. 9 of the paper plots the CDF of per-device SNR variation over 30
//! minutes while people walk around; the observed deviations stay within
//! roughly ±5 dB. The fine-grained power-adaptation mechanism (§3.2.3) exists
//! to track exactly this process, so the simulator needs a generator with the
//! same character: temporally correlated, zero-mean in dB, bounded spread.

use crate::noise::standard_normal;
use rand::Rng;

/// A first-order Gauss–Markov process over the *dB-domain* SNR deviation of
/// one device, modelling slow environmental fading (people moving, doors
/// opening) between successive query rounds.
///
/// `x[t+1] = ρ·x[t] + √(1−ρ²)·σ·w[t]` with `w ~ N(0,1)`, so the stationary
/// distribution is `N(0, σ²)` regardless of the correlation coefficient.
#[derive(Debug, Clone, Copy)]
pub struct TemporalFading {
    /// Stationary standard deviation of the SNR deviation, in dB.
    pub sigma_db: f64,
    /// Correlation between consecutive steps (0 = white, →1 = frozen).
    pub correlation: f64,
    state_db: f64,
}

impl TemporalFading {
    /// Creates a process with the given stationary deviation and step-to-step
    /// correlation, starting at 0 dB deviation.
    pub fn new(sigma_db: f64, correlation: f64) -> Self {
        Self {
            sigma_db: sigma_db.max(0.0),
            correlation: correlation.clamp(0.0, 0.9999),
            state_db: 0.0,
        }
    }

    /// The office-environment parameters used for the Fig. 9 reproduction:
    /// σ = 1.8 dB with strong step-to-step correlation, which keeps the
    /// observed deviations within roughly ±5 dB as in the paper.
    pub fn office_default() -> Self {
        Self::new(1.8, 0.95)
    }

    /// Advances the process by one step and returns the new deviation in dB.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let innovation = (1.0 - self.correlation * self.correlation).sqrt() * self.sigma_db;
        self.state_db = self.correlation * self.state_db + innovation * standard_normal(rng);
        self.state_db
    }

    /// Generates a series of `n` consecutive deviations (dB).
    pub fn series<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.step(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_dsp::stats::{mean, variance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn temporal_fading_stationary_statistics() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut process = TemporalFading::new(2.0, 0.9);
        // Burn in, then measure.
        let _ = process.series(&mut rng, 1000);
        let series = process.series(&mut rng, 50_000);
        assert!(mean(&series).abs() < 0.15);
        assert!((variance(&series).sqrt() - 2.0).abs() < 0.15);
    }

    #[test]
    fn temporal_fading_is_correlated() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut process = TemporalFading::new(2.0, 0.95);
        let series = process.series(&mut rng, 20_000);
        // Lag-1 autocorrelation should be close to the configured value.
        let m = mean(&series);
        let num: f64 = series.windows(2).map(|w| (w[0] - m) * (w[1] - m)).sum();
        let den: f64 = series.iter().map(|x| (x - m) * (x - m)).sum();
        let rho = num / den;
        assert!((rho - 0.95).abs() < 0.03, "lag-1 correlation {rho}");
    }

    #[test]
    fn office_default_stays_mostly_within_plus_minus_5db() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut process = TemporalFading::office_default();
        let series = process.series(&mut rng, 30_000);
        let within = series.iter().filter(|v| v.abs() <= 5.0).count() as f64 / series.len() as f64;
        assert!(within > 0.98, "only {within} of samples within ±5 dB");
    }
}
