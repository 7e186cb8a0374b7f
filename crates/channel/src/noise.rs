//! Additive white Gaussian noise (AWGN) generation.
//!
//! CSS systems, and NetScatter in particular, are designed to decode signals
//! *below* the thermal noise floor: Table 1 lists sensitivities down to
//! −123 dBm on a 500 kHz channel whose noise floor is ≈ −111 dBm. Every BER
//! and network experiment therefore revolves around adding complex Gaussian
//! noise with a precisely controlled power.

use netscatter_dsp::Complex64;
use rand::Rng;

/// Draws one standard normal sample using the Box–Muller transform.
///
/// `rand` alone (without `rand_distr`) only provides uniform deviates; this
/// keeps the dependency surface minimal.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a zero-mean complex Gaussian sample with total variance
/// (power) `power`: each quadrature has variance `power / 2`.
fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, power: f64) -> Complex64 {
    let sigma = (power / 2.0).max(0.0).sqrt();
    Complex64::new(sigma * standard_normal(rng), sigma * standard_normal(rng))
}

/// A complex AWGN source with a fixed noise power per sample.
#[derive(Debug, Clone, Copy)]
pub struct AwgnChannel {
    noise_power: f64,
}

impl AwgnChannel {
    /// Creates an AWGN source with the given linear noise power per complex
    /// sample (variance split evenly across I and Q).
    pub fn with_noise_power(noise_power: f64) -> Self {
        Self {
            noise_power: noise_power.max(0.0),
        }
    }

    /// The configured noise power (linear, per complex sample).
    pub fn noise_power(&self) -> f64 {
        self.noise_power
    }

    /// Generates `n` noise samples.
    pub fn samples<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|_| complex_gaussian(rng, self.noise_power))
            .collect()
    }

    /// Adds noise to a signal in place.
    pub fn apply<R: Rng + ?Sized>(&self, rng: &mut R, signal: &mut [Complex64]) {
        for s in signal.iter_mut() {
            *s += complex_gaussian(rng, self.noise_power);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_dsp::complex::mean_power;
    use netscatter_dsp::stats::{mean, variance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(mean(&samples).abs() < 0.03);
        assert!((variance(&samples) - 1.0).abs() < 0.05);
    }

    #[test]
    fn complex_gaussian_power_matches_request() {
        let mut rng = StdRng::seed_from_u64(2);
        for target in [1e-12, 1.0, 5.0] {
            let samples: Vec<Complex64> = (0..20_000)
                .map(|_| complex_gaussian(&mut rng, target))
                .collect();
            let measured = mean_power(&samples);
            assert!(
                (measured - target).abs() / target < 0.05,
                "target {target}, measured {measured}"
            );
        }
    }

    #[test]
    fn corrupt_changes_signal_but_preserves_length() {
        let mut rng = StdRng::seed_from_u64(3);
        let signal = vec![Complex64::ONE; 256];
        let ch = AwgnChannel::with_noise_power(0.1);
        let mut noisy = signal.clone();
        ch.apply(&mut rng, &mut noisy);
        assert_eq!(noisy.len(), 256);
        assert!(noisy
            .iter()
            .zip(&signal)
            .any(|(a, b)| (*a - *b).abs() > 1e-6));
    }

    #[test]
    fn zero_noise_power_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let signal = vec![Complex64::new(0.3, -0.7); 64];
        let ch = AwgnChannel::with_noise_power(0.0);
        let mut noisy = signal.clone();
        ch.apply(&mut rng, &mut noisy);
        for (a, b) in noisy.iter().zip(&signal) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn negative_noise_power_is_clamped() {
        let ch = AwgnChannel::with_noise_power(-1.0);
        assert_eq!(ch.noise_power(), 0.0);
    }
}
