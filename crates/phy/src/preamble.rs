//! Packet preamble construction, packet-start estimation and concurrent
//! device detection.
//!
//! Every NetScatter packet starts with six upchirps followed by two
//! downchirps, all carrying the device's *own* assigned cyclic shift
//! (§3.3.1). All concurrent devices transmit their preambles at the same
//! time, so the preamble cost is paid once per round rather than once per
//! device — a large part of the link-layer gain in Fig. 18.
//!
//! The AP uses the preamble for two things:
//!
//! 1. **Packet-start estimation** — implemented here as a search over
//!    candidate window offsets that maximizes how sharply the upchirp
//!    symbols dechirp (the paper uses the upchirp/downchirp symmetry around
//!    the preamble midpoint; both approaches align the symbol window).
//! 2. **Active-device detection and threshold calibration** — a device is
//!    declared present if its bin shows a consistent peak across the upchirp
//!    preamble symbols, and the average preamble power becomes the payload
//!    decision threshold (half of it, §3.3.1).

use crate::distributed::{ConcurrentDemodulator, DemodWorkspace, OnOffModulator};
use netscatter_dsp::chirp::ChirpParams;
use netscatter_dsp::fft::FftError;
use netscatter_dsp::Complex64;

/// Number of upchirp symbols in the preamble.
pub const PREAMBLE_UPCHIRPS: usize = 6;
/// Number of downchirp symbols in the preamble.
pub const PREAMBLE_DOWNCHIRPS: usize = 2;
/// Total preamble length in symbols.
pub const PREAMBLE_SYMBOLS: usize = PREAMBLE_UPCHIRPS + PREAMBLE_DOWNCHIRPS;

/// Builds preamble waveforms for one device.
#[derive(Debug, Clone)]
pub struct PreambleBuilder {
    modulator: OnOffModulator,
}

impl PreambleBuilder {
    /// Creates a builder for a device assigned the given cyclic shift.
    pub fn new(params: ChirpParams, assigned_shift: usize) -> Self {
        Self {
            modulator: OnOffModulator::new(params, assigned_shift),
        }
    }

    /// Generates the full 8-symbol preamble with the device's impairments.
    pub fn build(
        &self,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
    ) -> Vec<Complex64> {
        let n = self.modulator.params().num_bins();
        let mut out = Vec::with_capacity(PREAMBLE_SYMBOLS * n);
        for _ in 0..PREAMBLE_UPCHIRPS {
            out.extend(
                self.modulator
                    .symbol(true, timing_offset_s, freq_offset_hz, amplitude),
            );
        }
        for _ in 0..PREAMBLE_DOWNCHIRPS {
            out.extend(self.modulator.preamble_downchirp(
                timing_offset_s,
                freq_offset_hz,
                amplitude,
            ));
        }
        out
    }
}

/// A device detected during the preamble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedDevice {
    /// The chirp bin (cyclic shift) the device occupies.
    pub chirp_bin: usize,
    /// Average power at the device's bin over the upchirp preamble symbols
    /// (linear).
    pub average_power: f64,
}

/// Packet-start estimation and preamble-based device detection.
///
/// Every device is measured exactly at its assigned bin, on the `2^SF`-point
/// spectrum. That is the right estimator for tags that pre-compensate their
/// hardware delay (§3.2.1): the residual offset stays under half a bin, and
/// the scalloping it causes applies identically to threshold calibration
/// and payload decisions. At full SKIP-2 occupancy any estimator that
/// wanders *between* bins would instead lock onto the aggregate Dirichlet
/// leakage of the other tones (≈ −4 dB of a full-scale peak, phase-static
/// across the preamble) and mis-calibrate the threshold.
#[derive(Debug, Clone)]
pub struct PreambleDetector {
    demod: ConcurrentDemodulator,
}

impl PreambleDetector {
    /// Creates a detector that measures devices at their assigned bins.
    pub fn new(params: ChirpParams) -> Result<Self, FftError> {
        Ok(Self {
            demod: ConcurrentDemodulator::new(params, 1)?,
        })
    }

    /// Access to the underlying concurrent demodulator.
    pub fn demodulator(&self) -> &ConcurrentDemodulator {
        &self.demod
    }

    /// Detects which devices are transmitting, given the aligned preamble
    /// samples (at least the six upchirp symbols), reusing the caller's
    /// workspace.
    ///
    /// `candidate_bins` restricts detection to the cyclic shifts that are
    /// actually assigned (communication plus association shifts); a device is
    /// reported when its bin carries a peak above `min_power` in **every**
    /// upchirp symbol, and its average power over those symbols is returned
    /// for payload thresholding. The upchirp spectra are consumed one at a
    /// time with per-candidate accumulators, so only one power spectrum is
    /// ever held in memory instead of all six.
    pub fn detect_devices_with(
        &self,
        preamble: &[Complex64],
        candidate_bins: &[usize],
        min_power: f64,
        ws: &mut DemodWorkspace,
    ) -> Result<Vec<DetectedDevice>, FftError> {
        let n = self.demod.params().num_bins();
        if preamble.len() < PREAMBLE_UPCHIRPS * n {
            return Err(FftError::LengthMismatch {
                expected: PREAMBLE_UPCHIRPS * n,
                actual: preamble.len(),
            });
        }
        // (power sum, above-floor-in-every-symbol).
        let mut acc: Vec<(f64, bool)> = vec![(0.0, true); candidate_bins.len()];
        for s in 0..PREAMBLE_UPCHIRPS {
            let spec = self
                .demod
                .spectrum_into(&preamble[s * n..(s + 1) * n], 1, ws)?;
            for (&bin, a) in candidate_bins.iter().zip(acc.iter_mut()) {
                let power = spec[bin % n];
                a.0 += power;
                a.1 &= power > min_power;
            }
        }
        let symbols = PREAMBLE_UPCHIRPS as f64;
        Ok(candidate_bins
            .iter()
            .zip(acc.iter())
            .filter(|(_, a)| a.1)
            .map(|(&bin, a)| DetectedDevice {
                chirp_bin: bin,
                average_power: a.0 / symbols,
            })
            .collect())
    }

    /// The payload decision threshold derived from a device's preamble power:
    /// half the average, per §3.3.1.
    pub fn payload_threshold(average_preamble_power: f64) -> f64 {
        average_preamble_power / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_channel::noise::AwgnChannel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> ChirpParams {
        ChirpParams::new(500e3, 9).unwrap()
    }

    fn detect(
        det: &PreambleDetector,
        preamble: &[Complex64],
        bins: &[usize],
        min_power: f64,
    ) -> Result<Vec<DetectedDevice>, FftError> {
        det.detect_devices_with(preamble, bins, min_power, &mut DemodWorkspace::new())
    }

    fn superpose(parts: &[Vec<Complex64>]) -> Vec<Complex64> {
        // Accumulate every waveform into one buffer in place.
        let n = parts.iter().map(|p| p.len()).max().unwrap_or(0);
        let mut out = vec![Complex64::ZERO; n];
        for part in parts {
            for (acc, s) in out.iter_mut().zip(part.iter()) {
                *acc += *s;
            }
        }
        out
    }

    #[test]
    fn preamble_has_eight_symbols() {
        let b = PreambleBuilder::new(params(), 4);
        let pre = b.build(0.0, 0.0, 1.0);
        assert_eq!(pre.len(), PREAMBLE_SYMBOLS * 512);
        assert_eq!(PREAMBLE_SYMBOLS, 8);
    }

    #[test]
    fn detect_single_device_from_preamble() {
        let p = params();
        let pre = PreambleBuilder::new(p, 100).build(0.0, 0.0, 1.0);
        let det = PreambleDetector::new(p).unwrap();
        let n2 = (p.num_bins() as f64).powi(2);
        let found = detect(&det, &pre, &[0, 50, 100, 150], n2 * 0.1).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].chirp_bin, 100);
        assert!((found[0].average_power - n2).abs() / n2 < 0.05);
    }

    #[test]
    fn detect_multiple_concurrent_devices_and_calibrate_thresholds() {
        let p = params();
        let det = PreambleDetector::new(p).unwrap();
        let bins = [10usize, 110, 210, 310, 410];
        let amplitudes = [1.0, 0.7, 0.5, 0.9, 0.6];
        let parts: Vec<Vec<Complex64>> = bins
            .iter()
            .zip(amplitudes.iter())
            .map(|(&bin, &a)| PreambleBuilder::new(p, bin).build(0.0, 0.0, a))
            .collect();
        let rx = superpose(&parts);
        let n2 = (p.num_bins() as f64).powi(2);
        let found = detect(&det, &rx, &bins, n2 * 0.01).unwrap();
        assert_eq!(found.len(), bins.len());
        for (dev, &a) in found.iter().zip(&amplitudes) {
            let expected = a * a * n2;
            assert!((dev.average_power - expected).abs() / expected < 0.2);
            assert!(PreambleDetector::payload_threshold(dev.average_power) < dev.average_power);
        }
    }

    #[test]
    fn absent_devices_are_not_detected_in_noise() {
        let p = params();
        let det = PreambleDetector::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let active = PreambleBuilder::new(p, 64).build(0.0, 0.0, 1.0);
        let mut rx = active;
        AwgnChannel::with_noise_power(0.5).apply(&mut rng, &mut rx);
        let n2 = (p.num_bins() as f64).powi(2);
        let found = detect(&det, &rx, &[64, 300], n2 * 0.1).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].chirp_bin, 64);
    }

    #[test]
    fn detection_requires_consistency_across_all_upchirps() {
        // A device that only transmits a single upchirp (e.g. payload energy
        // leaking into the window) must not be detected.
        let p = params();
        let det = PreambleDetector::new(p).unwrap();
        let n = p.num_bins();
        let full = PreambleBuilder::new(p, 20).build(0.0, 0.0, 1.0);
        let partial_device = OnOffModulator::new(p, 200);
        let mut one_symbol = vec![Complex64::ZERO; PREAMBLE_SYMBOLS * n];
        one_symbol[..n].copy_from_slice(&partial_device.symbol(true, 0.0, 0.0, 1.0));
        let rx = superpose(&[full, one_symbol]);
        let n2 = (p.num_bins() as f64).powi(2);
        let found = detect(&det, &rx, &[20, 200], n2 * 0.1).unwrap();
        let bins: Vec<usize> = found.iter().map(|d| d.chirp_bin).collect();
        assert_eq!(bins, vec![20]);
    }

    #[test]
    fn detect_devices_rejects_short_preamble() {
        let det = PreambleDetector::new(params()).unwrap();
        assert!(detect(&det, &[Complex64::ONE; 100], &[0], 0.1).is_err());
    }
}
