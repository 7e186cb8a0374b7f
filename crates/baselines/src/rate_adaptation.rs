//! Ideal rate adaptation for single-user LoRa backscatter.
//!
//! §4.4: "we measure the signal strength from each of the backscatter
//! devices and compute the bitrate using the SNR table in \[4\]; this is the
//! ideal performance a single-user LoRa backscatter design achieves with
//! rate adaptation." The candidate configurations are the (BW, SF) pairs a
//! 500 kHz channel admits; the highest-bitrate configuration whose
//! sensitivity the device's received power still satisfies is selected, up
//! to the 32 kbps maximum the paper quotes for high-SNR devices.

use netscatter_phy::params::ModulationConfig;
use serde::{Deserialize, Serialize};

/// The rate-adaptation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateAdaptation {
    /// Every device uses the fixed LoRa-backscatter rate of ≈8.7 kbps
    /// regardless of channel quality ("LoRa backscatter without rate
    /// adaptation" in Figs. 17–19).
    Fixed,
    /// Each device picks the fastest configuration its SNR supports
    /// ("LoRa backscatter with rate adaptation").
    Ideal,
}

/// The fixed bitrate of the no-adaptation baseline, in bits per second.
pub const FIXED_LORA_BACKSCATTER_BPS: f64 = 8_700.0;

/// The maximum bitrate reachable with rate adaptation (paper: 32 kbps).
pub const MAX_LORA_BACKSCATTER_BPS: f64 = 32_000.0;

/// Candidate configurations for rate adaptation on a 500 kHz channel:
/// SF 5–12 at 500 kHz.
fn candidates() -> Vec<ModulationConfig> {
    (5..=12u32)
        .filter_map(|sf| ModulationConfig::new(500e3, sf).ok())
        .collect()
}

/// The best achievable single-user LoRa bitrate (bps) for a device received
/// at `rssi_dbm`, or `None` if even the most robust configuration cannot
/// decode it.
fn best_bitrate_bps(rssi_dbm: f64) -> Option<f64> {
    candidates()
        .into_iter()
        .filter(|c| rssi_dbm >= c.sensitivity_dbm())
        .map(|c| c.lora_bitrate_bps().min(MAX_LORA_BACKSCATTER_BPS))
        .fold(None, |best, r| Some(best.map_or(r, |b: f64| b.max(r))))
}

impl RateAdaptation {
    /// The payload bitrate a device received at `rssi_dbm` achieves under
    /// this policy. Devices too weak for any configuration return `None`.
    pub fn bitrate_bps(&self, rssi_dbm: f64) -> Option<f64> {
        match self {
            RateAdaptation::Fixed => {
                // The fixed rate corresponds to roughly SF 9 at 500 kHz; the
                // device must at least satisfy that sensitivity.
                let reference = ModulationConfig::new(500e3, 9).ok()?;
                (rssi_dbm >= reference.sensitivity_dbm()).then_some(FIXED_LORA_BACKSCATTER_BPS)
            }
            RateAdaptation::Ideal => best_bitrate_bps(rssi_dbm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_devices_hit_the_32kbps_cap() {
        assert_eq!(best_bitrate_bps(-60.0), Some(MAX_LORA_BACKSCATTER_BPS));
        assert_eq!(
            RateAdaptation::Ideal.bitrate_bps(-60.0),
            Some(MAX_LORA_BACKSCATTER_BPS)
        );
    }

    #[test]
    fn weak_devices_fall_back_to_slow_robust_rates() {
        // Around -125 dBm only the high-SF configurations decode.
        let r = best_bitrate_bps(-125.0).unwrap();
        assert!(r < 10_000.0, "rate {r} should be a slow configuration");
        assert!(r > 100.0);
        // Monotonicity: more power never lowers the best rate.
        let mut last = 0.0;
        for rssi in (-130..=-60).step_by(5) {
            let r = best_bitrate_bps(rssi as f64).unwrap_or(0.0);
            assert!(r >= last, "rate dropped from {last} to {r} at {rssi} dBm");
            last = r;
        }
    }

    #[test]
    fn devices_below_all_sensitivities_get_nothing() {
        assert_eq!(best_bitrate_bps(-140.0), None);
        assert_eq!(RateAdaptation::Ideal.bitrate_bps(-140.0), None);
        assert_eq!(RateAdaptation::Fixed.bitrate_bps(-140.0), None);
    }

    #[test]
    fn fixed_policy_is_flat_when_decodable() {
        assert_eq!(
            RateAdaptation::Fixed.bitrate_bps(-60.0),
            Some(FIXED_LORA_BACKSCATTER_BPS)
        );
        assert_eq!(
            RateAdaptation::Fixed.bitrate_bps(-115.0),
            Some(FIXED_LORA_BACKSCATTER_BPS)
        );
    }
}
