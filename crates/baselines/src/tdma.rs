//! Sequential (TDMA) query-response accounting for single-user LoRa
//! backscatter.
//!
//! Prior long-range backscatter systems serve one device at a time: the AP
//! queries a device (28-bit downlink message), the device answers with its
//! own preamble and payload, and only then is the next device served (§4.4).
//! This module computes the network PHY rate, link-layer rate, and latency of
//! that scheme for a population of devices — the baseline curves of
//! Figs. 17–19.

use crate::rate_adaptation::RateAdaptation;
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::PREAMBLE_SYMBOLS;
use serde::{Deserialize, Serialize};

/// Which LoRa-backscatter variant to account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoraScheme {
    /// Rate-adaptation policy.
    pub adaptation: RateAdaptation,
    /// Downlink bits of the per-device AP query (paper: 28 bits).
    pub query_bits: usize,
}

impl LoraScheme {
    /// The fixed-rate baseline.
    pub fn fixed() -> Self {
        Self {
            adaptation: RateAdaptation::Fixed,
            query_bits: 28,
        }
    }

    /// The ideal-rate-adaptation baseline.
    pub fn rate_adapted() -> Self {
        Self {
            adaptation: RateAdaptation::Ideal,
            query_bits: 28,
        }
    }
}

/// Result of serving one device once.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceService {
    /// The payload bitrate used, in bits per second (0 if unreachable).
    pub bitrate_bps: f64,
    /// Time spent on the AP query, in seconds.
    pub query_s: f64,
    /// Time spent on the device's preamble, in seconds.
    pub preamble_s: f64,
    /// Time spent on the payload, in seconds.
    pub payload_s: f64,
    /// Whether the device could be served at all.
    pub reachable: bool,
}

impl DeviceService {
    /// Total service time for this device.
    pub fn total_s(&self) -> f64 {
        self.query_s + self.preamble_s + self.payload_s
    }
}

/// Network-level accounting for the TDMA LoRa-backscatter baseline.
#[derive(Debug, Clone)]
pub struct LoraBackscatterNetwork {
    profile: PhyProfile,
    scheme: LoraScheme,
}

impl LoraBackscatterNetwork {
    /// Creates the baseline network model.
    pub fn new(profile: PhyProfile, scheme: LoraScheme) -> Self {
        Self { profile, scheme }
    }

    /// Accounts for serving one device whose uplink is received at
    /// `rssi_dbm`, delivering `payload_bits` payload bits.
    ///
    /// The preamble length in *symbols* matches NetScatter's (8), but because
    /// the baseline serves devices one at a time the preamble cost is paid
    /// once per device rather than once per round. Each preamble symbol
    /// lasts `symbol_s = SF / bitrate`: the profile's spreading factor over
    /// the bitrate the scheme picked for this device, so a rate-adapted
    /// device's preamble shrinks with its payload.
    pub fn serve_device(&self, rssi_dbm: f64, payload_bits: usize) -> DeviceService {
        let query_s = self.scheme.query_bits as f64 / self.profile.downlink_bitrate_bps;
        match self.scheme.adaptation.bitrate_bps(rssi_dbm) {
            Some(bitrate_bps) => {
                // The preamble uses the same modulation as the payload, so its
                // symbol duration shrinks when rate adaptation picks a faster
                // configuration: one CSS symbol carries SF bits, so
                // symbol duration ≈ SF / bitrate.
                let symbol_s = self.profile.modulation.spreading_factor as f64 / bitrate_bps;
                DeviceService {
                    bitrate_bps,
                    query_s,
                    preamble_s: PREAMBLE_SYMBOLS as f64 * symbol_s,
                    payload_s: payload_bits as f64 / bitrate_bps,
                    reachable: true,
                }
            }
            None => DeviceService {
                bitrate_bps: 0.0,
                query_s,
                preamble_s: 0.0,
                payload_s: 0.0,
                reachable: false,
            },
        }
    }

    /// Serves every device once (sequentially) and returns
    /// `(phy_rate_bps, link_layer_rate_bps, latency_s)`:
    ///
    /// * PHY rate — delivered payload bits over payload airtime only,
    /// * link-layer rate — delivered payload bits over the total schedule
    ///   (queries + preambles + payloads),
    /// * latency — the total time to collect one payload from every device.
    pub fn network_metrics(&self, rssi_dbm: &[f64], payload_bits: usize) -> (f64, f64, f64) {
        let services: Vec<DeviceService> = rssi_dbm
            .iter()
            .map(|&r| self.serve_device(r, payload_bits))
            .collect();
        let delivered_bits: f64 = services
            .iter()
            .filter(|s| s.reachable)
            .map(|_| payload_bits as f64)
            .sum();
        let payload_time: f64 = services.iter().map(|s| s.payload_s).sum();
        let total_time: f64 = services.iter().map(|s| s.total_s()).sum();
        let phy = if payload_time > 0.0 {
            delivered_bits / payload_time
        } else {
            0.0
        };
        let link = if total_time > 0.0 {
            delivered_bits / total_time
        } else {
            0.0
        };
        (phy, link, total_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate_adaptation::FIXED_LORA_BACKSCATTER_BPS;

    fn profile() -> PhyProfile {
        PhyProfile::default()
    }

    #[test]
    fn single_device_fixed_rate_phy_rate_is_the_fixed_rate() {
        let net = LoraBackscatterNetwork::new(profile(), LoraScheme::fixed());
        let (phy, link, latency) = net.network_metrics(&[-100.0], 40);
        assert!((phy - FIXED_LORA_BACKSCATTER_BPS).abs() < 1.0);
        assert!(link < phy, "overheads must reduce the link-layer rate");
        assert!(latency > 0.0);
    }

    #[test]
    fn rate_adaptation_beats_fixed_rate_for_strong_devices() {
        let strong = vec![-75.0; 16];
        let fixed = LoraBackscatterNetwork::new(profile(), LoraScheme::fixed());
        let adapted = LoraBackscatterNetwork::new(profile(), LoraScheme::rate_adapted());
        let (phy_f, _, lat_f) = fixed.network_metrics(&strong, 40);
        let (phy_a, _, lat_a) = adapted.network_metrics(&strong, 40);
        assert!(phy_a > phy_f);
        assert!(lat_a < lat_f);
    }

    #[test]
    fn latency_grows_linearly_with_devices() {
        let net = LoraBackscatterNetwork::new(profile(), LoraScheme::fixed());
        let (_, _, lat64) = net.network_metrics(&vec![-100.0; 64], 40);
        let (_, _, lat128) = net.network_metrics(&vec![-100.0; 128], 40);
        assert!((lat128 / lat64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn unreachable_devices_contribute_query_time_but_no_bits() {
        let net = LoraBackscatterNetwork::new(profile(), LoraScheme::fixed());
        let service = net.serve_device(-140.0, 40);
        assert!(!service.reachable);
        assert_eq!(service.bitrate_bps, 0.0);
        assert!(service.total_s() > 0.0);
        let (phy, link, _) = net.network_metrics(&[-140.0], 40);
        assert_eq!(phy, 0.0);
        assert_eq!(link, 0.0);
    }

    #[test]
    fn per_device_query_overhead_is_200_microseconds_or_less() {
        let net = LoraBackscatterNetwork::new(profile(), LoraScheme::fixed());
        let s = net.serve_device(-100.0, 40);
        assert!((s.query_s - 28.0 / 160e3).abs() < 1e-12);
        assert!(s.preamble_s > s.query_s, "preamble dominates the query");
    }
}
