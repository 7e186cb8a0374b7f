//! Round-level protocol engine and end-to-end time accounting.
//!
//! A NetScatter round is: AP query (ASK downlink) → all scheduled devices
//! respond concurrently with an 8-symbol preamble followed by their payload
//! symbols. [`RoundTiming`] captures the airtime of each phase so the
//! network-level experiments (Figs. 17–19) can convert decoded bits into PHY
//! rate, link-layer rate, and latency; [`NetworkProtocol`] tracks the
//! per-round bookkeeping (who transmits, what was decoded).

use crate::query::QueryMessage;
use netscatter_phy::packet::PacketTiming;
use netscatter_phy::params::PhyProfile;
use serde::{Deserialize, Serialize};

/// Airtime breakdown of one concurrent round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundTiming {
    /// Downlink query duration in seconds.
    pub query_s: f64,
    /// Concurrent preamble duration in seconds (paid once for all devices).
    pub preamble_s: f64,
    /// Payload duration in seconds.
    pub payload_s: f64,
}

impl RoundTiming {
    /// Computes the timing of a NetScatter round where every device sends
    /// `payload_bits` payload bits (one bit per symbol) after `query`.
    pub fn netscatter(profile: &PhyProfile, query: &QueryMessage, payload_bits: usize) -> Self {
        let timing = PacketTiming::netscatter(&profile.modulation, payload_bits);
        Self {
            query_s: query.duration_s(profile.downlink_bitrate_bps),
            preamble_s: timing.preamble_symbols as f64 * timing.symbol_duration_s,
            payload_s: timing.payload_duration_s(),
        }
    }

    /// Total round duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.query_s + self.preamble_s + self.payload_s
    }
}

/// Outcome of one round as seen by the AP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RoundOutcome {
    /// Number of devices scheduled to transmit this round.
    pub scheduled: usize,
    /// Number of devices whose preamble was detected.
    pub detected: usize,
    /// Number of devices whose payload decoded without bit errors.
    pub decoded_clean: usize,
    /// Total payload bits decoded correctly across all devices.
    pub correct_bits: usize,
    /// Total payload bits transmitted across all scheduled devices.
    pub transmitted_bits: usize,
}

/// Aggregate network metrics over one or more rounds, matching the three
/// quantities §4.4 evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkMetrics {
    /// Network PHY bit rate: correctly decoded payload bits divided by the
    /// payload airtime only (Fig. 17's metric).
    pub phy_rate_bps: f64,
    /// Link-layer data rate: correct payload bits divided by the full round
    /// time including query and preamble overheads (Fig. 18's metric).
    pub link_layer_rate_bps: f64,
    /// Network latency: time to collect one payload from every scheduled
    /// device (Fig. 19's metric).
    pub latency_s: f64,
}

/// The round-level protocol engine.
#[derive(Debug, Clone)]
pub struct NetworkProtocol {
    profile: PhyProfile,
    rounds: Vec<(RoundTiming, RoundOutcome)>,
}

impl NetworkProtocol {
    /// Creates a protocol engine for the given PHY profile.
    pub fn new(profile: PhyProfile) -> Self {
        Self {
            profile,
            rounds: Vec::new(),
        }
    }

    /// The PHY profile in use.
    pub fn profile(&self) -> &PhyProfile {
        &self.profile
    }

    /// Records the result of one round.
    pub fn record_round(&mut self, timing: RoundTiming, outcome: RoundOutcome) {
        self.rounds.push((timing, outcome));
    }

    /// Aggregate metrics over all recorded rounds. Returns `None` if no
    /// rounds have been recorded.
    pub fn metrics(&self) -> Option<NetworkMetrics> {
        if self.rounds.is_empty() {
            return None;
        }
        let correct_bits: usize = self.rounds.iter().map(|(_, o)| o.correct_bits).sum();
        let payload_time: f64 = self.rounds.iter().map(|(t, _)| t.payload_s).sum();
        let total_time: f64 = self.rounds.iter().map(|(t, _)| t.total_s()).sum();
        Some(NetworkMetrics {
            phy_rate_bps: if payload_time > 0.0 {
                correct_bits as f64 / payload_time
            } else {
                0.0
            },
            link_layer_rate_bps: if total_time > 0.0 {
                correct_bits as f64 / total_time
            } else {
                0.0
            },
            latency_s: total_time / self.rounds.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryMessage;

    #[test]
    fn netscatter_round_timing_config1() {
        let profile = PhyProfile::default();
        let query = QueryMessage::config1(0);
        let timing = RoundTiming::netscatter(&profile, &query, 40);
        // Query 200 µs, preamble 8 × 1.024 ms, payload 40 × 1.024 ms.
        assert!((timing.query_s - 2.0e-4).abs() < 1e-9);
        assert!((timing.preamble_s - 8.192e-3).abs() < 1e-9);
        assert!((timing.payload_s - 40.96e-3).abs() < 1e-9);
        assert!((timing.total_s() - (2.0e-4 + 8.192e-3 + 40.96e-3)).abs() < 1e-9);
    }

    #[test]
    fn config2_query_dominates_less_than_payload() {
        // §4.4: even the 1760-bit config-2 query is small next to the
        // preamble + payload airtime.
        let profile = PhyProfile::default();
        let query = QueryMessage::config2(0, (0..=255u8).collect());
        let timing = RoundTiming::netscatter(&profile, &query, 40);
        assert!(timing.query_s < 0.015);
        assert!(timing.query_s < timing.payload_s + timing.preamble_s);
    }

    #[test]
    fn metrics_aggregate_over_rounds() {
        let profile = PhyProfile::default();
        let mut protocol = NetworkProtocol::new(profile);
        assert!(protocol.metrics().is_none());
        let query = QueryMessage::config1(0);
        let timing = RoundTiming::netscatter(&profile, &query, 40);
        for _ in 0..3 {
            protocol.record_round(
                timing,
                RoundOutcome {
                    scheduled: 256,
                    detected: 256,
                    decoded_clean: 256,
                    correct_bits: 256 * 40,
                    transmitted_bits: 256 * 40,
                },
            );
        }
        let m = protocol.metrics().unwrap();
        // PHY rate: 256 devices × ~976 bps ≈ 250 kbps.
        assert!((m.phy_rate_bps - 250_000.0).abs() < 1_000.0);
        // Link-layer rate is lower but the same order.
        assert!(m.link_layer_rate_bps < m.phy_rate_bps);
        assert!(m.link_layer_rate_bps > 200_000.0);
        // Latency per round ≈ 49.35 ms.
        assert!((m.latency_s - timing.total_s()).abs() < 1e-12);
    }
}
