//! The backscatter device: downlink reception, association state machine,
//! self-aware power adjustment, and uplink symbol generation.
//!
//! A NetScatter device is deliberately simple — an envelope detector, a small
//! baseband, a chirp generator and a switch network — and all the
//! intelligence it has is captured here:
//!
//! * at association it picks an initial backscatter gain from the query's
//!   downlink strength (weak downlink → full power, strong downlink → the
//!   middle setting, §3.2.3),
//! * afterwards it tracks the query strength against the association-time
//!   baseline and steps its gain down when the channel improves and up when
//!   it degrades (channel reciprocity, zero protocol overhead),
//! * if it cannot meet its SNR target with the gains it has, it skips the
//!   round; after two consecutive skips it re-initiates association so the
//!   AP can reassign cyclic shifts (§3.2.3).

use crate::power::BackscatterGain;
use netscatter_channel::impairments::{DeviceImpairments, ImpairmentModel, PacketImpairments};
use netscatter_dsp::Complex64;
use netscatter_phy::distributed::OnOffModulator;
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::PreambleBuilder;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Association state of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssociationState {
    /// Not part of the network; will transmit association requests.
    Unassociated,
    /// Sent an association request, waiting for the AP's response.
    Requesting,
    /// Received an assignment, needs to acknowledge it.
    Acknowledging,
    /// Fully associated with an assigned cyclic shift.
    Associated,
}

/// Static configuration of a device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Numeric identifier (the 8-bit network ID once associated).
    pub id: u16,
    /// How much the downlink RSSI must move (dB) before the device steps its
    /// backscatter gain.
    pub power_step_threshold_db: f64,
    /// How far (dB) the downlink can degrade beyond the weakest compensable
    /// point before the device concludes it cannot meet its SNR target and
    /// skips the round.
    pub max_uncompensated_drop_db: f64,
    /// Downlink RSSI (dBm) below which the device selects full power at
    /// association; above it, the middle setting (leaves headroom both ways).
    pub association_full_power_below_dbm: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            id: 0,
            power_step_threshold_db: 2.0,
            max_uncompensated_drop_db: 12.0,
            association_full_power_below_dbm: -40.0,
        }
    }
}

/// What the device decides to do in a given round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransmitDecision {
    /// Transmit data this round with the given gain.
    Transmit(BackscatterGain),
    /// Stay silent this round (cannot meet the SNR requirement).
    Skip,
    /// Give up on the current assignment and re-initiate association.
    Reassociate,
}

/// A backscatter device instance.
#[derive(Debug, Clone)]
pub struct BackscatterDevice {
    /// Static configuration.
    pub config: DeviceConfig,
    /// Manufacturing imperfections (static CFO, mean hardware delay).
    pub impairments: DeviceImpairments,
    state: AssociationState,
    assigned_bin: Option<usize>,
    gain: BackscatterGain,
    /// Downlink RSSI measured at association (the power-adjustment baseline).
    baseline_downlink_dbm: Option<f64>,
    consecutive_skips: u8,
    profile: PhyProfile,
}

impl BackscatterDevice {
    /// Creates an unassociated device with impairments drawn from `model`.
    pub fn new<R: Rng + ?Sized>(
        config: DeviceConfig,
        profile: PhyProfile,
        model: &ImpairmentModel,
        rng: &mut R,
    ) -> Self {
        Self {
            config,
            impairments: model.sample_device(rng),
            state: AssociationState::Unassociated,
            assigned_bin: None,
            gain: BackscatterGain::Full,
            baseline_downlink_dbm: None,
            consecutive_skips: 0,
            profile,
        }
    }

    /// Current association state.
    pub fn state(&self) -> AssociationState {
        self.state
    }

    /// Currently assigned chirp bin, if associated.
    pub fn assigned_bin(&self) -> Option<usize> {
        self.assigned_bin
    }

    /// Current backscatter gain setting.
    pub fn gain(&self) -> BackscatterGain {
        self.gain
    }

    /// Whether the device can hear the query at all (envelope-detector
    /// sensitivity check).
    pub fn hears_query(&self, downlink_rssi_dbm: f64) -> bool {
        downlink_rssi_dbm >= self.profile.envelope_sensitivity_dbm
    }

    /// Handles the association response: the AP assigned `chirp_bin`. Called
    /// when the device decodes its own network ID in a query. Captures the
    /// power baseline and the initial gain from the downlink strength.
    pub fn accept_assignment(&mut self, chirp_bin: usize, downlink_rssi_dbm: f64) {
        self.assigned_bin = Some(chirp_bin);
        self.baseline_downlink_dbm = Some(downlink_rssi_dbm);
        self.gain = if downlink_rssi_dbm < self.config.association_full_power_below_dbm {
            BackscatterGain::Full
        } else {
            BackscatterGain::Medium
        };
        self.state = AssociationState::Associated;
        self.consecutive_skips = 0;
    }

    /// The fine-grained self-aware power adjustment (§3.2.3): given the
    /// downlink RSSI of this round's query, adjust the backscatter gain so
    /// the uplink strength at the AP stays near its association-time value,
    /// and decide whether to transmit at all.
    pub fn power_adjust_and_decide(&mut self, downlink_rssi_dbm: f64) -> TransmitDecision {
        if !self.hears_query(downlink_rssi_dbm) || self.assigned_bin.is_none() {
            return TransmitDecision::Skip;
        }
        let baseline = match self.baseline_downlink_dbm {
            Some(b) => b,
            None => return TransmitDecision::Skip,
        };
        let delta_db = downlink_rssi_dbm - baseline;
        // Channel improved: back the power off, one step per threshold.
        while self.channel_headroom_db() < delta_db - self.config.power_step_threshold_db {
            match self.gain.weaker() {
                Some(g) => self.gain = g,
                None => break,
            }
        }
        // Channel degraded: raise power.
        while self.channel_headroom_db() > delta_db + self.config.power_step_threshold_db {
            match self.gain.stronger() {
                Some(g) => self.gain = g,
                None => break,
            }
        }
        // If the channel degraded further than the strongest setting can
        // compensate, the device cannot meet its SNR target.
        let uncompensated = -(delta_db - self.channel_headroom_db());
        if uncompensated > self.config.max_uncompensated_drop_db {
            self.consecutive_skips += 1;
            if self.consecutive_skips > 2 {
                self.state = AssociationState::Unassociated;
                return TransmitDecision::Reassociate;
            }
            return TransmitDecision::Skip;
        }
        self.consecutive_skips = 0;
        TransmitDecision::Transmit(self.gain)
    }

    /// How many dB *below* the association-time setting the current gain sits
    /// (0 for the setting chosen at association minus the current one).
    fn channel_headroom_db(&self) -> f64 {
        // The baseline gain chosen at association is the reference; moving to
        // a weaker setting means the device believes the channel improved by
        // the difference.
        let baseline_gain = if self
            .baseline_downlink_dbm
            .map(|b| b < self.config.association_full_power_below_dbm)
            .unwrap_or(true)
        {
            BackscatterGain::Full
        } else {
            BackscatterGain::Medium
        };
        baseline_gain.db() - self.gain.db()
    }

    /// Draws this packet's impairments (hardware delay jitter + CFO drift).
    ///
    /// A tag's pipeline delay is consistent packet to packet, so the device
    /// pre-compensates its own calibrated delay when timing its response
    /// (§3.2.1). The compensation is deliberately *conservative* — it
    /// subtracts `mean − 2·jitter_sigma`, not the full mean — so that even a
    /// fast jitter draw almost never makes the tag respond before its
    /// nominal slot. On-air timing offsets therefore stay one-sided (small
    /// and positive, within a fraction of an FFT bin), which is the
    /// invariant that lets the receiver measure every device at its
    /// assigned bin without SKIP-spaced neighbours bleeding into each
    /// other's measurements.
    pub fn packet_impairments<R: Rng + ?Sized>(
        &self,
        model: &ImpairmentModel,
        rng: &mut R,
    ) -> PacketImpairments {
        let mut packet = model.sample_packet(rng, &self.impairments);
        let margin = 2.0 * model.delay.jitter_sigma_s;
        let compensation = (self.impairments.mean_hardware_delay_s - margin).max(0.0);
        packet.timing_offset_s -= compensation;
        packet
    }

    /// Generates this device's preamble waveform for the round (at unit
    /// channel gain; the channel model scales it).
    pub fn preamble_waveform(
        &self,
        impairments: &PacketImpairments,
        channel_amplitude: f64,
    ) -> Option<Vec<Complex64>> {
        let bin = self.assigned_bin?;
        let builder = PreambleBuilder::new(self.profile.modulation.chirp(), bin);
        Some(builder.build(
            impairments.timing_offset_s,
            impairments.freq_offset_hz,
            channel_amplitude * self.gain.amplitude(),
        ))
    }

    /// Generates this device's payload waveform for `bits`.
    pub fn payload_waveform(
        &self,
        bits: &[bool],
        impairments: &PacketImpairments,
        channel_amplitude: f64,
    ) -> Option<Vec<Complex64>> {
        let bin = self.assigned_bin?;
        let modulator = OnOffModulator::new(self.profile.modulation.chirp(), bin);
        Some(modulator.modulate_payload(
            bits,
            impairments.timing_offset_s,
            impairments.freq_offset_hz,
            channel_amplitude * self.gain.amplitude(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_device(seed: u64) -> BackscatterDevice {
        let mut rng = StdRng::seed_from_u64(seed);
        BackscatterDevice::new(
            DeviceConfig::default(),
            PhyProfile::default(),
            &ImpairmentModel::cots_backscatter(),
            &mut rng,
        )
    }

    #[test]
    fn new_device_is_unassociated() {
        let mut d = make_device(1);
        assert_eq!(d.state(), AssociationState::Unassociated);
        assert_eq!(d.assigned_bin(), None);
        assert_eq!(d.power_adjust_and_decide(-40.0), TransmitDecision::Skip);
    }

    #[test]
    fn envelope_sensitivity_gates_the_query() {
        let d = make_device(2);
        assert!(d.hears_query(-48.0));
        assert!(d.hears_query(-49.0));
        assert!(!d.hears_query(-49.1));
    }

    #[test]
    fn association_sets_initial_gain_from_downlink_strength() {
        // Weak downlink (far device) -> full power; strong downlink -> medium.
        let mut far = make_device(3);
        far.accept_assignment(100, -45.0);
        assert_eq!(far.gain(), BackscatterGain::Full);
        assert_eq!(far.state(), AssociationState::Associated);
        assert_eq!(far.assigned_bin(), Some(100));

        let mut near = make_device(4);
        near.accept_assignment(4, -30.0);
        assert_eq!(near.gain(), BackscatterGain::Medium);
        assert_eq!(near.baseline_downlink_dbm, Some(-30.0));
    }

    #[test]
    fn stable_channel_keeps_gain_and_transmits() {
        let mut d = make_device(5);
        d.accept_assignment(10, -35.0);
        let before = d.gain();
        assert_eq!(
            d.power_adjust_and_decide(-35.5),
            TransmitDecision::Transmit(before)
        );
        assert_eq!(d.gain(), before);
    }

    #[test]
    fn improving_channel_lowers_power_and_degrading_raises_it() {
        let mut d = make_device(6);
        d.accept_assignment(10, -35.0); // medium gain baseline
                                        // Channel improves by 5 dB -> step down to low.
        assert!(matches!(
            d.power_adjust_and_decide(-30.0),
            TransmitDecision::Transmit(_)
        ));
        assert_eq!(d.gain(), BackscatterGain::Low);
        // Channel returns to baseline -> back to medium.
        assert!(matches!(
            d.power_adjust_and_decide(-35.0),
            TransmitDecision::Transmit(_)
        ));
        assert_eq!(d.gain(), BackscatterGain::Medium);
        // Channel degrades by 5 dB -> full power.
        assert!(matches!(
            d.power_adjust_and_decide(-40.0),
            TransmitDecision::Transmit(_)
        ));
        assert_eq!(d.gain(), BackscatterGain::Full);
    }

    #[test]
    fn unrecoverable_degradation_skips_then_reassociates() {
        let mut d = make_device(7);
        d.accept_assignment(10, -30.0); // medium baseline
                                        // A 20 dB drop exceeds the 4 dB of headroom plus the 12 dB margin.
        assert_eq!(
            d.power_adjust_and_decide(-50.0 + 1.0),
            TransmitDecision::Skip
        );
        assert_eq!(
            d.power_adjust_and_decide(-50.0 + 1.0),
            TransmitDecision::Skip
        );
        assert_eq!(
            d.power_adjust_and_decide(-50.0 + 1.0),
            TransmitDecision::Reassociate
        );
        assert_eq!(d.state(), AssociationState::Unassociated);
    }

    #[test]
    fn query_below_sensitivity_means_skip() {
        let mut d = make_device(8);
        d.accept_assignment(10, -40.0);
        assert_eq!(d.power_adjust_and_decide(-55.0), TransmitDecision::Skip);
    }

    #[test]
    fn waveforms_require_assignment_and_scale_with_gain() {
        let mut d = make_device(9);
        let imp = PacketImpairments::default();
        assert!(d.preamble_waveform(&imp, 1.0).is_none());
        d.accept_assignment(20, -45.0); // full power
        let pre = d.preamble_waveform(&imp, 1.0).unwrap();
        assert_eq!(pre.len(), 8 * 512);
        let payload = d.payload_waveform(&[true, false, true], &imp, 1.0).unwrap();
        assert_eq!(payload.len(), 3 * 512);
        // Full-power amplitude is 1.0 on the '1' symbols.
        assert!((payload[0].abs() - 1.0).abs() < 1e-9);
        // Switch to medium and check the amplitude drops by 4 dB.
        d.accept_assignment(20, -30.0);
        let payload2 = d.payload_waveform(&[true], &imp, 1.0).unwrap();
        assert!((payload2[0].abs() - BackscatterGain::Medium.amplitude()).abs() < 1e-9);
    }

    #[test]
    fn compensated_timing_offsets_are_one_sided_and_sub_bin() {
        // The conservative pre-compensation must keep on-air offsets small
        // and (essentially) non-negative: that one-sidedness is what lets
        // the receiver's forward-biased peak search separate SKIP-spaced
        // neighbours. Check across many devices and packets.
        let model = ImpairmentModel::cots_backscatter();
        let mut rng = StdRng::seed_from_u64(11);
        let margin = 2.0 * model.delay.jitter_sigma_s;
        for _ in 0..50 {
            let d = BackscatterDevice::new(
                DeviceConfig::default(),
                PhyProfile::default(),
                &model,
                &mut rng,
            );
            for _ in 0..200 {
                let p = d.packet_impairments(&model, &mut rng);
                // Never early by more than the receiver's backward window
                // slack (0.25 bins = 4 jitter sigmas at the cots model)…
                assert!(
                    p.timing_offset_s >= -4.0 * model.delay.jitter_sigma_s,
                    "offset {} s too early",
                    p.timing_offset_s
                );
                // …and never later than margin + jitter tail (≪ one bin).
                assert!(
                    p.timing_offset_s <= margin + 5.0 * model.delay.jitter_sigma_s,
                    "offset {} s too late",
                    p.timing_offset_s
                );
            }
        }
    }
}
