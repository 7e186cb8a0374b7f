//! Path-loss models and the backscatter link budget.
//!
//! The paper's deployment spans an office floor with more than ten rooms;
//! the AP transmits a 30 dBm single tone, tags receive the ASK query through
//! an envelope detector with −49 dBm sensitivity, and the backscattered CSS
//! signal arrives back at the AP well below the noise floor (Table 1 lists
//! −120…−123 dBm sensitivities). This module models those links:
//!
//! * `fspl_db` — free-space path loss.
//! * [`IndoorPathLoss`] — log-distance path loss with per-wall attenuation
//!   and log-normal shadowing, the standard indoor model.
//! * [`LinkBudget`] — the one-way (downlink) and round-trip (backscatter
//!   uplink) budgets, including the tag's backscatter power gain selected by
//!   the switch network (0 / −4 / −10 dB, §3.2.3).

use crate::noise::standard_normal;
use netscatter_dsp::units::SPEED_OF_LIGHT;
use rand::Rng;

/// Free-space path loss in dB at `distance_m` metres and `frequency_hz`.
///
/// `FSPL = 20·log10(4π·d·f / c)`. The result is clamped at 0 dB so that
/// degenerate (near-zero) distances never produce a negative "loss".
fn fspl_db(distance_m: f64, frequency_hz: f64) -> f64 {
    let d = distance_m.max(0.01);
    (20.0 * (4.0 * std::f64::consts::PI * d * frequency_hz / SPEED_OF_LIGHT).log10()).max(0.0)
}

/// Log-distance indoor path-loss model with wall attenuation and log-normal
/// shadowing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndoorPathLoss {
    /// Carrier frequency in Hz (the paper operates in the 900 MHz ISM band).
    pub frequency_hz: f64,
    /// Path-loss exponent; ~3 for through-wall indoor propagation.
    pub exponent: f64,
    /// Reference distance in metres for the log-distance model.
    pub reference_distance_m: f64,
    /// Attenuation added per interior wall crossed, in dB.
    pub wall_loss_db: f64,
    /// Standard deviation of log-normal shadowing, in dB.
    pub shadowing_sigma_db: f64,
}

impl Default for IndoorPathLoss {
    fn default() -> Self {
        Self {
            frequency_hz: 900e6,
            exponent: 3.0,
            reference_distance_m: 1.0,
            wall_loss_db: 5.0,
            shadowing_sigma_db: 4.0,
        }
    }
}

impl IndoorPathLoss {
    /// Median (no-shadowing) path loss in dB over `distance_m` metres
    /// crossing `walls` interior walls.
    fn median_loss_db(&self, distance_m: f64, walls: usize) -> f64 {
        let d = distance_m.max(self.reference_distance_m);
        fspl_db(self.reference_distance_m, self.frequency_hz)
            + 10.0 * self.exponent * (d / self.reference_distance_m).log10()
            + self.wall_loss_db * walls as f64
    }

    /// Draws a log-normal shadowing term in dB (zero mean).
    fn sample_shadowing_db<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.shadowing_sigma_db * standard_normal(rng)
    }

    /// Median loss plus a freshly sampled shadowing term.
    pub fn sample_loss_db<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        distance_m: f64,
        walls: usize,
    ) -> f64 {
        self.median_loss_db(distance_m, walls) + self.sample_shadowing_db(rng)
    }
}

/// The power budget of a backscatter link between the AP and one tag.
///
/// The same one-way path loss `PL` applies to the downlink (AP query →
/// envelope detector) and to each leg of the backscatter round trip, so the
/// uplink budget carries `2·PL` plus the tag's backscatter conversion loss
/// and its configurable backscatter power gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// AP transmit power in dBm (paper: 0 dBm USRP output + 30 dB PA = 30 dBm).
    pub ap_tx_power_dbm: f64,
    /// AP antenna gain in dBi (applied on both transmit and receive).
    pub ap_antenna_gain_dbi: f64,
    /// Tag antenna gain in dBi (paper: 2 dBi whip antenna).
    pub tag_antenna_gain_dbi: f64,
    /// Intrinsic backscatter conversion loss in dB (modulation efficiency of
    /// reflecting the carrier; ~5 dB for an ideal two-impedance switch once
    /// harmonics and mismatch are accounted for).
    pub backscatter_conversion_loss_db: f64,
}

impl Default for LinkBudget {
    fn default() -> Self {
        Self {
            ap_tx_power_dbm: 30.0,
            ap_antenna_gain_dbi: 3.0,
            tag_antenna_gain_dbi: 2.0,
            backscatter_conversion_loss_db: 5.0,
        }
    }
}

impl LinkBudget {
    /// Received power in dBm at the tag's envelope detector for a given
    /// one-way path loss (downlink budget).
    pub fn downlink_rssi_dbm(&self, one_way_path_loss_db: f64) -> f64 {
        self.ap_tx_power_dbm + self.ap_antenna_gain_dbi + self.tag_antenna_gain_dbi
            - one_way_path_loss_db
    }

    /// Received backscatter power in dBm at the AP for a given one-way path
    /// loss and the tag's configured backscatter power gain
    /// (0, −4 or −10 dB in the paper's hardware).
    pub fn uplink_rssi_dbm(&self, one_way_path_loss_db: f64, backscatter_gain_db: f64) -> f64 {
        self.ap_tx_power_dbm + 2.0 * (self.ap_antenna_gain_dbi + self.tag_antenna_gain_dbi)
            - 2.0 * one_way_path_loss_db
            - self.backscatter_conversion_loss_db
            + backscatter_gain_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fspl_reference_values() {
        // 1 m @ 900 MHz ≈ 31.5 dB; 100 m @ 900 MHz ≈ 71.5 dB.
        assert!((fspl_db(1.0, 900e6) - 31.5).abs() < 0.3);
        assert!((fspl_db(100.0, 900e6) - 71.5).abs() < 0.3);
        // Doubling distance adds 6 dB.
        assert!((fspl_db(20.0, 900e6) - fspl_db(10.0, 900e6) - 6.02).abs() < 0.05);
        // Degenerate distance does not produce negative loss at 900 MHz.
        assert!(fspl_db(0.0, 900e6) >= 0.0);
    }

    #[test]
    fn median_loss_grows_with_distance_and_walls() {
        let model = IndoorPathLoss::default();
        let near = model.median_loss_db(2.0, 0);
        let far = model.median_loss_db(20.0, 0);
        let far_walls = model.median_loss_db(20.0, 3);
        assert!(far > near);
        // 10x distance with exponent 3 adds 30 dB.
        assert!((far - near - 30.0).abs() < 0.1);
        assert!((far_walls - far - 15.0).abs() < 1e-9);
    }

    #[test]
    fn distances_below_reference_clamp_to_reference() {
        let model = IndoorPathLoss::default();
        assert_eq!(model.median_loss_db(0.1, 0), model.median_loss_db(1.0, 0));
    }

    #[test]
    fn shadowing_statistics_match_sigma() {
        let model = IndoorPathLoss {
            shadowing_sigma_db: 4.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| model.sample_shadowing_db(&mut rng))
            .collect();
        let mean = netscatter_dsp::stats::mean(&samples);
        let sd = netscatter_dsp::stats::variance(&samples).sqrt();
        assert!(mean.abs() < 0.1);
        assert!((sd - 4.0).abs() < 0.15);
    }

    #[test]
    fn downlink_budget_reaches_envelope_detector_across_office() {
        // A tag 25 m away through 3 walls must still hear the query:
        // PL ≈ 31.5 + 30·log10(25) + 15 ≈ 88.4 dB -> RSSI ≈ 30+5-88.4 ≈ -53 dBm.
        // That is below a -49 dBm envelope detector, so such a tag would be
        // out of downlink range — while a tag 15 m / 2 walls away is in range.
        let budget = LinkBudget::default();
        let pl_model = IndoorPathLoss::default();
        let far = budget.downlink_rssi_dbm(pl_model.median_loss_db(25.0, 3));
        let near = budget.downlink_rssi_dbm(pl_model.median_loss_db(15.0, 2));
        assert!(far < -49.0);
        assert!(near > -49.0);
    }

    #[test]
    fn uplink_budget_is_round_trip() {
        let budget = LinkBudget::default();
        let pl = 70.0;
        let up = budget.uplink_rssi_dbm(pl, 0.0);
        let down = budget.downlink_rssi_dbm(pl);
        // The uplink suffers the path loss twice plus conversion loss.
        assert!(
            (down
                - up
                - (pl + budget.backscatter_conversion_loss_db
                    - budget.ap_antenna_gain_dbi
                    - budget.tag_antenna_gain_dbi))
                .abs()
                < 1e-9
        );
        // Backscatter gain scales the uplink dB-for-dB.
        assert!((budget.uplink_rssi_dbm(pl, -10.0) - (up - 10.0)).abs() < 1e-12);
    }

    #[test]
    fn uplink_lands_below_noise_floor_at_range() {
        // A tag ~12 m away through 2 walls backscatters at roughly
        // -100..-120 dBm — below the -111 dBm noise floor of a 500 kHz
        // channel, which is exactly the regime CSS coding gain targets.
        let budget = LinkBudget::default();
        let pl_model = IndoorPathLoss::default();
        let pl = pl_model.median_loss_db(12.0, 2);
        let rssi = budget.uplink_rssi_dbm(pl, 0.0);
        let noise_floor = netscatter_dsp::units::thermal_noise_dbm(500e3, 6.0);
        assert!(
            rssi < noise_floor,
            "uplink {rssi} dBm should be below the {noise_floor} dBm floor"
        );
        assert!(
            rssi > -135.0,
            "uplink {rssi} dBm should still be within CSS sensitivity reach"
        );
    }
}
