//! Office-scale deployment generation.
//!
//! The paper deploys 256 devices across one office floor with more than ten
//! rooms (Fig. 1). The generator here reproduces that setting statistically:
//! a grid of rooms, an AP near the middle of the floor, devices placed
//! uniformly at random, and per-device link budgets derived from the indoor
//! path-loss model. Devices whose downlink RSSI falls below the envelope
//! detector's sensitivity are re-drawn (the paper's deployment only contains
//! devices that can hear the AP).

use netscatter_channel::geometry::{Floorplan, Position};
use netscatter_channel::pathloss::{IndoorPathLoss, LinkBudget};
use netscatter_dsp::units::thermal_noise_dbm;
use netscatter_phy::params::PhyProfile;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentConfig {
    /// Number of backscatter devices.
    pub num_devices: usize,
    /// Rooms along the corridor (x direction).
    pub rooms_x: usize,
    /// Rooms across (y direction).
    pub rooms_y: usize,
    /// Room width in metres.
    pub room_w: f64,
    /// Room depth in metres.
    pub room_d: f64,
    /// PHY profile (for bandwidth-dependent noise floor and envelope
    /// sensitivity).
    pub profile: PhyProfile,
    /// Maximum number of placement retries per device before accepting the
    /// last draw even if it is out of downlink range.
    pub max_retries: usize,
    /// Accepted range of one-way path loss (dB). Placements outside it are
    /// re-drawn; this calibrates the deployment to the paper's, where all
    /// 256 physical tags were placed so the AP could serve them in one group
    /// (an uplink spread of roughly 35–40 dB, §4.3).
    pub one_way_path_loss_range_db: (f64, f64),
}

impl DeploymentConfig {
    /// A deployment comparable to the paper's: `num_devices` devices across a
    /// 6×2 grid of 5 m × 6 m offices (12 rooms).
    pub fn office(num_devices: usize) -> Self {
        Self {
            num_devices,
            rooms_x: 6,
            rooms_y: 2,
            room_w: 5.0,
            room_d: 6.0,
            profile: PhyProfile::default(),
            max_retries: 50,
            one_way_path_loss_range_db: (58.0, 76.0),
        }
    }

    /// An open-plan hall: one 30 m × 12 m space with no interior walls, so
    /// the link-budget spread comes from distance (and shadowing) alone.
    /// Pairs with [`crate::fullround::ChannelModel::outdoor`] for the
    /// beyond-the-paper workload combinations the scenario API exposes.
    pub fn hall(num_devices: usize) -> Self {
        Self {
            num_devices,
            rooms_x: 1,
            rooms_y: 1,
            room_w: 30.0,
            room_d: 12.0,
            profile: PhyProfile::default(),
            max_retries: 50,
            one_way_path_loss_range_db: (58.0, 76.0),
        }
    }
}

/// The link budget of one deployed device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceLink {
    /// Device position (metres).
    pub x: f64,
    /// Device position (metres).
    pub y: f64,
    /// Distance to the AP in metres.
    pub distance_m: f64,
    /// Interior walls between the device and the AP.
    pub walls: usize,
    /// Downlink RSSI at the envelope detector, in dBm.
    pub downlink_rssi_dbm: f64,
    /// Backscatter uplink RSSI at the AP (at full backscatter gain), in dBm.
    pub uplink_rssi_dbm: f64,
    /// Uplink SNR at the AP over the chirp bandwidth, in dB.
    pub uplink_snr_db: f64,
}

/// A generated deployment.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Configuration used.
    pub config: DeploymentConfig,
    /// AP position.
    pub ap: Position,
    /// Per-device links.
    pub devices: Vec<DeviceLink>,
}

impl Deployment {
    /// Generates a deployment with the given RNG.
    pub fn generate<R: Rng + ?Sized>(config: DeploymentConfig, rng: &mut R) -> Self {
        let plan =
            Floorplan::office_grid(config.rooms_x, config.rooms_y, config.room_w, config.room_d);
        let (w, d) = plan.extent();
        let ap = Position::new(w / 2.0, d / 2.0);
        let pathloss = IndoorPathLoss::default();
        let budget = LinkBudget::default();
        let noise_floor = thermal_noise_dbm(
            config.profile.modulation.bandwidth_hz,
            config.profile.modulation.noise_figure_db,
        );
        let (pl_min, pl_max) = config.one_way_path_loss_range_db;
        let mut devices = Vec::with_capacity(config.num_devices);
        for _ in 0..config.num_devices {
            let mut chosen = None;
            for attempt in 0..config.max_retries.max(1) {
                let pos = Position::new(rng.gen_range(0.0..w), rng.gen_range(0.0..d));
                let distance = ap.distance_to(&pos);
                let walls = plan.walls_between(&ap, &pos);
                let mut pl = pathloss.sample_loss_db(rng, distance, walls);
                let accepted = pl >= pl_min && pl <= pl_max;
                if !accepted && attempt + 1 == config.max_retries.max(1) {
                    // Last attempt: clamp into the calibrated range rather
                    // than leaving an outlier in the deployment.
                    pl = pl.clamp(pl_min, pl_max);
                }
                let downlink = budget.downlink_rssi_dbm(pl);
                let uplink = budget.uplink_rssi_dbm(pl, 0.0);
                let link = DeviceLink {
                    x: pos.x,
                    y: pos.y,
                    distance_m: distance,
                    walls,
                    downlink_rssi_dbm: downlink,
                    uplink_rssi_dbm: uplink,
                    uplink_snr_db: uplink - noise_floor,
                };
                chosen = Some(link);
                if accepted && downlink >= config.profile.envelope_sensitivity_dbm {
                    break;
                }
            }
            devices.push(chosen.expect("max_retries >= 1"));
        }
        Self {
            config,
            ap,
            devices,
        }
    }

    /// Uplink RSSI values of all devices, in dBm.
    pub fn uplink_rssi_dbm(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.uplink_rssi_dbm).collect()
    }

    /// The spread (max − min) of uplink RSSI across devices, in dB — the
    /// near-far dynamic range the receiver must absorb.
    pub fn dynamic_range_db(&self) -> f64 {
        let rssi = self.uplink_rssi_dbm();
        rssi.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - rssi.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deployment_has_requested_size_and_sane_links() {
        let mut rng = StdRng::seed_from_u64(1);
        let dep = Deployment::generate(DeploymentConfig::office(256), &mut rng);
        assert_eq!(dep.devices.len(), 256);
        for link in &dep.devices {
            assert!(link.distance_m >= 0.0 && link.distance_m < 40.0);
            assert!(link.downlink_rssi_dbm > -80.0 && link.downlink_rssi_dbm < 40.0);
            assert!(link.uplink_rssi_dbm < link.downlink_rssi_dbm);
        }
    }

    #[test]
    fn most_devices_hear_the_query_and_uplinks_are_below_noise() {
        let mut rng = StdRng::seed_from_u64(2);
        let dep = Deployment::generate(DeploymentConfig::office(256), &mut rng);
        let hear = dep
            .devices
            .iter()
            .filter(|d| d.downlink_rssi_dbm >= -49.0)
            .count();
        assert!(
            hear as f64 > 0.9 * 256.0,
            "only {hear} devices hear the query"
        );
        // The interesting regime: a sizeable fraction of uplinks below the noise floor.
        let below = dep.devices.iter().filter(|d| d.uplink_snr_db < 0.0).count();
        assert!(below > 40, "only {below} devices are below the noise floor");
    }

    #[test]
    fn dynamic_range_spans_tens_of_db() {
        let mut rng = StdRng::seed_from_u64(3);
        let dep = Deployment::generate(DeploymentConfig::office(128), &mut rng);
        let dr = dep.dynamic_range_db();
        assert!(dr > 20.0 && dr < 55.0, "dynamic range {dr} dB");
        assert_eq!(dep.uplink_rssi_dbm().len(), 128);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let a = Deployment::generate(DeploymentConfig::office(16), &mut StdRng::seed_from_u64(7));
        let b = Deployment::generate(DeploymentConfig::office(16), &mut StdRng::seed_from_u64(7));
        assert_eq!(a.devices, b.devices);
    }
}
