//! Modulation configurations and the Table 1 sensitivity model.
//!
//! Table 1 of the paper lists six (bandwidth, spreading-factor) pairs with
//! the timing/frequency mismatch each can tolerate per FFT bin, the
//! per-device bit rate, and the receiver sensitivity. [`ModulationConfig`]
//! reproduces those derived quantities from first principles so the
//! `table1` experiment can regenerate the table.

use netscatter_dsp::chirp::{ChirpParams, ChirpParamsError};
use netscatter_dsp::units::{thermal_noise_dbm, DEFAULT_NOISE_FIGURE_DB};
use serde::{Deserialize, Serialize};

/// Minimum demodulation SNR (dB) of CSS at a given spreading factor,
/// following the SemTech SX1276 datasheet figures the paper's rate-adaptation
/// baseline uses (§4.4, reference \[4\]).
pub fn required_snr_db(spreading_factor: u32) -> f64 {
    match spreading_factor {
        5 => -2.5,
        6 => -5.0,
        7 => -7.5,
        8 => -10.0,
        9 => -12.5,
        10 => -15.0,
        11 => -17.5,
        _ => -20.0,
    }
}

/// A complete CSS modulation configuration: chirp parameters plus the
/// receiver noise figure used for sensitivity accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModulationConfig {
    /// Chirp bandwidth in hertz.
    pub bandwidth_hz: f64,
    /// Spreading factor.
    pub spreading_factor: u32,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
}

impl ModulationConfig {
    /// Creates a configuration with the default receiver noise figure.
    pub fn new(bandwidth_hz: f64, spreading_factor: u32) -> Result<Self, ChirpParamsError> {
        // Validate via ChirpParams.
        ChirpParams::new(bandwidth_hz, spreading_factor)?;
        Ok(Self {
            bandwidth_hz,
            spreading_factor,
            noise_figure_db: DEFAULT_NOISE_FIGURE_DB,
        })
    }

    /// The paper's deployment configuration: 500 kHz, SF 9.
    pub fn paper_default() -> Self {
        Self {
            bandwidth_hz: 500e3,
            spreading_factor: 9,
            noise_figure_db: DEFAULT_NOISE_FIGURE_DB,
        }
    }

    /// The six rows of Table 1, in order.
    pub fn table1_rows() -> Vec<Self> {
        [
            (500e3, 9),
            (500e3, 8),
            (250e3, 8),
            (250e3, 7),
            (125e3, 7),
            (125e3, 6),
        ]
        .into_iter()
        .map(|(bw, sf)| Self {
            bandwidth_hz: bw,
            spreading_factor: sf,
            noise_figure_db: DEFAULT_NOISE_FIGURE_DB,
        })
        .collect()
    }

    /// The underlying chirp parameters.
    pub fn chirp(&self) -> ChirpParams {
        ChirpParams::new(self.bandwidth_hz, self.spreading_factor)
            .expect("ModulationConfig is validated at construction")
    }

    /// Maximum timing mismatch (seconds) that keeps a peak within one FFT
    /// bin: `1/BW` (Table 1 "Time Variation").
    pub fn tolerable_timing_mismatch_s(&self) -> f64 {
        1.0 / self.bandwidth_hz
    }

    /// Maximum frequency mismatch (hertz) that keeps a peak within one FFT
    /// bin: `BW / 2^SF` (Table 1 "Frequency Variation").
    pub fn tolerable_frequency_mismatch_hz(&self) -> f64 {
        self.chirp().bin_spacing_hz()
    }

    /// Per-device ON-OFF-keyed bit rate, `BW / 2^SF` (Table 1 "Bit Rate").
    pub fn per_device_bitrate_bps(&self) -> f64 {
        self.chirp().on_off_bitrate_bps()
    }

    /// Single-user LoRa-style bit rate, `SF·BW / 2^SF`.
    pub fn lora_bitrate_bps(&self) -> f64 {
        self.chirp().lora_bitrate_bps()
    }

    /// Receiver sensitivity in dBm: thermal floor over `BW` plus the minimum
    /// demodulation SNR of the spreading factor (Table 1 "Sensitivity").
    pub fn sensitivity_dbm(&self) -> f64 {
        thermal_noise_dbm(self.bandwidth_hz, self.noise_figure_db)
            + required_snr_db(self.spreading_factor)
    }

    /// Number of FFT bins / concurrent devices supported, `2^SF`.
    pub fn num_bins(&self) -> usize {
        self.chirp().num_bins()
    }

    /// Symbol duration in seconds.
    pub fn symbol_duration_s(&self) -> f64 {
        self.chirp().symbol_duration_s()
    }
}

/// A named bundle of the physical-layer constants the MAC/protocol layer
/// needs, used to keep experiment configuration in one serializable place.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhyProfile {
    /// The modulation configuration in use.
    pub modulation: ModulationConfig,
    /// Number of empty bins + 1 between occupied cyclic shifts; the paper's
    /// deployment uses `SKIP = 2` (one empty bin between devices, §3.2.1).
    pub skip: usize,
    /// Downlink (AP query) bit rate in bits per second (paper: 160 kbps ASK).
    pub downlink_bitrate_bps: f64,
    /// Envelope-detector sensitivity of the tags in dBm (paper: −49 dBm).
    pub envelope_sensitivity_dbm: f64,
    /// Zero-padding factor of the sub-bin grid (§3.2.3). The AP receiver
    /// reads only the `2^SF` bins and never uses it; the `perf`
    /// experiment's padded spectrum row, the padded references in tests
    /// and the repo benchmark's FFT probe (`benchmark/src/probe.rs`) read
    /// it.
    pub zero_padding: usize,
}

impl Default for PhyProfile {
    fn default() -> Self {
        Self {
            modulation: ModulationConfig::paper_default(),
            skip: 2,
            downlink_bitrate_bps: 160e3,
            envelope_sensitivity_dbm: -49.0,
            zero_padding: 8,
        }
    }
}

impl PhyProfile {
    /// Maximum number of concurrently assignable devices given the SKIP
    /// guard band: `2^SF / SKIP`.
    pub fn max_concurrent_devices(&self) -> usize {
        self.modulation.num_bins() / self.skip.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        // Columns: BW kHz, SF, time µs, freq Hz, bitrate bps, sensitivity dBm.
        let expected = [
            (500e3, 9, 2e-6, 976.0, 976.0, -123.0),
            (500e3, 8, 2e-6, 1953.0, 1953.0, -120.0),
            (250e3, 8, 4e-6, 976.0, 976.0, -123.0),
            (250e3, 7, 4e-6, 1953.0, 1953.0, -120.0),
            (125e3, 7, 8e-6, 976.0, 976.0, -123.0),
            (125e3, 6, 8e-6, 1953.0, 1953.0, -118.0),
        ];
        for (cfg, exp) in ModulationConfig::table1_rows().iter().zip(expected.iter()) {
            assert_eq!(cfg.bandwidth_hz, exp.0);
            assert_eq!(cfg.spreading_factor, exp.1);
            assert!((cfg.tolerable_timing_mismatch_s() - exp.2).abs() < 1e-12);
            assert!((cfg.tolerable_frequency_mismatch_hz() - exp.3).abs() < 2.0);
            assert!((cfg.per_device_bitrate_bps() - exp.4).abs() < 2.0);
            // Sensitivity: our kTBF + SNR_min model lands within a few dB of
            // the paper's hardware numbers.
            assert!(
                (cfg.sensitivity_dbm() - exp.5).abs() < 4.5,
                "sensitivity {} vs paper {} for BW {} SF {}",
                cfg.sensitivity_dbm(),
                exp.5,
                exp.0,
                exp.1
            );
        }
    }

    #[test]
    fn sensitivity_improves_with_spreading_factor() {
        let sf9 = ModulationConfig::new(500e3, 9).unwrap().sensitivity_dbm();
        let sf8 = ModulationConfig::new(500e3, 8).unwrap().sensitivity_dbm();
        let sf12 = ModulationConfig::new(500e3, 12).unwrap().sensitivity_dbm();
        assert!(sf9 < sf8);
        assert!(sf12 < sf9);
    }

    #[test]
    fn sensitivity_improves_with_narrower_bandwidth() {
        let wide = ModulationConfig::new(500e3, 9).unwrap().sensitivity_dbm();
        let narrow = ModulationConfig::new(125e3, 9).unwrap().sensitivity_dbm();
        assert!((wide - narrow - 6.02).abs() < 0.1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ModulationConfig::new(0.0, 9).is_err());
        assert!(ModulationConfig::new(500e3, 3).is_err());
    }

    #[test]
    fn required_snr_is_monotone_in_sf() {
        for sf in 5..12 {
            assert!(required_snr_db(sf + 1) < required_snr_db(sf));
        }
    }

    #[test]
    fn profile_limits_and_downlink_timing() {
        let profile = PhyProfile::default();
        // SKIP=2 on 512 bins supports 256 concurrent devices — the deployment size.
        assert_eq!(profile.max_concurrent_devices(), 256);
        // SKIP=0 is treated as 1.
        let p = PhyProfile {
            skip: 0,
            ..Default::default()
        };
        assert_eq!(p.max_concurrent_devices(), 512);
    }

    #[test]
    fn paper_default_profile_matches_deployment() {
        let profile = PhyProfile::default();
        assert_eq!(profile.modulation.spreading_factor, 9);
        assert_eq!(profile.modulation.bandwidth_hz, 500e3);
        assert_eq!(profile.skip, 2);
        assert_eq!(profile.zero_padding, 8);
        assert_eq!(profile.envelope_sensitivity_dbm, -49.0);
    }
}
