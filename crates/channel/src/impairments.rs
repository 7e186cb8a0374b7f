//! Per-device hardware imperfections: timing jitter and carrier frequency
//! offsets.
//!
//! These two impairments drive the two central design decisions of the paper:
//!
//! * **Hardware delay variation** (§3.2.1, §4.2). A backscatter tag's
//!   envelope detector plus MCU/FPGA pipeline introduces a packet-to-packet
//!   delay that the paper measures at up to ≈3.5 µs — more than one FFT bin
//!   at 500 kHz — motivating the `SKIP` empty-bin guard band.
//! * **Crystal frequency offsets** (§2.2, §3.2.2, Fig. 4, Fig. 14a). A
//!   crystal tolerance of up to 100 ppm produces kHz-scale offsets on a
//!   900 MHz *radio* carrier (what Choir exploits) but only ~hundreds of Hz
//!   on the few-MHz baseband a backscatter tag synthesizes — the paper
//!   measures < 150 Hz, under a sixth of an FFT bin, which is why Choir's
//!   fractional-bin trick cannot separate backscatter devices.

use crate::noise::standard_normal;
use rand::Rng;

/// Model of the per-packet hardware (MCU/FPGA/envelope-detector) delay of a
/// backscatter tag responding to an AP query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareDelayModel {
    /// Mean response delay in seconds.
    pub mean_s: f64,
    /// Standard deviation of the *device-to-device* mean delay in seconds
    /// (pipeline length varies with manufacturing, firmware path, etc.).
    pub sigma_s: f64,
    /// Standard deviation of the *packet-to-packet* jitter around one
    /// device's mean delay, in seconds. Much smaller than `sigma_s`: a given
    /// tag's pipeline length is essentially fixed and only clock sampling
    /// jitter varies per packet (§4.2).
    pub jitter_sigma_s: f64,
    /// Hard bound on the delay (values are clamped to `0..=max_s`).
    pub max_s: f64,
}

impl HardwareDelayModel {
    /// Parameters calibrated to the paper's measurement: per-packet delays of
    /// up to ≈3.5 µs with most mass within ±1 bin (2 µs at 500 kHz).
    pub fn cots_backscatter() -> Self {
        Self {
            mean_s: 1.6e-6,
            sigma_s: 0.7e-6,
            jitter_sigma_s: 0.25e-6,
            max_s: 3.5e-6,
        }
    }

    /// A much tighter delay model representing an active radio with a fast
    /// clock (used when modelling Choir's LoRa radios for Fig. 4).
    pub fn active_radio() -> Self {
        Self {
            mean_s: 0.2e-6,
            sigma_s: 0.1e-6,
            jitter_sigma_s: 0.05e-6,
            max_s: 0.5e-6,
        }
    }

    /// Draws one device's mean hardware delay in seconds (device-to-device
    /// distribution).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mean_s + self.sigma_s * standard_normal(rng)).clamp(0.0, self.max_s)
    }

    /// Draws one packet's delay for a device whose mean delay is `mean_s`:
    /// the device's static delay plus small per-packet jitter.
    fn sample_around<R: Rng + ?Sized>(&self, rng: &mut R, mean_s: f64) -> f64 {
        (mean_s + self.jitter_sigma_s * standard_normal(rng)).clamp(0.0, self.max_s)
    }
}

/// Model of a device's residual carrier-frequency offset (CFO).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfoModel {
    /// Crystal tolerance in parts per million.
    pub crystal_tolerance_ppm: f64,
    /// Frequency the crystal error scales with: the synthesized baseband
    /// offset for a backscatter tag (a few MHz) or the RF carrier for an
    /// active radio (900 MHz).
    pub synthesized_frequency_hz: f64,
    /// Per-packet drift standard deviation, in hertz, on top of the static
    /// per-device offset (temperature, supply ripple).
    pub per_packet_drift_hz: f64,
}

impl CfoModel {
    /// A backscatter tag shifting the carrier by 3 MHz (the paper's
    /// implementation) with a ±25 ppm crystal: static offsets of at most
    /// ±75 Hz plus a small per-packet drift, matching the < 150 Hz spread of
    /// Fig. 14(a).
    fn backscatter_tag() -> Self {
        Self {
            crystal_tolerance_ppm: 25.0,
            synthesized_frequency_hz: 3e6,
            per_packet_drift_hz: 15.0,
        }
    }

    /// An active LoRa radio synthesizing its 900 MHz carrier from a ±10 ppm
    /// crystal: static offsets of up to ±9 kHz — many FFT bins — which is the
    /// diversity Choir relies on (§2.2).
    fn active_radio_900mhz() -> Self {
        Self {
            crystal_tolerance_ppm: 10.0,
            synthesized_frequency_hz: 900e6,
            per_packet_drift_hz: 200.0,
        }
    }

    /// Maximum static offset magnitude in hertz implied by the tolerance.
    fn max_static_offset_hz(&self) -> f64 {
        self.crystal_tolerance_ppm * 1e-6 * self.synthesized_frequency_hz
    }

    /// Draws the static (per-device) frequency offset in hertz, uniformly
    /// within the crystal tolerance.
    fn sample_device_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let max = self.max_static_offset_hz();
        if max == 0.0 {
            0.0
        } else {
            rng.gen_range(-max..=max)
        }
    }

    /// Draws the per-packet drift around the device's static offset, in hertz.
    fn sample_packet_drift<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.per_packet_drift_hz * standard_normal(rng)
    }
}

/// The static imperfections of one manufactured device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceImpairments {
    /// The device's static carrier frequency offset in hertz.
    pub static_cfo_hz: f64,
    /// The device's mean hardware response delay in seconds.
    pub mean_hardware_delay_s: f64,
}

/// The impairments drawn for one specific packet of one device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PacketImpairments {
    /// Total timing offset for this packet in seconds (hardware delay plus
    /// any propagation/multipath excess delay the caller folds in).
    pub timing_offset_s: f64,
    /// Total residual frequency offset for this packet in hertz.
    pub freq_offset_hz: f64,
}

/// Factory that draws per-device and per-packet impairments for a population
/// of devices of the same class (backscatter tags or active radios).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentModel {
    /// Hardware delay model shared by the population.
    pub delay: HardwareDelayModel,
    /// CFO model shared by the population.
    pub cfo: CfoModel,
}

impl ImpairmentModel {
    /// The backscatter-tag population used throughout the evaluation.
    pub fn cots_backscatter() -> Self {
        Self {
            delay: HardwareDelayModel::cots_backscatter(),
            cfo: CfoModel::backscatter_tag(),
        }
    }

    /// The active-LoRa-radio population used for the Choir comparison (Fig. 4).
    pub fn active_radio() -> Self {
        Self {
            delay: HardwareDelayModel::active_radio(),
            cfo: CfoModel::active_radio_900mhz(),
        }
    }

    /// Draws the static imperfections of a newly manufactured device.
    pub fn sample_device<R: Rng + ?Sized>(&self, rng: &mut R) -> DeviceImpairments {
        DeviceImpairments {
            static_cfo_hz: self.cfo.sample_device_offset(rng),
            mean_hardware_delay_s: self.delay.sample(rng),
        }
    }

    /// Draws the impairments of one packet transmitted by `device`.
    ///
    /// Both impairments cluster around the device's statics: the hardware
    /// delay is the device's mean pipeline delay plus small per-packet
    /// sampling jitter (§4.2), and the CFO is the device's static offset
    /// plus a small drift.
    pub fn sample_packet<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        device: &DeviceImpairments,
    ) -> PacketImpairments {
        PacketImpairments {
            timing_offset_s: self.delay.sample_around(rng, device.mean_hardware_delay_s),
            freq_offset_hz: device.static_cfo_hz + self.cfo.sample_packet_drift(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_dsp::chirp::ChirpParams;
    use netscatter_dsp::stats::EmpiricalCdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hardware_delay_respects_bounds() {
        let model = HardwareDelayModel::cots_backscatter();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..50_000 {
            let d = model.sample(&mut rng);
            assert!((0.0..=3.5e-6).contains(&d));
        }
    }

    #[test]
    fn hardware_delay_can_exceed_one_fft_bin_at_500khz() {
        // The motivation for SKIP: delays beyond 2 µs (one bin at 500 kHz)
        // must actually occur.
        let model = HardwareDelayModel::cots_backscatter();
        let params = ChirpParams::new(500e3, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let over_one_bin = (0..50_000)
            .filter(|_| params.timing_offset_to_bins(model.sample(&mut rng)) > 1.0)
            .count();
        assert!(
            over_one_bin > 1000,
            "expected a meaningful fraction above one bin, got {over_one_bin}"
        );
    }

    #[test]
    fn backscatter_cfo_stays_under_150hz_static() {
        let model = CfoModel::backscatter_tag();
        assert!(model.max_static_offset_hz() <= 150.0);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10_000 {
            assert!(model.sample_device_offset(&mut rng).abs() <= 150.0);
        }
    }

    #[test]
    fn backscatter_cfo_is_under_a_sixth_of_a_bin() {
        // Fig. 14(a): < 150 Hz ≈ 0.15 bins at BW=500 kHz, SF=9.
        let params = ChirpParams::new(500e3, 9).unwrap();
        let model = CfoModel::backscatter_tag();
        let bins = params.frequency_offset_to_bins(model.max_static_offset_hz());
        assert!(bins < 0.16, "static CFO spans {bins} bins");
    }

    #[test]
    fn radio_cfo_spans_many_bins_backscatter_does_not() {
        // §2.2: the radio population must spread over multiple FFT bins while
        // the backscatter population stays within a fraction of one bin.
        let params = ChirpParams::new(500e3, 9).unwrap();
        let radio = CfoModel::active_radio_900mhz();
        let tag = CfoModel::backscatter_tag();
        assert!(params.frequency_offset_to_bins(radio.max_static_offset_hz()) > 3.0);
        assert!(params.frequency_offset_to_bins(tag.max_static_offset_hz()) < 0.2);
    }

    #[test]
    fn per_packet_impairments_cluster_around_device_statics() {
        let model = ImpairmentModel::cots_backscatter();
        let mut rng = StdRng::seed_from_u64(24);
        let device = model.sample_device(&mut rng);
        let packets: Vec<PacketImpairments> = (0..5_000)
            .map(|_| model.sample_packet(&mut rng, &device))
            .collect();
        let cdf = EmpiricalCdf::from_samples(packets.iter().map(|p| p.freq_offset_hz).collect());
        // Median close to the static CFO, spread governed by the drift term.
        assert!((cdf.median() - device.static_cfo_hz).abs() < 5.0);
        assert!(cdf.quantile(0.99) - cdf.quantile(0.01) < 8.0 * model.cfo.per_packet_drift_hz);
        // Timing clusters around the device's mean pipeline delay, with the
        // small per-packet jitter — not a fresh population draw per packet.
        let timing =
            EmpiricalCdf::from_samples(packets.iter().map(|p| p.timing_offset_s).collect());
        assert!(
            (timing.median() - device.mean_hardware_delay_s).abs() < model.delay.jitter_sigma_s
        );
        assert!(
            timing.quantile(0.99) - timing.quantile(0.01) < 8.0 * model.delay.jitter_sigma_s,
            "per-packet timing spread should be jitter-sized"
        );
    }

    #[test]
    fn packet_timing_offsets_are_always_positive_and_bounded() {
        let model = ImpairmentModel::cots_backscatter();
        let mut rng = StdRng::seed_from_u64(25);
        let device = model.sample_device(&mut rng);
        for _ in 0..10_000 {
            let p = model.sample_packet(&mut rng, &device);
            assert!(p.timing_offset_s >= 0.0 && p.timing_offset_s <= 3.5e-6);
        }
    }

    #[test]
    fn zero_tolerance_crystal_has_zero_offset() {
        let model = CfoModel {
            crystal_tolerance_ppm: 0.0,
            synthesized_frequency_hz: 3e6,
            per_packet_drift_hz: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(26);
        assert_eq!(model.sample_device_offset(&mut rng), 0.0);
        assert_eq!(model.sample_packet_drift(&mut rng), 0.0);
    }
}
