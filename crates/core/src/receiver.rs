//! The AP-side concurrent receiver.
//!
//! The receiver decodes every concurrent device with one dechirp-and-FFT per
//! symbol (§3.3.1):
//!
//! 1. locate the packet start from the preamble,
//! 2. detect which assigned cyclic shifts are active and measure each one's
//!    average preamble power,
//! 3. set each device's payload threshold to half of that average,
//! 4. for every payload symbol, compare the power in each device's search
//!    window against its threshold to produce the bit.
//!
//! The heavy operations (dechirp, FFT) run once per symbol regardless of how
//! many devices transmit, which is the receiver-complexity property §3.1
//! highlights. The FFT is sized to what steps 2 and 4 will read: with every
//! search bound zero (the default) that is the `2^SF` chirp bins, and the
//! zero-padded sub-bin grid of §3.2.3 is computed only when peak tracking or
//! a payload search window needs the points between bins. Both grids hold
//! bit-identical values at the bins, so the choice never changes a result.

use netscatter_dsp::fft::FftError;
use netscatter_dsp::Complex64;
use netscatter_phy::distributed::DemodWorkspace;
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::{DetectedDevice, PreambleDetector, PREAMBLE_UPCHIRPS};
use serde::{Deserialize, Serialize};

/// Per-device outcome of a decoded round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodedDevice {
    /// The chirp bin the device was assigned.
    pub chirp_bin: usize,
    /// Average preamble power measured for this device (linear).
    pub preamble_power: f64,
    /// The decoded payload bits.
    pub bits: Vec<bool>,
}

/// The result of decoding one concurrent round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DecodedRound {
    /// Devices detected in the preamble, with their decoded payloads.
    pub devices: Vec<DecodedDevice>,
}

impl DecodedRound {
    /// Looks up the decoded bits of the device on `chirp_bin`, if it was
    /// detected.
    pub fn bits_for(&self, chirp_bin: usize) -> Option<&[bool]> {
        self.devices
            .iter()
            .find(|d| d.chirp_bin == chirp_bin)
            .map(|d| d.bits.as_slice())
    }
}

/// The NetScatter AP receiver.
#[derive(Debug, Clone)]
pub struct ConcurrentReceiver {
    detector: PreambleDetector,
    profile: PhyProfile,
    /// Minimum preamble power (linear) for a device to be declared present.
    /// Expressed as a fraction of the ideal full-scale peak power `(2^SF)²`;
    /// devices below the noise floor still clear this because the dechirp
    /// concentrates their energy into one bin.
    pub detection_floor_fraction: f64,
    /// Payload peak-search half-width in chirp bins around the
    /// `observed_bin` learned from the preamble.
    ///
    /// The preamble absorbs each packet's *static* timing/CFO offset into
    /// `observed_bin`, and the intra-packet drift (≪ 0.1 bins, Fig. 14a)
    /// stays inside one zero-padded grid step, so the payload power is
    /// sampled at the observed point itself (half-width 0). Keeping the
    /// window this tight is what makes fully loaded SKIP-2 rounds
    /// decodable: at 256 concurrent devices the points *between* bins
    /// carry the aggregate Dirichlet leakage of every other tone (up to
    /// ≈ −4 dB of a full peak), so any window that strays off the observed
    /// grid point mistakes that leakage for an ON symbol.
    pub payload_halfwidth_bins: f64,
}

impl ConcurrentReceiver {
    /// Creates a receiver for the given PHY profile.
    pub fn new(profile: &PhyProfile) -> Result<Self, FftError> {
        let chirp = profile.modulation.chirp();
        Ok(Self {
            detector: PreambleDetector::new(chirp, profile.zero_padding)?,
            profile: *profile,
            detection_floor_fraction: 1e-4,
            payload_halfwidth_bins: 0.0,
        })
    }

    /// The PHY profile this receiver was built for.
    pub fn profile(&self) -> &PhyProfile {
        &self.profile
    }

    /// Enables preamble peak tracking for tag populations whose hardware
    /// delays are *not* pre-compensated (multi-bin one-sided offsets): each
    /// device's peak is then followed by a hill climb bounded to
    /// `[bin − (halfwidth − bias), bin + (halfwidth + bias)]` chirp bins
    /// instead of being measured at its assigned bin. The paper-era COTS
    /// population needs `(1.0, 0.75)`; the default (no tracking) is correct
    /// for the self-compensating devices of this codebase and is what keeps
    /// fully loaded SKIP-2 rounds decodable (see
    /// [`netscatter_phy::preamble::PreambleDetector::search_halfwidth_bins`]).
    pub fn set_preamble_tracking(&mut self, halfwidth_bins: f64, forward_bias_bins: f64) {
        self.detector.search_halfwidth_bins = halfwidth_bins;
        self.detector.search_forward_bias_bins = forward_bias_bins;
    }

    /// Detects the active devices from the aligned preamble samples and
    /// calibrates their payload thresholds (§3.3.1 step ii).
    pub fn detect_devices(
        &self,
        preamble: &[Complex64],
        assigned_bins: &[usize],
    ) -> Result<Vec<DetectedDevice>, FftError> {
        let mut ws = DemodWorkspace::new();
        self.detect_devices_with(preamble, assigned_bins, &mut ws)
    }

    /// As [`Self::detect_devices`], reusing the caller's workspace.
    pub fn detect_devices_with(
        &self,
        preamble: &[Complex64],
        assigned_bins: &[usize],
        ws: &mut DemodWorkspace,
    ) -> Result<Vec<DetectedDevice>, FftError> {
        let n2 = (self.profile.modulation.num_bins() as f64).powi(2);
        self.detector.detect_devices_with(
            preamble,
            assigned_bins,
            n2 * self.detection_floor_fraction,
            ws,
        )
    }

    /// Decodes a complete round from contiguous samples: preamble followed by
    /// `payload_symbols` payload symbols, all starting at `packet_start`.
    ///
    /// Each payload symbol costs one dechirp, one FFT and one pass over a
    /// read table built once per round, right after preamble detection. The
    /// decoded bits are sized by the symbols actually present in `stream`,
    /// so a truncated payload decodes the symbols that are there.
    pub fn decode_round(
        &self,
        stream: &[Complex64],
        packet_start: usize,
        assigned_bins: &[usize],
        payload_symbols: usize,
    ) -> Result<DecodedRound, FftError> {
        let n = self.profile.modulation.num_bins();
        let preamble_len = PREAMBLE_UPCHIRPS * n;
        // Only the upchirp preamble is required.
        if stream.len() < packet_start + preamble_len {
            return Err(FftError::LengthMismatch {
                expected: packet_start + preamble_len,
                actual: stream.len(),
            });
        }
        let preamble = &stream[packet_start..packet_start + preamble_len];
        // One workspace and one flat bit buffer serve the whole round:
        // preamble detection and every payload symbol run allocation-free.
        let mut ws = DemodWorkspace::new();
        let detected = self.detect_devices_with(preamble, assigned_bins, &mut ws)?;
        let demodulator = self.detector.demodulator();
        let reads = PayloadReads::new(
            &detected,
            n,
            demodulator.zero_padding(),
            self.payload_halfwidth_bins,
        );
        // Payload starts after the full 8-symbol preamble.
        let payload = stream
            .get(packet_start + (PREAMBLE_UPCHIRPS + 2) * n..)
            .unwrap_or_default();
        let symbols = payload.chunks_exact(n).take(payload_symbols);
        // Symbol-major: the bits of symbol `s` are `bits[s·D..(s+1)·D]`.
        let mut bits = Vec::with_capacity(symbols.len() * detected.len());
        for symbol in symbols {
            reads.read(
                demodulator.spectrum_into(symbol, reads.step, &mut ws)?,
                &mut bits,
            );
        }
        let devices = detected
            .iter()
            .enumerate()
            .map(|(i, d)| DecodedDevice {
                chirp_bin: d.chirp_bin,
                preamble_power: d.average_power,
                bits: bits
                    .iter()
                    .skip(i)
                    .step_by(detected.len())
                    .copied()
                    .collect(),
            })
            .collect();
        Ok(DecodedRound { devices })
    }
}

/// What every payload symbol of one round reads, fixed once the preamble has
/// been detected: the spectrum grid, each device's window on it and each
/// device's threshold. Per symbol, [`Self::read`] is then one pass over
/// this table, making exactly the decision
/// `device_power_at(power, observed_bin, payload_halfwidth_bins).0 >
/// payload_threshold(average_power)` for every device.
struct PayloadReads {
    /// Spectrum points per chirp bin: 1 (the `2^SF`-point transform) when
    /// every read lands on a bin — no payload search window and whole-bin
    /// `observed_bin`s, i.e. untracked detection — and the zero-padding
    /// factor otherwise. Both grids hold bit-identical values at the bins.
    step: usize,
    /// Points in each device's window (`2·half + 1`, at most the grid).
    width: usize,
    /// Each device's window on the grid, `width` wrapped indices per
    /// device, in detection order.
    indices: Vec<usize>,
    /// Each device's payload threshold, half its preamble average (§3.3.1).
    thresholds: Vec<f64>,
}

impl PayloadReads {
    fn new(
        detected: &[DetectedDevice],
        num_bins: usize,
        zero_padding: usize,
        halfwidth_bins: f64,
    ) -> Self {
        let on_bins =
            halfwidth_bins == 0.0 && detected.iter().all(|d| d.observed_bin.fract() == 0.0);
        let step = if on_bins { 1 } else { zero_padding };
        let total = num_bins * step;
        let pad = step as f64;
        // The window arithmetic of `device_power_at`: centre and half-width
        // rounded to the grid, indices wrapped onto it.
        let half = (halfwidth_bins.max(0.0) * pad).round() as usize;
        let width = half.saturating_mul(2).saturating_add(1).min(total);
        let indices = detected
            .iter()
            .flat_map(|d| {
                // A window of `total` points reads the whole grid; its
                // maximum does not depend on where the run starts.
                let start = if width == total {
                    0
                } else {
                    let centre = (d.observed_bin * pad).round() as isize;
                    (centre - half as isize).rem_euclid(total as isize) as usize
                };
                (start..start + width).map(move |i| i % total)
            })
            .collect();
        let thresholds = detected
            .iter()
            .map(|d| PreambleDetector::payload_threshold(d.average_power))
            .collect();
        Self {
            step,
            width,
            indices,
            thresholds,
        }
    }

    /// Appends one bit per device, in detection order, for the symbol whose
    /// power spectrum (on the grid of `step`) is `power`.
    fn read(&self, power: &[f64], bits: &mut Vec<bool>) {
        let windows = self.indices.chunks_exact(self.width);
        bits.extend(windows.zip(&self.thresholds).map(|(window, &threshold)| {
            // The window maximum starts at 0.0 with a strict `>`, as in
            // `device_power_at`, so a NaN power reads as "off".
            let best = window.iter().map(|&i| power[i]).fold(
                0.0,
                |best, p| {
                    if p > best {
                        p
                    } else {
                        best
                    }
                },
            );
            best > threshold
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BackscatterDevice, DeviceConfig};
    use netscatter_channel::impairments::{ImpairmentModel, PacketImpairments};
    use netscatter_channel::noise::AwgnChannel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> PhyProfile {
        PhyProfile::default()
    }

    /// Builds the superposed round waveform (preamble + payload) for a set of
    /// devices with given bins, amplitudes and payload bits.
    fn build_round(
        profile: &PhyProfile,
        specs: &[(usize, f64, Vec<bool>)],
        impairments: &[PacketImpairments],
    ) -> Vec<Complex64> {
        let n = profile.modulation.num_bins();
        let payload_symbols = specs.iter().map(|s| s.2.len()).max().unwrap_or(0);
        let total = (8 + payload_symbols) * n;
        let mut out = vec![Complex64::ZERO; total];
        let mut rng = StdRng::seed_from_u64(99);
        let model = ImpairmentModel::cots_backscatter();
        for ((bin, amp, bits), imp) in specs.iter().zip(impairments) {
            let mut dev =
                BackscatterDevice::new(DeviceConfig::default(), *profile, &model, &mut rng);
            dev.accept_assignment(*bin, -45.0); // full power
            let pre = dev.preamble_waveform(imp, *amp).unwrap();
            let pay = dev.payload_waveform(bits, imp, *amp).unwrap();
            for (i, s) in pre.iter().chain(pay.iter()).enumerate() {
                out[i] += *s;
            }
        }
        out
    }

    #[test]
    fn single_device_round_trip() {
        let p = profile();
        let rx = ConcurrentReceiver::new(&p).unwrap();
        let bits = vec![true, false, true, true, false, false, true, false];
        let stream = build_round(
            &p,
            &[(100, 1.0, bits.clone())],
            &[PacketImpairments::default()],
        );
        let round = rx
            .decode_round(&stream, 0, &[100, 200], bits.len())
            .unwrap();
        assert_eq!(round.devices.len(), 1);
        assert_eq!(round.bits_for(100).unwrap(), &bits[..]);
        assert!(round.bits_for(200).is_none());
    }

    #[test]
    fn concurrent_devices_with_impairments_and_noise_decode() {
        let p = profile();
        let mut rx = ConcurrentReceiver::new(&p).unwrap();
        // The impairments below are sampled raw (no device-side delay
        // pre-compensation), so peaks sit up to ~1.75 bins forward of their
        // assigned bins: enable the peak-tracking estimator sized for that
        // population.
        rx.set_preamble_tracking(1.0, 0.75);
        let mut rng = StdRng::seed_from_u64(3);
        let specs: Vec<(usize, f64, Vec<bool>)> = (0..8)
            .map(|i| {
                let bin = i * 64; // SKIP-aligned, far apart
                let bits: Vec<bool> = (0..10).map(|b| (b + i) % 3 != 0).collect();
                (bin, 1.0, bits)
            })
            .collect();
        let model = ImpairmentModel::cots_backscatter();
        let device_imp: Vec<PacketImpairments> = (0..8)
            .map(|_| {
                let dev = model.sample_device(&mut rng);
                model.sample_packet(&mut rng, &dev)
            })
            .collect();
        let mut stream = build_round(&p, &specs, &device_imp);
        // Per-device SNR of 0 dB.
        AwgnChannel::with_noise_power(1.0).apply(&mut rng, &mut stream);
        let bins: Vec<usize> = specs.iter().map(|s| s.0).collect();
        let round = rx.decode_round(&stream, 0, &bins, 10).unwrap();
        assert_eq!(round.devices.len(), 8);
        for (bin, _, bits) in &specs {
            let decoded = round.bits_for(*bin).expect("device must be detected");
            let errors = decoded.iter().zip(bits).filter(|(a, b)| a != b).count();
            assert!(errors <= 1, "device at bin {bin} had {errors} bit errors");
        }
    }

    #[test]
    fn round_decodes_from_a_nonzero_packet_start() {
        let p = profile();
        let rx = ConcurrentReceiver::new(&p).unwrap();
        let bits = vec![true, true, false, true];
        let body = build_round(
            &p,
            &[(50, 1.0, bits.clone())],
            &[PacketImpairments::default()],
        );
        let offset = 23usize;
        let mut stream = vec![Complex64::ZERO; offset];
        stream.extend(body);
        let round = rx.decode_round(&stream, offset, &[50], bits.len()).unwrap();
        assert_eq!(round.bits_for(50).unwrap(), &bits[..]);
    }

    #[test]
    fn short_stream_is_rejected() {
        let p = profile();
        let rx = ConcurrentReceiver::new(&p).unwrap();
        // The error names the length the check enforces (offset + the six
        // upchirps), not the full packet a truncated payload may fall short of.
        assert_eq!(
            rx.decode_round(&[Complex64::ZERO; 100], 7, &[0], 4),
            Err(FftError::LengthMismatch {
                expected: 7 + PREAMBLE_UPCHIRPS * p.modulation.num_bins(),
                actual: 100,
            })
        );
    }

    #[test]
    fn truncated_payload_decodes_available_symbols_only() {
        let p = profile();
        let rx = ConcurrentReceiver::new(&p).unwrap();
        let bits = vec![true, false, true, false];
        let mut stream = build_round(
            &p,
            &[(64, 1.0, bits.clone())],
            &[PacketImpairments::default()],
        );
        // Chop off the last payload symbol.
        let n = p.modulation.num_bins();
        stream.truncate(stream.len() - n);
        let round = rx.decode_round(&stream, 0, &[64], bits.len()).unwrap();
        assert_eq!(round.bits_for(64).unwrap(), &bits[..3]);
    }

    /// The bit buffers are sized by the payload symbols in the stream, not
    /// by the caller's count: a count that would need 2^55 bytes per
    /// device (a corrupt or hostile packet length) decodes a preamble-only
    /// span to the detected devices with no bits.
    #[test]
    fn a_huge_payload_count_decodes_what_the_stream_holds() {
        let p = profile();
        let rx = ConcurrentReceiver::new(&p).unwrap();
        let n = p.modulation.num_bins();
        let stream = build_round(
            &p,
            &[(64, 1.0, Vec::new()), (192, 1.0, Vec::new())],
            &[PacketImpairments::default(); 2],
        );
        assert_eq!(stream.len(), 8 * n);
        let round = rx.decode_round(&stream, 0, &[64, 192], 1 << 55).unwrap();
        assert_eq!(round.devices.len(), 2);
        assert!(round.devices.iter().all(|d| d.bits.is_empty()));
    }

    #[test]
    fn payload_reads_take_the_lattice_only_when_every_read_is_on_a_bin() {
        let device = |observed_bin: f64| DetectedDevice {
            chirp_bin: 0,
            average_power: 4.0,
            observed_bin,
        };
        let on_bins = [device(3.0), device(511.0)];
        let reads = PayloadReads::new(&on_bins, 512, 8, 0.0);
        assert_eq!((reads.step, reads.width), (1, 1));
        assert_eq!(reads.indices, [3, 511]);
        assert_eq!(reads.thresholds, [2.0, 2.0]);

        // A fractional observed bin reads its nearest padded-grid point.
        let reads = PayloadReads::new(&[device(3.0), device(-0.375)], 512, 8, 0.0);
        assert_eq!((reads.step, reads.width), (8, 1));
        assert_eq!(reads.indices, [24, 4093]);

        // A payload window reads its wrapped run of padded-grid points, and a
        // window wider than the grid reads all of it.
        let reads = PayloadReads::new(&on_bins, 512, 8, 0.25);
        assert_eq!((reads.step, reads.width), (8, 5));
        assert_eq!(
            reads.indices,
            [22, 23, 24, 25, 26, 4086, 4087, 4088, 4089, 4090]
        );
        let reads = PayloadReads::new(&on_bins, 512, 8, 1e300);
        assert_eq!((reads.step, reads.width), (8, 4096));
    }

    #[test]
    fn payload_reads_decide_as_device_power_at_does() {
        let p = profile();
        let rx = ConcurrentReceiver::new(&p).unwrap();
        let demod = rx.detector.demodulator();
        let total = p.modulation.num_bins() * p.zero_padding;
        let mut power = vec![0.0; total];
        power[4095] = 3.0;
        power[1] = f64::NAN;
        power[40] = f64::INFINITY;
        let centres = [0.0, 0.125, 5.0, 5.125, 511.875];
        for halfwidth in [0.0, 0.25, 1.0, 300.0] {
            for threshold in [-1.0, 0.0, 2.5, f64::NAN] {
                let detected: Vec<DetectedDevice> = centres
                    .iter()
                    .map(|&observed_bin| DetectedDevice {
                        chirp_bin: 0,
                        average_power: 2.0 * threshold,
                        observed_bin,
                    })
                    .collect();
                let reads = PayloadReads::new(&detected, 512, p.zero_padding, halfwidth);
                assert_eq!(reads.step, p.zero_padding);
                let mut bits = Vec::new();
                reads.read(&power, &mut bits);
                let want: Vec<bool> = centres
                    .iter()
                    .map(|&c| demod.device_power_at(&power, c, halfwidth).0 > threshold)
                    .collect();
                assert_eq!(bits, want, "halfwidth {halfwidth}, threshold {threshold}");
            }
        }
    }
}
