//! The AP-side concurrent receiver.
//!
//! The receiver decodes every concurrent device with one dechirp-and-FFT per
//! symbol (§3.3.1):
//!
//! 1. locate the packet start from the preamble,
//! 2. detect which assigned cyclic shifts are active and measure each one's
//!    average preamble power,
//! 3. set each device's payload threshold to half of that average,
//! 4. for every payload symbol, compare the power at each device's bin
//!    against its threshold to produce the bit.
//!
//! The heavy operations (dechirp, FFT) run once per symbol regardless of how
//! many devices transmit, which is the receiver-complexity property §3.1
//! highlights. Steps 2 and 4 read each device exactly at its assigned bin:
//! devices pre-compensate their hardware delay, so what reaches the AP is a
//! one-sided offset under one bin (§3.2.1), and its scalloping applies alike
//! to the preamble average and to the payload reads. So the FFT is the
//! critically-sampled `2^SF`-point one; its values at the bins are bit for
//! bit those of the zero-padded sub-bin grid of §3.2.3 (DESIGN.md,
//! "Read-set-sized transform").

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
}

impl ConcurrentReceiver {
    /// Creates a receiver for the given PHY profile.
    pub fn new(profile: &PhyProfile) -> Result<Self, FftError> {
        let chirp = profile.modulation.chirp();
        Ok(Self {
            detector: PreambleDetector::new(chirp)?,
            profile: *profile,
            detection_floor_fraction: 1e-4,
        })
    }

    /// The PHY profile this receiver was built for.
    pub fn profile(&self) -> &PhyProfile {
        &self.profile
    }

    /// Detects the active devices from the aligned preamble samples and
    /// measures the preamble power their payload thresholds are set from
    /// (§3.3.1 step ii), reusing the caller's workspace.
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
        let reads = PayloadReads::new(&detected, n);
        // Payload starts after the full 8-symbol preamble.
        let payload = stream
            .get(packet_start + (PREAMBLE_UPCHIRPS + 2) * n..)
            .unwrap_or_default();
        let symbols = payload.chunks_exact(n).take(payload_symbols);
        // Symbol-major: the bits of symbol `s` are `bits[s·D..(s+1)·D]`.
        let mut bits = Vec::with_capacity(symbols.len() * detected.len());
        for symbol in symbols {
            reads.read(demodulator.spectrum_into(symbol, 1, &mut ws)?, &mut bits);
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
/// been detected: each device's bin on the `2^SF`-point spectrum and its
/// threshold. Per symbol, [`Self::read`] is then one pass over this table.
struct PayloadReads {
    /// Each device's `chirp_bin % 2^SF`, in detection order.
    bins: Vec<usize>,
    /// Each device's payload threshold, half its preamble average (§3.3.1).
    thresholds: Vec<f64>,
}

impl PayloadReads {
    fn new(detected: &[DetectedDevice], num_bins: usize) -> Self {
        Self {
            bins: detected.iter().map(|d| d.chirp_bin % num_bins).collect(),
            thresholds: detected
                .iter()
                .map(|d| PreambleDetector::payload_threshold(d.average_power))
                .collect(),
        }
    }

    /// Appends one bit per device, in detection order, for the symbol whose
    /// `2^SF`-point power spectrum is `power`: `max(0, power) > threshold`,
    /// so a NaN power reads as "off".
    fn read(&self, power: &[f64], bits: &mut Vec<bool>) {
        bits.extend(
            self.bins
                .iter()
                .zip(&self.thresholds)
                .map(|(&bin, &threshold)| power[bin].max(0.0) > threshold),
        );
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
        let rx = ConcurrentReceiver::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let specs: Vec<(usize, f64, Vec<bool>)> = (0..8)
            .map(|i| {
                let bin = i * 64; // SKIP-aligned, far apart
                let bits: Vec<bool> = (0..10).map(|b| (b + i) % 3 != 0).collect();
                (bin, 1.0, bits)
            })
            .collect();
        // COTS impairments as every caller draws them: each device
        // pre-compensates its calibrated hardware delay.
        let model = ImpairmentModel::cots_backscatter();
        let device_imp: Vec<PacketImpairments> = (0..8)
            .map(|_| {
                BackscatterDevice::new(DeviceConfig::default(), p, &model, &mut rng)
                    .packet_impairments(&model, &mut rng)
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
    fn payload_reads_take_each_bin_on_the_lattice_and_read_nan_as_off() {
        let p = profile();
        let rx = ConcurrentReceiver::new(&p).unwrap();
        let demod = rx.detector.demodulator();
        let device = |chirp_bin: usize, threshold: f64| DetectedDevice {
            chirp_bin,
            average_power: 2.0 * threshold,
        };
        let detected = [
            device(3, 1.0),
            device(512 + 3, 2.5),
            device(1, -1.0),
            device(1, 0.0),
            device(40, 1e300),
            device(511, f64::NAN),
            device(1024 + 40, f64::INFINITY),
        ];
        let reads = PayloadReads::new(&detected, 512);
        assert_eq!(reads.bins, [3, 3, 1, 1, 40, 511, 40]);
        let mut power = vec![0.0; 512];
        power[3] = 2.0;
        power[1] = f64::NAN;
        power[40] = f64::INFINITY;
        power[511] = 5.0;
        let mut bits = Vec::new();
        reads.read(&power, &mut bits);
        // A NaN power reads as 0, +inf clears any finite threshold, and a
        // NaN threshold is never cleared.
        assert_eq!(bits, [true, false, true, false, true, false, false]);
        // The same decision the demodulator's window read makes at width 0.
        for (d, &bit) in detected.iter().zip(&bits) {
            let at = demod.device_power_at(&power, d.chirp_bin as f64, 0.0).0;
            assert_eq!(
                at > PreambleDetector::payload_threshold(d.average_power),
                bit
            );
        }
    }
}
