//! Live round synthesis as a continuous sample stream.
//!
//! [`RoundArrivalSource`] replays the sample-level simulator
//! ([`crate::fullround`]) as an *asynchronous* stream for the streaming
//! gateway: rounds arrive at Poisson-distributed instants (thinned by a
//! recharge dead time — harvesting tags cannot respond back to back), the
//! network idles between them, and when the channel model calls for it the
//! whole stream — idle gaps included — rides on unit-power AWGN at the
//! thermal floor. The gateway sees exactly what an AP front-end would hand
//! it: a continuous baseband stream in which it must find the rounds
//! itself.
//!
//! Ground truth (round start sample and the bits every device put on the
//! air) is recorded behind a shared handle so the experiment can score the
//! gateway's output after the stream has been consumed on the producer
//! thread.

use crate::deployment::Deployment;
use crate::fullround::{ChannelModel, FullRoundNetwork};
use netscatter_coding::frame::FrameCodec;
use netscatter_coding::CodingScheme;
use netscatter_dsp::Complex64;
use netscatter_gateway::{DecodedPacket, StreamSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Salt applied to the trial seed for the arrival-process RNG stream (kept
/// distinct from the channel/local streams of [`crate::fullround`]).
const ARRIVAL_STREAM_SALT: u64 = 0xA11_1FA1_57AC_AB1E;

/// Salt applied to the trial seed for the stream-noise RNG.
const STREAM_NOISE_SALT: u64 = 0x5707_CA57_0FF1_CE00;

/// Salt applied to the trial seed for the coded-frame data RNG.
const FRAME_DATA_SALT: u64 = 0x00C0_DED0_F4A3_DA7A;

/// What one round put on the air, for scoring the gateway's decode.
#[derive(Debug, Clone)]
pub struct StreamRoundTruth {
    /// Absolute stream index of the round's first sample.
    pub start_sample: u64,
    /// Per device (deployment order): the payload bits it transmitted, or
    /// `None` if it sat the round out.
    pub sent: Vec<Option<Vec<bool>>>,
}

/// Shared handle to the ground truth a [`RoundArrivalSource`] accumulates.
pub type StreamTruth = Arc<Mutex<Vec<StreamRoundTruth>>>;

/// Configuration of the arrival process.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalConfig {
    /// Exponential arrival rate of rounds, in rounds per second, on top of
    /// the recharge dead time.
    pub rate_hz: f64,
    /// Total stream duration in seconds.
    pub stream_secs: f64,
    /// Payload bits per device per round.
    pub payload_bits: usize,
}

/// A [`StreamSource`] that synthesizes rounds with Poisson arrivals.
pub struct RoundArrivalSource {
    net: FullRoundNetwork,
    cfg: ArrivalConfig,
    sample_rate_hz: f64,
    /// Samples of one full round waveform.
    round_samples: u64,
    /// Minimum idle samples between rounds (the recharge dead time: one
    /// round's airtime).
    recharge_samples: u64,
    /// Total samples the stream will produce.
    total_samples: u64,
    /// Samples produced so far.
    produced: u64,
    /// Pending round waveform and the read cursor into it.
    pending: Vec<Complex64>,
    pending_cursor: usize,
    /// Idle samples still to emit before the next round may start.
    gap_remaining: u64,
    arrivals: StdRng,
    noise: StdRng,
    add_noise: bool,
    /// When set, every transmitting device's on-air bits are one CRC-framed,
    /// FEC-coded frame of random data instead of raw fair-coin bits.
    codec: Option<FrameCodec>,
    frame_data: StdRng,
    rounds_started: u64,
    truth: StreamTruth,
}

impl RoundArrivalSource {
    /// Builds the source for the first `num_devices` devices of
    /// `deployment` under `model`, seeded by `trial_seed`. The first round
    /// never starts before one recharge gap, so the gateway's energy gate
    /// always has idle samples to calibrate on.
    pub fn new(
        deployment: &Deployment,
        num_devices: usize,
        model: &ChannelModel,
        cfg: ArrivalConfig,
        trial_seed: u64,
    ) -> Self {
        let net = FullRoundNetwork::for_trial(deployment, num_devices, model, trial_seed);
        let sample_rate_hz = deployment.config.profile.modulation.chirp().bandwidth_hz();
        let round_secs = net.round_duration_s(cfg.payload_bits);
        let round_samples = (round_secs * sample_rate_hz).round() as u64;
        let arrivals = StdRng::seed_from_u64(trial_seed ^ ARRIVAL_STREAM_SALT);
        let add_noise = net.noise_enabled();
        let mut source = Self {
            net,
            cfg,
            sample_rate_hz,
            round_samples,
            recharge_samples: round_samples,
            total_samples: (cfg.stream_secs * sample_rate_hz).round() as u64,
            produced: 0,
            pending: Vec::new(),
            pending_cursor: 0,
            gap_remaining: 0,
            arrivals,
            noise: StdRng::seed_from_u64(trial_seed ^ STREAM_NOISE_SALT),
            add_noise,
            codec: None,
            frame_data: StdRng::seed_from_u64(trial_seed ^ FRAME_DATA_SALT),
            rounds_started: 0,
            truth: Arc::new(Mutex::new(Vec::new())),
        };
        source.gap_remaining = source.draw_gap();
        // Guarantee the stream carries at least one round whenever its
        // duration can hold the recharge gap plus a round at all: clamp the
        // *first* gap (and only the first — later arrivals stay a clean
        // thinned-Poisson process) so the opening exponential draw cannot
        // push the whole schedule past the end of a short stream.
        let latest_first_gap = source.total_samples.saturating_sub(source.round_samples);
        if latest_first_gap >= source.recharge_samples {
            source.gap_remaining = source.gap_remaining.min(latest_first_gap);
        }
        source
    }

    /// Switches the source to the coded link layer: every transmitting
    /// device's `payload_bits` on-air bits become one `scheme` frame
    /// (sequence number = round index, random data bits from a dedicated
    /// RNG stream). Fails like [`FrameCodec::new`] when the scheme cannot
    /// fill `payload_bits` exactly; `CodingScheme::None` is a no-op.
    pub fn with_coding(mut self, scheme: CodingScheme) -> Result<Self, String> {
        self.codec = match scheme {
            CodingScheme::None => None,
            scheme => Some(FrameCodec::new(scheme, self.cfg.payload_bits)?),
        };
        Ok(self)
    }

    /// The ground-truth handle; clone it before handing the source to the
    /// producer thread.
    pub fn truth(&self) -> StreamTruth {
        self.truth.clone()
    }

    /// The power-aware cyclic-shift assignment (deployment order) the
    /// gateway should listen on.
    pub fn assigned_bins(&self) -> &[usize] {
        self.net.assigned_bins()
    }

    /// The detection floor the batch simulator's receiver would use for
    /// this population — hand it to the gateway so streaming and batch
    /// decode apply the same presence test.
    pub fn detection_floor_fraction(&self) -> f64 {
        self.net.detection_floor_fraction()
    }

    /// Samples in one full round waveform.
    pub fn round_samples(&self) -> u64 {
        self.round_samples
    }

    /// Total samples the stream will produce.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Draws the idle gap before the next round: the recharge dead time
    /// plus an exponential inter-arrival draw at `rate_hz`.
    fn draw_gap(&mut self) -> u64 {
        let u: f64 = self.arrivals.gen_range(0.0..1.0);
        let exp_s = -(1.0 - u).ln() / self.cfg.rate_hz.max(1e-9);
        self.recharge_samples + (exp_s * self.sample_rate_hz).round() as u64
    }

    /// Synthesizes the next round into `pending` and records its truth.
    fn start_round(&mut self) {
        let seq = self.rounds_started as u8; // wraps with the frame header
        self.rounds_started += 1;
        let sent = match self.codec.as_ref() {
            None => self.net.synthesize_round(self.cfg.payload_bits),
            Some(codec) => {
                let rng = &mut self.frame_data;
                let mut provider = |_device: usize| {
                    let data: Vec<bool> =
                        (0..codec.data_bits()).map(|_| rng.gen_bool(0.5)).collect();
                    codec.encode_frame(seq, &data)
                };
                self.net
                    .synthesize_round_with(self.cfg.payload_bits, Some(&mut provider))
            }
        };
        self.pending.clear();
        self.pending.extend_from_slice(self.net.round_waveform());
        self.pending_cursor = 0;
        self.truth
            .lock()
            .expect("truth lock")
            .push(StreamRoundTruth {
                start_sample: self.produced,
                sent,
            });
    }
}

/// A stream rendered to its end up front — so whatever replays it measures
/// the gateway, not the synthesizer — plus everything decoding and scoring
/// it takes.
#[derive(Debug, Clone)]
pub struct RenderedStream {
    /// Every sample the source produced.
    pub samples: Vec<Complex64>,
    /// The rounds the source put on the air, in stream order.
    pub truth: Vec<StreamRoundTruth>,
    /// [`RoundArrivalSource::assigned_bins`].
    pub assigned_bins: Vec<usize>,
    /// [`RoundArrivalSource::detection_floor_fraction`].
    pub detection_floor_fraction: f64,
    /// [`RoundArrivalSource::round_samples`].
    pub round_samples: u64,
    /// The stream's sample rate in Hz.
    pub sample_rate_hz: f64,
}

impl RoundArrivalSource {
    /// Drains the source into a [`RenderedStream`].
    pub fn render(mut self) -> RenderedStream {
        let mut samples = Vec::with_capacity(self.total_samples as usize);
        let mut buf = vec![Complex64::ZERO; 1 << 16];
        loop {
            let got = self.fill(&mut buf);
            samples.extend_from_slice(&buf[..got]);
            if got < buf.len() {
                break;
            }
        }
        let truth = self.truth.lock().expect("truth lock").clone();
        RenderedStream {
            samples,
            truth,
            assigned_bins: self.assigned_bins().to_vec(),
            detection_floor_fraction: self.detection_floor_fraction(),
            round_samples: self.round_samples,
            sample_rate_hz: self.sample_rate_hz,
        }
    }
}

/// Tallies of decoded packets scored against stream truth, summed over
/// every stream handed to [`StreamScore::tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamScore {
    /// Rounds the synthesizer put on the air.
    pub rounds_offered: usize,
    /// Offered rounds matched by a decoded packet with ≥ 1 device.
    pub rounds_decoded: usize,
    /// Emitted packets matching no offered round: energy-gate triggers
    /// that decoded to zero devices, plus non-empty decodes at positions
    /// where nothing was transmitted.
    pub false_alarms: usize,
    /// Device-rounds transmitted.
    pub transmitted_devices: usize,
    /// Device-rounds decoded error-free.
    pub delivered_devices: usize,
    /// Payload bits transmitted.
    pub transmitted_bits: usize,
    /// Payload bits decoded wrong or not at all (a missed round or device
    /// loses every bit it carried).
    pub error_bits: usize,
}

impl StreamScore {
    /// Adds `stream`'s score: each offered round pairs with the first
    /// non-empty packet starting within half a round of its true start
    /// (both sequences are monotonic in stream order); its payload is then
    /// compared device by device on the assigned bins.
    pub fn tally(&mut self, stream: &RenderedStream, packets: &[DecodedPacket]) {
        self.rounds_offered += stream.truth.len();
        let mut matched = vec![false; packets.len()];
        for round in &stream.truth {
            let packet = packets.iter().enumerate().find(|(_, p)| {
                p.start_sample.abs_diff(round.start_sample) < stream.round_samples / 2
                    && !p.round.devices.is_empty()
            });
            if let Some((i, _)) = packet {
                matched[i] = true;
                self.rounds_decoded += 1;
            }
            for (device, sent) in round.sent.iter().enumerate() {
                let Some(bits) = sent else { continue };
                self.transmitted_devices += 1;
                self.transmitted_bits += bits.len();
                let decoded =
                    packet.and_then(|(_, p)| p.round.bits_for(stream.assigned_bins[device]));
                match decoded {
                    Some(decoded) => {
                        let errors = decoded.iter().zip(bits).filter(|(a, b)| a != b).count()
                            + bits.len().saturating_sub(decoded.len());
                        self.error_bits += errors;
                        if errors == 0 && decoded.len() == bits.len() {
                            self.delivered_devices += 1;
                        }
                    }
                    None => self.error_bits += bits.len(),
                }
            }
        }
        self.false_alarms += matched.iter().filter(|&&hit| !hit).count();
    }
}

impl StreamSource for RoundArrivalSource {
    fn fill(&mut self, out: &mut [Complex64]) -> usize {
        let mut written = 0usize;
        while written < out.len() && self.produced < self.total_samples {
            if self.pending_cursor < self.pending.len() {
                // Mid-round: copy waveform samples.
                let n = (out.len() - written)
                    .min(self.pending.len() - self.pending_cursor)
                    .min((self.total_samples - self.produced) as usize);
                out[written..written + n]
                    .copy_from_slice(&self.pending[self.pending_cursor..self.pending_cursor + n]);
                self.pending_cursor += n;
                written += n;
                self.produced += n as u64;
                continue;
            }
            if self.gap_remaining == 0 {
                // A new round may start — but only if it fits entirely
                // before the end of the stream (a truncated round would be
                // undecodable by construction).
                if self.produced + self.round_samples <= self.total_samples {
                    self.start_round();
                    self.gap_remaining = self.draw_gap();
                    continue;
                }
                // Pad the remainder with idle samples.
                self.gap_remaining = self.total_samples - self.produced;
            }
            // Idle: emit zeros.
            let n = (out.len() - written)
                .min(self.gap_remaining as usize)
                .min((self.total_samples - self.produced) as usize);
            out[written..written + n].fill(Complex64::ZERO);
            self.gap_remaining -= n as u64;
            written += n;
            self.produced += n as u64;
        }
        if self.add_noise && written > 0 {
            // Unit-power AWGN over everything — idle gaps included — so the
            // gateway's noise-floor estimate sees the same floor the batch
            // simulator models.
            netscatter_channel::noise::AwgnChannel::with_noise_power(1.0)
                .apply(&mut self.noise, &mut out[..written]);
        }
        written
    }

    fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentConfig;

    fn source(devices: usize, model: &ChannelModel, secs: f64, seed: u64) -> RoundArrivalSource {
        let dep = Deployment::generate(
            DeploymentConfig::office(devices.max(16)),
            &mut StdRng::seed_from_u64(17),
        );
        RoundArrivalSource::new(
            &dep,
            devices,
            model,
            ArrivalConfig {
                rate_hz: 20.0,
                stream_secs: secs,
                payload_bits: 8,
            },
            seed,
        )
    }

    /// Drains a source into one buffer via arbitrary fill sizes.
    fn drain(src: &mut RoundArrivalSource, chunk: usize) -> Vec<Complex64> {
        let mut all = Vec::new();
        let mut buf = vec![Complex64::ZERO; chunk];
        loop {
            let got = src.fill(&mut buf);
            all.extend_from_slice(&buf[..got]);
            if got < buf.len() {
                return all;
            }
        }
    }

    #[test]
    fn stream_has_poisson_rounds_and_exact_length() {
        let mut src = source(8, &ChannelModel::pristine(), 0.5, 3);
        let total = src.total_samples();
        let stream = drain(&mut src, 1000);
        assert_eq!(stream.len() as u64, total);
        let truth = src.truth();
        let rounds = truth.lock().unwrap();
        assert!(
            !rounds.is_empty() && rounds.len() <= 12,
            "{} rounds in 0.5 s at ~≤20/s",
            rounds.len()
        );
        // Rounds never overlap and always fit inside the stream.
        let round_len = (src.net.round_duration_s(8) * src.sample_rate_hz()) as u64;
        let mut last_end = 0u64;
        for r in rounds.iter() {
            assert!(r.start_sample >= last_end, "rounds overlap");
            assert!(r.start_sample + round_len <= total, "round truncated");
            last_end = r.start_sample + round_len;
        }
        // The first round leaves the gateway at least a recharge gap of
        // idle samples to calibrate on.
        assert!(rounds[0].start_sample >= round_len);
    }

    #[test]
    fn truth_marks_round_energy_where_it_claims() {
        // Pristine minus its thermal noise: the idle gaps are exactly zero.
        let mut silent = ChannelModel::pristine();
        silent.noise = false;
        let mut src = source(8, &silent, 0.5, 5);
        let truth = src.truth();
        let stream = drain(&mut src, 4096);
        let rounds = truth.lock().unwrap();
        for r in rounds.iter() {
            let s = r.start_sample as usize;
            let energy: f64 = stream[s..s + 64].iter().map(|x| x.norm_sqr()).sum();
            assert!(energy > 1.0, "no signal at claimed round start {s}");
            // Pristine model has no noise: the sample before the round is
            // exactly idle.
            assert_eq!(stream[s - 1], Complex64::ZERO);
        }
    }

    #[test]
    fn fill_chunking_does_not_change_the_stream() {
        let a = drain(&mut source(4, &ChannelModel::pristine(), 0.2, 9), 64);
        let b = drain(&mut source(4, &ChannelModel::pristine(), 0.2, 9), 4097);
        assert_eq!(a, b, "pristine stream must be fill-size invariant");
    }

    #[test]
    fn coded_source_puts_crc_clean_frames_on_the_air() {
        let dep =
            Deployment::generate(DeploymentConfig::office(16), &mut StdRng::seed_from_u64(17));
        let cfg = ArrivalConfig {
            rate_hz: 20.0,
            stream_secs: 0.5,
            payload_bits: 70, // Hamming(7,4): 8 data bits per frame
        };
        let mut src = RoundArrivalSource::new(&dep, 4, &ChannelModel::pristine(), cfg, 11)
            .with_coding(CodingScheme::Hamming)
            .unwrap();
        let truth = src.truth();
        let _ = drain(&mut src, 2048);
        let rounds = truth.lock().unwrap();
        assert!(!rounds.is_empty());
        let codec = FrameCodec::new(CodingScheme::Hamming, 70).unwrap();
        for (i, round) in rounds.iter().enumerate() {
            for sent in round.sent.iter().flatten() {
                let out = codec.decode_frame(sent);
                assert!(out.crc_ok, "round {i}: on-air bits are a valid frame");
                assert_eq!(out.seq, i as u8, "frame seq tracks the round index");
                assert_eq!(out.data.len(), 8);
            }
        }
        // A geometry the scheme cannot fill fails at construction.
        let bad = RoundArrivalSource::new(
            &dep,
            4,
            &ChannelModel::pristine(),
            ArrivalConfig {
                payload_bits: 8,
                ..cfg
            },
            1,
        )
        .with_coding(CodingScheme::Conv);
        assert!(bad.is_err());
    }

    #[test]
    fn office_model_rides_on_noise() {
        let mut src = source(4, &ChannelModel::office(), 0.02, 1);
        let stream = drain(&mut src, 512);
        let idle_power: f64 = stream[..256].iter().map(|x| x.norm_sqr()).sum::<f64>() / 256.0;
        assert!(
            (idle_power - 1.0).abs() < 0.4,
            "idle should sit at the unit noise floor, got {idle_power}"
        );
    }
}
