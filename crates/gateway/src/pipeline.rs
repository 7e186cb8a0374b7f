//! The threaded stream-processing pipeline and the one span decode.
//!
//! [`run_multi_stream`] is the real-time topology, a run-to-completion
//! session over one reusable [`crate::engine::StreamEngine`] per source
//! ([`run_stream`] is the one-source case): the calling thread pulls chunks
//! from each [`StreamSource`] and feeds them through that engine's blocking
//! ring; the engine's detection thread locates packets in stream order and
//! its decode workers handle them round-robin; results are reassembled in
//! packet order. The report carries the measured throughput and the
//! real-time factor (throughput over the source's sample rate) — the
//! number that says whether this gateway keeps up with the radio.
//!
//! Every located span is decoded by [`decode_span`], the existing batch
//! path unchanged ([`ConcurrentReceiver::decode_round`] → `DemodWorkspace`
//! → one `2^SF`-point FFT per symbol), so every performance property of
//! the per-symbol hot path carries over to the streaming receiver. The
//! engine's workers call it, and so does the daemon's serial `Session`,
//! which runs detection and decode on the caller's thread.

use crate::detect::{GatewayConfig, PacketSpan};
use crate::engine::{resolve_workers, EngineError, StreamEngine};
use crate::source::StreamSource;
use netscatter::receiver::{ConcurrentReceiver, DecodedRound};
use netscatter_dsp::fft::FftError;
use netscatter_dsp::Complex64;
use netscatter_obs::HistogramSnapshot;
use std::time::Instant;

/// One decoded packet of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPacket {
    /// Sequence number in stream order (0-based).
    pub index: usize,
    /// Absolute stream index of the packet's first sample.
    pub start_sample: u64,
    /// The concurrent-round decode (per detected device: bin, preamble
    /// power, payload bits).
    pub round: DecodedRound,
}

/// The outcome of one [`run_stream`] session.
#[derive(Debug, Clone)]
pub struct GatewayReport {
    /// Decoded packets in stream order.
    pub packets: Vec<DecodedPacket>,
    /// Total samples consumed from the source.
    pub samples_in: u64,
    /// Packets dropped because the stream ended mid-packet.
    pub truncated: usize,
    /// Wall-clock duration of the session in seconds.
    pub elapsed_s: f64,
    /// Measured processing throughput in samples per second.
    pub samples_per_sec: f64,
    /// `samples_per_sec` over the source's sample rate: ≥ 1 means the
    /// gateway keeps up with the radio in real time.
    pub real_time_factor: f64,
    /// Chunks displaced by the ring's drop-oldest overflow policy (always 0
    /// under [`crate::engine::OverflowPolicy::Block`], the `run_stream`
    /// default).
    pub ring_dropped: u64,
    /// Per-stage latency telemetry accumulated over the session.
    pub telemetry: PipelineTelemetry,
}

/// Per-stage latency/pressure distributions for one pipeline session,
/// as plain mergeable data (see [`crate::engine::EngineTelemetry`] for
/// the live atomics these are snapshotted from).
///
/// All histogram snapshots are log2-bucket ([`netscatter_obs::hist`]);
/// the `_ns` ones record wall nanoseconds, the `_samples` one records
/// sample counts at the stream's native rate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineTelemetry {
    /// Highest ring occupancy (queued chunks) observed at any push.
    pub ring_occupancy_hwm: u64,
    /// Pushes that found the ring full (then blocked or displaced).
    pub ring_full_events: u64,
    /// Wait endured by blocking pushes, per full event, in nanoseconds.
    pub ring_block_wait_ns: HistogramSnapshot,
    /// Energy-gate fire → preamble anchor lock, in stream samples.
    pub detect_gate_to_anchor_samples: HistogramSnapshot,
    /// Energy-gate fire → preamble anchor lock, in wall nanoseconds.
    pub detect_gate_to_anchor_ns: HistogramSnapshot,
    /// Span dispatch → decode start (worker queue wait), nanoseconds.
    pub queue_wait_ns: HistogramSnapshot,
    /// Decode service time per span (worker busy time), nanoseconds.
    pub decode_ns: HistogramSnapshot,
}

impl PipelineTelemetry {
    /// Folds another session's telemetry into this one (the per-channel →
    /// per-gateway rollup): histograms merge bucket-wise, the occupancy
    /// high-water mark takes the max, event counts add.
    pub fn merge(&mut self, other: &PipelineTelemetry) {
        self.ring_occupancy_hwm = self.ring_occupancy_hwm.max(other.ring_occupancy_hwm);
        self.ring_full_events += other.ring_full_events;
        self.ring_block_wait_ns.merge(&other.ring_block_wait_ns);
        self.detect_gate_to_anchor_samples
            .merge(&other.detect_gate_to_anchor_samples);
        self.detect_gate_to_anchor_ns
            .merge(&other.detect_gate_to_anchor_ns);
        self.queue_wait_ns.merge(&other.queue_wait_ns);
        self.decode_ns.merge(&other.decode_ns);
    }
}

/// The outcome of one multi-channel session: per-channel reports plus the
/// aggregate counters a capacity planner actually reads.
///
/// Produced by [`run_multi_stream`]. The per-channel [`GatewayReport`]s
/// keep their own packets, sequence numbers and throughput; the aggregate
/// fields sum the shards over the *shared* wall-clock window, so
/// [`MultiChannelReport::aggregate_samples_per_sec`] is the whole
/// gateway's ingest capacity, not an average of the shards.
#[derive(Debug, Clone)]
pub struct MultiChannelReport {
    /// Per-channel session reports, indexed by channel.
    pub channels: Vec<GatewayReport>,
    /// Wall-clock duration of the whole session in seconds (one shared
    /// window — the channels ran concurrently).
    pub elapsed_s: f64,
    /// Total samples consumed across all channels.
    pub samples_in: u64,
    /// Total packets dropped mid-stream across all channels.
    pub truncated: usize,
    /// Total chunks displaced by drop-oldest overflow across all channels.
    pub ring_dropped: u64,
    /// Aggregate processing throughput: total samples over the shared
    /// wall-clock window, in samples per second.
    pub aggregate_samples_per_sec: f64,
    /// `aggregate_samples_per_sec` over the *combined* radio rate
    /// (`channels × sample_rate`): ≥ 1 means the sharded gateway keeps up
    /// with every channel at once.
    pub aggregate_real_time_factor: f64,
}

impl MultiChannelReport {
    /// Assembles the aggregate view over per-channel reports measured in
    /// one shared wall-clock window of `elapsed_s` seconds.
    fn new(channels: Vec<GatewayReport>, elapsed_s: f64, sample_rate_hz: f64) -> Self {
        let samples_in: u64 = channels.iter().map(|r| r.samples_in).sum();
        let aggregate_samples_per_sec = samples_in as f64 / elapsed_s;
        let combined_rate = sample_rate_hz * channels.len() as f64;
        Self {
            samples_in,
            truncated: channels.iter().map(|r| r.truncated).sum(),
            ring_dropped: channels.iter().map(|r| r.ring_dropped).sum(),
            elapsed_s,
            aggregate_samples_per_sec,
            aggregate_real_time_factor: if combined_rate > 0.0 {
                aggregate_samples_per_sec / combined_rate
            } else {
                0.0
            },
            channels,
        }
    }
}

/// Decodes one located span through the batch receiver path — the one span
/// decode, shared by the engine's decode workers and every serial caller.
pub fn decode_span(
    receiver: &ConcurrentReceiver,
    span: &PacketSpan,
    assigned_bins: &[usize],
    payload_symbols: usize,
) -> Result<DecodedPacket, FftError> {
    let round = receiver.decode_round(&span.samples, 0, assigned_bins, payload_symbols)?;
    Ok(DecodedPacket {
        index: span.index,
        start_sample: span.start_sample,
        round,
    })
}

/// Runs the full threaded pipeline over `source` until it is exhausted and
/// returns the report: [`run_multi_stream`] with one channel. Deterministic
/// for a deterministic source: the engine's detection thread runs in stream
/// order, and decoded packets are reassembled by sequence number regardless
/// of worker scheduling. The configured overflow policy applies; under the
/// default [`crate::engine::OverflowPolicy::Block`] the session is lossless.
pub fn run_stream(
    source: &mut dyn StreamSource,
    config: &GatewayConfig,
) -> Result<GatewayReport, EngineError> {
    let mut report = run_channels(&mut [source], config)?;
    Ok(report.channels.remove(0))
}

/// Runs the sharded pipeline over one source per channel until every
/// source is exhausted, then returns the per-channel and aggregate report.
///
/// NetScatter's gateway listens to several adjacent 500 kHz channels at
/// once (§5: three channels triple the device population), and they are
/// independent at the PHY level, so each channel gets its own
/// [`StreamEngine`] and nothing is shared on the hot path. `config.workers`
/// is the *total* decode-worker budget (`0` = the available parallelism):
/// every channel gets its fair share, never less than one worker, on top of
/// its own detection thread.
///
/// Sources are served round-robin, one chunk per channel per lap, so no
/// channel's ring starves while another replays — the feed order a
/// multi-channel frontend's DMA would produce. Each channel keeps the
/// determinism of [`run_stream`], so per-channel results are bit-identical
/// to a single-channel session over the same samples. An engine error — a
/// supervised panic or decode error — is returned only after *every*
/// channel is torn down, so no thread outlives the call.
///
/// The first source's sample rate is used for the aggregate real-time
/// factor (NetScatter channels are homogeneous 500 kHz slices).
/// Returns [`EngineError::Config`] when `sources` is empty.
pub fn run_multi_stream(
    sources: &mut [Box<dyn StreamSource>],
    config: &GatewayConfig,
) -> Result<MultiChannelReport, EngineError> {
    let mut sources: Vec<_> = sources
        .iter_mut()
        .map(|source| source.as_mut() as &mut dyn StreamSource)
        .collect();
    run_channels(&mut sources, config)
}

/// Decode workers for each of `channels` engines under a total `budget`:
/// the fair share, never less than one, the first `budget % channels`
/// channels absorbing the remainder.
fn split_workers(budget: usize, channels: usize) -> impl Iterator<Item = usize> {
    (0..channels)
        .map(move |channel| (budget / channels + usize::from(channel < budget % channels)).max(1))
}

/// The one feed loop behind [`run_stream`] and [`run_multi_stream`].
fn run_channels(
    sources: &mut [&mut dyn StreamSource],
    config: &GatewayConfig,
) -> Result<MultiChannelReport, EngineError> {
    let Some(first) = sources.first() else {
        return Err(EngineError::Config(
            "multi-channel session needs at least one source".to_string(),
        ));
    };
    let sample_rate_hz = first.sample_rate_hz();
    let started = Instant::now();
    let mut engines = Vec::with_capacity(sources.len());
    for workers in split_workers(resolve_workers(config.workers), sources.len()) {
        let per_channel = GatewayConfig {
            workers,
            ..config.clone()
        };
        engines.push(StreamEngine::spawn(&per_channel, sample_rate_hz)?);
    }
    let chunk_samples = config.chunk_samples.max(1);
    let mut buf = vec![Complex64::ZERO; chunk_samples];
    let mut live = vec![true; sources.len()];
    let mut remaining = sources.len();
    while remaining > 0 {
        for (channel, source) in sources.iter_mut().enumerate() {
            if !live[channel] {
                continue;
            }
            let got = source.fill(&mut buf);
            let fed = got == 0 || engines[channel].feed(&buf[..got]).is_ok();
            if got < chunk_samples || !fed {
                // Short read = end of this channel's stream; a failed feed
                // means that channel's engine was torn down (shutdown
                // reports why). Either way the channel is done.
                live[channel] = false;
                remaining -= 1;
            }
        }
    }
    // Shut every engine down before surfacing the first error.
    let reports: Vec<_> = engines.into_iter().map(StreamEngine::shutdown).collect();
    let reports = reports.into_iter().collect::<Result<Vec<_>, _>>()?;
    let elapsed_s = started.elapsed().as_secs_f64().max(1e-12);
    Ok(MultiChannelReport::new(reports, elapsed_s, sample_rate_hz))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ReplaySource;
    use crate::stream_with_packets;
    use netscatter_phy::params::PhyProfile;

    /// Packets whose decode detected at least one device (an energy-gate
    /// trigger that decodes to zero devices is a false alarm, not a round).
    fn detected_rounds(report: &GatewayReport) -> usize {
        report
            .packets
            .iter()
            .filter(|p| !p.round.devices.is_empty())
            .count()
    }

    #[test]
    fn run_stream_decodes_every_packet() {
        let bits = vec![true, false, true, true, false, true];
        let cfg = GatewayConfig {
            chunk_samples: 777,
            ..GatewayConfig::new(PhyProfile::default(), vec![128], bits.len())
        };
        let mut source = ReplaySource::from_samples(stream_with_packets(128, &bits, 3), 500e3);
        let report = run_stream(&mut source, &cfg).unwrap();
        assert_eq!(report.truncated, 0);
        assert_eq!(report.packets.len(), 3);
        for p in &report.packets {
            assert_eq!(p.round.bits_for(128).unwrap(), &bits[..]);
        }
    }

    #[test]
    fn threaded_pipeline_matches_batch_decode_round() {
        let bits = vec![true, true, false, true, false, false, true, true];
        let cfg = GatewayConfig {
            chunk_samples: 1000,
            ring_slots: 4,
            workers: 3,
            ..GatewayConfig::new(PhyProfile::default(), vec![64, 192], bits.len())
        };
        let stream = stream_with_packets(64, &bits, 4);

        let mut source = ReplaySource::from_samples(stream.clone(), 500e3);
        let report = run_stream(&mut source, &cfg).unwrap();
        // Each packet is the batch receiver's decode of the samples at its
        // located start.
        let receiver = ConcurrentReceiver::new(&cfg.profile).unwrap();
        for (i, p) in report.packets.iter().enumerate() {
            let batch = receiver
                .decode_round(
                    &stream,
                    p.start_sample as usize,
                    &cfg.assigned_bins,
                    bits.len(),
                )
                .unwrap();
            assert_eq!((p.index, &p.round), (i, &batch));
        }
        assert_eq!(report.samples_in, source.len() as u64);
        assert_eq!(report.truncated, 0);
        assert_eq!(detected_rounds(&report), 4);
        assert!(report.samples_per_sec > 0.0);
        assert!(report.real_time_factor > 0.0);
    }

    #[test]
    fn multi_stream_channels_match_independent_single_channel_sessions() {
        let bits = vec![true, false, false, true, true];
        let cfg = GatewayConfig {
            chunk_samples: 900,
            workers: 2,
            ..GatewayConfig::new(PhyProfile::default(), vec![32, 160], bits.len())
        };
        let ch0 = stream_with_packets(32, &bits, 3);
        let ch1 = stream_with_packets(160, &bits, 2);

        // Reference: each channel alone through the single-channel session.
        let mut solo = Vec::new();
        for stream in [&ch0, &ch1] {
            let mut source = ReplaySource::from_samples(stream.clone(), 500e3);
            solo.push(run_stream(&mut source, &cfg).unwrap());
        }

        let mut sources: Vec<Box<dyn StreamSource>> = vec![
            Box::new(ReplaySource::from_samples(ch0.clone(), 500e3)),
            Box::new(ReplaySource::from_samples(ch1.clone(), 500e3)),
        ];
        let report = run_multi_stream(&mut sources, &cfg).unwrap();
        assert_eq!(report.channels.len(), 2);
        for (channel, reference) in report.channels.iter().zip(solo.iter()) {
            assert_eq!(
                channel.packets, reference.packets,
                "sharding must not change any channel's decode"
            );
            assert_eq!(channel.samples_in, reference.samples_in);
            assert_eq!(channel.truncated, reference.truncated);
        }
        assert_eq!(report.samples_in, (ch0.len() + ch1.len()) as u64);
        assert_eq!(
            report.channels.iter().map(detected_rounds).sum::<usize>(),
            5
        );
        assert!(report.aggregate_samples_per_sec > 0.0);
        assert!(report.aggregate_real_time_factor > 0.0);
    }

    #[test]
    fn worker_budget_splits_fairly_and_never_below_one() {
        // 5 workers over 3 channels: 2 + 2 + 1.
        assert_eq!(split_workers(5, 3).collect::<Vec<_>>(), vec![2, 2, 1]);
        assert_eq!(split_workers(6, 1).collect::<Vec<_>>(), vec![6]);
        // More channels than budgeted workers: every channel still gets one.
        assert!(split_workers(5, 8).eq([1; 8]));
    }

    #[test]
    fn multi_stream_worker_panic_still_tears_down_every_channel() {
        // Channel 0's worker detonates on its first span; channel 1 sees
        // only silence (no span, so its fault hook never fires). The session
        // must join *all* threads across *all* channels before surfacing
        // the panic as a typed error.
        let bits = vec![true, false, true, false];
        let cfg = GatewayConfig {
            chunk_samples: 800,
            workers: 2,
            fault_panic_span: Some(0),
            ..GatewayConfig::new(PhyProfile::default(), vec![64], bits.len())
        };
        let mut sources: Vec<Box<dyn StreamSource>> = vec![
            Box::new(ReplaySource::from_samples(
                stream_with_packets(64, &bits, 1),
                500e3,
            )),
            Box::new(ReplaySource::from_samples(
                vec![Complex64::ZERO; 4096],
                500e3,
            )),
        ];
        match run_multi_stream(&mut sources, &cfg) {
            Err(EngineError::WorkerPanic(p)) => {
                assert_eq!(p.role, "decode-worker");
                assert!(p.message.contains("injected decode fault"), "{}", p.message);
            }
            other => panic!("expected WorkerPanic, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn multi_stream_rejects_an_empty_source_list() {
        let cfg = GatewayConfig::new(PhyProfile::default(), vec![0], 4);
        let mut sources: Vec<Box<dyn StreamSource>> = Vec::new();
        assert!(matches!(
            run_multi_stream(&mut sources, &cfg),
            Err(EngineError::Config(_))
        ));
    }

    #[test]
    fn empty_stream_yields_an_empty_report() {
        let cfg = GatewayConfig::new(PhyProfile::default(), vec![0], 4);
        let mut source = ReplaySource::from_samples(Vec::new(), 500e3);
        let report = run_stream(&mut source, &cfg).unwrap();
        assert!(report.packets.is_empty());
        assert_eq!(report.samples_in, 0);
    }
}
