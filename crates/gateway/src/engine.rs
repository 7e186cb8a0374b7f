//! The reusable per-stream pipeline engine.
//!
//! [`StreamEngine`] is the threaded detection/decode topology of the
//! gateway, factored out of the one-shot [`crate::pipeline::run_stream`]
//! session so a long-lived daemon can run one engine per ingest stream with
//! an explicit lifecycle:
//!
//! * **spawn** — [`StreamEngine::spawn`] starts the detection thread (pops
//!   the ring, runs the [`crate::detect::StreamDetector`] in stream order,
//!   deals completed spans round-robin) and the decode worker pool (each
//!   worker owns a receiver clone and reuses the batch
//!   `ConcurrentReceiver::decode_round` path);
//! * **feed** — [`StreamEngine::feed`] copies a chunk of samples into the
//!   blocking ring. Backpressure follows the configured
//!   [`OverflowPolicy`]: `Block` parks until the detector frees a slot
//!   (lossless replay), `DropOldest` displaces the oldest queued chunk and
//!   counts it (the daemon's socket ingest — the TCP reader is never
//!   blocked); either way a feed fails once the detection thread is gone;
//! * **drain** — [`StreamEngine::drain`] collects decoded packets *in
//!   stream order* without blocking, so a serving loop can publish frames
//!   while the stream is still flowing;
//! * **shutdown** — [`StreamEngine::shutdown`] closes the ring, joins the
//!   detection thread and every worker (no detached threads, no lost
//!   in-flight rounds), and returns the final [`GatewayReport`] carrying
//!   whatever packets were not already drained plus the session counters
//!   (samples, truncated packets, ring drops, throughput).
//!
//! Dropping an engine without calling `shutdown` performs the same join —
//! worker threads are never leaked past the producer's lifetime.
//!
//! # Supervision
//!
//! The detection thread and every decode worker run under
//! [`std::panic::catch_unwind`] at their thread roots. A panic anywhere in
//! the decode path therefore cannot wedge the engine: the panicking
//! thread's channel endpoints drop (disconnecting its peers), the
//! detection loop stops cleanly when a worker's job queue goes away, and
//! `shutdown` joins every remaining thread before converting the recorded
//! panic into a typed [`EngineError::WorkerPanic`] carrying the partial
//! [`GatewayReport`] — everything decoded before the failure is preserved,
//! and no caller ever re-panics on `join`.

use crate::detect::{DetectTelemetry, GatewayConfig, PacketSpan, StreamDetector};
use crate::pipeline::{decode_span, DecodedPacket, GatewayReport, PipelineTelemetry};
use crate::ring::{spsc_ring, RingConsumer, RingProducer, RingTelemetry};
use netscatter_dsp::fft::FftError;
use netscatter_dsp::Complex64;
use netscatter_obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

pub use crate::ring::OverflowPolicy;

/// A chunk in flight between the feeder and the detector.
struct Chunk {
    samples: Vec<Complex64>,
    /// When [`StreamEngine::feed`] accepted these samples — the start of
    /// the ingest→emit latency clock for every packet this chunk
    /// completes.
    ingested_at: Instant,
}

/// One located span on its way to a decode worker, with the timestamps
/// the worker needs to price its queue.
struct Job {
    span: PacketSpan,
    /// Ingest time of the chunk whose samples completed this span.
    ingested_at: Instant,
    /// When the detection thread dispatched the span to the worker queue.
    enqueued_at: Instant,
}

/// A decoded packet plus its ingest timestamp, as handed out by
/// [`StreamEngine::drain_timed`] — the serving layer subtracts
/// `ingested_at` from its own emit time to get the end-to-end
/// ingest→publish frame latency.
#[derive(Debug, Clone)]
pub struct TimedPacket {
    /// The decoded packet.
    pub packet: DecodedPacket,
    /// When the feed accepted the chunk that completed this packet.
    pub ingested_at: Instant,
}

/// Counters shared between the engine handle and its detection thread.
#[derive(Debug, Default)]
struct EngineStats {
    /// Samples the detector has consumed from the ring.
    samples_processed: AtomicU64,
}

/// The live per-stage telemetry of one [`StreamEngine`]: the handles its
/// ring, detector, and decode workers record into, shareable (via
/// [`StreamEngine::telemetry`]) with a metrics endpoint that scrapes
/// mid-stream. Snapshots into the plain-data
/// [`crate::pipeline::PipelineTelemetry`] carried by every
/// [`GatewayReport`].
#[derive(Debug, Default)]
pub struct EngineTelemetry {
    /// Ring pressure (occupancy high-water mark, full events, block waits).
    pub ring: Arc<RingTelemetry>,
    /// Detection latency (energy gate → preamble anchor).
    pub detect: Arc<DetectTelemetry>,
    /// Span dispatch → decode start, per span, in nanoseconds.
    pub queue_wait_ns: Histogram,
    /// Decode service time per span, in nanoseconds.
    pub decode_ns: Histogram,
}

impl EngineTelemetry {
    /// A plain-data copy of the current distributions.
    pub fn snapshot(&self) -> PipelineTelemetry {
        PipelineTelemetry {
            ring_occupancy_hwm: self.ring.occupancy_hwm.get(),
            ring_full_events: self.ring.full_events.get(),
            ring_block_wait_ns: self.ring.block_wait_ns.snapshot(),
            detect_gate_to_anchor_samples: self.detect.gate_to_anchor_samples.snapshot(),
            detect_gate_to_anchor_ns: self.detect.gate_to_anchor_ns.snapshot(),
            queue_wait_ns: self.queue_wait_ns.snapshot(),
            decode_ns: self.decode_ns.snapshot(),
        }
    }
}

/// What the detection thread hands back when it exits.
struct DetectorExit {
    truncated: usize,
    /// Panic message when the detection loop died instead of draining.
    panic: Option<String>,
}

/// Renders a caught panic payload as a message (panics carry `&str` or
/// `String` payloads in practice; anything else is labeled as opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why a supervised engine failed: a decode error, a panic in one of its
/// threads (converted by the supervision layer — never re-raised), or an
/// invalid engine configuration.
#[derive(Debug)]
pub enum EngineError {
    /// The decode path reported an FFT error.
    Fft(FftError),
    /// A supervised thread panicked; the engine was torn down cleanly
    /// (every other thread joined) and the partial report preserved.
    WorkerPanic(Box<PanicReport>),
    /// The engine configuration is invalid (e.g. no source to serve).
    Config(String),
}

/// The details of a supervised panic, including everything the engine had
/// decoded before the failing thread died.
#[derive(Debug)]
pub struct PanicReport {
    /// Which thread died: `"detector"` or `"decode-worker"`.
    pub role: &'static str,
    /// The panic payload, rendered as text.
    pub message: String,
    /// The partial session report: packets decoded before the panic,
    /// counters up to teardown.
    pub report: GatewayReport,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Fft(e) => write!(f, "{e}"),
            EngineError::WorkerPanic(p) => {
                write!(f, "{} thread panicked: {}", p.role, p.message)
            }
            EngineError::Config(message) => write!(f, "invalid engine configuration: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FftError> for EngineError {
    fn from(e: FftError) -> Self {
        EngineError::Fft(e)
    }
}

/// The engine died before the feed could be accepted — its detection thread
/// is gone (shutdown already started, or a decode panic tore it down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineClosed;

impl std::fmt::Display for EngineClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream engine is shut down")
    }
}

impl std::error::Error for EngineClosed {}

/// Resolves a `workers` setting: `0` means the available parallelism.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    }
}

/// One live per-stream pipeline: ring → detector thread → decode worker
/// pool → in-order reassembly. See the module docs for the lifecycle.
pub struct StreamEngine {
    producer: Option<RingProducer<Chunk>>,
    detector: Option<JoinHandle<DetectorExit>>,
    workers: Vec<JoinHandle<Option<String>>>,
    results: mpsc::Receiver<Result<TimedPacket, FftError>>,
    stats: Arc<EngineStats>,
    telemetry: Arc<EngineTelemetry>,
    policy: OverflowPolicy,
    sample_rate_hz: f64,
    started: Instant,
    /// Samples accepted by `feed` (dropped chunks included).
    samples_fed: u64,
    /// Out-of-order decoded packets waiting for their predecessors.
    reorder: Vec<TimedPacket>,
    /// Sequence number the next in-order packet must carry.
    next_emit: usize,
    /// First decode error observed (reported at shutdown).
    error: Option<FftError>,
    /// First supervised panic observed at join time (role, message).
    panic: Option<(&'static str, String)>,
    /// Detector-exit data once joined.
    truncated: usize,
    /// Ring-drop total cached when the producer handle is released.
    final_dropped: u64,
}

impl StreamEngine {
    /// Spawns the detection thread and decode worker pool for `config`.
    /// `sample_rate_hz` is the ingest stream's sample rate, used for the
    /// report's real-time factor.
    pub fn spawn(config: &GatewayConfig, sample_rate_hz: f64) -> Result<Self, FftError> {
        Self::spawn_inner(config, sample_rate_hz, None)
    }

    /// As [`StreamEngine::spawn`], with an optional gate the detection
    /// thread waits on before its first pop — lets tests stall the consumer
    /// deterministically to exercise the overflow policy.
    fn spawn_inner(
        config: &GatewayConfig,
        sample_rate_hz: f64,
        hold: Option<Arc<std::sync::atomic::AtomicBool>>,
    ) -> Result<Self, FftError> {
        let mut detector = StreamDetector::new(config)?;
        let telemetry = Arc::new(EngineTelemetry::default());
        detector.set_telemetry(telemetry.detect.clone());
        let workers = resolve_workers(config.workers);
        let (mut ring_tx, ring_rx) = spsc_ring::<Chunk>(config.ring_slots);
        ring_tx.set_telemetry(telemetry.ring.clone());
        let (result_tx, result_rx) = mpsc::channel::<Result<TimedPacket, FftError>>();
        let stats = Arc::new(EngineStats::default());

        // Decode workers: each owns a receiver clone and drains its private
        // job queue; spans are dealt round-robin by sequence number.
        let mut job_txs: Vec<mpsc::Sender<Job>> = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            job_txs.push(job_tx);
            let result_tx = result_tx.clone();
            let receiver = detector.receiver().clone();
            let bins = config.assigned_bins.clone();
            let payload_symbols = config.payload_symbols;
            let fault_span = config.fault_panic_span;
            let telemetry = telemetry.clone();
            // Supervised thread root: a panic in the decode path unwinds to
            // here, drops the worker's channel endpoints (disconnecting the
            // detector and the reassembly side cleanly) and is handed back
            // as a message for join-time conversion into EngineError.
            worker_handles.push(std::thread::spawn(move || -> Option<String> {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    while let Ok(job) = job_rx.recv() {
                        let Job {
                            span,
                            ingested_at,
                            enqueued_at,
                        } = job;
                        if fault_span == Some(span.index) {
                            panic!("injected decode fault (chaos): span {}", span.index);
                        }
                        let started = Instant::now();
                        telemetry
                            .queue_wait_ns
                            .record_duration(started.saturating_duration_since(enqueued_at));
                        let decoded = decode_span(&receiver, &span, &bins, payload_symbols);
                        telemetry.decode_ns.record_duration(started.elapsed());
                        let timed = decoded.map(|packet| TimedPacket {
                            packet,
                            ingested_at,
                        });
                        if result_tx.send(timed).is_err() {
                            break;
                        }
                    }
                }))
                .err()
                .map(|p| panic_message(p.as_ref()))
            }));
        }
        drop(result_tx);

        let det_stats = stats.clone();
        let detector_handle = std::thread::spawn(move || {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                detection_loop(detector, ring_rx, job_txs, det_stats, hold)
            })) {
                Ok(exit) => exit,
                Err(p) => DetectorExit {
                    truncated: 0,
                    panic: Some(panic_message(p.as_ref())),
                },
            }
        });

        Ok(Self {
            producer: Some(ring_tx),
            detector: Some(detector_handle),
            workers: worker_handles,
            results: result_rx,
            stats,
            telemetry,
            policy: config.overflow,
            sample_rate_hz,
            started: Instant::now(),
            samples_fed: 0,
            reorder: Vec::new(),
            next_emit: 0,
            error: None,
            panic: None,
            truncated: 0,
            final_dropped: 0,
        })
    }

    /// The ingest stream's sample rate the engine was spawned with.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Samples accepted by [`StreamEngine::feed`] so far (samples inside
    /// chunks later displaced by the overflow policy included).
    pub fn samples_fed(&self) -> u64 {
        self.samples_fed
    }

    /// Samples the detection thread has consumed from the ring so far.
    pub fn samples_processed(&self) -> u64 {
        self.stats.samples_processed.load(Ordering::Relaxed)
    }

    /// Chunks displaced by the drop-oldest overflow policy so far.
    pub fn ring_dropped(&self) -> u64 {
        self.producer
            .as_ref()
            .map_or(self.final_dropped, |p| p.dropped())
    }

    /// Whether the detection thread has taken every chunk fed so far — the
    /// ring is empty, though the detector may still be working on the last
    /// chunk it popped. Stays exact after a drop-oldest displacement, where
    /// [`StreamEngine::samples_processed`] falls behind
    /// [`StreamEngine::samples_fed`] for good. `true` once the engine is
    /// shut down.
    pub fn detector_idle(&self) -> bool {
        self.producer.as_ref().map_or(true, RingProducer::is_empty)
    }

    /// The engine's live stage telemetry — share with a metrics endpoint
    /// to expose per-stage histograms while the stream is still flowing.
    pub fn telemetry(&self) -> Arc<EngineTelemetry> {
        self.telemetry.clone()
    }

    /// Copies `samples` into the ring as one chunk, applying the overflow
    /// policy. Returns how many chunks the push displaced (always 0 under
    /// [`OverflowPolicy::Block`]), or [`EngineClosed`] under either policy
    /// once the detection thread has stopped consuming.
    ///
    /// A chunk may hold any number of samples: detection is chunk-size
    /// invariant, so only timing depends on how the stream is cut. Every
    /// chunk costs one ring slot whatever it holds, so a caller that
    /// receives samples in small pieces should coalesce them while the
    /// detector is behind — the daemon feeds `chunk_samples`-sized chunks
    /// then, and hands over a shorter tail only when
    /// [`StreamEngine::detector_idle`] says the ring is empty.
    pub fn feed(&mut self, samples: &[Complex64]) -> Result<u64, EngineClosed> {
        if samples.is_empty() {
            return Ok(0);
        }
        let producer = self.producer.as_ref().ok_or(EngineClosed)?;
        self.samples_fed += samples.len() as u64;
        let chunk = Chunk {
            samples: samples.to_vec(),
            ingested_at: Instant::now(),
        };
        match self.policy {
            OverflowPolicy::Block => producer.push(chunk).map(|()| 0),
            OverflowPolicy::DropOldest => producer.force_push(chunk),
        }
        .map_err(|_| EngineClosed)
    }

    /// Collects every packet decoded so far, in stream order, without
    /// blocking. Packets whose predecessors are still in flight are held
    /// back until the gap fills.
    pub fn drain(&mut self) -> Vec<DecodedPacket> {
        self.drain_timed().into_iter().map(|t| t.packet).collect()
    }

    /// As [`StreamEngine::drain`], keeping each packet's ingest timestamp
    /// so a serving loop can stamp end-to-end ingest→emit frame latency.
    pub fn drain_timed(&mut self) -> Vec<TimedPacket> {
        while let Ok(decoded) = self.results.try_recv() {
            self.stash(decoded);
        }
        self.emit_ready()
    }

    /// Ends the stream: closes the ring, joins the detection thread and the
    /// worker pool, drains the in-flight remainder and returns the final
    /// report. `packets` carries only what was not already handed out by
    /// [`StreamEngine::drain`]. A supervised panic comes back as
    /// [`EngineError::WorkerPanic`] *after* every remaining thread has been
    /// joined, with the partial report inside — shutdown never hangs and
    /// never re-panics.
    pub fn shutdown(mut self) -> Result<GatewayReport, EngineError> {
        self.teardown();
        let elapsed_s = self.started.elapsed().as_secs_f64().max(1e-12);
        let samples_in = self.samples_processed();
        let samples_per_sec = samples_in as f64 / elapsed_s;
        let packets = self.emit_ready().into_iter().map(|t| t.packet).collect();
        let report = GatewayReport {
            packets,
            samples_in,
            truncated: self.truncated,
            elapsed_s,
            samples_per_sec,
            real_time_factor: samples_per_sec / self.sample_rate_hz,
            ring_dropped: self.final_dropped,
            telemetry: self.telemetry.snapshot(),
        };
        if let Some((role, message)) = self.panic.take() {
            return Err(EngineError::WorkerPanic(Box::new(PanicReport {
                role,
                message,
                report,
            })));
        }
        if let Some(e) = self.error.take() {
            return Err(EngineError::Fft(e));
        }
        Ok(report)
    }

    /// Closes the ring and joins every thread, folding the remaining decode
    /// results into the reorder buffer and recording (not re-raising) any
    /// panic a supervised thread died with. Idempotent.
    fn teardown(&mut self) {
        if let Some(producer) = self.producer.take() {
            self.final_dropped = producer.dropped();
            drop(producer); // closes the ring; the detector drains and exits
        }
        if let Some(detector) = self.detector.take() {
            match detector.join() {
                Ok(exit) => {
                    self.truncated = exit.truncated;
                    if let Some(message) = exit.panic {
                        self.note_panic("detector", message);
                    }
                }
                // The catch_unwind root makes this unreachable in practice;
                // record it rather than re-panic if it ever happens.
                Err(p) => self.note_panic("detector", panic_message(p.as_ref())),
            }
        }
        for worker in std::mem::take(&mut self.workers) {
            match worker.join() {
                Ok(Some(message)) => self.note_panic("decode-worker", message),
                Ok(None) => {}
                Err(p) => self.note_panic("decode-worker", panic_message(p.as_ref())),
            }
        }
        // All senders are gone: drain the channel to the end.
        while let Ok(decoded) = self.results.try_recv() {
            self.stash(decoded);
        }
    }

    /// Records the first supervised panic; later ones are redundant (one
    /// dead thread disconnects its peers, which then exit cleanly).
    fn note_panic(&mut self, role: &'static str, message: String) {
        if self.panic.is_none() {
            self.panic = Some((role, message));
        }
    }

    /// Buffers one decode result, recording the first error.
    fn stash(&mut self, decoded: Result<TimedPacket, FftError>) {
        match decoded {
            Ok(packet) => self.reorder.push(packet),
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
            }
        }
    }

    /// Moves the in-order prefix out of the reorder buffer: packets
    /// `next_emit, next_emit + 1, …` up to the first gap.
    fn emit_ready(&mut self) -> Vec<TimedPacket> {
        self.reorder.sort_by_key(|t| t.packet.index);
        let ready = self
            .reorder
            .iter()
            .enumerate()
            .take_while(|(i, t)| t.packet.index == self.next_emit + i)
            .count();
        self.next_emit += ready;
        self.reorder.drain(..ready).collect()
    }
}

impl Drop for StreamEngine {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// The detection thread: pops chunks in stream order, advances the state
/// machine, deals completed spans to the workers round-robin.
fn detection_loop(
    mut detector: StreamDetector,
    ring: RingConsumer<Chunk>,
    job_txs: Vec<mpsc::Sender<Job>>,
    stats: Arc<EngineStats>,
    hold: Option<Arc<std::sync::atomic::AtomicBool>>,
) -> DetectorExit {
    if let Some(gate) = hold {
        while gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }
    let workers = job_txs.len();
    let mut spans = Vec::new();
    'stream: while let Some(chunk) = ring.pop() {
        stats
            .samples_processed
            .fetch_add(chunk.samples.len() as u64, Ordering::Relaxed);
        detector.push(&chunk.samples, &mut spans);
        for span in spans.drain(..) {
            let worker = span.index % workers;
            let job = Job {
                span,
                // The chunk whose samples completed this span is the one
                // being processed right now, so its ingest time starts the
                // packet's end-to-end latency clock.
                ingested_at: chunk.ingested_at,
                enqueued_at: Instant::now(),
            };
            if job_txs[worker].send(job).is_err() {
                // That worker died (panicked): stop consuming — dropping
                // the ring consumer unblocks the feeder, and teardown will
                // surface the worker's panic as EngineError::WorkerPanic.
                break 'stream;
            }
        }
    }
    detector.finish();
    DetectorExit {
        truncated: detector.truncated(),
        panic: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_with_packets;
    use netscatter_phy::params::PhyProfile;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn shutdown_drains_every_in_flight_round() {
        // Feed the whole stream and shut down immediately: every packet the
        // detector saw must come back in the report — joined workers, no
        // lost in-flight rounds.
        let bits = vec![true, false, true, true, false, true];
        let cfg = GatewayConfig {
            workers: 3,
            ..GatewayConfig::new(PhyProfile::default(), vec![128], bits.len())
        };
        let stream = stream_with_packets(128, &bits, 5);
        let mut engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        for chunk in stream.chunks(1000) {
            engine.feed(chunk).unwrap();
        }
        let report = engine.shutdown().unwrap();
        assert_eq!(report.packets.len(), 5);
        assert_eq!(report.truncated, 0);
        assert_eq!(report.ring_dropped, 0);
        assert_eq!(report.samples_in, stream.len() as u64);
        for (i, p) in report.packets.iter().enumerate() {
            assert_eq!(p.index, i);
            assert_eq!(p.round.bits_for(128).unwrap(), &bits[..]);
        }
    }

    #[test]
    fn drain_hands_out_packets_in_stream_order() {
        let bits = vec![true, true, false, true];
        let cfg = GatewayConfig {
            workers: 2,
            ..GatewayConfig::new(PhyProfile::default(), vec![64], bits.len())
        };
        let stream = stream_with_packets(64, &bits, 4);
        let mut engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        let mut drained = Vec::new();
        for chunk in stream.chunks(777) {
            engine.feed(chunk).unwrap();
            drained.extend(engine.drain());
        }
        // Whatever was still in flight at the end arrives with the report.
        let report = engine.shutdown().unwrap();
        drained.extend(report.packets);
        assert_eq!(drained.len(), 4);
        for (i, p) in drained.iter().enumerate() {
            assert_eq!(p.index, i, "drain must preserve stream order");
        }
    }

    #[test]
    fn telemetry_tracks_every_pipeline_stage() {
        let bits = vec![true, false, false, true, true];
        let cfg = GatewayConfig {
            workers: 2,
            ..GatewayConfig::new(PhyProfile::default(), vec![96], bits.len())
        };
        let stream = stream_with_packets(96, &bits, 4);
        let mut engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        let live = engine.telemetry();
        for chunk in stream.chunks(900) {
            engine.feed(chunk).unwrap();
        }
        let report = engine.shutdown().unwrap();
        assert_eq!(report.packets.len(), 4);

        let t = &report.telemetry;
        // One gate → anchor measurement per detected packet, each covering
        // at least the sync search it took to anchor.
        assert_eq!(t.detect_gate_to_anchor_samples.count(), 4);
        assert_eq!(t.detect_gate_to_anchor_ns.count(), 4);
        assert!(t.detect_gate_to_anchor_samples.min > 0);
        // Every span passed through the decode queue exactly once.
        assert_eq!(t.queue_wait_ns.count(), 4);
        assert_eq!(t.decode_ns.count(), 4);
        assert!(t.decode_ns.sum > 0, "decode work takes measurable time");
        // The producer pushed chunks, so the ring held at least one. The
        // feeder may outrun the detector, so full events are allowed — but
        // under the blocking policy each one must have timed its wait.
        assert!(t.ring_occupancy_hwm >= 1);
        assert_eq!(t.ring_block_wait_ns.count(), t.ring_full_events);
        // The shutdown snapshot and the live handle agree.
        assert_eq!(live.decode_ns.snapshot().count(), 4);
    }

    #[test]
    fn drain_timed_reports_monotone_ingest_stamps() {
        let bits = vec![false, true, true];
        let cfg = GatewayConfig {
            workers: 1,
            ..GatewayConfig::new(PhyProfile::default(), vec![32], bits.len())
        };
        let stream = stream_with_packets(32, &bits, 3);
        let mut engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        let spawned = Instant::now();
        let mut timed = Vec::new();
        for chunk in stream.chunks(512) {
            engine.feed(chunk).unwrap();
            timed.extend(engine.drain_timed());
        }
        loop {
            timed.extend(engine.drain_timed());
            if timed.len() == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for (i, t) in timed.iter().enumerate() {
            assert_eq!(t.packet.index, i);
            assert!(t.ingested_at >= spawned);
            assert!(t.ingested_at <= Instant::now());
        }
        // Later packets finish on later (or equal) chunks.
        for pair in timed.windows(2) {
            assert!(pair[0].ingested_at <= pair[1].ingested_at);
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn stalled_consumer_overflow_drops_surface_in_the_report() {
        // Deterministic overflow: the detection thread is gated before its
        // first pop, so every chunk beyond the ring capacity must displace
        // the oldest queued one. The drop count surfaces in the
        // GatewayReport, and only the surviving chunks are processed.
        let cfg = GatewayConfig {
            ring_slots: 2,
            workers: 1,
            overflow: OverflowPolicy::DropOldest,
            ..GatewayConfig::new(PhyProfile::default(), vec![0], 4)
        };
        let hold = Arc::new(AtomicBool::new(true));
        let mut engine = StreamEngine::spawn_inner(&cfg, 500e3, Some(hold.clone())).unwrap();
        let chunk = vec![Complex64::ZERO; 256];
        for _ in 0..10 {
            engine.feed(&chunk).unwrap();
        }
        assert_eq!(engine.ring_dropped(), 8, "2 of 10 chunks fit a 2-slot ring");
        assert_eq!(engine.samples_fed(), 10 * 256);
        hold.store(false, Ordering::Release);
        let report = engine.shutdown().unwrap();
        assert_eq!(report.ring_dropped, 8);
        assert_eq!(
            report.samples_in,
            2 * 256,
            "only surviving chunks reach the detector"
        );
        assert!(report.packets.is_empty());
    }

    #[test]
    fn detector_idle_reads_true_again_after_a_displacement_drains() {
        // A counter comparison would stay false for good here: the
        // displaced chunks are fed but never processed.
        let cfg = GatewayConfig {
            ring_slots: 2,
            workers: 1,
            overflow: OverflowPolicy::DropOldest,
            ..GatewayConfig::new(PhyProfile::default(), vec![0], 4)
        };
        let hold = Arc::new(AtomicBool::new(true));
        let mut engine = StreamEngine::spawn_inner(&cfg, 500e3, Some(hold.clone())).unwrap();
        assert!(engine.detector_idle(), "nothing fed yet");
        let chunk = vec![Complex64::ZERO; 256];
        for _ in 0..3 {
            engine.feed(&chunk).unwrap();
        }
        assert_eq!(engine.ring_dropped(), 1);
        assert!(
            !engine.detector_idle(),
            "two chunks wait on a held detector"
        );
        hold.store(false, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !engine.detector_idle() || engine.samples_processed() < 2 * 256 {
            assert!(Instant::now() < deadline, "the detector never drained");
            std::thread::yield_now();
        }
        assert_eq!(
            engine.samples_fed() - engine.samples_processed(),
            256,
            "the displaced chunk stays fed but unprocessed"
        );
        engine.feed(&chunk).unwrap();
        let report = engine.shutdown().unwrap();
        assert_eq!(report.samples_in, 3 * 256);
        assert_eq!(report.ring_dropped, 1);
    }

    #[test]
    fn injected_worker_panic_tears_down_cleanly_with_a_partial_report() {
        // Span 2 detonates its decode worker. The engine must neither hang
        // nor re-panic: shutdown joins every thread and returns a typed
        // WorkerPanic carrying whatever was decoded before the failure.
        let bits = vec![true, false, true, true];
        let cfg = GatewayConfig {
            workers: 2,
            fault_panic_span: Some(2),
            ..GatewayConfig::new(PhyProfile::default(), vec![128], bits.len())
        };
        let stream = stream_with_packets(128, &bits, 5);
        let mut engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        for chunk in stream.chunks(1000) {
            // Feeding may start failing once the dead worker disconnects
            // the detection loop — that is the clean refusal, not a hang.
            if engine.feed(chunk).is_err() {
                break;
            }
        }
        match engine.shutdown() {
            Err(EngineError::WorkerPanic(p)) => {
                assert_eq!(p.role, "decode-worker");
                assert!(p.message.contains("injected decode fault"), "{}", p.message);
                // Everything decoded before the panic is preserved, in
                // stream order, and none of it is the poisoned span.
                for packet in &p.report.packets {
                    assert_ne!(packet.index, 2);
                    assert_eq!(packet.round.bits_for(128).unwrap(), &bits[..]);
                }
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn panicked_engine_drop_does_not_repanic() {
        // Drop (no shutdown call) after an injected panic: teardown must
        // swallow the recorded panic — a Drop that re-panics would abort.
        let cfg = GatewayConfig {
            workers: 1,
            fault_panic_span: Some(0),
            ..GatewayConfig::new(PhyProfile::default(), vec![64], 4)
        };
        let bits = vec![true, false, true, false];
        let stream = stream_with_packets(64, &bits, 2);
        let mut engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        for chunk in stream.chunks(500) {
            if engine.feed(chunk).is_err() {
                break;
            }
        }
        drop(engine); // must not propagate the worker's panic
    }

    #[test]
    fn dead_engine_under_drop_oldest_refuses_the_feed() {
        // Span 0 detonates the only decode worker; dispatching span 1 to it
        // is how the detection thread finds out and stops consuming. From
        // then on a drop-oldest feed must fail like a blocking one, not
        // displace chunks into a ring nobody drains.
        let bits = vec![true, false, true, true];
        let cfg = GatewayConfig {
            ring_slots: 4,
            workers: 1,
            overflow: OverflowPolicy::DropOldest,
            fault_panic_span: Some(0),
            ..GatewayConfig::new(PhyProfile::default(), vec![64], bits.len())
        };
        let packet = stream_with_packets(64, &bits, 1);
        let mut engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        // Paced feeds, so the 4-slot ring never displaces a chunk the
        // detector has yet to see.
        let feed_paced = |engine: &mut StreamEngine, samples: &[Complex64]| {
            std::thread::sleep(Duration::from_millis(5));
            engine.feed(samples)
        };
        for chunk in packet.chunks(1000) {
            feed_paced(&mut engine, chunk).unwrap();
        }
        while !engine.workers[0].is_finished() {
            feed_paced(&mut engine, &packet[..200]).unwrap(); // silence
        }
        for chunk in packet.chunks(1000) {
            let _ = feed_paced(&mut engine, chunk);
        }
        // Span 1 is on its way to the dead worker: the feed must start
        // failing within a ring's worth of silence and a few chunks.
        let refused =
            (0..cfg.ring_slots + 8).any(|_| feed_paced(&mut engine, &packet[..200]).is_err());
        assert!(refused, "a dead engine kept accepting chunks");
        assert!(matches!(
            engine.shutdown(),
            Err(EngineError::WorkerPanic(p)) if p.role == "decode-worker"
        ));
    }

    #[test]
    fn feed_after_shutdown_is_rejected_cleanly() {
        let cfg = GatewayConfig::new(PhyProfile::default(), vec![0], 4);
        let engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        // Drop without shutdown: the Drop impl joins every thread.
        drop(engine);

        let mut engine = StreamEngine::spawn(&cfg, 500e3).unwrap();
        engine.teardown();
        assert_eq!(engine.feed(&[Complex64::ZERO]), Err(EngineClosed));
    }
}
