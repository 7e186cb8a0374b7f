//! The stream registry: one stats block per ingest stream, shared between
//! the serving threads (writers) and the metrics endpoint (reader).
//!
//! All counters are atomics so the metrics endpoint never takes a lock a
//! serving thread holds while decoding; the registry's own mutex guards
//! only the stream list (taken on register and on snapshot).
//!
//! The counters themselves are named once, in [`STREAM_COUNTERS`] (per
//! stream) and [`HEALTH_COUNTERS`] (daemon-wide): the `end` record and the
//! metrics document are both written by walking those tables, so they
//! cannot disagree on a name, an order or a value.
//!
//! The registry is bounded: a daemon that serves short-lived connections
//! forever would otherwise grow one stats block per connection without
//! limit. Finished streams beyond the retention cap are *retired* — their
//! counters and latency histograms fold into the persistent
//! [`RetiredTotals`] the metrics endpoint adds back into every `*_total`
//! line, so retirement never makes a monotone metric regress.

use netscatter_gateway::{EngineTelemetry, PipelineTelemetry};
use netscatter_obs::{Histogram, HistogramSnapshot};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Finished streams kept individually visible in metrics before the
/// oldest is retired into [`RetiredTotals`] (the `--metrics-retention`
/// default). Deep enough that the stress/chaos fleets keep every stream's
/// per-stream block.
pub const DEFAULT_METRICS_RETENTION: usize = 64;

/// One per-stream counter; the discriminant indexes a [`StreamCounters`]
/// block and follows [`STREAM_COUNTERS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// NDJSON frame records published.
    Frames,
    /// Frames that decoded at least one device.
    Rounds,
    /// Frames that decoded zero devices (energy-gate false alarms).
    FalseAlarms,
    /// Link-layer device frames that passed their CRC-16 (coded streams).
    FramesOk,
    /// Link-layer device frames that failed their CRC-16 (coded streams).
    FramesFailedCrc,
    /// Samples accepted from the socket (samples inside chunks the ring
    /// later displaced included; `RingDropped` counts those chunks).
    SamplesIn,
    /// Packets lost to the stream ending mid-packet.
    Truncated,
    /// Bytes of a dangling partial cf32 sample the stream ended on.
    TrailingBytes,
    /// Chunks displaced by the ring's drop-oldest backpressure.
    RingDropped,
}

/// Every per-stream counter as `(counter, end-record key, metric stem)`,
/// in `end`-record (and metrics-document) order. A stem `s` exports the
/// counter as `netscatterd_<s>_total` daemon-wide and
/// `netscatterd_stream_<s>{stream=…}` per stream; `None` keeps it out of
/// those two blocks. The atomic block, its snapshot, the retired fold, the
/// `end` record and both counter loops of [`crate::metrics::render`] all
/// walk this table: a new counter is one [`Counter`] variant, one row
/// here, and the call that records it.
pub const STREAM_COUNTERS: &[(Counter, &str, Option<&str>)] = &[
    (Counter::Frames, "frames", None),
    (Counter::Rounds, "rounds", Some("rounds_decoded")),
    (Counter::FalseAlarms, "false_alarms", Some("false_alarms")),
    (Counter::FramesOk, "frames_ok", Some("frames_ok")),
    (
        Counter::FramesFailedCrc,
        "frames_failed_crc",
        Some("frames_failed_crc"),
    ),
    // Exported as the `samples_total` stream and channel lines instead.
    (Counter::SamplesIn, "samples_in", None),
    (Counter::Truncated, "truncated", None),
    (Counter::TrailingBytes, "trailing_bytes", None),
    (Counter::RingDropped, "ring_dropped", Some("ring_dropped")),
];

const N_STREAM: usize = STREAM_COUNTERS.len();

// A block is indexed by discriminant and walked by table position.
const _: () = {
    let mut i = 0;
    while i < N_STREAM {
        assert!(STREAM_COUNTERS[i].0 as usize == i);
        i += 1;
    }
};

/// One plain value of every per-stream counter: a stream's snapshot, or a
/// sum of them (`+=`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters([u64; N_STREAM]);

impl std::ops::Index<Counter> for StreamCounters {
    type Output = u64;
    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl std::ops::AddAssign for StreamCounters {
    fn add_assign(&mut self, other: Self) {
        for (sum, n) in self.0.iter_mut().zip(other.0) {
            *sum += n;
        }
    }
}

/// Live counters of one ingest stream. Rates are stored as `f64` bit
/// patterns so the whole block stays lock-free.
#[derive(Debug)]
pub struct StreamStats {
    name: String,
    channel: usize,
    active: AtomicBool,
    counters: [AtomicU64; N_STREAM],
    samples_per_sec: AtomicU64,
    real_time_factor: AtomicU64,
    /// Ingest→NDJSON-emit latency of every published frame, nanoseconds.
    frame_latency: Histogram,
    /// The serving thread's engine telemetry, attached once the engine is
    /// spawned so the metrics endpoint can snapshot per-stage histograms
    /// mid-stream. Mutex (not atomics): taken once on attach and once per
    /// metrics render, never on the decode path.
    engine: Mutex<Option<Arc<EngineTelemetry>>>,
}

impl StreamStats {
    fn new(name: String, channel: usize) -> Self {
        Self {
            name,
            channel,
            active: AtomicBool::new(true),
            counters: Default::default(),
            samples_per_sec: AtomicU64::new(0f64.to_bits()),
            real_time_factor: AtomicU64::new(0f64.to_bits()),
            frame_latency: Histogram::new(),
            engine: Mutex::new(None),
        }
    }

    /// The registry-uniquified stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The RF channel this stream's engine shard serves.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Marks the stream finished (its counters stay visible in metrics).
    pub fn set_inactive(&self) {
        self.active.store(false, Ordering::Release);
    }

    /// Whether the stream's connection is still being served.
    fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    fn add(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn set(&self, counter: Counter, total: u64) {
        self.counters[counter as usize].store(total, Ordering::Relaxed);
    }

    /// Updates the ingest totals (absolute values, not increments — the
    /// serving loop reads them off its engine).
    pub fn record_ingest(&self, samples_in: u64, ring_dropped: u64) {
        self.set(Counter::SamplesIn, samples_in);
        self.set(Counter::RingDropped, ring_dropped);
    }

    /// Counts one published frame; a decode with zero detected devices is
    /// a false alarm of the energy gate, not a round.
    pub fn record_frame(&self, devices_detected: usize) {
        self.add(Counter::Frames);
        self.add(if devices_detected > 0 {
            Counter::Rounds
        } else {
            Counter::FalseAlarms
        });
    }

    /// Counts one link-layer frame decode on a coded stream by its CRC
    /// verdict. Uncoded streams never call this, so both counters stay
    /// zero.
    pub fn record_link_frame(&self, crc_ok: bool) {
        self.add(if crc_ok {
            Counter::FramesOk
        } else {
            Counter::FramesFailedCrc
        });
    }

    /// Records what the stream's end left undecoded: packets cut off
    /// mid-air and the bytes of a dangling partial sample.
    pub fn record_end(&self, truncated: u64, trailing_bytes: u64) {
        self.set(Counter::Truncated, truncated);
        self.set(Counter::TrailingBytes, trailing_bytes);
    }

    /// Updates the measured processing rates.
    pub fn record_rates(&self, samples_per_sec: f64, real_time_factor: f64) {
        self.samples_per_sec
            .store(samples_per_sec.to_bits(), Ordering::Relaxed);
        self.real_time_factor
            .store(real_time_factor.to_bits(), Ordering::Relaxed);
    }

    /// Records one frame's ingest→NDJSON-emit latency.
    pub fn record_frame_latency(&self, latency: Duration) {
        self.frame_latency.record_duration(latency);
    }

    /// Attaches the serving engine's live telemetry so metrics snapshots
    /// carry per-stage latency histograms while the stream is running.
    pub fn attach_engine(&self, telemetry: Arc<EngineTelemetry>) {
        *self
            .engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(telemetry);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StreamSnapshot {
        let stages = self
            .engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
            .map(|t| t.snapshot())
            .unwrap_or_default();
        StreamSnapshot {
            name: self.name.clone(),
            channel: self.channel,
            active: self.is_active(),
            counters: StreamCounters(std::array::from_fn(|i| {
                self.counters[i].load(Ordering::Relaxed)
            })),
            samples_per_sec: f64::from_bits(self.samples_per_sec.load(Ordering::Relaxed)),
            real_time_factor: f64::from_bits(self.real_time_factor.load(Ordering::Relaxed)),
            frame_latency: self.frame_latency.snapshot(),
            stages,
        }
    }
}

/// A point-in-time copy of one stream's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamSnapshot {
    /// Registry-uniquified stream name.
    pub name: String,
    /// RF channel the stream's engine shard serves.
    pub channel: usize,
    /// Whether the connection is still being served.
    pub active: bool,
    /// Every [`STREAM_COUNTERS`] counter.
    pub counters: StreamCounters,
    /// Measured processing throughput, samples per second.
    pub samples_per_sec: f64,
    /// Throughput over the stream's sample rate (≥ 1 = keeping up).
    pub real_time_factor: f64,
    /// Ingest→NDJSON-emit latency histogram, nanoseconds.
    pub frame_latency: HistogramSnapshot,
    /// Per-stage engine latency histograms (ring, detect, queue, decode);
    /// all-zero until the serving thread attaches its engine.
    pub stages: PipelineTelemetry,
}

/// One daemon-wide fault or admission counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthCounter {
    /// Connections refused by the `--max-conns` admission cap.
    ConnsRejected,
    /// Connections cut because the header did not arrive in time.
    HeaderTimeouts,
    /// Streams ended because ingest went idle past the deadline.
    IdleTimeouts,
    /// Serving threads that panicked (caught; the daemon kept running).
    ServePanics,
    /// Engine worker/detector panics supervised into clean stream errors.
    WorkerPanics,
}

/// Every health counter with its metric stem
/// (`netscatterd_<stem>_total`), in metrics-document order.
pub const HEALTH_COUNTERS: &[(HealthCounter, &str)] = &[
    (HealthCounter::ConnsRejected, "conns_rejected"),
    (HealthCounter::HeaderTimeouts, "header_timeouts"),
    (HealthCounter::IdleTimeouts, "idle_timeouts"),
    (HealthCounter::ServePanics, "serve_panics"),
    (HealthCounter::WorkerPanics, "worker_panics"),
];

/// Daemon-wide fault and admission counters, shared between the accept
/// loop, the serving threads and the metrics endpoint. All monotonic —
/// they never reset while the daemon lives.
#[derive(Debug, Default)]
pub struct DaemonHealth([AtomicU64; HEALTH_COUNTERS.len()]);

impl DaemonHealth {
    /// A zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps `counter` by one.
    pub fn bump(&self, counter: HealthCounter) {
        self.0[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: HealthCounter) -> u64 {
        self.0[counter as usize].load(Ordering::Relaxed)
    }
}

/// Counters and latency histograms folded out of retired streams. The
/// metrics endpoint adds these back into every `*_total` line, so a
/// scraper can never see a monotone metric regress because a finished
/// stream aged out of the per-stream table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetiredTotals {
    /// Streams retired from the table.
    pub streams: u64,
    /// Every counter, summed over the retired streams.
    pub counters: StreamCounters,
    /// Merged ingest→emit latency of every retired stream's frames.
    pub frame_latency: HistogramSnapshot,
    /// Per-channel fold of retired streams, keyed by RF channel.
    pub channels: BTreeMap<usize, ChannelRetired>,
}

/// One RF channel's share of [`RetiredTotals`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelRetired {
    /// Streams retired on this channel.
    pub streams: u64,
    /// Samples those streams ingested.
    pub samples_in: u64,
    /// Merged ingest→emit frame latency.
    pub frame_latency: HistogramSnapshot,
    /// Merged per-stage engine latency histograms.
    pub stages: PipelineTelemetry,
}

impl RetiredTotals {
    fn fold(&mut self, snap: &StreamSnapshot) {
        self.streams += 1;
        self.counters += snap.counters;
        self.frame_latency.merge(&snap.frame_latency);
        let ch = self.channels.entry(snap.channel).or_default();
        ch.streams += 1;
        ch.samples_in += snap.counters[Counter::SamplesIn];
        ch.frame_latency.merge(&snap.frame_latency);
        ch.stages.merge(&snap.stages);
    }
}

/// The daemon-wide stream table, bounded by a finished-stream retention
/// cap (see [`DEFAULT_METRICS_RETENTION`]).
#[derive(Debug)]
pub struct StreamRegistry {
    streams: Mutex<Vec<Arc<StreamStats>>>,
    /// Finished streams kept before the oldest is retired; 0 = unbounded.
    retention: usize,
    /// Every name ever issued plus a per-base-name counter, so a retired
    /// stream's name is never recycled for a new connection (metrics
    /// labels stay unambiguous across the daemon's whole life). Names are
    /// tiny compared to stats blocks, so this set growing with connection
    /// churn is the cost of unambiguity, not a leak.
    names: Mutex<(HashMap<String, usize>, HashSet<String>)>,
    retired: Mutex<RetiredTotals>,
}

impl Default for StreamRegistry {
    fn default() -> Self {
        Self::with_retention(DEFAULT_METRICS_RETENTION)
    }
}

impl StreamRegistry {
    /// An empty registry with the default retention cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry keeping at most `retention` finished streams
    /// individually visible (0 = never retire).
    pub fn with_retention(retention: usize) -> Self {
        Self {
            streams: Mutex::new(Vec::new()),
            retention,
            names: Mutex::new((HashMap::new(), HashSet::new())),
            retired: Mutex::new(RetiredTotals::default()),
        }
    }

    /// Registers a stream under `name` on `channel`, uniquifying name
    /// collisions as `name#2`, `name#3`, … so metrics lines stay
    /// unambiguous — including against names whose streams have already
    /// been retired. The channel tag groups the stream into the
    /// per-channel metric rollups. Registering also retires finished
    /// streams beyond the retention cap, oldest first.
    pub fn register_on(&self, name: &str, channel: usize) -> Arc<StreamStats> {
        let unique = {
            let mut names = self.names.lock().expect("registry names lock");
            let (counters, issued) = &mut *names;
            let n = counters.entry(name.to_string()).or_insert(0);
            loop {
                *n += 1;
                let candidate = if *n == 1 {
                    name.to_string()
                } else {
                    format!("{name}#{n}")
                };
                if issued.insert(candidate.clone()) {
                    break candidate;
                }
            }
        };
        let stats = Arc::new(StreamStats::new(unique, channel));
        let mut streams = self.streams.lock().expect("registry lock");
        streams.push(stats.clone());
        self.retire_excess(&mut streams);
        stats
    }

    /// Folds finished streams beyond the retention cap into
    /// [`RetiredTotals`], oldest first. Called with the stream-list lock
    /// held.
    fn retire_excess(&self, streams: &mut Vec<Arc<StreamStats>>) {
        if self.retention == 0 {
            return;
        }
        let mut finished = streams.iter().filter(|s| !s.is_active()).count();
        let mut retired = self.retired.lock().expect("registry retired lock");
        let mut i = 0;
        while finished > self.retention && i < streams.len() {
            if streams[i].is_active() {
                i += 1;
            } else {
                let gone = streams.remove(i);
                retired.fold(&gone.snapshot());
                finished -= 1;
            }
        }
    }

    /// Snapshots every stream still in the table, in registration order.
    pub fn snapshot(&self) -> Vec<StreamSnapshot> {
        self.streams
            .lock()
            .expect("registry lock")
            .iter()
            .map(|s| s.snapshot())
            .collect()
    }

    /// The persistent fold of every retired stream.
    pub fn retired(&self) -> RetiredTotals {
        self.retired.lock().expect("registry retired lock").clone()
    }

    /// Streams whose connections are currently being served.
    pub fn active_streams(&self) -> usize {
        self.streams
            .lock()
            .expect("registry lock")
            .iter()
            .filter(|s| s.is_active())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_names_are_uniquified() {
        let reg = StreamRegistry::new();
        let a = reg.register_on("cap", 0);
        let b = reg.register_on("cap", 0);
        let c = reg.register_on("cap", 0);
        assert_eq!(a.name(), "cap");
        assert_eq!(b.name(), "cap#2");
        assert_eq!(c.name(), "cap#3");
        assert_eq!(reg.active_streams(), 3);
        b.set_inactive();
        assert_eq!(reg.active_streams(), 2);
    }

    #[test]
    fn channel_tags_survive_into_snapshots() {
        let reg = StreamRegistry::new();
        assert_eq!(reg.register_on("plain", 0).channel(), 0);
        let tagged = reg.register_on("tagged", 3);
        assert_eq!(tagged.channel(), 3);
        let snaps = reg.snapshot();
        assert_eq!(snaps[0].channel, 0);
        assert_eq!(snaps[1].channel, 3);
    }

    #[test]
    fn snapshots_reflect_recorded_counters() {
        let reg = StreamRegistry::new();
        let s = reg.register_on("x", 0);
        s.record_ingest(1000, 3);
        s.record_frame(2);
        s.record_frame(0);
        s.record_link_frame(true);
        s.record_link_frame(true);
        s.record_link_frame(false);
        s.record_end(1, 5);
        s.record_rates(2e6, 4.0);
        s.set_inactive();
        let snap = &reg.snapshot()[0];
        for &(counter, end_key, _) in STREAM_COUNTERS {
            let want = match counter {
                Counter::Frames => 2,
                Counter::Rounds => 1,
                Counter::FalseAlarms => 1,
                Counter::FramesOk => 2,
                Counter::FramesFailedCrc => 1,
                Counter::SamplesIn => 1000,
                Counter::Truncated => 1,
                Counter::TrailingBytes => 5,
                Counter::RingDropped => 3,
            };
            assert_eq!(snap.counters[counter], want, "{end_key}");
        }
        assert_eq!(
            *snap,
            StreamSnapshot {
                name: "x".to_string(),
                channel: 0,
                active: false,
                counters: snap.counters,
                samples_per_sec: 2e6,
                real_time_factor: 4.0,
                ..StreamSnapshot::default()
            }
        );
    }

    #[test]
    fn frame_latency_lands_in_the_snapshot() {
        let reg = StreamRegistry::new();
        let s = reg.register_on("lat", 0);
        s.record_frame_latency(Duration::from_micros(10));
        s.record_frame_latency(Duration::from_micros(20));
        let snap = &reg.snapshot()[0];
        assert_eq!(snap.frame_latency.count(), 2);
        assert_eq!(snap.frame_latency.sum, 30_000);
        // No engine attached: stage histograms stay all-zero.
        assert_eq!(snap.stages, PipelineTelemetry::default());
    }

    #[test]
    fn finished_streams_beyond_retention_fold_into_totals() {
        let reg = StreamRegistry::with_retention(2);
        for i in 0..5 {
            let s = reg.register_on("conn", i % 2);
            s.record_ingest(100, 1);
            s.record_frame(1);
            s.record_frame_latency(Duration::from_micros(5));
            s.set_inactive();
        }
        // The trigger is registration: one more connection retires the
        // oldest finished streams down to the cap.
        let live = reg.register_on("fresh", 0);
        let snaps = reg.snapshot();
        // 5 finished - retired = 2 kept, plus the live one.
        assert_eq!(snaps.len(), 3);
        assert_eq!(reg.active_streams(), 1);
        // Totals never regress: retired counters persist in the fold.
        let retired = reg.retired();
        assert_eq!(retired.streams, 3);
        assert_eq!(retired.counters[Counter::SamplesIn], 300);
        assert_eq!(retired.counters[Counter::Rounds], 3);
        assert_eq!(retired.counters[Counter::RingDropped], 3);
        assert_eq!(retired.frame_latency.count(), 3);
        // Per-channel fold follows the streams' channel tags (0, 1, 0).
        assert_eq!(retired.channels[&0].streams, 2);
        assert_eq!(retired.channels[&1].streams, 1);
        // Oldest-first: the survivors are the two most recent finished.
        assert_eq!(snaps[0].name, "conn#4");
        assert_eq!(snaps[1].name, "conn#5");
        live.set_inactive();
    }

    #[test]
    fn retired_names_are_never_recycled() {
        let reg = StreamRegistry::with_retention(1);
        for _ in 0..4 {
            reg.register_on("cap", 0).set_inactive();
        }
        // "cap", "cap#2" and "cap#3" are retired by now; a new connection
        // must not be handed any of those labels back.
        let next = reg.register_on("cap", 0);
        assert_eq!(next.name(), "cap#5");
    }

    #[test]
    fn zero_retention_never_retires() {
        let reg = StreamRegistry::with_retention(0);
        for _ in 0..10 {
            reg.register_on("s", 0).set_inactive();
        }
        reg.register_on("s", 0);
        assert_eq!(reg.snapshot().len(), 11);
        assert_eq!(reg.retired().streams, 0);
    }
}
