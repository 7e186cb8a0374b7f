//! The serving daemon: ingest accept loop, per-stream serving threads, and
//! the metrics endpoint.
//!
//! [`Daemon::start`] binds the ingest listener (and optionally the metrics
//! listener), then returns a handle; all serving happens on background
//! threads. Each accepted ingest connection gets its own thread running
//! one [`StreamEngine`] with the drop-oldest overflow policy — the socket
//! reader is never blocked by a slow decode; overload displaces the oldest
//! queued chunk and counts it into the stream's `ring_dropped` metric.
//!
//! # Failure model
//!
//! The daemon assumes every client misbehaves eventually and bounds the
//! damage each one can do (full vocabulary in DESIGN.md "Failure model"):
//!
//! * **Admission** — `--max-conns` (64 by default) caps concurrent
//!   serving threads; a connection over the cap gets an immediate `error`
//!   record with `code:"overloaded"` and is closed, never queued.
//! * **Header deadline** — a connect-and-say-nothing client is cut after
//!   [`DaemonConfig::header_deadline`] with `code:"header_timeout"`; a
//!   header over 64 KiB gets `code:"header_too_large"`; a connection that
//!   closes mid-header gets `code:"header_truncated"`.
//! * **Idle deadline** — a stream whose ingest stalls past
//!   [`DaemonConfig::idle_deadline`] is drained and ended with an `end`
//!   record carrying `code:"idle_timeout"` — everything received up to the
//!   stall is decoded and reported, nothing hangs.
//! * **Panic isolation** — each serving thread runs under `catch_unwind`;
//!   a panic ends that connection with `code:"internal_panic"` and bumps a
//!   counter, and the accept loop keeps accepting. Engine-thread panics
//!   are supervised by the engine itself and surface as
//!   `code:"worker_panic"` error records with the partial decode
//!   published first.
//!
//! Shutdown is graceful and complete: [`Daemon::shutdown`] (or
//! dropping the handle) stops the accept loops, every serving thread
//! notices within its read-timeout tick, shuts its engine down (joining
//! the detection thread and decode workers — no detached threads), writes
//! its `end` record with `code:"shutdown"`, and exits; the daemon's own
//! threads are then joined.

use crate::metrics;
use crate::protocol::{self, code, Cf32Decoder, FrameEmitter, StreamHeader, SAMPLE_BYTES};
use crate::registry::{
    Counter, DaemonHealth, HealthCounter, StreamRegistry, StreamStats, DEFAULT_METRICS_RETENTION,
};
use netscatter::json::Json;
use netscatter_coding::frame::FrameCodec;
use netscatter_gateway::{DecodedPacket, EngineError, GatewayConfig, StreamEngine, TimedPacket};
use netscatter_obs::log as olog;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long blocked accepts/reads sleep before re-checking the shutdown
/// flag — the bound on shutdown latency, and the cadence at which a
/// serving thread notices fresh socket bytes after an idle read. Held at
/// 1 ms: the benchmark's `churn64` workload (`serve.connect_ready_ms`)
/// bounds the per-connection serving overhead, and a coarser tick (the
/// original 20 ms) dominates short streams' end-to-end latency.
const POLL_TICK: Duration = Duration::from_millis(1);

/// Most bytes the end-of-stream drain will consume before giving up and
/// letting the close reset a client that never stops writing (~4 s of
/// 500 ksps ingest).
const DRAIN_CAP_BYTES: usize = 1 << 24;

/// Daemon construction parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Ingest listen address (`host:port`; port 0 picks one).
    pub listen: String,
    /// Metrics listen address; `None` disables the endpoint.
    pub metrics: Option<String>,
    /// Default gateway parameters; a stream's header may override the
    /// bins, payload size and detection floor
    /// ([`protocol::stream_config`]). The overflow policy is always forced
    /// to drop-oldest for socket ingest.
    pub base: GatewayConfig,
    /// Sample rate assumed for headers that do not declare one.
    pub default_sample_rate_hz: f64,
    /// Admission cap: maximum concurrent serving threads (0 = unlimited).
    /// A connection over the cap is rejected immediately with an `error`
    /// record (`code:"overloaded"`). `netscatterd` defaults it to
    /// [`crate::cli::DEFAULT_MAX_CONNS`]; [`DaemonConfig::new`] leaves it
    /// unlimited for in-process harnesses that size their own fleets.
    pub max_conns: usize,
    /// How long a fresh connection may take to deliver its header line
    /// before being cut with `code:"header_timeout"` (`None` = forever —
    /// not recommended outside tests).
    pub header_deadline: Option<Duration>,
    /// How long a stream's ingest may go silent before the daemon drains
    /// the engine and ends it with `code:"idle_timeout"` (`None` = wait
    /// forever).
    pub idle_deadline: Option<Duration>,
    /// Honor header-carried fault-injection requests (`fault_panic_span`).
    /// Off in production; the chaos harness turns it on to prove the
    /// supervision path end to end.
    pub allow_fault_injection: bool,
    /// Finished streams kept individually visible in metrics before the
    /// oldest is retired into the registry's persistent totals
    /// (`--metrics-retention`; 0 = never retire).
    pub metrics_retention: usize,
}

impl DaemonConfig {
    /// Loopback listeners on ephemeral ports around `base`, production
    /// deadlines (10 s header, 30 s idle), no admission cap, fault
    /// injection off.
    pub fn new(base: GatewayConfig) -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            metrics: Some("127.0.0.1:0".to_string()),
            base,
            default_sample_rate_hz: 500e3,
            max_conns: 0,
            header_deadline: Some(Duration::from_secs(10)),
            idle_deadline: Some(Duration::from_secs(30)),
            allow_fault_injection: false,
            metrics_retention: DEFAULT_METRICS_RETENTION,
        }
    }
}

/// A running netscatterd instance. Dropping the handle shuts it down.
pub struct Daemon {
    ingest_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<StreamRegistry>,
    health: Arc<DaemonHealth>,
    accept: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listeners and starts serving on background threads.
    pub fn start(config: DaemonConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let ingest_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(StreamRegistry::with_retention(config.metrics_retention));
        let health = Arc::new(DaemonHealth::new());
        let started = Instant::now();

        let (metrics_thread, metrics_addr) = match &config.metrics {
            Some(addr) => {
                let ml = TcpListener::bind(addr)?;
                ml.set_nonblocking(true)?;
                let maddr = ml.local_addr()?;
                let reg = registry.clone();
                let hlt = health.clone();
                let stop = shutdown.clone();
                let handle = std::thread::spawn(move || metrics_loop(ml, reg, hlt, stop, started));
                (Some(handle), Some(maddr))
            }
            None => (None, None),
        };

        let reg = registry.clone();
        let hlt = health.clone();
        let stop = shutdown.clone();
        let accept = std::thread::spawn(move || accept_loop(listener, config, reg, hlt, stop));

        Ok(Self {
            ingest_addr,
            metrics_addr,
            shutdown,
            registry,
            health,
            accept: Some(accept),
            metrics_thread: Some(metrics_thread).flatten(),
        })
    }

    /// The bound ingest address (resolves port 0 to the real port).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound metrics address, when the endpoint is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The live stream table (shared with the serving threads).
    pub fn registry(&self) -> Arc<StreamRegistry> {
        self.registry.clone()
    }

    /// The daemon-wide fault/admission counters.
    pub fn health(&self) -> Arc<DaemonHealth> {
        self.health.clone()
    }

    /// Requests shutdown and joins every daemon thread. In-flight streams
    /// finish their engine shutdown and write `code:"shutdown"` end
    /// records first.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Joins finished serving threads and drops their handles, returning the
/// still-running remainder.
fn reap_finished(conns: Vec<JoinHandle<()>>) -> Vec<JoinHandle<()>> {
    conns
        .into_iter()
        .filter_map(|h| {
            if h.is_finished() {
                let _ = h.join();
                None
            } else {
                Some(h)
            }
        })
        .collect()
}

/// Writes the `code:"overloaded"` rejection and closes the connection.
/// Bounded: the write gets a short timeout so a client that never reads
/// cannot stall the accept loop.
fn reject_connection(mut sock: TcpStream, max_conns: usize) {
    let _ = sock.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_record(
        &mut sock,
        &protocol::error_json(
            "",
            code::OVERLOADED,
            &format!("daemon is at its --max-conns={max_conns} capacity; retry later"),
        ),
    );
}

/// Accepts ingest connections until shutdown, then joins every serving
/// thread it spawned. Finished threads are reaped on every loop iteration
/// — including idle poll ticks — so a quiet daemon holds no dead handles.
fn accept_loop(
    listener: TcpListener,
    config: DaemonConfig,
    registry: Arc<StreamRegistry>,
    health: Arc<DaemonHealth>,
    shutdown: Arc<AtomicBool>,
) {
    let config = Arc::new(config);
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        conns = reap_finished(conns);
        match listener.accept() {
            Ok((sock, _)) => {
                if config.max_conns > 0 && conns.len() >= config.max_conns {
                    health.bump(HealthCounter::ConnsRejected);
                    olog::warn(
                        "netscatterd::serve",
                        "connection rejected at --max-conns capacity",
                        &[("max_conns", config.max_conns.into())],
                    );
                    reject_connection(sock, config.max_conns);
                    continue;
                }
                let config = config.clone();
                let reg = registry.clone();
                let hlt = health.clone();
                let stop = shutdown.clone();
                conns.push(std::thread::spawn(move || {
                    serve_isolated(sock, &config, &reg, &hlt, &stop);
                }));
            }
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// One serving thread's root: runs [`serve_connection`] under
/// `catch_unwind` so no connection — however hostile its input — can take
/// down the accept loop or leak an "active" registry entry. A caught panic
/// bumps `serve_panics`, marks the stream inactive, and makes a
/// best-effort attempt to tell the client why its connection died.
fn serve_isolated(
    sock: TcpStream,
    config: &DaemonConfig,
    registry: &StreamRegistry,
    health: &DaemonHealth,
    shutdown: &AtomicBool,
) {
    // A duplicate handle for the post-panic error record: the original
    // socket is consumed by serve_connection.
    let rescue = sock.try_clone().ok();
    // Where serve_connection parks its registry entry, so the supervisor
    // can mark it inactive if the serving thread dies mid-stream.
    let slot: Mutex<Option<Arc<StreamStats>>> = Mutex::new(None);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Connection-level I/O errors end that stream only.
        let _ = serve_connection(sock, config, registry, health, shutdown, &slot);
    }));
    if result.is_err() {
        health.bump(HealthCounter::ServePanics);
        olog::error(
            "netscatterd::serve",
            "serving thread panicked; connection closed, daemon continues",
            &[],
        );
        let name = slot
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .map(|stats| {
                stats.set_inactive();
                stats.name().to_string()
            })
            .unwrap_or_default();
        if let Some(mut sock) = rescue {
            let _ = sock.set_write_timeout(Some(Duration::from_millis(250)));
            let _ = write_record(
                &mut sock,
                &protocol::error_json(
                    &name,
                    code::INTERNAL_PANIC,
                    "serving thread panicked; the connection is closed (the daemon keeps running)",
                ),
            );
        }
    }
}

/// Serves metrics documents until shutdown: one rendered snapshot per
/// connection, then close.
fn metrics_loop(
    listener: TcpListener,
    registry: Arc<StreamRegistry>,
    health: Arc<DaemonHealth>,
    shutdown: Arc<AtomicBool>,
    started: Instant,
) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut sock, _)) => {
                let doc = metrics::render(&registry, &health, started.elapsed().as_secs_f64());
                let _ = sock.write_all(doc.as_bytes());
            }
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Whether a read error means "nothing available yet" on a socket with a
/// read timeout.
fn is_retriable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// Writes one NDJSON record line.
fn write_record(sock: &mut TcpStream, record: &Json) -> std::io::Result<()> {
    let mut line = record.to_string_line();
    line.push('\n');
    sock.write_all(line.as_bytes())
}

/// How an attempt to read the header line ended.
enum HeaderRead {
    /// A complete header line (without the newline).
    Line(String),
    /// The connection closed first; `partial` says whether any header
    /// bytes had arrived (a truncated header vs. a silent probe).
    Eof { partial: bool },
    /// The daemon is shutting down.
    Shutdown,
    /// The header deadline expired before the newline arrived.
    TimedOut,
    /// The line exceeded the 64 KiB header bound.
    TooLong,
    /// A non-retriable transport error.
    Io(std::io::Error),
}

/// Reads the header line, polling the shutdown flag on every timeout and
/// enforcing `deadline` — a connect-and-say-nothing client is cut with
/// [`HeaderRead::TimedOut`] instead of pinning this thread forever.
fn read_header_line(
    reader: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
    deadline: Option<Instant>,
) -> HeaderRead {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if shutdown.load(Ordering::Acquire) {
            return HeaderRead::Shutdown;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return HeaderRead::TimedOut;
        }
        match reader.read(&mut byte) {
            Ok(0) => {
                return HeaderRead::Eof {
                    partial: !line.is_empty(),
                }
            }
            Ok(_) if byte[0] == b'\n' => {
                return HeaderRead::Line(String::from_utf8_lossy(&line).into_owned())
            }
            Ok(_) => {
                line.push(byte[0]);
                if line.len() > 1 << 16 {
                    return HeaderRead::TooLong;
                }
            }
            Err(e) if is_retriable(&e) => continue,
            Err(e) => return HeaderRead::Io(e),
        }
    }
}

/// One ingest connection end to end: header, engine, sample loop, report.
/// `slot` receives the registry entry as soon as the stream is registered,
/// so the panic supervisor can mark it inactive if this thread dies.
fn serve_connection(
    mut sock: TcpStream,
    config: &DaemonConfig,
    registry: &StreamRegistry,
    health: &DaemonHealth,
    shutdown: &AtomicBool,
    slot: &Mutex<Option<Arc<StreamStats>>>,
) -> std::io::Result<()> {
    sock.set_read_timeout(Some(POLL_TICK))?;
    let _ = sock.set_nodelay(true);
    let mut reader = BufReader::with_capacity(1 << 16, sock.try_clone()?);
    let header_deadline = config.header_deadline.map(|d| Instant::now() + d);
    // A refused connection gets one `error` record, named once its header
    // has parsed.
    let header = match read_header_line(&mut reader, shutdown, header_deadline) {
        HeaderRead::Line(line) => StreamHeader::parse(&line).map_err(|msg| (code::BAD_HEADER, msg)),
        HeaderRead::Shutdown | HeaderRead::Eof { partial: false } => return Ok(()),
        HeaderRead::Eof { partial: true } => Err((
            code::HEADER_TRUNCATED,
            "connection closed before the header line completed".into(),
        )),
        HeaderRead::TimedOut => {
            health.bump(HealthCounter::HeaderTimeouts);
            olog::warn(
                "netscatterd::serve",
                "no header line within the deadline; closing connection",
                &[],
            );
            Err((
                code::HEADER_TIMEOUT,
                "no header line within the header deadline".into(),
            ))
        }
        HeaderRead::TooLong => Err((
            code::HEADER_TOO_LARGE,
            "ingest header line exceeds 64 KiB".into(),
        )),
        HeaderRead::Io(e) => return Err(e),
    };
    let header = match header {
        Ok(header) => header,
        Err((error_code, msg)) => {
            return write_record(&mut sock, &protocol::error_json("", error_code, &msg))
        }
    };
    let merged = if header.fault_panic_span.is_some() && !config.allow_fault_injection {
        Err((
            code::FAULT_INJECTION_DISABLED,
            "fault_panic_span requires a daemon started with --enable-fault-injection".into(),
        ))
    } else {
        // Refused geometry (no bins, a bin past 2^SF, a coding that cannot
        // fill the payload, …) is caught before any engine is spawned.
        protocol::stream_config(&header, &config.base)
    };
    let (cfg, codec) = match merged {
        Ok(merged) => merged,
        Err((error_code, msg)) => {
            return write_record(
                &mut sock,
                &protocol::error_json(&header.name, error_code, &msg),
            )
        }
    };
    let rate = header
        .sample_rate_hz
        .unwrap_or(config.default_sample_rate_hz);
    let stats = registry.register_on(&header.name, header.channel.unwrap_or(0));
    *slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(stats.clone());
    let result = serve_stream(
        &mut sock,
        &mut reader,
        &cfg,
        rate,
        &stats,
        codec,
        shutdown,
        config.idle_deadline,
        health,
    );
    stats.set_inactive();
    result
}

/// Publishes decoded packets as `frame` records and counts them, through
/// the stream's [`FrameEmitter`]: on a coded stream every device's bits
/// are frame-decoded, so each record carries the per-device CRC verdict
/// and the link-layer counters advance. Each record leaves in one
/// `write_all`. Each packet rides with its ingest timestamp when the
/// engine still had it (`drain_timed`); the publish write closes that
/// frame's ingest→emit latency measurement. Packets surfacing only in the
/// final shutdown report arrive untimed and skip the histogram.
fn publish(
    sock: &mut TcpStream,
    packets: impl IntoIterator<Item = (DecodedPacket, Option<Instant>)>,
    stats: &StreamStats,
    emitter: &mut FrameEmitter,
) -> std::io::Result<()> {
    for (packet, ingested_at) in packets {
        stats.record_frame(packet.round.devices.len());
        let (line, outcomes) = emitter.emit(&packet);
        for out in outcomes {
            stats.record_link_frame(out.crc_ok);
        }
        sock.write_all(line.as_bytes())?;
        if let Some(t0) = ingested_at {
            stats.record_frame_latency(t0.elapsed());
        }
    }
    Ok(())
}

/// Pairs drained packets with their ingest timestamps for [`publish`].
fn timed(packets: Vec<TimedPacket>) -> impl Iterator<Item = (DecodedPacket, Option<Instant>)> {
    packets.into_iter().map(|t| (t.packet, Some(t.ingested_at)))
}

/// Pairs report packets (whose timing the engine has already stripped)
/// with no timestamp for [`publish`].
fn untimed(packets: Vec<DecodedPacket>) -> impl Iterator<Item = (DecodedPacket, Option<Instant>)> {
    packets.into_iter().map(|p| (p, None))
}

/// How one turn of the sample loop's socket read ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadEnd {
    /// The read filled the buffer, so more bytes may be waiting behind it.
    Full,
    /// The read returned fewer bytes than the buffer holds: the socket had
    /// nothing more to give.
    Short,
    /// The read timed out empty (one [`POLL_TICK`]).
    IdleTick,
}

/// How many of the `pending` samples the sample loop hands the engine
/// after a read: every whole `chunk`, plus the sub-chunk tail when the
/// socket has nothing more to give and the detector has taken every chunk
/// fed so far. A busy detector is never handed a partial chunk, so at most
/// one partial chunk is ever queued: the ring's drop-oldest cushion stays
/// `ring_slots × chunk` samples, and a client writing byte by byte cannot
/// flood it.
fn feed_len(pending: usize, chunk: usize, read: ReadEnd, detector_idle: bool) -> usize {
    if read != ReadEnd::Full && detector_idle {
        pending
    } else {
        pending - pending % chunk
    }
}

/// The sample loop: socket bytes → cf32 decode → engine feed → frame
/// publish, then the engine shutdown and the terminal `end`/`error`
/// record. Every exit path writes exactly one terminal record (unless the
/// transport itself is gone).
#[allow(clippy::too_many_arguments)]
fn serve_stream(
    sock: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    cfg: &GatewayConfig,
    rate: f64,
    stats: &StreamStats,
    codec: Option<FrameCodec>,
    shutdown: &AtomicBool,
    idle_deadline: Option<Duration>,
    health: &DaemonHealth,
) -> std::io::Result<()> {
    let name = stats.name().to_string();
    let span = olog::next_span_id();
    let mut engine = match StreamEngine::spawn(cfg, rate) {
        Ok(engine) => engine,
        Err(e) => {
            olog::error(
                "netscatterd::serve",
                "engine spawn failed",
                &[
                    ("span", span.into()),
                    ("stream", name.as_str().into()),
                    ("error", e.to_string().as_str().into()),
                ],
            );
            write_record(
                sock,
                &protocol::error_json(&name, code::ENGINE_SPAWN, &e.to_string()),
            )?;
            return Ok(());
        }
    };
    stats.attach_engine(engine.telemetry());
    olog::info(
        "netscatterd::serve",
        "stream started",
        &[
            ("span", span.into()),
            ("stream", name.as_str().into()),
            ("channel", stats.channel().into()),
            ("workers", cfg.workers.into()),
        ],
    );
    write_record(sock, &protocol::ready_json(&name))?;

    let started = Instant::now();
    let chunk = cfg.chunk_samples.max(1);
    let mut decoder = Cf32Decoder::new();
    let mut buf = vec![0u8; chunk * SAMPLE_BYTES];
    // Coalescing buffer: socket reads can be arbitrarily small (a hostile
    // client may write byte by byte), but a ring slot costs the same
    // whatever it holds — feeding per-read would let tiny segments flood
    // the ring and trip drop-oldest. Samples accumulate here. While the
    // detector is behind they are fed in full chunks; once it has taken
    // everything and the socket has nothing more to give, the sub-chunk
    // tail goes too (`feed_len`), so a round's last samples wait for the
    // sender's next write, not for a chunk to fill. Whatever is left is
    // flushed at end of stream.
    let mut pending: Vec<netscatter_dsp::Complex64> = Vec::with_capacity(2 * chunk);
    let mut emitter = FrameEmitter::new(&name, codec);
    let mut end_code = code::SHUTDOWN;
    let mut last_data = Instant::now();
    loop {
        if shutdown.load(Ordering::Acquire) {
            break; // end_code stays code::SHUTDOWN
        }
        let read = match reader.read(&mut buf) {
            Ok(0) => {
                end_code = code::EOF;
                break;
            }
            Ok(n) => {
                last_data = Instant::now();
                decoder.push(&buf[..n], &mut pending);
                if n < buf.len() {
                    ReadEnd::Short
                } else {
                    ReadEnd::Full
                }
            }
            Err(e) if is_retriable(&e) => {
                // Idle-ingest deadline: a stalled (but open) connection is
                // drained and ended rather than parked forever.
                if idle_deadline.is_some_and(|d| last_data.elapsed() >= d) {
                    health.bump(HealthCounter::IdleTimeouts);
                    olog::warn(
                        "netscatterd::serve",
                        "ingest idle past deadline; draining stream",
                        &[("span", span.into()), ("stream", name.as_str().into())],
                    );
                    end_code = code::IDLE_TIMEOUT;
                    break;
                }
                ReadEnd::IdleTick
            }
            // Peer reset mid-stream: report what was decoded so far (the
            // record write is best-effort — the peer may be gone).
            Err(_) => {
                end_code = code::PEER_RESET;
                break;
            }
        };
        if !pending.is_empty() {
            let ready = feed_len(pending.len(), chunk, read, engine.detector_idle());
            let mut fed = 0;
            let mut closed = false;
            for piece in pending[..ready].chunks(chunk) {
                if engine.feed(piece).is_err() {
                    // The engine died under us (a supervised panic tore it
                    // down); shutdown() below reports why.
                    closed = true;
                    break;
                }
                fed += piece.len();
            }
            pending.drain(..fed);
            if closed {
                end_code = code::SHUTDOWN;
                break;
            }
        }
        stats.record_ingest(engine.samples_fed(), engine.ring_dropped());
        let sps = engine.samples_processed() as f64 / started.elapsed().as_secs_f64().max(1e-9);
        stats.record_rates(sps, sps / rate);
        publish(sock, timed(engine.drain_timed()), stats, &mut emitter)?;
    }

    // Drain whatever the client had already sent when the loop broke (a
    // daemon shutdown can land mid-burst). This keeps the promise that
    // everything received is decoded — and it matters at the transport
    // level too: closing a socket with unread bytes in its receive queue
    // resets the connection, which can destroy the terminal record before
    // the client reads it. Bounded: the drain stops at the first empty
    // read tick, EOF, or the byte cap, so a client that never stops
    // writing cannot stall teardown.
    let mut drained = 0usize;
    while drained < DRAIN_CAP_BYTES {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                drained += n;
                decoder.push(&buf[..n], &mut pending);
            }
        }
    }

    // Flush the sub-chunk tail so everything received is decoded, however
    // the stream ended (a dead engine rejects the feed; shutdown() below
    // explains why).
    let _ = engine.feed(&pending);
    let samples_fed = engine.samples_fed();
    // The final in-flight packets are still timed at this point; the
    // shutdown report strips timestamps, so drain once more first.
    publish(sock, timed(engine.drain_timed()), stats, &mut emitter)?;
    match engine.shutdown() {
        Ok(mut report) => {
            publish(
                sock,
                untimed(std::mem::take(&mut report.packets)),
                stats,
                &mut emitter,
            )?;
            stats.record_ingest(samples_fed, report.ring_dropped);
            stats.record_end(report.truncated as u64, decoder.pending_bytes() as u64);
            stats.record_rates(report.samples_per_sec, report.real_time_factor);
            let end = stats.snapshot();
            olog::info(
                "netscatterd::serve",
                "stream ended",
                &[
                    ("span", span.into()),
                    ("stream", name.as_str().into()),
                    ("code", end_code.into()),
                    ("frames", end.counters[Counter::Frames].into()),
                    ("rounds", end.counters[Counter::Rounds].into()),
                    ("ring_dropped", report.ring_dropped.into()),
                ],
            );
            write_record(sock, &protocol::end_json(&end, end_code))?;
        }
        Err(EngineError::WorkerPanic(panic)) => {
            // Supervised engine panic: publish everything decoded before
            // the failure, then the typed error record. The daemon and its
            // other streams keep running.
            health.bump(HealthCounter::WorkerPanics);
            let mut report = panic.report;
            olog::error(
                "netscatterd::serve",
                "engine worker panicked",
                &[
                    ("span", span.into()),
                    ("stream", name.as_str().into()),
                    ("role", panic.role.to_string().as_str().into()),
                    ("message", panic.message.as_str().into()),
                ],
            );
            publish(
                sock,
                untimed(std::mem::take(&mut report.packets)),
                stats,
                &mut emitter,
            )?;
            stats.record_ingest(samples_fed, report.ring_dropped);
            write_record(
                sock,
                &protocol::error_json(
                    &name,
                    code::WORKER_PANIC,
                    &format!("{} thread panicked: {}", panic.role, panic.message),
                ),
            )?;
        }
        Err(e @ (EngineError::Fft(_) | EngineError::Config(_))) => {
            write_record(
                sock,
                &protocol::error_json(&name, code::DECODE_ERROR, &e.to_string()),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_len_hands_over_the_tail_only_to_an_idle_detector_on_a_drained_socket() {
        const CHUNK: usize = 4096;
        use ReadEnd::{Full, IdleTick, Short};
        // (read, detector idle, pending, samples fed)
        for (read, idle, pending, fed) in [
            // Below one chunk: only a drained socket and an idle detector
            // release the tail.
            (Short, true, 2048, 2048),
            (IdleTick, true, 100, 100),
            (Full, true, 2048, 0),
            (Short, false, 2048, 0),
            (IdleTick, false, 100, 0),
            (Full, false, 2048, 0),
            // Exactly one chunk: fed whatever the state.
            (Short, true, CHUNK, CHUNK),
            (IdleTick, true, CHUNK, CHUNK),
            (Full, true, CHUNK, CHUNK),
            (Short, false, CHUNK, CHUNK),
            (IdleTick, false, CHUNK, CHUNK),
            (Full, false, CHUNK, CHUNK),
            // Above: every whole chunk, and the tail on the same terms.
            (Short, true, 2 * CHUNK + 7, 2 * CHUNK + 7),
            (IdleTick, true, CHUNK + 1, CHUNK + 1),
            (Full, true, 2 * CHUNK + 7, 2 * CHUNK),
            (Short, false, 2 * CHUNK + 7, 2 * CHUNK),
            (IdleTick, false, CHUNK + 1, CHUNK),
            (Full, false, 2 * CHUNK + 7, 2 * CHUNK),
            // Nothing pending, nothing fed.
            (Short, true, 0, 0),
            (IdleTick, false, 0, 0),
        ] {
            let got = feed_len(pending, CHUNK, read, idle);
            assert_eq!(got, fed, "{read:?}, idle {idle}, {pending} pending");
            assert!(got <= pending);
            if !idle {
                assert_eq!(got % CHUNK, 0, "a busy detector got a partial chunk");
            }
        }
    }
}
