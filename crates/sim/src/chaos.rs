//! The deterministic fault-injection chaos harness: `netscatter stress
//! --chaos`.
//!
//! Runs a mixed fleet against a live `netscatterd`: the usual healthy
//! synthesized streams (scored for bit identity exactly like plain
//! `stress`) plus one misbehaving connection per fault kind
//! (`FaultKind`). The attack schedule is a pure function of `--seed`, so
//! a failing CI run reproduces locally byte for byte.
//!
//! The harness fails unless *all* of the following hold:
//!
//! * the daemon survives the whole matrix (it keeps serving, its metrics
//!   endpoint still answers afterwards, and its panic counters rose by
//!   exactly the one injected decode fault);
//! * every healthy stream — including the ragged-split one, whose writes
//!   are deliberately never sample-aligned — stays bit-identical to the
//!   batch pipeline's decode with zero ring drops;
//! * every faulted connection that can still read its socket receives a
//!   terminal `end`/`error` record with the expected machine-readable
//!   `code` (header faults, stalls, the injected worker panic);
//! * no serving thread leaks: after a grace period every
//!   `netscatterd_stream_active` metric reports 0;
//! * the `--max-conns` admission cap rejects an over-cap connection with
//!   an immediate `code:"overloaded"` record (checked on a side daemon
//!   in-process, or against `--expect-max-conns` for `--connect`).
//!
//! Against `--connect`, the external daemon must run with
//! `--enable-fault-injection` and short `--header-timeout` /
//! `--idle-timeout` values, and should be dedicated to the harness (the
//! leak check expects every stream to be finished afterwards).

use crate::deployment::{Deployment, DeploymentConfig};
use crate::stress::{
    check_metrics, daemon_defaults, metric_value, records_of, score_healthy, synthesize,
    StressOptions, SynthStream, DEPLOYMENT_SEED,
};
use netscatter::json::Json;
use netscatter_daemon::client::{self, connect_with_retry, RetryPolicy};
use netscatter_daemon::protocol::{self, code, StreamHeader};
use netscatter_daemon::registry::{HealthCounter, HEALTH_COUNTERS};
use netscatter_daemon::{Daemon, DaemonConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Watchdog on every socket read: a daemon that never answers (or never
/// times a faulted stream out) fails the harness instead of hanging it.
const READ_WATCHDOG: Duration = Duration::from_secs(30);

/// Grace period for the post-matrix leak check: how long the daemon gets
/// to notice dropped sockets and mark their streams inactive.
const LEAK_GRACE: Duration = Duration::from_secs(10);

/// The fault matrix. One faulted connection per kind runs concurrently
/// with the healthy fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Some header bytes, then the connection closes — the daemon must
    /// answer `header_truncated`.
    TruncatedHeader,
    /// A header line that is not JSON — `bad_header`.
    GarbageHeader,
    /// A header line past the 64 KiB bound, never newline-terminated —
    /// `header_too_large`.
    OversizedHeader,
    /// Slowloris: header bytes trickled slower than the header deadline —
    /// `header_timeout`.
    SlowHeader,
    /// A valid stream that goes silent mid-ingest with the socket open —
    /// an `end` record coded `idle_timeout`.
    MidStreamStall,
    /// A valid stream whose socket is dropped (no half-close) between
    /// rounds — the daemon must reap it without a client to answer.
    MidStreamDisconnect,
    /// A valid stream dropped mid-round *and* mid-sample (the cut is not
    /// 8-byte aligned) — worst-case abrupt death.
    KillMidRound,
    /// A healthy stream written in seed-deterministic ragged pieces that
    /// are never sample-aligned — must stay bit-identical to batch
    /// decode.
    RaggedSplits,
    /// A header-injected decode-worker panic (`fault_panic_span`) — the
    /// engine's supervision must surface `worker_panic` cleanly.
    WorkerPanic,
}

impl FaultKind {
    const ALL: [FaultKind; 9] = [
        FaultKind::TruncatedHeader,
        FaultKind::GarbageHeader,
        FaultKind::OversizedHeader,
        FaultKind::SlowHeader,
        FaultKind::MidStreamStall,
        FaultKind::MidStreamDisconnect,
        FaultKind::KillMidRound,
        FaultKind::RaggedSplits,
        FaultKind::WorkerPanic,
    ];

    fn label(self) -> &'static str {
        match self {
            FaultKind::TruncatedHeader => "truncated-header",
            FaultKind::GarbageHeader => "garbage-header",
            FaultKind::OversizedHeader => "oversized-header",
            FaultKind::SlowHeader => "slow-header",
            FaultKind::MidStreamStall => "mid-stream-stall",
            FaultKind::MidStreamDisconnect => "mid-stream-disconnect",
            FaultKind::KillMidRound => "kill-mid-round",
            FaultKind::RaggedSplits => "ragged-splits",
            FaultKind::WorkerPanic => "worker-panic",
        }
    }
}

/// What one faulted connection produced.
struct FaultOutcome {
    kind: FaultKind,
    /// Expectation violations (empty = the daemon handled the fault as
    /// specified).
    failures: Vec<String>,
    /// Human summary for the report.
    detail: String,
}

/// Opens a chaos connection: retried connect (exercising the client's
/// backoff path), watchdog read timeout, bounded writes.
fn chaos_connect(addr: &str, seed: u64) -> std::io::Result<TcpStream> {
    let sock = connect_with_retry(addr, &RetryPolicy::new(4, seed))?;
    sock.set_read_timeout(Some(READ_WATCHDOG))?;
    sock.set_write_timeout(Some(Duration::from_secs(10)))?;
    let _ = sock.set_nodelay(true);
    Ok(sock)
}

/// Reads NDJSON lines from `sock` until EOF (or the read watchdog trips).
fn drain_lines(sock: &TcpStream) -> Vec<String> {
    let Ok(clone) = sock.try_clone() else {
        return Vec::new();
    };
    let mut lines = Vec::new();
    for line in BufReader::new(clone).lines() {
        match line {
            Ok(l) => lines.push(l),
            Err(_) => break,
        }
    }
    lines
}

/// Requires the last record of `kind` in `lines` to carry `code`; any
/// other shape is an expectation violation.
fn expect_terminal(label: &str, lines: &[String], kind: &str, expected: &str) -> Vec<String> {
    let records = records_of(lines, kind);
    let Some(last) = records.last() else {
        return vec![format!(
            "{label}: expected a terminal {kind:?} record with code {expected:?}, got {} lines: {lines:?}",
            lines.len()
        )];
    };
    let got = Json::parse(last)
        .ok()
        .and_then(|d| d.get("code").and_then(Json::as_str).map(String::from));
    if got.as_deref() == Some(expected) {
        Vec::new()
    } else {
        vec![format!(
            "{label}: terminal {kind:?} record carries code {got:?}, expected {expected:?} ({last})"
        )]
    }
}

/// Header faults: sends `bytes` (optionally half-closing after), then
/// checks the daemon's terminal error record.
fn header_fault(
    addr: &str,
    seed: u64,
    kind: FaultKind,
    bytes: &[u8],
    half_close: bool,
    expected: &str,
) -> FaultOutcome {
    let label = kind.label();
    let mut failures = Vec::new();
    let mut detail = String::new();
    match chaos_connect(addr, seed) {
        Ok(mut sock) => {
            // The daemon may cut us mid-write (oversized headers): a write
            // error past that point is the daemon doing its job.
            let _ = sock.write_all(bytes);
            if half_close {
                let _ = sock.shutdown(Shutdown::Write);
            }
            let lines = drain_lines(&sock);
            failures.extend(expect_terminal(label, &lines, "error", expected));
            detail = format!("{} record(s), expected error {expected}", lines.len());
        }
        Err(e) => failures.push(format!("{label}: connect failed: {e}")),
    }
    FaultOutcome {
        kind,
        failures,
        detail,
    }
}

/// Slowloris: trickles header bytes slower than any sane header deadline
/// until the daemon cuts the connection with `header_timeout`.
fn slow_header(addr: &str, seed: u64, header: &StreamHeader) -> FaultOutcome {
    let kind = FaultKind::SlowHeader;
    let label = kind.label();
    let mut failures = Vec::new();
    let mut detail = String::new();
    match chaos_connect(addr, seed) {
        Ok(mut sock) => {
            let mut line = header.to_json_line();
            line.push('\n');
            // One byte per 100 ms: a 2 s header deadline fires after ~20
            // bytes. Repeat the line if the daemon is (mis)configured with
            // a deadline longer than one pass; the watchdog bounds us.
            let bytes: Vec<u8> = line.as_bytes().iter().copied().cycle().take(600).collect();
            let started = Instant::now();
            for b in &bytes {
                if sock.write_all(std::slice::from_ref(b)).is_err() {
                    break; // the daemon hung up — exactly what we want
                }
                std::thread::sleep(Duration::from_millis(100));
                if started.elapsed() > READ_WATCHDOG {
                    break;
                }
            }
            let lines = drain_lines(&sock);
            failures.extend(expect_terminal(
                label,
                &lines,
                "error",
                code::HEADER_TIMEOUT,
            ));
            detail = format!(
                "cut after {:.1}s of trickling",
                started.elapsed().as_secs_f64()
            );
        }
        Err(e) => failures.push(format!("{label}: connect failed: {e}")),
    }
    FaultOutcome {
        kind,
        failures,
        detail,
    }
}

/// Sends the header plus a prefix of the samples, then goes silent with
/// the socket open: the daemon's idle deadline must end the stream with
/// `idle_timeout` (decoding everything received first).
fn mid_stream_stall(addr: &str, seed: u64, stream: &SynthStream) -> FaultOutcome {
    let kind = FaultKind::MidStreamStall;
    let label = kind.label();
    let mut failures = Vec::new();
    let mut detail = String::new();
    match chaos_connect(addr, seed) {
        Ok(mut sock) => {
            let mut line = stream.header.to_json_line();
            line.push('\n');
            let bytes = protocol::encode_cf32le(&stream.rendered.samples);
            let prefix = &bytes[..bytes.len() / 3 / 8 * 8];
            if let Err(e) = sock.write_all(line.as_bytes()).and(sock.write_all(prefix)) {
                failures.push(format!("{label}: upload failed: {e}"));
            } else {
                // No half-close: from the daemon's side the stream is
                // alive but silent. Wait for it to time us out.
                let lines = drain_lines(&sock);
                failures.extend(expect_terminal(label, &lines, "end", code::IDLE_TIMEOUT));
                detail = format!("{} record(s) after the stall", lines.len());
            }
        }
        Err(e) => failures.push(format!("{label}: connect failed: {e}")),
    }
    FaultOutcome {
        kind,
        failures,
        detail,
    }
}

/// Sends the header plus `cut` bytes of samples, then drops the socket
/// outright — no half-close, no reads. The daemon must reap the stream on
/// its own; the post-matrix leak check verifies it did.
fn abrupt_disconnect(
    addr: &str,
    seed: u64,
    kind: FaultKind,
    stream: &SynthStream,
    cut: usize,
) -> FaultOutcome {
    let label = kind.label();
    let mut failures = Vec::new();
    match chaos_connect(addr, seed) {
        Ok(mut sock) => {
            let mut line = stream.header.to_json_line();
            line.push('\n');
            let bytes = protocol::encode_cf32le(&stream.rendered.samples);
            let cut = cut.min(bytes.len());
            if let Err(e) = sock
                .write_all(line.as_bytes())
                .and(sock.write_all(&bytes[..cut]))
            {
                failures.push(format!("{label}: upload failed: {e}"));
            }
            // Drop: the daemon discovers the death on its next read.
        }
        Err(e) => failures.push(format!("{label}: connect failed: {e}")),
    }
    FaultOutcome {
        kind,
        failures,
        detail: "socket dropped; leak check verifies the reap".to_string(),
    }
}

/// Uploads a full healthy stream in seed-deterministic ragged pieces
/// (1–37 bytes, deliberately never a multiple of the 8-byte sample) and
/// returns the transcript — scored for bit identity by the caller. The
/// upload is paced to the stream's sample rate: the splits are the
/// attack, not the throughput (zero ring drops is part of the score).
fn ragged_upload(addr: &str, seed: u64, stream: &SynthStream) -> Result<Vec<String>, String> {
    let sock = chaos_connect(addr, seed).map_err(|e| format!("connect failed: {e}"))?;
    let reader = {
        let clone = sock.try_clone().map_err(|e| e.to_string())?;
        std::thread::spawn(move || drain_lines(&clone))
    };
    let mut sock = sock;
    let mut line = stream.header.to_json_line();
    line.push('\n');
    sock.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    let bytes = protocol::encode_cf32le(&stream.rendered.samples);
    let rate = stream.header.sample_rate_hz.unwrap_or(500e3);
    let bytes_per_sec = rate * 8.0;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_caf3);
    let mut cursor = 0usize;
    let started = Instant::now();
    while cursor < bytes.len() {
        let mut n = rng.gen_range(1usize..=37).min(bytes.len() - cursor);
        // Keep the pieces off sample boundaries whenever there is room:
        // the daemon's carry logic is the thing under test.
        if n % 8 == 0 && cursor + n < bytes.len() {
            n += 1;
        }
        sock.write_all(&bytes[cursor..cursor + n])
            .map_err(|e| e.to_string())?;
        cursor += n;
        let due = cursor as f64 / bytes_per_sec;
        let elapsed = started.elapsed().as_secs_f64();
        if due > elapsed + 1e-3 {
            std::thread::sleep(Duration::from_secs_f64(due - elapsed));
        }
    }
    sock.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
    Ok(reader.join().unwrap_or_default())
}

/// Streams a full payload under a header that injects a decode-worker
/// panic on the first span: the engine supervision must answer with a
/// `worker_panic` error record, and the daemon must keep serving.
fn worker_panic(addr: &str, seed: u64, stream: &SynthStream) -> FaultOutcome {
    let kind = FaultKind::WorkerPanic;
    let label = kind.label();
    let mut failures = Vec::new();
    let mut detail = String::new();
    match chaos_connect(addr, seed) {
        Ok(sock) => {
            let reader = sock
                .try_clone()
                .map(|clone| std::thread::spawn(move || drain_lines(&clone)));
            let mut sock = sock;
            let mut header = stream.header.clone();
            header.fault_panic_span = Some(0);
            let mut line = header.to_json_line();
            line.push('\n');
            // The daemon tears the stream down as soon as the panic
            // cascades, so mid-upload write errors are expected.
            let _ = sock.write_all(line.as_bytes());
            let bytes = protocol::encode_cf32le(&stream.rendered.samples);
            for chunk in bytes.chunks(1 << 14) {
                if sock.write_all(chunk).is_err() {
                    break;
                }
            }
            let _ = sock.shutdown(Shutdown::Write);
            let lines = match reader {
                Ok(handle) => handle.join().unwrap_or_default(),
                Err(e) => {
                    failures.push(format!("{label}: socket clone failed: {e}"));
                    Vec::new()
                }
            };
            if let Some(error) = records_of(&lines, "error").last() {
                let got = Json::parse(error)
                    .ok()
                    .and_then(|d| d.get("code").and_then(Json::as_str).map(String::from));
                if got.as_deref() == Some(code::FAULT_INJECTION_DISABLED) {
                    failures.push(format!(
                        "{label}: daemon refused the injection — start it with --enable-fault-injection"
                    ));
                }
            }
            failures.extend(expect_terminal(label, &lines, "error", code::WORKER_PANIC));
            detail = format!("{} record(s), supervision answered", lines.len());
        }
        Err(e) => failures.push(format!("{label}: connect failed: {e}")),
    }
    FaultOutcome {
        kind,
        failures,
        detail,
    }
}

/// Verifies the admission cap: fills `cap` serving slots with held-open
/// streams, then expects the next connection to be rejected immediately
/// with `code:"overloaded"`.
fn check_admission(addr: &str, cap: usize, template: &StreamHeader, seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let mut holders = Vec::new();
    for i in 0..cap {
        match chaos_connect(addr, seed + i as u64) {
            Ok(mut sock) => {
                let mut header = template.clone();
                header.name = format!("chaos-hold{i}");
                let mut line = header.to_json_line();
                line.push('\n');
                if let Err(e) = sock.write_all(line.as_bytes()) {
                    failures.push(format!("admission: holder {i} header failed: {e}"));
                    continue;
                }
                // Wait for `ready`: the holder's serving thread is live
                // and its slot counted before we probe.
                if let Ok(clone) = sock.try_clone() {
                    let mut first = String::new();
                    let _ = BufReader::new(clone).read_line(&mut first);
                    if !first.contains("ready") {
                        failures.push(format!(
                            "admission: holder {i} got {first:?} instead of ready"
                        ));
                    }
                }
                holders.push(sock);
            }
            Err(e) => failures.push(format!("admission: holder {i} connect failed: {e}")),
        }
    }
    if failures.is_empty() {
        match chaos_connect(addr, seed + cap as u64) {
            Ok(sock) => {
                let lines = drain_lines(&sock);
                failures.extend(expect_terminal(
                    "admission",
                    &lines,
                    "error",
                    code::OVERLOADED,
                ));
            }
            Err(e) => failures.push(format!("admission: probe connect failed: {e}")),
        }
    }
    drop(holders);
    failures
}

/// Polls the metrics endpoint until every `netscatterd_stream_active`
/// line reports 0 (all serving threads done) or the grace period runs
/// out. Returns the last document plus any failures.
fn await_quiescence(metrics_addr: &str) -> (String, Vec<String>) {
    let started = Instant::now();
    let mut doc = String::new();
    loop {
        match client::fetch_metrics(metrics_addr) {
            Ok(d) => {
                doc = d;
                let leaked: Vec<&str> = doc
                    .lines()
                    .filter(|l| l.starts_with("netscatterd_stream_active{") && !l.ends_with(" 0"))
                    .collect();
                if leaked.is_empty() {
                    return (doc, Vec::new());
                }
                if started.elapsed() > LEAK_GRACE {
                    return (
                        doc.clone(),
                        leaked
                            .iter()
                            .map(|l| format!("leaked serving thread: {l}"))
                            .collect(),
                    );
                }
            }
            Err(e) => {
                if started.elapsed() > LEAK_GRACE {
                    return (
                        doc,
                        vec![format!("metrics endpoint stopped answering: {e}")],
                    );
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Compares the daemon's health counters before and after the matrix
/// (deltas, so a long-lived `--connect` daemon stays valid): the one
/// injected decode fault is the only worker panic, no serving thread
/// panicked, and every other [`HEALTH_COUNTERS`] line is exported.
fn check_health_deltas(before: &str, after: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for &(counter, name) in HEALTH_COUNTERS {
        let injected = match counter {
            HealthCounter::WorkerPanics => Some(1.0),
            HealthCounter::ServePanics => Some(0.0),
            _ => None,
        };
        let read = |doc: &str| metric_value(doc, &format!("netscatterd_{name}_total "));
        match (read(before), read(after), injected) {
            (Some(b), Some(a), Some(want)) if a - b != want => failures.push(format!(
                "netscatterd_{name}_total rose by {} over the matrix, expected {want}",
                a - b
            )),
            (Some(_), Some(_), _) => {}
            _ => failures.push(format!("metrics lack netscatterd_{name}_total")),
        }
    }
    failures
}

/// Runs the chaos harness; returns the process exit code (0 = pass).
pub fn run_chaos(opts: &StressOptions) -> i32 {
    let deployment = Deployment::generate(
        DeploymentConfig::office(opts.scenario.devices.max(16)),
        &mut StdRng::seed_from_u64(DEPLOYMENT_SEED),
    );

    // Healthy fleet plus one payload stream per fault that needs real
    // samples — each synthesized from its own offset seed, renamed so the
    // metrics lines read as what they are.
    let healthy: Vec<SynthStream> = (0..opts.streams)
        .map(|i| synthesize(&deployment, opts, i))
        .collect();
    let payload = |tag: &str, offset: usize| {
        let mut s = synthesize(&deployment, opts, 1000 + offset);
        s.name = format!("chaos-{tag}");
        s.header.name = s.name.clone();
        s
    };
    let stall = payload("stall", 0);
    let disconnect = payload("disconnect", 1);
    let kill = payload("kill", 2);
    let ragged = payload("ragged", 3);
    let panic_stream = payload("panic", 4);

    // The daemon under attack: in-process (with chaos deadlines and fault
    // injection enabled) or --connect.
    let local = if opts.connect.is_none() {
        let rate = healthy[0].header.sample_rate_hz.unwrap_or(500e3);
        let mut config = DaemonConfig::new(daemon_defaults(opts));
        config.default_sample_rate_hz = rate;
        config.header_deadline = Some(Duration::from_millis(1200));
        config.idle_deadline = Some(Duration::from_millis(900));
        config.allow_fault_injection = true;
        match Daemon::start(config) {
            Ok(d) => Some(d),
            Err(e) => {
                eprintln!("chaos: failed to start in-process daemon: {e}");
                return 1;
            }
        }
    } else {
        None
    };
    let ingest = match (&opts.connect, &local) {
        (Some(addr), _) => addr.clone(),
        (None, Some(d)) => d.ingest_addr().to_string(),
        (None, None) => unreachable!("no daemon"),
    };

    let metrics_addr = match (&local, &opts.metrics_addr) {
        (_, Some(addr)) => Some(addr.clone()),
        (Some(d), None) => d.metrics_addr().map(|a| a.to_string()),
        (None, None) => None,
    };
    // The health counters before the matrix; a failed scrape reads as
    // missing counters in `check_health_deltas`.
    let metrics_before = metrics_addr
        .as_deref()
        .and_then(|addr| client::fetch_metrics(addr).ok())
        .unwrap_or_default();

    let seed = opts.scenario.seed;
    let mut failures: Vec<String> = Vec::new();

    // Launch everything concurrently: the healthy fleet through the
    // ordinary client (with reconnect backoff), the faults through their
    // raw-socket runners.
    let healthy_uploads: Vec<_> = healthy
        .iter()
        .map(|s| {
            let addr = ingest.clone();
            let header = s.header.clone();
            let samples = s.rendered.samples.clone();
            let pace = if opts.pace == 0.0 {
                client::Pace::Unlimited
            } else {
                client::Pace::SamplesPerSec(opts.pace * header.sample_rate_hz.unwrap_or(500e3))
            };
            let policy = RetryPolicy::new(4, seed);
            std::thread::spawn(move || {
                client::stream_samples_with_retry(addr, &header, &samples, pace, &policy)
            })
        })
        .collect();
    let ragged_transcript = {
        let addr = ingest.clone();
        let stream = &ragged;
        std::thread::scope(|scope| {
            let ragged_handle = scope.spawn(|| ragged_upload(&addr, seed ^ 0x7a66, stream));
            let fault_handles = [
                scope.spawn(|| {
                    header_fault(
                        &ingest,
                        seed ^ 1,
                        FaultKind::TruncatedHeader,
                        br#"{"stream":"chaos-tru"#,
                        true,
                        code::HEADER_TRUNCATED,
                    )
                }),
                scope.spawn(|| {
                    header_fault(
                        &ingest,
                        seed ^ 2,
                        FaultKind::GarbageHeader,
                        b"these bytes are not a header\n",
                        false,
                        code::BAD_HEADER,
                    )
                }),
                scope.spawn(|| {
                    let oversized = vec![b'a'; 80 << 10];
                    header_fault(
                        &ingest,
                        seed ^ 3,
                        FaultKind::OversizedHeader,
                        &oversized,
                        false,
                        code::HEADER_TOO_LARGE,
                    )
                }),
                scope.spawn(|| slow_header(&ingest, seed ^ 4, &StreamHeader::named("chaos-slow"))),
                scope.spawn(|| mid_stream_stall(&ingest, seed ^ 5, &stall)),
                scope.spawn(|| {
                    let bytes = protocol::encode_cf32le(&disconnect.rendered.samples).len();
                    abrupt_disconnect(
                        &ingest,
                        seed ^ 6,
                        FaultKind::MidStreamDisconnect,
                        &disconnect,
                        bytes / 2 / 8 * 8,
                    )
                }),
                scope.spawn(|| {
                    // Mid-round *and* mid-sample: the cut is odd on purpose.
                    let bytes = protocol::encode_cf32le(&kill.rendered.samples).len();
                    abrupt_disconnect(
                        &ingest,
                        seed ^ 7,
                        FaultKind::KillMidRound,
                        &kill,
                        (bytes / 3) | 1,
                    )
                }),
                scope.spawn(|| worker_panic(&ingest, seed ^ 8, &panic_stream)),
            ];
            for handle in fault_handles {
                let outcome = handle.join().expect("fault runner panicked");
                if !opts.quiet {
                    println!(
                        "chaos {}: {}",
                        outcome.kind.label(),
                        if outcome.failures.is_empty() {
                            if outcome.detail.is_empty() {
                                "ok".to_string()
                            } else {
                                format!("ok ({})", outcome.detail)
                            }
                        } else {
                            "FAIL".to_string()
                        }
                    );
                }
                failures.extend(outcome.failures);
            }
            ragged_handle.join().expect("ragged upload panicked")
        })
    };

    // Score the healthy fleet and the ragged stream for bit identity.
    let mut served_names: Vec<(String, usize)> = Vec::new();
    for (stream, upload) in healthy.iter().zip(healthy_uploads) {
        match upload.join().expect("healthy upload panicked") {
            Ok(lines) => {
                let scored = score_healthy(stream, opts, &lines);
                served_names.push((scored.served_name, stream.header.channel.unwrap_or(0)));
                failures.extend(scored.failures);
                if !opts.quiet {
                    println!("{}", scored.report_line);
                }
            }
            Err(e) => failures.push(format!("stream {}: transport failed: {e}", stream.name)),
        }
    }
    match ragged_transcript {
        Ok(lines) => {
            let scored = score_healthy(&ragged, opts, &lines);
            served_names.push((scored.served_name, ragged.header.channel.unwrap_or(0)));
            failures.extend(scored.failures);
            if !opts.quiet {
                println!("{} [ragged splits]", scored.report_line);
            }
        }
        Err(e) => failures.push(format!("ragged-splits: {e}")),
    }

    // Admission: a dedicated max_conns=1 side daemon in-process, or the
    // --connect daemon's declared cap.
    if let Some(_daemon) = &local {
        let mut config = DaemonConfig::new(daemon_defaults(opts));
        config.metrics = None;
        config.max_conns = 1;
        config.idle_deadline = Some(Duration::from_secs(5));
        match Daemon::start(config) {
            Ok(side) => {
                failures.extend(check_admission(
                    &side.ingest_addr().to_string(),
                    1,
                    &healthy[0].header,
                    seed ^ 0xada1,
                ));
                side.shutdown();
            }
            Err(e) => failures.push(format!("admission: side daemon failed to start: {e}")),
        }
    } else if opts.expect_max_conns > 0 {
        failures.extend(check_admission(
            &ingest,
            opts.expect_max_conns,
            &healthy[0].header,
            seed ^ 0xada1,
        ));
    } else if !opts.quiet {
        println!("chaos admission: skipped (pass --expect-max-conns with --connect)");
    }

    // Survival, consistency, leaks: the metrics endpoint must still
    // answer, parse cleanly, report every scored stream, show zero active
    // serving threads once the grace period ends, and have counted the
    // injected panic and nothing else.
    match metrics_addr {
        Some(addr) => {
            let (doc, leaks) = await_quiescence(&addr);
            failures.extend(leaks);
            if doc.is_empty() {
                failures.push(format!("no metrics document from {addr}"));
            } else {
                failures.extend(check_metrics(&doc, &served_names));
                failures.extend(check_health_deltas(&metrics_before, &doc));
            }
        }
        None => failures.push(
            "chaos needs a metrics endpoint for the survival/leak checks (--metrics-addr)"
                .to_string(),
        ),
    }

    if let Some(daemon) = local {
        // The in-process registry double-checks the leak count.
        let registry = daemon.registry();
        let deadline = Instant::now() + LEAK_GRACE;
        while registry.active_streams() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
        if registry.active_streams() > 0 {
            failures.push(format!(
                "{} serving thread(s) still active after the grace period",
                registry.active_streams()
            ));
        }
        daemon.shutdown();
    }

    if failures.is_empty() {
        println!(
            "chaos PASS: daemon survived {} faults; {} healthy streams bit-identical; no leaks",
            FaultKind::ALL.len(),
            healthy.len() + 1
        );
        0
    } else {
        for f in &failures {
            eprintln!("chaos FAIL: {f}");
        }
        1
    }
}
