//! Minimal ingest and metrics clients for netscatterd.
//!
//! These are what the stress harness, the replay feeders and the smoke
//! tests speak to the daemon with: open a TCP connection, send the JSON
//! header line plus raw `cf32le` bytes, half-close the write side, and
//! collect the NDJSON records the daemon sends back. A reader thread
//! drains the response concurrently with the upload so neither side can
//! stall on a full socket buffer.

use crate::protocol::{encode_cf32le, StreamHeader, SAMPLE_BYTES};
use netscatter_dsp::Complex64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::{Duration, Instant};

/// Reconnect policy for transient connect failures: capped exponential
/// backoff with deterministic jitter derived from the stream's seed, so a
/// fleet of clients retrying after a daemon restart de-synchronizes
/// reproducibly instead of stampeding in lockstep.
///
/// Only the *connect* is retried — once the header is on the wire the
/// stream has state on the daemon side, and replaying it would duplicate
/// data; mid-stream failures surface as errors for the caller to decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connect attempts (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry after that.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Jitter seed (use the stream's seed for reproducible schedules).
    pub seed: u64,
}

impl RetryPolicy {
    /// A single attempt: fail straight through, never sleep.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// `max_attempts` tries with 50 ms base and 2 s cap, jittered by
    /// `seed`.
    pub fn new(max_attempts: u32, seed: u64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed,
        }
    }

    /// The backoff slept after failed attempt number `attempt` (1-based):
    /// `base · 2^(attempt−1)` capped at `max_delay`, then scaled into
    /// `[50%, 100%]` by a deterministic hash of `(seed, attempt)`. Pure —
    /// the whole schedule is fixed by the policy.
    fn delay_before_retry(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(32);
        let exp = self
            .base_delay
            .saturating_mul(1u32 << doublings.min(31))
            .min(self.max_delay);
        // splitmix-style hash: good avalanche, no state, zero-seed safe.
        let mut x = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt) + 1));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        exp.mul_f64(0.5 + 0.5 * unit)
    }
}

/// Whether a connect error is worth retrying — the daemon may be booting,
/// restarting, or momentarily over its accept backlog.
fn is_transient_connect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::TimedOut
    )
}

/// Connects to `addr`, retrying transient failures per `policy`. Returns
/// the last error once attempts are exhausted (or immediately for
/// non-transient failures such as unresolvable addresses).
pub fn connect_with_retry(
    addr: impl ToSocketAddrs,
    policy: &RetryPolicy,
) -> std::io::Result<TcpStream> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match TcpStream::connect(&addr) {
            Ok(sock) => return Ok(sock),
            Err(e) if attempt < policy.max_attempts && is_transient_connect(&e) => {
                std::thread::sleep(policy.delay_before_retry(attempt));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Upload pacing: a real radio delivers samples at its sample rate, but a
/// replayed capture arrives at wire speed — far faster than any decoder —
/// so an unpaced replay *will* trip the daemon's drop-oldest backpressure.
/// `Pace::RealTime` throttles the upload to the stream's sample rate
/// (what a live SDR front-end would produce); `Unlimited` sends at wire
/// speed and accepts counted ring drops as the honest outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Throttle to `factor ×` the stream's sample rate (1.0 = real time).
    RealTime,
    /// Throttle to this many samples per second.
    SamplesPerSec(f64),
    /// No throttle: wire speed.
    Unlimited,
}

impl Pace {
    fn max_bytes_per_sec(self, sample_rate_hz: f64) -> Option<f64> {
        match self {
            Pace::RealTime => Some(sample_rate_hz * SAMPLE_BYTES as f64),
            Pace::SamplesPerSec(sps) => Some(sps * SAMPLE_BYTES as f64),
            Pace::Unlimited => None,
        }
    }
}

/// Streams `samples` to the daemon at `addr` under `header` and returns
/// every NDJSON line the daemon answered with (ready, frames, end).
pub fn stream_samples(
    addr: impl ToSocketAddrs,
    header: &StreamHeader,
    samples: &[Complex64],
    pace: Pace,
) -> std::io::Result<Vec<String>> {
    stream_bytes(addr, header, &encode_cf32le(samples), pace)
}

/// [`stream_samples`] with connect retries per `policy`.
pub fn stream_samples_with_retry(
    addr: impl ToSocketAddrs,
    header: &StreamHeader,
    samples: &[Complex64],
    pace: Pace,
    policy: &RetryPolicy,
) -> std::io::Result<Vec<String>> {
    stream_reader(addr, header, &mut &encode_cf32le(samples)[..], pace, policy)
}

/// Streams a `.cf32` capture file to the daemon at `addr` — the replay
/// path: the file is read through a [`BufReader`] in 64 KiB pieces, never
/// loaded whole.
pub fn stream_file(
    addr: impl ToSocketAddrs,
    header: &StreamHeader,
    path: &Path,
    pace: Pace,
) -> std::io::Result<Vec<String>> {
    let file = std::fs::File::open(path)?;
    stream_reader(
        addr,
        header,
        &mut BufReader::with_capacity(1 << 16, file),
        pace,
        &RetryPolicy::none(),
    )
}

/// Streams raw `cf32le` bytes to the daemon at `addr`.
pub fn stream_bytes(
    addr: impl ToSocketAddrs,
    header: &StreamHeader,
    bytes: &[u8],
    pace: Pace,
) -> std::io::Result<Vec<String>> {
    stream_reader(addr, header, &mut &bytes[..], pace, &RetryPolicy::none())
}

fn stream_reader(
    addr: impl ToSocketAddrs,
    header: &StreamHeader,
    body: &mut dyn Read,
    pace: Pace,
    policy: &RetryPolicy,
) -> std::io::Result<Vec<String>> {
    let mut sock = connect_with_retry(addr, policy)?;
    let _ = sock.set_nodelay(true);

    // Drain the daemon's records concurrently with the upload: the daemon
    // publishes frames while the stream is still flowing, and a one-sided
    // writer would eventually deadlock against a full socket buffer.
    let response = sock.try_clone()?;
    let reader = std::thread::spawn(move || -> std::io::Result<Vec<String>> {
        let mut lines = Vec::new();
        for line in BufReader::new(response).lines() {
            lines.push(line?);
        }
        Ok(lines)
    });

    let mut line = header.to_json_line();
    line.push('\n');
    sock.write_all(line.as_bytes())?;
    // Pacing picks the default sample rate when the header names none.
    let rate = header.sample_rate_hz.unwrap_or(500e3);
    let max_bps = pace.max_bytes_per_sec(rate);
    // Small pieces under pacing so throttle sleeps stay fine-grained
    // (16 KiB = 2048 samples ≈ 4 ms of stream at 500 ksps).
    let mut buf = vec![0u8; if max_bps.is_some() { 1 << 14 } else { 1 << 16 }];
    let started = Instant::now();
    let mut sent = 0u64;
    loop {
        let n = body.read(&mut buf)?;
        if n == 0 {
            break;
        }
        sock.write_all(&buf[..n])?;
        sent += n as u64;
        if let Some(bps) = max_bps {
            let due = sent as f64 / bps;
            let elapsed = started.elapsed().as_secs_f64();
            if due > elapsed {
                std::thread::sleep(std::time::Duration::from_secs_f64(due - elapsed));
            }
        }
    }
    // Half-close: end of stream for the daemon, response still readable.
    sock.shutdown(Shutdown::Write)?;
    reader.join().expect("response reader panicked")
}

/// Fetches one metrics document from the daemon's metrics endpoint.
pub fn fetch_metrics(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut sock = TcpStream::connect(addr)?;
    let mut doc = String::new();
    sock.read_to_string(&mut doc)?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_jittered_and_capped() {
        let p = RetryPolicy::new(8, 42);
        let a: Vec<_> = (1..8).map(|i| p.delay_before_retry(i)).collect();
        let b: Vec<_> = (1..8).map(|i| p.delay_before_retry(i)).collect();
        assert_eq!(a, b, "schedule must be a pure function of the policy");
        for (i, d) in a.iter().enumerate() {
            let exp = p
                .base_delay
                .saturating_mul(1 << (i as u32))
                .min(p.max_delay);
            assert!(
                *d >= exp.mul_f64(0.5),
                "retry {i}: {d:?} under jitter floor"
            );
            assert!(*d <= exp, "retry {i}: {d:?} over the uncapped bound");
        }
        assert!(
            a.iter().all(|d| *d <= p.max_delay),
            "backoff must respect the cap"
        );
        // Different stream seeds de-synchronize the fleet.
        let q = RetryPolicy::new(8, 43);
        assert!((1..8).any(|i| q.delay_before_retry(i) != p.delay_before_retry(i)));
        // Huge attempt numbers must not overflow.
        let _ = p.delay_before_retry(u32::MAX);
    }

    #[test]
    fn refused_connects_retry_then_surface_the_error() {
        // Bind then drop: the kernel refuses connects to the dead port.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            seed: 7,
        };
        let err = connect_with_retry(addr, &policy).unwrap_err();
        assert!(is_transient_connect(&err), "unexpected error: {err}");
    }

    #[test]
    fn live_listeners_connect_on_the_first_attempt() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        connect_with_retry(addr, &RetryPolicy::none()).expect("connect");
    }
}
