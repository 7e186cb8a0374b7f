//! The load generator: loopback TCP clients of the daemon under test.
//!
//! Paced workloads are **open loop**. A radio delivers samples on its own
//! clock and does not slow down when the daemon does, so byte `b` of a
//! connection is due at `t0 + b / (8 · rate)` whatever the daemon is
//! doing; the writer sleeps until a piece is due and never skips ahead,
//! and a frame's latency is counted from when its round's last sample was
//! *due*, not from when it was sent — a stall that holds the sender up is
//! charged to the frames behind it. This thread writes every connection;
//! one more waits on all of them at once and stamps each line as it
//! arrives: two generator threads, whatever the workload.
//!
//! `churn64` is **closed loop** with one client: connect, send a whole
//! short capture at wire speed, half-close, read to the `end` record, and
//! only then open the next connection.

use crate::calib::Calibrator;
use crate::procfs::{self, CpuSample};
use crate::score::Offered;
use crate::workload::Capture;
use crate::{stats, sys};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Bytes per socket write: 16 KiB, 2048 samples.
pub const PIECE_BYTES: usize = 1 << 14;

/// Samples per socket write.
pub const PIECE_SAMPLES: u64 = (PIECE_BYTES / 8) as u64;

/// A socket that makes no progress for this long fails the run instead of
/// hanging it.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// When sample `s` (0-based) of a stream paced at `rate_sps` is due, in
/// seconds after the stream's clock started: once the radio has produced
/// it.
pub fn sample_due_s(rate_sps: f64, s: u64) -> f64 {
    (s + 1) as f64 / rate_sps
}

/// When piece `k` is sent: when its last sample is due.
pub fn piece_due_s(rate_sps: f64, k: u64) -> f64 {
    sample_due_s(rate_sps, (k + 1) * PIECE_SAMPLES - 1)
}

/// The rounds a connection offered by looping `capture` for `sent`
/// samples, in stream order. Loop `l` shifts every truth round by
/// `l · capture.samples()`; a round the window cut short was not offered.
/// `clock_start_s` is when the connection's sample clock started on the
/// run's clock; rounds due before `warmup_s` are matched but not counted.
pub fn offered_rounds<'a>(
    capture: &Capture,
    expect: &'a [Vec<(usize, String)>],
    sent: u64,
    rate_sps: f64,
    clock_start_s: f64,
    warmup_s: f64,
) -> Vec<Offered<'a>> {
    let mut offered = Vec::new();
    for l in 0..sent.div_ceil(capture.samples().max(1)) {
        for (round, expect) in capture.truth.iter().zip(expect) {
            let start_sample = l * capture.samples() + round.start_sample;
            let last = start_sample + capture.round_samples - 1;
            if last >= sent {
                break;
            }
            let due_s = clock_start_s + sample_due_s(rate_sps, last);
            offered.push(Offered {
                start_sample,
                due_s,
                counted: due_s >= warmup_s,
                expect,
            });
        }
    }
    offered
}

/// What the daemon process cost over the measured part of a window.
#[derive(Debug, Clone, Copy)]
pub struct WindowCost {
    /// CPU reading when warm-up ended.
    pub cpu_start: CpuSample,
    /// CPU reading when the last byte had been written.
    pub cpu_end: CpuSample,
    /// Samples sent between the two readings.
    pub samples: u64,
    /// Wall seconds between the two readings.
    pub wall_s: f64,
    /// Median resident set over the measured window (sampled every
    /// [`RSS_SAMPLE_S`]), MiB. The peak is one hiccup's backlog; the median
    /// is what a stream holds.
    pub rss_mib: f64,
    /// Peak resident set at the end of the window, MiB.
    pub rss_peak_mib: f64,
}

/// Seconds between resident-set samples inside the measured window.
const RSS_SAMPLE_S: f64 = 0.25;

/// Resident-set samples of a window, taken when they fall due.
struct RssSampler {
    pid: u32,
    next_s: f64,
    samples: Vec<f64>,
}

impl RssSampler {
    fn new(pid: u32, from_s: f64) -> Self {
        Self {
            pid,
            next_s: from_s,
            samples: Vec::new(),
        }
    }

    /// Takes a sample if one is due at `now_s` on the run's clock.
    fn poll(&mut self, now_s: f64) -> Result<(), String> {
        if now_s >= self.next_s {
            self.samples.push(procfs::memory(self.pid)?.rss_mib);
            self.next_s += RSS_SAMPLE_S;
        }
        Ok(())
    }

    /// The median sample and the peak, read now.
    fn finish(self) -> Result<(f64, f64), String> {
        let last = procfs::memory(self.pid)?;
        let mut samples = self.samples;
        samples.push(last.rss_mib);
        Ok((stats::median(&stats::sorted(samples)), last.peak_mib))
    }
}

/// One NDJSON line and when its newline was read (seconds since `t0`).
pub type StampedLine = (f64, String);

/// What a paced window produced.
pub struct PacedRun {
    /// When each connection's sample clock started, seconds since `t0`.
    pub clock_start_s: Vec<f64>,
    /// Samples written on each connection.
    pub sent: u64,
    /// connect → header → `ready` read, per connection, ms.
    pub connect_ready_ms: Vec<f64>,
    /// Every line after `ready`, per connection.
    pub lines: Vec<Vec<StampedLine>>,
    /// How late each post-warm-up piece was written, ms.
    pub late_ms: Vec<f64>,
    /// The reference kernel's post-warm-up readings, ms.
    pub ref_ms: Vec<f64>,
    /// Daemon cost over the measured window.
    pub cost: WindowCost,
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// Connects, sends the header line and reads the `ready` line; also returns
/// how long that took, in ms.
fn open(addr: SocketAddr, capture: &Capture) -> Result<(TcpStream, f64), String> {
    let started = Instant::now();
    let mut sock = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    sock.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
    sock.set_read_timeout(Some(STALL_LIMIT))
        .and_then(|()| sock.set_write_timeout(Some(STALL_LIMIT)))
        .map_err(|e| io_err("socket timeouts", e))?;
    let mut header = capture.header.to_json_line();
    header.push('\n');
    sock.write_all(header.as_bytes())
        .map_err(|e| io_err("header write", e))?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match sock.read(&mut byte) {
            Ok(0) => return Err("connection closed before the ready record".to_string()),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) => return Err(io_err("ready read", e)),
        }
    }
    let ready_ms = started.elapsed().as_secs_f64() * 1e3;
    let line = String::from_utf8_lossy(&line).into_owned();
    match crate::score::parse_record(&line, 0.0) {
        crate::score::Record::Ready(_) => Ok((sock, ready_ms)),
        _ => Err(format!("expected a ready record, got {line}")),
    }
}

/// Splits complete lines off the front of `pending`, stamping them `at_s`.
fn take_lines(pending: &mut Vec<u8>, at_s: f64, out: &mut Vec<StampedLine>) {
    let mut from = 0;
    while let Some(nl) = pending[from..].iter().position(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(&pending[from..from + nl]).into_owned();
        out.push((at_s, line));
        from += nl + 1;
    }
    pending.drain(..from);
}

/// The reader thread: stamps every line of every connection until each
/// has reached end of file. It sleeps in `poll` until something arrives,
/// so a stamp is the moment the kernel had the bytes and an idle reader
/// costs no cycles; between arrivals it runs the reference kernel when one
/// is due. Returns the lines per connection and the kernel's readings.
fn read_lines(
    mut socks: Vec<TcpStream>,
    t0: Instant,
) -> Result<(Vec<Vec<StampedLine>>, Calibrator), String> {
    let mut lines = vec![Vec::new(); socks.len()];
    let mut pending = vec![Vec::new(); socks.len()];
    let mut open: Vec<usize> = (0..socks.len()).collect();
    let mut buf = vec![0u8; 1 << 16];
    let mut cal = Calibrator::new(t0);
    let mut heard = Instant::now();
    while !open.is_empty() {
        let fds: Vec<_> = open.iter().map(|&c| socks[c].as_raw_fd()).collect();
        let wait = cal.until_due() + Duration::from_millis(1);
        let ready = sys::wait_readable(&fds, wait).map_err(|e| io_err("poll", e))?;
        let at_s = t0.elapsed().as_secs_f64();
        let mut ended = Vec::new();
        for c in ready.iter().map(|&i| open[i]) {
            match socks[c].read(&mut buf) {
                Ok(0) => ended.push(c),
                Ok(n) => {
                    pending[c].extend_from_slice(&buf[..n]);
                    take_lines(&mut pending[c], at_s, &mut lines[c]);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err("response read", e)),
            }
        }
        open.retain(|c| !ended.contains(c));
        if !ready.is_empty() {
            heard = Instant::now();
        } else if heard.elapsed() > STALL_LIMIT {
            return Err(format!("no response for {STALL_LIMIT:?}"));
        }
        cal.poll();
    }
    Ok((lines, cal))
}

/// Writes piece `k` of the looped capture.
fn write_piece(sock: &mut TcpStream, bytes: &[u8], k: u64) -> std::io::Result<()> {
    let at = (k as usize * PIECE_BYTES) % bytes.len();
    let head = PIECE_BYTES.min(bytes.len() - at);
    sock.write_all(&bytes[at..at + head])?;
    if head < PIECE_BYTES {
        sock.write_all(&bytes[..PIECE_BYTES - head])?;
    }
    Ok(())
}

/// Runs one paced window: one connection per capture, each looping its
/// capture at `rate_sps` for `seconds`, the first `warmup_s` of them
/// excluded from every measurement.
pub fn run_paced(
    addr: SocketAddr,
    pid: u32,
    captures: &[Capture],
    rate_sps: f64,
    seconds: f64,
    warmup_s: f64,
) -> Result<PacedRun, String> {
    let conns = captures.len();
    let mut socks = Vec::new();
    let mut connect_ready_ms = Vec::new();
    for capture in captures {
        let (sock, ready_ms) = open(addr, capture)?;
        socks.push(sock);
        connect_ready_ms.push(ready_ms);
    }
    let responses = socks
        .iter()
        .map(TcpStream::try_clone)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io_err("socket clone", e))?;

    // Connection clocks are staggered across one piece period so the
    // writer never owes two pieces at the same instant.
    let period_s = PIECE_SAMPLES as f64 / rate_sps;
    let clock_start_s: Vec<f64> = (0..conns)
        .map(|c| c as f64 * period_s / conns as f64)
        .collect();
    let pieces = (seconds * rate_sps / PIECE_SAMPLES as f64).floor() as u64;
    let t0 = Instant::now() + Duration::from_millis(2);
    let reader = std::thread::spawn(move || read_lines(responses, t0));

    let now_s = || {
        Instant::now()
            .checked_duration_since(t0)
            .map_or(0.0, |d| d.as_secs_f64())
    };
    let mut late_ms = Vec::with_capacity(pieces as usize * conns);
    // The writer proper. It returns instead of unwinding on any failure,
    // so the sockets are always half-closed and the reader always joined.
    let mut rss = RssSampler::new(pid, warmup_s);
    let mut write_window = || -> Result<(u64, CpuSample, f64), String> {
        let mut measured_from = None;
        for k in 0..pieces {
            for c in 0..conns {
                let due_s = clock_start_s[c] + piece_due_s(rate_sps, k);
                if measured_from.is_none() && due_s >= warmup_s {
                    measured_from = Some((k, procfs::cpu(pid)?, now_s()));
                }
                if let Some(wait) = t0
                    .checked_add(Duration::from_secs_f64(due_s))
                    .and_then(|due| due.checked_duration_since(Instant::now()))
                {
                    std::thread::sleep(wait);
                }
                if measured_from.is_some() {
                    late_ms.push((now_s() - due_s).max(0.0) * 1e3);
                    rss.poll(due_s)?;
                }
                write_piece(&mut socks[c], &captures[c].bytes, k)
                    .map_err(|e| io_err("sample write", e))?;
            }
        }
        measured_from.ok_or_else(|| "the window is shorter than its warm-up".to_string())
    };
    let written = write_window();
    let cpu_end = procfs::cpu(pid);
    let end_s = now_s();
    let memory = rss.finish();
    for sock in &socks {
        // A failed half-close means the peer is gone; the reader reports it.
        let _ = sock.shutdown(Shutdown::Write);
    }
    let lines = reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())
        .and_then(|lines| lines);
    let (first_piece, cpu_start, start_s) = written?;
    let (rss_mib, rss_peak_mib) = memory?;
    let (lines, cal) = lines?;
    Ok(PacedRun {
        clock_start_s,
        sent: pieces * PIECE_SAMPLES,
        connect_ready_ms,
        lines,
        late_ms,
        ref_ms: cal.readings_ms(warmup_s),
        cost: WindowCost {
            cpu_start,
            cpu_end: cpu_end?,
            samples: (pieces - first_piece) * PIECE_SAMPLES * conns as u64,
            wall_s: end_s - start_s,
            rss_mib,
            rss_peak_mib,
        },
    })
}

/// Connections a churn window makes per requested second. A fixed count,
/// not a deadline: the closed loop then offers the same work to a slow
/// daemon and a fast one, and `attempted` repeats exactly. At the ≈ 4 ms a
/// connection takes today the window lasts about as long as asked.
pub const CHURN_CONNS_PER_S: f64 = 200.0;

/// One closed-loop connection.
pub struct ChurnConn {
    /// Which capture of the pool it sent.
    pub capture: usize,
    /// False for the warm-up connections.
    pub counted: bool,
    /// connect → header → samples → half-close → `end` read, ms.
    pub roundtrip_ms: f64,
    /// Every line the daemon answered with.
    pub lines: Vec<String>,
}

/// What a churn window produced.
pub struct ChurnRun {
    /// The connections, in the order they were made.
    pub conns: Vec<ChurnConn>,
    /// The reference kernel's readings between counted connections, ms.
    pub ref_ms: Vec<f64>,
    /// Daemon cost over the measured window.
    pub cost: WindowCost,
}

/// Runs one churn window: `seconds ·` [`CHURN_CONNS_PER_S`] sequential
/// connections cycling through the capture pool, the first
/// `warmup_s ·` [`CHURN_CONNS_PER_S`] of them not counted.
pub fn run_churn(
    addr: SocketAddr,
    pid: u32,
    captures: &[Capture],
    seconds: f64,
    warmup_s: f64,
) -> Result<ChurnRun, String> {
    let t0 = Instant::now();
    let mut cal = Calibrator::new(t0);
    let mut conns = Vec::new();
    // Set when the first counted connection opens: the readings the
    // measured window starts from.
    let mut measured_from: Option<(CpuSample, f64, RssSampler)> = None;
    let mut samples = 0u64;
    let mut response = Vec::new();
    let total = (seconds * CHURN_CONNS_PER_S) as usize;
    let warmup = (warmup_s * CHURN_CONNS_PER_S) as usize;
    for i in 0..total {
        let index = i % captures.len();
        let capture = &captures[index];
        let start_s = t0.elapsed().as_secs_f64();
        if i == warmup {
            measured_from = Some((procfs::cpu(pid)?, start_s, RssSampler::new(pid, start_s)));
        }
        if let Some((_, _, rss)) = &mut measured_from {
            rss.poll(start_s)?;
        }
        // Between connections, never inside a timed round trip.
        cal.poll();
        let started = Instant::now();
        let (mut sock, _) = open(addr, capture)?;
        for piece in capture.bytes.chunks(PIECE_BYTES) {
            sock.write_all(piece)
                .map_err(|e| io_err("sample write", e))?;
        }
        sock.shutdown(Shutdown::Write)
            .map_err(|e| io_err("half-close", e))?;
        response.clear();
        sock.read_to_end(&mut response)
            .map_err(|e| io_err("response read", e))?;
        let roundtrip_ms = started.elapsed().as_secs_f64() * 1e3;
        if measured_from.is_some() {
            samples += capture.samples();
        }
        conns.push(ChurnConn {
            capture: index,
            counted: measured_from.is_some(),
            roundtrip_ms,
            lines: String::from_utf8_lossy(&response)
                .lines()
                .map(String::from)
                .collect(),
        });
    }
    let cpu_end = procfs::cpu(pid)?;
    let end_s = t0.elapsed().as_secs_f64();
    let (cpu_start, start_s, rss) =
        measured_from.ok_or("the window is shorter than its warm-up")?;
    let (rss_mib, rss_peak_mib) = rss.finish()?;
    Ok(ChurnRun {
        conns,
        ref_ms: cal.readings_ms(start_s),
        cost: WindowCost {
            cpu_start,
            cpu_end,
            samples,
            wall_s: end_s - start_s,
            rss_mib,
            rss_peak_mib,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_daemon::protocol::StreamHeader;
    use netscatter_sim::stream::StreamRoundTruth;

    #[test]
    fn a_piece_is_due_when_its_last_sample_is() {
        // 8 Msps: sample 0 is due after 125 ns, piece 0 after 2048 samples.
        assert_eq!(sample_due_s(8e6, 0), 1.25e-7);
        assert_eq!(piece_due_s(8e6, 0), 2048.0 / 8e6);
        assert_eq!(piece_due_s(8e6, 3), 4.0 * 2048.0 / 8e6);
        assert_eq!(piece_due_s(4e6, 0), 2.0 * piece_due_s(8e6, 0));
    }

    #[test]
    fn offered_rounds_advance_by_the_loop_offset() {
        // A 1000-sample capture holding one 200-sample round at 100.
        let capture = Capture {
            header: StreamHeader::named("t"),
            bytes: vec![0; 8 * 1000],
            truth: vec![StreamRoundTruth {
                start_sample: 100,
                sent: vec![Some(vec![true])],
            }],
            bins: vec![64],
            round_samples: 200,
        };
        let expect = vec![vec![(64usize, "1".to_string())]];
        // 2299 samples sent: loops 0 and 1 are whole; loop 2's round would
        // end on sample 2299, one past the last sample sent.
        let rate = 1000.0;
        let offered = offered_rounds(&capture, &expect, 2299, rate, 0.5, 1.0);
        let starts: Vec<u64> = offered.iter().map(|o| o.start_sample).collect();
        assert_eq!(starts, vec![100, 1100]);
        // Last sample 299 is due at 0.3 s on a clock that started at 0.5 s.
        assert_eq!(offered[0].due_s, 0.5 + 0.3);
        assert_eq!(offered[1].due_s, 0.5 + 1.3);
        assert_eq!(
            offered.iter().map(|o| o.counted).collect::<Vec<_>>(),
            vec![false, true]
        );
        // One more sample completes the third round.
        assert_eq!(
            offered_rounds(&capture, &expect, 2300, rate, 0.5, 1.0).len(),
            3
        );
    }

    #[test]
    fn lines_are_split_across_reads() {
        let mut pending = b"{\"a\":1}\n{\"b\"".to_vec();
        let mut out = Vec::new();
        take_lines(&mut pending, 1.0, &mut out);
        assert_eq!(out, vec![(1.0, "{\"a\":1}".to_string())]);
        pending.extend_from_slice(b":2}\n\n");
        take_lines(&mut pending, 2.0, &mut out);
        assert_eq!(out[1], (2.0, "{\"b\":2}".to_string()));
        assert_eq!(out[2], (2.0, String::new()));
        assert!(pending.is_empty());
    }
}
