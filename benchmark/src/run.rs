//! One run of one workload: set-up, window, scoring, metrics.

use crate::daemon::DaemonChild;
use crate::loadgen::{self, WindowCost};
use crate::score::{self, End, Expected, Offered, Record, Score};
use crate::sys::{self, Placement};
use crate::workload::{self, Capture, Offer, Workload};
use crate::{probe, stats, trace, Args, Metric};
use std::time::Instant;

/// Full set-ups (capture synthesis + encoding + daemon start) per run;
/// `setup_s` is their median and the run uses the last.
const SETUPS: usize = 3;

/// Seconds sent ahead of the measured window and excluded from every
/// metric: connection set-up, first-use allocations, the detector's
/// noise-floor seeding.
const WARMUP_S: f64 = 2.0;

/// A paced window whose generator wrote its pieces later than this (p95)
/// is invalid: it measured the box, not the daemon. Alone on its CPU the
/// writer is 0.11–0.16 ms late at p95; the worst of 450 windows, one the
/// hypervisor held for over half a second, was 1.3 ms.
const LATE_P95_LIMIT_MS: f64 = 2.0;

/// Windows a run may take to get a valid one: an invalid window says
/// nothing about the daemon, so it is run again, once. A second invalid
/// window fails the run.
const WINDOW_TRIES: usize = 2;

/// What one run of one workload produced.
pub struct RunResult {
    /// Rounds offered after warm-up.
    pub attempted: u64,
    /// Rounds (and stray frames) that came back wrong or not at all.
    pub failed: u64,
    /// Why the run is not correct (an output was wrong) or not valid (the
    /// generator ran late); empty when it is both.
    pub problems: Vec<String>,
    /// Every `end_to_end` metric of `BENCHMARK.json`.
    pub end_to_end: Vec<Metric>,
    /// What the window itself yields beside them, plus the probe's layer
    /// metrics when the run was traced: then it is every `per_layer`
    /// metric of `BENCHMARK.json`.
    pub per_layer: Vec<Metric>,
}

/// What the connections of a window add up to.
#[derive(Default)]
struct Tally {
    score: Score,
    ends: Vec<End>,
    frames: u64,
    problems: Vec<String>,
    /// Per connection: which capture it sent, how many samples, and its
    /// frame lines in order (kept for the byte-identity check).
    transcripts: Vec<(usize, u64, Vec<String>)>,
}

impl Tally {
    /// Scores one connection's transcript against what it was offered. A
    /// connection that did not end with a clean `eof` and zero ring drops
    /// fails every round it was offered.
    fn add(
        &mut self,
        capture: (usize, &Capture),
        sent: u64,
        offered: &[Offered],
        lines: impl Iterator<Item = (f64, String)>,
        late_limit_s: f64,
        coded: bool,
    ) {
        let (mut frames, mut raw, mut end) = (Vec::new(), Vec::new(), None);
        for (at_s, line) in lines {
            match score::parse_record(&line, at_s) {
                Record::Frame(f) => {
                    frames.push(f);
                    raw.push(line);
                }
                Record::End(e) => end = Some(e),
                Record::Ready(_) => {}
                Record::Other(text) => self.problems.push(format!("unexpected record: {text}")),
            }
        }
        self.frames += frames.len() as u64;
        self.score.merge(match end {
            Some(e) if e.clean && e.ring_dropped == 0 => {
                let tolerance = capture.1.round_samples / 2;
                score::score(offered, &frames, tolerance, late_limit_s, coded)
            }
            _ => {
                self.problems.push(match end {
                    Some(e) => format!(
                        "connection ended unclean (clean={}, ring_dropped={})",
                        e.clean, e.ring_dropped
                    ),
                    None => "connection ended without an end record".to_string(),
                });
                Score::fail_all(offered)
            }
        });
        self.ends.extend(end);
        self.transcripts.push((capture.0, sent, raw));
    }
}

/// What a window (paced or churn) boils down to before metrics.
struct Window {
    tally: Tally,
    /// User-visible latency samples in time order, ms: frame latency when
    /// paced, connection round trip when churning.
    latencies_ms: Vec<f64>,
    cost: WindowCost,
    connect_ready_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// The reference kernel's readings over the measured window, ms.
    ref_ms: Vec<f64>,
}

fn run_window(
    w: &Workload,
    captures: &[Capture],
    daemon: &DaemonChild,
    seconds: f64,
    warmup_s: f64,
) -> Result<Window, String> {
    let codec = w.codec()?;
    let coded = codec.is_some();
    let expect: Vec<Vec<Expected>> = captures
        .iter()
        .map(|c| score::expectations(c, codec.as_ref()))
        .collect();
    let mut tally = Tally::default();
    match w.offer {
        Offer::Paced { rate_sps } => {
            let (addr, pid) = (daemon.ingest, daemon.pid());
            let run = loadgen::run_paced(addr, pid, captures, rate_sps, seconds, warmup_s)?;
            for (c, lines) in run.lines.into_iter().enumerate() {
                let offered = loadgen::offered_rounds(
                    &captures[c],
                    &expect[c],
                    run.sent,
                    rate_sps,
                    run.clock_start_s[c],
                    warmup_s,
                );
                let capture = (c, &captures[c]);
                let lines = lines.into_iter();
                tally.add(
                    capture,
                    run.sent,
                    &offered,
                    lines,
                    score::LATE_LIMIT_S,
                    coded,
                );
            }
            // Two connections' frames interleave in time.
            let mut timed = std::mem::take(&mut tally.score.latencies);
            timed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("due times are never NaN"));
            Ok(Window {
                tally,
                latencies_ms: timed.into_iter().map(|(_, ms)| ms).collect(),
                cost: run.cost,
                connect_ready_ms: run.connect_ready_ms,
                late_ms: run.late_ms,
                ref_ms: run.ref_ms,
            })
        }
        Offer::Churn => {
            let run = loadgen::run_churn(daemon.ingest, daemon.pid(), captures, seconds, warmup_s)?;
            let mut latencies_ms = Vec::new();
            for conn in run.conns {
                let capture = &captures[conn.capture];
                let sent = capture.samples();
                // A whole short stream at wire speed has no schedule, so
                // no round of it can be late; the connection's round trip
                // is the latency its user sees.
                let warmup = if conn.counted { 0.0 } else { f64::INFINITY };
                let offered =
                    loadgen::offered_rounds(capture, &expect[conn.capture], sent, 1.0, 0.0, warmup);
                let capture = (conn.capture, capture);
                let lines = conn.lines.into_iter().map(|l| (0.0, l));
                tally.add(capture, sent, &offered, lines, f64::INFINITY, coded);
                if conn.counted {
                    latencies_ms.push(conn.roundtrip_ms);
                }
            }
            Ok(Window {
                tally,
                latencies_ms,
                cost: run.cost,
                connect_ready_ms: Vec::new(),
                late_ms: Vec::new(),
                ref_ms: run.ref_ms,
            })
        }
    }
}

/// Checks the daemon's frame lines against the probe's, byte for byte:
/// every reference frame whose packet lies inside what the connection was
/// sent must appear, in order, at the head of the connection's frames.
fn identity_problems(
    reference: &[Vec<(u64, String)>],
    transcripts: &[(usize, u64, Vec<String>)],
) -> Vec<String> {
    let mut problems = Vec::new();
    for (conn, (capture, sent, frames)) in transcripts.iter().enumerate() {
        let expected: Vec<&str> = reference[*capture]
            .iter()
            .filter(|(last, _)| last < sent)
            .map(|(_, line)| probe::normalise_frame(line))
            .collect();
        let got: Vec<&str> = frames
            .iter()
            .take(expected.len())
            .map(|l| probe::normalise_frame(l))
            .collect();
        if got != expected {
            let same = got.iter().zip(&expected).take_while(|(a, b)| a == b);
            problems.push(format!(
                "connection {conn}: frames diverge from the serial reference at frame {} \
                 ({} of {} reference frames present)",
                same.count(),
                got.len(),
                expected.len()
            ));
            if problems.len() >= 5 {
                break;
            }
        }
    }
    problems
}

/// The metrics the window itself yields beside the gated ones: what the
/// daemon process cost, what its `end` records counted, the latency tail,
/// how the generator kept time.
fn observed_layers(window: &Window) -> Vec<Metric> {
    let cost = &window.cost;
    let latencies = stats::sorted(window.latencies_ms.clone());
    let late = stats::sorted(window.late_ms.clone());
    let ready = stats::sorted(window.connect_ready_ms.clone());
    let at = |sorted: &[f64], p| stats::percentile(sorted, p, 0).unwrap_or(0.0);
    let per_sample = |s: f64| s * 1e9 / cost.samples.max(1) as f64;
    let (user_s, sys_s) = (
        cost.cpu_end.user_s - cost.cpu_start.user_s,
        cost.cpu_end.sys_s - cost.cpu_start.sys_s,
    );
    let ends = &window.tally.ends;
    let sum = |f: fn(&End) -> u64| ends.iter().map(f).sum::<u64>() as f64;
    let (frames, samples) = (latencies.len(), cost.samples as usize);
    let attempted = window.tally.score.attempted as usize;
    [
        (
            "ring.dropped_chunks",
            sum(|e| e.ring_dropped),
            "count",
            ends.len(),
        ),
        (
            "detect.false_alarms",
            sum(|e| e.false_alarms),
            "count",
            ends.len(),
        ),
        (
            "detect.truncated",
            sum(|e| e.truncated),
            "count",
            ends.len(),
        ),
        (
            "serve.cpu_ns_per_sample",
            per_sample(user_s + sys_s),
            "ns",
            samples,
        ),
        (
            "serve.cpu_sys_ns_per_sample",
            per_sample(sys_s),
            "ns",
            samples,
        ),
        ("serve.threads", cost.cpu_end.threads as f64, "count", 1),
        (
            "serve.page_faults",
            (cost.cpu_end.minor_faults - cost.cpu_start.minor_faults) as f64,
            "count",
            samples,
        ),
        ("serve.rss_mib", cost.rss_mib, "MiB", 1),
        ("serve.rss_peak_mib", cost.rss_peak_mib, "MiB", 1),
        ("serve.connect_ready_ms", at(&ready, 0.5), "ms", ready.len()),
        ("serve.latency_p90_ms", at(&latencies, 0.90), "ms", frames),
        ("serve.latency_p95_ms", at(&latencies, 0.95), "ms", frames),
        ("serve.latency_p99_ms", at(&latencies, 0.99), "ms", frames),
        ("serve.latency_max_ms", at(&latencies, 1.0), "ms", frames),
        (
            "serve.late_frames",
            window.tally.score.late as f64,
            "count",
            attempted,
        ),
        ("loadgen.late_p95_ms", at(&late, 0.95), "ms", late.len()),
        ("loadgen.late_max_ms", at(&late, 1.0), "ms", late.len()),
        (
            "loadgen.achieved_msps",
            cost.samples as f64 / cost.wall_s / 1e6,
            "Msps",
            samples,
        ),
        (
            "loadgen.frames",
            window.tally.frames as f64,
            "count",
            ends.len(),
        ),
    ]
    .into_iter()
    .map(|(name, value, unit, n)| Metric {
        name,
        value,
        unit,
        n,
    })
    .collect()
}

/// Runs one workload once.
pub fn run_workload(w: &Workload, args: &Args) -> Result<RunResult, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let log = args.out_dir.join(format!("netscatterd-{}.log", w.name));
    let (setups, warmup_s, min_beyond) = if args.quick {
        (1, 1.0, 0)
    } else {
        (SETUPS, WARMUP_S, stats::MIN_BEYOND)
    };
    // The generator — this thread and the reader it starts — on one CPU,
    // the daemon on another, for the whole run.
    let allowed = sys::allowed_cpus().map_err(|e| format!("sched_getaffinity: {e}"))?;
    let placement = Placement::split(&allowed);
    sys::confine_to(&placement.generator).map_err(|e| format!("sched_setaffinity: {e}"))?;

    let draws = workload::clean_draws(w, args.seed)?;
    let mut setup_s = Vec::new();
    let mut ready: Option<(Vec<Capture>, DaemonChild)> = None;
    for _ in 0..setups {
        // The previous set-up's daemon goes before the next is timed.
        drop(ready.take());
        let t = Instant::now();
        let captures = workload::synthesize(w, args.seed, &draws)?;
        let daemon = DaemonChild::spawn(&args.daemon_bin, &log, &placement.daemon)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((captures, daemon));
    }
    let (captures, daemon) = ready.expect("at least one set-up");
    let window_s = warmup_s + args.seconds;
    let mut tries = 0;
    let (mut window, invalid) = loop {
        tries += 1;
        let window = run_window(w, &captures, &daemon, window_s, warmup_s)
            .map_err(|e| format!("{e}\n-- daemon log --\n{}", daemon.log_tail()))?;
        let late_p95 = stats::percentile(&stats::sorted(window.late_ms.clone()), 0.95, 0);
        let invalid = late_p95
            .filter(|&late| late > LATE_P95_LIMIT_MS)
            .map(|late| {
                format!(
                "invalid window: the generator wrote its pieces {late:.2} ms late at p95 (limit \
                 {LATE_P95_LIMIT_MS} ms), which measures the box, not the daemon"
            )
            });
        match &invalid {
            Some(why) if tries < WINDOW_TRIES => eprintln!("{}: {why}; running it again", w.name),
            _ => break (window, invalid),
        }
    };
    drop(daemon);

    let mut problems = std::mem::take(&mut window.tally.problems);
    problems.extend(invalid);
    let score = &mut window.tally.score;
    score.charge_late();
    if score.attempted == 0 {
        problems.push("no round was offered after warm-up".to_string());
    }
    if score.failed > 0 {
        problems.push(format!(
            "{} of {} rounds failed (missed {}, wrong {}, unmatched frames {}, late {})",
            score.failed, score.attempted, score.missed, score.wrong, score.unmatched, score.late
        ));
    }

    let samples = window.latencies_ms.len();
    let latencies = stats::sorted(window.latencies_ms.clone());
    let p50 = stats::percentile(&latencies, 0.50, min_beyond).unwrap_or_else(|| {
        problems.push(format!(
            "latency_p50: {samples} samples leave fewer than {min_beyond} beyond it"
        ));
        0.0
    });
    // How fast the box computed while the window ran: the latency is
    // gated in executions of the reference kernel, not in milliseconds.
    let kernel = stats::sorted(window.ref_ms.clone());
    let kernel_ms = if kernel.is_empty() {
        problems.push("the reference kernel never ran inside the window".to_string());
        1.0
    } else {
        stats::median(&kernel)
    };
    let cost = &window.cost;
    let end_to_end = vec![
        Metric {
            name: "setup_s",
            value: stats::median(&stats::sorted(setup_s)),
            unit: "s",
            n: setups,
        },
        Metric {
            name: "latency_p50_ref",
            value: p50 / kernel_ms,
            unit: "ref",
            n: samples,
        },
        Metric {
            name: "cpu_user_ns_per_sample",
            value: (cost.cpu_end.user_s - cost.cpu_start.user_s) * 1e9 / cost.samples.max(1) as f64,
            unit: "ns",
            n: cost.samples as usize,
        },
    ];

    let mut per_layer = observed_layers(&window);
    per_layer.push(Metric {
        name: "serve.latency_p50_ms",
        value: p50,
        unit: "ms",
        n: samples,
    });
    per_layer.push(Metric {
        name: "loadgen.ref_kernel_ms",
        value: kernel_ms,
        unit: "ms",
        n: kernel.len(),
    });
    per_layer.push(Metric {
        name: "loadgen.windows",
        value: tries as f64,
        unit: "count",
        n: 1,
    });
    if args.trace {
        let loops = match w.offer {
            Offer::Paced { rate_sps } => {
                let sent = window_s * rate_sps;
                ((sent / captures[0].samples() as f64) as u64).clamp(1, probe::PROBE_LOOPS)
            }
            Offer::Churn => 1,
        };
        let engine_secs = if args.quick { 1.0 } else { 6.0 };
        let outcome = probe::run(w, &captures, loops, engine_secs, &placement)?;
        if !(0.97..=1.03).contains(&outcome.layers_sum_frac) {
            problems.push(format!(
                "probe.layers_sum_frac = {:.4} is outside 0.97–1.03",
                outcome.layers_sum_frac
            ));
        }
        problems.extend(identity_problems(
            &outcome.frames,
            &window.tally.transcripts,
        ));
        let trace_path = args.out_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&trace_path, trace::to_json(&outcome.spans).to_string_line())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        // What the socket adds to the engine's own ingest→emit latency (no
        // engine figure exists for a churn connection).
        per_layer.push(Metric {
            name: "serve.socket_share_p50_ms",
            value: outcome.engine_p50_ms.map_or(0.0, |engine| p50 - engine),
            unit: "ms",
            n: samples,
        });
        per_layer.extend(outcome.metrics);
        per_layer.sort_by_key(|m| m.name);
    }

    Ok(RunResult {
        attempted: window.tally.score.attempted,
        failed: window.tally.score.failed,
        problems,
        end_to_end,
        per_layer,
    })
}
