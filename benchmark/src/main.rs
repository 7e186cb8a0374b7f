//! The repo benchmark: open-loop `netscatterd` socket workloads with tail
//! latency and CPU cost as end-to-end metrics, and a traced run that prices
//! every layer. See `benchmark/README.md`; run it through
//! `benchmark/run.sh`, which builds both binaries first.

mod calib;
mod daemon;
mod loadgen;
mod probe;
mod procfs;
mod run;
mod score;
mod stats;
mod sys;
mod trace;
mod workload;

use netscatter::json::Json;
use run::{run_workload, RunResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use workload::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       repeat.sh N [--workload NAME] [--seed N] [--seconds S] [--quick]

Without --workload every workload runs in table order, one line per metric
is printed and benchmark/out/result.json is written. With --workload one
workload runs and the last line of standard output is the driver's JSON
object. --trace adds the per-layer run (probe + byte-identity check) and
writes benchmark/out/trace-<workload>.json. --quick is the smoke mode:
1 + 3 s windows, one set-up, no gating.";

/// The command line.
pub struct Args {
    workload: Option<&'static Workload>,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Measured seconds of a window; the warm-up is sent ahead of them.
    pub seconds: f64,
    /// Also run the probe and report the per-layer metrics.
    pub trace: bool,
    /// Smoke mode: short window, one set-up, no sample-count gate.
    pub quick: bool,
    repeat: Option<usize>,
    /// The `netscatterd` binary under test.
    pub daemon_bin: PathBuf,
    /// Where logs, traces and `result.json` go.
    pub out_dir: PathBuf,
    spec: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 19.0,
        trace: false,
        quick: false,
        repeat: None,
        daemon_bin: PathBuf::new(),
        out_dir: PathBuf::new(),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                args.workload =
                    Some(workload::find(name).ok_or_else(|| format!("no workload {name:?}"))?);
            }
            "--seed" => args.seed = num("--seed", value(&mut i)?)?,
            "--seconds" => args.seconds = num("--seconds", value(&mut i)?)?,
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    args.trace = v == "1";
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--quick" => args.quick = true,
            "--repeat" => args.repeat = Some(num("--repeat", value(&mut i)?)?),
            "--daemon-bin" => args.daemon_bin = PathBuf::from(value(&mut i)?),
            "--out-dir" => args.out_dir = PathBuf::from(value(&mut i)?),
            "--spec" => args.spec = PathBuf::from(value(&mut i)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.daemon_bin.as_os_str().is_empty() || args.out_dir.as_os_str().is_empty() {
        return Err("--daemon-bin and --out-dir are required (run.sh passes them)".to_string());
    }
    if args.quick {
        args.seconds = 3.0;
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// The measurement, with all its digits.
    pub value: f64,
    /// Unit as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// Observations behind the value.
    pub n: usize,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                let entry = Json::object(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

fn print_lines(w: &Workload, metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {} {} n={}", w.name, m.name, m.value, m.unit, m.n);
    }
}

/// The end-to-end numbers under the names ISSUE 11 gave them, for the
/// workloads it listed each against. `BENCHMARK.json` wants every workload
/// to report every gated metric, so there the frame latency of a paced
/// workload and the connection round trip of `churn64` share one name,
/// `latency_p50_ms`; a failure fraction that is 0 cannot be listed at all
/// and is the result's `failed` over `attempted`.
fn issue_names(w: &Workload, result: &RunResult) -> Vec<Metric> {
    let paced = matches!(w.offer, workload::Offer::Paced { .. });
    let all = result.end_to_end.iter().chain(&result.per_layer);
    let renamed = |name: &'static str, source: &str| {
        all.clone()
            .find(|m| m.name == source)
            .map(|m| Metric { name, ..m.clone() })
    };
    let (p50, p95) = if paced {
        ("frame_latency_p50_ms", "frame_latency_p95_ms")
    } else {
        ("conn_roundtrip_p50_ms", "conn_roundtrip_p95_ms")
    };
    let mut named: Vec<Metric> = [
        renamed(p50, "serve.latency_p50_ms"),
        renamed(p95, "serve.latency_p95_ms"),
        renamed("cpu_ns_per_sample", "serve.cpu_ns_per_sample").filter(|_| paced),
        renamed("rss_peak_mib", "serve.rss_peak_mib"),
    ]
    .into_iter()
    .flatten()
    .collect();
    named.push(Metric {
        name: "frame_fail_frac",
        value: result.failed as f64 / result.attempted.max(1) as f64,
        unit: "fraction",
        n: result.attempted as usize,
    });
    named
}

/// `--workload X`: one run, the driver's JSON object on the last line.
fn main_single(w: &Workload, args: &Args) -> Result<bool, String> {
    let result = run_workload(w, args)?;
    for problem in &result.problems {
        eprintln!("{}: {problem}", w.name);
    }
    print_lines(w, &result.end_to_end);
    print_lines(w, &issue_names(w, &result));
    print_lines(w, &result.per_layer);
    let metrics = if args.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    let correct = result.problems.is_empty();
    let line = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{}", line.to_string_line());
    Ok(correct)
}

/// Runs one workload in a process of its own, the way the driver runs it.
/// The child's metric lines pass through; its last line, the JSON object,
/// is returned parsed.
fn spawn_run(w: &Workload, args: &Args, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .arg("--daemon-bin")
        .arg(&args.daemon_bin)
        .arg("--out-dir")
        .arg(&args.out_dir)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        child.arg("--quick");
    }
    let output = child
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{}: the run printed no result ({})", w.name, output.status))?;
    for line in lines {
        println!("{line}");
    }
    Json::parse(last).map_err(|e| format!("{}: last line is not a result: {e}", w.name))
}

/// No `--workload`: every workload in table order, one process per run
/// (a second, traced one with `--trace`), then `out/result.json`.
fn main_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows = Vec::new();
    let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
    for w in &WORKLOADS {
        let measured = spawn_run(w, args, args.seed, false)?;
        let mut correct = measured.get("correct") == Some(&Json::Bool(true));
        let mut row = vec![
            ("attempted", field(&measured, "attempted")),
            ("failed", field(&measured, "failed")),
            ("end_to_end", field(&measured, "metrics")),
        ];
        if args.trace {
            let traced = spawn_run(w, args, args.seed, true)?;
            correct &= traced.get("correct") == Some(&Json::Bool(true));
            row.push(("per_layer", field(&traced, "metrics")));
        }
        row.insert(0, ("correct", Json::Bool(correct)));
        all_correct &= correct;
        rows.push((w.name, Json::object(row)));
    }
    // A benchmark measures; it claims nothing.
    let summary = Json::object(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::object(rows)),
        ("claim", Json::Null),
    ]);
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, summary.to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!("{{\"correct\":{all_correct},\"claim\":null}}");
    Ok(all_correct)
}

/// What `--repeat` needs from `BENCHMARK.json`: the workloads the driver
/// runs and the bound of every end-to-end metric.
fn read_spec(spec: &Path) -> Result<(Vec<&'static Workload>, BTreeMap<String, f64>), String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("");
            workload::find(name).ok_or_else(|| format!("BENCHMARK.json names no workload {name:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let bounds = metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name and bound".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok((workloads, bounds))
}

/// `--repeat N`: N runs per workload `BENCHMARK.json` lists, on seeds
/// `seed … seed+N−1`, one process each, workload order alternating, then
/// each end-to-end metric's spread — the distance between its quartiles as
/// a share of its median, the rule the benchmark is accepted by — against
/// its bound. `setup_s` is reported, not gated.
fn main_repeat(n: usize, args: &Args) -> Result<bool, String> {
    if n < 2 {
        return Err("repeat needs at least 2 runs".to_string());
    }
    let (listed, bounds) = read_spec(&args.spec)?;
    let chosen = args.workload.map_or(listed, |w| vec![w]);
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut failed: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..n {
        let mut order = chosen.clone();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let doc = spawn_run(w, args, args.seed + i as u64, false)?;
            ok &= doc.get("correct") == Some(&Json::Bool(true));
            let count = doc.get("failed").and_then(Json::as_u64);
            failed
                .entry(w.name)
                .or_default()
                .push(count.unwrap_or(u64::MAX));
            let Some(Json::Object(metrics)) = doc.get("metrics") else {
                return Err(format!("{}: result has no metrics", w.name));
            };
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                let value = value.ok_or_else(|| format!("{}: {name} has no value", w.name))?;
                values
                    .entry((w.name, name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    println!("workload metric min median max iqr/median (max-min)/median bound verdict");
    for ((workload, metric), v) in &values {
        let v = stats::sorted(v.clone());
        let median = stats::median(&v);
        let (q1, q3) = stats::quartiles(&v);
        let spread = (q3 - q1) / median;
        let range = (v[v.len() - 1] - v[0]) / median;
        let bound = *bounds
            .get(metric)
            .ok_or_else(|| format!("BENCHMARK.json has no bound for {metric}"))?;
        let verdict = if metric == "setup_s" {
            "reported"
        } else if args.quick || spread <= bound {
            "ok"
        } else {
            ok = false;
            "SPREAD EXCEEDS BOUND"
        };
        println!(
            "{workload} {metric} {:.4} {median:.4} {:.4} {spread:.4} {range:.4} {bound} {verdict}",
            v[0],
            v[v.len() - 1]
        );
    }
    for (workload, f) in &failed {
        println!("{workload} failed {f:?}");
    }
    Ok(ok)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match (args.repeat, args.workload) {
        (Some(n), _) => main_repeat(n, &args),
        (None, Some(w)) => main_single(w, &args),
        (None, None) => main_all(&args),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
