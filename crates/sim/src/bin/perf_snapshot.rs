//! Performance snapshot for CI: runs the registered `perf` experiment
//! (decode path, quick-mode sweeps, sample-level network rounds, link-layer
//! codecs), prints its report, and writes `BENCH_decode.json` +
//! `BENCH_network.json` + `BENCH_coding.json` through the schema-versioned
//! `ExperimentResult` JSON sink so the perf trajectory of the three kernel
//! tables is tracked from PR to PR. End-to-end stream numbers come from
//! `benchmark/`, not from here.
//!
//! Usage: `perf_snapshot [--out <path>] [--network-out <path>]
//! [--coding-out <path>] [--format text|json] [--seed N]` (defaults
//! `BENCH_decode.json` / `BENCH_network.json` / `BENCH_coding.json`, text
//! report).
//! The other universal experiment flags are accepted; ones the `perf`
//! experiment does not read (e.g. `--threads`) produce a stderr note.

use netscatter_sim::cli::{parse_flags_or_exit, warn_unused_fields};
use netscatter_sim::experiment::{render, OutputFormat};
use netscatter_sim::experiments::{find, perf_bench_results};

const USAGE: &str = "perf_snapshot — CI perf snapshot (the registered `perf` experiment)

USAGE:
  perf_snapshot [flags]

FLAGS:
  --out <PATH>            BENCH_decode.json path (default: BENCH_decode.json)
  --network-out <PATH>    BENCH_network.json path (default: BENCH_network.json)
  --coding-out <PATH>     BENCH_coding.json path (default: BENCH_coding.json)
  --seed <N>              deployment seed (default: 42)
  --format <text|json>    stdout report sink (default: text);
                          the BENCH artifacts are always JSON

Other universal experiment flags are accepted; ones the perf experiment
does not read (e.g. --threads) produce a stderr note.";

fn main() {
    let mut out_path = String::from("BENCH_decode.json");
    let mut network_out_path = String::from("BENCH_network.json");
    let mut coding_out_path = String::from("BENCH_coding.json");
    // Split the snapshot-specific flags off, then hand the rest to the
    // shared experiment-flag parser (which handles --help and rejects
    // unknown flags / unknown --format values with a usage error rather
    // than a silent default).
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut shared = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let take_value = |i: &mut usize| -> String {
            *i += 1;
            raw.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{} requires a value", raw[*i - 1]);
                std::process::exit(2);
            })
        };
        match raw[i].as_str() {
            "--out" => out_path = take_value(&mut i),
            "--network-out" => network_out_path = take_value(&mut i),
            "--coding-out" => coding_out_path = take_value(&mut i),
            other => shared.push(other.to_string()),
        }
        i += 1;
    }
    let opts = parse_flags_or_exit(&shared, USAGE);
    if opts.format == OutputFormat::Csv {
        eprintln!(
            "perf_snapshot supports --format text|json (the BENCH artifacts are always JSON)"
        );
        std::process::exit(2);
    }

    let exp = find("perf").expect("perf experiment is registered");
    warn_unused_fields(exp, &opts);
    let result = exp.run(&opts.scenario);
    print!("{}", render(exp, &result, opts.format));

    let (decode, network, coding) = perf_bench_results(&result);
    for (artifact, path) in [
        (decode, &out_path),
        (network, &network_out_path),
        (coding, &coding_out_path),
    ] {
        if let Err(e) = std::fs::write(path, artifact.to_json().to_string_pretty()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
