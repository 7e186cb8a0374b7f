//! Smoke test: the unified `netscatter` CLI runs every experiment to
//! completion on a small problem size and prints a non-empty report.
//!
//! The binaries are executed as real subprocesses (cargo exposes their paths
//! through `CARGO_BIN_EXE_*`), so this also covers the shared argument
//! parsing (`--quick`, `--seed`, `--threads`, `--fidelity`, `--format`),
//! not just the underlying `experiments::*` calls.

use netscatter_sim::experiments::registry;
use netscatter_sim::ExperimentResult;
use std::process::{Command, Output};

fn spawn(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"))
}

fn run(exe: &str, args: &[&str]) -> String {
    let output = spawn(exe, args);
    assert!(
        output.status.success(),
        "{exe} {args:?} exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        stdout.trim().lines().count() >= 2,
        "{exe} printed no report:\n{stdout}",
    );
    stdout
}

const NETSCATTER: &str = env!("CARGO_BIN_EXE_netscatter");

/// `netscatter run <id> [flags]`, asserting success and a report.
fn run_experiment(id: &str, flags: &[&str]) -> String {
    run(NETSCATTER, &[&["run", id], flags].concat())
}

/// A `--format json` document read back through the library's own reader,
/// which validates the schema version, the scenario and the table layout.
fn parse_result(text: &str) -> ExperimentResult {
    let doc = netscatter::json::Json::parse(text).expect("valid JSON");
    ExperimentResult::from_json(&doc).expect("schema-valid result")
}

/// Column `name` of table `table`.
fn column(result: &ExperimentResult, table: &str, name: &str) -> Vec<f64> {
    let t = result
        .table(table)
        .unwrap_or_else(|| panic!("no {table} table"));
    t.column(name).unwrap_or_else(|| panic!("no {name} column"))
}

/// One test per paper table/figure, named after its experiment id.
macro_rules! smoke {
    ($($name:ident => $args:expr;)*) => {$(
        #[test]
        fn $name() {
            run_experiment(stringify!($name), &$args);
        }
    )*};
}

smoke! {
    table1 => [];
    fig04 => ["--quick"];
    fig08 => [];
    fig09 => ["--quick"];
    fig12 => ["--quick"];
    fig14 => ["--quick"];
    fig15 => ["--quick"];
    fig16 => [];
    fig17 => ["--quick"];
    fig18 => ["--quick"];
    fig19 => ["--quick"];
    analysis_choir => [];
    analysis_capacity => [];
}

#[test]
fn network_figs_run_at_sample_fidelity() {
    // The sample-level smoke: Figs. 17–19 end-to-end through the
    // superposition + decode chain.
    for id in ["fig17", "fig18", "fig19"] {
        run_experiment(id, &["--quick", "--fidelity", "sample"]);
    }
    // The structured sink records the fidelity it ran at.
    let stdout = run_experiment(
        "fig17",
        &["--quick", "--fidelity", "sample", "--format", "json"],
    );
    let result = parse_result(&stdout);
    assert_eq!(result.scenario.fidelity_name(), "sample");
    assert!(!column(&result, "phy_rate", "n").is_empty(), "no data rows");
}

#[test]
fn shims_accept_the_universal_seed_and_threads_flags() {
    // The seed is a flag, not a constant baked into each experiment: a
    // different seed must change the Monte-Carlo figures...
    let default = run_experiment("fig04", &["--quick"]);
    let same = run_experiment("fig04", &["--quick", "--seed", "42", "--threads", "2"]);
    let reseeded = run_experiment("fig04", &["--quick", "--seed", "7"]);
    assert_eq!(default, same, "seed 42 is the default");
    assert_ne!(default, reseeded, "--seed must reach the experiment");
    // ...and unknown arguments still fail loudly.
    let bad = spawn(NETSCATTER, &["run", "fig04", "--qiuck"]);
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn netscatter_list_enumerates_all_former_drivers() {
    let exe = env!("CARGO_BIN_EXE_netscatter");
    let listing = run(exe, &["list"]);
    // (`registry_covers_all_former_drivers_plus_the_gateway` pins the ids.)
    for id in registry().iter().map(|e| e.id) {
        assert!(listing.contains(id), "list is missing {id}:\n{listing}");
    }
}

#[test]
fn netscatter_run_emits_schema_versioned_json_for_every_driver() {
    use netscatter::json::Json;
    let exe = env!("CARGO_BIN_EXE_netscatter");
    // Every registered experiment except `perf` (its artifact has a test
    // of its own below): run at quick scale and validate the structured
    // output parses and is stamped.
    for id in registry().iter().map(|e| e.id).filter(|&id| id != "perf") {
        let stdout = run(exe, &["run", id, "--quick", "--format", "json"]);
        let doc = Json::parse(&stdout).unwrap_or_else(|e| panic!("{id}: invalid JSON: {e}"));
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(1),
            "{id}: missing schema_version"
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(id));
        assert!(
            !doc.get("tables")
                .and_then(Json::as_array)
                .expect("tables array")
                .is_empty(),
            "{id}: no tables"
        );
        // Every size row of the default gateway stream offers and decodes
        // rounds; every goodput row carries sane fractions.
        let result = parse_result(&stdout);
        if id == "gateway" {
            assert!(column(&result, "stream", "rounds_offered")
                .iter()
                .all(|&v| v >= 1.0));
            assert!(column(&result, "stream", "rounds_decoded")
                .iter()
                .all(|&v| v >= 1.0));
            assert!(column(&result, "stream", "msamples_per_sec")
                .iter()
                .all(|&v| v > 0.0));
        }
        if id == "goodput" {
            assert!(column(&result, "goodput", "code_rate")
                .iter()
                .all(|&v| v > 0.0 && v <= 1.0));
            assert!(column(&result, "goodput", "goodput_frac")
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}

#[test]
fn netscatter_sweep_produces_one_result_per_grid_point() {
    use netscatter::json::Json;
    let exe = env!("CARGO_BIN_EXE_netscatter");
    let stdout = run(
        exe,
        &[
            "sweep",
            "fig17",
            "--quick",
            "--set",
            "devices=16,48",
            "--set",
            "seed=1,2",
            "--format",
            "json",
        ],
    );
    let doc = Json::parse(&stdout).expect("sweep JSON parses");
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), 4, "2x2 grid");
    for r in results {
        assert_eq!(r.get("schema_version").and_then(Json::as_u64), Some(1));
    }
    // The swept field actually varies across results.
    let devices: Vec<u64> = results
        .iter()
        .map(|r| {
            r.get("scenario")
                .and_then(|s| s.get("devices"))
                .and_then(Json::as_u64)
                .expect("devices in scenario")
        })
        .collect();
    assert_eq!(devices, [16, 16, 48, 48]);
}

#[test]
fn netscatter_rejects_unknown_experiments_and_flags() {
    let exe = env!("CARGO_BIN_EXE_netscatter");
    for args in [
        ["run", "fig99"].as_slice(),
        ["run", "fig08", "--format", "yaml"].as_slice(),
        ["sweep", "fig17", "--set", "volume=11"].as_slice(),
        ["sweep", "fig17"].as_slice(),
        ["frobnicate"].as_slice(),
    ] {
        let out = spawn(exe, args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(
            !spawn(exe, args).stderr.is_empty(),
            "{args:?} needs a message"
        );
    }
}

#[test]
fn run_perf_writes_one_schema_versioned_bench_artifact() {
    let out = std::env::temp_dir().join("netscatter_bench_perf_test.json");
    let _ = std::fs::remove_file(&out);
    let args = [
        "run",
        "perf",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ];
    let written = spawn(NETSCATTER, &args);
    assert!(written.status.success(), "{written:?}");
    let text = std::fs::read_to_string(&out).expect("artifact written");
    let _ = std::fs::remove_file(&out);
    let result = parse_result(&text);
    assert_eq!(result.experiment, "perf");
    let names: Vec<&str> = result.tables.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["decode", "network", "coding"]);
    // 16/64/256-device rows with a positive rate each; one row per FEC
    // scheme (hamming/rs/conv/fountain) with a code rate in (0, 1] and
    // positive encode and decode Msymbols/s.
    for (table, rate_column) in [
        ("decode", "symbols_per_sec"),
        ("network", "device_symbols_per_sec"),
    ] {
        let rates = column(&result, table, rate_column);
        assert_eq!(rates.len(), 3, "{rate_column}: {rates:?}");
        assert!(rates.iter().all(|&v| v > 0.0), "{rate_column}: {rates:?}");
    }
    let code_rates = column(&result, "coding", "code_rate");
    assert_eq!(code_rates.len(), 4, "one row per FEC scheme");
    assert!(code_rates.iter().all(|&v| v > 0.0 && v <= 1.0));
    for name in ["encode_msymbols_per_sec", "decode_msymbols_per_sec"] {
        assert!(
            column(&result, "coding", name).iter().all(|&v| v > 0.0),
            "{name}"
        );
    }
    for name in [
        "payload_symbols_per_round",
        "padded_spectrum_ns",
        "lattice_spectrum_ns",
        "chirp_bank_sliding_us",
        "chirp_bank_per_candidate_us",
        "decode_round_256x108_us",
        "decode_round_256x108_spectra_us",
        "frame_line_256x40_tree_us",
        "frame_line_256x40_direct_us",
        "frame_line_256x108_tree_us",
        "frame_line_256x108_direct_us",
        "fig15b_quick_ms",
        "fig17_quick_ms",
    ] {
        assert!(result.scalar(name).unwrap_or(0.0) > 0.0, "scalar {name}");
    }
}

#[test]
fn gateway_runs_at_both_fidelities_and_sweeps() {
    use netscatter::json::Json;
    let exe = env!("CARGO_BIN_EXE_netscatter");
    // Both fidelities through the real CLI, values deliberately
    // mixed-case (the enum-valued flags are case-insensitive). Small
    // stream/population so the smoke stays fast.
    for fidelity in ["Analytical", "SAMPLE"] {
        let stdout = run(
            exe,
            &[
                "run",
                "gateway",
                "--quick",
                "--devices",
                "16",
                "--payload-bits",
                "8",
                "--stream-secs",
                "0.1",
                "--arrival-rate",
                "30",
                "--fidelity",
                fidelity,
                "--format",
                "JSON",
            ],
        );
        let doc = Json::parse(&stdout).expect("gateway JSON parses");
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("gateway")
        );
    }
    // A sweep over channel counts and chunk sizes: one result per grid
    // point, and at each channel count the decoded payload statistics must
    // be chunk-size invariant even though the timing columns are not.
    let stdout = run(
        exe,
        &[
            "sweep",
            "gateway",
            "--quick",
            "--devices",
            "16",
            "--payload-bits",
            "8",
            "--stream-secs",
            "0.1",
            "--arrival-rate",
            "30",
            "--set",
            "channels=1,2",
            "--set",
            "chunk_samples=500,4096",
            "--format",
            "json",
        ],
    );
    let doc = Json::parse(&stdout).expect("sweep JSON parses");
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), 4);
    // The sharding axis reaches the recorded scenario, and the sharded
    // engine decodes at every point.
    let parsed: Vec<ExperimentResult> = results
        .iter()
        .map(|r| ExperimentResult::from_json(r).expect("schema-valid result"))
        .collect();
    let channels: Vec<usize> = parsed.iter().map(|r| r.scenario.channels).collect();
    assert_eq!(channels, [1, 1, 2, 2]);
    for r in &parsed {
        assert!(column(r, "stream", "rounds_decoded")
            .iter()
            .all(|&v| v >= 1.0));
        assert!(column(r, "stream", "msamples_per_sec")
            .iter()
            .all(|&v| v > 0.0));
    }
    let decoded: Vec<String> = results
        .iter()
        .map(|r| {
            let tables = r.get("tables").and_then(Json::as_array).expect("tables");
            let rows = tables[0]
                .get("rows")
                .and_then(Json::as_array)
                .expect("rows");
            // devices, offered, decoded, false alarms, delivery, ber —
            // everything except the two trailing timing columns.
            rows.iter()
                .map(|row| {
                    let cells = row.as_array().expect("row");
                    format!("{:?}", &cells[..cells.len() - 2])
                })
                .collect::<Vec<_>>()
                .join(";")
        })
        .collect();
    for pair in decoded.chunks(2) {
        assert_eq!(
            pair[0], pair[1],
            "decode statistics must not depend on the chunk size"
        );
    }
}

#[test]
fn netscatter_run_suggests_the_nearest_experiment_id() {
    let exe = env!("CARGO_BIN_EXE_netscatter");
    let out = spawn(exe, &["run", "gatway", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean \"gateway\"?"),
        "missing suggestion:\n{stderr}"
    );
}
