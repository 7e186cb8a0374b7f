//! Smoke test: the unified `netscatter` CLI runs every experiment to
//! completion on a small problem size and prints a non-empty report.
//!
//! The binaries are executed as real subprocesses (cargo exposes their paths
//! through `CARGO_BIN_EXE_*`), so this also covers the shared argument
//! parsing (`--quick`, `--seed`, `--threads`, `--fidelity`, `--format`),
//! not just the underlying `experiments::*` calls.

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
    for id in [
        "table1",
        "fig04",
        "fig08",
        "fig09",
        "fig12",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "analysis_choir",
        "analysis_capacity",
        "gateway",
        "goodput",
        "perf",
    ] {
        assert!(listing.contains(id), "list is missing {id}:\n{listing}");
    }
}

#[test]
fn netscatter_run_emits_schema_versioned_json_for_every_driver() {
    use netscatter::json::Json;
    let exe = env!("CARGO_BIN_EXE_netscatter");
    // Every registered experiment except `perf` (covered by the snapshot
    // test below, where its JSON artifacts are exercised): run at quick
    // scale and validate the structured output parses and is stamped.
    for id in [
        "table1",
        "fig04",
        "fig08",
        "fig09",
        "fig12",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "analysis_choir",
        "analysis_capacity",
        "gateway",
        "goodput",
    ] {
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
fn perf_snapshot_writes_schema_versioned_bench_json() {
    use netscatter::json::Json;
    let out = std::env::temp_dir().join("netscatter_perf_snapshot_test.json");
    let net_out = std::env::temp_dir().join("netscatter_perf_snapshot_net_test.json");
    let coding_out = std::env::temp_dir().join("netscatter_perf_snapshot_coding_test.json");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&net_out);
    let _ = std::fs::remove_file(&coding_out);
    run(
        env!("CARGO_BIN_EXE_perf_snapshot"),
        &[
            "--out",
            out.to_str().unwrap(),
            "--network-out",
            net_out.to_str().unwrap(),
            "--coding-out",
            coding_out.to_str().unwrap(),
        ],
    );
    for (path, experiment, table, rate_column) in [
        (&out, "bench_decode", "decode", "symbols_per_sec"),
        (
            &net_out,
            "bench_network",
            "network",
            "device_symbols_per_sec",
        ),
    ] {
        let text = std::fs::read_to_string(path).expect("snapshot file written");
        let doc = Json::parse(&text).expect("BENCH artifact is valid JSON");
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some(experiment)
        );
        let tables = doc.get("tables").and_then(Json::as_array).expect("tables");
        let t = &tables[0];
        assert_eq!(t.get("name").and_then(Json::as_str), Some(table));
        let columns = t.get("columns").and_then(Json::as_array).expect("columns");
        assert!(
            columns
                .iter()
                .any(|c| c.get("name").and_then(Json::as_str) == Some(rate_column)),
            "{experiment} is missing the {rate_column} column"
        );
        let rows = t.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 3, "{experiment}: 16/64/256-device rows");
    }
    // BENCH_coding carries one row per FEC scheme (hamming/rs/conv/
    // fountain) with positive encode and decode Msymbols/s.
    {
        let text = std::fs::read_to_string(&coding_out).expect("coding snapshot");
        let doc = Json::parse(&text).expect("BENCH_coding is valid JSON");
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("bench_coding")
        );
        let tables = doc.get("tables").and_then(Json::as_array).expect("tables");
        let t = &tables[0];
        assert_eq!(t.get("name").and_then(Json::as_str), Some("coding"));
        let columns = t.get("columns").and_then(Json::as_array).expect("columns");
        for name in ["encode_msymbols_per_sec", "decode_msymbols_per_sec"] {
            assert!(
                columns
                    .iter()
                    .any(|c| c.get("name").and_then(Json::as_str) == Some(name)),
                "BENCH_coding is missing the {name} column"
            );
        }
        let rows = t.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 4, "one row per FEC scheme");
        for row in rows {
            let row = row.as_array().expect("row array");
            let (rate, enc, dec) = (
                row[2].as_f64().unwrap(),
                row[3].as_f64().unwrap(),
                row[4].as_f64().unwrap(),
            );
            assert!(
                rate > 0.0 && rate <= 1.0,
                "code rate out of range in {row:?}"
            );
            assert!(enc > 0.0 && dec > 0.0, "non-positive codec rate in {row:?}");
        }
    }
    // Unknown --format values are rejected with a usage error, not
    // silently defaulted.
    let bad = spawn(
        env!("CARGO_BIN_EXE_perf_snapshot"),
        &["--format", "xml", "--out", out.to_str().unwrap()],
    );
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--format"));
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&net_out);
    let _ = std::fs::remove_file(&coding_out);
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
    // A sweep over chunk sizes: one result per grid point, and the decoded
    // payload statistics must be chunk-size invariant even though the
    // timing columns are not.
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
    assert_eq!(results.len(), 2);
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
    assert_eq!(
        decoded[0], decoded[1],
        "decode statistics must not depend on the chunk size"
    );
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
