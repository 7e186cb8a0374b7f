//! End-to-end stress harness run: synthesized concurrent TCP streams
//! against an in-process daemon must pass all three gates (bit identity,
//! zero drops, complete metrics) and exit 0.

use netscatter_sim::stress::{parse_stress_args, run_stress, stress_main};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn stress_harness_passes_with_concurrent_synthesized_streams() {
    // Small and fast, but genuinely concurrent: 4 sockets, distinct seeds,
    // spread over 2 RF channels so the metrics gate also demands the
    // schema-complete per-channel rollup and the aggregate rate.
    // Wire speed plus a ring that holds each whole stream keeps the run
    // deterministic on unoptimized test builds (drop-oldest cannot fire),
    // while still exercising the full TCP → engine → NDJSON path.
    let opts = parse_stress_args(&args(&[
        "--streams",
        "4",
        "--channels",
        "2",
        "--devices",
        "4",
        "--stream-secs",
        "0.15",
        "--arrival-rate",
        "30",
        "--pace",
        "0",
        "--ring-slots",
        "256",
        "--chunk-samples",
        "2048",
        "--threads",
        "2",
        "--quiet",
    ]))
    .expect("stress flags parse");
    assert_eq!(run_stress(&opts), 0, "stress harness must pass");
}

#[test]
fn stress_cf32_dir_uploads_through_capture_files() {
    let dir = std::env::temp_dir().join("netscatter_stress_cf32");
    let opts = parse_stress_args(&args(&[
        "--streams",
        "2",
        "--devices",
        "4",
        "--stream-secs",
        "0.1",
        "--arrival-rate",
        "30",
        "--pace",
        "0",
        "--ring-slots",
        "256",
        "--chunk-samples",
        "2048",
        "--threads",
        "2",
        "--cf32-dir",
        dir.to_str().unwrap(),
        "--quiet",
    ]))
    .expect("stress flags parse");
    assert_eq!(run_stress(&opts), 0, "replay-file stress must pass");
    assert!(
        dir.join("stress0.cf32").exists() && dir.join("stress1.cf32").exists(),
        "capture files written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stress_connect_against_a_dead_address_fails_cleanly() {
    let opts = parse_stress_args(&args(&[
        "--streams",
        "1",
        "--devices",
        "4",
        "--stream-secs",
        "0.05",
        "--connect",
        "127.0.0.1:1", // nothing listens here
        "--quiet",
    ]))
    .expect("stress flags parse");
    assert_eq!(
        run_stress(&opts),
        1,
        "unreachable daemon is a failure, not a panic"
    );
}

#[test]
fn chaos_matrix_passes_against_the_in_process_daemon() {
    // Nine fault kinds beside a healthy fleet, the admission check on a
    // side daemon, the leak check and the panic-counter deltas. The
    // injected decode-worker panic prints its backtrace on stderr.
    let code = stress_main(&args(&[
        "--chaos",
        "--streams",
        "2",
        "--seed",
        "42",
        "--quiet",
    ]));
    assert_eq!(code, 0, "chaos harness must pass");
}
