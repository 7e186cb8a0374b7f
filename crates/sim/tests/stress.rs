//! End-to-end stress harness run: synthesized concurrent TCP streams
//! against an in-process daemon must pass all three gates (bit identity,
//! zero drops, complete metrics) and exit 0. One more row holds
//! `netscatterd` to what the repo benchmark starts it with and sends it.

use netscatter_daemon::cli::parse_serve_args;
use netscatter_daemon::client::{self, Pace};
use netscatter_daemon::protocol::{self, StreamHeader};
use netscatter_daemon::Daemon;
use netscatter_sim::deployment::{Deployment, DeploymentConfig};
use netscatter_sim::fullround::ChannelModel;
use netscatter_sim::scenario::CodingScheme;
use netscatter_sim::stream::{ArrivalConfig, RoundArrivalSource};
use netscatter_sim::stress::{parse_stress_args, run_stress, stress_main};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The daemon command line of `benchmark/src/daemon.rs` parses, and the
/// daemon it describes answers `ready` to a header shaped like each of the
/// five workloads' (`benchmark/src/workload.rs`): the office deployment
/// placed with seed 17, its power-aware bins, the workload's payload bits
/// and coding, a 500 kHz rate. The daemon's own merge accepts each header
/// too. Samples are not sent: what is pinned is that nothing the
/// benchmark asks for is refused.
#[test]
fn the_benchmark_command_line_serves_every_benchmark_header() {
    let opts = parse_serve_args(&args(&[
        "--listen",
        "127.0.0.1:0",
        "--metrics",
        "off",
        "--workers",
        "1",
        "--ring-slots",
        "1024",
        "--log-level",
        "info",
        "--log-format",
        "json",
    ]))
    .expect("the benchmark's daemon flags parse");
    let config = opts.daemon_config();
    let daemon = Daemon::start(config.clone()).expect("daemon starts");
    // (name, devices, payload_bits, coding, concurrent captures)
    for (name, devices, bits, coding, captures) in [
        ("dense256", 256, 40, CodingScheme::None, 1),
        ("sparse16", 16, 8, CodingScheme::None, 1),
        ("coded256", 256, 108, CodingScheme::Conv, 1),
        ("fleet2x64", 64, 40, CodingScheme::None, 2),
        ("churn64", 64, 8, CodingScheme::None, 1),
    ] {
        let deployment = Deployment::generate(
            DeploymentConfig::office(devices.max(16)),
            &mut StdRng::seed_from_u64(17),
        );
        for i in 0..captures {
            let arrivals = ArrivalConfig {
                rate_hz: 100.0,
                stream_secs: 0.1,
                payload_bits: bits,
            };
            let model = ChannelModel::pristine();
            let source = RoundArrivalSource::new(&deployment, devices, &model, arrivals, 42 + i)
                .with_coding(coding)
                .expect("the workload's coding fits its payload");
            let header = StreamHeader {
                name: format!("{name}-{i}"),
                sample_rate_hz: Some(500e3),
                bins: Some(source.assigned_bins().to_vec()),
                payload_bits: Some(bits),
                detection_floor: Some(source.detection_floor_fraction()),
                channel: Some(i as usize),
                coding: (coding != CodingScheme::None).then_some(coding),
                fault_panic_span: None,
            };
            assert_eq!(header.bins.as_ref().map(Vec::len), Some(devices));
            let merged = protocol::stream_config(&header, &config.base);
            let (_, codec) = merged.unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert_eq!(codec.is_some(), coding != CodingScheme::None, "{name}");
            let lines = client::stream_bytes(daemon.ingest_addr(), &header, b"", Pace::Unlimited)
                .expect("transport");
            assert!(
                lines[0].contains(r#""type":"ready""#),
                "{name}-{i}: {lines:?}"
            );
            assert!(
                lines.last().unwrap().contains(r#""type":"end""#),
                "{name}-{i}: {lines:?}"
            );
        }
    }
    daemon.shutdown();
}
