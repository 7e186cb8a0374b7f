//! Exposition-format lint for the metrics-v2 document.
//!
//! The grammar and histogram invariants the endpoint promises are one
//! function, [`metrics::lint`] (`netscatter stress` runs it on live
//! scrapes). Here it runs on a document rendered from a registry exercised
//! across channels, retirement and hostile names, and a table of
//! hand-broken documents proves each rule bites.

use netscatter_daemon::metrics::{self, lint};
use netscatter_daemon::registry::{DaemonHealth, HealthCounter, StreamRegistry};
use std::time::Duration;

/// A registry worked hard enough to exercise every metric family:
/// several channels, recorded rates/frames/latencies, a retired stream,
/// a finished-but-kept stream, and a hostile name.
fn exercised_registry() -> (StreamRegistry, DaemonHealth) {
    let reg = StreamRegistry::with_retention(2);
    for i in 0..4 {
        let s = reg.register_on("churn", i % 3);
        s.record_ingest(10_000 * (i as u64 + 1), i as u64);
        s.record_frame(2);
        s.record_frame(0);
        s.record_link_frame(true);
        s.record_link_frame(false);
        s.record_rates(1e6 * (i + 1) as f64, (i + 1) as f64);
        for k in 0..20 {
            s.record_frame_latency(Duration::from_micros(3 + 40 * k));
        }
        s.set_inactive();
    }
    let live = reg.register_on("live\"quoted\\name", 1);
    live.record_frame(1);
    live.record_frame_latency(Duration::from_millis(2));
    let health = DaemonHealth::new();
    health.bump(HealthCounter::IdleTimeouts);
    (reg, health)
}

#[test]
fn every_line_obeys_the_exposition_grammar() {
    let (reg, health) = exercised_registry();
    let doc = metrics::render(&reg, &health, 12.5);
    // The document must hold what the histogram rules check, or an empty
    // one would pass vacuously.
    assert!(doc.contains("_bucket{") && doc.contains("quantile=\"0.99\""));
    assert_eq!(lint(&doc), Vec::<String>::new());
}

/// Names, order and number formatting of every line are the endpoint's
/// contract with scrapers: the document renders byte for byte as it did
/// when the golden was captured.
#[test]
fn rendered_document_matches_the_committed_golden() {
    let (reg, health) = exercised_registry();
    assert_eq!(
        metrics::render(&reg, &health, 12.5),
        include_str!("golden/metrics_v2.txt")
    );
}

#[test]
fn lint_names_every_way_a_document_can_break() {
    let reg = StreamRegistry::new();
    let s = reg.register_on("a", 0);
    for k in 0..20 {
        s.record_frame_latency(Duration::from_micros(3 + 40 * k));
    }
    let clean = metrics::render(&reg, &DaemonHealth::new(), 1.0);
    assert_eq!(lint(&clean), Vec::<String>::new());
    let p50 = "netscatterd_frame_latency_seconds{quantile=\"0.5\"} ";
    let p50_value = clean.split(p50).nth(1).unwrap().lines().next().unwrap();
    for (from, to, needle) in [
        (
            metrics::METRICS_HEADER,
            "# netscatterd metrics v1",
            "first line",
        ),
        ("netscatterd_streams_total 1", "Bad-Name 1", "grammar"),
        ("{stream=\"a\"} ", "{stream=\"a\",} ", "grammar"),
        (
            "netscatterd_streams_total 1",
            "netscatterd_streams_total one",
            "f64",
        ),
        (
            "netscatterd_frame_latency_seconds_bucket{le=\"+Inf\"} 20",
            "netscatterd_frame_latency_seconds_bucket{le=\"+Inf\"} 21",
            "+Inf bucket must equal _count",
        ),
        (
            &format!("{p50}{p50_value}\n"),
            "",
            "quantile set not pinned",
        ),
        (
            &format!("{p50}{p50_value}"),
            &format!("{p50}9"),
            "out of order",
        ),
    ] {
        assert!(clean.contains(from), "fixture lacks {from:?}");
        let failures = lint(&clean.replacen(from, to, 1));
        assert!(
            failures.iter().any(|f| f.contains(needle)),
            "{from:?} -> {to:?} must be reported as {needle:?}, got {failures:?}"
        );
    }
}
