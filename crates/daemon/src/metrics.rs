//! The plain-text metrics endpoint.
//!
//! A connection to the metrics port gets one UTF-8 text document and an
//! immediate close — the exposition-format idiom (`name{label="v"} value`
//! lines) without requiring any HTTP machinery on either side:
//!
//! ```text
//! # netscatterd metrics v2
//! netscatterd_build_info{version="0.1.0"} 1
//! netscatterd_uptime_seconds 4.2
//! netscatterd_streams_active 2
//! netscatterd_streams_total 3
//! netscatterd_streams_retired_total 0
//! netscatterd_rounds_decoded_total 40
//! netscatterd_false_alarms_total 0
//! netscatterd_ring_dropped_total 0
//! netscatterd_frame_latency_seconds_count 40
//! netscatterd_frame_latency_seconds_sum 0.0061
//! netscatterd_frame_latency_seconds_bucket{le="0.000131072"} 12
//! netscatterd_frame_latency_seconds_bucket{le="+Inf"} 40
//! netscatterd_frame_latency_seconds{quantile="0.99"} 0.000213
//! netscatterd_aggregate_msamples_per_sec 23.84
//! netscatterd_channels_total 2
//! netscatterd_channel_streams{channel="0"} 1
//! netscatterd_channel_samples_total{channel="0"} 500000
//! netscatterd_channel_msamples_per_sec{channel="0"} 11.92
//! netscatterd_channel_stage_seconds_count{channel="0",stage="decode"} 14
//! netscatterd_channel_stage_seconds{channel="0",stage="decode",quantile="0.5"} 0.0004
//! netscatterd_stream_active{stream="door-ap"} 1
//! netscatterd_stream_frame_latency_seconds_count{stream="door-ap"} 14
//! netscatterd_stream_frame_latency_seconds{stream="door-ap",quantile="0.95"} 0.0002
//! ```
//!
//! (abridged — every v1 line is still present, and each histogram block
//! carries `_count`, `_sum`, cumulative `_bucket{le=…}` lines for its
//! non-empty buckets, and pinned `quantile="0.5"/"0.95"/"0.99"` lines).
//!
//! The per-stream block repeats for every stream still in the registry
//! table; `netscatterd_stream_active` distinguishes live connections from
//! finished ones. Finished streams beyond `--metrics-retention` are
//! retired: their per-stream block disappears, but their counters and
//! latency histograms remain folded into every `*_total`, aggregate and
//! per-channel line — a scraper can never watch a monotone metric
//! regress. Streams tagged with an RF `channel` in their ingest header
//! roll up into one `netscatterd_channel_*` block per channel (untagged
//! streams land on channel 0) carrying per-stage latency histograms
//! (`stage="ring_block_wait"/"gate_to_anchor"/"queue_wait"/"decode"`)
//! merged across that channel's engines, and
//! `netscatterd_aggregate_msamples_per_sec` sums every live-table
//! stream's last-recorded decode throughput — the sharded gateway's
//! whole-AP processing rate.
//!
//! Grammar guarantee (enforced by [`lint`], which the exposition lint test
//! runs on a synthetic registry and `netscatter stress` on every live
//! scrape): every line after the header is `name value` or
//! `name{label="v",…} value`, names are `[a-z_][a-z0-9_]*`, label values
//! escape `\`, `"` and newlines, the value is always parseable as `f64`,
//! bucket lines are cumulative and monotone with ascending `le` bounds, the
//! `le="+Inf"` bucket equals the histogram's `_count`, and every histogram
//! carries exactly the pinned quantile set, ordered p50 ≤ p95 ≤ p99.

use crate::registry::{Counter, DaemonHealth, StreamRegistry, HEALTH_COUNTERS, STREAM_COUNTERS};
use netscatter_gateway::PipelineTelemetry;
use netscatter_obs::hist::bucket_upper;
use netscatter_obs::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The version line heading every metrics document.
pub const METRICS_HEADER: &str = "# netscatterd metrics v2";

/// Nanoseconds per second: the divisor mapping histogram ticks to the
/// `_seconds` metrics. Division by an exact power of ten rounds
/// correctly, so the exported shortest-roundtrip decimals stay clean
/// (`0.000004095`, not `0.000004095000000000001`).
const NS_PER_SEC: f64 = 1e9;

/// Renders the full metrics document for the registry's current state.
pub fn render(registry: &StreamRegistry, health: &DaemonHealth, uptime_seconds: f64) -> String {
    let streams = registry.snapshot();
    let retired = registry.retired();
    let mut out = String::new();
    let _ = writeln!(out, "{METRICS_HEADER}");
    let _ = writeln!(
        out,
        "netscatterd_build_info{{version=\"{}\"}} 1",
        env!("CARGO_PKG_VERSION")
    );
    let _ = writeln!(out, "netscatterd_uptime_seconds {uptime_seconds:.3}");
    let _ = writeln!(
        out,
        "netscatterd_streams_active {}",
        streams.iter().filter(|s| s.active).count()
    );
    let _ = writeln!(
        out,
        "netscatterd_streams_total {}",
        streams.len() as u64 + retired.streams
    );
    let _ = writeln!(out, "netscatterd_streams_retired_total {}", retired.streams);
    // Monotone totals: live table plus everything folded out of retired
    // streams, so retirement never regresses a `*_total` line.
    let mut totals = retired.counters;
    for s in &streams {
        totals += s.counters;
    }
    for (counter, stem) in exported_counters() {
        let _ = writeln!(out, "netscatterd_{stem}_total {}", totals[counter]);
    }
    for &(counter, stem) in HEALTH_COUNTERS {
        let _ = writeln!(out, "netscatterd_{stem}_total {}", health.get(counter));
    }
    // Daemon-wide ingest→emit frame latency: every stream's histogram
    // (live table and retired fold) merged into one.
    let mut frame_latency = retired.frame_latency;
    for s in &streams {
        frame_latency.merge(&s.frame_latency);
    }
    write_histogram(
        &mut out,
        "netscatterd_frame_latency_seconds",
        "",
        &frame_latency,
        NS_PER_SEC,
    );
    // Channel rollups: one block per RF channel the sharded gateway has
    // served, plus the aggregate rate across all shards. Rates are each
    // stream's last-recorded throughput (live streams report their current
    // rate, finished streams their final one; retired streams no longer
    // contribute — a rate is not a monotone total).
    let aggregate_sps: f64 = streams.iter().map(|s| s.samples_per_sec).sum();
    let _ = writeln!(
        out,
        "netscatterd_aggregate_msamples_per_sec {:.4}",
        aggregate_sps / 1e6
    );
    let mut channels: Vec<usize> = streams
        .iter()
        .map(|s| s.channel)
        .chain(retired.channels.keys().copied())
        .collect();
    channels.sort_unstable();
    channels.dedup();
    let _ = writeln!(out, "netscatterd_channels_total {}", channels.len());
    for &channel in &channels {
        let on_channel = || streams.iter().filter(move |s| s.channel == channel);
        let folded = retired.channels.get(&channel);
        let _ = writeln!(
            out,
            "netscatterd_channel_streams{{channel=\"{channel}\"}} {}",
            on_channel().count() as u64 + folded.map_or(0, |f| f.streams)
        );
        let _ = writeln!(
            out,
            "netscatterd_channel_samples_total{{channel=\"{channel}\"}} {}",
            on_channel()
                .map(|s| s.counters[Counter::SamplesIn])
                .sum::<u64>()
                + folded.map_or(0, |f| f.samples_in)
        );
        let _ = writeln!(
            out,
            "netscatterd_channel_msamples_per_sec{{channel=\"{channel}\"}} {:.4}",
            on_channel().map(|s| s.samples_per_sec).sum::<f64>() / 1e6
        );
        // Per-stage latency histograms, merged across every engine that
        // served this channel (live mid-stream snapshots included).
        let mut stages = folded.map(|f| f.stages.clone()).unwrap_or_default();
        for s in on_channel() {
            stages.merge(&s.stages);
        }
        write_channel_stages(&mut out, channel, &stages);
    }
    for s in &streams {
        let label = escape_label(&s.name);
        let _ = writeln!(
            out,
            "netscatterd_stream_active{{stream=\"{label}\"}} {}",
            u8::from(s.active)
        );
        let _ = writeln!(
            out,
            "netscatterd_stream_channel{{stream=\"{label}\"}} {}",
            s.channel
        );
        let _ = writeln!(
            out,
            "netscatterd_stream_samples_total{{stream=\"{label}\"}} {}",
            s.counters[Counter::SamplesIn]
        );
        let _ = writeln!(
            out,
            "netscatterd_stream_msamples_per_sec{{stream=\"{label}\"}} {:.4}",
            s.samples_per_sec / 1e6
        );
        let _ = writeln!(
            out,
            "netscatterd_stream_real_time_factor{{stream=\"{label}\"}} {:.4}",
            s.real_time_factor
        );
        for (counter, stem) in exported_counters() {
            let _ = writeln!(
                out,
                "netscatterd_stream_{stem}{{stream=\"{label}\"}} {}",
                s.counters[counter]
            );
        }
        write_histogram(
            &mut out,
            "netscatterd_stream_frame_latency_seconds",
            &format!("stream=\"{label}\""),
            &s.frame_latency,
            NS_PER_SEC,
        );
    }
    out
}

/// The [`STREAM_COUNTERS`] rows that carry a metric stem, in table order:
/// what the daemon-wide `*_total` block and each per-stream block list.
fn exported_counters() -> impl Iterator<Item = (Counter, &'static str)> {
    STREAM_COUNTERS
        .iter()
        .filter_map(|&(counter, _, stem)| Some((counter, stem?)))
}

/// Writes one channel's per-stage latency rollup: the four nanosecond
/// histograms as `_seconds` metrics under a `stage` label, the
/// sample-domain gate→anchor histogram in its own metric, and the ring
/// pressure gauges.
fn write_channel_stages(out: &mut String, channel: usize, stages: &PipelineTelemetry) {
    let label = |stage: &str| format!("channel=\"{channel}\",stage=\"{stage}\"");
    for (stage, hist) in [
        ("ring_block_wait", &stages.ring_block_wait_ns),
        ("gate_to_anchor", &stages.detect_gate_to_anchor_ns),
        ("queue_wait", &stages.queue_wait_ns),
        ("decode", &stages.decode_ns),
    ] {
        write_histogram(
            out,
            "netscatterd_channel_stage_seconds",
            &label(stage),
            hist,
            NS_PER_SEC,
        );
    }
    write_histogram(
        out,
        "netscatterd_channel_gate_to_anchor_samples",
        &format!("channel=\"{channel}\""),
        &stages.detect_gate_to_anchor_samples,
        1.0,
    );
    let _ = writeln!(
        out,
        "netscatterd_channel_ring_full_events_total{{channel=\"{channel}\"}} {}",
        stages.ring_full_events
    );
    let _ = writeln!(
        out,
        "netscatterd_channel_ring_occupancy_hwm{{channel=\"{channel}\"}} {}",
        stages.ring_occupancy_hwm
    );
}

/// Writes one histogram as exposition lines: `_count`, `_sum`, cumulative
/// `_bucket{le=…}` lines for each non-empty bucket plus the `+Inf`
/// closing bucket, and `quantile="0.5"/"0.95"/"0.99"` lines. `labels` is
/// the pre-rendered label list without braces (may be empty); `divisor`
/// maps recorded ticks to the exported unit ([`NS_PER_SEC`] for ns →
/// seconds, 1 for dimensionless). Scaled values print through `f64`'s
/// shortest-roundtrip `Display`, so they always reparse exactly.
fn write_histogram(
    out: &mut String,
    metric: &str,
    labels: &str,
    h: &HistogramSnapshot,
    divisor: f64,
) {
    let with = |extra: &str| -> String {
        if labels.is_empty() {
            format!("{{{extra}}}")
        } else if extra.is_empty() {
            format!("{{{labels}}}")
        } else {
            format!("{{{labels},{extra}}}")
        }
    };
    let plain = if labels.is_empty() {
        String::new()
    } else {
        with("")
    };
    let _ = writeln!(out, "{metric}_count{plain} {}", h.count());
    let _ = writeln!(out, "{metric}_sum{plain} {}", h.sum as f64 / divisor);
    let mut cumulative = 0u64;
    for (i, &n) in h.counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        let le = bucket_upper(i) as f64 / divisor;
        let _ = writeln!(
            out,
            "{metric}_bucket{} {cumulative}",
            with(&format!("le=\"{le}\""))
        );
    }
    let _ = writeln!(out, "{metric}_bucket{} {}", with("le=\"+Inf\""), h.count());
    for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        let _ = writeln!(
            out,
            "{metric}{} {}",
            with(&format!("quantile=\"{tag}\"")),
            h.quantile(q) / divisor
        );
    }
}

/// Escapes a stream name for use inside a `stream="…"` label.
fn escape_label(name: &str) -> String {
    name.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The quantile labels every histogram block carries, in document order.
const PINNED_QUANTILES: [&str; 3] = ["0.5", "0.95", "0.99"];

/// Parses `name{key="value",…}` into the metric name and its labels with
/// escapes resolved; `None` when the series violates the grammar.
#[inline] // with `lint`, see there
fn parse_series(series: &str) -> Option<(&str, Vec<(&str, String)>)> {
    let (name, mut rest) = match series.split_once('{') {
        None => (series, ""),
        Some((name, labels)) => (name, labels.strip_suffix('}')?),
    };
    let mut chars = name.chars();
    let first = chars.next()?;
    if !(first.is_ascii_lowercase() || first == '_')
        || !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        || (rest.is_empty() && series.contains('{'))
    {
        return None; // bad name, or `name{}`
    }
    let mut labels = Vec::new();
    while !rest.is_empty() {
        let (key, after_eq) = rest.split_once("=\"")?;
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
            return None;
        }
        // The value runs to the first unescaped quote.
        let mut value = String::new();
        let mut iter = after_eq.char_indices();
        let end = loop {
            match iter.next()? {
                (_, '\\') => match iter.next()?.1 {
                    escaped @ ('\\' | '"' | 'n') => value.push(escaped),
                    _ => return None,
                },
                (i, '"') => break i,
                (_, c) => value.push(c),
            }
        };
        labels.push((key, value));
        rest = &after_eq[end + 1..];
        if !rest.is_empty() {
            // More pairs follow a comma; a trailing comma is an error.
            rest = rest.strip_prefix(',').filter(|more| !more.is_empty())?;
        }
    }
    Some((name, labels))
}

/// Checks `doc` against the grammar and histogram invariants the module
/// docs promise and returns one message per violation (empty = clean): the
/// header and `build_info` lines, every series and value well-formed, and
/// per histogram — `le` bounds ascending, buckets cumulative, closed by a
/// `le="+Inf"` bucket equal to `_count`, exactly the pinned quantiles,
/// ordered, finite and non-negative.
///
/// `#[inline]` so the validator is compiled into its callers (the lint
/// test, `netscatter stress`) and not into this crate's objects: the daemon
/// never calls it, and `netscatterd`'s machine code stays what it is without.
#[inline]
pub fn lint(doc: &str) -> Vec<String> {
    // Histogram lines grouped by (metric, labels other than le/quantile),
    // each group in document order.
    type Key = (String, String);
    let mut buckets: BTreeMap<Key, Vec<(String, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<Key, u64> = BTreeMap::new();
    let mut quantiles: BTreeMap<Key, Vec<(String, f64)>> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut lines = doc.lines();
    if lines.next() != Some(METRICS_HEADER) {
        failures.push(format!("first line is not {METRICS_HEADER:?}"));
    }
    let mut build_info = false;
    for line in lines {
        let Some((series, value)) = line.rsplit_once(' ') else {
            failures.push(format!("no value separator in {line:?}"));
            continue;
        };
        let Ok(number) = value.parse::<f64>() else {
            failures.push(format!("value does not parse as f64 in {line:?}"));
            continue;
        };
        let Some((name, labels)) = parse_series(series) else {
            failures.push(format!("series violates the grammar in {line:?}"));
            continue;
        };
        build_info |= name == "netscatterd_build_info";
        let label = |wanted: &str| labels.iter().find(|(k, _)| *k == wanted);
        let key = |metric: &str| {
            let rest: Vec<String> = labels
                .iter()
                .filter(|(k, _)| !matches!(*k, "le" | "quantile"))
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            (metric.to_string(), rest.join(","))
        };
        if let Some((_, q)) = label("quantile") {
            quantiles
                .entry(key(name))
                .or_default()
                .push((q.clone(), number));
        } else if let Some(base) = name.strip_suffix("_bucket") {
            match (label("le"), value.parse::<u64>()) {
                (Some((_, le)), Ok(n)) => {
                    buckets.entry(key(base)).or_default().push((le.clone(), n))
                }
                _ => failures.push(format!("bucket line needs le and an integer in {line:?}")),
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            match value.parse::<u64>() {
                Ok(n) => {
                    counts.insert(key(base), n);
                }
                Err(_) => failures.push(format!("_count is not an integer in {line:?}")),
            }
        }
    }
    if !build_info {
        failures.push("no netscatterd_build_info line".to_string());
    }
    for (key, group) in &buckets {
        let (inf, finite) = group.split_last().expect("groups are created non-empty");
        if inf.0 != "+Inf" {
            failures.push(format!("{key:?}: buckets not closed by le=\"+Inf\""));
        }
        let (mut prev_le, mut prev_cum) = (f64::NEG_INFINITY, 0u64);
        for (le, cum) in finite {
            // A NaN or unparsable bound fails the ascending comparison.
            let le: f64 = le.parse().unwrap_or(f64::NAN);
            if le.partial_cmp(&prev_le) != Some(std::cmp::Ordering::Greater) {
                failures.push(format!("{key:?}: le bounds not ascending"));
            }
            if *cum < prev_cum {
                failures.push(format!("{key:?}: buckets not cumulative"));
            }
            (prev_le, prev_cum) = (le, *cum);
        }
        if inf.1 < prev_cum || counts.get(key) != Some(&inf.1) {
            failures.push(format!("{key:?}: +Inf bucket must equal _count"));
        }
        if !quantiles.contains_key(key) {
            failures.push(format!("{key:?}: histogram without quantile lines"));
        }
    }
    for (key, qs) in &quantiles {
        if !qs.iter().map(|(q, _)| q.as_str()).eq(PINNED_QUANTILES) {
            failures.push(format!("{key:?}: quantile set not pinned to p50/p95/p99"));
        } else if !qs.windows(2).all(|w| w[0].1 <= w[1].1) {
            failures.push(format!("{key:?}: quantiles out of order: {qs:?}"));
        }
        if !qs.iter().all(|(_, v)| v.is_finite() && *v >= 0.0) {
            failures.push(format!("{key:?}: non-finite or negative quantile: {qs:?}"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::HealthCounter;
    use std::time::Duration;

    #[test]
    fn document_carries_totals_and_a_block_per_stream() {
        let reg = StreamRegistry::new();
        let a = reg.register_on("a", 0);
        a.record_ingest(1_000_000, 2);
        a.record_frame(3);
        a.record_rates(5e6, 10.0);
        let b = reg.register_on("b", 1);
        b.record_frame(0);
        b.record_link_frame(true);
        b.record_link_frame(false);
        b.record_rates(2e6, 4.0);
        b.set_inactive();
        let health = DaemonHealth::new();
        health.bump(HealthCounter::ConnsRejected);
        health.bump(HealthCounter::WorkerPanics);

        let doc = render(&reg, &health, 1.25);
        assert!(doc.starts_with(METRICS_HEADER));
        assert!(doc.contains(&format!(
            "netscatterd_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(doc.contains("netscatterd_uptime_seconds 1.250"));
        assert!(doc.contains("netscatterd_streams_active 1"));
        assert!(doc.contains("netscatterd_streams_total 2"));
        assert!(doc.contains("netscatterd_streams_retired_total 0"));
        assert!(doc.contains("netscatterd_rounds_decoded_total 1"));
        assert!(doc.contains("netscatterd_false_alarms_total 1"));
        assert!(doc.contains("netscatterd_frames_ok_total 1"));
        assert!(doc.contains("netscatterd_frames_failed_crc_total 1"));
        assert!(doc.contains("netscatterd_ring_dropped_total 2"));
        assert!(doc.contains("netscatterd_conns_rejected_total 1"));
        assert!(doc.contains("netscatterd_header_timeouts_total 0"));
        assert!(doc.contains("netscatterd_idle_timeouts_total 0"));
        assert!(doc.contains("netscatterd_serve_panics_total 0"));
        assert!(doc.contains("netscatterd_worker_panics_total 1"));
        // Shard rollups: the aggregate sums both streams' rates, and each
        // channel block sums only its own.
        assert!(doc.contains("netscatterd_aggregate_msamples_per_sec 7.0000"));
        assert!(doc.contains("netscatterd_channels_total 2"));
        assert!(doc.contains("netscatterd_channel_streams{channel=\"0\"} 1"));
        assert!(doc.contains("netscatterd_channel_samples_total{channel=\"0\"} 1000000"));
        assert!(doc.contains("netscatterd_channel_msamples_per_sec{channel=\"0\"} 5.0000"));
        assert!(doc.contains("netscatterd_channel_streams{channel=\"1\"} 1"));
        assert!(doc.contains("netscatterd_channel_msamples_per_sec{channel=\"1\"} 2.0000"));
        assert!(doc.contains("netscatterd_stream_active{stream=\"a\"} 1"));
        assert!(doc.contains("netscatterd_stream_active{stream=\"b\"} 0"));
        assert!(doc.contains("netscatterd_stream_channel{stream=\"a\"} 0"));
        assert!(doc.contains("netscatterd_stream_channel{stream=\"b\"} 1"));
        assert!(doc.contains("netscatterd_stream_samples_total{stream=\"a\"} 1000000"));
        assert!(doc.contains("netscatterd_stream_msamples_per_sec{stream=\"a\"} 5.0000"));
        assert!(doc.contains("netscatterd_stream_real_time_factor{stream=\"a\"} 10.0000"));
        assert!(doc.contains("netscatterd_stream_frames_ok{stream=\"a\"} 0"));
        assert!(doc.contains("netscatterd_stream_frames_ok{stream=\"b\"} 1"));
        assert!(doc.contains("netscatterd_stream_frames_failed_crc{stream=\"b\"} 1"));
        // v2 histogram blocks: the daemon-wide and per-stream frame
        // latency, and per-channel stage latencies, exist even when empty.
        assert!(doc.contains("netscatterd_frame_latency_seconds_count 0"));
        assert!(doc.contains("netscatterd_frame_latency_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(doc.contains("netscatterd_frame_latency_seconds{quantile=\"0.99\"} 0"));
        assert!(doc.contains("netscatterd_stream_frame_latency_seconds_count{stream=\"a\"} 0"));
        assert!(doc
            .contains("netscatterd_channel_stage_seconds_count{channel=\"0\",stage=\"decode\"} 0"));
        assert!(doc.contains("netscatterd_channel_ring_full_events_total{channel=\"1\"} 0"));
        // Every line is `name value` or `name{label} value`.
        for line in doc.lines().skip(1) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
            assert!(parts.next().is_some(), "no metric name in {line:?}");
        }
    }

    #[test]
    fn frame_latency_histograms_carry_buckets_and_quantiles() {
        let reg = StreamRegistry::new();
        let s = reg.register_on("lat", 0);
        // 100 frames at exactly 3 µs: every quantile is pinned to 3e-6 by
        // the histogram's min/max clamp, the single bucket is cumulative,
        // and +Inf equals the count.
        for _ in 0..100 {
            s.record_frame_latency(Duration::from_micros(3));
        }
        let doc = render(&reg, &DaemonHealth::new(), 0.0);
        assert!(doc.contains("netscatterd_stream_frame_latency_seconds_count{stream=\"lat\"} 100"));
        assert!(doc.contains("netscatterd_stream_frame_latency_seconds_sum{stream=\"lat\"} 0.0003"));
        // 3000 ns lands in the [2048, 4095] bucket: le = 4095 ns.
        assert!(doc.contains(
            "netscatterd_stream_frame_latency_seconds_bucket{stream=\"lat\",le=\"0.000004095\"} 100"
        ));
        assert!(doc.contains(
            "netscatterd_stream_frame_latency_seconds_bucket{stream=\"lat\",le=\"+Inf\"} 100"
        ));
        for q in ["0.5", "0.95", "0.99"] {
            assert!(
                doc.contains(&format!(
                    "netscatterd_stream_frame_latency_seconds{{stream=\"lat\",quantile=\"{q}\"}} 0.000003"
                )),
                "missing pinned quantile {q} in:\n{doc}"
            );
        }
        // The daemon-wide merge sees the same 100 frames.
        assert!(doc.contains("netscatterd_frame_latency_seconds_count 100"));
    }

    #[test]
    fn retired_streams_stay_inside_the_totals() {
        let reg = StreamRegistry::with_retention(1);
        for _ in 0..4 {
            let s = reg.register_on("churn", 2);
            s.record_ingest(500, 0);
            s.record_frame(1);
            s.record_frame_latency(Duration::from_micros(8));
            s.set_inactive();
        }
        let doc = render(&reg, &DaemonHealth::new(), 0.0);
        // 4 registered; registration-triggered retirement keeps the cap.
        assert!(doc.contains("netscatterd_streams_total 4"));
        assert!(doc.contains("netscatterd_streams_retired_total 2"));
        assert!(doc.contains("netscatterd_rounds_decoded_total 4"));
        assert!(doc.contains("netscatterd_channel_streams{channel=\"2\"} 4"));
        assert!(doc.contains("netscatterd_channel_samples_total{channel=\"2\"} 2000"));
        assert!(doc.contains("netscatterd_frame_latency_seconds_count 4"));
        // Only unretired streams keep per-stream lines.
        assert!(!doc.contains("netscatterd_stream_active{stream=\"churn\"} "));
        assert!(doc.contains("netscatterd_stream_active{stream=\"churn#4\"} 0"));
    }

    #[test]
    fn hostile_stream_names_stay_inside_their_label() {
        let reg = StreamRegistry::new();
        reg.register_on("a\"b\\c", 0);
        let doc = render(&reg, &DaemonHealth::new(), 0.0);
        assert!(doc.contains("{stream=\"a\\\"b\\\\c\"}"));
    }
}
