//! Fixed log2-bucket histograms with lock-free recording, mergeable
//! snapshots, and quantile extraction.
//!
//! ## Bucket layout
//!
//! Bucket `i` holds every value whose bit length is `i`: bucket 0 is the
//! value 0, bucket 1 is the value 1, bucket `i ≥ 2` is `[2^(i-1), 2^i)`.
//! 65 buckets cover the entire `u64` range, so recording never clamps and
//! the layout never needs configuration — which is what makes snapshots
//! from different components, channels, and processes unconditionally
//! mergeable by bucket-wise addition.
//!
//! Log2 buckets trade resolution for cost: any value lands in its bucket
//! with one `leading_zeros` and one relaxed `fetch_add` (no floating
//! point, no comparison ladder, no lock), and a quantile read from the
//! snapshot is exact to within its bucket (≤ 2× relative error) —
//! linear interpolation inside the bucket plus a recorded true maximum
//! tighten the tail estimate in practice. For latency telemetry, where
//! the question is "did p99 move by 2×?", that resolution is the right
//! spend for a record path cheap enough to leave on in production.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: one per possible `u64` bit length (0..=64).
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: its bit length.
#[inline]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A lock-free log2-bucket histogram.
///
/// `record` is wait-free (two relaxed RMWs plus a `fetch_max`); reads go
/// through [`Histogram::snapshot`], which is what renders, merges, and
/// extracts quantiles — the live histogram itself is write-only by
/// design so the hot path never shares a cache line protocol with a
/// scraper beyond plain atomic loads.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating past ~584 years).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A plain-data copy of the current state.
    ///
    /// Not an atomic cut: concurrent records may straddle the read, so a
    /// snapshot's `sum` can momentarily disagree with its counts by the
    /// in-flight observations. For telemetry that skew is harmless and
    /// buying a consistent cut would put a lock on the record path.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data histogram state: mergeable, quantile-extractable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket = value bit length).
    pub counts: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty, the merge
    /// identity for a running minimum).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Fold another snapshot into this one (bucket-wise addition; the
    /// max is the max of maxes). This is the per-channel → per-gateway
    /// → per-daemon rollup operation.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated value at quantile `q` (e.g. 0.50, 0.95, 0.99).
    ///
    /// Finds the bucket holding the rank-`q` observation and linearly
    /// interpolates inside it; the estimate is clamped to the recorded
    /// true [min, max], which makes tail quantiles of small populations
    /// (and every quantile of a constant distribution) exact rather than
    /// rounded to a power of two. Empty → 0.0.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum as f64 >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = bucket_lower(i) as f64;
                let width = bucket_upper(i) as f64 + 1.0 - lo;
                let before = (cum - c) as f64;
                let frac = ((rank - before) / c as f64).clamp(0.0, 1.0);
                return (lo + frac * width).clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower bound bucket {i}");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound bucket {i}");
        }
    }

    #[test]
    fn quantiles_pinned_on_uniform_1_to_100() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // p50: rank 50 falls in bucket [32, 64) after 31 earlier
        // observations; 32 + (50-31)/32 * 32 = 51 exactly.
        assert_eq!(s.quantile(0.50), 51.0);
        // p95 and p99 interpolate past the recorded max of 100 inside
        // the [64, 128) bucket and must clamp to it.
        assert_eq!(s.quantile(0.95), 100.0);
        assert_eq!(s.quantile(0.99), 100.0);
        assert_eq!(s.quantile(0.0), 1.0); // floor of the first nonempty bucket
        assert_eq!(s.quantile(1.0), 100.0);
    }

    #[test]
    fn quantile_of_constant_distribution_is_exact() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(7);
        }
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(s.quantile(q), 7.0, "q={q}");
        }
        assert_eq!(s.mean(), 7.0);
    }

    #[test]
    fn empty_histogram_is_zero_everywhere() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [1u64, 5, 9, 200, 3000] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 70, 4096, 1 << 40] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn record_duration_uses_nanos() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        let s = h.snapshot();
        assert_eq!(s.sum, 3000);
        assert_eq!(s.max, 3000);
    }
}
