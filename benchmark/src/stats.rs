//! Order statistics: the percentile picker behind every reported latency
//! and the quartile spread `repeat.sh` gates on.

/// Samples that must lie beyond a gated percentile before it is reported
/// (a p95 of 100 samples rests on 5 observations; of 400, on 20).
pub const MIN_BEYOND: usize = 10;

/// Sorts latency samples ascending (they are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` of the samples at or below it. `None` when fewer than
/// `min_beyond` samples lie strictly beyond that rank (or there are none
/// at all): gated metrics pass [`MIN_BEYOND`], diagnostics pass 0.
pub fn percentile(sorted: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Median of ascending `sorted` (mean of the middle two when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of ascending `sorted` as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method) — the rule the benchmark's steadiness is judged by. Needs at
/// least two samples.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, interpolated, clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank_from_a_sorted_fixture() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50, MIN_BEYOND), Some(50.0));
        assert_eq!(percentile(&v, 0.90, MIN_BEYOND), Some(90.0));
        assert_eq!(percentile(&v, 0.99, 0), Some(99.0));
        assert_eq!(percentile(&v, 1.0, 0), Some(100.0));
        assert_eq!(percentile(&v[..1], 0.5, 0), Some(1.0));
        assert_eq!(percentile(&[], 0.5, 0), None);
    }

    #[test]
    fn percentile_refuses_when_fewer_than_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 of 100 leaves 5 beyond, p90 leaves exactly 10.
        assert_eq!(percentile(&v, 0.95, MIN_BEYOND), None);
        assert_eq!(percentile(&v, 0.90, MIN_BEYOND), Some(90.0));
        // p50 needs 20 samples.
        assert_eq!(percentile(&v[..19], 0.5, MIN_BEYOND), None);
        assert_eq!(percentile(&v[..20], 0.5, MIN_BEYOND), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: clamped
        // interpolation extrapolates past both ends.
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }
}
