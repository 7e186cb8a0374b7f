//! Small statistics toolbox used by the experiment drivers.
//!
//! Most of the paper's figures are CDFs (Fig. 4, Fig. 9, Fig. 14, Fig. 15(a))
//! or error rates over repeated trials (Fig. 12, Fig. 17–19). This module
//! provides the empirical-distribution and summary-statistics helpers those
//! drivers share, so each experiment binary stays focused on the experiment
//! itself.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance. Returns 0.0 for slices with fewer than two elements.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Minimum of a slice (0.0 for empty input).
pub fn min(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// Maximum of a slice (0.0 for empty input).
pub fn max(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// An empirical cumulative distribution function built from samples.
///
/// # Examples
///
/// ```
/// use netscatter_dsp::stats::EmpiricalCdf;
///
/// let cdf = EmpiricalCdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.probability_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.quantile(1.0), 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from samples (NaNs are removed).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples retained.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x).
    pub fn probability_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Complementary CDF, P(X > x) — the 1−CDF axis used by Fig. 14(b) and
    /// Fig. 15(a).
    pub fn probability_above(&self, x: f64) -> f64 {
        1.0 - self.probability_at_or_below(x)
    }

    /// The q-quantile (q in \[0, 1\]) using the nearest-rank method.
    /// Returns 0.0 for an empty CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_of_known_set() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((variance(&v) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_element_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(min(&[5.0, -2.0]), -2.0);
        assert_eq!(max(&[5.0, -2.0]), 5.0);
    }

    #[test]
    fn cdf_probabilities_and_quantiles() {
        let cdf = EmpiricalCdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.probability_at_or_below(0.5), 0.0);
        assert_eq!(cdf.probability_at_or_below(1.0), 0.25);
        assert_eq!(cdf.probability_at_or_below(2.5), 0.5);
        assert_eq!(cdf.probability_at_or_below(10.0), 1.0);
        assert_eq!(cdf.probability_above(2.5), 0.5);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.median(), 2.0);
    }

    #[test]
    fn cdf_removes_nans_and_handles_empty() {
        let cdf = EmpiricalCdf::from_samples(vec![f64::NAN, 1.0, f64::NAN]);
        assert_eq!(cdf.len(), 1);
        let empty = EmpiricalCdf::from_samples(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.probability_at_or_below(1.0), 0.0);
        assert_eq!(empty.quantile(0.7), 0.0);
    }
}
