//! Analysis windows for short-time spectral analysis.
//!
//! The spectrogram of Fig. 16 and several diagnostics apply a window to each
//! analysis frame to control spectral leakage. Only the windows actually used
//! by the workspace are provided.

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowKind {
    /// Rectangular (no) window — maximum resolution, highest leakage.
    #[default]
    Rectangular,
    /// Hann window — the default for spectrogram displays.
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window — lowest side lobes of the set.
    Blackman,
}

impl WindowKind {
    /// Evaluates the window at sample `i` of `n` (periodic convention).
    pub fn value(self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
        match self {
            WindowKind::Rectangular => 1.0,
            WindowKind::Hann => 0.5 - 0.5 * x.cos(),
            WindowKind::Hamming => 0.54 - 0.46 * x.cos(),
            WindowKind::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
        }
    }

    /// Generates the full window of length `n`.
    pub fn generate(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.value(i, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_window_is_all_ones() {
        assert!(WindowKind::Rectangular
            .generate(16)
            .iter()
            .all(|v| *v == 1.0));
    }

    #[test]
    fn hann_window_is_zero_at_edges_and_peaks_in_middle() {
        let w = WindowKind::Hann.generate(64);
        assert!(w[0].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
        // Symmetric in the periodic sense: w[i] == w[n-i].
        for i in 1..64 {
            assert!((w[i] - w[64 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn hamming_and_blackman_values_match_references() {
        // Hamming at the midpoint = 0.54 + 0.46 = 1.0; at 0 = 0.08.
        assert!((WindowKind::Hamming.value(0, 64) - 0.08).abs() < 1e-12);
        assert!((WindowKind::Hamming.value(32, 64) - 1.0).abs() < 1e-12);
        // Blackman at 0 = 0.42 - 0.5 + 0.08 = 0.0; at midpoint = 1.0.
        assert!(WindowKind::Blackman.value(0, 64).abs() < 1e-12);
        assert!((WindowKind::Blackman.value(32, 64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths_do_not_panic() {
        assert_eq!(WindowKind::Hann.generate(0).len(), 0);
        assert_eq!(WindowKind::Hann.generate(1), vec![1.0]);
    }
}
