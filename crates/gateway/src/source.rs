//! Sample-stream sources for the gateway.
//!
//! A [`StreamSource`] produces the continuous complex-baseband stream the
//! gateway consumes — the role the SDR front-end plays for the paper's AP.
//! Two implementations exist:
//!
//! * [`ReplaySource`] (here) — a deterministic in-memory replay used by the
//!   equivalence tests and the experiments;
//! * the live round synthesizer in the simulator crate
//!   (`netscatter_sim::stream`), which replays channel-realized rounds as an
//!   asynchronous stream with Poisson arrivals.
//!
//! `.cf32` captures reach the gateway over the daemon's socket
//! (`netscatter_daemon::protocol::Cf32Decoder`), not through a source.

use netscatter_dsp::Complex64;

/// A pull-based source of contiguous baseband samples.
///
/// Sources are consumed on the producer thread of
/// [`crate::pipeline::run_stream`], hence the `Send` bound.
pub trait StreamSource: Send {
    /// Fills `out` with the next samples of the stream and returns how many
    /// were written. Writing fewer than `out.len()` samples — in particular
    /// zero — signals the end of the stream; the gateway never calls `fill`
    /// again after a short read.
    fn fill(&mut self, out: &mut [Complex64]) -> usize;

    /// The stream's sample rate in Hz (complex baseband, so equal to the
    /// occupied bandwidth). Used to compute the real-time factor.
    fn sample_rate_hz(&self) -> f64;
}

/// A deterministic source replaying a fixed sample buffer.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    samples: Vec<Complex64>,
    cursor: usize,
    sample_rate_hz: f64,
}

impl ReplaySource {
    /// Replays `samples` at `sample_rate_hz`.
    pub fn from_samples(samples: Vec<Complex64>, sample_rate_hz: f64) -> Self {
        Self {
            samples,
            cursor: 0,
            sample_rate_hz,
        }
    }

    /// Total number of samples the replay will produce.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the replay holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl StreamSource for ReplaySource {
    fn fill(&mut self, out: &mut [Complex64]) -> usize {
        let n = out.len().min(self.samples.len() - self.cursor);
        out[..n].copy_from_slice(&self.samples[self.cursor..self.cursor + n]);
        self.cursor += n;
        n
    }

    fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_fills_in_order_and_signals_end() {
        let samples: Vec<Complex64> = (0..10).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let mut src = ReplaySource::from_samples(samples.clone(), 500e3);
        assert_eq!(src.len(), 10);
        assert!(!src.is_empty());
        let mut buf = vec![Complex64::ZERO; 4];
        assert_eq!(src.fill(&mut buf), 4);
        assert_eq!(buf, samples[..4]);
        assert_eq!(src.fill(&mut buf), 4);
        assert_eq!(buf, samples[4..8]);
        assert_eq!(src.fill(&mut buf), 2);
        assert_eq!(buf[..2], samples[8..]);
        assert_eq!(src.fill(&mut buf), 0);
        assert_eq!(src.sample_rate_hz(), 500e3);
    }
}
