//! The reference kernel: how fast the box is computing right now.
//!
//! For minutes at a time everything on the benchmark's box computes up to
//! 1.5× slower — set-up, the daemon's user time and every latency together
//! (README, *Noise*). A fixed piece of arithmetic timed on the generator's
//! CPU all through the window slows down with them, so a latency divided
//! by the kernel's median time (`ref`, one execution) holds still where
//! the same latency in milliseconds does not.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Elements in each of the kernel's two arrays: 32 KiB together, resident
/// in the first-level cache.
const LANES: usize = 4096;

/// Passes over the arrays per execution: about 0.4 ms on a quiet box.
const PASSES: usize = 200;

/// Time between executions: under 2% of the generator's CPU.
const PERIOD: Duration = Duration::from_millis(50);

/// Runs the kernel when one is due and keeps what it measured.
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    epoch: Instant,
    next: Instant,
    /// `(seconds since the epoch, kernel milliseconds)` per execution.
    readings: Vec<(f64, f64)>,
}

/// One execution: `PASSES` × `LANES` multiply-adds on eight independent
/// accumulators, so the time is set by arithmetic throughput, not by one
/// dependency chain.
fn kernel(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0f32; 8];
    for _ in 0..PASSES {
        for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            for k in 0..8 {
                acc[k] = acc[k] * 0.999 + x[k] * y[k];
            }
        }
    }
    acc.iter().sum()
}

impl Calibrator {
    /// A calibrator whose readings are stamped in seconds since `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            a: (0..LANES).map(|i| i as f32 * 1e-3).collect(),
            b: (0..LANES).map(|i| 1.0 / (i + 1) as f32).collect(),
            epoch,
            next: epoch,
            readings: Vec::new(),
        }
    }

    /// How long the caller may sleep before the next execution is due.
    pub fn until_due(&self) -> Duration {
        self.next.saturating_duration_since(Instant::now())
    }

    /// Executes the kernel if one is due: once untimed, to pull the arrays
    /// back into the cache, then timed.
    pub fn poll(&mut self) {
        let now = Instant::now();
        if now < self.next {
            return;
        }
        black_box(kernel(black_box(&self.a), black_box(&self.b)));
        let t = Instant::now();
        black_box(kernel(black_box(&self.a), black_box(&self.b)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let at_s = t.saturating_duration_since(self.epoch).as_secs_f64();
        self.readings.push((at_s, ms));
        self.next = now + PERIOD;
    }

    /// The kernel times read at or after `from_s`, in milliseconds.
    pub fn readings_ms(&self, from_s: f64) -> Vec<f64> {
        let kept = self.readings.iter().filter(|(at_s, _)| *at_s >= from_s);
        kept.map(|&(_, ms)| ms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_taken_when_due_and_filtered_by_time() {
        let mut cal = Calibrator::new(Instant::now());
        assert_eq!(cal.until_due(), Duration::ZERO);
        cal.poll();
        // Not due again yet: nothing is added.
        cal.poll();
        assert_eq!(cal.readings_ms(0.0).len(), 1);
        assert!(cal.until_due() > Duration::ZERO);
        std::thread::sleep(cal.until_due());
        cal.poll();
        let all = cal.readings_ms(0.0);
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|&ms| ms > 0.0));
        assert_eq!(cal.readings_ms(PERIOD.as_secs_f64() / 2.0).len(), 1);
        assert!(cal.readings_ms(3600.0).is_empty());
    }
}
