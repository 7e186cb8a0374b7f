//! Radix-2 fast Fourier transform with reusable plans.
//!
//! The NetScatter receiver demodulates *all* concurrent devices with a single
//! dechirp-and-FFT per symbol (§3.1), and achieves sub-FFT-bin resolution by
//! zero-padding the dechirped symbol before the transform (§3.2.3). Both
//! operations are provided here.
//!
//! The implementation is an in-place, iterative, decimation-in-time radix-2
//! FFT with precomputed twiddle factors and bit-reversal permutation. A
//! [`Fft`] plan is created once for a given (power-of-two) size and reused
//! for every symbol, which keeps the per-symbol cost to the butterfly passes
//! only — mirroring how a real SDR receiver would reuse an FFT plan.

use crate::complex::Complex64;
use std::f64::consts::PI;
use std::fmt;
use std::sync::Arc;

/// Errors returned by FFT plan construction and execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftError {
    /// The requested transform size is zero or not a power of two.
    SizeNotPowerOfTwo {
        /// The offending size.
        size: usize,
    },
    /// The input buffer length does not match the plan size.
    LengthMismatch {
        /// Plan size.
        expected: usize,
        /// Actual buffer length.
        actual: usize,
    },
    /// The input is longer than the padded transform size.
    InputLongerThanTransform {
        /// Input length.
        input: usize,
        /// Transform size.
        size: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::SizeNotPowerOfTwo { size } => {
                write!(f, "FFT size {size} is not a non-zero power of two")
            }
            FftError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer length {actual} does not match FFT plan size {expected}"
                )
            }
            FftError::InputLongerThanTransform { input, size } => {
                write!(
                    f,
                    "input of {input} samples does not fit a {size}-point transform"
                )
            }
        }
    }
}

impl std::error::Error for FftError {}

/// A reusable radix-2 FFT plan for a fixed power-of-two size.
///
/// The tables are immutable and shared: cloning a plan (one per decode
/// worker, per connection) bumps three reference counts instead of copying
/// them.
///
/// # Examples
///
/// ```
/// use netscatter_dsp::{Complex64, Fft};
///
/// let fft = Fft::new(8).unwrap();
/// // A complex exponential at bin 2 produces a single peak at index 2.
/// let mut buf: Vec<Complex64> = (0..8)
///     .map(|n| Complex64::cis(2.0 * std::f64::consts::PI * 2.0 * n as f64 / 8.0))
///     .collect();
/// fft.forward_in_place(&mut buf).unwrap();
/// let peak = (0..8).max_by(|&a, &b| buf[a].abs().total_cmp(&buf[b].abs())).unwrap();
/// assert_eq!(peak, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    /// Twiddle factors e^{-j 2π k / size} for k in 0..size/2.
    twiddles: Arc<[Complex64]>,
    /// Conjugate twiddle factors, precomputed so the inverse transform's
    /// butterfly loop carries no per-element branch or conjugation.
    twiddles_conj: Arc<[Complex64]>,
    /// Bit-reversal permutation indices.
    reversed: Arc<[usize]>,
}

impl Fft {
    /// Creates a plan for an `size`-point transform.
    ///
    /// Returns [`FftError::SizeNotPowerOfTwo`] unless `size` is a non-zero
    /// power of two.
    pub fn new(size: usize) -> Result<Self, FftError> {
        if size == 0 || !size.is_power_of_two() {
            return Err(FftError::SizeNotPowerOfTwo { size });
        }
        let twiddles: Arc<[Complex64]> = (0..size / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / size as f64))
            .collect();
        let twiddles_conj = twiddles.iter().map(|t| t.conj()).collect();
        let bits = size.trailing_zeros();
        let reversed = (0..size)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (usize::BITS - bits)
                }
            })
            .collect();
        Ok(Self {
            size,
            twiddles,
            twiddles_conj,
            reversed,
        })
    }

    /// The transform size this plan was built for.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Forward transform, in place. The buffer length must equal the plan size.
    pub fn forward_in_place(&self, buf: &mut [Complex64]) -> Result<(), FftError> {
        self.check_len(buf)?;
        self.permute(buf);
        self.butterflies_from(buf, 2, &self.twiddles);
        Ok(())
    }

    /// Inverse transform, in place, including the `1/N` normalization so that
    /// `inverse(forward(x)) == x`.
    fn inverse_in_place(&self, buf: &mut [Complex64]) -> Result<(), FftError> {
        self.check_len(buf)?;
        self.permute(buf);
        self.butterflies_from(buf, 2, &self.twiddles_conj);
        let scale = 1.0 / self.size as f64;
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
        Ok(())
    }

    /// Forward transform of `input` into a newly allocated output vector.
    fn forward(&self, input: &[Complex64]) -> Result<Vec<Complex64>, FftError> {
        let mut buf = input.to_vec();
        self.forward_in_place(&mut buf)?;
        Ok(buf)
    }

    /// Forward transform of an input that is zero-padded up to the plan size.
    ///
    /// This is the sub-bin-resolution operation of §3.2.3: zero-padding in
    /// the time domain interpolates the spectrum (convolution with a Dirichlet
    /// / sinc kernel), which both sharpens peak localization and creates the
    /// side lobes analysed in Fig. 8.
    ///
    /// Returns [`FftError::InputLongerThanTransform`] if `input` is longer
    /// than the plan size.
    pub fn forward_zero_padded(&self, input: &[Complex64]) -> Result<Vec<Complex64>, FftError> {
        let mut buf = Vec::new();
        self.forward_zero_padded_into(input, &mut buf)?;
        Ok(buf)
    }

    /// As [`Self::forward_zero_padded`], but writing the spectrum into a
    /// caller-owned buffer (cleared and resized to the plan size) so the
    /// steady-state decode path performs no heap allocation.
    ///
    /// The transform is *input-pruned*: with `m = input.len()` rounded up to
    /// a power of two and `p = size / m`, the first `log2(p)` butterfly
    /// stages of a decimation-in-time FFT only combine each real sample with
    /// known zeros, which reduces to broadcasting that sample across its
    /// `p`-wide block in bit-reversed order. Those stages (3 of 12 for a
    /// 512-sample symbol in a 4096-point plan, §3.2.3) are skipped entirely
    /// and the butterflies start at length `2p`.
    pub fn forward_zero_padded_into(
        &self,
        input: &[Complex64],
        out: &mut Vec<Complex64>,
    ) -> Result<(), FftError> {
        if input.len() > self.size {
            return Err(FftError::InputLongerThanTransform {
                input: input.len(),
                size: self.size,
            });
        }
        out.clear();
        out.resize(self.size, Complex64::ZERO);
        if input.is_empty() {
            return Ok(());
        }
        let m = input.len().next_power_of_two();
        let p = self.size / m;
        // After bit-reversal permutation of the zero-padded buffer, the
        // non-zero samples sit at indices divisible by p, holding
        // input[bitrev_m(j)] at index j·p; the first log2(p) butterfly
        // stages then merely copy that value across the whole p-block.
        for (j, block) in out.chunks_exact_mut(p).enumerate() {
            let src = self.reversed[j * p];
            if src < input.len() {
                block.fill(input[src]);
            }
        }
        self.butterflies_from(out, 2 * p, &self.twiddles);
        Ok(())
    }

    /// Adds the transform of a lone impulse `value` at sample index `at` to
    /// `spec`: `spec[m] += value · e^{-j2π·m·at/size}`, every factor read
    /// from the plan's table (nothing accumulates) — the rank-one update a
    /// sliding transform makes per one-sample slide. `size ≥ 4`.
    pub(crate) fn add_impulse(&self, spec: &mut [Complex64], at: usize, value: Complex64) {
        let (half, quarter) = (self.size / 2, self.size / 4);
        assert!(quarter > 0 && spec.len() == self.size);
        // A quarter turn of `m` multiplies the factor by `(-j)^at`, so one
        // table read and one product serve four bins.
        let turn = [Complex64::ONE, -Complex64::I, -Complex64::ONE, Complex64::I][at % 4];
        let half_turn = if at % 2 == 0 { 1.0 } else { -1.0 };
        let (lo, hi) = spec.split_at_mut(half);
        let (q0, q1) = lo.split_at_mut(quarter);
        let (q2, q3) = hi.split_at_mut(quarter);
        let mut k = 0;
        for (((s0, s1), s2), s3) in q0.iter_mut().zip(q1).zip(q2).zip(q3) {
            // `k = m·at mod size` (a power of two); the table holds the
            // first half turn and the second is its negative.
            let w = self.twiddles[k & (half - 1)];
            let p = value * if k < half { w } else { -w };
            let r = p * turn;
            *s0 += p;
            *s1 += r;
            *s2 += p * half_turn;
            *s3 += r * half_turn;
            k = (k + at) & (self.size - 1);
        }
    }

    fn check_len(&self, buf: &[Complex64]) -> Result<(), FftError> {
        if buf.len() != self.size {
            Err(FftError::LengthMismatch {
                expected: self.size,
                actual: buf.len(),
            })
        } else {
            Ok(())
        }
    }

    fn permute(&self, buf: &mut [Complex64]) {
        for i in 0..self.size {
            let j = self.reversed[i];
            if j > i {
                buf.swap(i, j);
            }
        }
    }

    /// Runs the butterfly stages from length `start_len` up to the plan size
    /// with the given twiddle table (forward or conjugate). Starting above 2
    /// is how the pruned zero-padded transform skips its all-zero stages.
    fn butterflies_from(&self, buf: &mut [Complex64], start_len: usize, twiddles: &[Complex64]) {
        let n = self.size;
        let mut len = start_len.max(2);
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for chunk in buf.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((a, b), tw) in lo
                    .iter_mut()
                    .zip(hi.iter_mut())
                    .zip(twiddles.iter().step_by(stride))
                {
                    let t = *b * *tw;
                    let u = *a;
                    *a = u + t;
                    *b = u - t;
                }
            }
            len <<= 1;
        }
    }
}

/// Convenience free function: forward FFT of a power-of-two-length buffer.
pub fn fft(input: &[Complex64]) -> Result<Vec<Complex64>, FftError> {
    Fft::new(input.len())?.forward(input)
}

/// Convenience free function: inverse FFT of a power-of-two-length buffer.
pub fn ifft(input: &[Complex64]) -> Result<Vec<Complex64>, FftError> {
    let plan = Fft::new(input.len())?;
    let mut buf = input.to_vec();
    plan.inverse_in_place(&mut buf)?;
    Ok(buf)
}

/// Rotates an FFT output so that bin 0 (DC) sits in the middle of the vector.
///
/// Useful for plotting spectra in the "−BW/2 .. +BW/2" convention used by
/// Fig. 3 and Fig. 16 of the paper.
pub fn fft_shift<T: Copy>(spectrum: &[T]) -> Vec<T> {
    let n = spectrum.len();
    let half = n.div_ceil(2);
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&spectrum[half..]);
    out.extend_from_slice(&spectrum[..half]);
    out
}

/// In-place variant of [`fft_shift`]: rotates the spectrum so that bin 0
/// (DC) sits in the middle, without allocating. Used by the spectrogram
/// path, which shifts one row per STFT frame.
pub fn fft_shift_in_place<T>(spectrum: &mut [T]) {
    let half = spectrum.len().div_ceil(2);
    spectrum.rotate_left(half);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::total_power;

    fn assert_close(a: Complex64, b: Complex64, tol: f64) {
        assert!((a - b).abs() < tol, "{a:?} != {b:?}");
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(
            Fft::new(0).unwrap_err(),
            FftError::SizeNotPowerOfTwo { size: 0 }
        );
        assert_eq!(
            Fft::new(3).unwrap_err(),
            FftError::SizeNotPowerOfTwo { size: 3 }
        );
        assert_eq!(
            Fft::new(100).unwrap_err(),
            FftError::SizeNotPowerOfTwo { size: 100 }
        );
        assert!(Fft::new(1).is_ok());
        assert!(Fft::new(1024).is_ok());
    }

    #[test]
    fn rejects_length_mismatch() {
        let plan = Fft::new(8).unwrap();
        let mut buf = vec![Complex64::ZERO; 4];
        assert!(matches!(
            plan.forward_in_place(&mut buf),
            Err(FftError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut buf = vec![Complex64::ZERO; 16];
        buf[0] = Complex64::ONE;
        Fft::new(16).unwrap().forward_in_place(&mut buf).unwrap();
        for bin in &buf {
            assert_close(*bin, Complex64::ONE, 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_dc_only() {
        let buf = vec![Complex64::ONE; 32];
        let out = fft(&buf).unwrap();
        assert_close(out[0], Complex64::new(32.0, 0.0), 1e-9);
        for bin in &out[1..] {
            assert!(bin.abs() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_expected_bin() {
        let n = 256;
        for target_bin in [1usize, 7, 100, 200, 255] {
            let buf: Vec<Complex64> = (0..n)
                .map(|t| Complex64::cis(2.0 * PI * target_bin as f64 * t as f64 / n as f64))
                .collect();
            let out = fft(&buf).unwrap();
            let peak = (0..n)
                .max_by(|&a, &b| out[a].abs().total_cmp(&out[b].abs()))
                .unwrap();
            assert_eq!(peak, target_bin);
            assert!((out[peak].abs() - n as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_then_inverse_recovers_signal() {
        let n = 128;
        let buf: Vec<Complex64> = (0..n)
            .map(|t| Complex64::new((t as f64 * 0.37).sin(), (t as f64 * 0.11).cos()))
            .collect();
        let spec = fft(&buf).unwrap();
        let back = ifft(&spec).unwrap();
        for (a, b) in buf.iter().zip(back.iter()) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn parseval_theorem_holds() {
        let n = 512;
        let buf: Vec<Complex64> = (0..n)
            .map(|t| {
                Complex64::new(
                    ((t * 7) % 13) as f64 / 13.0 - 0.5,
                    ((t * 5) % 11) as f64 / 11.0,
                )
            })
            .collect();
        let spec = fft(&buf).unwrap();
        let time_energy = total_power(&buf);
        let freq_energy = total_power(&spec) / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn zero_padding_interpolates_spectrum_peak() {
        // A tone at a fractional bin (2.5 of an 8-point grid) cannot be
        // located exactly with an 8-point FFT, but a 64-point zero-padded
        // transform localizes it to 2.5 * (64/8) = bin 20.
        let n = 8;
        let pad = 64;
        let freq_bins = 2.5;
        let input: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * PI * freq_bins * t as f64 / n as f64))
            .collect();
        let plan = Fft::new(pad).unwrap();
        let out = plan.forward_zero_padded(&input).unwrap();
        let peak = (0..pad)
            .max_by(|&a, &b| out[a].abs().total_cmp(&out[b].abs()))
            .unwrap();
        assert_eq!(peak, 20);
    }

    #[test]
    fn zero_padding_rejects_oversized_input() {
        let plan = Fft::new(8).unwrap();
        let input = vec![Complex64::ONE; 9];
        assert!(matches!(
            plan.forward_zero_padded(&input),
            Err(FftError::InputLongerThanTransform { input: 9, size: 8 })
        ));
    }

    #[test]
    fn fft_shift_rotates_by_half() {
        let v: Vec<usize> = (0..8).collect();
        assert_eq!(fft_shift(&v), vec![4, 5, 6, 7, 0, 1, 2, 3]);
        let odd: Vec<usize> = (0..5).collect();
        assert_eq!(fft_shift(&odd), vec![3, 4, 0, 1, 2]);
    }

    #[test]
    fn fft_shift_in_place_matches_allocating_version() {
        for n in [0usize, 1, 2, 5, 8, 13] {
            let v: Vec<usize> = (0..n).collect();
            let mut w = v.clone();
            fft_shift_in_place(&mut w);
            assert_eq!(w, fft_shift(&v), "length {n}");
        }
    }

    #[test]
    fn pruned_zero_padded_matches_dense_transform() {
        // Every (input length, plan size) combination, including non-power-
        // of-two inputs and the unpruned input == size case, must agree with
        // the dense pad-then-transform path.
        let plan = Fft::new(64).unwrap();
        for len in [0usize, 1, 2, 3, 7, 8, 12, 16, 33, 64] {
            let input: Vec<Complex64> = (0..len)
                .map(|t| Complex64::new((t as f64 * 0.7).sin(), (t as f64 * 1.3).cos()))
                .collect();
            let mut dense: Vec<Complex64> = input.clone();
            dense.resize(64, Complex64::ZERO);
            plan.forward_in_place(&mut dense).unwrap();
            let pruned = plan.forward_zero_padded(&input).unwrap();
            for (a, b) in pruned.iter().zip(dense.iter()) {
                assert_close(*a, *b, 1e-9);
            }
        }
    }

    #[test]
    fn forward_zero_padded_into_reuses_buffer() {
        let plan = Fft::new(16).unwrap();
        let input = vec![Complex64::ONE; 4];
        let mut out = vec![Complex64::new(9.0, 9.0); 3]; // stale, wrong size
        plan.forward_zero_padded_into(&input, &mut out).unwrap();
        assert_eq!(out.len(), 16);
        let reference = plan.forward_zero_padded(&input).unwrap();
        for (a, b) in out.iter().zip(reference.iter()) {
            assert_close(*a, *b, 1e-12);
        }
        // Oversized inputs are still rejected and leave no partial state
        // requirement on the caller.
        assert!(plan
            .forward_zero_padded_into(&vec![Complex64::ONE; 17], &mut out)
            .is_err());
    }

    #[test]
    fn size_one_transform_is_identity() {
        let plan = Fft::new(1).unwrap();
        let mut buf = vec![Complex64::new(3.0, -4.0)];
        plan.forward_in_place(&mut buf).unwrap();
        assert_eq!(buf[0], Complex64::new(3.0, -4.0));
    }

    #[test]
    fn linearity_of_transform() {
        let n = 64;
        let a: Vec<Complex64> = (0..n).map(|t| Complex64::cis(t as f64 * 0.2)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|t| Complex64::new((t as f64).sqrt(), 0.1))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a).unwrap();
        let fb = fft(&b).unwrap();
        let fsum = fft(&sum).unwrap();
        for k in 0..n {
            assert_close(fsum[k], fa[k] + fb[k], 1e-8);
        }
    }
}
