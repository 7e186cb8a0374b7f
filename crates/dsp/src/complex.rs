//! Complex arithmetic for baseband signal processing.
//!
//! The workspace deliberately avoids external numeric dependencies, so this
//! module provides a small, fully-tested complex number type tuned for the
//! operations the CSS transceiver chain needs: multiplication (dechirping),
//! conjugation, magnitude/power, and phasor construction from a phase angle
//! (chirp synthesis).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + j·im`.
///
/// Used to represent complex baseband (I/Q) samples everywhere in the
/// workspace. The type is `Copy` and all operations are implemented for both
/// values and the usual scalar mixes.
///
/// # Examples
///
/// ```
/// use netscatter_dsp::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::from_polar(1.0, std::f64::consts::FRAC_PI_2);
/// let c = a * b;
/// assert!((c.re + 2.0).abs() < 1e-12);
/// assert!((c.im - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a complex number from polar coordinates `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns the unit phasor `e^{jθ}`.
    ///
    /// This is the work-horse of chirp synthesis where the instantaneous
    /// phase of the linear-FM waveform is evaluated sample by sample.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate `re − j·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²` (signal power of the sample).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `√(re² + im²)`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Phase angle in radians, in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}j",
            self.re,
            if self.im < 0.0 { "-" } else { "+" },
            self.im.abs()
        )
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |acc, x| acc + x)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::new(re, 0.0)
    }
}

/// Returns the total power (sum of squared magnitudes) of a slice of samples.
pub fn total_power(samples: &[Complex64]) -> f64 {
    samples.iter().map(|s| s.norm_sqr()).sum()
}

/// Returns the mean power (average squared magnitude) of a slice of samples.
///
/// Returns `0.0` for an empty slice.
pub fn mean_power(samples: &[Complex64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        total_power(samples) / samples.len() as f64
    }
}

/// Element-wise multiplication of two equal-length sample buffers into `out`.
///
/// This is the dechirping primitive: the received signal is multiplied by a
/// conjugate (down) chirp before the FFT. Panics if the lengths differ,
/// because mismatched buffers are always a programming error at this layer.
pub fn multiply_into(a: &[Complex64], b: &[Complex64], out: &mut Vec<Complex64>) {
    assert_eq!(
        a.len(),
        b.len(),
        "multiply_into requires equal-length inputs"
    );
    out.clear();
    out.extend(a.iter().zip(b.iter()).map(|(x, y)| *x * *y));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn addition_and_subtraction_are_componentwise() {
        let a = Complex64::new(1.0, -2.0);
        let b = Complex64::new(0.5, 4.0);
        let s = a + b;
        assert!(close(s.re, 1.5) && close(s.im, 2.0));
        let d = a - b;
        assert!(close(d.re, 0.5) && close(d.im, -6.0));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = Complex64::new(3.0, 2.0);
        let b = Complex64::new(1.0, 7.0);
        let p = a * b;
        // (3+2j)(1+7j) = 3 + 21j + 2j + 14j^2 = -11 + 23j
        assert!(close(p.re, -11.0) && close(p.im, 23.0));
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = Complex64::new(-2.5, 1.25);
        let b = Complex64::new(0.3, -0.9);
        let q = (a * b) / b;
        assert!((q - a).abs() < 1e-12);
    }

    #[test]
    fn conjugate_negates_imaginary_part() {
        let a = Complex64::new(1.0, 2.0);
        assert_eq!(a.conj(), Complex64::new(1.0, -2.0));
        // z * conj(z) == |z|^2
        let p = a * a.conj();
        assert!(close(p.re, a.norm_sqr()) && close(p.im, 0.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 1.1);
        assert!(close(z.abs(), 2.0));
        assert!(close(z.arg(), 1.1));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..100 {
            let theta = k as f64 * 0.1 - 5.0;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_power_of_unit_phasors_is_one() {
        let v: Vec<Complex64> = (0..64).map(|k| Complex64::cis(k as f64 * 0.3)).collect();
        assert!((mean_power(&v) - 1.0).abs() < 1e-12);
        assert!((total_power(&v) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn mean_power_empty_is_zero() {
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn multiply_into_computes_elementwise_product() {
        let a = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let b = vec![Complex64::new(0.0, 1.0), Complex64::new(0.0, 1.0)];
        let mut out = Vec::new();
        multiply_into(&a, &b, &mut out);
        assert_eq!(out[0], Complex64::new(0.0, 1.0));
        assert_eq!(out[1], Complex64::new(-1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn multiply_into_panics_on_length_mismatch() {
        let a = vec![Complex64::ONE];
        let b = vec![Complex64::ONE, Complex64::ONE];
        let mut out = Vec::new();
        multiply_into(&a, &b, &mut out);
    }

    #[test]
    fn scalar_ops_and_neg() {
        let a = Complex64::new(2.0, -3.0);
        assert_eq!(a * 2.0, Complex64::new(4.0, -6.0));
        assert_eq!(2.0 * a, Complex64::new(4.0, -6.0));
        assert_eq!(a / 2.0, Complex64::new(1.0, -1.5));
        assert_eq!(-a, Complex64::new(-2.0, 3.0));
    }

    #[test]
    fn sum_iterator() {
        let v = vec![Complex64::new(1.0, 1.0); 10];
        let s: Complex64 = v.into_iter().sum();
        assert_eq!(s, Complex64::new(10.0, 10.0));
    }
}
