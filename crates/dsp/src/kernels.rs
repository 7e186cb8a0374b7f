//! Elementwise inner-loop kernels for the streaming receive path.
//!
//! Written as slice iterations with no per-element branching they
//! autovectorize under `opt-level = 3` without any `unsafe` or
//! architecture-specific intrinsics (the workspace forbids `unsafe_code`).
//!
//! * [`power_append`] operates on [`Complex64`] buffers and is
//!   bit-identical to the scalar `norm_sqr` it replaces (pure elementwise
//!   IEEE ops, no reassociation), so the detector's gate decisions do not
//!   change. It is the only kernel the gateway runs:
//!   its dechirp is `ChirpSynthesizer::dechirp_into` inside the `f64`
//!   chirp bank.
//! * [`dechirp_f32`] operates on split re/im `f32` slices — the wire format
//!   of the daemon's `cf32` streams and twice the SIMD lane density of
//!   `f64`. No receive path calls it; the repo benchmark's probe times it
//!   as the cost floor of a wire-precision dechirp.

use crate::complex::Complex64;

/// Appends `|x|²` for every sample to `out`, for callers keeping a power
/// buffer aligned with a growing sample window.
///
/// Elementwise and in input order, so each output value is bit-identical to
/// `samples[i].norm_sqr()` — callers replacing a scalar loop keep exactly
/// the same downstream decisions.
pub fn power_append(samples: &[Complex64], out: &mut Vec<f64>) {
    out.extend(samples.iter().map(|s| s.norm_sqr()));
}

/// Dechirps a split-complex f32 symbol: `out = sig · conj(reference)`,
/// elementwise. All six slices must have equal lengths.
///
/// This is the f32-lane twin of `ChirpSynthesizer::dechirp_into` for
/// buffers already in the daemon's `cf32` wire precision.
///
/// # Panics
///
/// Panics if the slice lengths disagree — the buffers are produced by the
/// caller's own planning code, not untrusted input.
pub fn dechirp_f32(
    sig_re: &[f32],
    sig_im: &[f32],
    ref_re: &[f32],
    ref_im: &[f32],
    out_re: &mut [f32],
    out_im: &mut [f32],
) {
    let n = sig_re.len();
    assert!(
        sig_im.len() == n
            && ref_re.len() == n
            && ref_im.len() == n
            && out_re.len() == n
            && out_im.len() == n,
        "dechirp_f32 slice lengths disagree"
    );
    for i in 0..n {
        // (a + bi)(c - di) = (ac + bd) + (bc - ad)i
        let (a, b) = (sig_re[i], sig_im[i]);
        let (c, d) = (ref_re[i], ref_im[i]);
        out_re[i] = a * c + b * d;
        out_im[i] = b * c - a * d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|t| Complex64::new((t as f64 * 0.7).sin(), (t as f64 * 1.3).cos()))
            .collect()
    }

    #[test]
    fn power_append_is_bit_identical_to_scalar() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let buf = samples(n);
            let mut out = vec![42.0; 3];
            power_append(&buf, &mut out);
            assert_eq!(out.len(), n + 3);
            for (i, p) in out[3..].iter().enumerate() {
                assert_eq!(*p, buf[i].norm_sqr(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dechirp_f32_matches_complex_multiply() {
        let n = 37;
        let sig: Vec<(f32, f32)> = (0..n)
            .map(|t| ((t as f32 * 0.3).sin(), (t as f32 * 0.9).cos()))
            .collect();
        let reference: Vec<(f32, f32)> = (0..n)
            .map(|t| ((t as f32 * 1.1).cos(), (t as f32 * 0.2).sin()))
            .collect();
        let sig_re: Vec<f32> = sig.iter().map(|s| s.0).collect();
        let sig_im: Vec<f32> = sig.iter().map(|s| s.1).collect();
        let ref_re: Vec<f32> = reference.iter().map(|s| s.0).collect();
        let ref_im: Vec<f32> = reference.iter().map(|s| s.1).collect();
        let mut out_re = vec![0.0; n];
        let mut out_im = vec![0.0; n];
        dechirp_f32(&sig_re, &sig_im, &ref_re, &ref_im, &mut out_re, &mut out_im);
        for i in 0..n {
            let (a, b) = sig[i];
            let (c, d) = reference[i];
            assert_eq!(out_re[i], a * c + b * d, "re {i}");
            assert_eq!(out_im[i], b * c - a * d, "im {i}");
        }
    }

    #[test]
    #[should_panic(expected = "lengths disagree")]
    fn mismatched_lengths_panic() {
        let (mut out_re, mut out_im) = ([0.0f32; 4], [0.0f32; 3]);
        dechirp_f32(
            &[0.0; 4],
            &[0.0; 4],
            &[0.0; 4],
            &[0.0; 4],
            &mut out_re,
            &mut out_im,
        );
    }
}
