//! Spectral analysis helpers: power spectra and side-lobe measurements.
//!
//! The NetScatter receiver's per-symbol decision is made entirely in the FFT
//! domain: it looks for peaks at the assigned cyclic-shift bins and compares
//! their power against thresholds (§3.3.1). The Fig. 8 analysis of near-far
//! side lobes is also a spectral-domain measurement, reproduced by
//! [`sidelobe_profile_db`].

use crate::complex::Complex64;
use crate::fft::{Fft, FftError};
use crate::units::linear_to_db;

/// Computes the per-bin linear power (squared magnitude) of a spectrum.
fn power_spectrum(spectrum: &[Complex64]) -> Vec<f64> {
    spectrum.iter().map(|c| c.norm_sqr()).collect()
}

/// Computes the per-bin linear power (squared magnitude) of a spectrum into
/// a caller-owned buffer (cleared and refilled) so the per-symbol decode
/// path performs no heap allocation.
pub fn power_spectrum_into(spectrum: &[Complex64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(spectrum.iter().map(|c| c.norm_sqr()));
}

/// Result of the Fig. 8 side-lobe analysis: the dechirped, zero-padded power
/// spectrum of a single chirp, normalized to the main-lobe power, evaluated
/// at integer *chirp bins* (i.e. multiples of the zero-padding factor).
#[derive(Debug, Clone)]
pub struct SidelobeProfile {
    /// Zero-padding factor used (spectrum length / symbol length).
    pub padding_factor: usize,
    /// Normalized power (dB, 0 dB = main lobe) at each chirp-bin offset from
    /// the transmitted cyclic shift, for offsets `0..num_bins`.
    pub level_db_at_bin_offset: Vec<f64>,
}

impl SidelobeProfile {
    /// Normalized side-lobe level (dB) at a given bin offset from the
    /// transmitting device's cyclic shift. Offset 0 is the main lobe (0 dB).
    pub fn level_at_offset(&self, offset: usize) -> f64 {
        self.level_db_at_bin_offset[offset % self.level_db_at_bin_offset.len()]
    }

    /// The minimum power difference (dB) a neighbour assigned `skip` bins
    /// away can have and still remain above this device's side lobes — the
    /// quantity Fig. 8 annotates as ≈13 dB for SKIP = 2 and ≈21 dB for
    /// SKIP = 3 (sign convention: a positive number means the interferer may
    /// be that many dB *stronger*).
    pub fn tolerable_power_difference_db(&self, skip: usize) -> f64 {
        -self.level_at_offset(skip)
    }
}

/// Computes the Fig. 8 side-lobe profile for a dechirped chirp of
/// `num_bins` samples, zero-padded by `padding_factor`.
///
/// The dechirped chirp is an ideal complex tone, so its zero-padded spectrum
/// is the Dirichlet (periodic sinc) kernel; the profile reports its level at
/// integer chirp-bin offsets. Returns an [`FftError`] if the padded size is
/// not a power of two.
pub fn sidelobe_profile_db(
    num_bins: usize,
    padding_factor: usize,
) -> Result<SidelobeProfile, FftError> {
    let padded = num_bins
        .checked_mul(padding_factor)
        .ok_or(FftError::SizeNotPowerOfTwo { size: usize::MAX })?;
    let plan = Fft::new(padded)?;
    // Dechirped symbol of a chirp at shift 0 = constant tone at DC.
    let tone = vec![Complex64::ONE; num_bins];
    let spec = plan.forward_zero_padded(&tone)?;
    let power = power_spectrum(&spec);
    let main = power[0];
    // Between integer chirp bins the Dirichlet kernel oscillates. A device
    // assigned `offset` bins away from a strong transmitter is masked
    // whenever the strong transmitter's side-lobe *envelope* reaches its
    // power; residual timing offsets can move the strong peak by up to one
    // bin towards the victim, so the worst-case level at offset k is the
    // peak of the lobe lying between bins k-1 and k. (Fig. 8 annotates this
    // envelope at SKIP = 2 and SKIP = 3.)
    let level_db_at_bin_offset = (0..num_bins)
        .map(|offset| {
            if offset == 0 {
                return 0.0;
            }
            let lo = (offset - 1) * padding_factor + 1;
            let hi = (offset * padding_factor).min(padded - 1);
            let max_p = (lo..=hi)
                .map(|i| power[i])
                .fold(f64::MIN_POSITIVE, f64::max);
            linear_to_db(max_p / main)
        })
        .collect();
    Ok(SidelobeProfile {
        padding_factor,
        level_db_at_bin_offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::{ChirpParams, ChirpSynthesizer};
    use crate::fft::fft;

    #[test]
    fn power_spectrum_into_matches_allocating_version() {
        let spec: Vec<Complex64> = (0..9)
            .map(|k| Complex64::cis(k as f64).scale(2.0))
            .collect();
        let mut out = vec![1.0; 3]; // stale contents must be discarded
        power_spectrum_into(&spec, &mut out);
        assert_eq!(out, power_spectrum(&spec));
    }

    #[test]
    fn sidelobe_profile_matches_fig8_annotations() {
        // Fig. 8: with zero padding, the lobe envelope two chirp bins away is
        // ≈ -13 dB; the paper reads ≈ -21 dB at three bins on its measured
        // hardware waveform, while the ideal Dirichlet envelope gives ≈ -18 dB.
        // We check the -13 dB point and the qualitative fall-off.
        let profile = sidelobe_profile_db(512, 8).unwrap();
        assert_eq!(profile.level_at_offset(0), 0.0);
        let skip2 = profile.level_at_offset(2);
        let skip3 = profile.level_at_offset(3);
        assert!(
            (-15.0..=-11.0).contains(&skip2),
            "SKIP=2 level {skip2} dB not near -13 dB"
        );
        assert!(
            (-23.0..=-16.0).contains(&skip3),
            "SKIP=3 level {skip3} dB not in expected band"
        );
        assert!(
            skip3 < skip2 - 3.0,
            "side lobes must keep falling with distance"
        );
        // Side lobes keep falling off further away.
        assert!(profile.level_at_offset(50) < profile.level_at_offset(3));
        // Tolerable power difference is the negation.
        assert!((profile.tolerable_power_difference_db(2) + skip2).abs() < 1e-12);
    }

    #[test]
    fn sidelobe_profile_rejects_non_power_of_two_padding() {
        assert!(sidelobe_profile_db(512, 3).is_err());
    }

    #[test]
    fn dechirped_shifted_chirp_peak_power_is_n_squared() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(500e3, 8).unwrap());
        let sym = synth.shifted_upchirp(77);
        let power = power_spectrum(&fft(&synth.dechirp(&sym)).unwrap());
        let peak = (0..power.len())
            .max_by(|&a, &b| power[a].total_cmp(&power[b]))
            .unwrap();
        assert_eq!(peak, 77);
        let n = 256.0_f64;
        assert!((power[peak] - n * n).abs() / (n * n) < 1e-9);
    }
}
