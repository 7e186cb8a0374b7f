//! Linear chirp (chirp-spread-spectrum) waveform synthesis and dechirping.
//!
//! CSS modulation (§2.1 of the paper) encodes information in *cyclic shifts*
//! of a baseline linear upchirp that sweeps the full chirp bandwidth `BW`
//! over a symbol of `2^SF` samples (at critical sampling `fs = BW`). The
//! receiver "dechirps" by multiplying with the conjugate baseline chirp
//! (a downchirp), which turns each cyclic shift into a constant-frequency
//! tone, and then takes an FFT: the cyclic shift appears as the index of the
//! FFT peak.
//!
//! NetScatter's distributed CSS coding assigns each *device* a cyclic shift
//! and has the device ON-OFF key it, so the same primitives are shared by
//! the LoRa-backscatter baseline and by NetScatter itself.
//!
//! The synthesizer here supports the impairments the paper measures:
//! fractional timing offsets (hardware/propagation delay, §3.2.1), carrier
//! frequency offsets (crystal tolerance, §3.2.2) and amplitude scaling
//! (backscatter power gains, §3.2.3).

use crate::complex::{multiply_into, Complex64};
use std::f64::consts::PI;
use std::fmt;

/// Static parameters of a CSS chirp: bandwidth and spreading factor.
///
/// The symbol contains `2^SF` samples at critical sampling (`fs = BW`), so
/// the symbol duration is `2^SF / BW` and the FFT naturally has `2^SF` bins
/// spaced `BW / 2^SF` apart.
///
/// # Examples
///
/// ```
/// use netscatter_dsp::ChirpParams;
///
/// // The configuration used for the paper's 256-device deployment.
/// let p = ChirpParams::new(500_000.0, 9).unwrap();
/// assert_eq!(p.num_bins(), 512);
/// assert!((p.symbol_duration_s() - 1.024e-3).abs() < 1e-12);
/// assert!((p.bin_spacing_hz() - 976.5625).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChirpParams {
    bandwidth_hz: f64,
    spreading_factor: u32,
}

/// Errors from chirp parameter validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChirpParamsError {
    /// Bandwidth must be strictly positive and finite.
    InvalidBandwidth(f64),
    /// Spreading factors outside 5..=12 are not used by any LoRa-class
    /// system and are rejected to catch configuration mistakes early.
    InvalidSpreadingFactor(u32),
}

impl fmt::Display for ChirpParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChirpParamsError::InvalidBandwidth(bw) => {
                write!(f, "chirp bandwidth must be positive and finite, got {bw}")
            }
            ChirpParamsError::InvalidSpreadingFactor(sf) => {
                write!(f, "spreading factor must be in 5..=12, got {sf}")
            }
        }
    }
}

impl std::error::Error for ChirpParamsError {}

impl ChirpParams {
    /// Creates chirp parameters, validating bandwidth and spreading factor.
    pub fn new(bandwidth_hz: f64, spreading_factor: u32) -> Result<Self, ChirpParamsError> {
        if !(bandwidth_hz.is_finite() && bandwidth_hz > 0.0) {
            return Err(ChirpParamsError::InvalidBandwidth(bandwidth_hz));
        }
        if !(5..=12).contains(&spreading_factor) {
            return Err(ChirpParamsError::InvalidSpreadingFactor(spreading_factor));
        }
        Ok(Self {
            bandwidth_hz,
            spreading_factor,
        })
    }

    /// The configuration used for the paper's main deployment:
    /// `BW = 500 kHz`, `SF = 9` (Table 1, first row).
    pub fn paper_default() -> Self {
        Self {
            bandwidth_hz: 500e3,
            spreading_factor: 9,
        }
    }

    /// Chirp bandwidth in hertz (also the critical sampling rate).
    #[inline]
    pub fn bandwidth_hz(&self) -> f64 {
        self.bandwidth_hz
    }

    /// Spreading factor `SF`.
    #[inline]
    pub fn spreading_factor(&self) -> u32 {
        self.spreading_factor
    }

    /// Number of samples per symbol (= number of FFT bins = `2^SF`).
    #[inline]
    pub fn num_bins(&self) -> usize {
        1usize << self.spreading_factor
    }

    /// Symbol duration in seconds, `2^SF / BW`.
    #[inline]
    pub fn symbol_duration_s(&self) -> f64 {
        self.num_bins() as f64 / self.bandwidth_hz
    }

    /// Symbol rate in symbols per second, `BW / 2^SF`.
    #[inline]
    fn symbol_rate(&self) -> f64 {
        self.bandwidth_hz / self.num_bins() as f64
    }

    /// Frequency spacing between adjacent FFT bins, `BW / 2^SF`.
    #[inline]
    pub fn bin_spacing_hz(&self) -> f64 {
        self.symbol_rate()
    }

    /// Bit rate of a *single-user LoRa-style* CSS link, `SF · BW / 2^SF`
    /// bits per second (§2.1). This is the baseline modulation where one
    /// device conveys `SF` bits per symbol with its choice of cyclic shift.
    #[inline]
    pub fn lora_bitrate_bps(&self) -> f64 {
        self.spreading_factor as f64 * self.symbol_rate()
    }

    /// Per-device bit rate under NetScatter's distributed CSS coding,
    /// `BW / 2^SF` bits per second: each device ON-OFF keys its assigned
    /// cyclic shift, one bit per symbol (§3.1).
    #[inline]
    pub fn on_off_bitrate_bps(&self) -> f64 {
        self.symbol_rate()
    }

    /// Converts a timing offset (seconds) into the FFT-bin shift it induces,
    /// `ΔFFTbin = Δt · BW` (§3.2.1, Fig. 6).
    #[inline]
    pub fn timing_offset_to_bins(&self, dt_s: f64) -> f64 {
        dt_s * self.bandwidth_hz
    }

    /// Converts a carrier frequency offset (hertz) into the FFT-bin shift it
    /// induces, `ΔFFTbin = Δf · 2^SF / BW` (§3.2.2).
    #[inline]
    pub fn frequency_offset_to_bins(&self, df_hz: f64) -> f64 {
        df_hz * self.num_bins() as f64 / self.bandwidth_hz
    }

    /// Maximum tolerable timing offset (seconds) before a peak moves by more
    /// than one FFT bin: `1 / BW` (Table 1 "Time Variation" column up to the
    /// SKIP margin).
    #[inline]
    pub fn max_timing_offset_per_bin_s(&self) -> f64 {
        1.0 / self.bandwidth_hz
    }

    /// Maximum tolerable frequency offset (hertz) before a peak moves by more
    /// than one FFT bin: `BW / 2^SF` (Table 1 "Frequency Variation" column).
    #[inline]
    pub fn max_frequency_offset_per_bin_hz(&self) -> f64 {
        self.bin_spacing_hz()
    }
}

/// Parameters of one recurrence-synthesized chirp tone: starting argument
/// `x0` (fractional samples into the `N`-periodic phase), per-output-sample
/// argument step, extra linear phase per step (CFO), amplitude and chirp
/// direction. Internal to [`ChirpSynthesizer::synthesize_into`].
struct ChirpTone {
    x0: f64,
    step: f64,
    cfo_rad_per_step: f64,
    amplitude: f64,
    down: bool,
}

/// Synthesizes chirp symbols for a fixed [`ChirpParams`].
///
/// The baseline upchirp is precomputed once; cyclic shifts, conjugation and
/// impaired variants are derived from it, so generating a symbol is cheap.
#[derive(Debug, Clone)]
pub struct ChirpSynthesizer {
    params: ChirpParams,
    baseline_up: Vec<Complex64>,
    baseline_down: Vec<Complex64>,
}

impl ChirpSynthesizer {
    /// Creates a synthesizer and precomputes the baseline up/down chirps.
    pub fn new(params: ChirpParams) -> Self {
        let n = params.num_bins();
        let baseline_up: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(Self::phase_at(n, i as f64)))
            .collect();
        let baseline_down = baseline_up.iter().map(|c| c.conj()).collect();
        Self {
            params,
            baseline_up,
            baseline_down,
        }
    }

    /// Instantaneous phase of the baseline upchirp at (possibly fractional)
    /// sample index `i`, using the `N`-periodic quadratic phase
    /// `φ(i) = 2π (i²/(2N) − i/2)`.
    ///
    /// The quadratic phase is exactly periodic with period `N`, which makes
    /// cyclic time shifts equivalent to frequency shifts after aliasing — the
    /// property CSS exploits (§2.1, Fig. 3(c)).
    fn phase_at(n: usize, i: f64) -> f64 {
        let nf = n as f64;
        2.0 * PI * (i * i / (2.0 * nf) - i / 2.0)
    }

    /// The chirp parameters this synthesizer was created with.
    #[inline]
    pub fn params(&self) -> &ChirpParams {
        &self.params
    }

    /// Returns the baseline (cyclic shift 0) upchirp symbol.
    pub fn baseline_upchirp(&self) -> &[Complex64] {
        &self.baseline_up
    }

    /// Returns the baseline downchirp (conjugate upchirp) symbol, used by the
    /// receiver for dechirping and by the preamble's downchirp symbols.
    pub fn baseline_downchirp(&self) -> &[Complex64] {
        &self.baseline_down
    }

    /// Returns the upchirp cyclically shifted by `shift` samples
    /// (`shift ∈ 0..2^SF`). After dechirping, this symbol produces an FFT
    /// peak at bin `shift`.
    pub fn shifted_upchirp(&self, shift: usize) -> Vec<Complex64> {
        let n = self.params.num_bins();
        let shift = shift % n;
        let mut out = Vec::with_capacity(n);
        out.extend_from_slice(&self.baseline_up[shift..]);
        out.extend_from_slice(&self.baseline_up[..shift]);
        out
    }

    /// Synthesizes an upchirp symbol with continuous-valued impairments.
    ///
    /// * `shift` — assigned cyclic shift in samples.
    /// * `timing_offset_s` — signed residual timing error (hardware delay +
    ///   propagation delay) between the device and the receiver's symbol
    ///   window; the demodulated peak moves by `Δt·BW` bins (§3.2.1, Fig. 6).
    ///   The sign convention is chosen so that a positive offset moves the
    ///   peak towards higher bins.
    /// * `freq_offset_hz` — residual carrier frequency offset; moves the
    ///   peak by `Δf·2^SF/BW` bins (§3.2.2).
    /// * `amplitude` — linear amplitude scaling (backscatter power gain and
    ///   channel gain).
    pub fn impaired_upchirp(
        &self,
        shift: usize,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
    ) -> Vec<Complex64> {
        self.impaired_symbol(shift, timing_offset_s, freq_offset_hz, amplitude, false)
    }

    /// Synthesizes a downchirp symbol with the same impairment model as
    /// [`Self::impaired_upchirp`].
    pub fn impaired_downchirp(
        &self,
        shift: usize,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
    ) -> Vec<Complex64> {
        self.impaired_symbol(shift, timing_offset_s, freq_offset_hz, amplitude, true)
    }

    fn impaired_symbol(
        &self,
        shift: usize,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
        down: bool,
    ) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.params.num_bins()];
        self.write_impaired(
            shift,
            timing_offset_s,
            freq_offset_hz,
            amplitude,
            down,
            &mut out,
        );
        out
    }

    /// Synthesizes an impaired upchirp symbol into a caller-owned buffer
    /// (cleared and resized to `2^SF` samples), allocation-free in steady
    /// state. Semantics match [`Self::impaired_upchirp`].
    pub fn impaired_upchirp_into(
        &self,
        shift: usize,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
        out: &mut Vec<Complex64>,
    ) {
        out.clear();
        out.resize(self.params.num_bins(), Complex64::ZERO);
        self.write_impaired(
            shift,
            timing_offset_s,
            freq_offset_hz,
            amplitude,
            false,
            out,
        );
    }

    /// As [`Self::impaired_upchirp_into`] for downchirp symbols.
    pub fn impaired_downchirp_into(
        &self,
        shift: usize,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
        out: &mut Vec<Complex64>,
    ) {
        out.clear();
        out.resize(self.params.num_bins(), Complex64::ZERO);
        self.write_impaired(shift, timing_offset_s, freq_offset_hz, amplitude, true, out);
    }

    /// Accumulates (adds) an impaired upchirp symbol onto `out`, which must
    /// hold exactly `2^SF` samples. This is the superposition primitive: the
    /// waveforms of concurrent devices sum in place instead of materializing
    /// one vector per device.
    pub fn add_impaired_upchirp(
        &self,
        shift: usize,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
        out: &mut [Complex64],
    ) {
        assert_eq!(
            out.len(),
            self.params.num_bins(),
            "add_impaired_upchirp expects exactly one symbol of {} samples",
            self.params.num_bins()
        );
        let dt_samples = timing_offset_s * self.params.bandwidth_hz();
        let tone = ChirpTone {
            x0: (shift % self.params.num_bins()) as f64 + dt_samples,
            step: 1.0,
            cfo_rad_per_step: 2.0 * PI * freq_offset_hz / self.params.bandwidth_hz(),
            amplitude,
            down: false,
        };
        self.synthesize_into(tone, true, out);
    }

    fn write_impaired(
        &self,
        shift: usize,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
        down: bool,
        out: &mut [Complex64],
    ) {
        let n = self.params.num_bins();
        let fs = self.params.bandwidth_hz();
        // Timing offset expressed in (fractional) samples. Because the chirp
        // is N-periodic, a window misalignment is equivalent to a fractional
        // cyclic shift of the symbol, which after dechirping moves the FFT
        // peak by Δt·BW bins (Fig. 6).
        let dt_samples = timing_offset_s * fs;
        let tone = ChirpTone {
            x0: (shift % n) as f64 + dt_samples,
            step: 1.0,
            cfo_rad_per_step: 2.0 * PI * freq_offset_hz / fs,
            amplitude,
            down,
        };
        self.synthesize_into(tone, false, out);
    }

    /// Evaluates `amplitude · e^{j(±φ((x0 + i·step) mod N) + i·cfo)}` for
    /// every output sample with a second-order phase-rotation recurrence —
    /// two complex multiplies per sample instead of a sin/cos pair.
    ///
    /// The quadratic phase has a linear first difference and the constant
    /// second difference `2π·step²/N`, so the phasor advances as
    /// `z ← z·w`, `w ← w·d`. The argument `x0 + i·step` crosses the period
    /// boundary `N` at most once per symbol; since
    /// `φ(x − N) = φ(x) − 2π(x − N)`, the crossing folds into one constant
    /// factor on `z` (and one on `w` for fractional steps). A cheap Newton
    /// renormalization every 64 samples pins the magnitude drift, keeping
    /// the recurrence within ~1e-12 of the closed form even over long
    /// oversampled symbols.
    fn synthesize_into(&self, tone: ChirpTone, accumulate: bool, out: &mut [Complex64]) {
        let n = self.params.num_bins();
        let nf = n as f64;
        let x0 = tone.x0.rem_euclid(nf);
        let sign = if tone.down { -1.0 } else { 1.0 };
        let step = tone.step;
        let phi0 = sign * Self::phase_at(n, x0);
        let dphi = sign * 2.0 * PI * ((2.0 * x0 * step + step * step) / (2.0 * nf) - step / 2.0)
            + tone.cfo_rad_per_step;
        let ddphi = sign * 2.0 * PI * step * step / nf;
        let mut z = Complex64::from_polar(tone.amplitude, phi0);
        let mut w = Complex64::cis(dphi);
        let d = Complex64::cis(ddphi);
        let wrap_at = if step > 0.0 {
            ((nf - x0) / step).ceil() as usize
        } else {
            usize::MAX
        };
        let (z_fix, w_fix) = if wrap_at < out.len() {
            let x_wrap = x0 + wrap_at as f64 * step - nf;
            (
                Complex64::cis(sign * -2.0 * PI * x_wrap),
                Complex64::cis(sign * -2.0 * PI * step),
            )
        } else {
            (Complex64::ONE, Complex64::ONE)
        };
        let target_power = tone.amplitude * tone.amplitude;
        for (i, slot) in out.iter_mut().enumerate() {
            if i == wrap_at {
                z *= z_fix;
                w *= w_fix;
            }
            if accumulate {
                *slot += z;
            } else {
                *slot = z;
            }
            z *= w;
            w *= d;
            if i % 64 == 63 {
                w = w.scale(1.5 - 0.5 * w.norm_sqr());
                if target_power > 0.0 {
                    z = z.scale(1.5 - 0.5 * z.norm_sqr() / target_power);
                }
            }
        }
    }

    /// Dechirps a received symbol by multiplying with the baseline
    /// downchirp (for received upchirps) so that every present cyclic shift
    /// becomes a constant-frequency tone ready for the FFT.
    ///
    /// Panics if `symbol` does not have `2^SF` samples; symbol framing is the
    /// caller's responsibility at this layer.
    pub fn dechirp(&self, symbol: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.dechirp_into(symbol, &mut out);
        out
    }

    /// As [`Self::dechirp`], but writing into a caller-owned buffer (cleared
    /// and refilled) so the per-symbol receive path performs no allocation.
    pub fn dechirp_into(&self, symbol: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(
            symbol.len(),
            self.params.num_bins(),
            "dechirp expects exactly one symbol of {} samples",
            self.params.num_bins()
        );
        multiply_into(symbol, &self.baseline_down, out);
    }

    /// Dechirps a received *downchirp* symbol by multiplying with the
    /// baseline upchirp, writing into a caller-owned buffer. Used for the
    /// downchirp part of the preamble when locating the exact packet start
    /// (§3.3.1).
    pub fn dechirp_down_into(&self, symbol: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(
            symbol.len(),
            self.params.num_bins(),
            "dechirp_down_into expects exactly one symbol of {} samples",
            self.params.num_bins()
        );
        multiply_into(symbol, &self.baseline_up, out);
    }

    /// Synthesizes an oversampled shifted upchirp for spectrogram-style
    /// visualization (Fig. 16). `oversample` is the integer ratio of the
    /// synthesis rate to the chirp bandwidth (e.g. 8 produces
    /// `8·2^SF` samples per symbol).
    pub fn oversampled_upchirp(
        &self,
        shift: usize,
        oversample: usize,
        amplitude: f64,
    ) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.oversampled_upchirp_into(shift, oversample, amplitude, &mut out);
        out
    }

    /// As [`Self::oversampled_upchirp`], but writing into a caller-owned
    /// buffer (cleared and resized to `oversample · 2^SF` samples).
    fn oversampled_upchirp_into(
        &self,
        shift: usize,
        oversample: usize,
        amplitude: f64,
        out: &mut Vec<Complex64>,
    ) {
        let oversample = oversample.max(1);
        let n = self.params.num_bins();
        out.clear();
        out.resize(n * oversample, Complex64::ZERO);
        let tone = ChirpTone {
            x0: (shift % n) as f64,
            step: 1.0 / oversample as f64,
            cfo_rad_per_step: 0.0,
            amplitude,
            down: false,
        };
        self.synthesize_into(tone, false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft;

    fn peak_bin(spectrum: &[Complex64]) -> usize {
        (0..spectrum.len())
            .max_by(|&a, &b| spectrum[a].abs().total_cmp(&spectrum[b].abs()))
            .unwrap()
    }

    fn dechirp_and_peak(synth: &ChirpSynthesizer, symbol: &[Complex64]) -> usize {
        let dechirped = synth.dechirp(symbol);
        peak_bin(&fft(&dechirped).unwrap())
    }

    #[test]
    fn params_validation() {
        assert!(ChirpParams::new(500e3, 9).is_ok());
        assert!(matches!(
            ChirpParams::new(0.0, 9),
            Err(ChirpParamsError::InvalidBandwidth(_))
        ));
        assert!(matches!(
            ChirpParams::new(f64::NAN, 9),
            Err(ChirpParamsError::InvalidBandwidth(_))
        ));
        assert!(matches!(
            ChirpParams::new(500e3, 4),
            Err(ChirpParamsError::InvalidSpreadingFactor(4))
        ));
        assert!(matches!(
            ChirpParams::new(500e3, 13),
            Err(ChirpParamsError::InvalidSpreadingFactor(13))
        ));
    }

    #[test]
    fn table1_first_row_derived_quantities() {
        // BW = 500 kHz, SF = 9: bitrate 976 bps, symbol 1.024 ms, bin ~976 Hz.
        let p = ChirpParams::new(500e3, 9).unwrap();
        assert_eq!(p.num_bins(), 512);
        assert!((p.on_off_bitrate_bps() - 976.5625).abs() < 1e-9);
        assert!((p.symbol_duration_s() - 1.024e-3).abs() < 1e-15);
        assert!((p.bin_spacing_hz() - 976.5625).abs() < 1e-9);
        assert!((p.lora_bitrate_bps() - 9.0 * 976.5625).abs() < 1e-6);
    }

    #[test]
    fn offset_to_bin_conversions_match_paper_formulas() {
        let p = ChirpParams::new(500e3, 9).unwrap();
        // 2 us at 500 kHz = 1 bin (Table 1).
        assert!((p.timing_offset_to_bins(2e-6) - 1.0).abs() < 1e-12);
        // 976 Hz at 500 kHz / SF9 = ~1 bin (Table 1).
        assert!((p.frequency_offset_to_bins(976.5625) - 1.0).abs() < 1e-9);
        assert!((p.max_timing_offset_per_bin_s() - 2e-6).abs() < 1e-12);
        assert!((p.max_frequency_offset_per_bin_hz() - 976.5625).abs() < 1e-9);
    }

    #[test]
    fn baseline_upchirp_is_unit_amplitude_and_periodic() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(125e3, 7).unwrap());
        let up = synth.baseline_upchirp();
        assert_eq!(up.len(), 128);
        for s in up {
            assert!((s.abs() - 1.0).abs() < 1e-12);
        }
        // The quadratic phase is N-periodic: phase(N) == phase(0) mod 2π.
        let n = 128;
        let p0 = ChirpSynthesizer::phase_at(n, 0.0);
        let pn = ChirpSynthesizer::phase_at(n, n as f64);
        let diff = (pn - p0) / (2.0 * PI);
        assert!((diff - diff.round()).abs() < 1e-9);
    }

    #[test]
    fn downchirp_is_conjugate_of_upchirp() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(250e3, 8).unwrap());
        for (u, d) in synth
            .baseline_upchirp()
            .iter()
            .zip(synth.baseline_downchirp())
        {
            assert!((u.conj() - *d).abs() < 1e-12);
        }
    }

    #[test]
    fn dechirped_baseline_chirp_peaks_at_bin_zero() {
        let synth = ChirpSynthesizer::new(ChirpParams::paper_default());
        let symbol = synth.shifted_upchirp(0);
        assert_eq!(dechirp_and_peak(&synth, &symbol), 0);
    }

    #[test]
    fn dechirped_shifted_chirp_peaks_at_assigned_bin() {
        let synth = ChirpSynthesizer::new(ChirpParams::paper_default());
        for shift in [1usize, 2, 37, 255, 256, 258, 511] {
            let symbol = synth.shifted_upchirp(shift);
            assert_eq!(dechirp_and_peak(&synth, &symbol), shift, "shift {shift}");
        }
    }

    #[test]
    fn shift_wraps_modulo_num_bins() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(500e3, 7).unwrap());
        assert_eq!(synth.shifted_upchirp(130), synth.shifted_upchirp(2));
    }

    #[test]
    fn impaired_chirp_without_impairments_matches_clean_shift() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(500e3, 8).unwrap());
        for shift in [0usize, 3, 100] {
            let clean = synth.shifted_upchirp(shift);
            let impaired = synth.impaired_upchirp(shift, 0.0, 0.0, 1.0);
            for (a, b) in clean.iter().zip(impaired.iter()) {
                assert!((*a - *b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn timing_offset_moves_peak_by_dt_times_bw() {
        // Δt = 2 bins worth: 2 / BW.
        let params = ChirpParams::paper_default();
        let synth = ChirpSynthesizer::new(params);
        let assigned = 100;
        let dt = 2.0 / params.bandwidth_hz();
        let symbol = synth.impaired_upchirp(assigned, dt, 0.0, 1.0);
        let peak = dechirp_and_peak(&synth, &symbol);
        assert_eq!(peak, assigned + 2);
        // Negative offsets move the peak the other way.
        let symbol = synth.impaired_upchirp(assigned, -dt, 0.0, 1.0);
        let peak = dechirp_and_peak(&synth, &symbol);
        assert_eq!(peak, assigned - 2);
    }

    #[test]
    fn frequency_offset_moves_peak_by_expected_bins() {
        let params = ChirpParams::paper_default();
        let synth = ChirpSynthesizer::new(params);
        let assigned = 50;
        // 3 bins worth of CFO.
        let df = 3.0 * params.bin_spacing_hz();
        let symbol = synth.impaired_upchirp(assigned, 0.0, df, 1.0);
        assert_eq!(dechirp_and_peak(&synth, &symbol), assigned + 3);
    }

    #[test]
    fn amplitude_scales_symbol_power() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(125e3, 6).unwrap());
        let sym = synth.impaired_upchirp(5, 0.0, 0.0, 0.5);
        for s in &sym {
            assert!((s.abs() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn downchirp_symbol_decodes_with_upchirp_dechirp() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(500e3, 8).unwrap());
        let shift = 42;
        let sym = synth.impaired_downchirp(shift, 0.0, 0.0, 1.0);
        let mut dechirped = Vec::new();
        synth.dechirp_down_into(&sym, &mut dechirped);
        let spec = fft(&dechirped).unwrap();
        // Peak appears at N - shift for downchirps (mirror image), or shift 0 maps to 0.
        let peak = peak_bin(&spec);
        assert_eq!(peak, 256 - shift);
    }

    #[test]
    fn oversampled_chirp_has_expected_length_and_amplitude() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(500e3, 7).unwrap());
        let s = synth.oversampled_upchirp(10, 4, 0.25);
        assert_eq!(s.len(), 4 * 128);
        for x in &s {
            assert!((x.abs() - 0.25).abs() < 1e-12);
        }
        // oversample = 0 is clamped to 1.
        assert_eq!(synth.oversampled_upchirp(0, 0, 1.0).len(), 128);
    }

    /// Closed-form reference for the recurrence synthesizer: evaluates the
    /// documented phase formula `φ(i) = 2π(i²/(2N) − i/2)` with a sin/cos
    /// pair per sample, exactly as the pre-recurrence implementation did.
    fn closed_form_impaired(
        params: &ChirpParams,
        shift: usize,
        dt_s: f64,
        f_hz: f64,
        amplitude: f64,
        down: bool,
    ) -> Vec<Complex64> {
        let n = params.num_bins();
        let fs = params.bandwidth_hz();
        let shift = (shift % n) as f64;
        let dt_samples = dt_s * fs;
        (0..n)
            .map(|i| {
                let idx = i as f64 + shift + dt_samples;
                let base = ChirpSynthesizer::phase_at(n, idx.rem_euclid(n as f64));
                let base = if down { -base } else { base };
                let cfo = 2.0 * PI * f_hz * (i as f64 / fs);
                Complex64::cis(base + cfo).scale(amplitude)
            })
            .collect()
    }

    #[test]
    fn recurrence_matches_closed_form_synthesis() {
        let params = ChirpParams::paper_default();
        let synth = ChirpSynthesizer::new(params);
        for (shift, dt_us, f_hz, amp) in [
            (0usize, 0.0, 0.0, 1.0),
            (100, 1.7, 300.0, 0.6),
            (511, -2.3, -450.0, 1.3),
            (2, 0.4, 120.0, 1e-3),
            (256, -0.9, 0.0, 2.0),
        ] {
            let dt = dt_us * 1e-6;
            for down in [false, true] {
                let fast = if down {
                    synth.impaired_downchirp(shift, dt, f_hz, amp)
                } else {
                    synth.impaired_upchirp(shift, dt, f_hz, amp)
                };
                let reference = closed_form_impaired(&params, shift, dt, f_hz, amp, down);
                for (a, b) in fast.iter().zip(reference.iter()) {
                    assert!(
                        (*a - *b).abs() < 1e-10,
                        "shift {shift} dt {dt_us}us f {f_hz} down {down}: {a:?} != {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversampled_recurrence_matches_closed_form() {
        let params = ChirpParams::new(500e3, 9).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let n = params.num_bins();
        for (shift, os) in [(0usize, 1usize), (1, 4), (200, 8), (511, 2)] {
            let fast = synth.oversampled_upchirp(shift, os, 0.7);
            let shift_f = (shift % n) as f64;
            for (i, a) in fast.iter().enumerate() {
                let idx = (i as f64 / os as f64 + shift_f).rem_euclid(n as f64);
                let b = Complex64::cis(ChirpSynthesizer::phase_at(n, idx)).scale(0.7);
                assert!(
                    (*a - b).abs() < 1e-10,
                    "shift {shift} os {os} sample {i}: {a:?} != {b:?}"
                );
            }
        }
    }

    #[test]
    fn add_impaired_upchirp_superposes_in_place() {
        let params = ChirpParams::new(500e3, 8).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let mut acc = synth.impaired_upchirp(10, 0.0, 0.0, 1.0);
        synth.add_impaired_upchirp(200, 1e-6, 50.0, 0.5, &mut acc);
        let b = synth.impaired_upchirp(200, 1e-6, 50.0, 0.5);
        let a = synth.impaired_upchirp(10, 0.0, 0.0, 1.0);
        for ((s, x), y) in acc.iter().zip(a.iter()).zip(b.iter()) {
            assert!((*s - (*x + *y)).abs() < 1e-10);
        }
    }

    #[test]
    fn into_variants_reuse_and_resize_buffers() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(500e3, 7).unwrap());
        let mut buf = vec![Complex64::ONE; 3];
        synth.impaired_upchirp_into(5, 0.0, 0.0, 1.0, &mut buf);
        assert_eq!(buf.len(), 128);
        assert_eq!(buf, synth.impaired_upchirp(5, 0.0, 0.0, 1.0));
        synth.dechirp_into(&synth.shifted_upchirp(9), &mut buf);
        assert_eq!(buf, synth.dechirp(&synth.shifted_upchirp(9)));
        synth.oversampled_upchirp_into(3, 2, 1.0, &mut buf);
        assert_eq!(buf.len(), 256);
    }

    #[test]
    #[should_panic(expected = "dechirp expects")]
    fn dechirp_rejects_wrong_length() {
        let synth = ChirpSynthesizer::new(ChirpParams::new(500e3, 7).unwrap());
        let short = vec![Complex64::ONE; 64];
        let _ = synth.dechirp(&short);
    }

    #[test]
    fn two_concurrent_shifts_produce_two_peaks() {
        // The heart of distributed CSS: two devices on different cyclic
        // shifts are simultaneously visible in one FFT.
        let synth = ChirpSynthesizer::new(ChirpParams::paper_default());
        let a = synth.shifted_upchirp(10);
        let b = synth.shifted_upchirp(200);
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let spec = fft(&synth.dechirp(&sum)).unwrap();
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        let n = mags.len() as f64;
        assert!(mags[10] > 0.9 * n);
        assert!(mags[200] > 0.9 * n);
        // Everything else stays far below the two peaks.
        for (i, m) in mags.iter().enumerate() {
            if i != 10 && i != 200 {
                assert!(*m < 0.2 * n, "unexpected energy at bin {i}: {m}");
            }
        }
    }
}
