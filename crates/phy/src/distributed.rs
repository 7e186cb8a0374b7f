//! Distributed CSS coding — the paper's core physical-layer primitive.
//!
//! Each device in the network is assigned one cyclic shift of the chirp and
//! ON-OFF keys it: transmitting the assigned shifted upchirp conveys a '1',
//! staying silent conveys a '0' (§3.1, Fig. 2b). Because cyclic shifts map to
//! distinct FFT bins after dechirping, the receiver demodulates *all*
//! concurrent devices with one dechirp-and-FFT per symbol and then reads the
//! power at each assigned bin.
//!
//! Zero-padding the dechirped symbol before the FFT gives sub-bin peak
//! resolution (§3.2.3), and [`ConcurrentDemodulator::device_power`] can
//! search a window around the assigned bin for a peak that a residual
//! timing offset moved. The padding only buys the points *between* bins: a
//! caller that reads nothing but the bins themselves (the lattice
//! `bin · zero_padding` of the padded grid) asks
//! [`ConcurrentDemodulator::spectrum_into`] for the critically-sampled
//! `2^SF`-point transform, whose values are bit for bit the padded
//! transform's at those points (DESIGN.md, "Read-set-sized transform").
//! The AP receiver reads only that lattice.

use netscatter_dsp::chirp::{ChirpParams, ChirpSynthesizer};
use netscatter_dsp::fft::{Fft, FftError};
use netscatter_dsp::spectrum::power_spectrum_into;
use netscatter_dsp::Complex64;

/// Reusable scratch buffers for the allocation-free decode path.
///
/// The steady-state per-symbol receive chain is dechirp → FFT → power
/// spectrum; each stage writes into one of these buffers, so after the
/// first symbol has sized them no further heap allocation occurs. One
/// workspace serves one receiver thread; create one per thread when decoding
/// in parallel.
#[derive(Debug, Clone, Default)]
pub struct DemodWorkspace {
    /// Dechirped time-domain symbol (`2^SF` samples).
    dechirped: Vec<Complex64>,
    /// Complex spectrum on the grid last asked for: `2^SF · step` points,
    /// `step` being `zero_padding` (sub-bin grid) or 1 (bins only).
    padded: Vec<Complex64>,
    /// Power spectrum of `padded` (same length).
    power: Vec<f64>,
}

impl DemodWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently computed power spectrum (`2^SF · step` points).
    pub fn power(&self) -> &[f64] {
        &self.power
    }
}

/// The ON-OFF-keying modulator run by each backscatter device.
#[derive(Debug, Clone)]
pub struct OnOffModulator {
    synth: ChirpSynthesizer,
    assigned_shift: usize,
}

impl OnOffModulator {
    /// Creates a modulator for a device assigned the given cyclic shift.
    pub fn new(params: ChirpParams, assigned_shift: usize) -> Self {
        let assigned_shift = assigned_shift % params.num_bins();
        Self {
            synth: ChirpSynthesizer::new(params),
            assigned_shift,
        }
    }

    /// The cyclic shift this device is assigned.
    pub fn assigned_shift(&self) -> usize {
        self.assigned_shift
    }

    /// The chirp parameters in use.
    pub fn params(&self) -> &ChirpParams {
        self.synth.params()
    }

    /// Produces one symbol of baseband samples for `bit`, applying the
    /// device's current impairments and amplitude. A '0' bit is silence.
    pub fn symbol(
        &self,
        bit: bool,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
    ) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.symbol_into(bit, timing_offset_s, freq_offset_hz, amplitude, &mut out);
        out
    }

    /// As [`Self::symbol`], but writing into a caller-owned buffer (cleared
    /// and resized to one symbol) so per-symbol synthesis is allocation-free.
    pub fn symbol_into(
        &self,
        bit: bool,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
        out: &mut Vec<Complex64>,
    ) {
        if bit {
            self.synth.impaired_upchirp_into(
                self.assigned_shift,
                timing_offset_s,
                freq_offset_hz,
                amplitude,
                out,
            );
        } else {
            out.clear();
            out.resize(self.params().num_bins(), Complex64::ZERO);
        }
    }

    /// Adds this device's symbol onto an existing one-symbol buffer — the
    /// superposition primitive for simulating concurrent devices without
    /// materializing one vector per device. A '0' bit adds nothing.
    pub fn add_symbol(
        &self,
        bit: bool,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
        out: &mut [Complex64],
    ) {
        if bit {
            self.synth.add_impaired_upchirp(
                self.assigned_shift,
                timing_offset_s,
                freq_offset_hz,
                amplitude,
                out,
            );
        }
    }

    /// Produces one *downchirp* preamble symbol on the assigned shift with
    /// the device's impairments (the preamble transmits the same cyclic shift
    /// on upchirps and downchirps, §3.3.1).
    pub fn preamble_downchirp(
        &self,
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
    ) -> Vec<Complex64> {
        self.synth.impaired_downchirp(
            self.assigned_shift,
            timing_offset_s,
            freq_offset_hz,
            amplitude,
        )
    }

    /// Modulates a full payload bit sequence into consecutive symbols.
    pub fn modulate_payload(
        &self,
        bits: &[bool],
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
    ) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.modulate_payload_into(bits, timing_offset_s, freq_offset_hz, amplitude, &mut out);
        out
    }

    /// As [`Self::modulate_payload`], but writing into a caller-owned buffer
    /// (cleared and resized to `bits.len()` symbols), synthesizing each '1'
    /// symbol in place with no per-symbol allocation.
    fn modulate_payload_into(
        &self,
        bits: &[bool],
        timing_offset_s: f64,
        freq_offset_hz: f64,
        amplitude: f64,
        out: &mut Vec<Complex64>,
    ) {
        let n = self.params().num_bins();
        out.clear();
        out.resize(bits.len() * n, Complex64::ZERO);
        for (&bit, chunk) in bits.iter().zip(out.chunks_exact_mut(n)) {
            if bit {
                self.synth.add_impaired_upchirp(
                    self.assigned_shift,
                    timing_offset_s,
                    freq_offset_hz,
                    amplitude,
                    chunk,
                );
            }
        }
    }
}

/// Per-device decision for one symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolDecision {
    /// The assigned chirp bin of the device.
    pub assigned_bin: usize,
    /// Measured peak power in the device's search window (linear).
    pub power: f64,
    /// The decided bit.
    pub bit: bool,
}

/// The single-FFT concurrent demodulator at the AP.
#[derive(Debug, Clone)]
pub struct ConcurrentDemodulator {
    synth: ChirpSynthesizer,
    /// `2^SF · zero_padding`-point plan: the sub-bin grid of §3.2.3.
    fft: Fft,
    /// `2^SF`-point plan: the same spectrum on the lattice of chirp bins only.
    lattice_fft: Fft,
    zero_padding: usize,
}

impl ConcurrentDemodulator {
    /// Creates a demodulator with the given zero-padding factor (must make
    /// `2^SF · zero_padding` a power of two, i.e. the factor itself must be a
    /// power of two).
    pub fn new(params: ChirpParams, zero_padding: usize) -> Result<Self, FftError> {
        let zero_padding = zero_padding.max(1);
        Ok(Self {
            synth: ChirpSynthesizer::new(params),
            fft: Fft::new(params.num_bins() * zero_padding)?,
            lattice_fft: Fft::new(params.num_bins())?,
            zero_padding,
        })
    }

    /// The chirp parameters in use.
    pub fn params(&self) -> &ChirpParams {
        self.synth.params()
    }

    /// Dechirps one received symbol and returns the zero-padded power
    /// spectrum (length `2^SF · zero_padding`). This is the single FFT whose
    /// cost is independent of the number of concurrent devices.
    pub fn padded_spectrum(&self, symbol: &[Complex64]) -> Result<Vec<f64>, FftError> {
        let mut ws = DemodWorkspace::new();
        self.padded_spectrum_into(symbol, &mut ws)?;
        Ok(ws.power)
    }

    /// Allocation-free variant of [`Self::padded_spectrum`]: dechirp,
    /// pruned zero-padded FFT and power spectrum all run inside the
    /// workspace's scratch buffers. Returns the power spectrum borrowed from
    /// the workspace.
    pub fn padded_spectrum_into<'ws>(
        &self,
        symbol: &[Complex64],
        ws: &'ws mut DemodWorkspace,
    ) -> Result<&'ws [f64], FftError> {
        self.spectrum_into(symbol, self.zero_padding, ws)
    }

    /// As [`Self::padded_spectrum_into`] on the grid with `step` points per
    /// chirp bin: `zero_padding` is the padded grid, 1 the `2^SF`-point
    /// transform that holds only the points at the bins themselves. Those
    /// are bit-identical on both grids, and [`Self::device_power_at`] reads
    /// either, so a caller whose reads all land on bins passes 1 and skips
    /// the `zero_padding − 1` in `zero_padding` points nobody would look at.
    ///
    /// # Panics
    /// If `step` is neither 1 nor the zero-padding factor.
    pub fn spectrum_into<'ws>(
        &self,
        symbol: &[Complex64],
        step: usize,
        ws: &'ws mut DemodWorkspace,
    ) -> Result<&'ws [f64], FftError> {
        self.dechirped_spectrum_into(symbol, step, ws, false)
    }

    /// As [`Self::padded_spectrum_into`] but dechirping with the *upchirp*,
    /// for received downchirp preamble symbols.
    pub fn padded_spectrum_downchirp_into<'ws>(
        &self,
        symbol: &[Complex64],
        ws: &'ws mut DemodWorkspace,
    ) -> Result<&'ws [f64], FftError> {
        self.dechirped_spectrum_into(symbol, self.zero_padding, ws, true)
    }

    fn dechirped_spectrum_into<'ws>(
        &self,
        symbol: &[Complex64],
        step: usize,
        ws: &'ws mut DemodWorkspace,
        down: bool,
    ) -> Result<&'ws [f64], FftError> {
        let fft = if step == 1 {
            &self.lattice_fft
        } else {
            assert_eq!(
                step, self.zero_padding,
                "grid step must be 1 or the zero-padding factor"
            );
            &self.fft
        };
        if symbol.len() != self.params().num_bins() {
            return Err(FftError::LengthMismatch {
                expected: self.params().num_bins(),
                actual: symbol.len(),
            });
        }
        if down {
            self.synth.dechirp_down_into(symbol, &mut ws.dechirped);
        } else {
            self.synth.dechirp_into(symbol, &mut ws.dechirped);
        }
        fft.forward_zero_padded_into(&ws.dechirped, &mut ws.padded)?;
        power_spectrum_into(&ws.padded, &mut ws.power);
        Ok(&ws.power)
    }

    /// Measured power of the device assigned `chirp_bin`, searching the
    /// spectrum (on either grid of [`Self::spectrum_into`]) within
    /// ±`search_halfwidth_bins` chirp bins of the assignment (to absorb
    /// residual timing/frequency offsets).
    pub fn device_power(
        &self,
        padded_power: &[f64],
        chirp_bin: usize,
        search_halfwidth_bins: f64,
    ) -> f64 {
        self.device_power_at(
            padded_power,
            (chirp_bin % self.params().num_bins()) as f64,
            search_halfwidth_bins,
        )
        .0
    }

    /// As [`Self::device_power`] but centred on a *fractional* bin position,
    /// returning `(power, fractional bin of the maximum)`. Points per bin
    /// come from the spectrum's own length, so either grid of
    /// [`Self::spectrum_into`] is read the same way. A window as wide as the
    /// spectrum or wider (an infinite half-width included) reads each point
    /// once: the `total` offsets from `−total/2`.
    pub fn device_power_at(
        &self,
        padded_power: &[f64],
        center_bins: f64,
        search_halfwidth_bins: f64,
    ) -> (f64, f64) {
        let total = padded_power.len() as isize;
        let pad = (total as usize / self.params().num_bins()) as f64;
        let centre = (center_bins * pad).round() as isize;
        let half = (search_halfwidth_bins.max(0.0) * pad).round();
        let offsets = if half < (total / 2) as f64 {
            -(half as isize)..half as isize + 1
        } else {
            -(total / 2)..total - total / 2
        };
        // Offsets stay within ±total/2 of a centre already on the grid, so
        // neither the index nor the reported position can overflow.
        let base = centre.rem_euclid(total);
        let mut best = 0.0f64;
        let mut best_off = 0;
        for off in offsets {
            let idx = (base + off).rem_euclid(total) as usize;
            if padded_power[idx] > best {
                best = padded_power[idx];
                best_off = off;
            }
        }
        (best, centre.saturating_add(best_off) as f64 / pad)
    }

    /// Demodulates one payload symbol for a set of devices, writing one
    /// decision per device into `decisions` (cleared first).
    ///
    /// `assignments` maps each device to its chirp bin; `thresholds` gives
    /// the per-device linear power threshold (half the preamble average in
    /// the paper's receiver, §3.3.1); `search_halfwidth_bins` bounds the peak
    /// search window around each assignment. The spectrum runs in the
    /// workspace's scratch buffers, so steady-state demodulation performs no
    /// heap allocation.
    pub fn demodulate_symbol_with(
        &self,
        symbol: &[Complex64],
        assignments: &[usize],
        thresholds: &[f64],
        search_halfwidth_bins: f64,
        ws: &mut DemodWorkspace,
        decisions: &mut Vec<SymbolDecision>,
    ) -> Result<(), FftError> {
        assert_eq!(
            assignments.len(),
            thresholds.len(),
            "assignments and thresholds must be parallel slices"
        );
        self.padded_spectrum_into(symbol, ws)?;
        decisions.clear();
        decisions.extend(
            assignments
                .iter()
                .zip(thresholds.iter())
                .map(|(&bin, &thr)| {
                    let power = self.device_power(&ws.power, bin, search_halfwidth_bins);
                    SymbolDecision {
                        assigned_bin: bin,
                        power,
                        bit: power > thr,
                    }
                }),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_channel::noise::AwgnChannel;
    use netscatter_dsp::complex::mean_power;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> ChirpParams {
        ChirpParams::new(500e3, 9).unwrap()
    }

    fn demodulate(
        demod: &ConcurrentDemodulator,
        symbol: &[Complex64],
        assignments: &[usize],
        thresholds: &[f64],
    ) -> Vec<SymbolDecision> {
        let mut decisions = Vec::new();
        demod
            .demodulate_symbol_with(
                symbol,
                assignments,
                thresholds,
                1.0,
                &mut DemodWorkspace::new(),
                &mut decisions,
            )
            .unwrap();
        decisions
    }

    #[test]
    fn zero_bit_is_silence_one_bit_is_chirp() {
        let m = OnOffModulator::new(params(), 10);
        let off = m.symbol(false, 0.0, 0.0, 1.0);
        let on = m.symbol(true, 0.0, 0.0, 1.0);
        assert!(mean_power(&off) == 0.0);
        assert!((mean_power(&on) - 1.0).abs() < 1e-9);
        assert_eq!(off.len(), 512);
        assert_eq!(on.len(), 512);
    }

    #[test]
    fn assigned_shift_wraps() {
        let m = OnOffModulator::new(params(), 512 + 5);
        assert_eq!(m.assigned_shift(), 5);
    }

    #[test]
    fn single_device_symbol_decodes_at_its_bin() {
        let p = params();
        let m = OnOffModulator::new(p, 100);
        let d = ConcurrentDemodulator::new(p, 8).unwrap();
        let sym = m.symbol(true, 0.0, 0.0, 1.0);
        let spec = d.padded_spectrum(&sym).unwrap();
        let peak = (0..spec.len())
            .max_by(|&a, &b| spec[a].total_cmp(&spec[b]))
            .unwrap();
        assert_eq!(peak, 100 * 8);
        assert!(d.device_power(&spec, 100, 1.0) >= spec[peak] * 0.999);
    }

    #[test]
    fn sixteen_concurrent_devices_all_decode() {
        let p = params();
        let demod = ConcurrentDemodulator::new(p, 8).unwrap();
        // Devices on every 32nd bin, alternating bit pattern.
        let assignments: Vec<usize> = (0..16).map(|i| i * 32).collect();
        let bits: Vec<bool> = (0..16).map(|i| i % 3 != 0).collect();
        // Superpose all devices into one buffer, in place.
        let mut rx = vec![Complex64::ZERO; p.num_bins()];
        for (&bin, &bit) in assignments.iter().zip(&bits) {
            OnOffModulator::new(p, bin).add_symbol(bit, 0.0, 0.0, 1.0, &mut rx);
        }
        let n2 = (p.num_bins() as f64).powi(2);
        let thresholds = vec![n2 * 0.25; assignments.len()];
        let decisions = demodulate(&demod, &rx, &assignments, &thresholds);
        for (dec, &expected) in decisions.iter().zip(&bits) {
            assert_eq!(dec.bit, expected, "device at bin {}", dec.assigned_bin);
        }
    }

    #[test]
    fn decoding_works_below_the_noise_floor() {
        // 64 concurrent devices, each at -5 dB SNR per sample: the dechirp+FFT
        // processing gain (≈27 dB at SF9) must still separate them.
        let p = params();
        let demod = ConcurrentDemodulator::new(p, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let assignments: Vec<usize> = (0..64).map(|i| i * 8).collect();
        let bits: Vec<bool> = (0..64).map(|i| (i * 5) % 4 != 0).collect();
        let amplitude = 1.0;
        let mut rx = vec![Complex64::ZERO; p.num_bins()];
        for (&bin, &bit) in assignments.iter().zip(&bits) {
            OnOffModulator::new(p, bin).add_symbol(bit, 0.0, 0.0, amplitude, &mut rx);
        }
        // Per-device SNR of -5 dB: noise power = amplitude^2 * 10^0.5.
        let noise_power = amplitude * amplitude * 10f64.powf(0.5);
        AwgnChannel::with_noise_power(noise_power).apply(&mut rng, &mut rx);
        let n = p.num_bins() as f64;
        // Expected on-peak power ~ (amplitude*n)^2; threshold at a quarter.
        let thresholds = vec![amplitude * amplitude * n * n * 0.25; assignments.len()];
        let decisions = demodulate(&demod, &rx, &assignments, &thresholds);
        let errors = decisions
            .iter()
            .zip(&bits)
            .filter(|(d, b)| d.bit != **b)
            .count();
        assert!(
            errors <= 1,
            "too many errors below the noise floor: {errors}"
        );
    }

    #[test]
    fn nan_contaminated_spectrum_does_not_panic_peak_searches() {
        // An impaired spectrum (e.g. overflow in an upstream stage) must
        // never panic the window searches.
        let p = params();
        let demod = ConcurrentDemodulator::new(p, 2).unwrap();
        let mut spec = vec![0.1; 2 * p.num_bins()];
        spec[80] = f64::NAN;
        spec[81] = 4.0;
        let _ = demod.device_power(&spec, 40, 1.0);
        let _ = demod.device_power_at(&spec, 40.5, 1.0);
    }

    #[test]
    fn lattice_grid_is_bit_identical_to_the_padded_grid_at_the_bins() {
        let p = params();
        let n = p.num_bins();
        let mut rng = StdRng::seed_from_u64(21);
        let mut rx = vec![Complex64::ZERO; n];
        for bin in [0usize, 1, 77, 300, n - 1] {
            OnOffModulator::new(p, bin).add_symbol(true, 0.7e-6, 150.0, 0.8, &mut rx);
        }
        AwgnChannel::with_noise_power(1.0).apply(&mut rng, &mut rx);
        for zero_padding in [1usize, 2, 4, 8] {
            let demod = ConcurrentDemodulator::new(p, zero_padding).unwrap();
            let padded = demod.padded_spectrum(&rx).unwrap();
            let mut ws = DemodWorkspace::new();
            let lattice = demod.spectrum_into(&rx, 1, &mut ws).unwrap();
            assert_eq!(lattice.len(), n);
            assert_eq!(padded.len(), n * zero_padding);
            for bin in 0..n {
                assert_eq!(
                    lattice[bin].to_bits(),
                    padded[bin * zero_padding].to_bits(),
                    "bin {bin}, zero padding {zero_padding}"
                );
                let at = |spec: &[f64]| demod.device_power_at(spec, bin as f64, 0.0);
                assert_eq!(at(lattice), at(&padded));
            }
        }
    }

    /// A half-width past the spectrum reads every point once and returns
    /// promptly, on either grid; a centre far off the grid cannot overflow.
    #[test]
    fn an_unbounded_window_reads_the_whole_spectrum_once() {
        let p = params();
        let n = p.num_bins();
        let demod = ConcurrentDemodulator::new(p, 8).unwrap();
        for total in [n, 8 * n] {
            let mut power: Vec<f64> = (0..total).map(|i| (i % 37) as f64).collect();
            power[total / 3] = 99.0;
            for halfwidth in [1e300, f64::INFINITY, (n / 2) as f64] {
                let (best, at) = demod.device_power_at(&power, 5.0, halfwidth);
                assert_eq!(best, 99.0, "{total} points, half-width {halfwidth}");
                assert!((at - 5.0).abs() <= (n / 2) as f64, "{at}");
            }
            assert_eq!(demod.device_power(&power, 7, f64::INFINITY), 99.0);
            assert_eq!(demod.device_power_at(&power, 1e300, 1e300).0, 99.0);
        }
    }

    #[test]
    fn readers_take_the_step_from_the_spectrum_and_wrap_at_the_band_edges() {
        let p = params();
        let n = p.num_bins();
        let demod = ConcurrentDemodulator::new(p, 8).unwrap();
        // A step-1 spectrum: one value per chirp bin.
        let mut power = vec![1.0f64; n];
        power[0] = 5.0;
        power[n - 1] = 3.0;
        // A ±1-bin window around the last bin reaches bin 0 across the wrap
        // and reports the unwrapped position, as on the padded grid.
        assert_eq!(
            demod.device_power_at(&power, (n - 1) as f64, 1.0),
            (5.0, n as f64)
        );
        assert_eq!(demod.device_power_at(&power, 0.0, 1.0), (5.0, 0.0));
        assert_eq!(demod.device_power_at(&power, 1.0, 0.0), (1.0, 1.0));
        power[n - 1] = 7.0;
        assert_eq!(demod.device_power_at(&power, 0.0, 1.0), (7.0, -1.0));
        assert_eq!(demod.device_power(&power, n, 0.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "grid step")]
    fn a_step_that_is_neither_grid_panics() {
        let p = params();
        let demod = ConcurrentDemodulator::new(p, 8).unwrap();
        let sym = vec![Complex64::ZERO; p.num_bins()];
        let _ = demod.spectrum_into(&sym, 4, &mut DemodWorkspace::new());
    }

    #[test]
    fn timing_offset_within_skip_window_still_decodes() {
        let p = params();
        let demod = ConcurrentDemodulator::new(p, 8).unwrap();
        let m = OnOffModulator::new(p, 200);
        // 1.8 µs offset ≈ 0.9 bins: within the ±1 bin search window of SKIP=2.
        let sym = m.symbol(true, 1.8e-6, 0.0, 1.0);
        let spec = demod.padded_spectrum(&sym).unwrap();
        let n2 = (p.num_bins() as f64).powi(2);
        let within = demod.device_power(&spec, 200, 1.0);
        let without = demod.device_power(&spec, 200, 0.0);
        assert!(
            within > 0.5 * n2,
            "search window should capture the shifted peak"
        );
        assert!(
            without < within,
            "zero-width search misses the shifted peak"
        );
    }

    #[test]
    fn wrong_symbol_length_is_rejected() {
        let demod = ConcurrentDemodulator::new(params(), 8).unwrap();
        assert!(demod.padded_spectrum(&[Complex64::ONE; 100]).is_err());
        assert!(demod
            .padded_spectrum_downchirp_into(&[Complex64::ONE; 100], &mut DemodWorkspace::new())
            .is_err());
    }

    #[test]
    fn non_power_of_two_padding_is_rejected() {
        assert!(ConcurrentDemodulator::new(params(), 3).is_err());
        assert!(ConcurrentDemodulator::new(params(), 0).is_ok()); // clamped to 1
    }

    #[test]
    #[should_panic(expected = "parallel slices")]
    fn mismatched_assignment_threshold_lengths_panic() {
        let p = params();
        let demod = ConcurrentDemodulator::new(p, 2).unwrap();
        let sym = vec![Complex64::ZERO; p.num_bins()];
        let _ = demodulate(&demod, &sym, &[1, 2], &[0.5]);
    }

    #[test]
    fn silence_produces_zero_bits_even_with_low_threshold() {
        let p = params();
        let demod = ConcurrentDemodulator::new(p, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut rx = vec![Complex64::ZERO; p.num_bins()];
        AwgnChannel::with_noise_power(1e-3).apply(&mut rng, &mut rx);
        let assignments = vec![0, 128, 256, 384];
        // Threshold calibrated for a unit-amplitude device.
        let n = p.num_bins() as f64;
        let thresholds = vec![n * n * 0.25; 4];
        let decisions = demodulate(&demod, &rx, &assignments, &thresholds);
        assert!(decisions.iter().all(|d| !d.bit));
    }

    #[test]
    fn downchirp_preamble_symbol_decodes_via_downchirp_spectrum() {
        let p = params();
        let m = OnOffModulator::new(p, 40);
        let demod = ConcurrentDemodulator::new(p, 4).unwrap();
        let sym = m.preamble_downchirp(0.0, 0.0, 1.0);
        let mut ws = DemodWorkspace::new();
        let spec = demod.padded_spectrum_downchirp_into(&sym, &mut ws).unwrap();
        let peak = (0..spec.len())
            .max_by(|&a, &b| spec[a].total_cmp(&spec[b]))
            .unwrap();
        // Downchirps dechirped with the upchirp mirror the bin: N - shift.
        assert_eq!(peak / 4, p.num_bins() - 40);
    }

    #[test]
    fn workspace_path_matches_allocating_path() {
        let p = params();
        let demod = ConcurrentDemodulator::new(p, 8).unwrap();
        let m = OnOffModulator::new(p, 77);
        let sym = m.symbol(true, 1e-6, 200.0, 0.8);
        let mut ws = DemodWorkspace::new();
        // Run twice through the same workspace: steady-state reuse must not
        // leak state between symbols.
        for _ in 0..2 {
            let fast = demod.padded_spectrum_into(&sym, &mut ws).unwrap().to_vec();
            assert_eq!(fast, demod.padded_spectrum(&sym).unwrap());
        }
    }

    #[test]
    fn modulate_payload_into_matches_allocating_path() {
        let p = params();
        let m = OnOffModulator::new(p, 31);
        let bits = [true, false, true, true];
        let mut buf = vec![Complex64::ONE; 7];
        m.modulate_payload_into(&bits, 1e-6, 120.0, 0.9, &mut buf);
        assert_eq!(buf, m.modulate_payload(&bits, 1e-6, 120.0, 0.9));
    }

    #[test]
    fn modulate_payload_concatenates_symbols() {
        let p = params();
        let m = OnOffModulator::new(p, 10);
        let bits = [true, false, true];
        let burst = m.modulate_payload(&bits, 0.0, 0.0, 1.0);
        assert_eq!(burst.len(), 3 * p.num_bins());
        // Middle symbol is silence.
        assert!(mean_power(&burst[p.num_bins()..2 * p.num_bins()]) == 0.0);
    }
}
