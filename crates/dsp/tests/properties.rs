//! Property-based tests for the DSP substrate.
//!
//! These exercise the algebraic invariants the rest of the workspace relies
//! on: FFT round-trips and energy conservation, chirp orthogonality of cyclic
//! shifts, and the exact correspondence between cyclic shift and FFT peak.

use netscatter_dsp::chirp::{ChirpParams, ChirpSynthesizer};
use netscatter_dsp::complex::total_power;
use netscatter_dsp::correlator::{shift_template, ChirpBank};
use netscatter_dsp::fft::{fft, ifft, Fft};
use netscatter_dsp::Complex64;
use proptest::prelude::*;
use std::f64::consts::PI;

/// The strongest bin of a spectrum.
fn peak_bin(spec: &[Complex64]) -> usize {
    (0..spec.len())
        .max_by(|&a, &b| spec[a].norm_sqr().total_cmp(&spec[b].norm_sqr()))
        .unwrap()
}

fn arb_complex() -> impl Strategy<Value = Complex64> {
    (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| Complex64::new(re, im))
}

fn arb_signal(log2_len: u32) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec(arb_complex(), 1usize << log2_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ifft(fft(x)) == x for arbitrary signals.
    #[test]
    fn fft_round_trip(signal in arb_signal(7)) {
        let spec = fft(&signal).unwrap();
        let back = ifft(&spec).unwrap();
        for (a, b) in signal.iter().zip(back.iter()) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// Parseval: time-domain energy equals frequency-domain energy / N.
    #[test]
    fn fft_preserves_energy(signal in arb_signal(8)) {
        let spec = fft(&signal).unwrap();
        let t = total_power(&signal);
        let f = total_power(&spec) / signal.len() as f64;
        prop_assert!((t - f).abs() <= 1e-9 * t.max(1.0));
    }

    /// The FFT is linear: F(a·x + y) == a·F(x) + F(y).
    #[test]
    fn fft_is_linear(x in arb_signal(6), y in arb_signal(6), a in -3.0f64..3.0) {
        let combo: Vec<Complex64> = x.iter().zip(&y).map(|(u, v)| u.scale(a) + *v).collect();
        let fx = fft(&x).unwrap();
        let fy = fft(&y).unwrap();
        let fc = fft(&combo).unwrap();
        for k in 0..combo.len() {
            prop_assert!((fc[k] - (fx[k].scale(a) + fy[k])).abs() < 1e-8);
        }
    }

    /// Dechirping a cyclically shifted chirp always produces a peak exactly at
    /// the assigned shift, for every spreading factor used in the paper.
    #[test]
    fn cyclic_shift_maps_to_fft_bin(sf in 6u32..=10, shift in 0usize..1024) {
        let params = ChirpParams::new(500e3, sf).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let shift = shift % params.num_bins();
        let symbol = synth.shifted_upchirp(shift);
        let spec = fft(&synth.dechirp(&symbol)).unwrap();
        prop_assert_eq!(peak_bin(&spec), shift);
    }

    /// Two devices on different cyclic shifts never mask each other when
    /// received at equal power with no impairments (ideal orthogonality of
    /// the distributed code).
    #[test]
    fn distinct_shifts_are_orthogonal(a in 0usize..256, b in 0usize..256) {
        prop_assume!(a != b);
        let params = ChirpParams::new(500e3, 8).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let sum: Vec<Complex64> = synth
            .shifted_upchirp(a)
            .iter()
            .zip(synth.shifted_upchirp(b).iter())
            .map(|(x, y)| *x + *y)
            .collect();
        let spec = fft(&synth.dechirp(&sum)).unwrap();
        let n = params.num_bins() as f64;
        prop_assert!(spec[a].abs() > 0.9 * n);
        prop_assert!(spec[b].abs() > 0.9 * n);
    }

    /// Timing offsets translate to the predicted FFT-bin movement
    /// (ΔFFTbin = Δt · BW, §3.2.1). A misaligned window straddles two
    /// consecutive identical symbols, which smears the peak slightly, so the
    /// measured location is required to stay within one bin of the formula —
    /// the same granularity at which the paper applies it (SKIP sizing).
    #[test]
    fn timing_offset_shifts_peak_fractionally(offset_us in -1.5f64..1.5) {
        let params = ChirpParams::new(500e3, 9).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let assigned = 100usize;
        let dt = offset_us * 1e-6;
        let symbol = synth.impaired_upchirp(assigned, dt, 0.0, 1.0);
        let plan = Fft::new(params.num_bins() * 8).unwrap();
        let spec = plan.forward_zero_padded(&synth.dechirp(&symbol)).unwrap();
        let measured_bin = peak_bin(&spec) as f64 / 8.0;
        let expected = assigned as f64 + params.timing_offset_to_bins(dt);
        prop_assert!((measured_bin - expected).abs() < 0.75,
            "measured {measured_bin}, expected {expected}");
        // And the integer-bin decision never moves further than the formula predicts.
        prop_assert!((measured_bin - assigned as f64).abs() <= params.timing_offset_to_bins(dt).abs() + 0.5);
    }

    /// Quantile estimates from the empirical CDF always lie within the sample range.
    #[test]
    fn cdf_quantiles_within_range(samples in prop::collection::vec(-100.0f64..100.0, 1..200), q in 0.0f64..1.0) {
        let cdf = netscatter_dsp::stats::EmpiricalCdf::from_samples(samples.clone());
        let v = cdf.quantile(q);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo && v <= hi);
    }

    /// The input-pruned zero-padded transform is numerically identical (to
    /// 1e-9) to the dense pad-then-transform path, over random inputs,
    /// input lengths (power-of-two or not) and padding factors.
    #[test]
    fn pruned_zero_padded_fft_matches_dense(
        signal in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..257),
        log2_pad in 0u32..=4,
    ) {
        let input: Vec<Complex64> = signal.iter().map(|(re, im)| Complex64::new(*re, *im)).collect();
        let size = (input.len().next_power_of_two() << log2_pad).max(2);
        let plan = Fft::new(size).unwrap();
        // Dense reference: explicit zero-pad, full permutation + all stages.
        let mut dense = input.clone();
        dense.resize(size, Complex64::ZERO);
        plan.forward_in_place(&mut dense).unwrap();
        // Pruned path (forward_zero_padded delegates to the _into variant).
        let pruned = plan.forward_zero_padded(&input).unwrap();
        for (a, b) in pruned.iter().zip(dense.iter()) {
            prop_assert!((*a - *b).abs() < 1e-9, "{a:?} != {b:?}");
        }
    }

    /// The phase-rotation-recurrence chirp synthesizer agrees with the
    /// closed-form `cis(φ)` evaluation (the documented quadratic phase
    /// `φ(i) = 2π(i²/(2N) − i/2)` at `(i + shift + Δt·BW) mod N`, plus the
    /// CFO ramp) for random impairments, both chirp directions.
    #[test]
    fn chirp_recurrence_matches_cis_closed_form(
        sf in 6u32..=10,
        shift in 0usize..1024,
        dt_us in -3.0f64..3.0,
        f_hz in -500.0f64..500.0,
        amplitude in 0.01f64..2.0,
        down_sel in 0u32..2,
    ) {
        let down = down_sel == 1;
        let params = ChirpParams::new(500e3, sf).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let n = params.num_bins();
        let shift = shift % n;
        let dt = dt_us * 1e-6;
        let symbol = if down {
            synth.impaired_downchirp(shift, dt, f_hz, amplitude)
        } else {
            synth.impaired_upchirp(shift, dt, f_hz, amplitude)
        };
        let fs = params.bandwidth_hz();
        let nf = n as f64;
        let dt_samples = dt * fs;
        for (i, got) in symbol.iter().enumerate() {
            let idx = (i as f64 + shift as f64 + dt_samples).rem_euclid(nf);
            let base = 2.0 * PI * (idx * idx / (2.0 * nf) - idx / 2.0);
            let base = if down { -base } else { base };
            let cfo = 2.0 * PI * f_hz * (i as f64 / fs);
            let want = Complex64::cis(base + cfo).scale(amplitude);
            prop_assert!(
                (*got - want).abs() < 1e-9 * amplitude.max(1.0),
                "sample {i}: {got:?} != {want:?}"
            );
        }
    }

    /// The oversampled recurrence matches the closed form too (no CFO, unit
    /// fractional step 1/oversample).
    #[test]
    fn oversampled_chirp_recurrence_matches_cis(
        shift in 0usize..512,
        log2_os in 0u32..=3,
    ) {
        let params = ChirpParams::new(500e3, 9).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let os = 1usize << log2_os;
        let n = params.num_bins();
        let nf = n as f64;
        let symbol = synth.oversampled_upchirp(shift, os, 1.0);
        prop_assert_eq!(symbol.len(), n * os);
        for (i, got) in symbol.iter().enumerate() {
            let idx = (i as f64 / os as f64 + (shift % n) as f64).rem_euclid(nf);
            let want = Complex64::cis(2.0 * PI * (idx * idx / (2.0 * nf) - idx / 2.0));
            prop_assert!((*got - want).abs() < 1e-9, "sample {i}: {got:?} != {want:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The chirp bank output at every bin equals the lag-0 correlation
    /// against the corresponding shift template.
    #[test]
    fn chirp_bank_matches_per_template_correlation(
        symbol in prop::collection::vec(arb_complex(), 64),
        bin in 0usize..64,
        down_sel in 0u8..2,
    ) {
        let down = down_sel == 1;
        let params = ChirpParams::new(500e3, 6).unwrap();
        let bank = ChirpBank::new(params).unwrap();
        let synth = ChirpSynthesizer::new(params);
        let mut bins = Vec::new();
        if down {
            bank.downchirp_bank_into(&symbol, &mut bins).unwrap();
        } else {
            bank.upchirp_bank_into(&symbol, &mut bins).unwrap();
        }
        let template = shift_template(&synth, bin, down);
        let direct: Complex64 = symbol
            .iter()
            .zip(template.iter())
            .map(|(s, t)| *s * t.conj())
            .sum();
        prop_assert!(
            (bins[bin] - direct).abs() < 1e-9 * 64.0,
            "bin {}: {:?} != {:?}", bin, bins[bin], direct
        );
    }

    /// Every candidate of a sliding pass reads, bin for bin, what the bank
    /// gives for that candidate's own window.
    #[test]
    fn sliding_bank_matches_per_window_bank(
        pool in prop::collection::vec(arb_complex(), 512 + 23),
        sf in 0usize..3,
        candidates in 1usize..=24,
        down_sel in 0u8..2,
    ) {
        let down = down_sel == 1;
        let n = [32usize, 64, 512][sf];
        let bank = ChirpBank::new(ChirpParams::new(500e3, n.trailing_zeros()).unwrap()).unwrap();
        let samples = &pool[..n + candidates - 1];
        let peak = samples.iter().map(|s| s.abs()).fold(0.0, f64::max);
        let (mut spec, mut own) = (Vec::new(), Vec::new());
        let mut seen = 0;
        bank.sliding_bank_into(samples, down, &mut spec, |c, sliding| {
            assert_eq!(c, seen);
            seen += 1;
            if down {
                bank.downchirp_bank_into(&samples[c..c + n], &mut own).unwrap();
            } else {
                bank.upchirp_bank_into(&samples[c..c + n], &mut own).unwrap();
            }
            for (bin, want) in own.iter().enumerate() {
                let got = sliding.power(bin).sqrt();
                assert!(
                    (got - want.abs()).abs() < 1e-9 * n as f64 * peak,
                    "n {n} down {down} candidate {c} bin {bin}: {got} != {}", want.abs()
                );
            }
        }).unwrap();
        prop_assert_eq!(seen, candidates);
        prop_assert!(bank.sliding_bank_into(&samples[..n - 1], down, &mut spec, |_, _| ()).is_err());
    }
}
