//! The receiver sizes its per-symbol FFT to what it will read: the `2^SF`
//! chirp bins when every search bound is zero, the zero-padded sub-bin grid
//! otherwise. These tests pin the two properties that make that safe: the
//! two grids decode bit-identically wherever both apply, and any non-zero
//! bound (or an off-bin `observed_bin`) still gets the padded grid. They
//! also pin `decode_round`'s per-round read table against the per-symbol
//! decision it replaces, at the shapes the daemon decodes.

use netscatter::receiver::ConcurrentReceiver;
use netscatter_channel::noise::AwgnChannel;
use netscatter_dsp::Complex64;
use netscatter_phy::distributed::{ConcurrentDemodulator, DemodWorkspace, OnOffModulator};
use netscatter_phy::params::{ModulationConfig, PhyProfile};
use netscatter_phy::preamble::{PreambleBuilder, PreambleDetector, PREAMBLE_SYMBOLS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BANDWIDTH_HZ: f64 = 500e3;
const PAYLOAD_SYMBOLS: usize = 12;

fn profile(spreading_factor: u32, zero_padding: usize) -> PhyProfile {
    PhyProfile {
        modulation: ModulationConfig::new(BANDWIDTH_HZ, spreading_factor).unwrap(),
        zero_padding,
        ..PhyProfile::default()
    }
}

/// A receiver whose bounds are non-zero but round to zero grid points: it
/// reads exactly what the default receiver reads, from the padded grid — the
/// pre-change decode path.
fn padded_reference(profile: &PhyProfile) -> ConcurrentReceiver {
    let mut rx = ConcurrentReceiver::new(profile).unwrap();
    rx.set_preamble_tracking(1e-9, 0.0);
    rx.payload_halfwidth_bins = 1e-9;
    rx
}

/// One superposed round of `devices` evenly spaced devices and
/// `payload_symbols` payload symbols, each device with its own amplitude,
/// CFO and sub-half-bin timing offset, under AWGN at 0 dB per full-scale
/// device. Returns the samples and the assigned bins.
fn noisy_round(
    profile: &PhyProfile,
    devices: usize,
    payload_symbols: usize,
    seed: u64,
) -> (Vec<Complex64>, Vec<usize>) {
    let params = profile.modulation.chirp();
    let n = params.num_bins();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = vec![Complex64::ZERO; (PREAMBLE_SYMBOLS + payload_symbols) * n];
    let bins: Vec<usize> = (0..devices).map(|i| i * (n / devices)).collect();
    for &bin in &bins {
        let timing_s = rng.gen_range(-0.45..0.45) / BANDWIDTH_HZ;
        let cfo_hz = rng.gen_range(-100.0..100.0);
        let amplitude = rng.gen_range(0.3..1.0);
        let bits: Vec<bool> = (0..payload_symbols).map(|_| rng.gen_bool(0.5)).collect();
        let preamble = PreambleBuilder::new(params, bin).build(timing_s, cfo_hz, amplitude);
        let payload =
            OnOffModulator::new(params, bin).modulate_payload(&bits, timing_s, cfo_hz, amplitude);
        for (acc, s) in stream.iter_mut().zip(preamble.iter().chain(&payload)) {
            *acc += *s;
        }
    }
    AwgnChannel::with_noise_power(1.0).apply(&mut rng, &mut stream);
    (stream, bins)
}

#[test]
fn lattice_decode_equals_padded_decode_bit_for_bit() {
    for spreading_factor in [7u32, 8, 9] {
        for zero_padding in [1usize, 2, 4, 8] {
            let profile = profile(spreading_factor, zero_padding);
            let n = profile.modulation.num_bins();
            let fast = ConcurrentReceiver::new(&profile).unwrap();
            let reference = padded_reference(&profile);
            for devices in [1usize, 16, n / 2] {
                let case = format!("SF{spreading_factor} pad {zero_padding} devices {devices}");
                let seed =
                    u64::from(spreading_factor) * 1000 + (zero_padding * 100 + devices) as u64;
                let (stream, bins) = noisy_round(&profile, devices, PAYLOAD_SYMBOLS, seed);

                let mut ws = DemodWorkspace::new();
                let mut ref_ws = DemodWorkspace::new();
                let got = fast.detect_devices_with(&stream, &bins, &mut ws).unwrap();
                let want = reference
                    .detect_devices_with(&stream, &bins, &mut ref_ws)
                    .unwrap();
                assert_eq!(ws.power().len(), n, "{case}: lattice grid");
                assert_eq!(ref_ws.power().len(), n * zero_padding, "{case}: padded");
                assert!(!got.is_empty(), "{case}: nothing detected");
                assert_eq!(got.len(), want.len(), "{case}: detected set");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.chirp_bin, w.chirp_bin, "{case}");
                    assert_eq!(
                        g.average_power.to_bits(),
                        w.average_power.to_bits(),
                        "{case}: bin {}",
                        g.chirp_bin
                    );
                    assert_eq!(g.observed_bin.to_bits(), w.observed_bin.to_bits(), "{case}");
                }

                let got = fast
                    .decode_round(&stream, 0, &bins, PAYLOAD_SYMBOLS)
                    .unwrap();
                let want = reference
                    .decode_round(&stream, 0, &bins, PAYLOAD_SYMBOLS)
                    .unwrap();
                assert_eq!(got.devices.len(), want.devices.len(), "{case}");
                for (g, w) in got.devices.iter().zip(&want.devices) {
                    assert_eq!(g.chirp_bin, w.chirp_bin, "{case}");
                    assert_eq!(
                        g.preamble_power.to_bits(),
                        w.preamble_power.to_bits(),
                        "{case}"
                    );
                    assert_eq!(g.bits.len(), PAYLOAD_SYMBOLS, "{case}");
                    assert_eq!(g.bits, w.bits, "{case}: bin {}", g.chirp_bin);
                }
            }
        }
    }
}

/// The per-symbol decision `decode_round` must make, computed the slow way:
/// for every payload symbol present in `stream` (at most
/// `payload_symbols`), one spectrum on the grid with `step` points per bin,
/// then `device_power_at(..).0 > payload_threshold(..)` per detected device.
/// Returns each device's bits, in detection order.
fn oracle_bits(
    rx: &ConcurrentReceiver,
    stream: &[Complex64],
    bins: &[usize],
    payload_symbols: usize,
    step: usize,
) -> Vec<Vec<bool>> {
    let profile = rx.profile();
    let n = profile.modulation.num_bins();
    let demod =
        ConcurrentDemodulator::new(profile.modulation.chirp(), profile.zero_padding).unwrap();
    let mut ws = DemodWorkspace::new();
    let detected = rx.detect_devices_with(stream, bins, &mut ws).unwrap();
    let mut bits = vec![Vec::new(); detected.len()];
    for symbol in stream[PREAMBLE_SYMBOLS * n..]
        .chunks_exact(n)
        .take(payload_symbols)
    {
        let power = demod.spectrum_into(symbol, step, &mut ws).unwrap();
        for (d, out) in detected.iter().zip(&mut bits) {
            let (p, _) = demod.device_power_at(power, d.observed_bin, rx.payload_halfwidth_bins);
            out.push(p > PreambleDetector::payload_threshold(d.average_power));
        }
    }
    bits
}

/// `decode_round`'s bits equal [`oracle_bits`], device by device.
fn assert_matches_oracle(
    rx: &ConcurrentReceiver,
    stream: &[Complex64],
    bins: &[usize],
    payload_symbols: usize,
    step: usize,
    case: &str,
) -> Vec<Vec<bool>> {
    let round = rx.decode_round(stream, 0, bins, payload_symbols).unwrap();
    let want = oracle_bits(rx, stream, bins, payload_symbols, step);
    assert!(!want.is_empty(), "{case}: nothing detected");
    assert_eq!(round.devices.len(), want.len(), "{case}: detected set");
    for (got, want) in round.devices.iter().zip(&want) {
        assert_eq!(&got.bits, want, "{case}: bin {}", got.chirp_bin);
    }
    want
}

#[test]
fn decode_round_equals_the_per_symbol_decision_at_benchmark_shapes() {
    let profile = PhyProfile::default();
    let n = profile.modulation.num_bins();
    let rx = ConcurrentReceiver::new(&profile).unwrap();
    for payload_symbols in [40usize, 108] {
        let (stream, bins) = noisy_round(&profile, 256, payload_symbols, payload_symbols as u64);
        let case = format!("256 x {payload_symbols}");

        let clean = assert_matches_oracle(&rx, &stream, &bins, payload_symbols, 1, &case);
        assert!(clean.len() > 200, "{case}: {} detected", clean.len());
        assert!(clean.iter().all(|b| b.len() == payload_symbols), "{case}");

        // Non-finite samples in one payload symbol turn its whole spectrum
        // non-finite: a NaN power reads as "off", an infinite one as "on".
        let hit = 7;
        let mut poisoned = stream.clone();
        let at = (PREAMBLE_SYMBOLS + hit) * n;
        poisoned[at + 3] = Complex64::new(f64::NAN, 0.0);
        poisoned[at + 100] = Complex64::new(f64::INFINITY, 0.0);
        poisoned[at + 200] = Complex64::new(0.0, f64::NEG_INFINITY);
        let case = format!("{case} with NaN and inf in symbol {hit}");
        let bits = assert_matches_oracle(&rx, &poisoned, &bins, payload_symbols, 1, &case);
        assert!(
            bits.iter().all(|b| !b[hit]),
            "{case}: a NaN spectrum decodes as off"
        );
        for (b, c) in bits.iter().zip(&clean) {
            assert_eq!(b[..hit], c[..hit], "{case}: symbols before the hit");
            assert_eq!(b[hit + 1..], c[hit + 1..], "{case}: symbols after the hit");
        }

        // A stream cut halfway through a payload symbol decodes the whole
        // symbols before the cut, sized by what is there.
        let whole = payload_symbols / 2;
        let cut = &stream[..(PREAMBLE_SYMBOLS + whole) * n + n / 2];
        let case = format!("256 x {payload_symbols} cut after {whole} symbols");
        let bits = assert_matches_oracle(&rx, cut, &bins, payload_symbols, 1, &case);
        for (b, c) in bits.iter().zip(&clean) {
            assert_eq!(b[..], c[..whole], "{case}");
        }
    }
}

#[test]
fn any_nonzero_search_bound_selects_the_padded_grid() {
    let profile = PhyProfile::default();
    let n = profile.modulation.num_bins();
    let padded_len = n * profile.zero_padding;
    let (stream, bins) = noisy_round(&profile, 16, PAYLOAD_SYMBOLS, 5);
    let mut ws = DemodWorkspace::new();

    let default = ConcurrentReceiver::new(&profile).unwrap();
    default
        .detect_devices_with(&stream, &bins, &mut ws)
        .unwrap();
    assert_eq!(ws.power().len(), n);

    for (halfwidth, bias) in [(1.0, 0.0), (0.0, 0.75), (1.0, 0.75), (0.5, -0.5)] {
        let mut rx = ConcurrentReceiver::new(&profile).unwrap();
        rx.set_preamble_tracking(halfwidth, bias);
        rx.detect_devices_with(&stream, &bins, &mut ws).unwrap();
        assert_eq!(
            ws.power().len(),
            padded_len,
            "tracking ({halfwidth}, {bias})"
        );
    }

    // The payload reads follow the same rule: the default receiver decodes
    // on the lattice, a payload window reads its run of padded-grid points,
    // and a tracked preamble leaves devices between bins, where the payload
    // read follows them even with no payload window.
    let pad = profile.zero_padding;
    assert_matches_oracle(&default, &stream, &bins, PAYLOAD_SYMBOLS, 1, "default");
    let mut windowed = ConcurrentReceiver::new(&profile).unwrap();
    windowed.payload_halfwidth_bins = 0.25;
    assert_matches_oracle(
        &windowed,
        &stream,
        &bins,
        PAYLOAD_SYMBOLS,
        pad,
        "payload window",
    );
    let mut tracked = ConcurrentReceiver::new(&profile).unwrap();
    tracked.set_preamble_tracking(1.0, 0.75);
    let detected = tracked
        .detect_devices_with(&stream, &bins, &mut ws)
        .unwrap();
    assert!(detected.iter().any(|d| d.observed_bin.fract() != 0.0));
    assert_matches_oracle(
        &tracked,
        &stream,
        &bins,
        PAYLOAD_SYMBOLS,
        pad,
        "off-bin observed_bin",
    );
}
