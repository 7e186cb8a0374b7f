//! The receiver reads every device at its own bin on the `2^SF`-point
//! spectrum. These tests pin that this is bit for bit the zero-padded
//! receiver of §3.2.3 read at the bins: a reference rebuilt here from the
//! demodulator's padded read makes the same detections, the same preamble
//! powers and the same payload bits as `decode_round`, across spreading
//! factors, padding factors and device counts, and at the shapes the daemon
//! decodes.

use netscatter::receiver::ConcurrentReceiver;
use netscatter_channel::noise::AwgnChannel;
use netscatter_dsp::Complex64;
use netscatter_phy::distributed::{ConcurrentDemodulator, DemodWorkspace, OnOffModulator};
use netscatter_phy::params::{ModulationConfig, PhyProfile};
use netscatter_phy::preamble::{
    PreambleBuilder, PreambleDetector, PREAMBLE_SYMBOLS, PREAMBLE_UPCHIRPS,
};
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

/// The receiver rebuilt on the zero-padded grid of `rx`'s profile, from
/// `ConcurrentDemodulator::{padded_spectrum_into, device_power(.., 0.0)}`: a
/// device is present when its bin clears the detection floor in all six
/// upchirps, its preamble power is their average, and each payload bit
/// (for every payload symbol present, at most `payload_symbols`) is its
/// bin's power against half that average. Returns
/// `(chirp_bin, preamble_power, bits)` per detected device.
fn padded_reference(
    rx: &ConcurrentReceiver,
    stream: &[Complex64],
    bins: &[usize],
    payload_symbols: usize,
) -> Vec<(usize, f64, Vec<bool>)> {
    let profile = rx.profile();
    let n = profile.modulation.num_bins();
    let demod =
        ConcurrentDemodulator::new(profile.modulation.chirp(), profile.zero_padding).unwrap();
    let mut ws = DemodWorkspace::new();
    let floor = (n as f64).powi(2) * rx.detection_floor_fraction;
    let mut preamble = vec![(0.0, true); bins.len()];
    for symbol in stream.chunks_exact(n).take(PREAMBLE_UPCHIRPS) {
        let power = demod.padded_spectrum_into(symbol, &mut ws).unwrap();
        assert_eq!(power.len(), n * profile.zero_padding);
        for (&bin, (sum, present)) in bins.iter().zip(&mut preamble) {
            let p = demod.device_power(power, bin, 0.0);
            *sum += p;
            *present &= p > floor;
        }
    }
    let mut devices: Vec<(usize, f64, Vec<bool>)> = bins
        .iter()
        .zip(&preamble)
        .filter(|(_, &(_, present))| present)
        .map(|(&bin, &(sum, _))| (bin, sum / PREAMBLE_UPCHIRPS as f64, Vec::new()))
        .collect();
    for symbol in stream[PREAMBLE_SYMBOLS * n..]
        .chunks_exact(n)
        .take(payload_symbols)
    {
        let power = demod.padded_spectrum_into(symbol, &mut ws).unwrap();
        for (bin, average, bits) in &mut devices {
            let threshold = PreambleDetector::payload_threshold(*average);
            bits.push(demod.device_power(power, *bin, 0.0) > threshold);
        }
    }
    devices
}

/// `decode_round` detects, measures and decodes exactly as
/// [`padded_reference`], device by device; returns the reference's bits.
fn assert_matches_reference(
    rx: &ConcurrentReceiver,
    stream: &[Complex64],
    bins: &[usize],
    payload_symbols: usize,
    case: &str,
) -> Vec<Vec<bool>> {
    let round = rx.decode_round(stream, 0, bins, payload_symbols).unwrap();
    let want = padded_reference(rx, stream, bins, payload_symbols);
    assert!(!want.is_empty(), "{case}: nothing detected");
    assert_eq!(round.devices.len(), want.len(), "{case}: detected set");
    for (got, (bin, power, bits)) in round.devices.iter().zip(&want) {
        assert_eq!(got.chirp_bin, *bin, "{case}");
        assert_eq!(
            got.preamble_power.to_bits(),
            power.to_bits(),
            "{case}: bin {bin}"
        );
        assert_eq!(&got.bits, bits, "{case}: bin {bin}");
    }
    want.into_iter().map(|(_, _, bits)| bits).collect()
}

#[test]
fn lattice_decode_equals_padded_decode_bit_for_bit() {
    for spreading_factor in [7u32, 8, 9] {
        for zero_padding in [1usize, 2, 4, 8] {
            let profile = profile(spreading_factor, zero_padding);
            let n = profile.modulation.num_bins();
            let rx = ConcurrentReceiver::new(&profile).unwrap();
            for devices in [1usize, 16, n / 2] {
                let case = format!("SF{spreading_factor} pad {zero_padding} devices {devices}");
                let seed =
                    u64::from(spreading_factor) * 1000 + (zero_padding * 100 + devices) as u64;
                let (stream, bins) = noisy_round(&profile, devices, PAYLOAD_SYMBOLS, seed);

                let mut ws = DemodWorkspace::new();
                rx.detect_devices_with(&stream, &bins, &mut ws).unwrap();
                assert_eq!(ws.power().len(), n, "{case}: lattice grid");
                let bits = assert_matches_reference(&rx, &stream, &bins, PAYLOAD_SYMBOLS, &case);
                assert!(bits.iter().all(|b| b.len() == PAYLOAD_SYMBOLS), "{case}");
            }
        }
    }
}

#[test]
fn decode_round_equals_the_per_symbol_decision_at_benchmark_shapes() {
    let profile = PhyProfile::default();
    let n = profile.modulation.num_bins();
    let rx = ConcurrentReceiver::new(&profile).unwrap();
    for payload_symbols in [40usize, 108] {
        let (stream, bins) = noisy_round(&profile, 256, payload_symbols, payload_symbols as u64);
        let case = format!("256 x {payload_symbols}");

        let clean = assert_matches_reference(&rx, &stream, &bins, payload_symbols, &case);
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
        let bits = assert_matches_reference(&rx, &poisoned, &bins, payload_symbols, &case);
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
        let bits = assert_matches_reference(&rx, cut, &bins, payload_symbols, &case);
        for (b, c) in bits.iter().zip(&clean) {
            assert_eq!(b[..], c[..whole], "{case}");
        }
    }
}
