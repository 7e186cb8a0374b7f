//! The receiver sizes its per-symbol FFT to what it will read: the `2^SF`
//! chirp bins when every search bound is zero, the zero-padded sub-bin grid
//! otherwise. These tests pin the two properties that make that safe: the
//! two grids decode bit-identically wherever both apply, and any non-zero
//! bound (or an off-bin `observed_bin`) still gets the padded grid.

use netscatter::receiver::ConcurrentReceiver;
use netscatter_channel::noise::AwgnChannel;
use netscatter_dsp::Complex64;
use netscatter_phy::distributed::{DemodWorkspace, OnOffModulator};
use netscatter_phy::params::{ModulationConfig, PhyProfile};
use netscatter_phy::preamble::{DetectedDevice, PreambleBuilder, PREAMBLE_SYMBOLS};
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

/// One superposed round of `devices` evenly spaced devices, each with its own
/// amplitude, CFO and sub-half-bin timing offset, under AWGN at 0 dB per
/// full-scale device. Returns the samples and the assigned bins.
fn noisy_round(profile: &PhyProfile, devices: usize, seed: u64) -> (Vec<Complex64>, Vec<usize>) {
    let params = profile.modulation.chirp();
    let n = params.num_bins();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = vec![Complex64::ZERO; (PREAMBLE_SYMBOLS + PAYLOAD_SYMBOLS) * n];
    let bins: Vec<usize> = (0..devices).map(|i| i * (n / devices)).collect();
    for &bin in &bins {
        let timing_s = rng.gen_range(-0.45..0.45) / BANDWIDTH_HZ;
        let cfo_hz = rng.gen_range(-100.0..100.0);
        let amplitude = rng.gen_range(0.3..1.0);
        let bits: Vec<bool> = (0..PAYLOAD_SYMBOLS).map(|_| rng.gen_bool(0.5)).collect();
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
                let (stream, bins) = noisy_round(&profile, devices, seed);

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

#[test]
fn any_nonzero_search_bound_selects_the_padded_grid() {
    let profile = PhyProfile::default();
    let n = profile.modulation.num_bins();
    let padded_len = n * profile.zero_padding;
    let (stream, bins) = noisy_round(&profile, 16, 5);
    let mut ws = DemodWorkspace::new();

    let default = ConcurrentReceiver::new(&profile).unwrap();
    let detected = default
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

    let symbol = &stream[PREAMBLE_SYMBOLS * n..(PREAMBLE_SYMBOLS + 1) * n];
    let mut bits = Vec::new();
    default
        .decode_payload_symbol_with(symbol, &detected, &mut ws, &mut bits)
        .unwrap();
    assert_eq!(ws.power().len(), n);

    let mut windowed = ConcurrentReceiver::new(&profile).unwrap();
    windowed.payload_halfwidth_bins = 0.25;
    windowed
        .decode_payload_symbol_with(symbol, &detected, &mut ws, &mut bits)
        .unwrap();
    assert_eq!(ws.power().len(), padded_len, "payload window");

    // A tracked preamble leaves devices between bins: the payload read
    // follows them there even with no payload window.
    let tracked: Vec<DetectedDevice> = detected
        .iter()
        .map(|d| DetectedDevice {
            observed_bin: d.observed_bin + 0.375,
            ..*d
        })
        .collect();
    default
        .decode_payload_symbol_with(symbol, &tracked, &mut ws, &mut bits)
        .unwrap();
    assert_eq!(ws.power().len(), padded_len, "off-bin observed_bin");
}
