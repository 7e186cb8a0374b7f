//! Micro-benchmarks of the receiver primitives, including the
//! receiver-complexity claim of §3.1: the per-symbol decode cost is dominated
//! by one dechirp + FFT and grows only marginally with the number of
//! concurrent devices — and the link layer's per-round frame decode at the
//! geometry where it dominates the serving thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netscatter::receiver::ConcurrentReceiver;
use netscatter_coding::frame::FrameCodec;
use netscatter_coding::CodingScheme;
use netscatter_dsp::chirp::{ChirpParams, ChirpSynthesizer};
use netscatter_dsp::fft::Fft;
use netscatter_dsp::Complex64;
use netscatter_phy::distributed::{DemodWorkspace, OnOffModulator};
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::DetectedDevice;
use std::hint::black_box;

fn fft_and_dechirp(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    group.sample_size(20);
    let params = ChirpParams::new(500e3, 9).unwrap();
    let synth = ChirpSynthesizer::new(params);
    let symbol = synth.shifted_upchirp(123);
    let mut scratch: Vec<Complex64> = Vec::new();
    group.bench_function("dechirp_512", |b| {
        b.iter(|| {
            synth.dechirp_into(&symbol, &mut scratch);
            black_box(scratch.len())
        })
    });
    let fft = Fft::new(4096).unwrap();
    let dechirped = synth.dechirp(&symbol);
    let mut spectrum: Vec<Complex64> = Vec::new();
    group.bench_function("zero_padded_fft_4096", |b| {
        b.iter(|| {
            fft.forward_zero_padded_into(&dechirped, &mut spectrum)
                .unwrap();
            black_box(spectrum[0])
        })
    });
    group.bench_function("chirp_synthesis", |b| {
        b.iter(|| {
            synth.impaired_upchirp_into(200, 1.5e-6, 100.0, 0.7, &mut scratch);
            black_box(scratch[0])
        })
    });
    group.finish();
}

fn receiver_complexity_vs_devices(c: &mut Criterion) {
    let mut group = c.benchmark_group("receiver_complexity");
    group.sample_size(10);
    let profile = PhyProfile::default();
    let params = profile.modulation.chirp();
    let rx = ConcurrentReceiver::new(&profile).unwrap();
    let mut ws = DemodWorkspace::new();
    let mut bits: Vec<bool> = Vec::new();
    for &n_devices in &[1usize, 16, 64, 256] {
        // Superpose n devices into one payload symbol, in place.
        let mut symbol = vec![Complex64::ZERO; params.num_bins()];
        let mut detected = Vec::new();
        for i in 0..n_devices {
            let bin = (i * 2) % params.num_bins();
            OnOffModulator::new(params, bin).add_symbol(true, 0.0, 0.0, 1.0, &mut symbol);
            detected.push(DetectedDevice {
                chirp_bin: bin,
                average_power: (params.num_bins() as f64).powi(2),
                observed_bin: bin as f64,
            });
        }
        group.bench_with_input(
            BenchmarkId::new("decode_payload_symbol", n_devices),
            &n_devices,
            |b, _| {
                b.iter(|| {
                    rx.decode_payload_symbol_with(&symbol, &detected, &mut ws, &mut bits)
                        .unwrap();
                    black_box(bits.len())
                })
            },
        );
    }
    group.finish();
}

/// One coded 256-device round as the daemon's serving thread sees it: 256
/// clean K=7 convolutional frames of 108 on-air bits (the repo benchmark's
/// `coded256` geometry), each through `FrameCodec::decode_frame`.
fn coding_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("coding_decode");
    group.sample_size(20);
    let codec = FrameCodec::new(CodingScheme::Conv, 108).unwrap();
    let frames: Vec<Vec<bool>> = (0..256usize)
        .map(|device| {
            let data: Vec<bool> = (0..codec.data_bits())
                .map(|i| (device * 31 + i * 7) % 5 < 2)
                .collect();
            codec.encode_frame(device as u8, &data)
        })
        .collect();
    group.bench_function(BenchmarkId::new("conv", 108), |b| {
        b.iter(|| {
            let ok = frames
                .iter()
                .filter(|frame| codec.decode_frame(black_box(frame)).crc_ok)
                .count();
            assert_eq!(ok, frames.len());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    fft_and_dechirp,
    receiver_complexity_vs_devices,
    coding_decode
);
criterion_main!(benches);
