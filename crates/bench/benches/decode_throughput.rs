//! End-to-end decode throughput and the pruned-vs-dense zero-padded FFT
//! comparison.
//!
//! * `decode_throughput/full_round/N` — decoding a complete round (preamble
//!   detection + 16 payload symbols) for N ∈ {16, 64, 256} concurrent
//!   devices through the workspace-backed receiver. The §3.1 claim is that
//!   the per-symbol cost is one dechirp + FFT regardless of N; dividing the
//!   reported median by 16 gives the per-symbol decode time, whose inverse
//!   is the symbols/sec figure `perf_snapshot` tracks.
//! * `symbol_spectrum/{lattice,padded}` — the per-symbol dechirp + FFT +
//!   power pass on the `2^SF`-point lattice `decode_round` computes when
//!   every search bound is zero, versus the `2^SF · 8` zero-padded grid it
//!   computes when tracking or a payload window reads between bins.
//! * `zero_padded_fft/{pruned,dense}` — the 512→4096 sub-bin transform of
//!   §3.2.3 with input pruning (first `log2(8) = 3` butterfly stages
//!   skipped) versus the dense pad-then-transform path over the same plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netscatter::receiver::ConcurrentReceiver;
use netscatter_dsp::chirp::ChirpSynthesizer;
use netscatter_dsp::fft::Fft;
use netscatter_dsp::Complex64;
use netscatter_phy::distributed::{ConcurrentDemodulator, DemodWorkspace};
use netscatter_phy::params::PhyProfile;
use netscatter_sim::workloads::build_concurrent_round;
use std::hint::black_box;

const PAYLOAD_SYMBOLS: usize = 16;

fn full_round_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_throughput");
    group.sample_size(10);
    let profile = PhyProfile::default();
    for &n_devices in &[16usize, 64, 256] {
        let rx = ConcurrentReceiver::new(&profile).unwrap();
        let (stream, bins) = build_concurrent_round(&profile, n_devices, PAYLOAD_SYMBOLS);
        group.bench_with_input(
            BenchmarkId::new("full_round", n_devices),
            &n_devices,
            |b, _| {
                b.iter(|| {
                    let round = rx.decode_round(&stream, 0, &bins, PAYLOAD_SYMBOLS).unwrap();
                    black_box(round.devices.len())
                })
            },
        );
    }
    group.finish();
}

fn lattice_vs_padded_spectrum(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbol_spectrum");
    group.sample_size(20);
    let profile = PhyProfile::default();
    let demod =
        ConcurrentDemodulator::new(profile.modulation.chirp(), profile.zero_padding).unwrap();
    let (stream, _) = build_concurrent_round(&profile, 256, 1);
    let symbol = &stream[..profile.modulation.num_bins()];
    let mut ws = DemodWorkspace::new();
    for (name, step) in [("lattice", 1), ("padded", profile.zero_padding)] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(demod.spectrum_into(symbol, step, &mut ws).unwrap()[0]))
        });
    }
    group.finish();
}

fn pruned_vs_dense_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("zero_padded_fft");
    group.sample_size(20);
    let synth = ChirpSynthesizer::new(netscatter_dsp::ChirpParams::paper_default());
    let dechirped = synth.dechirp(&synth.shifted_upchirp(123));
    let plan = Fft::new(4096).unwrap();
    let mut out: Vec<Complex64> = Vec::new();
    group.bench_function("pruned", |b| {
        b.iter(|| {
            plan.forward_zero_padded_into(&dechirped, &mut out).unwrap();
            black_box(out[0])
        })
    });
    group.bench_function("dense", |b| {
        b.iter(|| {
            // The unpruned path: explicit zero-pad, then a full in-place
            // transform over the same reusable buffer.
            out.clear();
            out.extend_from_slice(&dechirped);
            out.resize(4096, Complex64::ZERO);
            plan.forward_in_place(&mut out).unwrap();
            black_box(out[0])
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    full_round_decode,
    lattice_vs_padded_spectrum,
    pruned_vs_dense_fft
);
criterion_main!(benches);
