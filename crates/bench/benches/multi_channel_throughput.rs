//! Sharded multi-channel gateway throughput: K independent 500 kHz
//! channels replayed concurrently through `run_multi_stream`.
//!
//! * `multi_channel_throughput/sharded/K` — K pre-synthesized 0.1 s
//!   sample-level office streams (distinct arrival realizations, same
//!   64-device population), one `StreamEngine` per channel. Dividing
//!   K × 50 000 samples by the reported median gives the aggregate
//!   Msamples/s `perf_snapshot` tracks in `BENCH_stream.json`'s
//!   `multi_channel` table; on a single core the aggregate is flat in K
//!   (the shards contend for the same CPU), while on K-core hardware it
//!   scales toward linear.
//! * `multi_channel_throughput/sequential/K` — the same K streams decoded
//!   one after another through single-channel `run_stream` sessions: the
//!   no-sharding baseline. Comparing the two isolates the sharding
//!   overhead (ring + per-channel detector threads) from the decode cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netscatter_dsp::Complex64;
use netscatter_gateway::{run_multi_stream, run_stream, GatewayConfig, ReplaySource, StreamSource};
use netscatter_sim::deployment::{Deployment, DeploymentConfig};
use netscatter_sim::fullround::ChannelModel;
use netscatter_sim::stream::{ArrivalConfig, RoundArrivalSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Synthesizes one office-channel stream for `devices` devices under
/// arrival seed `seed`, plus the gateway config it decodes under.
fn synthesize(devices: usize, seed: u64) -> (Vec<Complex64>, GatewayConfig) {
    let dep = Deployment::generate(
        DeploymentConfig::office(devices.max(16)),
        &mut StdRng::seed_from_u64(42),
    );
    let model = ChannelModel::office();
    let mut source = RoundArrivalSource::new(
        &dep,
        devices,
        &model,
        ArrivalConfig {
            rate_hz: 20.0,
            stream_secs: 0.1,
            payload_bits: 16,
        },
        seed,
    );
    let config = GatewayConfig {
        detection_floor_fraction: Some(source.detection_floor_fraction()),
        workers: 2,
        ..GatewayConfig::new(dep.config.profile, source.assigned_bins().to_vec(), 16)
    };
    let mut samples = Vec::new();
    let mut buf = vec![Complex64::ZERO; 4096];
    loop {
        let got = source.fill(&mut buf);
        samples.extend_from_slice(&buf[..got]);
        if got < buf.len() {
            break;
        }
    }
    (samples, config)
}

fn multi_channel_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_channel_throughput");
    group.sample_size(10);
    for &channels in &[1usize, 2, 4] {
        // One stream per channel: same population, disjoint Poisson
        // arrival realizations — the workload of K RF channels of the
        // same deployment.
        let streams: Vec<(Vec<Complex64>, GatewayConfig)> = (0..channels)
            .map(|ch| synthesize(64, 7 + ch as u64))
            .collect();
        let config = streams[0].1.clone();
        group.bench_with_input(BenchmarkId::new("sharded", channels), &channels, |b, _| {
            b.iter(|| {
                let mut sources: Vec<Box<dyn StreamSource>> = streams
                    .iter()
                    .map(|(samples, _)| {
                        Box::new(ReplaySource::from_samples(samples.clone(), 500e3))
                            as Box<dyn StreamSource>
                    })
                    .collect();
                let report = run_multi_stream(&mut sources, &config).unwrap();
                black_box(report.total_packets())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("sequential", channels),
            &channels,
            |b, _| {
                b.iter(|| {
                    let mut packets = 0usize;
                    for (samples, _) in &streams {
                        let mut source = ReplaySource::from_samples(samples.clone(), 500e3);
                        packets += run_stream(&mut source, &config).unwrap().packets.len();
                    }
                    black_box(packets)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, multi_channel_throughput);
criterion_main!(benches);
