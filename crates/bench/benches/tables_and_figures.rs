//! One Criterion benchmark per table/figure of the paper's evaluation.
//!
//! Each bench times the corresponding experiment driver at `Scale::Quick`;
//! run the CLI in `netscatter_sim` (e.g. `cargo run --release -p
//! netscatter_sim --bin netscatter -- run fig17`) for the full,
//! figure-quality output.

use criterion::{criterion_group, criterion_main, Criterion};
use netscatter_sim::experiments::{self, Scale};
use std::hint::black_box;

fn bench_tables_and_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables_and_figures");
    group.sample_size(10);

    group.bench_function("table1_configs", |b| {
        b.iter(|| black_box(experiments::table1()))
    });
    group.bench_function("fig04_choir_cdf", |b| {
        b.iter(|| black_box(experiments::fig04(Scale::Quick, 1)))
    });
    group.bench_function("fig08_sidelobes", |b| {
        b.iter(|| black_box(experiments::fig08()))
    });
    group.bench_function("fig09_snr_variance", |b| {
        b.iter(|| black_box(experiments::fig09(Scale::Quick, 1)))
    });
    group.bench_function("fig12_near_far_ber", |b| {
        b.iter(|| black_box(experiments::fig12(Scale::Quick, 1)))
    });
    group.bench_function("fig14_offsets", |b| {
        b.iter(|| black_box(experiments::fig14(Scale::Quick, 1)))
    });
    group.bench_function("fig15_dynamic_range", |b| {
        b.iter(|| black_box(experiments::fig15(Scale::Quick, 1)))
    });
    group.bench_function("fig16_power_levels", |b| {
        b.iter(|| black_box(experiments::fig16()))
    });
    group.bench_function("fig17_phy_rate", |b| {
        b.iter(|| black_box(experiments::fig17(Scale::Quick, 1)))
    });
    group.bench_function("fig18_link_rate", |b| {
        b.iter(|| black_box(experiments::fig18(Scale::Quick, 1)))
    });
    group.bench_function("fig19_latency", |b| {
        b.iter(|| black_box(experiments::fig19(Scale::Quick, 1)))
    });
    group.bench_function("analysis_choir", |b| {
        b.iter(|| black_box(experiments::analysis_choir()))
    });
    group.bench_function("analysis_capacity", |b| {
        b.iter(|| black_box(experiments::analysis_capacity()))
    });
    group.finish();
}

criterion_group!(benches, bench_tables_and_figures);
criterion_main!(benches);
