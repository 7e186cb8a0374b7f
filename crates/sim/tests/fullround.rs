//! Contract tests of the sample-level network simulator:
//!
//! 1. **Agreement** — at high SNR with negligible impairments, deliveries
//!    produced by the real superposition + decode chain match the
//!    analytical RSSI gate (within a small tolerance) at 16/64/256 devices.
//! 2. **Determinism** — sample-level metrics and the sample-level Fig. 17
//!    report are bit-identical at every worker-thread count.
//! 3. **Headline gains** — the NetScatter-vs-LoRa-backscatter gains of
//!    Figs. 18–19 still hold when deliveries come from the decode chain
//!    under the realistic office channel model.

use netscatter_baselines::tdma::LoraScheme;
use netscatter_sim::deployment::{Deployment, DeploymentConfig};
use netscatter_sim::experiments::find;
use netscatter_sim::fullround::ChannelModel;
use netscatter_sim::montecarlo::MonteCarlo;
use netscatter_sim::network::{
    lora_backscatter_metrics_with, netscatter_metrics, netscatter_metrics_with, Fidelity,
    NetScatterVariant,
};
use netscatter_sim::{Scale, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn deployment() -> Deployment {
    Deployment::generate(
        DeploymentConfig::office(256),
        &mut StdRng::seed_from_u64(17),
    )
}

#[test]
fn sample_level_delivery_agrees_with_analytical_gate_at_high_snr() {
    let dep = deployment();
    let model = ChannelModel::pristine();
    let mc = MonteCarlo::with_threads(42, 2);
    for n in [16usize, 64, 256] {
        let analytical = netscatter_metrics(&dep, n, 40, NetScatterVariant::Config1);
        let sample = netscatter_metrics_with(
            &dep,
            n,
            40,
            NetScatterVariant::Config1,
            Fidelity::SampleLevel,
            &model,
            &mc,
        );
        let tolerance = (n / 20).max(1);
        assert!(
            analytical.delivered.abs_diff(sample.delivered) <= tolerance,
            "n={n}: analytical delivered {} vs sample-level {} (tolerance {tolerance})",
            analytical.delivered,
            sample.delivered
        );
        // The rates follow the deliveries: within 10% at high SNR.
        let ratio = sample.phy_rate_bps / analytical.phy_rate_bps;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "n={n}: phy-rate ratio {ratio}"
        );
    }
}

#[test]
fn sample_level_rounds_are_bit_identical_across_thread_counts() {
    let dep = deployment();
    let model = ChannelModel::office();
    let run = |threads: usize| {
        netscatter_metrics_with(
            &dep,
            64,
            40,
            NetScatterVariant::Config1,
            Fidelity::SampleLevel,
            &model,
            &MonteCarlo::with_threads(7, threads),
        )
    };
    let reference = run(1);
    for threads in [2usize, 4] {
        let got = run(threads);
        assert_eq!(
            got.phy_rate_bps.to_bits(),
            reference.phy_rate_bps.to_bits(),
            "threads = {threads}"
        );
        assert_eq!(got, reference, "threads = {threads}");
    }
}

#[test]
fn sample_level_fig17_report_is_identical_at_any_thread_count() {
    let fig17 = find("fig17").expect("registered experiment");
    let report = |threads: usize| {
        let scenario = Scenario {
            scale: Scale::Quick,
            seed: 5,
            fidelity: Fidelity::SampleLevel,
            threads,
            ..Scenario::default()
        };
        fig17.render_text(&fig17.run(&scenario))
    };
    let reference = report(1);
    for threads in [2usize, 4] {
        assert_eq!(
            report(threads),
            reference,
            "fig17 sample-level report differs at {threads} threads"
        );
    }
    assert!(reference.contains("sample-level delivery"));
}

#[test]
fn netscatter_beats_lora_baselines_at_256_devices_sample_level() {
    // The Fig. 18 / Fig. 19 headline must survive the move from the
    // analytical gate to real decoded rounds under the office channel.
    let dep = deployment();
    let model = ChannelModel::office();
    let mc = MonteCarlo::with_threads(42, 2);
    let ns = netscatter_metrics_with(
        &dep,
        256,
        40,
        NetScatterVariant::Config1,
        Fidelity::SampleLevel,
        &model,
        &mc,
    );
    let fixed = lora_backscatter_metrics_with(
        &dep,
        256,
        40,
        LoraScheme::fixed(),
        Fidelity::SampleLevel,
        &model,
        &mc,
    );
    let adapted = lora_backscatter_metrics_with(
        &dep,
        256,
        40,
        LoraScheme::rate_adapted(),
        Fidelity::SampleLevel,
        &model,
        &mc,
    );
    let gain_fixed = ns.link_layer_rate_bps / fixed.link_layer_rate_bps;
    let gain_adapted = ns.link_layer_rate_bps / adapted.link_layer_rate_bps;
    assert!(
        gain_fixed > 20.0,
        "sample-level gain over fixed-rate LoRa backscatter is only {gain_fixed:.1}x"
    );
    assert!(
        gain_adapted > 5.0,
        "sample-level gain over rate-adapted LoRa backscatter is only {gain_adapted:.1}x"
    );
    let lat_gain = fixed.latency_s / ns.latency_s;
    assert!(lat_gain > 20.0, "latency gain only {lat_gain:.1}x");
    // And the decode chain must actually deliver a large share of the
    // deployment each round under the office impairments.
    assert!(
        ns.delivered > 64,
        "only {} of 256 devices delivered per round",
        ns.delivered
    );
}
