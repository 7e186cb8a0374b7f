//! The determinism-under-parallelism contract of the sharded Monte-Carlo
//! layer: for a fixed seed, every sharded experiment must produce
//! bit-identical output no matter how many worker threads run it.

use netscatter_sim::ber::{
    max_tolerable_power_difference_db_sharded, near_far_ber_sharded, NearFarConfig,
};
use netscatter_sim::montecarlo::{parallel_map, MonteCarlo};

#[test]
fn sharded_near_far_ber_is_bit_identical_across_1_2_4_shards() {
    let cfg = NearFarConfig::paper(35.0);
    // 200 symbols span multiple shards, so the 2- and 4-thread runs really
    // do interleave shard execution.
    let reference = near_far_ber_sharded(&MonteCarlo::with_threads(42, 1), &cfg, -10.0, 200);
    for threads in [2usize, 4] {
        let ber = near_far_ber_sharded(&MonteCarlo::with_threads(42, threads), &cfg, -10.0, 200);
        assert_eq!(
            ber.to_bits(),
            reference.to_bits(),
            "BER differs at {threads} threads: {ber} vs {reference}"
        );
    }
}

#[test]
fn sharded_power_sweep_is_bit_identical_across_1_2_4_shards() {
    let params = netscatter_dsp::ChirpParams::new(500e3, 9).unwrap();
    let reference = max_tolerable_power_difference_db_sharded(
        &MonteCarlo::with_threads(7, 1),
        params,
        64,
        0.05,
        64,
        30.0,
    );
    for threads in [2usize, 4] {
        let got = max_tolerable_power_difference_db_sharded(
            &MonteCarlo::with_threads(7, threads),
            params,
            64,
            0.05,
            64,
            30.0,
        );
        assert_eq!(got.to_bits(), reference.to_bits(), "threads = {threads}");
    }
}

#[test]
fn different_seeds_change_the_estimate() {
    // Sanity check that the determinism above is not a constant function.
    let cfg = NearFarConfig::paper(0.0);
    let a = near_far_ber_sharded(&MonteCarlo::with_threads(1, 2), &cfg, -22.0, 192);
    let b = near_far_ber_sharded(&MonteCarlo::with_threads(2, 2), &cfg, -22.0, 192);
    // At -22 dB the BER is noisy enough that two seeds virtually never agree
    // to the last bit on 192 symbols.
    assert_ne!(a.to_bits(), b.to_bits());
}

#[test]
fn figure_reports_are_identical_at_any_thread_count() {
    // fig12 drives near_far_ber_sharded internally; the whole report string
    // must be byte-identical whether its Monte-Carlo cells run on 1, 2 or 4
    // worker threads.
    use netscatter_sim::experiments::find;
    use netscatter_sim::{Scale, Scenario};
    let fig12 = find("fig12").expect("registered experiment");
    let report = |threads: usize| {
        let scenario = Scenario {
            scale: Scale::Quick,
            seed: 5,
            threads,
            ..Scenario::default()
        };
        fig12.render_text(&fig12.run(&scenario))
    };
    let reference = report(1);
    for threads in [2usize, 4] {
        assert_eq!(
            report(threads),
            reference,
            "fig12 report differs at {threads} threads"
        );
    }
}

#[test]
fn parallel_map_is_order_preserving_for_network_sweep_shapes() {
    let sizes = [1usize, 64, 256];
    let doubled: Vec<usize> = sizes.iter().map(|n| n * 2).collect();
    for threads in [1usize, 2, 4] {
        assert_eq!(parallel_map(&sizes, threads, |n| n * 2), doubled);
    }
}
