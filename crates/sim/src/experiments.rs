//! The registered experiment drivers — one per table/figure/analysis of the
//! paper's evaluation, plus the `perf` kernel-timing snapshot.
//!
//! Every driver is one [`Experiment`] row of [`registry`]: a run function
//! that fills the structured [`ExperimentResult`] of a [`Scenario`] (named
//! numeric tables plus named scalars), and a render function that
//! reproduces the pre-redesign text report byte-for-byte from that
//! structure — pinned by the golden parity tests in
//! `tests/golden_parity.rs`. Figs. 17–19 are three `NetworkFigure` views of
//! one sweep, paper values included. [`registry`] / [`find`] are the one
//! way in: the `netscatter` CLI, the examples and the tests all go through
//! them.

use crate::ber::{max_tolerable_power_difference_db_sharded, near_far_ber_sharded, NearFarConfig};
use crate::deployment::Deployment;
use crate::experiment::{Experiment, ExperimentResult, Table};
use crate::montecarlo::{parallel_map, MonteCarlo};
use crate::network::{
    lora_backscatter_metrics_with, netscatter_metrics_with, Fidelity, NetScatterVariant,
    SchemeMetrics,
};
use crate::scenario::Scenario;
use netscatter::analysis;
use netscatter_baselines::choir::fft_bin_variation_cdf;
use netscatter_baselines::tdma::LoraScheme;
use netscatter_channel::doppler::backscatter_doppler_shift_hz;
use netscatter_channel::fading::TemporalFading;
use netscatter_channel::impairments::ImpairmentModel;
use netscatter_coding::frame::FrameCodec;
use netscatter_coding::CodingScheme;
use netscatter_dsp::chirp::ChirpParams;
use netscatter_dsp::spectrogram::{spectrogram, SpectrogramConfig};
use netscatter_dsp::spectrum::sidelobe_profile_db;
use netscatter_dsp::stats::EmpiricalCdf;
use netscatter_phy::params::ModulationConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

pub use crate::scenario::Scale;

/// The registered experiments, in the order `netscatter list` prints them.
static REGISTRY: [Experiment; 16] = [
    Experiment {
        id: "table1",
        title: "Table 1: modulation configurations and derived properties",
        fields: &[],
        run: table1,
        render: table1_text,
    },
    Experiment {
        id: "fig04",
        title: "Fig. 4: CDF of delta-FFT-bin, backscatter vs. active LoRa radios",
        fields: &["scale", "seed"],
        run: fig04,
        render: fig04_text,
    },
    Experiment {
        id: "fig08",
        title: "Fig. 8: dechirped-spectrum side-lobe envelope",
        fields: &[],
        run: fig08,
        render: fig08_text,
    },
    Experiment {
        id: "fig09",
        title: "Fig. 9: CDF of SNR variation under office mobility",
        fields: &["scale", "seed"],
        run: fig09,
        render: fig09_text,
    },
    Experiment {
        id: "fig12",
        title: "Fig. 12: near-far BER vs. SNR with a strong interferer",
        fields: &["scale", "seed", "threads"],
        run: fig12,
        render: fig12_text,
    },
    Experiment {
        id: "fig14",
        title: "Fig. 14: frequency offsets and residual delta-FFT-bin",
        fields: &["scale", "seed"],
        run: fig14,
        render: fig14_text,
    },
    Experiment {
        id: "fig15",
        title: "Fig. 15: Doppler delta-FFT-bin and power dynamic range",
        fields: &["scale", "seed", "threads"],
        run: fig15,
        render: fig15_text,
    },
    Experiment {
        id: "fig16",
        title: "Fig. 16: backscatter power levels via the switch network",
        fields: &[],
        run: fig16,
        render: fig16_text,
    },
    Experiment {
        id: "fig17",
        title: "Fig. 17: network PHY rate vs. number of devices",
        fields: &NETWORK_FIG_FIELDS,
        run: |s, r| network_figure(&FIG17, s, r),
        render: |r| network_figure_text(&FIG17, r),
    },
    Experiment {
        id: "fig18",
        title: "Fig. 18: link-layer data rate vs. number of devices",
        fields: &NETWORK_FIG_FIELDS,
        run: |s, r| network_figure(&FIG18, s, r),
        render: |r| network_figure_text(&FIG18, r),
    },
    Experiment {
        id: "fig19",
        title: "Fig. 19: network latency vs. number of devices",
        fields: &NETWORK_FIG_FIELDS,
        run: |s, r| network_figure(&FIG19, s, r),
        render: |r| network_figure_text(&FIG19, r),
    },
    Experiment {
        id: "analysis_choir",
        title: "§2.2 analysis: Choir / concurrent-LoRa collision probabilities",
        fields: &[],
        run: analysis_choir,
        render: analysis_choir_text,
    },
    Experiment {
        id: "analysis_capacity",
        title: "§3.1 analysis: distributed-CSS throughput gain and capacity scaling",
        fields: &[],
        run: analysis_capacity,
        render: analysis_capacity_text,
    },
    Experiment {
        id: "gateway",
        title: "Streaming gateway: continuous-stream detect + decode, real-time factor",
        fields: &[
            "devices",
            "placement",
            "channel",
            "fidelity",
            "scale",
            "seed",
            "threads",
            "payload_bits",
            "arrival_rate",
            "stream_secs",
            "chunk_samples",
            "channels",
        ],
        run: gateway,
        render: gateway_text,
    },
    Experiment {
        id: "goodput",
        title: "Coded link layer: goodput vs code rate vs device count",
        fields: &[
            "devices",
            "placement",
            "channel",
            "fidelity",
            "scale",
            "seed",
            "threads",
            "payload_bits",
            "coding",
        ],
        run: goodput,
        render: goodput_text,
    },
    Experiment {
        id: "perf",
        title: "Perf snapshot: decode and sample-level round throughput",
        fields: &["seed"],
        run: perf,
        render: perf_text,
    },
];

/// Every registered experiment.
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// Looks an experiment up by its registry id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    registry().iter().find(|e| e.id == id)
}

/// The report-header tag for a fidelity mode.
fn fidelity_tag(fidelity: Fidelity) -> &'static str {
    match fidelity {
        Fidelity::Analytical => "analytical",
        Fidelity::SampleLevel => "sample-level",
    }
}

// ---------------------------------------------------------------------------
// Table 1

/// Table 1: modulation configurations and their derived properties.
fn table1(_: &Scenario, result: &mut ExperimentResult) {
    let mut t = Table::new(
        "configs",
        &[
            ("bandwidth_hz", "Hz"),
            ("spreading_factor", ""),
            ("tolerable_timing_mismatch_s", "s"),
            ("tolerable_frequency_mismatch_hz", "Hz"),
            ("per_device_bitrate_bps", "bps"),
            ("sensitivity_dbm", "dBm"),
        ],
    );
    for cfg in ModulationConfig::table1_rows() {
        t.push_row(vec![
            cfg.bandwidth_hz,
            cfg.spreading_factor as f64,
            cfg.tolerable_timing_mismatch_s(),
            cfg.tolerable_frequency_mismatch_hz(),
            cfg.per_device_bitrate_bps(),
            cfg.sensitivity_dbm(),
        ]);
    }
    result.tables.push(t);
}

fn table1_text(result: &ExperimentResult) -> String {
    let mut out = String::from(
        "Table 1: NetScatter modulation configurations\nBW[kHz]  SF  TimeVar[us]  FreqVar[Hz]  BitRate[bps]  Sensitivity[dBm]\n",
    );
    for row in &result.table("configs").expect("configs table").rows {
        let _ = writeln!(
            out,
            "{:7.0}  {:2.0}  {:11.1}  {:11.0}  {:12.0}  {:16.1}",
            row[0] / 1e3,
            row[1],
            row[2] * 1e6,
            row[3],
            row[4],
            row[5]
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 4

/// Fig. 4: CDF of ΔFFTbin for backscatter devices vs. active LoRa radios.
fn fig04(scenario: &Scenario, result: &mut ExperimentResult) {
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let params = ChirpParams::new(500e3, 9).expect("paper parameters");
    let devices = scenario.scale.pick(32, 256);
    let packets = scenario.scale.pick(20, 200);
    let tags = fft_bin_variation_cdf(
        &mut rng,
        &ImpairmentModel::cots_backscatter(),
        params,
        devices,
        packets,
    );
    let radios = fft_bin_variation_cdf(
        &mut rng,
        &ImpairmentModel::active_radio(),
        params,
        devices,
        packets,
    );
    let mut t = Table::new(
        "cdf",
        &[
            ("dfft_bin", "bins"),
            ("backscatter", ""),
            ("lora_radio", ""),
        ],
    );
    for i in 0..=28 {
        let x = i as f64 * 0.25;
        t.push_row(vec![
            x,
            tags.probability_at_or_below(x),
            radios.probability_at_or_below(x),
        ]);
    }
    result.tables.push(t);
    result
        .scalars
        .push(("backscatter_p99_bins".into(), tags.quantile(0.99)));
    result
        .scalars
        .push(("radio_p99_bins".into(), radios.quantile(0.99)));
}

fn fig04_text(result: &ExperimentResult) -> String {
    let mut out = String::from("Fig. 4: CDF of delta-FFT-bin (BW=500 kHz, SF=9)\n  dFFTbin  CDF(backscatter)  CDF(LoRa radio)\n");
    for row in &result.table("cdf").expect("cdf table").rows {
        let _ = writeln!(out, "  {:7.2}  {:16.3}  {:15.3}", row[0], row[1], row[2]);
    }
    let _ = writeln!(
        out,
        "backscatter p99 = {:.3} bins, radio p99 = {:.3} bins",
        result.scalar("backscatter_p99_bins").expect("scalar"),
        result.scalar("radio_p99_bins").expect("scalar")
    );
    out
}

// ---------------------------------------------------------------------------
// Fig. 8

/// Fig. 8: normalized dechirped power spectrum side-lobe levels.
fn fig08(_: &Scenario, result: &mut ExperimentResult) {
    let profile = sidelobe_profile_db(512, 8).expect("power-of-two sizes");
    let mut t = Table::new("sidelobes", &[("offset_bins", "bins"), ("level_db", "dB")]);
    for offset in [1usize, 2, 3, 4, 6, 8, 16, 32, 64, 128, 256] {
        t.push_row(vec![offset as f64, profile.level_at_offset(offset)]);
    }
    result.tables.push(t);
    result.scalars.push((
        "skip2_tolerable_db".into(),
        profile.tolerable_power_difference_db(2),
    ));
    result.scalars.push((
        "skip3_tolerable_db".into(),
        profile.tolerable_power_difference_db(3),
    ));
}

fn fig08_text(result: &ExperimentResult) -> String {
    let mut out = String::from("Fig. 8: side-lobe envelope vs. bin offset (SF=9, zero-padding 8x)\n  offset[bins]  level[dB]\n");
    for row in &result.table("sidelobes").expect("sidelobes table").rows {
        let _ = writeln!(out, "  {:12.0}  {:9.2}", row[0], row[1]);
    }
    let _ = writeln!(
        out,
        "SKIP=2 tolerable power difference ≈ {:.1} dB (paper: ≈13 dB); SKIP=3 ≈ {:.1} dB (paper: ≈21 dB)",
        result.scalar("skip2_tolerable_db").expect("scalar"),
        result.scalar("skip3_tolerable_db").expect("scalar")
    );
    out
}

// ---------------------------------------------------------------------------
// Fig. 9

/// Fig. 9: CDF of SNR variation for eight devices over a busy office period.
fn fig09(scenario: &Scenario, result: &mut ExperimentResult) {
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let steps = scenario.scale.pick(2_000, 20_000);
    let mut t = Table::new(
        "snr_deviation",
        &[
            ("device", ""),
            ("p5_db", "dB"),
            ("p50_db", "dB"),
            ("p95_db", "dB"),
        ],
    );
    for device in 0..8 {
        let mut fading = TemporalFading::office_default();
        let series = fading.series(&mut rng, steps);
        let cdf = EmpiricalCdf::from_samples(series);
        t.push_row(vec![
            (device + 1) as f64,
            cdf.quantile(0.05),
            cdf.quantile(0.5),
            cdf.quantile(0.95),
        ]);
    }
    result.tables.push(t);
}

fn fig09_text(result: &ExperimentResult) -> String {
    let mut out = String::from("Fig. 9: CDF of SNR deviation (dB) per device over 30 minutes of office mobility\n  device  p5      p50     p95\n");
    for row in &result.table("snr_deviation").expect("table").rows {
        let _ = writeln!(
            out,
            "  {:6.0}  {:6.2}  {:6.2}  {:6.2}",
            row[0], row[1], row[2], row[3]
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 12

/// Interferer power advantages of the Fig. 12 sweep, in dB.
const FIG12_DELTAS_DB: [f64; 4] = [0.0, 35.0, 40.0, 45.0];

/// Fig. 12: near-far BER vs. SNR for several interferer power advantages.
///
/// Every (SNR, Δpower) cell is an independent sharded Monte-Carlo point on
/// a seed derived from the scenario seed, so the report is reproducible
/// bit-for-bit at any thread count.
fn fig12(scenario: &Scenario, result: &mut ExperimentResult) {
    let mc = scenario.monte_carlo();
    let symbols = scenario.scale.pick(200, 10_000);
    let snrs = [-20.0, -18.0, -16.0, -14.0, -12.0, -10.0];
    let mut t = Table::new(
        "ber",
        &[
            ("snr_db", "dB"),
            ("ber_delta0", ""),
            ("ber_delta35", ""),
            ("ber_delta40", ""),
            ("ber_delta45", ""),
        ],
    );
    for (i, snr) in snrs.iter().enumerate() {
        let mut row = vec![*snr];
        for (j, delta) in FIG12_DELTAS_DB.iter().enumerate() {
            let cfg = NearFarConfig::paper(*delta);
            let cell = mc.derive((i * FIG12_DELTAS_DB.len() + j) as u64);
            row.push(near_far_ber_sharded(&cell, &cfg, *snr, symbols));
        }
        t.push_row(row);
    }
    result.tables.push(t);
}

fn fig12_text(result: &ExperimentResult) -> String {
    let mut out = String::from(
        "Fig. 12: victim BER vs. SNR with a strong interferer (power-aware assignment)\n  SNR[dB]",
    );
    for d in FIG12_DELTAS_DB {
        let _ = write!(out, "  delta={d:>4.0}dB");
    }
    out.push('\n');
    for row in &result.table("ber").expect("ber table").rows {
        let _ = write!(out, "  {:7.1}", row[0]);
        for ber in &row[1..] {
            let _ = write!(out, "  {ber:12.4}");
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 14

/// Fig. 14: (a) device frequency-offset CDF and (b) residual ΔFFTbin for
/// three modulation configurations.
fn fig14(scenario: &Scenario, result: &mut ExperimentResult) {
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let model = ImpairmentModel::cots_backscatter();
    let devices = scenario.scale.pick(64, 256);
    let packets = scenario.scale.pick(50, 1000);
    // (a) frequency offsets.
    let mut offsets = Vec::new();
    for _ in 0..devices {
        let d = model.sample_device(&mut rng);
        for _ in 0..packets / 10 {
            offsets.push(model.sample_packet(&mut rng, &d).freq_offset_hz);
        }
    }
    let cdf = EmpiricalCdf::from_samples(offsets);
    result
        .scalars
        .push(("freq_p1_hz".into(), cdf.quantile(0.01)));
    result
        .scalars
        .push(("freq_p50_hz".into(), cdf.quantile(0.5)));
    result
        .scalars
        .push(("freq_p99_hz".into(), cdf.quantile(0.99)));
    // (b) residual ΔFFTbin for the three configurations.
    let mut t = Table::new(
        "residual_bins",
        &[
            ("bandwidth_hz", "Hz"),
            ("spreading_factor", ""),
            ("above_0p5", ""),
            ("above_1p0", ""),
            ("above_1p5", ""),
            ("above_2p0", ""),
        ],
    );
    for (bw, sf) in [(500e3, 9u32), (250e3, 8), (125e3, 7)] {
        let params = ChirpParams::new(bw, sf).expect("table configs are valid");
        let mut samples = Vec::new();
        for _ in 0..devices {
            let d = model.sample_device(&mut rng);
            for _ in 0..packets / 10 {
                let p = model.sample_packet(&mut rng, &d);
                let bins = params.timing_offset_to_bins(p.timing_offset_s)
                    + params.frequency_offset_to_bins(p.freq_offset_hz);
                samples.push(bins.abs());
            }
        }
        let cdf = EmpiricalCdf::from_samples(samples);
        t.push_row(vec![
            bw,
            sf as f64,
            cdf.probability_above(0.5),
            cdf.probability_above(1.0),
            cdf.probability_above(1.5),
            cdf.probability_above(2.0),
        ]);
    }
    result.tables.push(t);
}

fn fig14_text(result: &ExperimentResult) -> String {
    let mut out = String::from("Fig. 14a: device frequency offsets (Hz)\n");
    let _ = writeln!(
        out,
        "  p1 = {:.1} Hz, p50 = {:.1} Hz, p99 = {:.1} Hz (paper: within ±150 Hz)",
        result.scalar("freq_p1_hz").expect("scalar"),
        result.scalar("freq_p50_hz").expect("scalar"),
        result.scalar("freq_p99_hz").expect("scalar")
    );
    out.push_str("Fig. 14b: residual delta-FFT-bin (1-CDF at 0.5/1.0/1.5/2.0 bins)\n  BW[kHz] SF   >0.5    >1.0    >1.5    >2.0\n");
    for row in &result.table("residual_bins").expect("table").rows {
        let _ = writeln!(
            out,
            "  {:6.0} {:3.0}  {:6.3}  {:6.3}  {:6.3}  {:6.3}",
            row[0] / 1e3,
            row[1],
            row[2],
            row[3],
            row[4],
            row[5]
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 15

/// Fig. 15: (a) Doppler-induced ΔFFTbin for pedestrian speeds and (b) the
/// power dynamic range vs. FFT-bin separation.
fn fig15(scenario: &Scenario, result: &mut ExperimentResult) {
    let params = ChirpParams::new(500e3, 9).expect("paper parameters");
    let mut doppler = Table::new(
        "doppler",
        &[("speed_mps", "m/s"), ("shift_hz", "Hz"), ("bins", "bins")],
    );
    for speed in [0.0, 1.0, 3.0, 5.0] {
        let shift = backscatter_doppler_shift_hz(speed, 900e6);
        doppler.push_row(vec![speed, shift, params.frequency_offset_to_bins(shift)]);
    }
    result.tables.push(doppler);
    let mc = scenario.monte_carlo();
    let symbols = scenario.scale.pick(60, 400);
    // The target BER must sit above both the single-error quantum
    // (1/symbols) and the ~0.3% CFO-tail error floor, or the sweep
    // aborts on a stray noise outlier instead of actual interference
    // (see the sibling test in ber.rs): 5% at 60 quick symbols, 1% at
    // 400 full-scale symbols.
    let target_ber = f64::max(0.01, 3.0 / symbols as f64);
    let mut range = Table::new(
        "power_range",
        &[("separation_bins", "bins"), ("tolerated_db", "dB")],
    );
    for (i, sep) in [2usize, 8, 32, 64, 128, 256].into_iter().enumerate() {
        let tolerated = max_tolerable_power_difference_db_sharded(
            &mc.derive(i as u64),
            params,
            sep,
            target_ber,
            symbols,
            45.0,
        );
        range.push_row(vec![sep as f64, tolerated]);
    }
    result.tables.push(range);
}

fn fig15_text(result: &ExperimentResult) -> String {
    let mut out =
        String::from("Fig. 15a: Doppler delta-FFT-bin at 900 MHz\n  speed[m/s]  shift[Hz]  bins\n");
    for row in &result.table("doppler").expect("doppler table").rows {
        let _ = writeln!(out, "  {:10.1}  {:9.1}  {:5.3}", row[0], row[1], row[2]);
    }
    out.push_str("Fig. 15b: max tolerable power difference vs. bin separation\n  separation[bins]  tolerated[dB]\n");
    for row in &result.table("power_range").expect("power_range table").rows {
        let _ = writeln!(out, "  {:16.0}  {:13.0}", row[0], row[1]);
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 16

/// Fig. 16: spectrogram peak levels of the backscattered signal at the three
/// power gains.
fn fig16(_: &Scenario, result: &mut ExperimentResult) {
    use netscatter::power::BackscatterGain;
    use netscatter_dsp::chirp::ChirpSynthesizer;
    let params = ChirpParams::new(500e3, 9).expect("paper parameters");
    let synth = ChirpSynthesizer::new(params);
    let reference: f64 = {
        let sig = synth.oversampled_upchirp(0, 4, BackscatterGain::Full.amplitude());
        let sg = spectrogram(&sig, SpectrogramConfig::default()).expect("valid config");
        sg.mean_profile_db()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let mut t = Table::new("gains", &[("gain_db", "dB"), ("measured_rel_db", "dB")]);
    for gain in BackscatterGain::ALL {
        let sig = synth.oversampled_upchirp(0, 4, gain.amplitude());
        // Use absolute power of the un-normalized signal: compute mean
        // power and express vs full.
        let power_db = netscatter_dsp::linear_to_db(netscatter_dsp::complex::mean_power(&sig));
        let full_db = netscatter_dsp::linear_to_db(BackscatterGain::Full.amplitude().powi(2));
        t.push_row(vec![gain.db(), power_db - full_db]);
    }
    result.tables.push(t);
    result
        .scalars
        .push(("spectrogram_reference_db".into(), reference));
}

fn fig16_text(result: &ExperimentResult) -> String {
    let mut out = String::from("Fig. 16: backscattered-signal spectrogram peak power at each gain setting\n  gain[dB]  measured peak[dB rel. full]\n");
    for row in &result.table("gains").expect("gains table").rows {
        let _ = writeln!(out, "  {:8.0}  {:10.1}", row[0], row[1]);
    }
    let reference = result.scalar("spectrogram_reference_db").expect("scalar");
    let _ = writeln!(
        out,
        "(spectrogram reference peak, self-normalized: {reference:.1} dB)"
    );
    out
}

// ---------------------------------------------------------------------------
// Figs. 17–19 (shared sweep)

/// The Fig. 17–19 sweep over network sizes: the deployment (generated from
/// the scenario's placement/devices/seed) and the x-axis sizes, clamped to
/// the scenario's device count.
fn network_sweep(scenario: &Scenario) -> (Deployment, Vec<usize>) {
    let base: &[usize] = match scenario.scale {
        Scale::Quick => &[1, 64, 256],
        Scale::Full => &[1, 16, 32, 64, 96, 128, 160, 192, 224, 256],
    };
    (scenario.deployment(), sizes_up_to(base, scenario.devices))
}

/// The entries of `base` (ascending) that fit a population of `devices`,
/// closed by the population itself when `base` does not end on it.
fn sizes_up_to(base: &[usize], devices: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = base.iter().copied().filter(|&n| n <= devices).collect();
    if sizes.last() != Some(&devices) {
        sizes.push(devices);
    }
    sizes
}

/// The five schemes of one sweep row, in [`SweepRow::schemes`] order.
#[derive(Clone, Copy)]
enum Scheme {
    LoraFixed,
    LoraAdapted,
    Ideal,
    Cfg1,
    Cfg2,
}

/// One network size of the Fig. 17–19 sweep: all five schemes' metrics,
/// indexed by [`Scheme`].
struct SweepRow {
    n: usize,
    schemes: [SchemeMetrics; 5],
}

/// Computes every sweep row in parallel. Each row is a pure function of the
/// (already generated) deployment and of the per-size derived Monte-Carlo
/// runner, so the result is independent of the thread count and identical
/// to the sequential sweep. Under [`Fidelity::SampleLevel`] the NetScatter
/// and baseline metrics of one row share their channel realizations: both
/// derive them from the same per-size runner.
fn sweep_rows(dep: &Deployment, sizes: &[usize], scenario: &Scenario) -> Vec<SweepRow> {
    let model = scenario.channel_model();
    let (fidelity, bits) = (scenario.fidelity, scenario.payload_bits);
    let mc = scenario.monte_carlo();
    parallel_map(sizes, scenario.threads, |&n| {
        // One decorrelated runner per network size; within the row, every
        // scheme sees the same trial seeds and therefore the same draws.
        let row_mc = MonteCarlo::with_threads(mc.derive(n as u64).seed, 1);
        let lora = |s| lora_backscatter_metrics_with(dep, n, bits, s, fidelity, &model, &row_mc);
        let ns = |v| netscatter_metrics_with(dep, n, bits, v, fidelity, &model, &row_mc);
        SweepRow {
            n,
            schemes: [
                lora(LoraScheme::fixed()),
                lora(LoraScheme::rate_adapted()),
                ns(NetScatterVariant::Ideal),
                ns(NetScatterVariant::Config1),
                ns(NetScatterVariant::Config2),
            ],
        }
    })
}

/// The scenario fields the network figures consume.
const NETWORK_FIG_FIELDS: [&str; 8] = [
    "devices",
    "placement",
    "channel",
    "fidelity",
    "scale",
    "seed",
    "threads",
    "payload_bits",
];

/// One of Figs. 17–19: a view of the shared sweep. Its table holds one
/// metric for four schemes against `n`; its headline ratios are taken at
/// the largest network size and printed next to the paper's values.
struct NetworkFigure {
    /// Result table name.
    table: &'static str,
    /// Report heading, ending in the report unit.
    heading: &'static str,
    /// The four columns after `n`: (column name, report label, scheme). A
    /// label also sets its column's width in the report.
    columns: [(&'static str, &'static str, Scheme); 4],
    /// Unit of every metric column.
    unit: &'static str,
    /// The per-scheme metric the table holds.
    metric: fn(&SchemeMetrics) -> f64,
    /// Converts a table value into the report unit.
    scale: fn(f64) -> f64,
    /// Headline ratios: (scalar name, numerator, denominator, paper value).
    gains: &'static [(&'static str, Scheme, Scheme, f64)],
    /// The headline sentence from the largest size and each (measured,
    /// paper) ratio, in `gains` order.
    headline: fn(f64, &[(f64, f64)]) -> String,
}

/// Fig. 17: network PHY rate vs. number of devices.
const FIG17: NetworkFigure = NetworkFigure {
    table: "phy_rate",
    heading: "Fig. 17: network PHY rate [kbps]",
    columns: [
        ("lora_fixed_bps", "LoRa-fixed", Scheme::LoraFixed),
        ("lora_adapted_bps", "LoRa-rate-adapt", Scheme::LoraAdapted),
        ("netscatter_ideal_bps", "NetScatter(Ideal)", Scheme::Ideal),
        ("netscatter_bps", "NetScatter", Scheme::Cfg1),
    ],
    unit: "bps",
    metric: |m| m.phy_rate_bps,
    scale: |bps| bps / 1e3,
    gains: &[
        ("gain_over_fixed", Scheme::Cfg1, Scheme::LoraFixed, 26.2),
        ("gain_over_adapted", Scheme::Cfg1, Scheme::LoraAdapted, 6.8),
    ],
    headline: |n, g| {
        format!(
            "PHY-rate gain at {n} devices: {:.1}x over fixed-rate (paper {:.1}x), {:.1}x over rate-adapted (paper {:.1}x)",
            g[0].0, g[0].1, g[1].0, g[1].1
        )
    },
};

/// Fig. 18: link-layer data rate vs. number of devices.
const FIG18: NetworkFigure = NetworkFigure {
    table: "link_rate",
    heading: "Fig. 18: link-layer data rate [kbps]",
    columns: [
        ("lora_fixed_bps", "LoRa-fixed", Scheme::LoraFixed),
        ("lora_adapted_bps", "LoRa-rate-adapt", Scheme::LoraAdapted),
        ("netscatter_cfg1_bps", "NetScatter-cfg1", Scheme::Cfg1),
        ("netscatter_cfg2_bps", "NetScatter-cfg2", Scheme::Cfg2),
    ],
    unit: "bps",
    metric: |m| m.link_layer_rate_bps,
    scale: |bps| bps / 1e3,
    gains: &[
        (
            "cfg1_gain_over_fixed",
            Scheme::Cfg1,
            Scheme::LoraFixed,
            61.9,
        ),
        (
            "cfg2_gain_over_fixed",
            Scheme::Cfg2,
            Scheme::LoraFixed,
            50.9,
        ),
        (
            "cfg1_gain_over_adapted",
            Scheme::Cfg1,
            Scheme::LoraAdapted,
            14.1,
        ),
        (
            "cfg2_gain_over_adapted",
            Scheme::Cfg2,
            Scheme::LoraAdapted,
            11.6,
        ),
    ],
    headline: |n, g| {
        format!(
            "link-layer gains at {n}: cfg1 {:.1}x / cfg2 {:.1}x over fixed (paper {:.1}x / {:.1}x); cfg1 {:.1}x / cfg2 {:.1}x over rate-adapted (paper {:.1}x / {:.1}x)",
            g[0].0, g[1].0, g[0].1, g[1].1, g[2].0, g[3].0, g[2].1, g[3].1
        )
    },
};

/// Fig. 19: network latency vs. number of devices.
const FIG19: NetworkFigure = NetworkFigure {
    table: "latency",
    heading: "Fig. 19: network latency [ms]",
    columns: [
        ("lora_fixed_s", "LoRa-fixed", Scheme::LoraFixed),
        ("lora_adapted_s", "LoRa-rate-adapt", Scheme::LoraAdapted),
        ("netscatter_cfg1_s", "NetScatter-cfg1", Scheme::Cfg1),
        ("netscatter_cfg2_s", "NetScatter-cfg2", Scheme::Cfg2),
    ],
    unit: "s",
    metric: |m| m.latency_s,
    scale: |s| s * 1e3,
    gains: &[
        (
            "cfg1_speedup_vs_fixed",
            Scheme::LoraFixed,
            Scheme::Cfg1,
            67.0,
        ),
        (
            "cfg2_speedup_vs_fixed",
            Scheme::LoraFixed,
            Scheme::Cfg2,
            55.1,
        ),
        (
            "cfg1_speedup_vs_adapted",
            Scheme::LoraAdapted,
            Scheme::Cfg1,
            15.3,
        ),
        (
            "cfg2_speedup_vs_adapted",
            Scheme::LoraAdapted,
            Scheme::Cfg2,
            12.6,
        ),
    ],
    headline: |n, g| {
        format!(
            "latency reductions at {n}: cfg1 {:.1}x / cfg2 {:.1}x vs fixed (paper {:.1}x / {:.1}x); cfg1 {:.1}x / cfg2 {:.1}x vs rate-adapted (paper {:.1}x / {:.1}x)",
            g[0].0, g[1].0, g[0].1, g[1].1, g[2].0, g[3].0, g[2].1, g[3].1
        )
    },
};

/// Runs the shared sweep and fills `fig`'s table and headline scalars.
fn network_figure(fig: &NetworkFigure, scenario: &Scenario, result: &mut ExperimentResult) {
    let (dep, sizes) = network_sweep(scenario);
    let rows = sweep_rows(&dep, &sizes, scenario);
    let metric = |row: &SweepRow, s: Scheme| (fig.metric)(&row.schemes[s as usize]);
    let mut columns = vec![("n", "")];
    columns.extend(fig.columns.iter().map(|&(name, _, _)| (name, fig.unit)));
    let mut t = Table::new(fig.table, &columns);
    for row in &rows {
        let mut cells = vec![row.n as f64];
        cells.extend(fig.columns.iter().map(|&(_, _, s)| metric(row, s)));
        t.push_row(cells);
    }
    result.tables.push(t);
    let last = rows.last().expect("sweep has at least one size");
    for &(name, num, den, _) in fig.gains {
        result
            .scalars
            .push((name.into(), metric(last, num) / metric(last, den)));
    }
}

/// Renders `fig`'s table in its report unit, then its headline sentence.
fn network_figure_text(fig: &NetworkFigure, result: &ExperimentResult) -> String {
    let fidelity = fidelity_tag(result.scenario.fidelity);
    let mut out = format!("{} ({fidelity} delivery)\n  {:4}", fig.heading, "N");
    for (_, label, _) in &fig.columns {
        let _ = write!(out, "  {label}");
    }
    out.push('\n');
    let t = result.table(fig.table).expect("network figure table");
    for row in &t.rows {
        let _ = write!(out, "  {:4.0}", row[0]);
        for ((_, label, _), v) in fig.columns.iter().zip(&row[1..]) {
            let _ = write!(out, "  {:w$.1}", (fig.scale)(*v), w = label.len());
        }
        out.push('\n');
    }
    let n = t.rows.last().expect("sweep has at least one size")[0];
    let gains: Vec<(f64, f64)> = fig
        .gains
        .iter()
        .map(|&(name, _, _, paper)| (result.scalar(name).expect("scalar"), paper))
        .collect();
    out + &(fig.headline)(n, &gains) + "\n"
}

// ---------------------------------------------------------------------------
// Analyses

/// §2.2 analysis: Choir collision probabilities and distinct-fraction odds.
fn analysis_choir(_: &Scenario, result: &mut ExperimentResult) {
    let mut t = Table::new(
        "collisions",
        &[
            ("n", ""),
            ("p_shift_collision", ""),
            ("p_distinct_fractions", ""),
        ],
    );
    for n in [2usize, 5, 10, 20, 50] {
        t.push_row(vec![
            n as f64,
            analysis::lora_collision_probability(n, 9),
            analysis::choir_distinct_fraction_probability(n),
        ]);
    }
    result.tables.push(t);
}

fn analysis_choir_text(result: &ExperimentResult) -> String {
    let mut out = String::from("Choir / concurrent-LoRa analysis (SF = 9)\n  N   P(shift collision)  P(distinct tenth-bin fractions)\n");
    for row in &result.table("collisions").expect("table").rows {
        let _ = writeln!(out, "  {:3.0}  {:18.3}  {:30.4}", row[0], row[1], row[2]);
    }
    out
}

/// §3.1 analysis: throughput gain and multi-user capacity scaling.
fn analysis_capacity(_: &Scenario, result: &mut ExperimentResult) {
    let mut t = Table::new(
        "capacity",
        &[
            ("sf", ""),
            ("gain", ""),
            ("capacity_n64_bps", "bps"),
            ("capacity_n256_bps", "bps"),
        ],
    );
    for sf in 6u32..=12 {
        t.push_row(vec![
            sf as f64,
            analysis::distributed_throughput_gain(sf),
            analysis::multiuser_capacity_bps(500e3, 64, -30.0),
            analysis::multiuser_capacity_bps(500e3, 256, -30.0),
        ]);
    }
    result.tables.push(t);
}

fn analysis_capacity_text(result: &ExperimentResult) -> String {
    let mut out = String::from("Distributed CSS throughput gain 2^SF/SF and multi-user capacity\n  SF  gain      capacity@N=64[-30dB, kbps]  capacity@N=256\n");
    for row in &result.table("capacity").expect("table").rows {
        let _ = writeln!(
            out,
            "  {:2.0}  {:8.1}  {:26.1}  {:14.1}",
            row[0],
            row[1],
            row[2] / 1e3,
            row[3] / 1e3
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Streaming gateway

/// The network sizes the gateway experiment reports (clamped to the
/// scenario's population).
const GATEWAY_SIZES: [usize; 3] = [16, 64, 256];

/// Aggregate outcome of one streaming-gateway session, scored against the
/// synthesizer's ground truth.
struct GatewayOutcome {
    /// Rounds the synthesizer put on the air.
    rounds_offered: usize,
    /// Offered rounds matched by a decoded packet with ≥ 1 device.
    rounds_decoded: usize,
    /// Emitted packets matching no offered round: energy-gate triggers
    /// that decoded to zero devices, plus spurious non-empty decodes at
    /// positions where nothing was transmitted.
    false_alarms: usize,
    /// Device-rounds delivered error-free over device-rounds transmitted.
    delivery_frac: f64,
    /// Bit errors over transmitted bits (unmatched rounds count their bits
    /// as errors).
    ber: f64,
    /// Measured pipeline throughput in Msamples/s, aggregated across all
    /// channels over the shared wall-clock window (synthesis excluded —
    /// streams are pre-rendered and replayed).
    msamples_per_sec: f64,
    /// Aggregate throughput over the combined radio rate
    /// (`channels × sample_rate`).
    real_time_factor: f64,
}

/// Runs one streaming-gateway session over `scenario.channels` independent
/// channels: each channel synthesizes its own `stream_secs` stream of
/// Poisson round arrivals for the first `n` devices of `dep` (its own
/// arrival realization, same population plan), the sharded engine replays
/// all channels concurrently, and each channel's decode is scored against
/// its own truth. Synthesis happens before the clock starts, so
/// `msamples_per_sec` measures the pipeline alone — aggregated across
/// channels over the shared wall-clock window.
fn run_gateway_stream(
    dep: &crate::deployment::Deployment,
    n: usize,
    model: &crate::fullround::ChannelModel,
    scenario: &Scenario,
    stream_secs: f64,
    trial_seed: u64,
) -> GatewayOutcome {
    use crate::stream::{ArrivalConfig, RenderedStream, RoundArrivalSource, StreamScore};
    use netscatter_gateway::{run_multi_stream, GatewayConfig, ReplaySource, StreamSource};

    let channels = scenario.channels.max(1);
    let arrivals = ArrivalConfig {
        rate_hz: scenario.arrival_rate,
        stream_secs,
        payload_bits: scenario.payload_bits,
    };
    let streams: Vec<RenderedStream> = (0..channels as u64)
        .map(|c| {
            // Channel 0 keeps the single-channel trial seed; others derive
            // disjoint arrival realizations from it.
            let seed = trial_seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            RoundArrivalSource::new(dep, n, model, arrivals, seed).render()
        })
        .collect();
    let config = GatewayConfig {
        profile: dep.config.profile,
        assigned_bins: streams[0].assigned_bins.clone(),
        detection_floor_fraction: Some(streams[0].detection_floor_fraction),
        ..scenario.gateway_config()
    };
    // Saturated replay windows are only milliseconds long, so a single
    // session is at the mercy of one scheduler hiccup: decode the same
    // streams five times and keep the fastest report (every run's decode
    // is deterministic and identical — only the clock varies, and on a
    // shared runner interference is strictly additive, so the max is the
    // least-biased estimate of the uncontended pipeline capability).
    let report = (0..5)
        .map(|_| {
            let mut sources: Vec<Box<dyn StreamSource>> = streams
                .iter()
                .map(|chan| {
                    Box::new(ReplaySource::from_samples(
                        chan.samples.clone(),
                        chan.sample_rate_hz,
                    )) as Box<dyn StreamSource>
                })
                .collect();
            run_multi_stream(&mut sources, &config).expect("gateway stream decodes")
        })
        .max_by(|a, b| f64::total_cmp(&a.aggregate_samples_per_sec, &b.aggregate_samples_per_sec))
        .expect("five sessions ran");

    let mut total = StreamScore::default();
    for (chan_report, chan) in report.channels.iter().zip(&streams) {
        total.tally(chan, &chan_report.packets);
    }
    GatewayOutcome {
        rounds_offered: total.rounds_offered,
        rounds_decoded: total.rounds_decoded,
        false_alarms: total.false_alarms,
        delivery_frac: if total.transmitted_devices == 0 {
            1.0
        } else {
            total.delivered_devices as f64 / total.transmitted_devices as f64
        },
        ber: if total.transmitted_bits == 0 {
            0.0
        } else {
            total.error_bits as f64 / total.transmitted_bits as f64
        },
        msamples_per_sec: report.aggregate_samples_per_sec / 1e6,
        real_time_factor: report.aggregate_real_time_factor,
    }
}

/// The channel stack the gateway synthesizer runs under a given fidelity:
/// sample level uses the scenario's channel profile; analytical idealizes
/// the radio (no impairments, no noise) so the stream exercises only the
/// detection/decode machinery.
fn gateway_channel_model(scenario: &Scenario) -> crate::fullround::ChannelModel {
    match scenario.fidelity {
        Fidelity::SampleLevel => scenario.channel_model(),
        Fidelity::Analytical => {
            let mut model = crate::fullround::ChannelModel::pristine();
            model.noise = false;
            model
        }
    }
}

/// Streaming gateway: continuous-stream detection, sync and decode with
/// measured real-time throughput.
fn gateway(scenario: &Scenario, result: &mut ExperimentResult) {
    /// Stream-length cap under quick scale, keeping CI and the smoke
    /// tests fast.
    const QUICK_STREAM_SECS_CAP: f64 = 0.25;
    let dep = scenario.deployment();
    let model = gateway_channel_model(scenario);
    // Quick scale caps the stream length — loudly when it overrides a
    // longer request, and the result's recorded scenario carries the
    // value that actually ran so the metadata never contradicts the
    // measurements.
    let stream_secs = if scenario.scale == Scale::Quick {
        // Warn only when the cap overrides a value the user actually
        // changed from the default — a plain `--quick` run is the
        // expected fast path, not a surprise.
        if scenario.stream_secs > QUICK_STREAM_SECS_CAP
            && scenario.stream_secs != Scenario::default().stream_secs
        {
            eprintln!(
                "note: gateway caps stream_secs at {QUICK_STREAM_SECS_CAP} under quick scale (requested {}); use --paper for the full stream",
                scenario.stream_secs
            );
        }
        scenario.stream_secs.min(QUICK_STREAM_SECS_CAP)
    } else {
        scenario.stream_secs
    };
    let sizes = sizes_up_to(&GATEWAY_SIZES, scenario.devices);
    let mc = scenario.monte_carlo();
    result.scenario.stream_secs = stream_secs;
    let mut t = Table::new(
        "stream",
        &[
            ("devices", ""),
            ("rounds_offered", ""),
            ("rounds_decoded", ""),
            ("false_alarms", ""),
            ("delivery_frac", ""),
            ("ber", ""),
            ("msamples_per_sec", "Msps"),
            ("real_time_factor", ""),
        ],
    );
    let mut last: Option<GatewayOutcome> = None;
    for &n in &sizes {
        let outcome = run_gateway_stream(
            &dep,
            n,
            &model,
            scenario,
            stream_secs,
            mc.derive(n as u64).seed,
        );
        t.push_row(vec![
            n as f64,
            outcome.rounds_offered as f64,
            outcome.rounds_decoded as f64,
            outcome.false_alarms as f64,
            outcome.delivery_frac,
            outcome.ber,
            outcome.msamples_per_sec,
            outcome.real_time_factor,
        ]);
        last = Some(outcome);
    }
    result.tables.push(t);
    let last = last.expect("at least one network size");
    result.scalars.push(("stream_secs".into(), stream_secs));
    result
        .scalars
        .push(("msamples_per_sec".into(), last.msamples_per_sec));
    result
        .scalars
        .push(("real_time_factor".into(), last.real_time_factor));
}

fn gateway_text(result: &ExperimentResult) -> String {
    let mut out = format!(
        "Streaming gateway ({} synthesis, {:.2} s stream, {} rounds/s arrivals, {} channel{})\n  N     offered  decoded  false  delivered  BER      Msamples/s  real-time\n",
        fidelity_tag(result.scenario.fidelity),
        result.scalar("stream_secs").unwrap_or(f64::NAN),
        result.scenario.arrival_rate,
        result.scenario.channels,
        if result.scenario.channels == 1 { "" } else { "s" },
    );
    let t = result.table("stream").expect("stream table");
    for row in &t.rows {
        let _ = writeln!(
            out,
            "  {:4.0}  {:7.0}  {:7.0}  {:5.0}  {:9.3}  {:7.5}  {:10.2}  {:8.2}x",
            row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7]
        );
    }
    let last_n = t.rows.last().map(|r| r[0]).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "throughput at {:.0} devices: {:.2} Msamples/s = {:.2}x real time",
        last_n,
        result.scalar("msamples_per_sec").expect("scalar"),
        result.scalar("real_time_factor").expect("scalar")
    );
    out
}

// ---------------------------------------------------------------------------
// Goodput (coded link layer)

/// On-air bits per device per round for the all-schemes goodput sweep: the
/// smallest budget every framed geometry accepts simultaneously (Hamming
/// needs a multiple of 7, Reed-Solomon a multiple of 8, convolutional an
/// even count) while leaving each scheme a usable data field.
pub const GOODPUT_PAYLOAD_BITS: usize = 168;

/// Salt for the application-data RNG stream of the goodput experiment,
/// keeping frame payload draws independent of the channel and device
/// streams.
const GOODPUT_DATA_SALT: u64 = 0x600D_B175_C0DE_D00D;

/// Per-(scheme, size) frame tallies, summable across shards.
#[derive(Debug, Default, Clone, Copy)]
struct GoodputTally {
    /// Device-rounds that put a frame (or raw payload) on the air.
    frames_sent: usize,
    /// Sent frames whose device the receiver detected.
    frames_detected: usize,
    /// Detected frames delivered intact (verified CRC + exact data for
    /// coded schemes; zero bit errors for the raw baseline).
    frames_ok: usize,
    /// Channel errors the inner codecs corrected (codec-specific unit).
    corrected: usize,
    /// On-air bits of detected frames.
    detected_bits: usize,
    /// Raw bit errors within detected frames — the residual BER the FEC
    /// layer is up against.
    detected_bit_errors: usize,
    /// Detected frames whose realized raw BER sits at the paper's residual
    /// ~1e-2 operating point (at least one bit error, at most 2% — see
    /// [`at_residual_operating_point`]).
    lowber_frames: usize,
    /// Frames from the ~1e-2 bucket delivered intact.
    lowber_ok: usize,
}

/// Whether a detected frame's realized error count puts it at the residual
/// ~1e-2-BER operating point EXPERIMENTS.md documents for 256 concurrent
/// devices: errored (so coding has work to do) but with raw BER ≤ 2e-2.
/// The office fade tail also produces device-rounds far beyond any code's
/// reach (up to ~50% BER); bucketing isolates the regime the link layer is
/// actually designed for.
fn at_residual_operating_point(bit_errors: usize, frame_bits: usize) -> bool {
    bit_errors >= 1 && bit_errors * 50 <= frame_bits
}

impl GoodputTally {
    fn add(&mut self, other: &GoodputTally) {
        self.frames_sent += other.frames_sent;
        self.frames_detected += other.frames_detected;
        self.frames_ok += other.frames_ok;
        self.corrected += other.corrected;
        self.detected_bits += other.detected_bits;
        self.detected_bit_errors += other.detected_bit_errors;
        self.lowber_frames += other.lowber_frames;
        self.lowber_ok += other.lowber_ok;
    }

    fn frame_delivery(&self) -> f64 {
        ratio(self.frames_ok, self.frames_sent)
    }

    fn frame_delivery_detected(&self) -> f64 {
        ratio(self.frames_ok, self.frames_detected)
    }

    fn detected_frac(&self) -> f64 {
        ratio(self.frames_detected, self.frames_sent)
    }

    fn raw_ber_detected(&self) -> f64 {
        if self.detected_bits == 0 {
            0.0
        } else {
            self.detected_bit_errors as f64 / self.detected_bits as f64
        }
    }

    fn delivery_at_residual_ber(&self) -> f64 {
        ratio(self.lowber_ok, self.lowber_frames)
    }
}

/// `num / den`, defined as 1.0 for an empty denominator (nothing offered,
/// nothing lost).
fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Sample-level goodput measurement for one scheme at one network size:
/// every transmitting device carries one FEC frame (or raw bits for
/// [`CodingScheme::None`]) per round through the full synthesis + decode
/// chain, and the frame decode + CRC-16 run over what the receiver
/// recovered.
#[allow(clippy::too_many_arguments)]
fn goodput_sample_tally(
    dep: &Deployment,
    n: usize,
    model: &crate::fullround::ChannelModel,
    scheme: CodingScheme,
    payload_bits: usize,
    mc: &MonteCarlo,
    trials: usize,
    rounds: usize,
) -> GoodputTally {
    use crate::fullround::{trial_seed, FullRoundNetwork};
    let shards = mc.run_shards(trials, |rng, range| {
        let mut tally = GoodputTally::default();
        let codec = (scheme != CodingScheme::None)
            .then(|| FrameCodec::new(scheme, payload_bits).expect("scenario geometry validated"));
        let data_bits = codec.as_ref().map_or(payload_bits, |c| c.data_bits());
        for _ in range {
            let seed = trial_seed(rng);
            let mut net = FullRoundNetwork::for_trial(dep, n, model, seed);
            let mut data_rng = StdRng::seed_from_u64(seed ^ GOODPUT_DATA_SALT);
            for round in 0..rounds {
                let data: Vec<Vec<bool>> = (0..net.num_devices())
                    .map(|_| (0..data_bits).map(|_| data_rng.gen_bool(0.5)).collect())
                    .collect();
                let detail = match &codec {
                    Some(codec) => {
                        let mut provider =
                            |device: usize| codec.encode_frame(round as u8, &data[device]);
                        net.simulate_round_with(payload_bits, Some(&mut provider))
                    }
                    None => net.simulate_round_with(payload_bits, None),
                };
                for (i, sent) in detail.sent.iter().enumerate() {
                    let Some(sent) = sent else {
                        continue;
                    };
                    tally.frames_sent += 1;
                    let Some(received) = &detail.received[i] else {
                        continue;
                    };
                    tally.frames_detected += 1;
                    tally.detected_bits += sent.len();
                    let bit_errors = sent.iter().zip(received).filter(|(a, b)| a != b).count();
                    tally.detected_bit_errors += bit_errors;
                    let ok = match &codec {
                        Some(codec) => {
                            let out = codec.decode_frame(received);
                            tally.corrected += out.corrected;
                            // Delivery demands a verified CRC *and* the
                            // exact application data — a CRC fluke that
                            // passed corrupt data must not score.
                            out.crc_ok && out.seq == round as u8 && out.data == data[i]
                        }
                        None => detail.truth.delivered[i],
                    };
                    if ok {
                        tally.frames_ok += 1;
                    }
                    if at_residual_operating_point(bit_errors, sent.len()) {
                        tally.lowber_frames += 1;
                        if ok {
                            tally.lowber_ok += 1;
                        }
                    }
                }
            }
        }
        tally
    });
    let mut total = GoodputTally::default();
    for shard in &shards {
        total.add(shard);
    }
    total
}

/// Analytical goodput rows: the delivery model gates whole devices on RSSI
/// (a delivered payload is error-free, a gated one is wholly lost), so
/// every scheme shares the size's delivery fraction and coding shows pure
/// rate overhead — the control row the sample-level measurement is read
/// against.
fn goodput_analytical_tally(delivery_frac: f64, n: usize, payload_bits: usize) -> GoodputTally {
    let delivered = (delivery_frac * n as f64).round() as usize;
    GoodputTally {
        frames_sent: n,
        frames_detected: delivered,
        frames_ok: delivered,
        corrected: 0,
        detected_bits: delivered * payload_bits,
        detected_bit_errors: 0,
        // The RSSI gate never produces partially-errored frames, so the
        // ~1e-2 bucket is empty (and its delivery ratio degenerates to 1).
        lowber_frames: 0,
        lowber_ok: 0,
    }
}

/// Goodput vs code rate vs device count for the coded link layer.
fn goodput(scenario: &Scenario, result: &mut ExperimentResult) {
    // `coding none` (the default) sweeps every scheme at the shared
    // budget; a specific scheme runs against the raw baseline at the
    // scenario's own (validated) payload geometry.
    let (schemes, payload_bits): (Vec<CodingScheme>, usize) =
        if scenario.coding == CodingScheme::None {
            (CodingScheme::ALL.to_vec(), GOODPUT_PAYLOAD_BITS)
        } else {
            (
                vec![CodingScheme::None, scenario.coding],
                scenario.payload_bits,
            )
        };
    let dep = scenario.deployment();
    let model = scenario.channel_model();
    let mc = scenario.monte_carlo();
    let trials = scenario.scale.pick(2, 8);
    let rounds = scenario.scale.pick(2, 6);
    let sizes = sizes_up_to(&GATEWAY_SIZES, scenario.devices);
    let mut t = Table::new(
        "goodput",
        &[
            ("devices", ""),
            ("scheme", ""),
            ("code_rate", ""),
            ("data_bits", "bits"),
            ("frames_sent", ""),
            ("frames_ok", ""),
            ("frame_delivery", ""),
            ("frame_delivery_detected", ""),
            ("detected_frac", ""),
            ("raw_ber_detected", ""),
            ("corrected", ""),
            ("goodput_frac", ""),
            ("delivery_at_ber_1e2", ""),
        ],
    );
    let mut max_size_rows: Vec<(CodingScheme, GoodputTally, usize)> = Vec::new();
    for &n in &sizes {
        // The analytical gate is scheme-independent; compute the size's
        // delivery fraction once and share it across the scheme rows.
        let analytical_delivery = if scenario.fidelity == Fidelity::Analytical {
            let m = netscatter_metrics_with(
                &dep,
                n,
                payload_bits,
                NetScatterVariant::Config1,
                Fidelity::Analytical,
                &model,
                &mc.derive(n as u64),
            );
            Some(ratio(m.delivered, m.num_devices))
        } else {
            None
        };
        for &scheme in &schemes {
            let data_bits = match scheme {
                CodingScheme::None => payload_bits,
                _ => FrameCodec::new(scheme, payload_bits)
                    .expect("scenario geometry validated")
                    .data_bits(),
            };
            let tally = match analytical_delivery {
                Some(delivery) => goodput_analytical_tally(delivery, n, payload_bits),
                None => goodput_sample_tally(
                    &dep,
                    n,
                    &model,
                    scheme,
                    payload_bits,
                    &mc.derive(n as u64),
                    trials,
                    rounds,
                ),
            };
            let scheme_index = CodingScheme::ALL
                .iter()
                .position(|&s| s == scheme)
                .expect("scheme registered") as f64;
            let goodput_frac = if tally.frames_sent == 0 {
                0.0
            } else {
                (tally.frames_ok * data_bits) as f64 / (tally.frames_sent * payload_bits) as f64
            };
            t.push_row(vec![
                n as f64,
                scheme_index,
                data_bits as f64 / payload_bits as f64,
                data_bits as f64,
                tally.frames_sent as f64,
                tally.frames_ok as f64,
                tally.frame_delivery(),
                tally.frame_delivery_detected(),
                tally.detected_frac(),
                tally.raw_ber_detected(),
                tally.corrected as f64,
                goodput_frac,
                tally.delivery_at_residual_ber(),
            ]);
            if n == *sizes.last().unwrap() {
                max_size_rows.push((scheme, tally, data_bits));
            }
        }
    }
    result.tables.push(t);
    result
        .scalars
        .push(("payload_bits".into(), payload_bits as f64));
    let raw = max_size_rows
        .iter()
        .find(|(s, _, _)| *s == CodingScheme::None);
    if let Some((_, tally, _)) = raw {
        result
            .scalars
            .push(("uncoded_frame_delivery".into(), tally.frame_delivery()));
        result
            .scalars
            .push(("raw_ber_detected".into(), tally.raw_ber_detected()));
    }
    let best_coded = max_size_rows
        .iter()
        .filter(|(s, _, _)| *s != CodingScheme::None)
        .max_by(|a, b| {
            a.1.frame_delivery_detected()
                .total_cmp(&b.1.frame_delivery_detected())
        });
    if let Some((scheme, tally, data_bits)) = best_coded {
        result.scalars.push((
            "best_coded_scheme".into(),
            CodingScheme::ALL
                .iter()
                .position(|s| s == scheme)
                .expect("registered") as f64,
        ));
        result
            .scalars
            .push(("best_coded_frame_delivery".into(), tally.frame_delivery()));
        result.scalars.push((
            "best_coded_frame_delivery_detected".into(),
            tally.frame_delivery_detected(),
        ));
        result.scalars.push((
            "best_coded_goodput_frac".into(),
            if tally.frames_sent == 0 {
                0.0
            } else {
                (tally.frames_ok * data_bits) as f64 / (tally.frames_sent * payload_bits) as f64
            },
        ));
        result.scalars.push((
            "best_coded_delivery_at_ber_1e2".into(),
            tally.delivery_at_residual_ber(),
        ));
    }
}

fn goodput_text(result: &ExperimentResult) -> String {
    let payload = result.scalar("payload_bits").unwrap_or(f64::NAN);
    let mut out = format!(
        "Coded link-layer goodput ({} fidelity, {payload:.0} on-air bits/device/round)\n  N     scheme    rate   data  frames   ok      delivery  det-deliv  rawBER(det)  goodput  del@1e-2\n",
        fidelity_tag(result.scenario.fidelity),
    );
    let t = result.table("goodput").expect("goodput table");
    for row in &t.rows {
        let scheme = CodingScheme::ALL
            .get(row[1] as usize)
            .map(|s| s.name())
            .unwrap_or("?");
        let _ = writeln!(
            out,
            "  {:4.0}  {:8}  {:5.3}  {:4.0}  {:6.0}  {:6.0}  {:8.3}  {:9.3}  {:11.2e}  {:7.3}  {:8.3}",
            row[0],
            scheme,
            row[2],
            row[3],
            row[4],
            row[5],
            row[6],
            row[7],
            row[9],
            row[11],
            row[12]
        );
    }
    if let (Some(delivery), Some(ber)) = (
        result.scalar("best_coded_frame_delivery_detected"),
        result.scalar("raw_ber_detected"),
    ) {
        let best = result
            .scalar("best_coded_scheme")
            .and_then(|i| CodingScheme::ALL.get(i as usize).copied())
            .map(|s| s.name())
            .unwrap_or("?");
        let at_1e2 = result
            .scalar("best_coded_delivery_at_ber_1e2")
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "best coded scheme at max size: {best} delivers {:.1}% of detected frames \
             (raw BER {:.2e}); {:.1}% at the ~1e-2-BER operating point",
            delivery * 100.0,
            ber,
            at_1e2 * 100.0
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Perf snapshot

/// Payload symbols per round timed by the perf snapshot.
pub const PERF_PAYLOAD_SYMBOLS: usize = 16;

/// Payload symbols of the round whose `decode_round` ÷ spectra ratio the
/// perf snapshot reports: the `coded256` benchmark workload's 108-bit
/// conv-coded rounds.
const RATIO_PAYLOAD_SYMBOLS: usize = 108;

/// Median wall-time of `samples` timed invocations of `f`, in seconds.
fn median_secs(samples: usize, f: impl FnMut()) -> f64 {
    median_secs_interleaved(samples, f, || {}).0
}

/// Median wall-times of `samples` timed invocations each of `f` and `g`,
/// in seconds, timed alternately so that both see the same machine state
/// and their ratio holds on a noisy host.
fn median_secs_interleaved(samples: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    use std::time::Instant;
    let time = |h: &mut dyn FnMut()| {
        let start = Instant::now();
        h();
        start.elapsed().as_secs_f64()
    };
    let median = |mut times: Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    // One warm-up to populate scratch buffers and caches.
    f();
    g();
    let (f_times, g_times) = (0..samples).map(|_| (time(&mut f), time(&mut g))).unzip();
    (median(f_times), median(g_times))
}

/// Perf snapshot: times the steady-state decode path, the quick-mode
/// experiment sweeps, and the sample-level network simulator. Timing values
/// vary run to run, so this is the one registered experiment without a
/// golden parity pin.
fn perf(scenario: &Scenario, result: &mut ExperimentResult) {
    use crate::deployment::{Deployment, DeploymentConfig};
    use crate::fullround::{ChannelModel, FullRoundNetwork};
    use crate::workloads::build_concurrent_round;
    use netscatter::receiver::ConcurrentReceiver;
    use netscatter_daemon::protocol;
    use netscatter_dsp::correlator::ChirpBank;
    use netscatter_phy::distributed::{ConcurrentDemodulator, DemodWorkspace, OnOffModulator};
    use netscatter_phy::params::PhyProfile;
    use netscatter_phy::preamble::{PREAMBLE_SYMBOLS, PREAMBLE_UPCHIRPS};
    use std::time::Instant;

    let profile = PhyProfile::default();
    let params = profile.modulation.chirp();

    // 1. ns per symbol spectrum (dechirp + FFT + power), the dominant
    //    per-symbol cost of the receiver: on the zero-padded grid, and
    //    on the 2^SF-point lattice `decode_round` computes instead (the
    //    bins only, bit-identical there).
    let demod = ConcurrentDemodulator::new(params, profile.zero_padding)
        .expect("profile zero-padding is a power of two");
    let mut ws = DemodWorkspace::new();
    let symbol = OnOffModulator::new(params, 123).symbol(true, 0.0, 0.0, 1.0);
    let batch = 256usize;
    let [padded_spectrum_ns, lattice_spectrum_ns] = [profile.zero_padding, 1].map(|step| {
        let per_batch = median_secs(9, || {
            for _ in 0..batch {
                demod
                    .spectrum_into(&symbol, step, &mut ws)
                    .expect("correct symbol length");
            }
        });
        per_batch / batch as f64 * 1e9
    });

    // 1b. The sync comb's kernel: nine candidate offsets of a 256-device
    //     preamble, every assigned bin read per candidate — slid as one
    //     `n + 8`-sample run per symbol (one transform), and as nine
    //     `n`-sample runs (one bank pass each). CI gates the ratio.
    let bank = ChirpBank::new(params).expect("profile chirp is valid");
    let (preamble, comb_bins) = build_concurrent_round(&profile, 256, 1);
    let n = params.num_bins();
    let mut spec = Vec::new();
    let [chirp_bank_sliding_us, chirp_bank_per_candidate_us] = [n + 8, n].map(|run| {
        let per_batch = median_secs(9, || {
            let mut acc = 0.0;
            for s in (0..PREAMBLE_SYMBOLS).cycle().take(16 * PREAMBLE_SYMBOLS) {
                let down = s >= PREAMBLE_UPCHIRPS;
                for samples in preamble[s * n..(s + 1) * n + 8].windows(run) {
                    bank.sliding_bank_into(samples, down, &mut spec, |_, spectrum| {
                        acc += comb_bins.iter().map(|&b| spectrum.power(b)).sum::<f64>();
                    })
                    .expect("a run covers one symbol");
                }
            }
            std::hint::black_box(acc);
        });
        per_batch / 16.0 * 1e6
    });

    // 2. Full-round decode throughput (symbols/sec) vs device count.
    let mut decode = Table::new(
        "decode",
        &[
            ("devices", ""),
            ("round_ms", "ms"),
            ("symbols_per_sec", "1/s"),
        ],
    );
    for n_devices in [16usize, 64, 256] {
        let rx = ConcurrentReceiver::new(&profile).expect("valid profile");
        let (stream, bins) = build_concurrent_round(&profile, n_devices, PERF_PAYLOAD_SYMBOLS);
        let round_s = median_secs(5, || {
            let round = rx
                .decode_round(&stream, 0, &bins, PERF_PAYLOAD_SYMBOLS)
                .expect("round decodes");
            assert_eq!(round.devices.len(), n_devices, "all devices detected");
        });
        decode.push_row(vec![
            n_devices as f64,
            round_s * 1e3,
            PERF_PAYLOAD_SYMBOLS as f64 / round_s,
        ]);
    }

    // 2b. `decode_round` at the coded benchmark's shape (256 devices × 108
    //     payload symbols) against its 114 lattice spectra alone (six
    //     preamble upchirps plus the payload), timed in one process. The
    //     ratio is what the per-device reads and bit bookkeeping add to the
    //     transforms; CI gates it.
    let rx = ConcurrentReceiver::new(&profile).expect("valid profile");
    let (stream, bins) = build_concurrent_round(&profile, 256, RATIO_PAYLOAD_SYMBOLS);
    let spectra = stream[..PREAMBLE_UPCHIRPS * n]
        .chunks_exact(n)
        .chain(stream[PREAMBLE_SYMBOLS * n..].chunks_exact(n));
    assert_eq!(
        spectra.clone().count(),
        PREAMBLE_UPCHIRPS + RATIO_PAYLOAD_SYMBOLS
    );
    let (round_s, spectra_s) = median_secs_interleaved(
        21,
        || {
            let round = rx
                .decode_round(&stream, 0, &bins, RATIO_PAYLOAD_SYMBOLS)
                .expect("round decodes");
            assert_eq!(round.devices.len(), 256, "all devices detected");
        },
        || {
            for symbol in spectra.clone() {
                demod
                    .spectrum_into(symbol, 1, &mut ws)
                    .expect("correct symbol length");
            }
        },
    );

    // 2c. A frame line at the dense and coded benchmarks' shapes (256
    //     devices × 40 raw bits; 256 conv-coded 108-bit frames with their
    //     outcomes): the `frame_json` tree printed and newline-terminated,
    //     against the daemon's direct writer into a reused buffer, timed
    //     alternately. CI gates both ratios.
    let decoded = rx
        .decode_round(&stream, 0, &bins, RATIO_PAYLOAD_SYMBOLS)
        .expect("round decodes");
    let conv =
        FrameCodec::new(CodingScheme::Conv, RATIO_PAYLOAD_SYMBOLS).expect("conv fills 108 bits");
    let mut raw = netscatter_gateway::DecodedPacket {
        index: 1_234,
        start_sample: 987_654_321,
        round: decoded,
    };
    let mut coded = raw.clone();
    let mut line_rng = StdRng::seed_from_u64(scenario.seed ^ 0x11E);
    for (r, c) in raw.round.devices.iter_mut().zip(&mut coded.round.devices) {
        r.bits = (0..40).map(|_| line_rng.gen_bool(0.5)).collect();
        let data: Vec<bool> = (0..conv.data_bits())
            .map(|_| line_rng.gen_bool(0.5))
            .collect();
        c.bits = conv.encode_frame(line_rng.gen_range(0..=255u8), &data);
    }
    let outcomes: Vec<_> = coded
        .round
        .devices
        .iter()
        .map(|d| conv.decode_frame(&d.bits))
        .collect();
    let [(raw_tree_s, raw_direct_s), (coded_tree_s, coded_direct_s)] =
        [(&raw, None), (&coded, Some(&outcomes[..]))].map(|(packet, outcomes)| {
            let tree = || {
                let mut line = protocol::frame_json("perf", packet, outcomes).to_string_line();
                line.push('\n');
                line
            };
            let mut line = String::new();
            protocol::write_frame_line(&mut line, "perf", packet, outcomes);
            assert_eq!(line, tree(), "the writer prints the tree's bytes");
            median_secs_interleaved(
                401,
                || {
                    std::hint::black_box(tree());
                },
                || {
                    line.clear();
                    protocol::write_frame_line(&mut line, "perf", packet, outcomes);
                    std::hint::black_box(&line);
                },
            )
        });

    // 3. Sample-level network round throughput: channel realization +
    //    superposed synthesis + AWGN + full concurrent decode, per
    //    round, under the office channel model.
    let dep = Deployment::generate(
        DeploymentConfig::office(256),
        &mut StdRng::seed_from_u64(scenario.seed),
    );
    let model = ChannelModel::office();
    let mut network = Table::new(
        "network",
        &[
            ("devices", ""),
            ("round_ms", "ms"),
            ("device_symbols_per_sec", "1/s"),
        ],
    );
    for n_devices in [16usize, 64, 256] {
        let mut net = FullRoundNetwork::for_trial(&dep, n_devices, &model, 7);
        let round_s = median_secs(5, || {
            let truth = net.simulate_round(PERF_PAYLOAD_SYMBOLS);
            assert_eq!(truth.outcome.scheduled, n_devices);
        });
        network.push_row(vec![
            n_devices as f64,
            round_s * 1e3,
            n_devices as f64 * (8 + PERF_PAYLOAD_SYMBOLS) as f64 / round_s,
        ]);
    }

    // 4. Link-layer codec throughput: frame
    //    encode and decode over clean frames at each scheme's minimum
    //    geometry, amortized over a 256-frame batch, reported in
    //    Msymbols/s of on-air payload symbols (one bit per on-off-keyed
    //    symbol). The `scheme` column indexes [`CodingScheme::ALL`].
    let mut coding = Table::new(
        "coding",
        &[
            ("scheme", ""),
            ("payload_bits", ""),
            ("code_rate", ""),
            ("encode_msymbols_per_sec", "Msym/s"),
            ("decode_msymbols_per_sec", "Msym/s"),
        ],
    );
    let mut codec_rng = StdRng::seed_from_u64(scenario.seed ^ 0xFEC);
    for (index, scheme) in CodingScheme::ALL.iter().enumerate() {
        let scheme = *scheme;
        if scheme == CodingScheme::None {
            continue;
        }
        let payload_bits = netscatter_coding::frame::min_payload_bits(scheme);
        let codec = FrameCodec::new(scheme, payload_bits).expect("minimum geometry is valid");
        let batch = 256usize;
        let frames: Vec<(u8, Vec<bool>)> = (0..batch)
            .map(|i| {
                let data: Vec<bool> = (0..codec.data_bits())
                    .map(|_| codec_rng.gen_bool(0.5))
                    .collect();
                (i as u8, data)
            })
            .collect();
        let encode_s = median_secs(9, || {
            for (seq, data) in &frames {
                std::hint::black_box(codec.encode_frame(*seq, data));
            }
        });
        let encoded: Vec<Vec<bool>> = frames
            .iter()
            .map(|(seq, data)| codec.encode_frame(*seq, data))
            .collect();
        let decode_s = median_secs(9, || {
            for air in &encoded {
                let out = codec.decode_frame(air);
                assert!(out.crc_ok, "clean frame decodes");
                std::hint::black_box(out);
            }
        });
        let symbols = (batch * payload_bits) as f64;
        coding.push_row(vec![
            index as f64,
            payload_bits as f64,
            codec.rate(),
            symbols / encode_s / 1e6,
            symbols / decode_s / 1e6,
        ]);
    }

    // 5. Quick-mode sweep wall-times: the Fig. 15b Monte-Carlo sweep and
    //    the Fig. 17 network sweep, both through the sharded/parallel
    //    layer.
    let quick = Scenario {
        scale: Scale::Quick,
        seed: scenario.seed,
        ..Scenario::default()
    };
    let [fig15_ms, fig17_ms] =
        [("fig15", "Fig. 15b"), ("fig17", "Fig. 17")].map(|(id, heading)| {
            let exp = find(id).expect("registered experiment");
            let t = Instant::now();
            let report = exp.render_text(&exp.run(&quick));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(report.contains(heading), "{id} report");
            ms
        });

    result.tables.push(decode);
    result.tables.push(network);
    result.tables.push(coding);
    result.scalars.extend(
        [
            ("payload_symbols_per_round", PERF_PAYLOAD_SYMBOLS as f64),
            ("padded_spectrum_ns", padded_spectrum_ns),
            ("lattice_spectrum_ns", lattice_spectrum_ns),
            ("chirp_bank_sliding_us", chirp_bank_sliding_us),
            ("chirp_bank_per_candidate_us", chirp_bank_per_candidate_us),
            ("decode_round_256x108_us", round_s * 1e6),
            ("decode_round_256x108_spectra_us", spectra_s * 1e6),
            ("frame_line_256x40_tree_us", raw_tree_s * 1e6),
            ("frame_line_256x40_direct_us", raw_direct_s * 1e6),
            ("frame_line_256x108_tree_us", coded_tree_s * 1e6),
            ("frame_line_256x108_direct_us", coded_direct_s * 1e6),
            ("fig15b_quick_ms", fig15_ms),
            ("fig17_quick_ms", fig17_ms),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    );
}

fn perf_text(result: &ExperimentResult) -> String {
    use netscatter_phy::preamble::PREAMBLE_UPCHIRPS;
    let mut out = String::from("perf (quick mode)\n");
    let spectrum = result.scalar("padded_spectrum_ns").expect("scalar");
    let lattice = result.scalar("lattice_spectrum_ns").expect("scalar");
    let _ = writeln!(
        out,
        "  padded_spectrum: {spectrum:.0} ns per symbol spectrum ({lattice:.0} ns on the 2^SF lattice)"
    );
    let sliding = result.scalar("chirp_bank_sliding_us").expect("scalar");
    let per_candidate = result
        .scalar("chirp_bank_per_candidate_us")
        .expect("scalar");
    let _ = writeln!(
        out,
        "  sync comb (9 candidates, 256 bins): {sliding:.0} us sliding, {per_candidate:.0} us per-candidate (ratio {:.2})",
        sliding / per_candidate
    );
    let round = result.scalar("decode_round_256x108_us").expect("scalar");
    let spectra = result
        .scalar("decode_round_256x108_spectra_us")
        .expect("scalar");
    let _ = writeln!(
        out,
        "  decode_round[256 devices x {RATIO_PAYLOAD_SYMBOLS} symbols]: {round:.0} us, its {} lattice spectra {spectra:.0} us (ratio {:.2})",
        PREAMBLE_UPCHIRPS + RATIO_PAYLOAD_SYMBOLS,
        round / spectra
    );
    for (shape, label) in [
        ("256x40", "40 raw bits"),
        ("256x108", "108 conv-coded bits"),
    ] {
        let tree = result
            .scalar(&format!("frame_line_{shape}_tree_us"))
            .expect("scalar");
        let direct = result
            .scalar(&format!("frame_line_{shape}_direct_us"))
            .expect("scalar");
        let _ = writeln!(
            out,
            "  frame line[256 devices x {label}]: {tree:.0} us tree then print, {direct:.0} us direct (ratio {:.2})",
            direct / tree
        );
    }
    for row in &result.table("decode").expect("decode table").rows {
        let _ = writeln!(
            out,
            "  decode_round[{:>3.0} devices]: {:.3} ms per {PERF_PAYLOAD_SYMBOLS}-symbol round = {:.0} symbols/sec",
            row[0], row[1], row[2]
        );
    }
    for row in &result.table("network").expect("network table").rows {
        let _ = writeln!(
            out,
            "  fullround[{:>3.0} devices]: {:.3} ms per sample-level round = {:.0} device-symbols/sec",
            row[0], row[1], row[2]
        );
    }
    for row in &result.table("coding").expect("coding table").rows {
        let scheme = CodingScheme::ALL
            .get(row[0] as usize)
            .map(|s| s.name())
            .unwrap_or("?");
        let _ = writeln!(
            out,
            "  codec[{scheme:>8}]: rate {:.2}, encode {:.2} Msym/s, decode {:.2} Msym/s",
            row[2], row[3], row[4]
        );
    }
    let _ = writeln!(
        out,
        "  fig15b quick sweep: {:.0} ms",
        result.scalar("fig15b_quick_ms").expect("scalar")
    );
    let _ = writeln!(
        out,
        "  fig17 quick sweep: {:.0} ms",
        result.scalar("fig17_quick_ms").expect("scalar")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default scenario at quick scale.
    fn quick() -> Scenario {
        Scenario {
            scale: Scale::Quick,
            ..Scenario::default()
        }
    }

    /// Experiment `id`'s result under `scenario`.
    fn run(id: &str, scenario: &Scenario) -> ExperimentResult {
        find(id).expect("registered id").run(scenario)
    }

    /// The text report of experiment `id` at quick scale.
    fn report(id: &str, seed: u64) -> String {
        let result = run(id, &Scenario { seed, ..quick() });
        find(id).expect("registered id").render_text(&result)
    }

    #[test]
    fn all_reports_are_nonempty_and_contain_headline_rows() {
        assert!(report("table1", 1).contains("500"));
        assert!(report("fig04", 1).contains("backscatter p99"));
        assert!(report("fig08", 1).contains("SKIP=2"));
        assert!(report("fig09", 1).lines().count() >= 9);
        assert!(report("fig12", 1).contains("SNR"));
        assert!(report("fig14", 1).contains("Fig. 14b"));
        assert!(report("fig15", 1).contains("Doppler"));
        assert!(report("fig16", 1).contains("-10"));
        assert!(report("analysis_choir", 1).contains("P(shift collision)"));
        assert!(report("analysis_capacity", 1).contains("gain"));
    }

    #[test]
    fn network_figures_report_positive_gains() {
        assert!(report("fig17", 2).contains("PHY-rate gain"));
        assert!(report("fig18", 2).contains("link-layer gains"));
        assert!(report("fig19", 2).contains("latency reductions"));
    }

    #[test]
    fn registry_covers_all_former_drivers_plus_the_gateway() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "table1",
                "fig04",
                "fig08",
                "fig09",
                "fig12",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "fig19",
                "analysis_choir",
                "analysis_capacity",
                "gateway",
                "goodput",
                "perf",
            ]
        );
        assert!(find("fig17").is_some());
        assert!(find("fig99").is_none());
        for exp in registry() {
            assert!(!exp.title.is_empty(), "{} needs a title", exp.id);
            for field in exp.fields {
                assert!(
                    crate::scenario::SCENARIO_FIELDS.contains(field),
                    "{} declares unknown field {field}",
                    exp.id
                );
            }
        }
    }

    #[test]
    fn structured_results_expose_series_not_just_text() {
        let result = run("fig17", &Scenario { seed: 2, ..quick() });
        assert_eq!(result.schema_version, crate::experiment::SCHEMA_VERSION);
        let t = result.table("phy_rate").expect("phy_rate table");
        let n = t.column("n").expect("n column");
        assert_eq!(n, vec![1.0, 64.0, 256.0]);
        let ns = t.column("netscatter_bps").expect("netscatter column");
        assert!(ns.last().unwrap() > &150_000.0);
        assert!(result.scalar("gain_over_fixed").unwrap() > 10.0);
    }

    #[test]
    fn payload_bits_reach_the_network_figures() {
        let at = |payload_bits| Scenario {
            devices: 64,
            payload_bits,
            ..quick()
        };
        let (short, long) = (run("fig18", &at(8)), run("fig18", &at(80)));
        // Longer payloads amortize the fixed query/preamble overhead, so
        // the link-layer rate must move.
        let rate = |r: &ExperimentResult| r.table("link_rate").unwrap().rows[1][3];
        assert!(rate(&long) > rate(&short));
    }

    #[test]
    fn gateway_experiment_decodes_an_analytical_stream() {
        // Analytical fidelity: ideal radios, no noise — every offered round
        // must come back decoded with zero bit errors, and the structured
        // result must carry the throughput columns.
        let scenario = Scenario {
            devices: 16,
            payload_bits: 8,
            stream_secs: 0.2,
            arrival_rate: 20.0,
            seed: 5,
            ..quick()
        };
        let result = run("gateway", &scenario);
        let t = result.table("stream").expect("stream table");
        assert_eq!(t.rows.len(), 1, "16-device scenario has one size row");
        let offered = t.column("rounds_offered").unwrap()[0];
        let decoded = t.column("rounds_decoded").unwrap()[0];
        assert!(offered >= 1.0, "stream offered no rounds");
        assert_eq!(offered, decoded, "every ideal round decodes");
        assert_eq!(t.column("ber").unwrap()[0], 0.0);
        assert_eq!(t.column("delivery_frac").unwrap()[0], 1.0);
        assert!(t.column("msamples_per_sec").unwrap()[0] > 0.0);
        assert!(result.scalar("real_time_factor").unwrap() > 0.0);
        let text = find("gateway").unwrap().render_text(&result);
        assert!(text.contains("real time"), "{text}");
    }

    #[test]
    fn gateway_experiment_survives_the_sample_level_channel() {
        // Sample-level office synthesis at a small population: the gateway
        // must find most rounds through multipath/fading/CFO/noise.
        let scenario = Scenario {
            devices: 16,
            payload_bits: 8,
            stream_secs: 0.25,
            arrival_rate: 20.0,
            fidelity: Fidelity::SampleLevel,
            seed: 7,
            ..quick()
        };
        let result = run("gateway", &scenario);
        let t = result.table("stream").expect("stream table");
        let offered = t.column("rounds_offered").unwrap()[0];
        let decoded = t.column("rounds_decoded").unwrap()[0];
        assert!(offered >= 1.0);
        assert!(
            decoded >= (offered * 0.5).floor(),
            "gateway missed most rounds: {decoded}/{offered}"
        );
        assert!(t.column("delivery_frac").unwrap()[0] > 0.3);
    }

    #[test]
    fn goodput_analytical_rows_show_pure_rate_overhead() {
        // Analytical fidelity gates whole devices, so every scheme at one
        // size shares the delivery fraction and goodput orders exactly by
        // code rate: none > fountain > rs > hamming > conv at 168 bits.
        let scenario = Scenario {
            devices: 64,
            seed: 3,
            ..quick()
        };
        let result = run("goodput", &scenario);
        let t = result.table("goodput").expect("goodput table");
        assert_eq!(
            t.rows.len(),
            2 * CodingScheme::ALL.len(),
            "two sizes x five schemes"
        );
        assert_eq!(result.scalar("payload_bits"), Some(168.0));
        let at_64: Vec<&Vec<f64>> = t.rows.iter().filter(|r| r[0] == 64.0).collect();
        let delivery = at_64[0][6];
        for row in &at_64 {
            assert_eq!(row[6], delivery, "shared analytical delivery");
            assert_eq!(row[7], 1.0, "delivered devices are error-free");
            assert_eq!(row[9], 0.0, "no residual BER under the gate");
            let goodput = row[2] * delivery;
            assert!(
                (row[11] - goodput).abs() < 1e-9,
                "goodput = rate x delivery"
            );
        }
        // Rate ordering: uncoded carries the most bits per on-air bit.
        let rate_of = |scheme: CodingScheme| {
            let idx = CodingScheme::ALL.iter().position(|&s| s == scheme).unwrap() as f64;
            at_64.iter().find(|r| r[1] == idx).unwrap()[2]
        };
        assert!(rate_of(CodingScheme::None) > rate_of(CodingScheme::Fountain));
        assert!(rate_of(CodingScheme::Fountain) > rate_of(CodingScheme::Rs));
        assert!(rate_of(CodingScheme::Rs) > rate_of(CodingScheme::Hamming));
        assert!(rate_of(CodingScheme::Hamming) > rate_of(CodingScheme::Conv));
        let text = find("goodput").unwrap().render_text(&result);
        assert!(text.contains("goodput"), "{text}");
        assert!(text.contains("conv"), "{text}");
    }

    #[test]
    fn goodput_selected_scheme_runs_against_the_raw_baseline() {
        // `--coding conv --payload-bits 108`: two rows per size, conv at
        // the scenario's validated geometry.
        let scenario = Scenario {
            devices: 16,
            coding: CodingScheme::Conv,
            payload_bits: 108,
            seed: 5,
            ..quick()
        };
        scenario.validate().expect("valid geometry");
        let result = run("goodput", &scenario);
        let t = result.table("goodput").expect("goodput table");
        assert_eq!(t.rows.len(), 2, "one size, baseline + conv");
        assert_eq!(result.scalar("payload_bits"), Some(108.0));
        let conv_idx = CodingScheme::ALL
            .iter()
            .position(|&s| s == CodingScheme::Conv)
            .unwrap() as f64;
        let conv = t.rows.iter().find(|r| r[1] == conv_idx).expect("conv row");
        assert_eq!(
            conv[3],
            48.0 - 32.0,
            "conv at 108 bits carries 16 data bits"
        );
    }

    #[test]
    fn goodput_sample_conv_delivers_at_the_residual_operating_point() {
        // ISSUE 9 acceptance: at 256 devices, coded frame delivery >= 99%
        // at the operating point where raw BER is ~1e-2. The office fade
        // tail also produces device-rounds far beyond any code's reach, so
        // the claim is pinned on the `delivery_at_ber_1e2` bucket.
        let scenario = Scenario {
            devices: 256,
            fidelity: Fidelity::SampleLevel,
            coding: CodingScheme::Conv,
            payload_bits: GOODPUT_PAYLOAD_BITS,
            seed: 42,
            ..quick()
        };
        scenario.validate().expect("valid geometry");
        let result = run("goodput", &scenario);
        let t = result.table("goodput").expect("goodput table");
        assert_eq!(t.rows.len(), 6, "sizes {{16,64,256}} x {{none,conv}}");
        let conv_idx = CodingScheme::ALL
            .iter()
            .position(|&s| s == CodingScheme::Conv)
            .unwrap() as f64;
        let row_at = |scheme_idx: f64| {
            t.rows
                .iter()
                .find(|r| r[0] == 256.0 && r[1] == scheme_idx)
                .expect("256-device row")
        };
        let raw = row_at(0.0);
        let conv = row_at(conv_idx);
        // The uncoded baseline proves the ~1e-2 bucket is populated: an
        // empty bucket would degenerate to 1.0, but any bit error kills a
        // raw frame, so delivery there is exactly 0.
        assert_eq!(raw[12], 0.0, "uncoded frames never survive bit errors");
        assert!(
            raw[9] > 1e-3 && raw[9] < 0.5,
            "raw BER among detected devices is in the lossy regime: {}",
            raw[9]
        );
        assert!(
            conv[12] >= 0.99,
            "conv delivery at the ~1e-2-BER operating point: {}",
            conv[12]
        );
        assert!(
            conv[7] > raw[7],
            "coding lifts detected-frame delivery: conv {} vs raw {}",
            conv[7],
            raw[7]
        );
        assert!(conv[10] > 0.0, "Viterbi reports corrected errors");
    }

    #[test]
    fn network_sweep_clamps_sizes_to_the_scenario_population() {
        let (_, sizes) = network_sweep(&Scenario {
            devices: 48,
            ..quick()
        });
        assert_eq!(sizes, vec![1, 48]);
        let (_, sizes) = network_sweep(&quick());
        assert_eq!(sizes, vec![1, 64, 256]);
    }
}
