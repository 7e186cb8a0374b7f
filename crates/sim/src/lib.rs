//! # netscatter-sim
//!
//! Network-scale simulation and the experiment drivers that regenerate every
//! table and figure of the NetScatter evaluation (see `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results).
//!
//! * [`deployment`] — places N backscatter devices and one AP on an office
//!   floorplan and derives every device's link budget (downlink RSSI at the
//!   envelope detector, backscatter uplink RSSI and SNR at the AP).
//! * [`network`] — end-to-end accounting of a NetScatter round versus the
//!   TDMA LoRa-backscatter baselines: network PHY rate, link-layer rate and
//!   latency as functions of the number of devices (Figs. 17–19), at either
//!   analytical or sample-level fidelity.
//! * [`fullround`] — the sample-level round simulator: per-device channel
//!   realizations (multipath, temporal fading, Doppler, hardware
//!   impairments), superposed waveform synthesis, and decode through the
//!   real concurrent receiver.
//! * [`ber`] — symbol-level Monte-Carlo helpers: near-far BER sweeps
//!   (Fig. 12) and the power-dynamic-range sweep (Fig. 15b).
//! * [`montecarlo`] — the deterministic sharded Monte-Carlo runner: fixed
//!   shard layout, one RNG stream per shard (`seed ⊕ shard`), worker threads
//!   via `std::thread::scope`; results are bit-identical for a given seed at
//!   any thread count.
//! * [`scenario`] — the typed [`scenario::Scenario`]: population,
//!   placement, channel stack, fidelity, coding, seed, threads and scale as
//!   one plain value, settable by name (and validated) for sweeps.
//! * [`experiment`] — the [`experiment::Experiment`] registry entry (id,
//!   title, scenario fields, run and render functions), the structured
//!   serde-serializable [`experiment::ExperimentResult`] (schema-versioned
//!   tables + scalars) and the text/JSON/CSV sinks.
//! * [`stream`] — the live stream synthesizer feeding the streaming
//!   gateway (`netscatter_gateway`): rounds from the sample-level simulator
//!   replayed as a continuous baseband stream with Poisson arrivals,
//!   recharge dead time between rounds, and thermal noise over the idle
//!   gaps.
//! * [`experiments`] — the registered drivers, one per table/figure of the
//!   paper plus the `perf` kernel snapshot. The `netscatter` CLI binary in
//!   `src/bin/` is a thin wrapper around [`experiments::registry`].
//! * [`stress`] — the `netscatter stress` harness: N simultaneous
//!   synthesized TCP ingest streams driven at a `netscatterd` daemon
//!   (in-process or `--connect`), scored for bit identity against the
//!   batch pipeline, zero ring drops at real-time pace, and a complete
//!   metrics document.
//! * [`chaos`] — the `netscatter stress --chaos` fault matrix: a healthy
//!   fleet plus seed-deterministic misbehaving connections (truncated /
//!   garbage / oversized / slowloris headers, mid-stream stalls and
//!   disconnects, ragged cf32 write splits, kill-mid-round, an injected
//!   decode-worker panic), verified against the daemon's failure model —
//!   terminal records with machine-readable codes, bit-identical healthy
//!   decodes, admission rejects, no leaked serving threads.
//! * [`cli`] — the unified `netscatter` command-line interface
//!   (`list` / `run` / `sweep` / `serve` / `stress`) and the scenario flag
//!   parsing `stress` shares with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod chaos;
pub mod cli;
pub mod deployment;
pub mod experiment;
pub mod experiments;
pub mod fullround;
pub mod montecarlo;
pub mod network;
pub mod scenario;
pub mod stream;
pub mod stress;
pub mod workloads;

pub use deployment::{Deployment, DeploymentConfig, DeviceLink};
pub use experiment::{Experiment, ExperimentResult, OutputFormat, Table};
pub use fullround::{ChannelModel, ChannelRealizer, FullRoundNetwork, RoundChannel, RoundTruth};
pub use montecarlo::MonteCarlo;
pub use network::{netscatter_metrics, netscatter_metrics_with, Fidelity, NetScatterVariant};
pub use scenario::{ChannelProfile, Placement, Scale, Scenario};
pub use stream::{ArrivalConfig, RoundArrivalSource, StreamRoundTruth, StreamTruth};
