//! Streaming gateway receiver for NetScatter.
//!
//! The batch pipeline in `netscatter` decodes pre-aligned, whole-round
//! sample buffers; a real AP listens to a *continuous* RF stream and must
//! detect, synchronize and decode concurrent backscatter rounds whose
//! arrivals it does not control. This crate is that missing subsystem:
//!
//! * [`source`] — the [`source::StreamSource`] abstraction the gateway
//!   consumes (deterministic replay here; the live Poisson round
//!   synthesizer lives in `netscatter_sim::stream`);
//! * [`ring`] — the bounded blocking queue carrying sample chunks from the
//!   producer thread into the detector, with a drop-oldest overflow mode
//!   ([`ring::OverflowPolicy`]) for live ingest;
//! * [`detect`] — the online detection state machine (energy gate →
//!   preamble cross-correlation sync → payload handoff) with overlap-save
//!   chunk stitching, making the decode chunk-size invariant;
//! * [`engine`] — the reusable per-stream [`engine::StreamEngine`]
//!   (spawn / feed / drain / shutdown lifecycle) the `netscatterd` daemon
//!   runs one of per ingest stream;
//! * [`pipeline`] — the threaded [`pipeline::run_multi_stream`] session
//!   (one engine per source, run to completion; [`pipeline::run_stream`]
//!   is its one-source case), reporting measured throughput and the
//!   real-time factor, and [`pipeline::decode_span`], the one span decode
//!   the engine's workers and serial callers share.
//!
//! The gate needs at least one full noise-only gate window
//! ([`detect::GATE_WINDOW`] samples) at the head of the stream to calibrate
//! its floor before the first packet; every practical source (and the
//! stream synthesizer) starts with an idle gap.
//!
//! Every stage records latency telemetry into lock-free `netscatter_obs`
//! histograms as it runs — ring occupancy and producer block waits, energy
//! gate → anchor detection latency, decode queue wait and service time —
//! surfaced live via [`engine::EngineTelemetry`] and folded into each
//! [`pipeline::GatewayReport`] as a [`pipeline::PipelineTelemetry`]
//! snapshot. Recording never changes detection or decode decisions, so
//! decoded output is bit-identical with telemetry on.

#![forbid(unsafe_code)]

pub mod detect;
pub mod engine;
pub mod pipeline;
pub mod ring;
pub mod source;

pub use detect::{DetectTelemetry, GatewayConfig, PacketSpan, StreamDetector};
pub use engine::{
    EngineClosed, EngineError, EngineTelemetry, OverflowPolicy, PanicReport, StreamEngine,
    TimedPacket,
};
pub use pipeline::{
    decode_span, run_multi_stream, run_stream, DecodedPacket, GatewayReport, MultiChannelReport,
    PipelineTelemetry,
};
pub use ring::RingTelemetry;
pub use source::{ReplaySource, StreamSource};

/// A stream with `count` ideal single-device packets at varying gaps.
#[cfg(test)]
fn stream_with_packets(bin: usize, bits: &[bool], count: usize) -> Vec<netscatter_dsp::Complex64> {
    use netscatter_dsp::Complex64;
    use netscatter_phy::distributed::OnOffModulator;
    use netscatter_phy::preamble::PreambleBuilder;
    let params = netscatter_phy::params::PhyProfile::default()
        .modulation
        .chirp();
    let mut pkt = PreambleBuilder::new(params, bin).build(0.0, 0.0, 1.0);
    pkt.extend(OnOffModulator::new(params, bin).modulate_payload(bits, 0.0, 0.0, 1.0));
    let mut stream = Vec::new();
    for i in 0..count {
        stream.extend(vec![Complex64::ZERO; 400 + 137 * i]);
        stream.extend(&pkt);
    }
    stream.extend(vec![Complex64::ZERO; 200]);
    stream
}
