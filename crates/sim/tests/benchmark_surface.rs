//! Tripwire for the frozen repo benchmark. `benchmark/` is a workspace of
//! its own that tier-1 never compiles, yet it builds against `crates/*` and
//! resolves them through its own `benchmark/Cargo.lock`, so a reshaped pub
//! item or an edited `[dependencies]` table breaks it only after a PR is
//! built. These two tests fail first. Changing either side is the job of a
//! `benchmark`-archetype PR, which moves `benchmark/src/*.rs`, the lock
//! file and this file together.

use netscatter::json::Json;
use netscatter::receiver::{ConcurrentReceiver, DecodedRound};
use netscatter_coding::frame::{FrameCodec, FrameOutcome};
use netscatter_coding::CodingScheme;
use netscatter_daemon::protocol::{self, Cf32Decoder, StreamHeader, SAMPLE_BYTES};
use netscatter_dsp::fft::{Fft, FftError};
use netscatter_dsp::{kernels, Complex64};
use netscatter_gateway::detect::DetectorState;
use netscatter_gateway::ring::{spsc_ring, RingConsumer, RingProducer};
use netscatter_gateway::{
    run_stream, DecodedPacket, EngineClosed, EngineError, GatewayConfig, GatewayReport,
    OverflowPolicy, PacketSpan, StreamDetector, StreamEngine, StreamSource, TimedPacket,
};
use netscatter_phy::params::PhyProfile;
use netscatter_sim::deployment::{Deployment, DeploymentConfig};
use netscatter_sim::fullround::ChannelModel;
use netscatter_sim::stream::{ArrivalConfig, RoundArrivalSource, StreamRoundTruth, StreamTruth};
use rand::rngs::StdRng;
use std::time::Instant;

#[test]
fn benchmark_lock_file_matches_the_manifests() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/Cargo.toml");
    let out = std::process::Command::new(env!("CARGO"))
        .args(["metadata", "--locked", "--offline", "--format-version", "1"])
        .args(["--manifest-path", manifest])
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "benchmark/Cargo.lock no longer matches the crates' dependency tables:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Compile-only: every item `benchmark/src/*.rs` names, in the shape it
/// names it (the spelled-out `fn` pointer types are the point).
#[test]
#[allow(clippy::type_complexity)]
fn benchmark_link_surface_keeps_its_shape() {
    type Chunk = Vec<Complex64>;

    // Struct literals the benchmark writes out in full, from the fields it
    // reads to fill them.
    let _ = |span: &PacketSpan, round: DecodedRound| {
        let _: (&[Complex64], &[bool]) = (&span.samples, &round.devices[0].bits);
        DecodedPacket {
            index: span.index,
            start_sample: span.start_sample,
            round,
        }
    };
    let header = StreamHeader {
        name: String::new(),
        sample_rate_hz: Some(500e3),
        bins: Some(vec![64]),
        payload_bits: Some(8),
        detection_floor: Some(0.1),
        channel: Some(0),
        coding: Some(CodingScheme::Conv),
        fault_panic_span: None,
    };
    let _ = StreamRoundTruth {
        start_sample: 0,
        sent: vec![Some(vec![true])],
    };
    let _ = ArrivalConfig {
        rate_hz: 1.0,
        stream_secs: 1.0,
        payload_bits: 8,
    };

    // The gateway configuration the probe assembles.
    let mut cfg = GatewayConfig::new(PhyProfile::default(), vec![64], 8);
    cfg.ring_slots = 64;
    cfg.workers = 1;
    cfg.overflow = OverflowPolicy::DropOldest;
    let _ = OverflowPolicy::Block;
    cfg.detection_floor_fraction = header.detection_floor;
    let _: (usize, &[usize], usize) = (cfg.chunk_samples, &cfg.assigned_bins, cfg.payload_symbols);

    // Fields read off results.
    let _ = |r: &GatewayReport, t: &TimedPacket, o: &FrameOutcome| -> (u64, f64, Instant, bool) {
        let _: &[bool] = &o.data;
        (r.samples_in, r.elapsed_s, t.ingested_at, o.crc_ok)
    };
    let _ = |d: &StreamDetector| d.state() == DetectorState::Hunting;
    let _ = CodingScheme::None != CodingScheme::Conv;
    let _: usize = SAMPLE_BYTES;

    // Wire format and records.
    let _: fn() -> Cf32Decoder = Cf32Decoder::new;
    let _: fn(&mut Cf32Decoder, &[u8], &mut Chunk) = Cf32Decoder::push;
    let _: fn(&[Complex64]) -> Vec<u8> = protocol::encode_cf32le;
    let _: fn(&[bool]) -> String = protocol::bits_string;
    let _: fn(&str, &DecodedPacket, Option<&[FrameOutcome]>) -> Json = protocol::frame_json;
    let _: fn(&Json) -> String = Json::to_string_line;
    let _: fn(&str) -> StreamHeader = StreamHeader::named;

    // Ring, detector, receiver, engine.
    let _: fn(usize) -> (RingProducer<Chunk>, RingConsumer<Chunk>) = spsc_ring::<Chunk>;
    let _: fn(&RingProducer<Chunk>, Chunk) -> Result<(), Chunk> = RingProducer::push;
    let _: fn(&RingConsumer<Chunk>) -> Option<Chunk> = RingConsumer::pop;
    let _: fn(&GatewayConfig) -> Result<StreamDetector, FftError> = StreamDetector::new;
    let _: fn(&StreamDetector) -> &ConcurrentReceiver = StreamDetector::receiver;
    let _: fn(&StreamDetector) -> DetectorState = StreamDetector::state;
    let _: fn(&mut StreamDetector, &[Complex64], &mut Vec<PacketSpan>) = StreamDetector::push;
    let _: fn(&mut StreamDetector) = StreamDetector::finish;
    let _: fn(&StreamDetector) -> usize = StreamDetector::truncated;
    let _: fn(
        &ConcurrentReceiver,
        &[Complex64],
        usize,
        &[usize],
        usize,
    ) -> Result<DecodedRound, FftError> = ConcurrentReceiver::decode_round;
    let _: fn(&mut dyn StreamSource, &GatewayConfig) -> Result<GatewayReport, EngineError> =
        run_stream;
    let _: fn(&GatewayConfig, f64) -> Result<StreamEngine, FftError> = StreamEngine::spawn;
    let _: fn(&mut StreamEngine, &[Complex64]) -> Result<u64, EngineClosed> = StreamEngine::feed;
    let _: fn(&mut StreamEngine) -> Vec<TimedPacket> = StreamEngine::drain_timed;
    let _: fn(StreamEngine) -> Result<GatewayReport, EngineError> = StreamEngine::shutdown;

    // Codec and DSP kernels.
    let _: fn(CodingScheme, usize) -> Result<FrameCodec, String> = FrameCodec::new;
    let _: fn(&FrameCodec, &[bool]) -> FrameOutcome = FrameCodec::decode_frame;
    let _: fn(usize) -> Result<Fft, FftError> = Fft::new;
    let _: fn(&Fft, &[Complex64], &mut Chunk) -> Result<(), FftError> =
        Fft::forward_zero_padded_into;
    let _: fn(&[f32], &[f32], &[f32], &[f32], &mut [f32], &mut [f32]) = kernels::dechirp_f32;

    // Capture synthesis.
    type Source = RoundArrivalSource;
    let _: fn(usize) -> DeploymentConfig = DeploymentConfig::office;
    let _: fn(DeploymentConfig, &mut StdRng) -> Deployment = Deployment::generate::<StdRng>;
    let _: fn() -> ChannelModel = ChannelModel::pristine;
    let _: fn(&Deployment, usize, &ChannelModel, ArrivalConfig, u64) -> Source = Source::new;
    let _: fn(Source, CodingScheme) -> Result<Source, String> = Source::with_coding;
    let _: fn(&Source) -> StreamTruth = Source::truth;
    let _: fn(&Source) -> &[usize] = Source::assigned_bins;
    let _: fn(&Source) -> f64 = Source::detection_floor_fraction;
    let _: fn(&Source) -> u64 = Source::round_samples;
    let _: fn(&Source) -> u64 = Source::total_samples;
    let _: fn(&mut Source, &mut [Complex64]) -> usize = <Source as StreamSource>::fill;
}
