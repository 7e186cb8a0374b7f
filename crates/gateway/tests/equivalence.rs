//! Streaming/batch equivalence: the gateway's chunked decode must be
//! **bit-identical** to the batch [`ConcurrentReceiver`] decoding the same
//! round from a contiguous buffer — for randomized chunk sizes (from one
//! sample to four symbols), randomized packet offsets, and packets
//! straddling chunk boundaries. The overlap-save window stitching makes
//! every decision a function of absolute sample positions only, so the
//! exact same FFTs run over the exact same samples and even the f64
//! preamble powers match exactly.

use netscatter::receiver::{ConcurrentReceiver, DecodedRound};
use netscatter_coding::frame::FrameCodec;
use netscatter_coding::CodingScheme;
use netscatter_dsp::Complex64;
use netscatter_gateway::{
    run_multi_stream, run_stream, DecodedPacket, GatewayConfig, ReplaySource, StreamDetector,
    StreamSource,
};
use netscatter_phy::distributed::OnOffModulator;
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::PreambleBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One synthesized concurrent round plus everything needed to check it.
struct Round {
    /// Contiguous stream: `offset` idle samples, the round, idle tail.
    stream: Vec<Complex64>,
    /// Where the round starts.
    offset: usize,
    /// The population's assigned bins.
    bins: Vec<usize>,
    /// Payload bits per device (same length for every device).
    payload_bits: usize,
}

/// Synthesizes a concurrent round of `devices` impaired transmitters at
/// SKIP-spaced bins, preceded by `offset` idle samples.
fn build_round(rng: &mut StdRng, devices: usize, offset: usize, payload_bits: usize) -> Round {
    let profile = PhyProfile::default();
    let params = profile.modulation.chirp();
    let n = params.num_bins();
    let spacing = (n / devices.max(1)).max(profile.skip);
    let bins: Vec<usize> = (0..devices).map(|i| (i * spacing) % n).collect();
    let mut body = vec![Complex64::ZERO; (8 + payload_bits) * n];
    for &bin in &bins {
        // Post-compensation COTS offsets: one-sided sub-sample timing,
        // sub-bin CFO, a spread of receive amplitudes. The combined
        // residual stays safely under half a bin, so the sync comb's
        // argmax is unambiguous (exactly the §3.2.1 invariant the batch
        // receiver itself relies on).
        let timing_s = rng.gen_range(0.0..0.3) * (1.0 / params.bandwidth_hz());
        let freq_hz = rng.gen_range(-80.0..80.0);
        let amp = rng.gen_range(0.5..1.5);
        let pre = PreambleBuilder::new(params, bin).build(timing_s, freq_hz, amp);
        let bits: Vec<bool> = (0..payload_bits).map(|_| rng.gen_bool(0.5)).collect();
        let pay = OnOffModulator::new(params, bin).modulate_payload(&bits, timing_s, freq_hz, amp);
        for (acc, s) in body.iter_mut().zip(pre.iter().chain(pay.iter())) {
            *acc += *s;
        }
    }
    let mut stream = vec![Complex64::ZERO; offset];
    stream.extend(body);
    stream.extend(vec![Complex64::ZERO; 1024]);
    Round {
        stream,
        offset,
        bins,
        payload_bits,
    }
}

/// Like [`build_round`] but every device transmits a caller-provided bit
/// vector (a coded link-layer frame) instead of random payload bits.
fn build_round_with_frames(rng: &mut StdRng, offset: usize, frames: &[Vec<bool>]) -> Round {
    let profile = PhyProfile::default();
    let params = profile.modulation.chirp();
    let n = params.num_bins();
    let devices = frames.len();
    let spacing = (n / devices.max(1)).max(profile.skip);
    let bins: Vec<usize> = (0..devices).map(|i| (i * spacing) % n).collect();
    let payload_bits = frames[0].len();
    let mut body = vec![Complex64::ZERO; (8 + payload_bits) * n];
    for (&bin, bits) in bins.iter().zip(frames) {
        let timing_s = rng.gen_range(0.0..0.3) * (1.0 / params.bandwidth_hz());
        let freq_hz = rng.gen_range(-80.0..80.0);
        let amp = rng.gen_range(0.5..1.5);
        let pre = PreambleBuilder::new(params, bin).build(timing_s, freq_hz, amp);
        let pay = OnOffModulator::new(params, bin).modulate_payload(bits, timing_s, freq_hz, amp);
        for (acc, s) in body.iter_mut().zip(pre.iter().chain(pay.iter())) {
            *acc += *s;
        }
    }
    let mut stream = vec![Complex64::ZERO; offset];
    stream.extend(body);
    stream.extend(vec![Complex64::ZERO; 1024]);
    Round {
        stream,
        offset,
        bins,
        payload_bits,
    }
}

/// The batch reference: [`ConcurrentReceiver::decode_round`] on the
/// contiguous buffer at the true packet start.
fn batch_decode(round: &Round) -> DecodedRound {
    let rx = ConcurrentReceiver::new(&PhyProfile::default()).expect("valid profile");
    rx.decode_round(&round.stream, round.offset, &round.bins, round.payload_bits)
        .expect("batch decode succeeds")
}

/// Runs the online detector over `round.stream` cut into the given chunk
/// schedule (cycled until the stream is exhausted) and decodes every span
/// it completes through the batch receiver, as the engine's workers do.
fn stream_decode(round: &Round, chunk_sizes: &[usize]) -> Vec<DecodedPacket> {
    let cfg = GatewayConfig::new(
        PhyProfile::default(),
        round.bins.clone(),
        round.payload_bits,
    );
    let mut detector = StreamDetector::new(&cfg).expect("detector builds");
    let mut spans = Vec::new();
    let mut at = 0usize;
    let mut i = 0usize;
    while at < round.stream.len() {
        let len = chunk_sizes[i % chunk_sizes.len()].min(round.stream.len() - at);
        detector.push(&round.stream[at..at + len], &mut spans);
        at += len;
        i += 1;
    }
    detector.finish();
    assert_eq!(detector.truncated(), 0, "no truncated packets");
    spans
        .iter()
        .map(|span| DecodedPacket {
            index: span.index,
            start_sample: span.start_sample,
            round: detector
                .receiver()
                .decode_round(&span.samples, 0, &cfg.assigned_bins, cfg.payload_symbols)
                .expect("span decodes"),
        })
        .collect()
}

fn assert_equivalent(round: &Round, packets: &[DecodedPacket], label: &str) {
    assert_eq!(packets.len(), 1, "{label}: exactly one packet");
    let packet = &packets[0];
    assert_eq!(
        packet.start_sample, round.offset as u64,
        "{label}: streaming sync must find the exact packet start"
    );
    let batch = batch_decode(round);
    // Full struct equality: same devices, same decoded bits, and the same
    // f64 preamble powers — the streaming path ran the identical FFTs over
    // the identical samples.
    assert_eq!(
        packet.round, batch,
        "{label}: streaming decode diverged from batch decode"
    );
    assert!(
        !batch.devices.is_empty(),
        "{label}: reference round detected nobody"
    );
}

#[test]
fn randomized_chunk_sizes_and_offsets_are_bit_identical_to_batch() {
    // The satellite contract: chunk sizes randomized in 1..4·symbol
    // (2048 samples at SF9) and randomized packet offsets, ten rounds.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for iteration in 0..10 {
        let devices = rng.gen_range(1..=8usize);
        let offset = rng.gen_range(32..1800usize);
        let payload_bits = rng.gen_range(4..=16usize);
        let round = build_round(&mut rng, devices, offset, payload_bits);
        let schedule: Vec<usize> = (0..64).map(|_| rng.gen_range(1..=2048usize)).collect();
        let packets = stream_decode(&round, &schedule);
        assert_equivalent(
            &round,
            &packets,
            &format!("iteration {iteration} (devices={devices}, offset={offset})"),
        );
    }
}

#[test]
fn boundary_straddling_chunk_schedules_are_bit_identical_to_batch() {
    // Deliberately hostile chunkings: one-sample chunks, sizes coprime to
    // the 512-sample symbol so every chirp window straddles a boundary,
    // and a chunk size just under the 4-symbol cap.
    let mut rng = StdRng::seed_from_u64(7);
    let round = build_round(&mut rng, 6, 613, 12);
    for schedule in [
        vec![1usize],
        vec![7],
        vec![511],
        vec![513],
        vec![2047],
        vec![512, 1, 511, 2],
    ] {
        let packets = stream_decode(&round, &schedule);
        assert_equivalent(&round, &packets, &format!("schedule {schedule:?}"));
    }
}

#[test]
fn high_snr_noise_floor_does_not_break_the_equivalence() {
    // The same round riding on a -40 dB noise floor: the energy gate now
    // has a nonzero floor to calibrate and the sync comb sees perturbed
    // spectra, but the located start must not move and the decode must
    // still match batch exactly (both paths see the same noisy samples).
    let mut rng = StdRng::seed_from_u64(21);
    let mut round = build_round(&mut rng, 4, 900, 10);
    let sigma = (1e-4f64 / 2.0).sqrt();
    for s in round.stream.iter_mut() {
        // Box-Muller from the test's own rng keeps the vendored-rand API
        // surface minimal.
        let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
        let r = (-2.0 * u1.ln()).sqrt() * sigma;
        let phi = 2.0 * std::f64::consts::PI * u2;
        *s += Complex64::new(r * phi.cos(), r * phi.sin());
    }
    let schedule: Vec<usize> = (0..32).map(|_| rng.gen_range(1..=2048usize)).collect();
    let packets = stream_decode(&round, &schedule);
    assert_equivalent(&round, &packets, "noisy stream");
}

#[test]
fn threaded_pipeline_is_bit_identical_to_batch_too() {
    // The full producer → ring → detector → worker topology over a replay
    // source, at a chunk size that straddles symbol boundaries.
    let mut rng = StdRng::seed_from_u64(99);
    let round = build_round(&mut rng, 5, 777, 8);
    let cfg = GatewayConfig {
        chunk_samples: 709,
        ring_slots: 3,
        workers: 4,
        ..GatewayConfig::new(
            PhyProfile::default(),
            round.bins.clone(),
            round.payload_bits,
        )
    };
    let mut source = ReplaySource::from_samples(round.stream.clone(), 500e3);
    let report = run_stream(&mut source, &cfg).expect("pipeline runs");
    assert_equivalent(&round, &report.packets, "threaded pipeline");
    assert_eq!(report.samples_in, round.stream.len() as u64);
}

#[test]
fn multi_channel_path_is_bit_identical_to_batch_on_every_channel() {
    // The sharded session at a randomly drawn chunk size: three channels
    // carrying different rounds (different populations, offsets,
    // impairments and lengths), fed one chunk per channel per lap. Every
    // channel's anchors and frames must equal its own batch reference
    // exactly — sharding adds no new numerics anywhere.
    let mut rng = StdRng::seed_from_u64(0xD15C0);
    // One payload length across channels (the deployment's round length is
    // global); populations, offsets and impairments differ per channel.
    let payload_bits = rng.gen_range(4..=12usize);
    let rounds: Vec<Round> = (0..3)
        .map(|i| {
            let offset = rng.gen_range(64..1500usize);
            build_round(&mut rng, 2 + i, offset, payload_bits)
        })
        .collect();
    // One shared config: the union population (the shards share a profile
    // and bin plan the way one gateway's channels share a deployment).
    let mut bins: Vec<usize> = rounds.iter().flat_map(|r| r.bins.clone()).collect();
    bins.sort_unstable();
    bins.dedup();
    // Per-round batch references must use the same union config.
    let rx = ConcurrentReceiver::new(&PhyProfile::default()).unwrap();
    let cfg = GatewayConfig {
        chunk_samples: rng.gen_range(1..=2048usize),
        workers: 3,
        ..GatewayConfig::new(PhyProfile::default(), bins.clone(), payload_bits)
    };
    let mut sources: Vec<Box<dyn StreamSource>> = rounds
        .iter()
        .map(|round| -> Box<dyn StreamSource> {
            Box::new(ReplaySource::from_samples(round.stream.clone(), 500e3))
        })
        .collect();
    let report = run_multi_stream(&mut sources, &cfg).expect("clean shutdown");
    assert_eq!(report.channels.len(), rounds.len());
    for (channel, (chan_report, round)) in report.channels.iter().zip(rounds.iter()).enumerate() {
        assert_eq!(
            chan_report.packets.len(),
            1,
            "channel {channel}: exactly one packet"
        );
        let packet = &chan_report.packets[0];
        assert_eq!(
            packet.start_sample, round.offset as u64,
            "channel {channel}: anchor must stay sample-exact under sharding"
        );
        let batch = rx
            .decode_round(&round.stream, round.offset, &bins, payload_bits)
            .expect("batch decode");
        assert_eq!(
            packet.round, batch,
            "channel {channel}: sharded decode diverged from batch"
        );
        assert!(!batch.devices.is_empty());
        assert_eq!(chan_report.samples_in, round.stream.len() as u64);
    }
}

#[test]
fn coded_frames_stream_bit_identically_and_decode_clean_at_any_worker_count() {
    // Link-layer frames (RS at 104 payload symbols) through the full
    // stack: the streaming decode must stay bit-identical to batch — and
    // therefore deterministic at any worker count — and the recovered bits
    // must reassemble into CRC-clean frames carrying the exact sent data.
    let mut rng = StdRng::seed_from_u64(0xFEC);
    let codec = FrameCodec::new(CodingScheme::Rs, 104).expect("valid frame geometry");
    let sent: Vec<(u8, Vec<bool>)> = (0..4u8)
        .map(|seq| {
            let data: Vec<bool> = (0..codec.data_bits()).map(|_| rng.gen_bool(0.5)).collect();
            (seq, data)
        })
        .collect();
    let frames: Vec<Vec<bool>> = sent
        .iter()
        .map(|(seq, data)| codec.encode_frame(*seq, data))
        .collect();
    let round = build_round_with_frames(&mut rng, 641, &frames);

    // Chunked serial path under a randomized schedule.
    let schedule: Vec<usize> = (0..48).map(|_| rng.gen_range(1..=2048usize)).collect();
    let packets = stream_decode(&round, &schedule);
    assert_equivalent(&round, &packets, "coded chunked stream");

    // Threaded pipeline: worker count must not perturb a single bit.
    for workers in [1usize, 2, 4] {
        let cfg = GatewayConfig {
            chunk_samples: 709,
            ring_slots: 4,
            workers,
            ..GatewayConfig::new(
                PhyProfile::default(),
                round.bins.clone(),
                round.payload_bits,
            )
        };
        let mut source = ReplaySource::from_samples(round.stream.clone(), 500e3);
        let report = run_stream(&mut source, &cfg).expect("pipeline runs");
        assert_equivalent(
            &round,
            &report.packets,
            &format!("coded pipeline with {workers} workers"),
        );
    }

    // The link layer rides on top of the identical bits: every device's
    // decoded payload is a CRC-clean frame with the sent seq and data.
    let decoded = &packets[0].round;
    for ((seq, data), &bin) in sent.iter().zip(&round.bins) {
        let bits = decoded.bits_for(bin).expect("device decoded");
        let out = codec.decode_frame(bits);
        assert!(out.crc_ok, "bin {bin}: frame CRC failed");
        assert_eq!(out.seq, *seq, "bin {bin}: wrong frame sequence number");
        assert_eq!(&out.data, data, "bin {bin}: frame data diverged");
    }
}

#[test]
fn back_to_back_rounds_each_match_their_batch_decode() {
    // Two rounds in one stream, the second beginning right after the
    // first's recharge-scale gap; each must match its own batch reference.
    let mut rng = StdRng::seed_from_u64(5);
    let first = build_round(&mut rng, 3, 400, 8);
    let second = build_round(&mut rng, 3, 200, 8);
    let mut stream = first.stream.clone();
    let second_offset = stream.len() + second.offset;
    stream.extend(second.stream.iter().copied());
    let combined = Round {
        stream,
        offset: first.offset,
        bins: first.bins.clone(),
        payload_bits: 8,
    };
    let schedule: Vec<usize> = (0..48).map(|_| rng.gen_range(1..=2048usize)).collect();
    let packets = stream_decode(&combined, &schedule);
    assert_eq!(packets.len(), 2, "both rounds found");
    assert_eq!(packets[0].start_sample, first.offset as u64);
    assert_eq!(packets[1].start_sample, second_offset as u64);
    assert_eq!(packets[0].round, batch_decode(&first));
    // The second round's batch reference decodes from the combined buffer
    // at its absolute offset (same bins by construction).
    let rx = ConcurrentReceiver::new(&PhyProfile::default()).unwrap();
    let batch_second = rx
        .decode_round(&combined.stream, second_offset, &second.bins, 8)
        .unwrap();
    assert_eq!(packets[1].round, batch_second);
}
