//! End-to-end daemon smoke: concurrent TCP ingest must reproduce the
//! serial `Session` bit for bit, the session's lines must not depend on
//! how its bytes were cut, metrics must report every stream, and shutdown
//! must be graceful mid-stream.

use netscatter::json::Json;
use netscatter_coding::frame::FrameCodec;
use netscatter_coding::CodingScheme;
use netscatter_daemon::client::{self, Pace};
use netscatter_daemon::protocol::{self, StreamHeader};
use netscatter_daemon::registry::Counter;
use netscatter_daemon::session::{Session, SessionEnd};
use netscatter_daemon::{Daemon, DaemonConfig};
use netscatter_dsp::Complex64;
use netscatter_gateway::{DecodedPacket, GatewayConfig, StreamDetector};
use netscatter_phy::distributed::OnOffModulator;
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::PreambleBuilder;
use std::io::Write;
use std::time::{Duration, Instant};

const RATE: f64 = 500e3;
const BINS: [usize; 2] = [64, 192];
const BITS: [bool; 8] = [true, false, true, true, false, false, true, true];

/// A noise-free stream of `count` ideal packets from the bin-64 device,
/// quantized through the wire's f32 precision — exactly what the daemon's
/// cf32 decode will hand its engine.
fn wire_stream(count: usize) -> Vec<Complex64> {
    let params = PhyProfile::default().modulation.chirp();
    let mut pkt = PreambleBuilder::new(params, BINS[0]).build(0.0, 0.0, 1.0);
    pkt.extend(OnOffModulator::new(params, BINS[0]).modulate_payload(&BITS, 0.0, 0.0, 1.0));
    let mut stream = Vec::new();
    for i in 0..count {
        stream.extend(vec![Complex64::ZERO; 500 + 211 * i]);
        stream.extend(&pkt);
    }
    stream.extend(vec![Complex64::ZERO; 300]);
    protocol::quantize_cf32(&stream)
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        chunk_samples: 2048,
        workers: 2,
        // Large enough that every chunk of the longest test stream fits the
        // ring at once: bit-identity must hold even when an unoptimized test
        // build decodes slower than the paced 500 ksps ingest, and drop-oldest
        // can only stay silent if the ring never fills.
        ring_slots: 256,
        ..GatewayConfig::new(PhyProfile::default(), BINS.to_vec(), BITS.len())
    }
}

/// The frame lines a serial [`Session`] writes for `samples` under the
/// daemon's own merge of `header` over `base` — the reference the daemon's
/// NDJSON must match byte for byte — and how the session's stream ended.
fn session_frames(
    header: &StreamHeader,
    base: &GatewayConfig,
    samples: &[Complex64],
) -> (Vec<String>, SessionEnd) {
    let (cfg, codec) = protocol::stream_config(header, base).unwrap();
    let mut session = Session::new(&header.name, &cfg, codec).unwrap();
    let mut lines = String::new();
    session
        .push(&protocol::encode_cf32le(samples), &mut lines)
        .unwrap();
    let end = session.finish();
    (lines.lines().map(String::from).collect(), end)
}

/// [`session_frames`] for the fixture geometry, on a stream that ends clean.
fn batch_frames(name: &str, samples: &[Complex64]) -> Vec<String> {
    let (frames, end) = session_frames(&header_for(name), &gateway_config(), samples);
    assert_eq!(end.truncated, 0, "reference stream must not truncate");
    frames
}

fn header_for(name: &str) -> StreamHeader {
    StreamHeader {
        name: name.to_string(),
        sample_rate_hz: Some(RATE),
        bins: Some(BINS.to_vec()),
        payload_bits: Some(BITS.len()),
        detection_floor: None,
        channel: None,
        coding: None,
        fault_panic_span: None,
    }
}

fn lines_of_type<'a>(lines: &'a [String], kind: &str) -> Vec<&'a String> {
    lines
        .iter()
        .filter(|l| {
            Json::parse(l)
                .ok()
                .and_then(|d| d.get("type").and_then(Json::as_str).map(String::from))
                .as_deref()
                == Some(kind)
        })
        .collect()
}

#[test]
fn four_concurrent_tcp_streams_decode_bit_identically_to_batch() {
    let daemon = Daemon::start(DaemonConfig::new(gateway_config())).unwrap();
    let ingest = daemon.ingest_addr();

    // Four different stream lengths so the connections genuinely overlap
    // and finish out of lockstep.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let name = format!("s{i}");
                let samples = wire_stream(3 + i);
                // Two streams per RF channel, so the metrics rollup has
                // something to aggregate on each shard.
                let mut header = header_for(&name);
                header.channel = Some(i % 2);
                let lines =
                    client::stream_samples(ingest, &header, &samples, Pace::RealTime).unwrap();
                (name, samples, lines)
            })
        })
        .collect();

    for h in handles {
        let (name, samples, lines) = h.join().unwrap();
        let expected = batch_frames(&name, &samples);
        assert!(!expected.is_empty(), "{name}: reference decoded nothing");
        let frames: Vec<String> = lines_of_type(&lines, "frame")
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(frames, expected, "{name}: daemon frames differ from batch");

        let ends = lines_of_type(&lines, "end");
        assert_eq!(ends.len(), 1, "{name}: exactly one end record");
        let end = Json::parse(ends[0]).unwrap();
        assert_eq!(end.get("complete"), Some(&Json::Bool(true)));
        assert_eq!(
            end.get("frames").and_then(Json::as_u64),
            Some(expected.len() as u64)
        );
        assert_eq!(end.get("ring_dropped").and_then(Json::as_u64), Some(0));
        assert_eq!(
            end.get("samples_in").and_then(Json::as_u64),
            Some(samples.len() as u64)
        );
    }

    // Metrics: every stream present with a positive throughput, schema
    // `name value` / `name{stream="…"} value` throughout.
    let doc = client::fetch_metrics(daemon.metrics_addr().unwrap()).unwrap();
    assert!(doc.starts_with(netscatter_daemon::metrics::METRICS_HEADER));
    assert!(doc.contains("netscatterd_streams_total 4"));
    assert!(doc.contains("netscatterd_ring_dropped_total 0"));
    for i in 0..4 {
        let line = doc
            .lines()
            .find(|l| {
                l.starts_with(&format!(
                    "netscatterd_stream_msamples_per_sec{{stream=\"s{i}\"}} "
                ))
            })
            .unwrap_or_else(|| panic!("metrics lack stream s{i}:\n{doc}"));
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value > 0.0, "s{i} throughput not positive: {line}");
        assert!(
            doc.contains(&format!(
                "netscatterd_stream_channel{{stream=\"s{i}\"}} {}",
                i % 2
            )),
            "metrics lack s{i}'s channel tag:\n{doc}"
        );
    }
    // The header-carried channel tags roll up per shard and in aggregate.
    assert!(doc.contains("netscatterd_channels_total 2"));
    for channel in 0..2 {
        let prefix = format!("netscatterd_channel_msamples_per_sec{{channel=\"{channel}\"}} ");
        let line = doc
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("metrics lack channel {channel}:\n{doc}"));
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value > 0.0, "channel {channel} rate not positive: {line}");
        assert!(doc.contains(&format!(
            "netscatterd_channel_streams{{channel=\"{channel}\"}} 2"
        )));
    }
    let aggregate = doc
        .lines()
        .find(|l| l.starts_with("netscatterd_aggregate_msamples_per_sec "))
        .unwrap_or_else(|| panic!("metrics lack the aggregate rate:\n{doc}"));
    let value: f64 = aggregate.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(value > 0.0, "aggregate rate not positive: {aggregate}");
    for line in doc.lines().skip(1) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable metrics line {line:?}"
        );
    }

    daemon.shutdown();
}

#[test]
fn replayed_cf32_file_over_tcp_matches_batch() {
    let samples = wire_stream(4);
    let path = std::env::temp_dir().join("netscatterd_smoke_replay.cf32");
    {
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&protocol::encode_cf32le(&samples)).unwrap();
    }
    let daemon = Daemon::start(DaemonConfig::new(gateway_config())).unwrap();
    let lines = client::stream_file(
        daemon.ingest_addr(),
        &header_for("replay"),
        &path,
        Pace::RealTime,
    )
    .unwrap();
    let _ = std::fs::remove_file(&path);

    let frames: Vec<String> = lines_of_type(&lines, "frame")
        .into_iter()
        .cloned()
        .collect();
    assert_eq!(frames, batch_frames("replay", &samples));
    daemon.shutdown();
}

/// The header grammar admits any non-empty stream name, so the daemon's
/// frame writer must escape it exactly as the tree does.
#[test]
fn a_stream_name_that_needs_escaping_frames_byte_identically() {
    let name = "door \"ap\" \\ \t\u{1}\u{7f} é€😀";
    let daemon = Daemon::start(DaemonConfig::new(gateway_config())).unwrap();
    let samples = wire_stream(2);
    let lines = client::stream_samples(
        daemon.ingest_addr(),
        &header_for(name),
        &samples,
        Pace::RealTime,
    )
    .unwrap();
    let ready = Json::parse(lines_of_type(&lines, "ready")[0]).unwrap();
    assert_eq!(ready.get("stream").and_then(Json::as_str), Some(name));
    let frames: Vec<String> = lines_of_type(&lines, "frame")
        .into_iter()
        .cloned()
        .collect();
    let expected = batch_frames(name, &samples);
    assert_eq!(expected.len(), 2, "both packets decode");
    assert_eq!(frames, expected);
    daemon.shutdown();
}

#[test]
fn header_defaults_fall_back_to_the_daemon_config() {
    // A bare `{"stream":"x"}` header decodes with the daemon's --bins and
    // --payload-bits defaults.
    let daemon = Daemon::start(DaemonConfig::new(gateway_config())).unwrap();
    let samples = wire_stream(2);
    let lines = client::stream_samples(
        daemon.ingest_addr(),
        &StreamHeader::named("bare"),
        &samples,
        Pace::RealTime,
    )
    .unwrap();
    let frames: Vec<String> = lines_of_type(&lines, "frame")
        .into_iter()
        .cloned()
        .collect();
    assert_eq!(frames, batch_frames("bare", &samples));
    daemon.shutdown();
}

#[test]
fn shutdown_mid_stream_writes_an_incomplete_end_record() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    let daemon = Daemon::start(DaemonConfig::new(gateway_config())).unwrap();
    let mut sock = TcpStream::connect(daemon.ingest_addr()).unwrap();
    let mut header = header_for("cut").to_json_line();
    header.push('\n');
    sock.write_all(header.as_bytes()).unwrap();
    // One full packet's worth of samples, then the client goes quiet
    // without closing — only a daemon shutdown can end this stream.
    let samples = wire_stream(1);
    sock.write_all(&protocol::encode_cf32le(&samples)).unwrap();

    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ready\""),
        "expected ready record, got {line}"
    );

    daemon.shutdown(); // joins the serving thread: the end record is already written
    let mut lines = Vec::new();
    for l in reader.lines() {
        lines.push(l.unwrap());
    }
    let ends = lines_of_type(&lines, "end");
    assert_eq!(ends.len(), 1, "graceful shutdown must write an end record");
    let end = Json::parse(ends[0]).unwrap();
    assert_eq!(end.get("complete"), Some(&Json::Bool(false)));
    // The one fully-fed packet was decoded, not lost, on the way down.
    assert_eq!(lines_of_type(&lines, "frame").len(), 1);
}

/// Waits up to 1 s for stream `name`'s live `samples_in` counter to read
/// `want`, failing with the last value seen.
fn wait_for_samples_in(daemon: &Daemon, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let seen = daemon
            .registry()
            .snapshot()
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.counters[Counter::SamplesIn]);
        if seen == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{name}: samples_in reads {seen} after 1 s, want {want}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn an_idle_detector_gets_each_read_without_waiting_for_a_chunk_to_fill() {
    use std::io::{BufRead, BufReader};
    use std::net::{Shutdown, TcpStream};

    // 4096-sample chunks fed by 2048-sample writes: a reader that only
    // feeds whole chunks holds every other write back until the next one.
    let cfg = GatewayConfig {
        chunk_samples: 4096,
        ..gateway_config()
    };
    let daemon = Daemon::start(DaemonConfig::new(cfg)).unwrap();
    let mut sock = TcpStream::connect(daemon.ingest_addr()).unwrap();
    let mut header = header_for("early").to_json_line();
    header.push('\n');
    sock.write_all(header.as_bytes()).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ready\""), "expected ready, got {line}");

    let samples = wire_stream(2);
    let bytes = protocol::encode_cf32le(&samples);
    let at = |sample: usize| sample * protocol::SAMPLE_BYTES;
    for piece in bytes[..at(3 * 2048)].chunks(at(2048)) {
        sock.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    // Then a pause: all three pieces reach the engine without a fourth.
    wait_for_samples_in(&daemon, "early", 3 * 2048);
    // A short piece after the pause goes too, on its own.
    sock.write_all(&bytes[at(3 * 2048)..at(3 * 2048 + 100)])
        .unwrap();
    wait_for_samples_in(&daemon, "early", 3 * 2048 + 100);

    sock.write_all(&bytes[at(3 * 2048 + 100)..]).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    let lines: Vec<String> = reader.lines().map(Result::unwrap).collect();
    let frames: Vec<String> = lines_of_type(&lines, "frame")
        .into_iter()
        .cloned()
        .collect();
    let expected = batch_frames("early", &samples);
    assert_eq!(expected.len(), 2, "both packets decode");
    assert_eq!(frames, expected, "however the reads were cut");
    let end = Json::parse(lines_of_type(&lines, "end")[0]).unwrap();
    assert_eq!(end.get("ring_dropped").and_then(Json::as_u64), Some(0));
    assert_eq!(
        end.get("samples_in").and_then(Json::as_u64),
        Some(samples.len() as u64)
    );
    daemon.shutdown();
}

#[test]
fn coded_stream_reports_crc_verdicts_and_link_counters() {
    // Hamming(7,4) at 70 on-air bits carries 8 data bits per frame; the
    // K=7 convolutional code at 108 carries 16, half of them padding.
    coded_stream_case(CodingScheme::Hamming, 70);
    coded_stream_case(CodingScheme::Conv, 108);
}

/// Three packets from the bin-64 device, each carrying `codec`'s frame of
/// [`BITS`] (sequence 5), quantized through the wire's f32 precision: the
/// first clean, the second with one on-air bit flipped (the code corrects
/// it), the third with the first half of its on-air bits flipped (it
/// cannot).
fn coded_stream(codec: &FrameCodec) -> Vec<Complex64> {
    let coded = codec.encode_frame(5, &BITS);
    let params = PhyProfile::default().modulation.chirp();
    let mut stream = Vec::new();
    for (i, flips) in [0, 1, coded.len() / 2].into_iter().enumerate() {
        let mut air = coded.clone();
        air[..flips].iter_mut().for_each(|bit| *bit = !*bit);
        stream.extend(vec![Complex64::ZERO; 500 + 211 * i]);
        stream.extend(PreambleBuilder::new(params, BINS[0]).build(0.0, 0.0, 1.0));
        stream.extend(OnOffModulator::new(params, BINS[0]).modulate_payload(&air, 0.0, 0.0, 1.0));
    }
    stream.extend(vec![Complex64::ZERO; 300]);
    protocol::quantize_cf32(&stream)
}

/// The header of a `scheme`-coded stream at `payload_bits`.
fn coded_header(name: &str, scheme: CodingScheme, payload_bits: usize) -> StreamHeader {
    StreamHeader {
        payload_bits: Some(payload_bits),
        coding: Some(scheme),
        ..header_for(name)
    }
}

fn coded_stream_case(scheme: CodingScheme, payload_bits: usize) {
    let codec = FrameCodec::new(scheme, payload_bits).unwrap();
    let samples = coded_stream(&codec);
    let base = GatewayConfig {
        payload_symbols: payload_bits,
        ..gateway_config()
    };
    let daemon = Daemon::start(DaemonConfig::new(base.clone())).unwrap();
    let header = coded_header("coded", scheme, payload_bits);
    let lines =
        client::stream_samples(daemon.ingest_addr(), &header, &samples, Pace::RealTime).unwrap();

    // The daemon's coded lines are the serial session's, byte for byte.
    let frames: Vec<String> = lines_of_type(&lines, "frame")
        .into_iter()
        .cloned()
        .collect();
    assert_eq!(
        frames,
        session_frames(&header, &base, &samples).0,
        "{scheme:?}"
    );
    // Every record carries the per-device CRC verdict: the clean frame and
    // the corrected one verify and recover the data, the third fails.
    let verdicts: Vec<(bool, u64)> = frames
        .iter()
        .map(|line| {
            let doc = Json::parse(line).unwrap();
            let devices = doc.get("devices").and_then(Json::as_array).unwrap();
            assert_eq!(devices.len(), 1, "{line}");
            let device = &devices[0];
            let crc_ok = device.get("crc_ok") == Some(&Json::Bool(true));
            if crc_ok {
                assert_eq!(device.get("seq").and_then(Json::as_u64), Some(5));
                assert_eq!(
                    device.get("data").and_then(Json::as_str),
                    Some(protocol::bits_string(&BITS).as_str())
                );
            }
            (
                crc_ok,
                device.get("corrected").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect();
    assert!(
        matches!(verdicts[..], [(true, 0), (true, fixed), (false, _)] if fixed > 0),
        "{scheme:?}: {verdicts:?}"
    );
    let ok = verdicts.iter().filter(|(crc_ok, _)| *crc_ok).count();
    let failed = verdicts.len() - ok;

    // The end record and metrics count those verdicts; the line itself is
    // pinned key for key (only the two measured rates vary).
    let end_line = lines_of_type(&lines, "end")[0];
    let (counters, rates) = end_line.split_once("\"samples_per_sec\":").unwrap();
    assert_eq!(
        counters,
        format!(
            "{{\"type\":\"end\",\"stream\":\"coded\",\"code\":\"eof\",\"complete\":true,\
             \"frames\":3,\"rounds\":3,\"false_alarms\":0,\"frames_ok\":{ok},\"frames_failed_crc\":{failed},\
             \"samples_in\":{},\"truncated\":0,\"trailing_bytes\":0,\"ring_dropped\":0,",
            samples.len()
        )
    );
    let (sps, rtf) = rates.split_once(",\"real_time_factor\":").unwrap();
    let rtf = rtf.strip_suffix('}').unwrap();
    assert!(sps.parse::<f64>().unwrap() > 0.0 && rtf.parse::<f64>().unwrap() > 0.0);
    let doc = client::fetch_metrics(daemon.metrics_addr().unwrap()).unwrap();
    assert!(doc.contains(&format!(
        "netscatterd_stream_frames_ok{{stream=\"coded\"}} {ok}"
    )));
    assert!(doc.contains(&format!(
        "netscatterd_stream_frames_failed_crc{{stream=\"coded\"}} {failed}"
    )));
    assert!(doc.contains(&format!("netscatterd_frames_ok_total {ok}")));

    // A coded header whose payload bits fit no frame geometry is rejected
    // up front as a bad header.
    let mut bad = header_for("badgeom");
    bad.coding = Some(scheme); // payload_bits stays 8
    let lines = client::stream_bytes(daemon.ingest_addr(), &bad, b"", Pace::Unlimited).unwrap();
    let errors = lines_of_type(&lines, "error");
    assert_eq!(errors.len(), 1, "geometry mismatch must error: {lines:?}");
    let err = Json::parse(errors[0]).unwrap();
    assert_eq!(err.get("code").and_then(Json::as_str), Some("bad_header"));
    daemon.shutdown();
}

#[test]
fn malformed_headers_get_an_error_record() {
    let daemon = Daemon::start(DaemonConfig::new(gateway_config())).unwrap();
    let lines = client::stream_bytes(
        daemon.ingest_addr(),
        &StreamHeader::named("x"),
        b"not samples",
        Pace::Unlimited,
    )
    .unwrap();
    // Valid header, 11 stray bytes: one incomplete sample, zero frames.
    assert_eq!(lines_of_type(&lines, "frame").len(), 0);
    assert_eq!(lines_of_type(&lines, "end").len(), 1);

    use std::io::{BufRead, BufReader};
    use std::net::{Shutdown, TcpStream};
    let mut sock = TcpStream::connect(daemon.ingest_addr()).unwrap();
    sock.write_all(b"this is not json\n").unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    let lines: Vec<String> = BufReader::new(sock).lines().map(|l| l.unwrap()).collect();
    let errors = lines_of_type(&lines, "error");
    assert_eq!(errors.len(), 1, "bad header must produce an error record");
    daemon.shutdown();
}

/// The tree reference for a session's lines, assembled here from the
/// pieces: the detector over the whole stream, `decode_round` on each
/// span, `decode_frame` per device, and `frame_json`'s printed tree.
fn tree_frames(header: &StreamHeader, base: &GatewayConfig, samples: &[Complex64]) -> Vec<String> {
    let (cfg, codec) = protocol::stream_config(header, base).unwrap();
    let mut detector = StreamDetector::new(&cfg).unwrap();
    let mut spans = Vec::new();
    detector.push(samples, &mut spans);
    spans
        .iter()
        .map(|span| {
            let packet = DecodedPacket {
                index: span.index,
                start_sample: span.start_sample,
                round: detector
                    .receiver()
                    .decode_round(&span.samples, 0, &cfg.assigned_bins, cfg.payload_symbols)
                    .unwrap(),
            };
            let outcomes = codec.as_ref().map(|c| {
                let devices = packet.round.devices.iter();
                devices.map(|d| c.decode_frame(&d.bits)).collect::<Vec<_>>()
            });
            protocol::frame_json(&header.name, &packet, outcomes.as_deref()).to_string_line()
        })
        .collect()
}

/// A seeded read-size schedule: 1 B to 64 KiB, spread over every scale,
/// and never a whole number of samples.
fn read_sizes(seed: u64) -> impl Iterator<Item = usize> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    std::iter::repeat_with(move || {
        let scale: u32 = rng.gen_range(0..=16);
        let size = rng.gen_range(1..=1usize << scale);
        size - usize::from(size % protocol::SAMPLE_BYTES == 0)
    })
}

/// A session's lines are one whole-buffer push's under every read-size
/// schedule, and the tree reference's; a stream cut mid-packet and
/// mid-sample ends with the daemon's own `truncated` and `trailing_bytes`.
#[test]
fn session_lines_do_not_depend_on_how_the_bytes_are_cut() {
    let base = gateway_config();
    let smoke = wire_stream(3);
    let conv = coded_stream(&FrameCodec::new(CodingScheme::Conv, 108).unwrap());
    // The last packet loses its final 2 000 samples, and the last sample
    // kept loses its final three bytes.
    let cut = wire_stream(2);
    let kept = cut.len() - 300 - 2000;
    let cut_bytes = protocol::encode_cf32le(&cut[..kept]);
    let cut_bytes = &cut_bytes[..cut_bytes.len() - 3];
    let cases = [
        (
            header_for("smoke"),
            protocol::encode_cf32le(&smoke),
            &smoke[..],
        ),
        (
            coded_header("conv", CodingScheme::Conv, 108),
            protocol::encode_cf32le(&conv),
            &conv[..],
        ),
        (header_for("cut"), cut_bytes.to_vec(), &cut[..kept - 1]),
    ];
    let daemon = Daemon::start(DaemonConfig::new(base.clone())).unwrap();
    let mut ends = Vec::new();
    for (header, bytes, samples) in &cases {
        let name = &header.name;
        let (cfg, codec) = protocol::stream_config(header, &base).unwrap();
        let mut whole = String::new();
        let mut session = Session::new(name, &cfg, codec).unwrap();
        session.push(bytes, &mut whole).unwrap();
        let end = session.finish();
        let lines: Vec<String> = whole.lines().map(String::from).collect();
        assert!(!lines.is_empty(), "{name}: nothing decoded");
        assert_eq!(lines, tree_frames(header, &base, samples), "{name}");

        for seed in 0..8 {
            let mut split = String::new();
            let (cfg, codec) = protocol::stream_config(header, &base).unwrap();
            let mut session = Session::new(name, &cfg, codec).unwrap();
            let mut rest = &bytes[..];
            for size in read_sizes(seed) {
                let (piece, tail) = rest.split_at(size.min(rest.len()));
                session.push(piece, &mut split).unwrap();
                rest = tail;
                if rest.is_empty() {
                    break;
                }
            }
            assert_eq!(split, whole, "{name}, schedule {seed}");
            assert_eq!(session.finish(), end, "{name}, schedule {seed}");
        }

        let served =
            client::stream_bytes(daemon.ingest_addr(), header, bytes, Pace::Unlimited).unwrap();
        let end_record = Json::parse(lines_of_type(&served, "end")[0]).unwrap();
        let count = |key| end_record.get(key).and_then(Json::as_u64).unwrap() as usize;
        let served_end = SessionEnd {
            truncated: count("truncated"),
            trailing_bytes: count("trailing_bytes"),
        };
        assert_eq!(served_end, end, "{name}");
        ends.push(end);
    }
    assert_eq!(
        ends[2],
        SessionEnd {
            truncated: 1,
            trailing_bytes: protocol::SAMPLE_BYTES - 3
        },
        "the cut stream ends mid-packet and mid-sample"
    );
    daemon.shutdown();
}
