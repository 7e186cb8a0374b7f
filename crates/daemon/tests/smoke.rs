//! End-to-end daemon smoke: concurrent TCP ingest must reproduce the
//! batch pipeline bit for bit, metrics must report every stream, and
//! shutdown must be graceful mid-stream.

use netscatter::json::Json;
use netscatter_coding::frame::FrameCodec;
use netscatter_coding::CodingScheme;
use netscatter_daemon::client::{self, Pace};
use netscatter_daemon::protocol::{self, StreamHeader};
use netscatter_daemon::registry::Counter;
use netscatter_daemon::{Daemon, DaemonConfig};
use netscatter_dsp::Complex64;
use netscatter_gateway::{GatewayConfig, StreamGateway};
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

/// The batch pipeline's frame records for `samples` under `name` — the
/// reference the daemon's NDJSON must match byte for byte.
fn batch_frames(name: &str, samples: &[Complex64]) -> Vec<String> {
    let cfg = gateway_config();
    let mut gw = StreamGateway::new(&cfg).unwrap();
    let mut frames = Vec::new();
    for chunk in samples.chunks(cfg.chunk_samples) {
        for packet in gw.feed(chunk).unwrap() {
            frames.push(protocol::frame_json(name, &packet, None).to_string_line());
        }
    }
    assert_eq!(gw.finish(), 0, "reference stream must not truncate");
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

fn coded_stream_case(scheme: CodingScheme, payload_bits: usize) {
    let codec = FrameCodec::new(scheme, payload_bits).unwrap();
    let data: Vec<bool> = BITS.to_vec();
    let coded = codec.encode_frame(5, &data);

    // Three clean packets from the bin-64 device, each carrying the frame.
    let params = PhyProfile::default().modulation.chirp();
    let mut pkt = PreambleBuilder::new(params, BINS[0]).build(0.0, 0.0, 1.0);
    pkt.extend(OnOffModulator::new(params, BINS[0]).modulate_payload(&coded, 0.0, 0.0, 1.0));
    let mut stream = Vec::new();
    for i in 0..3 {
        stream.extend(vec![Complex64::ZERO; 500 + 211 * i]);
        stream.extend(&pkt);
    }
    stream.extend(vec![Complex64::ZERO; 300]);
    let samples = protocol::quantize_cf32(&stream);

    let base = GatewayConfig {
        chunk_samples: 2048,
        workers: 2,
        ring_slots: 256,
        ..GatewayConfig::new(PhyProfile::default(), BINS.to_vec(), coded.len())
    };
    let daemon = Daemon::start(DaemonConfig::new(base)).unwrap();
    let mut header = header_for("coded");
    header.payload_bits = Some(coded.len());
    header.coding = Some(scheme);
    let lines =
        client::stream_samples(daemon.ingest_addr(), &header, &samples, Pace::RealTime).unwrap();

    // Every frame record carries the per-device CRC verdict and the
    // recovered data bits.
    let frames = lines_of_type(&lines, "frame");
    assert_eq!(
        frames.len(),
        3,
        "all three {scheme:?} packets decode: {lines:?}"
    );
    for line in &frames {
        let doc = Json::parse(line).unwrap();
        let devices = doc.get("devices").and_then(Json::as_array).unwrap();
        assert_eq!(devices.len(), 1);
        assert_eq!(devices[0].get("crc_ok"), Some(&Json::Bool(true)));
        assert_eq!(devices[0].get("seq").and_then(Json::as_u64), Some(5));
        assert_eq!(
            devices[0].get("data").and_then(Json::as_str),
            Some(protocol::bits_string(&data).as_str())
        );
    }

    // The end record and metrics carry the link-layer counters; the line
    // itself is pinned key for key (only the two measured rates vary).
    let end_line = lines_of_type(&lines, "end")[0];
    let (counters, rates) = end_line.split_once("\"samples_per_sec\":").unwrap();
    assert_eq!(
        counters,
        format!(
            "{{\"type\":\"end\",\"stream\":\"coded\",\"code\":\"eof\",\"complete\":true,\
             \"frames\":3,\"rounds\":3,\"false_alarms\":0,\"frames_ok\":3,\"frames_failed_crc\":0,\
             \"samples_in\":{},\"truncated\":0,\"trailing_bytes\":0,\"ring_dropped\":0,",
            samples.len()
        )
    );
    let (sps, rtf) = rates.split_once(",\"real_time_factor\":").unwrap();
    let rtf = rtf.strip_suffix('}').unwrap();
    assert!(sps.parse::<f64>().unwrap() > 0.0 && rtf.parse::<f64>().unwrap() > 0.0);
    let end = Json::parse(end_line).unwrap();
    assert_eq!(end.get("frames_ok").and_then(Json::as_u64), Some(3));
    assert_eq!(end.get("frames_failed_crc").and_then(Json::as_u64), Some(0));
    let doc = client::fetch_metrics(daemon.metrics_addr().unwrap()).unwrap();
    assert!(doc.contains("netscatterd_stream_frames_ok{stream=\"coded\"} 3"));
    assert!(doc.contains("netscatterd_stream_frames_failed_crc{stream=\"coded\"} 0"));
    assert!(doc.contains("netscatterd_frames_ok_total 3"));

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
