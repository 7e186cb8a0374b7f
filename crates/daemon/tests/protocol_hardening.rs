//! Protocol hardening: the wire-facing parsers must survive anything a
//! misbehaving client can put on the socket.
//!
//! Property-style coverage for [`StreamHeader::parse`] — garbage bytes,
//! truncated prefixes, duplicate keys, oversized-but-well-formed documents —
//! and for [`Cf32Decoder`] — a split at every byte offset modulo the sample
//! size, with a dangling partial sample counted (not silently dropped).
//! Two cases need the daemon itself: a well-formed header whose bins exceed
//! the profile's `2^SF` is only rejectable where the profile is known, and
//! a header whose `payload_bits` is past the cap must not take the daemon
//! down.

use netscatter_daemon::protocol::{
    code, encode_cf32le, quantize_cf32, Cf32Decoder, StreamHeader, SAMPLE_BYTES,
};
use netscatter_daemon::registry::HealthCounter;
use netscatter_daemon::{Daemon, DaemonConfig};
use netscatter_dsp::Complex64;
use netscatter_gateway::GatewayConfig;
use netscatter_phy::distributed::OnOffModulator;
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::PreambleBuilder;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// A header exercising every optional field, so truncation cuts through
/// all of the parse paths.
fn full_header() -> StreamHeader {
    StreamHeader {
        name: "hardening".to_string(),
        sample_rate_hz: Some(250e3),
        bins: Some(vec![16, 64, 192]),
        payload_bits: Some(16),
        detection_floor: Some(1e-6),
        channel: Some(1),
        coding: Some(netscatter_coding::CodingScheme::Rs),
        fault_panic_span: Some(3),
    }
}

/// Sixteen deterministic non-trivial samples for decoder split tests.
fn sample_fixture() -> Vec<Complex64> {
    (0..16)
        .map(|i| Complex64::new(f64::from(i) * 0.25 - 2.0, 1.0 - f64::from(i) * 0.125))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes on the header line must produce `Err`, never a panic.
    #[test]
    fn garbage_headers_error_gracefully(bytes in prop::collection::vec(0u8..=255u8, 0..512)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = StreamHeader::parse(&line);
    }

    /// Every strict prefix of a valid header is an unterminated JSON
    /// document — it must be rejected, never misparsed into a header with
    /// silently missing fields.
    #[test]
    fn truncated_headers_are_rejected(cut in 0usize..200) {
        let line = full_header().to_json_line();
        prop_assume!(cut < line.len());
        prop_assert!(StreamHeader::parse(&line[..cut]).is_err());
    }

    /// Splitting the byte stream at EVERY offset — aligned or mid-sample —
    /// must decode to exactly the unsplit result, with the carry invariant
    /// `pending_bytes == fed % SAMPLE_BYTES` after any prefix.
    #[test]
    fn decoder_split_is_invariant_at_every_offset(split in 0usize..(16 * SAMPLE_BYTES)) {
        let bytes = encode_cf32le(&sample_fixture());
        let split = split.min(bytes.len());
        let mut whole = Vec::new();
        Cf32Decoder::new().push(&bytes, &mut whole);
        let mut decoder = Cf32Decoder::new();
        let mut out = Vec::new();
        decoder.push(&bytes[..split], &mut out);
        prop_assert_eq!(decoder.pending_bytes(), split % SAMPLE_BYTES);
        decoder.push(&bytes[split..], &mut out);
        prop_assert_eq!(decoder.pending_bytes(), 0);
        prop_assert_eq!(out, whole);
    }

    /// Random ragged piece sizes (1..=17 bytes, so runs of several pieces
    /// per sample and pieces spanning samples both occur) reassemble
    /// byte-exactly regardless of how the wire fragmented them.
    #[test]
    fn decoder_reassembles_ragged_pieces(sizes in prop::collection::vec(1usize..=17, 1..64)) {
        let bytes = encode_cf32le(&sample_fixture());
        let mut whole = Vec::new();
        Cf32Decoder::new().push(&bytes, &mut whole);
        let mut decoder = Cf32Decoder::new();
        let mut out = Vec::new();
        let mut cursor = 0;
        for n in sizes {
            if cursor >= bytes.len() {
                break;
            }
            let end = (cursor + n).min(bytes.len());
            decoder.push(&bytes[cursor..end], &mut out);
            prop_assert_eq!(decoder.pending_bytes(), end % SAMPLE_BYTES);
            cursor = end;
        }
        decoder.push(&bytes[cursor..], &mut out);
        prop_assert_eq!(decoder.pending_bytes(), 0);
        prop_assert_eq!(out, whole);
    }
}

/// The exhaustive version of the split property: every `(split, tail)`
/// boundary for a short stream, including a truncated upload whose dangling
/// partial sample must stay visible in `pending_bytes` — the count the
/// daemon reports as `trailing_bytes` in its end record.
#[test]
fn dangling_partial_samples_are_counted_not_dropped() {
    let samples = sample_fixture();
    let bytes = encode_cf32le(&samples);
    for cut in 0..bytes.len() {
        let mut decoder = Cf32Decoder::new();
        let mut out = Vec::new();
        decoder.push(&bytes[..cut], &mut out);
        assert_eq!(out.len(), cut / SAMPLE_BYTES, "cut at {cut}");
        assert_eq!(decoder.pending_bytes(), cut % SAMPLE_BYTES, "cut at {cut}");
        // The decoded prefix is bit-exact, not resynchronized junk.
        assert_eq!(out, samples[..cut / SAMPLE_BYTES], "cut at {cut}");
    }
}

/// Duplicate keys must resolve deterministically (same line, same result)
/// and never panic — a client cannot make two daemons disagree about a
/// stream's parameters by repeating fields.
#[test]
fn duplicate_keys_are_deterministic() {
    let line = r#"{"stream":"a","stream":"b","payload_bits":8,"payload_bits":16}"#;
    let first = StreamHeader::parse(line);
    let second = StreamHeader::parse(line);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    if let Ok(header) = first {
        assert!(header.name == "a" || header.name == "b");
        assert!(matches!(header.payload_bits, Some(8) | Some(16)));
    }
}

/// An oversized but well-formed header parses without quadratic blowup or
/// panic; the *read-side* 64 KiB bound (tested in `robustness.rs`) is what
/// protects the daemon, so the parser itself only needs to stay correct.
#[test]
fn oversized_headers_parse_or_error_cleanly() {
    let mut header = full_header();
    header.name = "n".repeat(1 << 17);
    let line = header.to_json_line();
    let parsed = StreamHeader::parse(&line).expect("well-formed header parses");
    assert_eq!(parsed.name.len(), 1 << 17);

    let huge_bins = format!(
        r#"{{"stream":"s","bins":[{}]}}"#,
        (0..4096)
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let parsed = StreamHeader::parse(&huge_bins).expect("large bins array parses");
    assert_eq!(parsed.bins.as_ref().map(Vec::len), Some(4096));
}

/// The targeted rejection cases the chaos matrix relies on: each malformed
/// field yields `Err`, not a fallback default.
#[test]
fn malformed_fields_are_rejected() {
    for bad in [
        r#"{"format":"cf32le"}"#,                      // missing stream name
        r#"{"stream":""}"#,                            // empty stream name
        r#"{"stream":"s","format":"ci16"}"#,           // wrong sample format
        r#"{"stream":"s","sample_rate_hz":0}"#,        // non-positive rate
        r#"{"stream":"s","sample_rate_hz":-5e5}"#,     // negative rate
        r#"{"stream":"s","bins":7}"#,                  // bins not an array
        r#"{"stream":"s","bins":[1,-2]}"#,             // negative bin
        r#"{"stream":"s","payload_bits":0}"#,          // zero payload bits
        r#"{"stream":"s","payload_bits":"eight"}"#,    // non-numeric bits
        r#"{"stream":"s","fault_panic_span":"boom"}"#, // non-numeric span
        "not json at all",
        "",
    ] {
        assert!(StreamHeader::parse(bad).is_err(), "accepted: {bad:?}");
    }
}

/// A header bin at or past `2^SF` indexes outside the detector's spectrum.
/// It must be refused as `bad_header` before an engine exists — not reach
/// the detection thread, where the first gate fire would panic on it — and
/// the daemon must keep serving in-range populations.
#[test]
fn out_of_range_bins_are_refused_before_an_engine_is_spawned() {
    const BIN: usize = 64;
    const BITS: [bool; 8] = [true, false, true, true, false, false, true, true];
    let profile = PhyProfile::default();
    let params = profile.modulation.chirp();
    let num_bins = profile.modulation.num_bins();
    let mut cfg = DaemonConfig::new(GatewayConfig::new(profile, vec![BIN], BITS.len()));
    cfg.metrics = None;
    let daemon = Daemon::start(cfg).unwrap();

    // One ideal packet, so a header that got through would fire the gate.
    let mut stream = vec![Complex64::ZERO; 500];
    stream.extend(PreambleBuilder::new(params, BIN).build(0.0, 0.0, 1.0));
    stream.extend(OnOffModulator::new(params, BIN).modulate_payload(&BITS, 0.0, 0.0, 1.0));
    stream.extend(vec![Complex64::ZERO; 4096]);
    let samples = encode_cf32le(&quantize_cf32(&stream));
    let exchange = |bins: Vec<usize>| -> Vec<String> {
        let mut header = StreamHeader::named("bins");
        header.bins = Some(bins);
        let mut payload = header.to_json_line().into_bytes();
        payload.push(b'\n');
        payload.extend_from_slice(&samples);
        let sock = TcpStream::connect(daemon.ingest_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        // The daemon may close before the samples are through.
        let _ = (&sock).write_all(&payload);
        let _ = sock.shutdown(Shutdown::Write);
        BufReader::new(sock).lines().map_while(Result::ok).collect()
    };

    for bins in [vec![600, 10, 20, 30], vec![600], vec![BIN, num_bins]] {
        let lines = exchange(bins.clone());
        assert_eq!(lines.len(), 1, "{bins:?}: {lines:?}");
        let record = &lines[0];
        assert!(
            record.contains("\"type\":\"error\"") && record.contains(code::BAD_HEADER),
            "{bins:?}: {record}"
        );
        let bad = bins.iter().find(|&&b| b >= num_bins).unwrap();
        assert!(
            record.contains(&format!("bin {bad} ")) && record.contains(&format!("0..{num_bins}")),
            "message must name the bin and the range: {record}"
        );
    }
    assert_eq!(daemon.health().get(HealthCounter::WorkerPanics), 0);

    // The highest valid shift is accepted, and the real population decodes.
    let lines = exchange(vec![BIN, num_bins - 1]);
    assert!(lines[0].contains("\"ready\""), "{lines:?}");
    let frames = lines.iter().filter(|l| l.contains("\"type\":\"frame\""));
    assert_eq!(frames.count(), 1, "{lines:?}");
    assert_eq!(daemon.health().get(HealthCounter::WorkerPanics), 0);
    daemon.shutdown();
}

/// A header line of 60 000 `[` fits the 64 KiB line bound. It must be
/// refused as `bad_header` by the JSON nesting limit, not overflow the
/// serving thread's stack and abort the daemon, and the next connection
/// must be served.
#[test]
fn deeply_nested_headers_are_refused_and_the_daemon_keeps_serving() {
    let profile = PhyProfile::default();
    let mut cfg = DaemonConfig::new(GatewayConfig::new(profile, vec![64], 8));
    cfg.metrics = None;
    let daemon = Daemon::start(cfg).unwrap();
    let exchange = |line: String| -> Vec<String> {
        let sock = TcpStream::connect(daemon.ingest_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let _ = (&sock).write_all(format!("{line}\n").as_bytes());
        let _ = sock.shutdown(Shutdown::Write);
        BufReader::new(sock).lines().map_while(Result::ok).collect()
    };

    let lines = exchange("[".repeat(60_000));
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].contains("\"type\":\"error\"")
            && lines[0].contains(code::BAD_HEADER)
            && lines[0].contains("nesting depth"),
        "{}",
        lines[0]
    );

    let lines = exchange(StreamHeader::named("after").to_json_line());
    assert!(lines[0].contains("\"ready\""), "{lines:?}");
    daemon.shutdown();
}

/// A `payload_bits` past the cap must be refused as `bad_header` before an
/// engine exists. At 2^55 the packet length `(8 + bits) · 512` wraps to a
/// preamble-only 4 096 samples, and a receiver that sized its bit buffers
/// by the header's count asked for 2^55 bytes per device and aborted the
/// whole daemon; 4 000 000 000 made the detector hold every sample for as
/// long as the client sent; 2^64 − 1 saturated and wrapped as well. The
/// next connection must still be served.
#[test]
fn huge_payload_bits_are_refused_and_the_daemon_keeps_serving() {
    const BIN: usize = 64;
    const BITS: [bool; 8] = [true, false, true, true, false, false, true, true];
    let profile = PhyProfile::default();
    let params = profile.modulation.chirp();
    let mut cfg = DaemonConfig::new(GatewayConfig::new(profile, vec![BIN], BITS.len()));
    cfg.metrics = None;
    let daemon = Daemon::start(cfg).unwrap();

    // Two ideal packets, so a header that got through would fire the gate
    // and hand spans to the decoder.
    let mut stream = Vec::new();
    for _ in 0..2 {
        stream.extend(vec![Complex64::ZERO; 500]);
        stream.extend(PreambleBuilder::new(params, BIN).build(0.0, 0.0, 1.0));
        stream.extend(OnOffModulator::new(params, BIN).modulate_payload(&BITS, 0.0, 0.0, 1.0));
    }
    stream.extend(vec![Complex64::ZERO; 4096]);
    let samples = encode_cf32le(&quantize_cf32(&stream));
    let exchange = |payload_bits: &str| -> Vec<String> {
        let header = format!(r#"{{"stream":"huge","bins":[{BIN}],"payload_bits":{payload_bits}}}"#);
        let mut payload = format!("{header}\n").into_bytes();
        payload.extend_from_slice(&samples);
        let sock = TcpStream::connect(daemon.ingest_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        // The daemon may close before the samples are through.
        let _ = (&sock).write_all(&payload);
        let _ = sock.shutdown(Shutdown::Write);
        BufReader::new(sock).lines().map_while(Result::ok).collect()
    };

    for bits in ["36028797018963968", "4000000000", "18446744073709551615"] {
        let lines = exchange(bits);
        assert_eq!(lines.len(), 1, "{bits}: {lines:?}");
        let record = &lines[0];
        assert!(
            record.contains("\"type\":\"error\"")
                && record.contains(code::BAD_HEADER)
                && record.contains("payload_bits"),
            "{bits}: {record}"
        );
    }
    assert_eq!(daemon.health().get(HealthCounter::WorkerPanics), 0);

    let lines = exchange(&BITS.len().to_string());
    assert!(lines[0].contains("\"ready\""), "{lines:?}");
    let frames = lines.iter().filter(|l| l.contains("\"type\":\"frame\""));
    assert_eq!(frames.count(), 2, "{lines:?}");
    daemon.shutdown();
}
