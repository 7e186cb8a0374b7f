//! The netscatterd wire protocol.
//!
//! **Ingest** (one TCP connection per stream): the client sends a single
//! JSON header line naming the stream and (optionally) its decode
//! parameters, then raw interleaved little-endian `f32` I/Q bytes
//! (`cf32le`, the same layout as the `.cf32` replay files) until it
//! half-closes the write side. The daemon answers on the same socket with
//! newline-delimited JSON: a `ready` acknowledgement, one `frame` record
//! per decoded packet (in stream order), and a final `end` summary.
//!
//! ```text
//! client → {"stream":"door-ap","sample_rate_hz":500000,"bins":[64,192],"payload_bits":8}
//! client → <raw cf32le bytes …>                      (then shutdown(Write))
//! daemon → {"type":"ready","stream":"door-ap"}
//! daemon → {"type":"frame","stream":"door-ap","index":0,…}
//! daemon → {"type":"end","stream":"door-ap","complete":true,…}
//! ```
//!
//! Decode parameters omitted from the header fall back to the daemon's
//! command-line defaults, so a bare `{"stream":"x"}` header is valid
//! against a daemon started with `--bins`/`--payload-bits`.

use crate::registry::{StreamSnapshot, STREAM_COUNTERS};
use netscatter::json::{write_number, write_string, Json};
use netscatter_coding::frame::{FrameCodec, FrameOutcome};
use netscatter_coding::CodingScheme;
use netscatter_dsp::Complex64;
use netscatter_gateway::{DecodedPacket, GatewayConfig, OverflowPolicy};
use std::ops::RangeInclusive;

/// The only ingest sample format this daemon speaks.
pub const FORMAT_CF32LE: &str = "cf32le";

/// The one positivity check, for a sample rate or a detection-floor
/// fraction: both must be finite and positive. A floor `≤ 0` would count
/// every assigned bin as a device; an infinite or NaN one would silently
/// detect nothing.
pub(crate) fn positive_finite(what: &str, value: f64) -> Result<f64, String> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!(
            "{what} must be a finite positive number, got {value}"
        ))
    }
}

/// The one bound check for a count.
fn in_range(what: &str, value: usize, range: RangeInclusive<usize>) -> Result<(), String> {
    if range.contains(&value) {
        Ok(())
    } else {
        Err(format!("{what} must be in {range:?}, got {value}"))
    }
}

/// Machine-readable `code` values carried by `end` and `error` records —
/// the daemon's failure-model vocabulary (see DESIGN.md "Failure model").
/// Clients should branch on these, never on the human-readable `message`.
pub mod code {
    /// `end`: the client half-closed its write side; the stream is whole.
    pub const EOF: &str = "eof";
    /// `end`: the daemon was shut down mid-stream (`complete:false`).
    pub const SHUTDOWN: &str = "shutdown";
    /// `end`: ingest went silent past the idle deadline; everything
    /// received up to the stall was decoded and reported.
    pub const IDLE_TIMEOUT: &str = "idle_timeout";
    /// `end`: the transport failed mid-stream (connection reset);
    /// everything received before the failure was decoded and reported
    /// (the record write itself is best-effort — the peer may be gone).
    pub const PEER_RESET: &str = "peer_reset";
    /// `error`: the header line did not parse or failed validation.
    pub const BAD_HEADER: &str = "bad_header";
    /// `error`: the connection closed mid-header-line.
    pub const HEADER_TRUNCATED: &str = "header_truncated";
    /// `error`: the header line did not arrive within the header deadline.
    pub const HEADER_TIMEOUT: &str = "header_timeout";
    /// `error`: the header line exceeded the 64 KiB bound.
    pub const HEADER_TOO_LARGE: &str = "header_too_large";
    /// `error`: no bins in the header and no `--bins` daemon default.
    pub const NO_BINS: &str = "no_bins";
    /// `error`: the `--max-conns` admission cap rejected the connection.
    pub const OVERLOADED: &str = "overloaded";
    /// `error`: the header asked for fault injection but the daemon was
    /// not started with `--enable-fault-injection`.
    pub const FAULT_INJECTION_DISABLED: &str = "fault_injection_disabled";
    /// `error`: the stream's engine could not be spawned.
    pub const ENGINE_SPAWN: &str = "engine_spawn";
    /// `error`: the decode path failed (FFT error).
    pub const DECODE_ERROR: &str = "decode_error";
    /// `error`: an engine thread panicked; supervision tore the stream
    /// down cleanly and the daemon kept serving.
    pub const WORKER_PANIC: &str = "worker_panic";
    /// `error`: the serving thread itself panicked (caught at the thread
    /// root; the daemon kept serving).
    pub const INTERNAL_PANIC: &str = "internal_panic";
}

/// Bytes per complex sample on the wire (two little-endian `f32`s).
pub const SAMPLE_BYTES: usize = 8;

/// The largest `payload_bits` a stream may carry. It admits every frame
/// codec's widest geometry (conv's 586 on-air bits) and bounds what one
/// packet makes the daemon hold: at the default profile a packet is at most
/// `(8 + 1024) · 512` samples, ≈ 1.06 s of air at 500 kHz and ≈ 8.5 MB of
/// detector window, and its length cannot wrap.
pub const MAX_PAYLOAD_BITS: usize = 1024;

/// The most samples in one ring chunk (≈ 2.1 s of air at 500 kHz): a
/// serving thread sizes its socket and coalescing buffers (8 and 32 MiB at
/// the bound) by it before the first sample arrives.
pub const MAX_CHUNK_SAMPLES: usize = 1 << 20;

/// The most chunks one stream's ring may queue: 4× the 1 024 the repo
/// benchmark runs with. The ring reserves room for every slot up front.
pub const MAX_RING_SLOTS: usize = 1 << 12;

/// The most decode workers one stream may start. `0` already means one per
/// core, so a larger explicit count only adds threads that wait.
pub const MAX_WORKERS: usize = 1 << 10;

/// The longest stream name a header may carry, in bytes; it fits every file
/// stem `--replay` derives a name from. The registry keeps each name for
/// the daemon's whole life, and metrics print it in every per-stream series.
pub const MAX_STREAM_NAME_BYTES: usize = 256;

/// The 500 kHz RF channels of the 902–928 MHz ISM band, the tags a stream
/// may carry: each tag seen keeps a rollup and a metrics block for good.
pub const MAX_CHANNELS: usize = 52;

/// The one range check of a stream's geometry, for the daemon's flags, each
/// merged header ([`stream_config`]) and the simulator's scenarios alike:
/// at most `2^SF` bins, each one of the profile's `2^SF` cyclic shifts and
/// none assigned twice (an empty list passes here); `payload_symbols`,
/// `chunk_samples`, `ring_slots` and `workers` up to [`MAX_PAYLOAD_BITS`],
/// [`MAX_CHUNK_SAMPLES`], [`MAX_RING_SLOTS`] and [`MAX_WORKERS`]; a finite,
/// positive detection floor. Under a link-layer `coding` the frame must
/// fill the payload exactly, and the codec built to check that is handed
/// back, so no caller holds one that skipped this check.
pub fn check_config(
    cfg: &GatewayConfig,
    coding: CodingScheme,
) -> Result<Option<FrameCodec>, String> {
    let num_bins = cfg.profile.modulation.num_bins();
    if cfg.assigned_bins.len() > num_bins {
        return Err(format!(
            "{} bins is more than the {num_bins} cyclic shifts there are",
            cfg.assigned_bins.len()
        ));
    }
    if let Some(bin) = cfg.assigned_bins.iter().find(|&&b| b >= num_bins) {
        return Err(format!(
            "bin {bin} is out of range: bins must be in 0..{num_bins}"
        ));
    }
    // A repeated bin would be detected, decoded and counted once per entry.
    let mut seen = vec![false; num_bins];
    for &bin in &cfg.assigned_bins {
        if std::mem::replace(&mut seen[bin], true) {
            return Err(format!("bin {bin} is assigned twice"));
        }
    }
    in_range("payload_bits", cfg.payload_symbols, 1..=MAX_PAYLOAD_BITS)?;
    in_range("chunk_samples", cfg.chunk_samples, 1..=MAX_CHUNK_SAMPLES)?;
    in_range("ring_slots", cfg.ring_slots, 1..=MAX_RING_SLOTS)?;
    in_range("workers", cfg.workers, 0..=MAX_WORKERS)?;
    if let Some(floor) = cfg.detection_floor_fraction {
        positive_finite("detection_floor", floor)?;
    }
    match coding {
        CodingScheme::None => Ok(None),
        scheme => FrameCodec::new(scheme, cfg.payload_symbols).map(Some),
    }
}

/// The one merge of a stream's header over the daemon's `defaults`: the
/// header's bins, payload bits and detection floor win where present, its
/// fault hook always applies, and live ingest always drops oldest (the
/// socket reader must never block on a slow decode). A refusal is the
/// `error` record's code and message: [`code::BAD_HEADER`] for a name
/// longer than [`MAX_STREAM_NAME_BYTES`] or a channel at or past
/// [`MAX_CHANNELS`], [`code::NO_BINS`] when neither side names a bin, else
/// [`code::BAD_HEADER`] with [`check_config`]'s reason.
pub fn stream_config(
    header: &StreamHeader,
    defaults: &GatewayConfig,
) -> Result<(GatewayConfig, Option<FrameCodec>), (&'static str, String)> {
    let bad = |msg| (code::BAD_HEADER, msg);
    let name_bytes = header.name.len();
    in_range("stream name bytes", name_bytes, 1..=MAX_STREAM_NAME_BYTES).map_err(bad)?;
    in_range("channel", header.channel.unwrap_or(0), 0..=MAX_CHANNELS - 1).map_err(bad)?;
    let mut cfg = defaults.clone();
    cfg.overflow = OverflowPolicy::DropOldest;
    if let Some(bins) = &header.bins {
        cfg.assigned_bins.clone_from(bins);
    }
    if let Some(bits) = header.payload_bits {
        cfg.payload_symbols = bits;
    }
    if let Some(floor) = header.detection_floor {
        cfg.detection_floor_fraction = Some(floor);
    }
    cfg.fault_panic_span = header.fault_panic_span;
    if cfg.assigned_bins.is_empty() {
        return Err((
            code::NO_BINS,
            "no bins to decode: set them in the header or start the daemon with --bins".into(),
        ));
    }
    let codec = check_config(&cfg, header.coding.unwrap_or(CodingScheme::None)).map_err(bad)?;
    Ok((cfg, codec))
}

/// The JSON header line that opens an ingest connection.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHeader {
    /// Client-chosen stream name (the registry uniquifies collisions).
    pub name: String,
    /// Sample rate of the stream in Hz; `None` uses the daemon default.
    pub sample_rate_hz: Option<f64>,
    /// Cyclic-shift assignment to decode against; `None` uses the daemon
    /// default (`--bins`). The daemon refuses a shift `≥ 2^SF` of its
    /// profile as `bad_header` (the parser does not know the profile).
    pub bins: Option<Vec<usize>>,
    /// Payload bits per packet, at most 1024; `None` uses the daemon
    /// default.
    pub payload_bits: Option<usize>,
    /// Detection-floor override for the receiver's presence test.
    pub detection_floor: Option<f64>,
    /// Which 500 kHz RF channel of the sharded multi-channel gateway this
    /// stream carries. A daemon front-ends one engine shard per tagged
    /// connection; metrics roll the shards up per channel and in
    /// aggregate. `None` lands on channel 0.
    pub channel: Option<usize>,
    /// Link-layer coding scheme the stream's payload bits carry. When set,
    /// the daemon frame-decodes every device's bits (CRC-16 verdict plus
    /// recovered data in each `frame` record, and the CRC counters in `end`
    /// records and metrics advance). `None` is the seed behavior: raw bits,
    /// no framing.
    pub coding: Option<CodingScheme>,
    /// Chaos hook: ask the engine's decode worker to panic on this span
    /// index. Honored only when the daemon runs with
    /// `--enable-fault-injection`; rejected with
    /// [`code::FAULT_INJECTION_DISABLED`] otherwise.
    pub fault_panic_span: Option<usize>,
}

impl StreamHeader {
    /// A header carrying only the stream name — every decode parameter
    /// falls back to the daemon's defaults.
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_string(),
            sample_rate_hz: None,
            bins: None,
            payload_bits: None,
            detection_floor: None,
            channel: None,
            coding: None,
            fault_panic_span: None,
        }
    }

    /// Parses the header line a client opened its connection with.
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = Json::parse(line).map_err(|e| format!("malformed header: {e}"))?;
        let name = doc
            .get("stream")
            .and_then(Json::as_str)
            .ok_or("header is missing the \"stream\" name")?
            .to_string();
        if name.is_empty() {
            return Err("header \"stream\" name is empty".to_string());
        }
        if let Some(format) = doc.get("format").and_then(Json::as_str) {
            if format != FORMAT_CF32LE {
                return Err(format!(
                    "unsupported format {format:?}; this daemon speaks {FORMAT_CF32LE:?}"
                ));
            }
        }
        let positive = |field: &str| -> Result<Option<f64>, String> {
            let Some(value) = doc.get(field) else {
                return Ok(None);
            };
            let value = value
                .as_f64()
                .ok_or_else(|| format!("header {field} must be a number"))?;
            positive_finite(&format!("header {field}"), value).map(Some)
        };
        let sample_rate_hz = positive("sample_rate_hz")?;
        let bins = match doc.get("bins") {
            None => None,
            Some(value) => {
                let items = value.as_array().ok_or("header \"bins\" must be an array")?;
                let bins: Option<Vec<usize>> = items
                    .iter()
                    .map(|b| b.as_u64().map(|b| b as usize))
                    .collect();
                Some(bins.ok_or("header \"bins\" must hold non-negative integers")?)
            }
        };
        let payload_bits = match doc.get("payload_bits") {
            None => None,
            Some(value) => {
                let bits = value
                    .as_u64()
                    .ok_or("header payload_bits must be a positive integer")?;
                // No daemon default could make this one servable.
                in_range("header payload_bits", bits as usize, 1..=MAX_PAYLOAD_BITS)?;
                Some(bits as usize)
            }
        };
        let detection_floor = positive("detection_floor")?;
        let coding = match doc.get("coding") {
            None => None,
            Some(value) => {
                let name = value
                    .as_str()
                    .ok_or("header coding must be a scheme name string")?;
                let scheme =
                    CodingScheme::parse(name).map_err(|e| format!("header coding: {e}"))?;
                // "none" is the explicit spelling of the default.
                (scheme != CodingScheme::None).then_some(scheme)
            }
        };
        let count = |field: &str| -> Result<Option<usize>, String> {
            let non_negative = || format!("header {field} must be a non-negative integer");
            let value = doc.get(field).map(|v| v.as_u64().ok_or_else(non_negative));
            Ok(value.transpose()?.map(|n| n as usize))
        };
        let channel = count("channel")?;
        let fault_panic_span = count("fault_panic_span")?;
        Ok(Self {
            name,
            sample_rate_hz,
            bins,
            payload_bits,
            detection_floor,
            channel,
            coding,
            fault_panic_span,
        })
    }

    /// Serializes the header as the one-line JSON record a client sends.
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![
            ("stream", Json::Str(self.name.clone())),
            ("format", Json::Str(FORMAT_CF32LE.to_string())),
        ];
        if let Some(rate) = self.sample_rate_hz {
            fields.push(("sample_rate_hz", Json::Num(rate)));
        }
        if let Some(bins) = &self.bins {
            fields.push((
                "bins",
                Json::Array(bins.iter().map(|&b| Json::Num(b as f64)).collect()),
            ));
        }
        if let Some(bits) = self.payload_bits {
            fields.push(("payload_bits", Json::Num(bits as f64)));
        }
        if let Some(floor) = self.detection_floor {
            fields.push(("detection_floor", Json::Num(floor)));
        }
        if let Some(channel) = self.channel {
            fields.push(("channel", Json::Num(channel as f64)));
        }
        if let Some(scheme) = self.coding {
            fields.push(("coding", Json::Str(scheme.name().to_string())));
        }
        if let Some(span) = self.fault_panic_span {
            fields.push(("fault_panic_span", Json::Num(span as f64)));
        }
        Json::object(fields).to_string_line()
    }
}

/// Incremental `cf32le` byte-to-sample decoder: carries a partial trailing
/// sample between socket reads, so chunk boundaries never split a sample.
#[derive(Debug, Default)]
pub struct Cf32Decoder {
    carry: [u8; SAMPLE_BYTES],
    carry_len: usize,
}

impl Cf32Decoder {
    /// A decoder with an empty carry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes `bytes` into `out`, holding back any trailing partial
    /// sample for the next call.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<Complex64>) {
        let mut cursor = 0;
        if self.carry_len > 0 {
            let need = SAMPLE_BYTES - self.carry_len;
            let take = need.min(bytes.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            cursor = take;
            if self.carry_len < SAMPLE_BYTES {
                return;
            }
            out.push(sample_from(&self.carry));
            self.carry_len = 0;
        }
        let rest = &bytes[cursor..];
        for chunk in rest.chunks_exact(SAMPLE_BYTES) {
            out.push(sample_from(chunk));
        }
        let rem = rest.len() % SAMPLE_BYTES;
        self.carry[..rem].copy_from_slice(&rest[rest.len() - rem..]);
        self.carry_len = rem;
    }

    /// Bytes of an incomplete trailing sample still held back.
    pub fn pending_bytes(&self) -> usize {
        self.carry_len
    }
}

fn sample_from(bytes: &[u8]) -> Complex64 {
    let re = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as f64;
    let im = f32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as f64;
    Complex64::new(re, im)
}

/// Encodes samples into the wire's `cf32le` byte layout.
pub fn encode_cf32le(samples: &[Complex64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(samples.len() * SAMPLE_BYTES);
    for s in samples {
        bytes.extend_from_slice(&(s.re as f32).to_le_bytes());
        bytes.extend_from_slice(&(s.im as f32).to_le_bytes());
    }
    bytes
}

/// Quantizes samples through the wire's `f32` precision — what a receiver
/// on the far end of the socket will decode. Batch references must compare
/// against *these* samples for bit-identical frames.
pub fn quantize_cf32(samples: &[Complex64]) -> Vec<Complex64> {
    samples
        .iter()
        .map(|s| Complex64::new(s.re as f32 as f64, s.im as f32 as f64))
        .collect()
}

/// Renders payload bits as the compact `"0101…"` record form.
pub fn bits_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// The `ready` acknowledgement sent once the stream is registered (the
/// echoed name is the registry-uniquified one metrics will report under).
pub fn ready_json(stream: &str) -> Json {
    Json::object(vec![
        ("type", Json::Str("ready".to_string())),
        ("stream", Json::Str(stream.to_string())),
    ])
}

/// One decoded packet as an NDJSON `frame` record. When the stream carries
/// a link-layer code, `outcomes` holds the per-device frame decode (aligned
/// with `packet.round.devices`) and each device object gains its CRC
/// verdict, sequence number, and recovered data bits.
pub fn frame_json(stream: &str, packet: &DecodedPacket, outcomes: Option<&[FrameOutcome]>) -> Json {
    Json::object(vec![
        ("type", Json::Str("frame".to_string())),
        ("stream", Json::Str(stream.to_string())),
        ("index", Json::Num(packet.index as f64)),
        ("start_sample", Json::Num(packet.start_sample as f64)),
        (
            "devices",
            Json::Array(
                packet
                    .round
                    .devices
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        let mut fields = vec![
                            ("bin", Json::Num(d.chirp_bin as f64)),
                            ("power", Json::Num(d.preamble_power)),
                            ("bits", Json::Str(bits_string(&d.bits))),
                        ];
                        if let Some(out) = outcomes.and_then(|o| o.get(i)) {
                            fields.push(("crc_ok", Json::Bool(out.crc_ok)));
                            fields.push(("seq", Json::Num(out.seq as f64)));
                            fields.push(("corrected", Json::Num(out.corrected as f64)));
                            fields.push(("data", Json::Str(bits_string(&out.data))));
                        }
                        Json::object(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Appends the [`frame_json`] record of `packet` to `out` as one NDJSON
/// line, newline included, without building the tree: byte for byte
/// `frame_json(stream, packet, outcomes).to_string_line()` plus `'\n'`.
/// Numbers and strings go through the tree's own [`write_number`] and
/// [`write_string`], and integers keep its `as f64` rendering, so the two
/// agree past 2^53 too. Records are emitted through [`FrameEmitter`];
/// [`frame_json`] stays as the writer's oracle.
pub fn write_frame_line(
    out: &mut String,
    stream: &str,
    packet: &DecodedPacket,
    outcomes: Option<&[FrameOutcome]>,
) {
    out.push_str(r#"{"type":"frame","stream":"#);
    write_string(out, stream);
    out.push_str(r#","index":"#);
    write_number(out, packet.index as f64);
    out.push_str(r#","start_sample":"#);
    write_number(out, packet.start_sample as f64);
    out.push_str(r#","devices":["#);
    for (i, d) in packet.round.devices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"bin":"#);
        write_number(out, d.chirp_bin as f64);
        out.push_str(r#","power":"#);
        write_number(out, d.preamble_power);
        out.push_str(r#","bits":"#);
        write_bits(out, &d.bits);
        if let Some(o) = outcomes.and_then(|o| o.get(i)) {
            out.push_str(if o.crc_ok {
                r#","crc_ok":true,"seq":"#
            } else {
                r#","crc_ok":false,"seq":"#
            });
            write_number(out, o.seq as f64);
            out.push_str(r#","corrected":"#);
            write_number(out, o.corrected as f64);
            out.push_str(r#","data":"#);
            write_bits(out, &o.data);
        }
        out.push('}');
    }
    out.push_str("]}\n");
}

/// The one emit step of a `frame` record: every device's bits through the
/// stream's link-layer codec when it has one, then the packet's line
/// through [`write_frame_line`] into a buffer reused for every record. The
/// daemon's serving loop and the serial [`crate::session::Session`] both
/// emit through it, so the FEC and the line exist once.
#[derive(Debug)]
pub struct FrameEmitter {
    stream: String,
    codec: Option<FrameCodec>,
    outcomes: Vec<FrameOutcome>,
    line: String,
}

impl FrameEmitter {
    /// An emitter of records named `stream` that frame-decodes every device
    /// under `codec` (`None`: raw bits, no CRC verdicts).
    pub fn new(stream: &str, codec: Option<FrameCodec>) -> Self {
        Self {
            stream: stream.to_string(),
            codec,
            outcomes: Vec::new(),
            line: String::new(),
        }
    }

    /// `packet`'s frame line, newline included, and the per-device frame
    /// outcomes it carries, aligned with `packet.round.devices` (empty on
    /// an uncoded stream).
    pub fn emit(&mut self, packet: &DecodedPacket) -> (&str, &[FrameOutcome]) {
        self.outcomes.clear();
        if let Some(codec) = &self.codec {
            for device in &packet.round.devices {
                self.outcomes.push(codec.decode_frame(&device.bits));
            }
        }
        self.line.clear();
        let outcomes = self.codec.as_ref().map(|_| &self.outcomes[..]);
        write_frame_line(&mut self.line, &self.stream, packet, outcomes);
        (&self.line, &self.outcomes)
    }
}

/// Appends [`bits_string`] as a JSON string (its digits need no escape).
fn write_bits(out: &mut String, bits: &[bool]) {
    out.push('"');
    out.extend(bits.iter().map(|&b| if b { '1' } else { '0' }));
    out.push('"');
}

/// The final `end` summary of an ingest connection: the stream's last
/// registry snapshot, one field per [`STREAM_COUNTERS`] row in table
/// order — the same values the metrics endpoint reports, by construction.
/// `code` says how the stream ended ([`code::EOF`], [`code::SHUTDOWN`],
/// [`code::IDLE_TIMEOUT`] or [`code::PEER_RESET`]); `complete` is `true`
/// only for a clean [`code::EOF`]. The link-layer CRC counters stay zero on
/// uncoded streams, and `trailing_bytes` is never silently dropped: a
/// client that splits writes off sample boundaries and dies mid-sample sees
/// its leftover counted there.
pub fn end_json(snapshot: &StreamSnapshot, end_code: &str) -> Json {
    let mut fields = vec![
        ("type", Json::Str("end".to_string())),
        ("stream", Json::Str(snapshot.name.clone())),
        ("code", Json::Str(end_code.to_string())),
        ("complete", Json::Bool(end_code == code::EOF)),
    ];
    fields.extend(
        STREAM_COUNTERS
            .iter()
            .map(|&(counter, key, _)| (key, Json::Num(snapshot.counters[counter] as f64))),
    );
    fields.push(("samples_per_sec", Json::Num(snapshot.samples_per_sec)));
    fields.push(("real_time_factor", Json::Num(snapshot.real_time_factor)));
    Json::object(fields)
}

/// An `error` record: the stream is being torn down; `code` is the
/// machine-readable reason (one of [`code`]'s constants) and `message` the
/// human-readable detail.
pub fn error_json(stream: &str, error_code: &str, message: &str) -> Json {
    Json::object(vec![
        ("type", Json::Str("error".to_string())),
        ("stream", Json::Str(stream.to_string())),
        ("code", Json::Str(error_code.to_string())),
        ("message", Json::Str(message.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_round_trip_through_their_json_line() {
        let full = StreamHeader {
            name: "door-ap".to_string(),
            sample_rate_hz: Some(500e3),
            bins: Some(vec![64, 192]),
            payload_bits: Some(8),
            detection_floor: Some(0.05),
            channel: Some(2),
            coding: Some(CodingScheme::Hamming),
            fault_panic_span: Some(3),
        };
        assert_eq!(StreamHeader::parse(&full.to_json_line()).unwrap(), full);
        let bare = StreamHeader::named("x");
        assert_eq!(StreamHeader::parse(&bare.to_json_line()).unwrap(), bare);
        // An explicit "none" is the same as leaving the field out.
        let none = StreamHeader::parse(r#"{"stream":"x","coding":"none"}"#).unwrap();
        assert_eq!(none, bare);
    }

    #[test]
    fn bad_headers_are_rejected_with_a_reason() {
        for (line, needle) in [
            ("not json", "malformed"),
            ("{}", "stream"),
            (r#"{"stream":""}"#, "empty"),
            (r#"{"stream":"x","format":"wav"}"#, "unsupported format"),
            (r#"{"stream":"x","sample_rate_hz":0}"#, "positive"),
            (r#"{"stream":"x","sample_rate_hz":1e999}"#, "sample_rate_hz"),
            (
                r#"{"stream":"x","sample_rate_hz":"fast"}"#,
                "sample_rate_hz",
            ),
            (r#"{"stream":"x","detection_floor":-1}"#, "detection_floor"),
            (r#"{"stream":"x","detection_floor":0}"#, "detection_floor"),
            (
                r#"{"stream":"x","detection_floor":1e999}"#,
                "detection_floor",
            ),
            (
                r#"{"stream":"x","detection_floor":"high"}"#,
                "detection_floor",
            ),
            (r#"{"stream":"x","bins":7}"#, "array"),
            (r#"{"stream":"x","bins":[-1]}"#, "non-negative"),
            (r#"{"stream":"x","payload_bits":0}"#, "payload_bits"),
            (r#"{"stream":"x","payload_bits":1025}"#, "1..=1024"),
            (r#"{"stream":"x","payload_bits":1.5}"#, "payload_bits"),
            (
                r#"{"stream":"x","payload_bits":18446744073709551615}"#,
                "1..=1024",
            ),
            (r#"{"stream":"x","coding":"turbo"}"#, "coding"),
            (r#"{"stream":"x","coding":7}"#, "coding"),
            (r#"{"stream":"x","channel":-1}"#, "channel"),
            (r#"{"stream":"x","channel":"left"}"#, "channel"),
            (
                r#"{"stream":"x","fault_panic_span":-1}"#,
                "fault_panic_span",
            ),
        ] {
            let err = StreamHeader::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    /// The cap admits every frame codec's widest geometry, so no coded
    /// stream that the codecs accept is refused by it.
    #[test]
    fn the_payload_bits_cap_admits_every_frame_geometry() {
        let at =
            |bits| GatewayConfig::new(netscatter_phy::params::PhyProfile::default(), vec![], bits);
        for scheme in CodingScheme::ALL {
            if scheme == CodingScheme::None {
                continue;
            }
            let widest = (1..=4 * MAX_PAYLOAD_BITS)
                .filter(|&bits| FrameCodec::new(scheme, bits).is_ok())
                .max()
                .expect("every framed scheme has a geometry");
            assert!(widest <= MAX_PAYLOAD_BITS, "{scheme:?}: {widest}");
            let codec = check_config(&at(widest), scheme);
            assert!(matches!(codec, Ok(Some(_))), "{scheme:?}");
        }
        for bits in [0, MAX_PAYLOAD_BITS + 1, usize::MAX] {
            let err = check_config(&at(bits), CodingScheme::None).unwrap_err();
            assert!(err.contains("1..=1024"), "{err}");
        }
    }

    /// The direct writer against the tree it replaces, over seeded random
    /// packets: 0–512 devices, every class of `f64` power, coded and
    /// uncoded (outcome lists short, empty and full), integers past 2^53,
    /// and stream names that need escaping.
    #[test]
    fn the_frame_line_writer_matches_the_tree_byte_for_byte() {
        use netscatter::receiver::{DecodedDevice, DecodedRound};
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};

        const POWERS: [f64; 10] = [
            0.0,
            -0.0,
            5e-324,
            2.2e-308,
            f64::MAX,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
        ];
        const NAME_CHARS: [char; 12] = [
            'a', 'Z', '0', '"', '\\', '\n', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€', '😀',
        ];
        let mut rng = StdRng::seed_from_u64(0x5EED_F4A3);
        let bits = |rng: &mut StdRng| -> Vec<bool> {
            let len = rng.gen_range(0..=120usize);
            (0..len).map(|_| rng.gen_bool(0.5)).collect()
        };
        // Small integers, the 2^53 edge and the whole `u64` range.
        let int = |rng: &mut StdRng| -> u64 {
            match rng.gen_range(0..3) {
                0 => rng.gen_range(0..1000),
                1 => (1u64 << 53) + rng.gen_range(0..4u64),
                _ => rng.next_u64(),
            }
        };
        let mut line = String::new();
        for case in 0..120 {
            let devices = match case {
                0 => 0,
                1 => 512,
                _ => rng.gen_range(0..=512usize),
            };
            let round = DecodedRound {
                devices: (0..devices)
                    .map(|_| DecodedDevice {
                        chirp_bin: int(&mut rng) as usize,
                        preamble_power: match rng.gen_range(0..3) {
                            0 => POWERS[rng.gen_range(0..POWERS.len())],
                            1 => f64::from_bits(rng.next_u64()),
                            _ => rng.gen_range(0.0..1e6),
                        },
                        bits: bits(&mut rng),
                    })
                    .collect(),
            };
            let packet = DecodedPacket {
                index: int(&mut rng) as usize,
                start_sample: int(&mut rng),
                round,
            };
            let outcomes: Option<Vec<FrameOutcome>> = rng.gen_bool(0.5).then(|| {
                let len = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..=devices),
                    _ => devices,
                };
                (0..len)
                    .map(|_| FrameOutcome {
                        crc_ok: rng.gen_bool(0.5),
                        seq: rng.gen_range(0..=255u8),
                        data: if rng.gen_bool(0.2) {
                            Vec::new()
                        } else {
                            bits(&mut rng)
                        },
                        corrected: int(&mut rng) as usize,
                    })
                    .collect()
            });
            let name_len = rng.gen_range(1..=12);
            let stream: String = (0..name_len)
                .map(|_| NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())])
                .collect();

            let expected =
                frame_json(&stream, &packet, outcomes.as_deref()).to_string_line() + "\n";
            // The writer appends: what the buffer already holds stays.
            line.clear();
            line.push_str("held");
            write_frame_line(&mut line, &stream, &packet, outcomes.as_deref());
            assert_eq!(
                line.strip_prefix("held"),
                Some(expected.as_str()),
                "case {case}"
            );
        }
    }

    #[test]
    fn cf32_decoder_survives_arbitrary_split_points() {
        let samples: Vec<Complex64> = (0..50)
            .map(|i| Complex64::new(i as f64 / 7.0, -(i as f64) / 13.0))
            .collect();
        let quantized = quantize_cf32(&samples);
        let bytes = encode_cf32le(&samples);
        // Every split stride, including ones that slice mid-sample.
        for stride in [1, 3, 7, 8, 13, 64] {
            let mut decoder = Cf32Decoder::new();
            let mut out = Vec::new();
            for chunk in bytes.chunks(stride) {
                decoder.push(chunk, &mut out);
            }
            assert_eq!(out, quantized, "stride {stride}");
            assert_eq!(decoder.pending_bytes(), 0);
        }
        // A truncated tail stays pending and emits nothing bogus.
        let mut decoder = Cf32Decoder::new();
        let mut out = Vec::new();
        decoder.push(&bytes[..19], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(decoder.pending_bytes(), 3);
    }

    #[test]
    fn records_are_single_line_json() {
        use netscatter::receiver::{DecodedDevice, DecodedRound};
        let packet = DecodedPacket {
            index: 2,
            start_sample: 4096,
            round: DecodedRound {
                devices: vec![DecodedDevice {
                    chirp_bin: 64,
                    preamble_power: 1.5,
                    bits: vec![true, false, true],
                }],
            },
        };
        let line = frame_json("s0", &packet, None).to_string_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("type").and_then(Json::as_str), Some("frame"));
        assert_eq!(doc.get("index").and_then(Json::as_u64), Some(2));
        let devices = doc.get("devices").and_then(Json::as_array).unwrap();
        assert_eq!(devices[0].get("bits").and_then(Json::as_str), Some("101"));
        assert!(devices[0].get("crc_ok").is_none(), "uncoded: no verdict");

        // A coded stream's record carries the per-device frame verdict.
        let outcomes = vec![FrameOutcome {
            crc_ok: true,
            seq: 9,
            data: vec![false, true],
            corrected: 1,
        }];
        let line = frame_json("s0", &packet, Some(&outcomes)).to_string_line();
        let doc = Json::parse(&line).unwrap();
        let devices = doc.get("devices").and_then(Json::as_array).unwrap();
        assert_eq!(devices[0].get("crc_ok"), Some(&Json::Bool(true)));
        assert_eq!(devices[0].get("seq").and_then(Json::as_u64), Some(9));
        assert_eq!(devices[0].get("corrected").and_then(Json::as_u64), Some(1));
        assert_eq!(devices[0].get("data").and_then(Json::as_str), Some("01"));
    }
}
