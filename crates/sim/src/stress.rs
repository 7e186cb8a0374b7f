//! The netscatterd stress harness: `netscatter stress`.
//!
//! Drives N simultaneous synthesized ingest streams at a running daemon
//! over real TCP sockets and scores what comes back three ways:
//!
//! 1. **bit identity** — every stream's NDJSON `frame` records must equal,
//!    byte for byte, what the serial
//!    [`netscatter_daemon::session::Session`] writes for the same
//!    (f32-quantized) samples;
//! 2. **backpressure** — at the default real-time pacing the drop-oldest
//!    ring must not drop a single chunk (`ring_dropped == 0` in every end
//!    record);
//! 3. **metrics** — the daemon's metrics endpoint must answer mid-stress
//!    and afterwards with a document that passes
//!    [`netscatter_daemon::metrics::lint`], and afterwards report every
//!    stream with a positive `Msamples/s`.
//!
//! Each stream is an independent [`crate::stream::RoundArrivalSource`]
//! replay (Poisson round arrivals from the sample-level simulator), so the
//! harness also scores the decode against the recorded ground truth:
//! rounds found, rounds missed, payload bit errors. Truth scoring is
//! reported but does not gate the exit code — channel noise may cost bits
//! legitimately; a daemon that diverges from its own batch pipeline or
//! drops chunks at real-time pace may not.
//!
//! By default the harness spins up an in-process [`Daemon`]; `--connect`
//! points it at an external `netscatterd` instead (CI runs the smoke this
//! way), with `--metrics-addr` naming that daemon's metrics port.

use crate::cli::{parse_flags, CliError};
use crate::deployment::{Deployment, DeploymentConfig};
use crate::fullround::ChannelModel;
use crate::scenario::Scenario;
use crate::stream::{ArrivalConfig, RenderedStream, RoundArrivalSource, StreamScore};
use netscatter::json::Json;
use netscatter_coding::CodingScheme;
use netscatter_daemon::client::{self, Pace};
use netscatter_daemon::protocol::{self, StreamHeader};
use netscatter_daemon::registry::STREAM_COUNTERS;
use netscatter_daemon::session::Session;
use netscatter_daemon::{Daemon, DaemonConfig};
use netscatter_gateway::{DecodedPacket, GatewayConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deployment placement seed: every stress stream shares one office
/// deployment (and therefore one bin assignment); the per-stream trial
/// seed varies the channel and the arrival process instead.
pub(crate) const DEPLOYMENT_SEED: u64 = 17;

/// The `netscatter stress --help` text.
pub fn usage() -> String {
    "netscatter stress — multi-stream daemon stress harness

USAGE:
  netscatter stress [flags]

Synthesizes N concurrent round-arrival streams (the sample-level
simulator replayed as continuous baseband), drives them at a netscatterd
ingest port over TCP in parallel, and fails unless every stream's frames
are bit-identical to the batch pipeline's decode of the same samples,
no ring chunk was dropped, and the metrics endpoint reports every stream.

STRESS FLAGS:
  --streams <N>           concurrent ingest connections (default 4)
  --connect <ADDR>        use a running daemon instead of an in-process one
  --metrics-addr <ADDR>   metrics port of the --connect daemon
  --pace <F>              upload speed as a multiple of the sample rate
                          (default 1 = real time; 0 = wire speed)
  --ring-slots <N>        in-process daemon ring capacity (default 64)
  --cf32-dir <DIR>        write each stream to DIR/<name>.cf32 and upload
                          through the .cf32 replay-file path
  --chaos                 run the fault-injection matrix alongside the
                          healthy fleet: truncated/garbage/oversized/slow
                          headers, mid-stream disconnects and stalls,
                          ragged cf32 write splits, kill-mid-round, and an
                          injected decode-worker panic; fails unless the
                          daemon survives with every stream terminated
                          cleanly (in-process daemons get chaos deadlines
                          and fault injection automatically; a --connect
                          daemon needs --enable-fault-injection and short
                          --header-timeout/--idle-timeout)
  --expect-max-conns <N>  with --chaos --connect: the daemon's --max-conns
                          value, so the harness can verify admission
                          rejects (0 = skip; in-process chaos always
                          checks admission on a side daemon)
  --quiet                 suppress the per-stream report lines

SHARED FLAGS (the experiment parser):
  --seed <N>              base trial seed (stream i uses seed+i; default 42)
  --devices <N>           concurrent devices per round (default 8)
  --payload-bits <N>      payload bits per device (default 8)
  --coding <S>            link-layer coding scheme (none|hamming|rs|conv|
                          fountain; default none). Streams then carry CRC-
                          framed FEC frames, the daemon's frame records are
                          checked for per-device CRC verdicts, and the
                          frames_ok/frames_failed_crc counters are scored
                          (--payload-bits must fit the scheme's geometry)
  --arrival-rate <R>      round arrivals per second (default 10)
  --stream-secs <S>       per-stream duration in seconds (default 0.5)
  --chunk-samples <N>     ring chunk size in samples (default 4096)
  --channels <K>          RF channels to spread the streams over
                          (stream i tags channel i mod K; default 1)
  --threads <N>           decode workers per stream (default 0 = all cores)
  --help                  this text"
        .to_string()
}

/// Parsed `netscatter stress` options.
#[derive(Debug, Clone, PartialEq)]
pub struct StressOptions {
    /// Number of concurrent ingest connections.
    pub streams: usize,
    /// External daemon ingest address (`None` = in-process daemon).
    pub connect: Option<String>,
    /// External daemon metrics address.
    pub metrics_addr: Option<String>,
    /// Upload pace as a multiple of the sample rate (0 = wire speed).
    pub pace: f64,
    /// In-process daemon ring capacity, in chunks.
    pub ring_slots: usize,
    /// Write each stream to `<dir>/<name>.cf32` and upload through the
    /// replay-file path instead of from memory.
    pub cf32_dir: Option<String>,
    /// Run the deterministic fault-injection matrix alongside the healthy
    /// fleet.
    pub chaos: bool,
    /// `--max-conns` of a `--connect` daemon, for the chaos admission
    /// check (0 = skip the check against external daemons).
    pub expect_max_conns: usize,
    /// Suppress per-stream report lines.
    pub quiet: bool,
    /// The shared-parser fields the harness reads: `seed` (stream `i` is
    /// seeded `seed + i`), `devices`, `payload_bits`, `coding`,
    /// `arrival_rate`, `stream_secs`, `chunk_samples`, `channels` (stream
    /// `i` tags channel `i % channels`, and the metrics check demands a
    /// schema-complete rollup for every channel used) and `threads`
    /// (decode workers per stream, 0 = all cores).
    pub scenario: Scenario,
}

/// Splits the stress-specific flags out of `args`, then runs the shared
/// flags the harness reads through the experiment flag parser
/// ([`crate::cli::parse_flags`]) so `--seed`, `--devices`,
/// `--arrival-rate`, … mean exactly what they mean everywhere else in the
/// CLI. A shared flag the harness would ignore (`--fidelity`, `--out`, …)
/// is a usage error like any other unknown argument.
pub fn parse_stress_args(args: &[String]) -> Result<StressOptions, CliError> {
    let mut streams = 4usize;
    let mut connect = None;
    let mut metrics_addr = None;
    let mut pace = 1.0f64;
    let mut ring_slots = 64usize;
    let mut cf32_dir = None;
    let mut chaos = false;
    let mut expect_max_conns = 0usize;
    let mut quiet = false;
    // Stress defaults first, the user's flags after: a later flag wins in
    // the shared parser, so the user can still override any of these.
    let mut shared: Vec<String> = [
        "--devices",
        "8",
        "--payload-bits",
        "8",
        "--stream-secs",
        "0.5",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| CliError {
            message: format!("{flag} requires a value"),
            code: 2,
        })
    };
    let bad = |flag: &str, v: &str| CliError {
        message: format!("{flag} expects a number, got {v:?}"),
        code: 2,
    };
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--streams" => {
                let v = value(&mut i, arg)?;
                streams = v.parse().map_err(|_| bad(arg, &v))?;
                if streams == 0 {
                    return Err(CliError {
                        message: "--streams must be at least 1".into(),
                        code: 2,
                    });
                }
            }
            "--connect" => connect = Some(value(&mut i, arg)?),
            "--metrics-addr" => metrics_addr = Some(value(&mut i, arg)?),
            "--pace" => {
                let v = value(&mut i, arg)?;
                pace = v.parse().map_err(|_| bad(arg, &v))?;
                if pace.is_nan() || pace < 0.0 {
                    return Err(bad(arg, &v));
                }
            }
            "--ring-slots" => {
                let v = value(&mut i, arg)?;
                ring_slots = v.parse().map_err(|_| bad(arg, &v))?;
            }
            "--cf32-dir" => cf32_dir = Some(value(&mut i, arg)?),
            "--chaos" => chaos = true,
            "--expect-max-conns" => {
                let v = value(&mut i, arg)?;
                expect_max_conns = v.parse().map_err(|_| bad(arg, &v))?;
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                return Err(CliError {
                    message: usage(),
                    code: 0,
                })
            }
            "--seed" | "--devices" | "--payload-bits" | "--coding" | "--arrival-rate"
            | "--stream-secs" | "--chunk-samples" | "--channels" | "--threads" => {
                shared.push(arg.to_string());
                shared.push(value(&mut i, arg)?);
            }
            other => {
                return Err(CliError {
                    message: format!("unknown argument: {other}"),
                    code: 2,
                })
            }
        }
        i += 1;
    }
    let opts = StressOptions {
        streams,
        connect,
        metrics_addr,
        pace,
        ring_slots,
        cf32_dir,
        chaos,
        expect_max_conns,
        quiet,
        scenario: parse_flags(&shared, false)?.scenario,
    };
    protocol::check_config(&daemon_defaults(&opts), CodingScheme::None).map_err(CliError::usage)?;
    Ok(opts)
}

/// One synthesized ingest stream plus everything needed to score it.
pub(crate) struct SynthStream {
    pub(crate) name: String,
    pub(crate) header: StreamHeader,
    /// The stream; its samples are f32-quantized — exactly what crosses the
    /// wire.
    pub(crate) rendered: RenderedStream,
}

/// Synthesizes stream `i`: renders a [`RoundArrivalSource`] seeded
/// `seed + i` and quantizes it through the wire's f32 precision, so the
/// batch reference decodes the same numbers the daemon receives.
pub(crate) fn synthesize(deployment: &Deployment, opts: &StressOptions, i: usize) -> SynthStream {
    let s = &opts.scenario;
    let mut rendered = RoundArrivalSource::new(
        deployment,
        s.devices,
        &ChannelModel::pristine(),
        ArrivalConfig {
            rate_hz: s.arrival_rate,
            stream_secs: s.stream_secs,
            payload_bits: s.payload_bits,
        },
        s.seed + i as u64,
    )
    .with_coding(s.coding)
    // The flag parser validated the scheme × payload_bits geometry.
    .expect("coding geometry validated at parse time")
    .render();
    rendered.samples = protocol::quantize_cf32(&rendered.samples);
    let name = format!("stress{i}");
    SynthStream {
        header: StreamHeader {
            name: name.clone(),
            sample_rate_hz: Some(rendered.sample_rate_hz),
            bins: Some(rendered.assigned_bins.clone()),
            payload_bits: Some(s.payload_bits),
            detection_floor: Some(rendered.detection_floor_fraction),
            channel: Some(i % s.channels.max(1)),
            coding: (s.coding != CodingScheme::None).then_some(s.coding),
            fault_panic_span: None,
        },
        name,
        rendered,
    }
}

/// The in-process daemon's stream defaults, from the harness flags
/// (`--payload-bits`, `--chunk-samples`, `--ring-slots`, `--threads`). Each
/// stream's header carries the rest.
pub(crate) fn daemon_defaults(opts: &StressOptions) -> GatewayConfig {
    GatewayConfig {
        ring_slots: opts.ring_slots,
        ..opts.scenario.gateway_config()
    }
}

/// Decodes `stream` through a serial [`Session`] and returns the packets
/// plus their `frame` records (the daemon-comparison reference).
/// `frame_name` is the daemon-assigned stream name the records must carry —
/// a long-lived daemon uniquifies colliding names (`stress0#2`, …), so the
/// reference is rendered under whatever name the `ready` record announced.
pub(crate) fn batch_reference(
    stream: &SynthStream,
    opts: &StressOptions,
    frame_name: &str,
) -> Result<(Vec<DecodedPacket>, Vec<String>), String> {
    // The daemon's own merge of the header over its defaults: the config
    // and codec are what the daemon assembles, by construction.
    let (cfg, codec) =
        protocol::stream_config(&stream.header, &daemon_defaults(opts)).map_err(|(_, e)| e)?;
    let mut session = Session::new(frame_name, &cfg, codec).map_err(|e| e.to_string())?;
    let mut lines = String::new();
    let packets = session
        .push(
            &protocol::encode_cf32le(&stream.rendered.samples),
            &mut lines,
        )
        .map_err(|e| e.to_string())?;
    Ok((packets, lines.lines().map(String::from).collect()))
}

/// The daemon-assigned stream name from a transcript's `ready` record,
/// falling back to the requested name.
pub(crate) fn assigned_name(lines: &[String], requested: &str) -> String {
    records_of(lines, "ready")
        .first()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|d| d.get("stream").and_then(Json::as_str).map(String::from))
        .unwrap_or_else(|| requested.to_string())
}

/// Extracts the records of `kind` from a stream's NDJSON transcript.
pub(crate) fn records_of<'a>(lines: &'a [String], kind: &str) -> Vec<&'a String> {
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

/// The value of the metrics line starting with `prefix`, if present.
pub(crate) fn metric_value(doc: &str, prefix: &str) -> Option<f64> {
    doc.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Validates the metrics document: the v2 grammar and histogram
/// invariants ([`netscatter_daemon::metrics::lint`]), then a positive
/// `msamples_per_sec`, the right channel tag, every exported
/// [`STREAM_COUNTERS`] line and the ingest→emit frame-latency histogram
/// for every `(name, channel)` stream in
/// `streams`, and a schema-complete rollup (stream count, samples total,
/// Msamples/s) for every channel the fleet used plus the whole-daemon
/// aggregate rate. Returns the failures.
pub(crate) fn check_metrics(doc: &str, streams: &[(String, usize)]) -> Vec<String> {
    let mut failures = netscatter_daemon::metrics::lint(doc);
    for (name, channel) in streams {
        let prefix = format!("netscatterd_stream_msamples_per_sec{{stream=\"{name}\"}} ");
        match metric_value(doc, &prefix) {
            Some(v) if v > 0.0 => {}
            Some(v) => failures.push(format!("stream {name}: non-positive Msamples/s ({v})")),
            None => failures.push(format!("metrics lack stream {name}")),
        }
        let prefix = format!("netscatterd_stream_channel{{stream=\"{name}\"}} ");
        match metric_value(doc, &prefix) {
            Some(tag) if tag == *channel as f64 => {}
            Some(tag) => failures.push(format!(
                "stream {name}: metrics report channel {tag}, header said {channel}"
            )),
            None => failures.push(format!("metrics lack a channel tag for stream {name}")),
        }
        // Every exported counter is part of the per-stream schema — the
        // link-frame ones even for uncoded streams (pinned at 0 there).
        for stem in STREAM_COUNTERS.iter().filter_map(|&(_, _, stem)| stem) {
            let prefix = format!("netscatterd_stream_{stem}{{stream=\"{name}\"}} ");
            if metric_value(doc, &prefix).is_none() {
                failures.push(format!(
                    "metrics lack netscatterd_stream_{stem} for stream {name}"
                ));
            }
        }
        // The v2 schema adds an ingest→emit latency histogram per stream;
        // its `_count` line must exist even before any frame was emitted.
        let prefix =
            format!("netscatterd_stream_frame_latency_seconds_count{{stream=\"{name}\"}} ");
        if metric_value(doc, &prefix).is_none() {
            failures.push(format!(
                "metrics lack the frame latency histogram for stream {name}"
            ));
        }
    }
    let mut channels: Vec<usize> = streams.iter().map(|&(_, c)| c).collect();
    channels.sort_unstable();
    channels.dedup();
    for channel in channels {
        for metric in [
            "netscatterd_channel_streams",
            "netscatterd_channel_samples_total",
            "netscatterd_channel_msamples_per_sec",
        ] {
            let prefix = format!("{metric}{{channel=\"{channel}\"}} ");
            match metric_value(doc, &prefix) {
                Some(v) if v > 0.0 => {}
                Some(v) => failures.push(format!("channel {channel}: non-positive {metric} ({v})")),
                None => failures.push(format!("metrics lack {metric} for channel {channel}")),
            }
        }
    }
    if !streams.is_empty() {
        match metric_value(doc, "netscatterd_aggregate_msamples_per_sec ") {
            Some(v) if v > 0.0 => {}
            Some(v) => failures.push(format!("non-positive aggregate Msamples/s ({v})")),
            None => failures.push("metrics lack the aggregate Msamples/s".to_string()),
        }
    }
    failures
}

/// What scoring one healthy stream's transcript concluded.
pub(crate) struct HealthyScore {
    /// Everything that disqualifies the stream (empty = pass).
    pub(crate) failures: Vec<String>,
    /// The daemon-assigned (uniquified) stream name.
    pub(crate) served_name: String,
    /// The human per-stream report line.
    pub(crate) report_line: String,
}

/// Scores one healthy stream's transcript: `frame` records bit-identical
/// to the batch pipeline's decode of the same samples, exactly one
/// complete `end` record carrying consistent `frames_ok` /
/// `frames_failed_crc` counters, zero ring drops. Shared between the
/// plain stress fleet and the chaos harness's healthy/ragged streams.
pub(crate) fn score_healthy(
    stream: &SynthStream,
    opts: &StressOptions,
    lines: &[String],
) -> HealthyScore {
    let name = &stream.name;
    let mut failures = Vec::new();
    let served = assigned_name(lines, name);
    let (packets, expected) = match batch_reference(stream, opts, &served) {
        Ok(r) => r,
        Err(e) => {
            return HealthyScore {
                failures: vec![format!("stream {name}: batch reference failed: {e}")],
                served_name: served,
                report_line: String::new(),
            }
        }
    };
    let got: Vec<String> = records_of(lines, "frame").into_iter().cloned().collect();
    if got != expected {
        failures.push(format!(
            "stream {name}: daemon frames diverge from batch decode ({} vs {} frames)",
            got.len(),
            expected.len()
        ));
    }
    let ends = records_of(lines, "end");
    let (mut dropped, mut complete) = (u64::MAX, false);
    let (mut frames_ok, mut frames_failed) = (None, None);
    if let Some(end) = ends.first().and_then(|l| Json::parse(l).ok()) {
        dropped = end
            .get("ring_dropped")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        complete = end.get("complete") == Some(&Json::Bool(true));
        frames_ok = end.get("frames_ok").and_then(Json::as_u64);
        frames_failed = end.get("frames_failed_crc").and_then(Json::as_u64);
    }
    if ends.len() != 1 || !complete {
        failures.push(format!("stream {name}: missing or incomplete end record"));
    }
    if dropped != 0 {
        failures.push(format!("stream {name}: {dropped} ring chunks dropped"));
    }
    // Link-frame counters are schema-mandatory in every end record: on a
    // coded stream each detected device slot gets exactly one CRC verdict;
    // uncoded streams must report both counters pinned at 0.
    match (frames_ok, frames_failed) {
        (Some(ok), Some(failed)) => {
            if opts.scenario.coding == CodingScheme::None {
                if ok != 0 || failed != 0 {
                    failures.push(format!(
                        "stream {name}: uncoded stream reported link frames ({ok} ok, {failed} bad)"
                    ));
                }
            } else {
                let verdicts: u64 = packets.iter().map(|p| p.round.devices.len() as u64).sum();
                if ok + failed != verdicts {
                    failures.push(format!(
                        "stream {name}: {} CRC verdicts for {verdicts} decoded device frames",
                        ok + failed
                    ));
                }
            }
        }
        _ => failures.push(format!(
            "stream {name}: end record lacks frames_ok/frames_failed_crc"
        )),
    }
    let mut score = StreamScore::default();
    score.tally(&stream.rendered, &packets);
    let report_line = format!(
        "stream {name}: {} samples, {} frames, rounds {}/{}, bit errors {}/{}, ring drops {}",
        stream.rendered.samples.len(),
        got.len(),
        score.rounds_decoded,
        score.rounds_offered,
        score.error_bits,
        score.transmitted_bits,
        if dropped == u64::MAX {
            "?".to_string()
        } else {
            dropped.to_string()
        },
    );
    HealthyScore {
        failures,
        served_name: served,
        report_line,
    }
}

/// Runs the stress harness; returns the process exit code (0 = pass).
pub fn run_stress(opts: &StressOptions) -> i32 {
    if opts.chaos {
        return crate::chaos::run_chaos(opts);
    }
    let deployment = Deployment::generate(
        DeploymentConfig::office(opts.scenario.devices.max(16)),
        &mut StdRng::seed_from_u64(DEPLOYMENT_SEED),
    );

    // Synthesis is deterministic per (seed, i): do it up front so the TCP
    // phase measures the daemon, not the simulator.
    let streams: Vec<SynthStream> = (0..opts.streams)
        .map(|i| synthesize(&deployment, opts, i))
        .collect();

    // One daemon for every stream; every header carries its own geometry.
    let local = if opts.connect.is_none() {
        let rate = streams[0].header.sample_rate_hz.unwrap_or(500e3);
        let mut config = DaemonConfig::new(daemon_defaults(opts));
        config.default_sample_rate_hz = rate;
        match Daemon::start(config) {
            Ok(d) => Some(d),
            Err(e) => {
                eprintln!("stress: failed to start in-process daemon: {e}");
                return 1;
            }
        }
    } else {
        None
    };
    let ingest = match (&opts.connect, &local) {
        (Some(addr), _) => addr.clone(),
        (None, Some(d)) => d.ingest_addr().to_string(),
        (None, None) => unreachable!("no daemon"),
    };

    // With --cf32-dir, write each stream to a capture file first and
    // upload through the replay-file path — CI uses this to exercise
    // `.cf32` ingest over TCP with the real binaries.
    let captures: Vec<Option<std::path::PathBuf>> = match &opts.cf32_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("stress: cannot create {}: {e}", dir.display());
                return 1;
            }
            let mut paths = Vec::new();
            for s in &streams {
                let path = dir.join(format!("{}.cf32", s.name));
                if let Err(e) = std::fs::write(&path, protocol::encode_cf32le(&s.rendered.samples))
                {
                    eprintln!("stress: cannot write {}: {e}", path.display());
                    return 1;
                }
                paths.push(Some(path));
            }
            paths
        }
        None => vec![None; streams.len()],
    };

    // Drive every stream concurrently over real sockets.
    let uploads: Vec<_> = streams
        .iter()
        .zip(captures)
        .map(|(s, capture)| {
            let addr = ingest.clone();
            let header = s.header.clone();
            let samples = s.rendered.samples.clone();
            let pace = if opts.pace == 0.0 {
                Pace::Unlimited
            } else {
                Pace::SamplesPerSec(opts.pace * header.sample_rate_hz.unwrap_or(500e3))
            };
            std::thread::spawn(move || match capture {
                Some(path) => client::stream_file(addr, &header, &path, pace),
                None => client::stream_samples(addr, &header, &samples, pace),
            })
        })
        .collect();
    // Metrics: the in-process daemon's port, or --metrics-addr. One scrape
    // while the fleet is streaming — the endpoint must answer mid-load
    // with a well-formed document — and the full check once it is done.
    let metrics_addr = match (&local, &opts.metrics_addr) {
        (_, Some(addr)) => Some(addr.clone()),
        (Some(d), None) => d.metrics_addr().map(|a| a.to_string()),
        (None, None) => None,
    };
    let mut failures: Vec<String> = Vec::new();
    if let Some(addr) = &metrics_addr {
        match client::fetch_metrics(addr) {
            Ok(doc) => failures.extend(check_metrics(&doc, &[])),
            Err(e) => failures.push(format!("mid-stress metrics fetch from {addr} failed: {e}")),
        }
    }
    let transcripts: Vec<std::io::Result<Vec<String>>> = uploads
        .into_iter()
        .map(|h| h.join().expect("upload thread"))
        .collect();

    // Score each stream: bit identity, drops, truth.
    let mut served_names: Vec<(String, usize)> = Vec::new();
    for (stream, transcript) in streams.iter().zip(&transcripts) {
        let lines = match transcript {
            Ok(lines) => lines,
            Err(e) => {
                failures.push(format!("stream {}: transport failed: {e}", stream.name));
                continue;
            }
        };
        let scored = score_healthy(stream, opts, lines);
        served_names.push((scored.served_name, stream.header.channel.unwrap_or(0)));
        failures.extend(scored.failures);
        if !opts.quiet {
            println!("{}", scored.report_line);
        }
    }

    match metrics_addr {
        Some(addr) => match client::fetch_metrics(&addr) {
            Ok(doc) => {
                // Metrics lines carry the daemon-assigned names too.
                failures.extend(check_metrics(&doc, &served_names));
            }
            Err(e) => failures.push(format!("metrics fetch from {addr} failed: {e}")),
        },
        None => {
            if !opts.quiet {
                println!("stress: no metrics address known; skipping the metrics check");
            }
        }
    }

    if let Some(daemon) = local {
        daemon.shutdown();
    }
    if failures.is_empty() {
        println!(
            "stress PASS: {} streams bit-identical to batch decode, zero ring drops",
            streams.len()
        );
        0
    } else {
        for f in &failures {
            eprintln!("stress FAIL: {f}");
        }
        1
    }
}

/// Entry point for `netscatter stress`: parses flags and runs the harness.
pub fn stress_main(args: &[String]) -> i32 {
    match parse_stress_args(args) {
        Ok(opts) => run_stress(&opts),
        Err(e) => {
            if e.code == 0 {
                println!("{}", e.message);
            } else {
                eprintln!("{}", e.message);
                eprintln!("run `netscatter stress --help` for usage");
            }
            e.code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stress_flags_parse_with_shared_experiment_semantics() {
        let opts = parse_stress_args(&args(&[
            "--streams",
            "6",
            "--seed",
            "7",
            "--arrival-rate",
            "25",
            "--pace",
            "0",
            "--quiet",
        ]))
        .expect("flags parse");
        assert_eq!(opts.streams, 6);
        assert_eq!(opts.scenario.seed, 7);
        assert_eq!(opts.scenario.arrival_rate, 25.0);
        assert_eq!(opts.pace, 0.0);
        assert!(opts.quiet);
        // Stress defaults override the Scenario defaults…
        assert_eq!(opts.scenario.devices, 8);
        assert_eq!(opts.scenario.payload_bits, 8);
        assert_eq!(opts.scenario.stream_secs, 0.5);
        // …and the user's flags override the stress defaults.
        let opts = parse_stress_args(&args(&["--devices", "4"])).unwrap();
        assert_eq!(opts.scenario.devices, 4);
    }

    #[test]
    fn chaos_flags_parse() {
        let opts = parse_stress_args(&args(&["--streams", "2"])).unwrap();
        assert!(!opts.chaos, "chaos must be opt-in");
        assert_eq!(opts.expect_max_conns, 0);
        let opts = parse_stress_args(&args(&["--chaos", "--expect-max-conns", "16"])).unwrap();
        assert!(opts.chaos);
        assert_eq!(opts.expect_max_conns, 16);
        let err = parse_stress_args(&args(&["--expect-max-conns", "none"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn stress_rejects_bad_flags_like_the_shared_parser() {
        for bad in [
            vec!["--streams", "0"],
            vec!["--streams", "many"],
            vec!["--ring-slots", "0"],
            vec!["--ring-slots", "4097"],
            vec!["--chunk-samples", "1000000000000"],
            vec!["--pace", "-1"],
            vec!["--arrival-rate", "0"],
            vec!["--frobnicate"],
        ] {
            let err = parse_stress_args(&args(&bad)).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}");
        }
        // Shared-parser flags the harness would silently ignore are named
        // in the refusal.
        for bad in [
            vec!["--fidelity", "sample"],
            vec!["--placement", "hall"],
            vec!["--channel", "outdoor"],
            vec!["--scheme", "netscatter"],
            vec!["--quick"],
            vec!["--paper"],
            vec!["--format", "json"],
            vec!["--out", "x.json"],
        ] {
            let err = parse_stress_args(&args(&bad)).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}");
            assert!(err.message.contains(bad[0]), "{bad:?}: {}", err.message);
        }
        assert_eq!(parse_stress_args(&args(&["--help"])).unwrap_err().code, 0);
    }

    #[test]
    fn truth_scoring_counts_found_rounds_and_missed_bits() {
        use crate::stream::StreamRoundTruth;
        let round_at = |start_sample| StreamRoundTruth {
            start_sample,
            sent: vec![Some(vec![true, false]), None],
        };
        let stream = RenderedStream {
            samples: Vec::new(),
            truth: vec![round_at(1000), round_at(50_000), round_at(90_000)],
            assigned_bins: vec![3, 9],
            detection_floor_fraction: 0.0,
            round_samples: 400,
            sample_rate_hz: 500e3,
        };
        let packet = |index, start_sample, bits: Option<Vec<bool>>| DecodedPacket {
            index,
            start_sample,
            round: netscatter::receiver::DecodedRound {
                devices: bits
                    .into_iter()
                    .map(|bits| netscatter::receiver::DecodedDevice {
                        chirp_bin: 3,
                        preamble_power: 1.0,
                        bits,
                    })
                    .collect(),
            },
        };
        // A decode near the first round with one bit wrong, nothing near
        // the second, and at the third an empty decode that lies nearer the
        // true start than the real one: the round pairs with the decode
        // that carries devices, the empty one is a false alarm.
        let packets = vec![
            packet(0, 1010, Some(vec![true, true])),
            packet(1, 90_002, None),
            packet(2, 90_050, Some(vec![true, false])),
        ];
        let mut score = StreamScore::default();
        score.tally(&stream, &packets);
        assert_eq!(
            score,
            StreamScore {
                rounds_offered: 3,
                rounds_decoded: 2,
                false_alarms: 1,
                transmitted_devices: 3,
                delivered_devices: 1,
                transmitted_bits: 6,
                // One bit of the first round, both bits of the missed one.
                error_bits: 3,
            }
        );
    }

    #[test]
    fn coding_flag_parses_and_validates_frame_geometry() {
        let opts =
            parse_stress_args(&args(&["--coding", "conv", "--payload-bits", "108"])).unwrap();
        assert_eq!(opts.scenario.coding, CodingScheme::Conv);
        assert_eq!(opts.scenario.payload_bits, 108);
        // The default stays uncoded ("none" spells it out explicitly).
        assert_eq!(
            parse_stress_args(&args(&[])).unwrap().scenario.coding,
            CodingScheme::None
        );
        assert_eq!(
            parse_stress_args(&args(&["--coding", "none"]))
                .unwrap()
                .scenario
                .coding,
            CodingScheme::None
        );
        // The stress default of 8 payload bits cannot carry a Hamming
        // frame; the shared parser's geometry validation rejects it.
        let err = parse_stress_args(&args(&["--coding", "hamming"])).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        let err = parse_stress_args(&args(&["--coding", "turbo"])).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
    }

    #[test]
    fn channels_flag_spreads_the_fleet_over_shards() {
        let opts = parse_stress_args(&args(&["--streams", "4", "--channels", "2"])).unwrap();
        assert_eq!(opts.scenario.channels, 2);
        let deployment = Deployment::generate(
            DeploymentConfig::office(opts.scenario.devices.max(16)),
            &mut StdRng::seed_from_u64(DEPLOYMENT_SEED),
        );
        let tags: Vec<usize> = (0..4)
            .map(|i| synthesize(&deployment, &opts, i).header.channel.unwrap())
            .collect();
        assert_eq!(tags, vec![0, 1, 0, 1]);
        // The shared parser's zero rejection applies.
        let err = parse_stress_args(&args(&["--channels", "0"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn metrics_checker_flags_missing_streams_and_garbage_lines() {
        let doc = format!(
            "{}\nnetscatterd_build_info{{version=\"0.0.0\"}} 1\n\
             netscatterd_streams_total 1\n\
             netscatterd_aggregate_msamples_per_sec 1.5\n\
             netscatterd_channel_streams{{channel=\"0\"}} 1\n\
             netscatterd_channel_samples_total{{channel=\"0\"}} 4096\n\
             netscatterd_channel_msamples_per_sec{{channel=\"0\"}} 1.5\n\
             netscatterd_stream_msamples_per_sec{{stream=\"a\"}} 1.5\n\
             netscatterd_stream_channel{{stream=\"a\"}} 0\n\
             netscatterd_stream_rounds_decoded{{stream=\"a\"}} 0\n\
             netscatterd_stream_false_alarms{{stream=\"a\"}} 0\n\
             netscatterd_stream_frames_ok{{stream=\"a\"}} 0\n\
             netscatterd_stream_frames_failed_crc{{stream=\"a\"}} 0\n\
             netscatterd_stream_ring_dropped{{stream=\"a\"}} 0\n\
             netscatterd_stream_frame_latency_seconds_count{{stream=\"a\"}} 0\n",
            netscatter_daemon::metrics::METRICS_HEADER
        );
        assert!(check_metrics(&doc, &[("a".to_string(), 0)]).is_empty());
        let fails = check_metrics(&doc, &[("a".to_string(), 0), ("b".to_string(), 0)]);
        assert_eq!(fails.len(), 8, "{fails:?}");
        assert!(fails[0].contains("lack stream b"));
        assert!(fails[1].contains("channel tag for stream b"));
        assert!(fails[2].contains("rounds_decoded for stream b"));
        assert!(fails[3].contains("false_alarms for stream b"));
        assert!(fails[4].contains("frames_ok for stream b"));
        assert!(fails[5].contains("frames_failed_crc for stream b"));
        assert!(fails[6].contains("ring_dropped for stream b"));
        assert!(fails[7].contains("frame latency histogram for stream b"));
        // The v2 build_info line is part of the schema.
        let fails = check_metrics(
            &doc.replace("netscatterd_build_info{version=\"0.0.0\"} 1\n", ""),
            &[("a".to_string(), 0)],
        );
        assert!(fails.iter().any(|f| f.contains("build_info")), "{fails:?}");
        // Dropping a frame-counter line for a known stream is a failure.
        let fails = check_metrics(
            &doc.replace("netscatterd_stream_frames_ok{stream=\"a\"} 0\n", ""),
            &[("a".to_string(), 0)],
        );
        assert!(
            fails.iter().any(|f| f.contains("frames_ok for stream a")),
            "{fails:?}"
        );
        // A stream tagged on a channel the document does not roll up.
        let fails = check_metrics(&doc, &[("a".to_string(), 1)]);
        assert!(fails.iter().any(|f| f.contains("channel 1")), "{fails:?}");
        // A channel tag that contradicts the header.
        let fails = check_metrics(
            &doc.replace(
                "netscatterd_stream_channel{stream=\"a\"} 0",
                "netscatterd_stream_channel{stream=\"a\"} 2",
            ),
            &[("a".to_string(), 0)],
        );
        assert!(
            fails.iter().any(|f| f.contains("header said 0")),
            "{fails:?}"
        );
        let garbage = format!(
            "{}\nwhat even is this\n",
            netscatter_daemon::metrics::METRICS_HEADER
        );
        assert!(!check_metrics(&garbage, &[]).is_empty());
    }
}
