//! The traced run: each layer timed from outside, through its public
//! functions.
//!
//! The probe assembles the daemon's per-stream pipeline itself, serially
//! and in-process — `Cf32Decoder::push` → `spsc_ring` push/pop →
//! `StreamDetector::push` → `ConcurrentReceiver::decode_round` →
//! `FrameCodec::decode_frame` → `frame_json(..).to_string_line()` — with
//! one span around every call. Self times per layer must add up to the
//! pass (the budget closes), and the frame lines it renders are the batch
//! reference the daemon's output is compared with byte for byte. The same
//! module then runs the threaded engine in-process: saturated
//! (`run_stream`, blocking ring) and paced (`feed`/`drain_timed`), which
//! is the daemon's latency with the socket taken away.

use crate::daemon::{RING_SLOTS, WORKERS};
use crate::loadgen::{offered_rounds, sample_due_s};
use crate::score::{self, Record};
use crate::stats;
use crate::sys::{self, Placement};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Capture, Offer, Workload, DECLARED_RATE_HZ};
use crate::Metric;
use netscatter::receiver::ConcurrentReceiver;
use netscatter_daemon::protocol::{self, Cf32Decoder, SAMPLE_BYTES};
use netscatter_dsp::fft::Fft;
use netscatter_dsp::{kernels, Complex64};
use netscatter_gateway::detect::DetectorState;
use netscatter_gateway::ring::spsc_ring;
use netscatter_gateway::{
    run_stream, DecodedPacket, GatewayConfig, OverflowPolicy, PacketSpan, StreamDetector,
    StreamEngine, StreamSource,
};
use netscatter_phy::params::PhyProfile;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Loops of a paced capture the serial passes and the saturated engine run
/// cover (a churn capture is a whole stream and runs once).
pub const PROBE_LOOPS: u64 = 3;

/// The gateway configuration the daemon assembles for `capture`'s header
/// under the flags the benchmark starts it with.
fn gateway_config(w: &Workload, capture: &Capture) -> GatewayConfig {
    let mut cfg = GatewayConfig::new(PhyProfile::default(), capture.bins.clone(), w.payload_bits);
    cfg.ring_slots = RING_SLOTS;
    cfg.workers = WORKERS;
    cfg.overflow = OverflowPolicy::DropOldest;
    cfg.detection_floor_fraction = capture.header.detection_floor;
    cfg
}

/// A `frame` line with its stream name cut off (the daemon uniquifies
/// names; everything from `"index"` on must match byte for byte).
pub fn normalise_frame(line: &str) -> &str {
    line.find(",\"index\":").map_or(line, |at| &line[at..])
}

/// What one serial pass over the workload's captures produced and counted.
#[derive(Default)]
struct SerialPass {
    /// Frame lines per capture, with the packet's last sample.
    frames: Vec<Vec<(u64, String)>>,
    wall_ns: u64,
    samples: u64,
    gate_samples: u64,
    rounds: u64,
    devices: u64,
    link_frames: u64,
    crc_ok: u64,
    frame_bytes: u64,
    truncated: u64,
}

/// Runs the serial pipeline over every capture (`loops` times each, as one
/// continuous stream), shaped like the daemon's serving loop: 32 KiB
/// reads, 4096-sample chunks, the sub-chunk tail flushed at the end.
fn serial_pass(
    w: &Workload,
    captures: &[Capture],
    loops: u64,
    tracer: &mut Tracer,
) -> Result<SerialPass, String> {
    let codec = w.codec()?;
    let mut pass = SerialPass::default();
    let started = Instant::now();
    let root = tracer.open("probe.serial");
    for capture in captures {
        let cfg = gateway_config(w, capture);
        let chunk = cfg.chunk_samples;
        // What `StreamEngine::spawn` builds per stream, minus the threads.
        let t = tracer.begin();
        let mut decoder = Cf32Decoder::new();
        let (ring_tx, ring_rx) = spsc_ring::<Vec<Complex64>>(cfg.ring_slots);
        let mut detector = StreamDetector::new(&cfg).map_err(|e| e.to_string())?;
        let receiver: ConcurrentReceiver = detector.receiver().clone();
        tracer.end("detect.setup", t, root, None);
        let mut pending: Vec<Complex64> = Vec::with_capacity(2 * chunk);
        let mut spans: Vec<PacketSpan> = Vec::new();
        let mut frames = Vec::new();

        // One chunk through ring, detector, decode, codec and emit.
        let mut feed = |samples: &[Complex64],
                        tracer: &mut Tracer,
                        pass: &mut SerialPass|
         -> Result<(), String> {
            let t = tracer.begin();
            ring_tx
                .push(samples.to_vec())
                .map_err(|_| "probe ring closed")?;
            let popped = ring_rx.pop().ok_or("probe ring empty")?;
            tracer.end("ring.push_pop", t, root, None);

            let hunting_before = detector.state() == DetectorState::Hunting;
            let t = tracer.begin();
            detector.push(&popped, &mut spans);
            let gate_only =
                hunting_before && spans.is_empty() && detector.state() == DetectorState::Hunting;
            let name = if gate_only {
                "detect.gate"
            } else {
                "detect.sync"
            };
            tracer.end(name, t, root, None);
            if gate_only {
                pass.gate_samples += popped.len() as u64;
            }

            for span in spans.drain(..) {
                let t = tracer.begin();
                let round = receiver
                    .decode_round(&span.samples, 0, &cfg.assigned_bins, cfg.payload_symbols)
                    .map_err(|e| e.to_string())?;
                tracer.end("receiver.decode_round", t, root, Some(span.index));
                let packet = DecodedPacket {
                    index: span.index,
                    start_sample: span.start_sample,
                    round,
                };
                let outcomes = codec.as_ref().map(|c| {
                    packet
                        .round
                        .devices
                        .iter()
                        .map(|d| {
                            let t = tracer.begin();
                            let out = c.decode_frame(&d.bits);
                            tracer.end("frame.decode_frame", t, root, Some(span.index));
                            out
                        })
                        .collect::<Vec<_>>()
                });
                let t = tracer.begin();
                let line =
                    protocol::frame_json("probe", &packet, outcomes.as_deref()).to_string_line();
                tracer.end("protocol.frame_json", t, root, Some(span.index));

                pass.rounds += 1;
                pass.devices += packet.round.devices.len() as u64;
                for out in outcomes.iter().flatten() {
                    pass.link_frames += 1;
                    pass.crc_ok += u64::from(out.crc_ok);
                }
                // What the daemon writes: the line and its newline.
                pass.frame_bytes += line.len() as u64 + 1;
                let last = span.start_sample + span.samples.len() as u64 - 1;
                frames.push((last, line));
            }
            Ok(())
        };

        for _ in 0..loops {
            for read in capture.bytes.chunks(chunk * SAMPLE_BYTES) {
                let t = tracer.begin();
                decoder.push(read, &mut pending);
                tracer.end("protocol.cf32_decode", t, root, None);
                let mut fed = 0;
                while pending.len() - fed >= chunk {
                    feed(&pending[fed..fed + chunk], tracer, &mut pass)?;
                    fed += chunk;
                }
                pending.drain(..fed);
            }
        }
        if !pending.is_empty() {
            feed(&pending, tracer, &mut pass)?;
        }
        detector.finish();
        pass.truncated += detector.truncated() as u64;
        pass.samples += loops * capture.samples();
        pass.frames.push(frames);
    }
    tracer.close(root);
    pass.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(pass)
}

/// Whether the serial reference decodes every round of `capture` right:
/// two loops of a paced capture, so the wrap is covered, one pass of a
/// churn capture, scored the way a connection's transcript is.
pub fn decodes_clean(w: &Workload, capture: &Capture) -> Result<bool, String> {
    let loops = match w.offer {
        Offer::Paced { .. } => 2,
        Offer::Churn => 1,
    };
    let one = std::slice::from_ref(capture);
    let pass = serial_pass(w, one, loops, &mut Tracer::new(false))?;
    let codec = w.codec()?;
    let expect = score::expectations(capture, codec.as_ref());
    let offered = offered_rounds(capture, &expect, loops * capture.samples(), 1.0, 0.0, 0.0);
    let frames: Vec<_> = pass.frames[0]
        .iter()
        .filter_map(|(_, line)| match score::parse_record(line, 0.0) {
            Record::Frame(frame) => Some(frame),
            _ => None,
        })
        .collect();
    let tolerance = capture.round_samples / 2;
    let scored = score::score(&offered, &frames, tolerance, f64::INFINITY, codec.is_some());
    Ok(scored.failed == 0)
}

/// A [`StreamSource`] that replays a sample buffer a number of times.
struct LoopSource<'a> {
    samples: &'a [Complex64],
    cursor: usize,
    loops_left: u64,
}

impl StreamSource for LoopSource<'_> {
    fn fill(&mut self, out: &mut [Complex64]) -> usize {
        let mut written = 0;
        while written < out.len() && self.loops_left > 0 {
            let n = (out.len() - written).min(self.samples.len() - self.cursor);
            out[written..written + n].copy_from_slice(&self.samples[self.cursor..self.cursor + n]);
            written += n;
            self.cursor += n;
            if self.cursor == self.samples.len() {
                self.cursor = 0;
                self.loops_left -= 1;
            }
        }
        written
    }

    fn sample_rate_hz(&self) -> f64 {
        DECLARED_RATE_HZ
    }
}

/// Decodes a capture's bytes back into the samples the daemon sees.
fn samples_of(capture: &Capture) -> Vec<Complex64> {
    let mut samples = Vec::with_capacity(capture.samples() as usize);
    Cf32Decoder::new().push(&capture.bytes, &mut samples);
    samples
}

/// Runs `f` with the calling thread — and the threads `f` starts — on
/// `cpus`, then puts the caller back on `back`.
fn on_cpus<T>(cpus: &[usize], back: &[usize], f: impl FnOnce() -> T) -> Result<T, String> {
    sys::confine_to(cpus).map_err(|e| format!("sched_setaffinity: {e}"))?;
    let out = f();
    sys::confine_to(back).map_err(|e| format!("sched_setaffinity: {e}"))?;
    Ok(out)
}

/// The threaded engine at saturation: `run_stream` with a blocking ring
/// and one worker over every capture, feeder and engine threads on the
/// daemon's CPU as the serving thread and its engine are. Returns
/// Msamples/s.
fn engine_block_msps(w: &Workload, captures: &[Capture], loops: u64) -> Result<f64, String> {
    let (mut samples_in, mut elapsed_s) = (0u64, 0f64);
    for capture in captures {
        let mut cfg = gateway_config(w, capture);
        cfg.overflow = OverflowPolicy::Block;
        let samples = samples_of(capture);
        let mut source = LoopSource {
            samples: &samples,
            cursor: 0,
            loops_left: loops,
        };
        let report = run_stream(&mut source, &cfg).map_err(|e| e.to_string())?;
        samples_in += report.samples_in;
        elapsed_s += report.elapsed_s;
    }
    Ok(samples_in as f64 / elapsed_s / 1e6)
}

/// The threaded engine paced like the socket run but fed in-process:
/// `feed` a chunk when its last sample is due, `drain_timed` in between,
/// and time each packet from the feed that completed it to the drain that
/// returned it. Returns the ingest→emit latencies in milliseconds.
fn engine_paced_latencies_ms(
    w: &Workload,
    capture: &Capture,
    rate_sps: f64,
    seconds: f64,
    placement: &Placement,
) -> Result<Vec<f64>, String> {
    let cfg = gateway_config(w, capture);
    let chunk = cfg.chunk_samples;
    let samples = samples_of(capture);
    // The engine's threads where the daemon's are; the feeder stays where
    // the generator's writer is.
    let mut engine = on_cpus(&placement.daemon, &placement.generator, || {
        StreamEngine::spawn(&cfg, DECLARED_RATE_HZ).map_err(|e| e.to_string())
    })??;
    let mut latencies = Vec::new();
    let mut collect = |engine: &mut StreamEngine| {
        for timed in engine.drain_timed() {
            latencies.push(timed.ingested_at.elapsed().as_secs_f64() * 1e3);
        }
    };
    let t0 = Instant::now();
    let chunks = (seconds * rate_sps / chunk as f64) as u64;
    let mut piece = Vec::with_capacity(chunk);
    for k in 0..chunks {
        let due = t0 + Duration::from_secs_f64(sample_due_s(rate_sps, (k + 1) * chunk as u64 - 1));
        while let Some(wait) = due.checked_duration_since(Instant::now()) {
            collect(&mut engine);
            std::thread::sleep(wait.min(Duration::from_micros(100)));
        }
        let at = (k as usize * chunk) % samples.len();
        piece.clear();
        piece.extend_from_slice(&samples[at..(at + chunk).min(samples.len())]);
        let wrapped = chunk - piece.len();
        piece.extend_from_slice(&samples[..wrapped]);
        engine.feed(&piece).map_err(|e| e.to_string())?;
        collect(&mut engine);
    }
    engine.shutdown().map_err(|e| e.to_string())?;
    Ok(latencies)
}

/// Median seconds of one call of `f`, over `batches` batches of `calls`.
fn median_call_s(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_call = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    stats::median(&stats::sorted(per_call))
}

/// The two DSP kernels under the receiver and the detector, on one
/// 512-sample symbol of the capture: the input-pruned zero-padded FFT
/// (µs per symbol) and the f32 dechirp (ns per sample).
fn dsp_kernels(capture: &Capture) -> Result<(f64, f64), String> {
    let profile = PhyProfile::default();
    let n = profile.modulation.num_bins();
    let at = capture.truth.first().map_or(0, |r| r.start_sample as usize);
    let mut symbol: Vec<Complex64> = Vec::with_capacity(n);
    Cf32Decoder::new().push(
        &capture.bytes[at * SAMPLE_BYTES..(at + n) * SAMPLE_BYTES],
        &mut symbol,
    );
    let fft = Fft::new(n * profile.zero_padding).map_err(|e| e.to_string())?;
    let mut spectrum = Vec::new();
    let fft_s = median_call_s(20, 100, || {
        fft.forward_zero_padded_into(black_box(&symbol), &mut spectrum)
            .expect("symbol fits the plan");
        black_box(&spectrum);
    });
    let re: Vec<f32> = symbol.iter().map(|s| s.re as f32).collect();
    let im: Vec<f32> = symbol.iter().map(|s| s.im as f32).collect();
    let (mut out_re, mut out_im) = (vec![0f32; n], vec![0f32; n]);
    let dechirp_s = median_call_s(20, 1000, || {
        kernels::dechirp_f32(
            black_box(&re),
            black_box(&im),
            black_box(&im),
            black_box(&re),
            &mut out_re,
            &mut out_im,
        );
        black_box((&out_re, &out_im));
    });
    Ok((fft_s * 1e6, dechirp_s * 1e9 / n as f64))
}

/// Everything the traced run learns without the daemon.
pub struct ProbeOutcome {
    /// Per capture: each reference frame line with the stream index of its
    /// packet's last sample.
    pub frames: Vec<Vec<(u64, String)>>,
    /// The probe's per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The traced pass's spans, for the trace file.
    pub spans: Vec<Span>,
    /// Layer self times over the serial total; the budget closes within
    /// 0.97–1.03.
    pub layers_sum_frac: f64,
    /// Median ingest→emit latency of the paced in-process engine, ms
    /// (`None` on churn, which is never paced).
    pub engine_p50_ms: Option<f64>,
}

/// Runs the probe for `w`. `loops` is how often a paced capture is
/// replayed; `engine_secs` is how long the paced in-process engine runs.
pub fn run(
    w: &Workload,
    captures: &[Capture],
    loops: u64,
    engine_secs: f64,
    placement: &Placement,
) -> Result<ProbeOutcome, String> {
    // Three passes: one discarded (it pays the first-touch page faults),
    // one traced, one with the tracer switched off to price the tracing.
    serial_pass(w, captures, loops, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let pass = serial_pass(w, captures, loops, &mut tracer)?;
    let plain = serial_pass(w, captures, loops, &mut Tracer::new(false))?;
    let spans = tracer.into_spans();
    let layers = trace::by_layer(&spans);
    let cost = |name: &str| layers.get(name).copied().unwrap_or_default();

    // Every span but the root is a layer call; what is left of the root is
    // the probe's own glue.
    let serial_ns: u64 = layers.values().map(|c| c.self_ns).sum();
    let layers_sum_frac = 1.0 - cost("probe.serial").self_ns as f64 / serial_ns as f64;
    let (fft_us, dechirp_ns) = dsp_kernels(&captures[0])?;
    let block_msps = on_cpus(&placement.daemon, &placement.generator, || {
        engine_block_msps(w, captures, loops)
    })??;
    let engine_ms = match w.offer {
        Offer::Paced { rate_sps } => stats::sorted(engine_paced_latencies_ms(
            w,
            &captures[0],
            rate_sps,
            engine_secs,
            placement,
        )?),
        // A churn connection is never paced; its engine cost is spawn and
        // teardown, which `engine.block_msps` over the short streams holds.
        Offer::Churn => Vec::new(),
    };
    let engine_p = |p| stats::percentile(&engine_ms, p, 0);

    let mut metrics = Vec::new();
    let mut put = |name, value: f64, unit, n: u64| {
        metrics.push(Metric {
            name,
            value,
            unit,
            n: n as usize,
        })
    };
    // A layer's self time per unit of its work, and the units counted.
    let mut per = |name, layer: &str, scale: f64, unit, count: u64| {
        let each = cost(layer).self_ns as f64 / count.max(1) as f64;
        put(name, each / scale, unit, count);
    };
    let streams = captures.len() as u64;
    let chunks = cost("ring.push_pop").calls;
    per(
        "protocol.cf32_decode_ns_per_sample",
        "protocol.cf32_decode",
        1.0,
        "ns",
        pass.samples,
    );
    per(
        "protocol.frame_json_us_per_frame",
        "protocol.frame_json",
        1e3,
        "us",
        pass.rounds,
    );
    per(
        "ring.push_pop_ns_per_chunk",
        "ring.push_pop",
        1.0,
        "ns",
        chunks,
    );
    per(
        "detect.setup_us_per_stream",
        "detect.setup",
        1e3,
        "us",
        streams,
    );
    per(
        "detect.gate_ns_per_sample",
        "detect.gate",
        1.0,
        "ns",
        pass.gate_samples,
    );
    per(
        "detect.sync_us_per_round",
        "detect.sync",
        1e3,
        "us",
        pass.rounds,
    );
    per(
        "receiver.decode_round_us_per_round",
        "receiver.decode_round",
        1e3,
        "us",
        pass.rounds,
    );
    per(
        "frame.decode_frame_us_per_round",
        "frame.decode_frame",
        1e3,
        "us",
        pass.rounds,
    );
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    put(
        "protocol.frame_bytes_per_frame",
        ratio(pass.frame_bytes, pass.rounds),
        "B",
        pass.rounds,
    );
    put(
        "detect.gate_sample_share",
        ratio(pass.gate_samples, pass.samples),
        "fraction",
        pass.samples,
    );
    put("detect.spans", pass.rounds as f64, "count", pass.rounds);
    put(
        "receiver.devices_per_round",
        ratio(pass.devices, pass.rounds),
        "count",
        pass.rounds,
    );
    put(
        "frame.crc_ok_frac",
        ratio(pass.crc_ok, pass.link_frames),
        "fraction",
        pass.link_frames,
    );
    put("dsp.fft_zero_padded_us", fft_us, "us", 2_000);
    put("dsp.dechirp_f32_ns_per_sample", dechirp_ns, "ns", 20_000);
    put("engine.block_msps", block_msps, "Msps", pass.samples);
    let timed = engine_ms.len() as u64;
    put(
        "engine.ingest_to_emit_p50_ms",
        engine_p(0.50).unwrap_or(0.0),
        "ms",
        timed,
    );
    put(
        "engine.ingest_to_emit_p95_ms",
        engine_p(0.95).unwrap_or(0.0),
        "ms",
        timed,
    );
    put(
        "probe.serial_ns_per_sample",
        ratio(serial_ns, pass.samples),
        "ns",
        pass.samples,
    );
    put(
        "probe.layers_sum_frac",
        layers_sum_frac,
        "fraction",
        spans.len() as u64,
    );
    put(
        "probe.trace_overhead_frac",
        pass.wall_ns as f64 / plain.wall_ns as f64 - 1.0,
        "fraction",
        spans.len() as u64,
    );
    Ok(ProbeOutcome {
        frames: pass.frames,
        metrics,
        spans,
        layers_sum_frac,
        engine_p50_ms: engine_p(0.50),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_lines_compare_from_the_index_field_on() {
        let a = r#"{"type":"frame","stream":"dense256-0","index":4,"start_sample":9,"devices":[]}"#;
        let b =
            r#"{"type":"frame","stream":"dense256-0#3","index":4,"start_sample":9,"devices":[]}"#;
        assert_eq!(normalise_frame(a), normalise_frame(b));
        assert_eq!(
            normalise_frame(a),
            r#","index":4,"start_sample":9,"devices":[]}"#
        );
        assert_ne!(
            normalise_frame(a),
            normalise_frame(&a.replace(":9,", ":8,"))
        );
    }

    #[test]
    fn a_loop_source_replays_its_buffer_the_stated_number_of_times() {
        let samples: Vec<Complex64> = (0..5).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let mut source = LoopSource {
            samples: &samples,
            cursor: 0,
            loops_left: 2,
        };
        let mut out = vec![Complex64::ZERO; 4];
        let mut seen = Vec::new();
        loop {
            let got = source.fill(&mut out);
            seen.extend(out[..got].iter().map(|s| s.re as usize));
            if got < out.len() {
                break;
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
    }
}
