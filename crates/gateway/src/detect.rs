//! The online packet-detection state machine.
//!
//! The batch receiver is handed a pre-aligned round buffer; the gateway is
//! not. [`StreamDetector`] consumes an unbounded stream chunk by chunk and
//! finds the packets on its own, in three stages (one per state):
//!
//! 1. **Energy gate** (`Hunting`) — a sliding [`GATE_WINDOW`]-sample power
//!    average is compared against a gate derived from a running noise-floor
//!    estimate. Cheap (one multiply-add per sample), so the idle stream
//!    costs almost nothing. A window sum that is not finite (a NaN or
//!    Inf sample) restarts the window and leaves the floor alone.
//! 2. **Preamble sync** (`Syncing`) — around the gated onset, the packet
//!    start is located by cross-correlating candidate offsets against the
//!    *assigned-bin comb over the up/down preamble structure*: each
//!    candidate's six upchirps are correlated against every assigned
//!    cyclic-shift upchirp template, its two downchirps against each
//!    shift's mirrored downchirp template, and the candidate maximizing
//!    the summed *per-device minimum* of the two measurements wins.
//!
//!    The comb is evaluated by `netscatter_dsp::correlator::ChirpBank`:
//!    dechirp a symbol and take one critically-sampled `n`-point FFT —
//!    bin `b` *is* the correlation against the shift-`b` template, so one
//!    transform scores every device at once (the paper's single FFT for
//!    all concurrent transmissions), at a cost independent of the
//!    population size. Candidates are one sample apart, so each preamble
//!    symbol is transformed once and every further candidate is a rank-one
//!    slide of that spectrum (`ChirpBank::sliding_bank_into`; DESIGN.md →
//!    *Preamble-sync evaluator*). This is exactly the quantity a padded-
//!    spectrum comb measures at the integer assigned bins of the dechirped
//!    symbols; a test pins the two against each other. Each comb
//!    ingredient kills one ambiguity a blind dechirp-sharpness metric
//!    cannot resolve:
//!
//!    * the preamble repeats identical upchirps, so any window offset into
//!      the repetition is just another cyclic shift at full peak power —
//!      but a one-sample offset moves every tone one whole chirp bin off
//!      its assignment (critical sampling), collapsing the on-bin comb to
//!      its orthogonal-DFT zeros;
//!    * at full SKIP-`k` occupancy a `k`-sample offset permutes the tones
//!      *onto other assigned bins*, leaving every power-sum comb almost
//!      unchanged — the permutation travels with the devices, the up/down
//!      mirror symmetry cancels, and the power-aware allocator makes
//!      spectral neighbours deliberately similar in strength, so no
//!      preamble-interior statistic can tell the lattice shifts apart. The
//!      comb therefore only *shortlists* the shift lattice, and the winner
//!      is the shortlisted candidate **nearest the leading-edge anchor**:
//!      the first sample of the sync range whose individual power clears
//!      [`EDGE_ANCHOR_DB`] over the noise floor. That resolves shifts of a
//!      couple of samples, which windowed energy contrast, with its
//!      √δ-sample statistics, cannot. Its known failure is a *pre-packet*
//!      noise sample: idle noise clears the 10 dB anchor threshold with
//!      p = e⁻¹⁰ ≈ 4.5·10⁻⁵ per sample, and one that lands more than
//!      [`SYNC_SLACK`] samples ahead of the packet leaves the true start
//!      outside the scored candidates. Through `StreamGateway` that lost or
//!      misanchored 9 of 17 956 rounds at 16 devices and 1 of 2 702 at 64
//!      and 256 devices (ROADMAP finding F9; the fix is ROADMAP item 1).
//!
//!    The energy gate bounds the uncertainty to `GATE_WINDOW` samples
//!    (plus [`SYNC_SLACK`] for hardware timing offsets), so only a few
//!    dozen candidates are evaluated instead of the unbounded search a
//!    blind receiver would need.
//! 3. **Payload handoff** (`Decoding`) — once the stitched window covers
//!    the full packet, its samples are emitted as a [`PacketSpan`] for the
//!    decode stage. There is no per-device CFO/timing sync: each device
//!    pre-compensates its hardware delay (§3.2.1), so the receiver reads
//!    it at its assigned bin and the half-preamble threshold absorbs the
//!    residual offset's scalloping (§3.3.1).
//!
//! **Overlap-save stitching.** The detector keeps a rolling window of the
//! stream with an absolute sample index for its first element. Chunks are
//! appended, decisions are made purely in absolute-index terms, and only
//! the provably consumed prefix is discarded — so a chirp window spanning
//! any number of chunk boundaries is decoded from exactly the same samples
//! as in a single contiguous buffer. This is what makes the streaming
//! decode *chunk-size invariant*: the equivalence tests pin streaming
//! output to the batch receiver bit for bit under randomized chunk sizes.

use netscatter::receiver::ConcurrentReceiver;
use netscatter_dsp::correlator::ChirpBank;
use netscatter_dsp::fft::FftError;
use netscatter_dsp::units::db_to_linear;
use netscatter_dsp::{kernels, Complex64};
use netscatter_obs::{Counter, Histogram};
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::{PREAMBLE_DOWNCHIRPS, PREAMBLE_SYMBOLS, PREAMBLE_UPCHIRPS};
use std::sync::Arc;
use std::time::Instant;

/// Detection-stage telemetry: how long the detector takes to turn an
/// energy-gate fire into a locked preamble anchor.
///
/// Attached with [`StreamDetector::set_telemetry`]; recording happens on
/// the detection thread only, once per gate event — far off the
/// per-sample hot path. Both clocks matter and they answer different
/// questions: the *samples* histogram is deterministic (how much more
/// stream the sync stage needed, dominated by the candidate range plus
/// the 8-symbol preamble) while the *wall* histogram includes waiting for
/// those samples to arrive and the correlation compute itself.
#[derive(Debug, Default)]
pub struct DetectTelemetry {
    /// Energy-gate fires (state left `Hunting`), decoded or not.
    pub gate_events: Counter,
    /// Stream samples ingested between the gate fire and the anchor lock.
    pub gate_to_anchor_samples: Histogram,
    /// Wall nanoseconds between the gate fire and the anchor lock.
    pub gate_to_anchor_ns: Histogram,
}

/// Sliding-window length (samples) of the energy gate. Short enough to
/// localize the packet onset tightly (it bounds the sync search), long
/// enough to average over noise.
pub const GATE_WINDOW: usize = 16;

/// Extra samples searched on both sides of the energy-gated onset interval
/// during preamble sync, covering the one-sided hardware timing offsets
/// (≲ 2 samples for the COTS population) with margin.
pub const SYNC_SLACK: usize = 4;

/// Per-sample power threshold of the leading-edge anchor, in dB over the
/// noise floor: high enough that idle noise rarely crosses it
/// (`e^{-10} ≈ 5·10⁻⁵` per sample), low enough that a decodable dense
/// round's opening samples almost surely do.
pub const EDGE_ANCHOR_DB: f64 = 10.0;

/// Comb fraction (of the best candidate) a candidate must reach to stay on
/// the edge-anchor shortlist. Lattice-ambiguous candidates sit within
/// ~±15% of each other under fading; off-lattice candidates collapse to a
/// few percent, so the cut sits between with wide margin on both sides.
const COMB_SHORTLIST_FRACTION: f64 = 0.7;

/// Streaming-gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The PHY profile (modulation, zero padding, SKIP) of the population.
    pub profile: PhyProfile,
    /// The cyclic shifts assigned to the population, in deployment order.
    pub assigned_bins: Vec<usize>,
    /// Payload symbols per packet (the round's payload bit count).
    pub payload_symbols: usize,
    /// Samples per producer chunk. A replay session cuts its source into
    /// chunks of exactly this size. The daemon's socket reader feeds chunks
    /// of this size while the detector is behind. When the detector has
    /// taken everything fed so far and the socket has nothing more to give,
    /// it feeds the shorter tail at once. So this is the most samples the
    /// daemon holds back from a busy detector, and the fill wait is bounded
    /// by the sender's write size whenever the detector keeps up.
    pub chunk_samples: usize,
    /// Ring-buffer capacity in chunks.
    pub ring_slots: usize,
    /// Decode worker threads (0 resolves to the available parallelism).
    pub workers: usize,
    /// What the feed side does when the ring is full: block (lossless
    /// replay) or displace the oldest queued chunk with a counted drop
    /// (live socket ingest — never stall the reader).
    pub overflow: crate::ring::OverflowPolicy,
    /// Energy gate in dB over the running noise-floor estimate.
    pub energy_gate_db: f64,
    /// Override for the receiver's detection floor fraction (`None` keeps
    /// the [`ConcurrentReceiver`] default).
    pub detection_floor_fraction: Option<f64>,
    /// Chaos/test hook: a decode worker panics when handed the span with
    /// this sequence number, exercising the engine's panic supervision
    /// (`EngineError::WorkerPanic`). Always `None` in production; the
    /// daemon only honors a header-carried value when started with
    /// `--enable-fault-injection`.
    pub fault_panic_span: Option<usize>,
}

impl GatewayConfig {
    /// A gateway for `assigned_bins` under `profile` with the defaults the
    /// experiments use: 4096-sample chunks, 8 ring slots, auto workers,
    /// 6 dB energy gate.
    pub fn new(profile: PhyProfile, assigned_bins: Vec<usize>, payload_symbols: usize) -> Self {
        Self {
            profile,
            assigned_bins,
            payload_symbols,
            chunk_samples: 4096,
            ring_slots: 8,
            workers: 0,
            overflow: crate::ring::OverflowPolicy::Block,
            energy_gate_db: 6.0,
            detection_floor_fraction: None,
            fault_panic_span: None,
        }
    }

    /// Samples in one full packet (preamble plus payload).
    ///
    /// # Panics
    /// If that count overflows `usize`: `payload_symbols` must be bounded
    /// first, as `netscatterd` bounds a stream's `payload_bits` by its
    /// `MAX_PAYLOAD_BITS` (1024).
    fn packet_samples(&self) -> usize {
        PREAMBLE_SYMBOLS
            .checked_add(self.payload_symbols)
            .and_then(|symbols| symbols.checked_mul(self.profile.modulation.num_bins()))
            .expect("packet length overflows usize: payload_symbols exceeds MAX_PAYLOAD_BITS")
    }
}

/// Where the detection state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorState {
    /// Scanning the stream with the energy gate.
    Hunting,
    /// Energy found; locating the packet start by preamble correlation.
    Syncing,
    /// Start located; accumulating the full packet before handoff.
    Decoding,
}

/// One located packet, ready for the decode stage.
#[derive(Debug, Clone)]
pub struct PacketSpan {
    /// Sequence number in stream order (0-based).
    pub index: usize,
    /// Absolute stream index of the packet's first sample.
    pub start_sample: u64,
    /// The packet's samples (preamble + payload), copied out of the window.
    pub samples: Vec<Complex64>,
}

/// Internal per-state data.
#[derive(Debug, Clone, Copy)]
enum State {
    Hunting,
    /// `lo..=hi` is the absolute candidate range for the packet start.
    Syncing {
        lo: u64,
        hi: u64,
    },
    /// Absolute packet start.
    Decoding {
        start: u64,
    },
}

/// The chunk-stitching online detector. Feed it samples with
/// [`StreamDetector::push`]; it emits [`PacketSpan`]s as packets complete.
#[derive(Debug, Clone)]
pub struct StreamDetector {
    receiver: ConcurrentReceiver,
    /// All-shifts chirp correlation (dechirp + critically-sampled FFT) —
    /// the sync comb's evaluator.
    bank: ChirpBank,
    /// Bank-output scratch (one symbol's correlations against all shifts,
    /// slid from candidate to candidate).
    spec: Vec<Complex64>,
    /// Comb values per sync candidate (scratch).
    combs: Vec<f64>,
    /// The assigned cyclic shifts the sync comb samples.
    bins: Vec<usize>,
    /// Upchirp- and downchirp-comb accumulators, each candidate-major ×
    /// device (sync scratch).
    acc: [Vec<f64>; 2],
    /// Samples in one full packet ([`GatewayConfig::packet_samples`]).
    packet_len: u64,
    energy_gate_factor: f64,
    /// [`EDGE_ANCHOR_DB`] as a linear power ratio.
    edge_anchor_factor: f64,
    /// Rolling stream window; `window[0]` is absolute index `window_start`.
    window: Vec<Complex64>,
    /// Per-sample `|x|²` aligned with `window` (gate/anchor scratch, kept
    /// in f64 so gate decisions are bit-identical to the scalar loop).
    powers: Vec<f64>,
    window_start: u64,
    /// Next absolute sample index the energy gate will examine.
    scan: u64,
    /// Sum of `|x|²` over the last `min(run_len, GATE_WINDOW)` samples
    /// before `scan`.
    sliding_sum: f64,
    /// Consecutive samples accumulated since the gate was last reset.
    run_len: usize,
    /// Estimate of the idle-stream power the gate is relative to: seeded
    /// from the first full gate window, then an EWMA over below-gate
    /// windows. (Tracking the *minimum* window mean instead would park the
    /// floor ~5 dB under the true noise power and make a 6 dB gate fire on
    /// ordinary noise fluctuations.)
    noise_floor: f64,
    /// Whether `noise_floor` has been seeded yet.
    floor_seeded: bool,
    state: State,
    next_index: usize,
    /// Packets whose span ran past the end of the stream at `finish`.
    truncated: usize,
    /// Optional detection-latency telemetry sink.
    telemetry: Option<Arc<DetectTelemetry>>,
    /// The in-flight gate event: (absolute gate-edge sample, fire time).
    /// Present only between a gate fire and its anchor lock when
    /// telemetry is attached.
    gate_fired: Option<(u64, Instant)>,
}

/// EWMA coefficient of the noise-floor estimate (per gate window).
const NOISE_ALPHA: f64 = 1.0 / 1024.0;

/// Absolute power floor under which the gate never drops, so a noise-free
/// stream (all-zero idle) still gates correctly on the first real sample.
const GATE_EPSILON: f64 = 1e-12;

impl StreamDetector {
    /// Creates the detector for `config`.
    pub fn new(config: &GatewayConfig) -> Result<Self, FftError> {
        let mut receiver = ConcurrentReceiver::new(&config.profile)?;
        if let Some(floor) = config.detection_floor_fraction {
            receiver.detection_floor_fraction = floor;
        }
        Ok(Self {
            receiver,
            bank: ChirpBank::new(config.profile.modulation.chirp())?,
            spec: Vec::new(),
            combs: Vec::new(),
            bins: config.assigned_bins.clone(),
            acc: [Vec::new(), Vec::new()],
            packet_len: config.packet_samples() as u64,
            energy_gate_factor: db_to_linear(config.energy_gate_db),
            edge_anchor_factor: db_to_linear(EDGE_ANCHOR_DB),
            window: Vec::new(),
            powers: Vec::new(),
            window_start: 0,
            scan: 0,
            sliding_sum: 0.0,
            run_len: 0,
            noise_floor: 0.0,
            floor_seeded: false,
            state: State::Hunting,
            next_index: 0,
            truncated: 0,
            telemetry: None,
            gate_fired: None,
        })
    }

    /// Attaches detection-latency telemetry; subsequent gate events record
    /// into it. Telemetry never influences any detection decision.
    pub fn set_telemetry(&mut self, telemetry: Arc<DetectTelemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The receiver the emitted spans should be decoded with (same PHY
    /// profile and detection floor as the detector).
    pub fn receiver(&self) -> &ConcurrentReceiver {
        &self.receiver
    }

    /// Current state of the detection machine.
    pub fn state(&self) -> DetectorState {
        match self.state {
            State::Hunting => DetectorState::Hunting,
            State::Syncing { .. } => DetectorState::Syncing,
            State::Decoding { .. } => DetectorState::Decoding,
        }
    }

    /// The running noise-floor estimate (linear power per sample).
    pub fn noise_floor(&self) -> f64 {
        self.noise_floor
    }

    /// Number of packets dropped at end of stream because their tail was
    /// never received.
    pub fn truncated(&self) -> usize {
        self.truncated
    }

    /// Appends a chunk of stream samples and runs the state machine as far
    /// as the stitched window allows, pushing completed packets into `out`.
    pub fn push(&mut self, chunk: &[Complex64], out: &mut Vec<PacketSpan>) {
        self.window.extend_from_slice(chunk);
        // Keep the per-sample power buffer aligned with the window; the
        // gate and anchor read from it instead of recomputing `norm_sqr`
        // sample by sample (the values are bit-identical).
        kernels::power_append(chunk, &mut self.powers);
        self.advance(out);
        self.trim();
    }

    /// Ends the stream: anything still syncing or mid-packet is counted as
    /// truncated.
    pub fn finish(&mut self) {
        if !matches!(self.state, State::Hunting) {
            self.truncated += 1;
            self.state = State::Hunting;
        }
        self.gate_fired = None;
    }

    /// Absolute index one past the last sample currently in the window.
    fn window_end(&self) -> u64 {
        self.window_start + self.window.len() as u64
    }

    /// The power `|x|²` of the sample at absolute index `abs` (must be
    /// within the window).
    fn power(&self, abs: u64) -> f64 {
        self.powers[(abs - self.window_start) as usize]
    }

    /// The current energy gate (linear power).
    fn gate(&self) -> f64 {
        (self.noise_floor * self.energy_gate_factor).max(GATE_EPSILON)
    }

    /// Runs the state machine until no further transition is possible with
    /// the samples currently in the window.
    fn advance(&mut self, out: &mut Vec<PacketSpan>) {
        let n = self.receiver.profile().modulation.num_bins();
        let sync_len = PREAMBLE_SYMBOLS * n;
        let packet_len = self.packet_len;
        loop {
            match self.state {
                State::Hunting => {
                    let mut gated = false;
                    while self.scan < self.window_end() {
                        let p = self.power(self.scan);
                        self.sliding_sum += p;
                        self.run_len += 1;
                        if self.run_len > GATE_WINDOW {
                            self.sliding_sum -= self.power(self.scan - GATE_WINDOW as u64);
                            self.run_len = GATE_WINDOW;
                        }
                        self.scan += 1;
                        if !self.sliding_sum.is_finite() {
                            // A NaN or Inf sample would never leave the
                            // sliding sum (`NaN − NaN`) and would poison the
                            // floor: start the gate window over behind it.
                            self.sliding_sum = 0.0;
                            self.run_len = 0;
                        }
                        if self.run_len < GATE_WINDOW {
                            continue;
                        }
                        let mean = self.sliding_sum / GATE_WINDOW as f64;
                        if !self.floor_seeded {
                            // The first full window calibrates the floor;
                            // gating starts with the next one.
                            self.noise_floor = mean;
                            self.floor_seeded = true;
                            continue;
                        }
                        if mean > self.gate() {
                            // The first above-gate sample lies within the
                            // current window; search it plus slack on both
                            // sides for the exact start.
                            let edge = self.scan - 1;
                            let lo = edge
                                .saturating_sub((GATE_WINDOW - 1 + SYNC_SLACK) as u64)
                                .max(self.window_start);
                            let hi = edge + SYNC_SLACK as u64;
                            self.state = State::Syncing { lo, hi };
                            if let Some(t) = &self.telemetry {
                                t.gate_events.incr();
                                self.gate_fired = Some((edge, Instant::now()));
                            }
                            gated = true;
                            break;
                        }
                        // Below-gate window: feed the noise estimate.
                        self.noise_floor += NOISE_ALPHA * (mean - self.noise_floor);
                    }
                    if !gated {
                        return;
                    }
                }
                State::Syncing { lo, hi } => {
                    // Need the whole candidate range plus the full 8-symbol
                    // preamble before the correlation can run.
                    if self.window_end() < hi + sync_len as u64 {
                        return;
                    }
                    // Stage one: when the leading-edge anchor fired, the true
                    // start lies within a couple of samples of it, so the
                    // comb only needs to score the candidates around the
                    // anchor (9 instead of ~24 — the comb's eight spectra
                    // per candidate dominate the whole sync cost). The
                    // anchor-less fallback (weak aggregate, where the comb
                    // is sharp on its own) scores the full range.
                    let anchor = self.edge_anchor(lo, hi);
                    let (comb_lo, comb_hi) = if anchor < hi {
                        (
                            anchor.saturating_sub(SYNC_SLACK as u64).max(lo),
                            (anchor + SYNC_SLACK as u64).min(hi),
                        )
                    } else {
                        (lo, hi)
                    };
                    self.combs_bank(comb_lo, (comb_hi - comb_lo + 1) as usize, n);
                    let best_comb = self.combs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    // Stage two: among the shortlisted (possibly
                    // lattice-ambiguous) candidates, the one nearest the
                    // anchor wins; ties keep the earliest offset.
                    let mut best = comb_lo;
                    let mut best_distance = u64::MAX;
                    for (i, &comb) in self.combs.iter().enumerate() {
                        if comb < best_comb * COMB_SHORTLIST_FRACTION {
                            continue;
                        }
                        let candidate = comb_lo + i as u64;
                        let distance = candidate.abs_diff(anchor);
                        if distance < best_distance {
                            best_distance = distance;
                            best = candidate;
                        }
                    }
                    self.state = State::Decoding { start: best };
                    if let Some((edge, fired_at)) = self.gate_fired.take() {
                        if let Some(t) = &self.telemetry {
                            t.gate_to_anchor_samples.record(self.window_end() - edge);
                            t.gate_to_anchor_ns.record_duration(fired_at.elapsed());
                        }
                    }
                }
                State::Decoding { start } => {
                    if self.window_end() < start + packet_len {
                        return;
                    }
                    let s = (start - self.window_start) as usize;
                    let samples = self.window[s..s + packet_len as usize].to_vec();
                    out.push(PacketSpan {
                        index: self.next_index,
                        start_sample: start,
                        samples,
                    });
                    self.next_index += 1;
                    // Resume hunting right after the packet, with a fresh
                    // gate window (the sliding sum would otherwise straddle
                    // the skipped span).
                    self.scan = start + packet_len;
                    self.sliding_sum = 0.0;
                    self.run_len = 0;
                    self.state = State::Hunting;
                }
            }
        }
    }

    /// Fills `self.combs` with the up/down consistency comb for the
    /// `candidates` packet starts from `comb_lo` on: average assigned-bin
    /// correlation power over the six upchirps, average mirrored-bin power
    /// over the two downchirps, summed per-device minimum of the two (see
    /// the module docs for why both combs are needed). Each preamble symbol
    /// is transformed once, for the first candidate; every further
    /// candidate is a one-sample slide of that spectrum.
    fn combs_bank(&mut self, comb_lo: u64, candidates: usize, n: usize) {
        let devices = self.bins.len();
        let at = (comb_lo - self.window_start) as usize;
        for acc in &mut self.acc {
            acc.clear();
            acc.resize(candidates * devices, 0.0);
        }
        for s in 0..PREAMBLE_SYMBOLS {
            let down = s >= PREAMBLE_UPCHIRPS;
            let acc = &mut self.acc[usize::from(down)];
            let covered = &self.window[at + s * n..at + (s + 1) * n + candidates - 1];
            self.bank
                .sliding_bank_into(covered, down, &mut self.spec, |c, spectrum| {
                    for (acc, &bin) in acc[c * devices..].iter_mut().zip(&self.bins) {
                        // A shift-`a` downchirp dechirps to the mirrored
                        // bin `(n − a) mod n`.
                        *acc += spectrum.power(if down { n - bin } else { bin });
                    }
                })
                .expect("sync range covers the symbol");
        }
        self.combs.clear();
        self.combs.extend((0..candidates).map(|c| {
            let of = c * devices..(c + 1) * devices;
            Self::comb_of(&self.acc[0][of.clone()], &self.acc[1][of])
        }));
    }

    /// The summed per-device minimum of the normalized up/down comb powers.
    fn comb_of(up: &[f64], down: &[f64]) -> f64 {
        up.iter()
            .zip(down)
            .map(|(&up, &down)| {
                (up / PREAMBLE_UPCHIRPS as f64).min(down / PREAMBLE_DOWNCHIRPS as f64)
            })
            .sum()
    }

    /// The leading-edge anchor of a sync range: the first sample whose
    /// individual power clears [`EDGE_ANCHOR_DB`] over the noise floor —
    /// the changepoint a single strong sample pins. Falls back to `hi`
    /// when nothing crosses (weak aggregate; the comb is then sharp on its
    /// own and the anchor is moot).
    fn edge_anchor(&self, lo: u64, hi: u64) -> u64 {
        let threshold = (self.noise_floor * self.edge_anchor_factor).max(GATE_EPSILON);
        (lo..=hi)
            .find(|&abs| self.power(abs) > threshold)
            .unwrap_or(hi)
    }

    /// Discards the window prefix no state can ever revisit.
    fn trim(&mut self) {
        let hold = match self.state {
            // The gate may retro-locate a start up to
            // GATE_WINDOW - 1 + SYNC_SLACK samples before `scan`.
            State::Hunting => self.scan.saturating_sub((GATE_WINDOW + SYNC_SLACK) as u64),
            State::Syncing { lo, .. } => lo,
            State::Decoding { start } => start,
        };
        if hold > self.window_start {
            let drop = (hold - self.window_start) as usize;
            self.window.drain(..drop);
            self.powers.drain(..drop);
            self.window_start = hold;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_phy::distributed::OnOffModulator;
    use netscatter_phy::preamble::PreambleBuilder;

    fn config(bins: Vec<usize>, payload: usize) -> GatewayConfig {
        GatewayConfig::new(PhyProfile::default(), bins, payload)
    }

    /// One ideal packet on `bin` with the given payload bits.
    fn packet(bin: usize, bits: &[bool]) -> Vec<Complex64> {
        let params = PhyProfile::default().modulation.chirp();
        let mut out = PreambleBuilder::new(params, bin).build(0.0, 0.0, 1.0);
        out.extend(OnOffModulator::new(params, bin).modulate_payload(bits, 0.0, 0.0, 1.0));
        out
    }

    #[test]
    fn detector_finds_an_offset_packet_sample_exactly() {
        let bits = [true, false, true, true];
        let cfg = config(vec![100], bits.len());
        let mut det = StreamDetector::new(&cfg).unwrap();
        let mut stream = vec![Complex64::ZERO; 777];
        stream.extend(packet(100, &bits));
        stream.extend(vec![Complex64::ZERO; 300]);
        let mut spans = Vec::new();
        det.push(&stream, &mut spans);
        det.finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_sample, 777);
        assert_eq!(spans[0].samples.len(), cfg.packet_samples());
        assert_eq!(det.truncated(), 0);
        assert_eq!(det.state(), DetectorState::Hunting);
    }

    #[test]
    fn single_sample_chunks_give_the_same_span() {
        let bits = [true, true, false, true, false];
        let cfg = config(vec![64], bits.len());
        let mut stream = vec![Complex64::ZERO; 123];
        stream.extend(packet(64, &bits));
        stream.extend(vec![Complex64::ZERO; 50]);

        let mut whole = Vec::new();
        let mut det = StreamDetector::new(&cfg).unwrap();
        det.push(&stream, &mut whole);

        let mut single = Vec::new();
        let mut det = StreamDetector::new(&cfg).unwrap();
        for s in &stream {
            det.push(std::slice::from_ref(s), &mut single);
        }

        assert_eq!(whole.len(), 1);
        assert_eq!(single.len(), 1);
        assert_eq!(whole[0].start_sample, single[0].start_sample);
        assert_eq!(whole[0].samples, single[0].samples);
    }

    #[test]
    fn mid_packet_stream_end_counts_as_truncated() {
        let bits = [true; 8];
        let cfg = config(vec![32], bits.len());
        let mut det = StreamDetector::new(&cfg).unwrap();
        let mut stream = vec![Complex64::ZERO; 40];
        let pkt = packet(32, &bits);
        stream.extend(&pkt[..pkt.len() / 2]);
        let mut spans = Vec::new();
        det.push(&stream, &mut spans);
        det.finish();
        assert!(spans.is_empty());
        assert_eq!(det.truncated(), 1);
    }

    #[test]
    fn window_stays_bounded_over_a_long_idle_stream() {
        let cfg = config(vec![0], 4);
        let mut det = StreamDetector::new(&cfg).unwrap();
        let idle = vec![Complex64::ZERO; 4096];
        let mut spans = Vec::new();
        for _ in 0..64 {
            det.push(&idle, &mut spans);
        }
        assert!(spans.is_empty());
        assert!(
            det.window.len() <= 2 * (GATE_WINDOW + SYNC_SLACK) + 4096,
            "window grew to {} samples",
            det.window.len()
        );
    }

    #[test]
    fn sync_is_sample_exact_across_populations_anchored_and_unanchored() {
        // One comb routine serves every population size and both candidate
        // ranges. Strong round: the packet's first samples clear
        // EDGE_ANCHOR_DB, so only the 2·SYNC_SLACK + 1 candidates around
        // the anchor are scored. Weak round: no sample of the sync range
        // does, so the full gated range is.
        let anchored = 2 * SYNC_SLACK + 1;
        let unanchored = GATE_WINDOW + 2 * SYNC_SLACK;
        // Over the unit-power idle noise below.
        let anchor_threshold = netscatter_dsp::units::db_to_linear(EDGE_ANCHOR_DB);
        let bits = [true, false, true, true];
        let offset = 901usize;
        for devices in [1usize, 2, 3, 4, 16] {
            // Shifts n/16 apart beat with a GATE_WINDOW period, so the
            // gate's window mean is the aggregate power at every offset.
            let bins: Vec<usize> = (0..devices).map(|d| 5 + 32 * d).collect();
            for (aggregate_power, candidates) in [(400.0, anchored), (2.0, unanchored)] {
                let mut cfg = config(bins.clone(), bits.len());
                // A 3 dB gate lets an aggregate fire it whose peaks stay
                // under the 10 dB anchor threshold.
                cfg.energy_gate_db = 3.0;
                let mut det = StreamDetector::new(&cfg).unwrap();
                let len = offset + cfg.packet_samples() + 200;
                // Constant-modulus idle noise with a scrambled phase: the
                // floor estimate is exactly its unit power.
                let mut stream: Vec<Complex64> = (0..len)
                    .map(|t| Complex64::cis(0.37 * (t * t % 1009) as f64))
                    .collect();
                let amplitude = (aggregate_power / devices as f64).sqrt();
                for (d, &bin) in bins.iter().enumerate() {
                    // Quadratic per-device phases keep the aggregate's
                    // envelope flat (no coherent pulse at the packet edge).
                    let phase =
                        Complex64::cis(std::f64::consts::PI * (d * d) as f64 / devices as f64)
                            * amplitude;
                    for (acc, s) in stream[offset..].iter_mut().zip(packet(bin, &bits)) {
                        *acc += s * phase;
                    }
                }
                let edge =
                    &stream[offset - GATE_WINDOW - SYNC_SLACK..offset + GATE_WINDOW + SYNC_SLACK];
                let clears = edge.iter().any(|s| s.norm_sqr() > anchor_threshold);
                assert_eq!(
                    clears,
                    candidates == anchored,
                    "{devices} devices at aggregate power {aggregate_power}: fixture anchor"
                );
                let mut spans = Vec::new();
                det.push(&stream, &mut spans);
                det.finish();
                let what = format!("{devices} devices, {candidates} candidates");
                assert_eq!(spans.len(), 1, "{what}");
                assert_eq!(spans[0].start_sample, offset as u64, "{what}");
                assert_eq!(det.combs.len(), candidates, "{what}");
            }
        }
    }

    #[test]
    fn fast_comb_paths_agree_with_padded_spectrum_reference() {
        use netscatter_phy::distributed::{ConcurrentDemodulator, DemodWorkspace};

        // Impaired superposed packets at a known offset: the bank comb and
        // the per-candidate padded-spectrum comb must agree on every
        // candidate within fp tolerance. Rows: three devices; 256 bins at
        // full SKIP-2 occupancy over the widest range; a window that starts
        // mid-stream with the range inside it; a single candidate.
        let profile = PhyProfile::default();
        let params = profile.modulation.chirp();
        let n = params.num_bins();
        let dense: Vec<usize> = (0..n / 2).map(|d| 2 * d).collect();
        let offset = 300usize;
        for (bins, window_start, comb_lo, candidates) in [
            (vec![100usize, 102, 250], 0u64, offset - 5, 11usize),
            (dense.clone(), 0, offset - 12, 24),
            (vec![100, 102, 250], 77_000, offset - 4, 9),
            (dense, 12_345, offset, 1),
        ] {
            let cfg = config(bins.clone(), 4);
            let mut det = StreamDetector::new(&cfg).unwrap();

            let mut stream = vec![Complex64::ZERO; offset];
            let mut body = vec![Complex64::ZERO; cfg.packet_samples()];
            for (i, &bin) in bins.iter().enumerate() {
                let i = (i % 3) as f64;
                let pkt =
                    PreambleBuilder::new(params, bin).build(0.05 * i, 30.0 * i, 0.6 + 0.2 * i);
                for (acc, s) in body.iter_mut().zip(pkt.iter()) {
                    *acc += *s;
                }
            }
            stream.extend_from_slice(&body);
            stream.extend(vec![Complex64::ZERO; 64]);

            // Load the stream as the detector's window directly.
            det.window = stream.clone();
            det.powers.clear();
            netscatter_dsp::kernels::power_append(&det.window, &mut det.powers);
            det.window_start = window_start;

            det.combs_bank(window_start + comb_lo as u64, candidates, n);
            let bank = det.combs.clone();
            assert_eq!(bank.len(), candidates);

            // Reference: the per-candidate padded-spectrum comb.
            let demod = ConcurrentDemodulator::new(params, profile.zero_padding).unwrap();
            let mut ws = DemodWorkspace::new();
            let mut reference = Vec::new();
            for c in 0..candidates {
                let at = comb_lo + c;
                let mut up = vec![0.0f64; bins.len()];
                let mut down = vec![0.0f64; bins.len()];
                for s in 0..PREAMBLE_UPCHIRPS {
                    let spec = demod
                        .padded_spectrum_into(&stream[at + s * n..at + (s + 1) * n], &mut ws)
                        .unwrap();
                    for (acc, &bin) in up.iter_mut().zip(&bins) {
                        *acc += demod.device_power_at(spec, bin as f64, 0.0).0;
                    }
                }
                for s in 0..PREAMBLE_DOWNCHIRPS {
                    let o = at + (PREAMBLE_UPCHIRPS + s) * n;
                    let spec = demod
                        .padded_spectrum_downchirp_into(&stream[o..o + n], &mut ws)
                        .unwrap();
                    for (acc, &bin) in down.iter_mut().zip(&bins) {
                        *acc += demod.device_power_at(spec, ((n - bin) % n) as f64, 0.0).0;
                    }
                }
                reference.push(StreamDetector::comb_of(&up, &down));
            }

            let scale = reference.iter().cloned().fold(0.0f64, f64::max);
            for c in 0..candidates {
                assert!(
                    (bank[c] - reference[c]).abs() < 1e-9 * scale,
                    "{} bins, bank comb {c} of {candidates}: {} != {}",
                    bins.len(),
                    bank[c],
                    reference[c]
                );
            }
        }
    }

    #[test]
    fn a_non_finite_sample_costs_at_most_its_own_round() {
        // One NaN or Inf sample — in the idle stream, inside the first
        // packet's sync range, or inside its payload — may lose that
        // round; the gate, the floor and the next packet's lock survive.
        let bits = [true, false, true, true];
        let cfg = config(vec![100], bits.len());
        let (first, second) = (3_000usize, 3_000 + 3 * cfg.packet_samples());
        for bad in [f64::NAN, f64::INFINITY] {
            for at in [500, first + 2, first + 9 * 512 + 77] {
                let mut stream: Vec<Complex64> = (0..second + cfg.packet_samples() + 300)
                    .map(|t| Complex64::cis(0.37 * (t * t % 1009) as f64) * 0.01)
                    .collect();
                for start in [first, second] {
                    for (acc, s) in stream[start..].iter_mut().zip(packet(100, &bits)) {
                        *acc += s;
                    }
                }
                stream[at] = Complex64::new(bad, 0.0);
                let mut det = StreamDetector::new(&cfg).unwrap();
                let mut spans = Vec::new();
                for chunk in stream.chunks(1000) {
                    det.push(chunk, &mut spans);
                }
                det.finish();
                let starts: Vec<u64> = spans.iter().map(|s| s.start_sample).collect();
                assert_eq!(
                    starts.last(),
                    Some(&(second as u64)),
                    "{bad} at {at}: {starts:?}"
                );
                assert!(det.noise_floor().is_finite(), "{bad} at {at}");
                assert_eq!(det.truncated(), 0, "{bad} at {at}");
            }
        }
    }

    #[test]
    fn noise_floor_tracks_the_idle_power() {
        let cfg = config(vec![0], 4);
        let mut det = StreamDetector::new(&cfg).unwrap();
        // Constant-power idle at |x|² = 0.25 (deterministic, below any
        // plausible packet power).
        let idle = vec![Complex64::new(0.5, 0.0); 1 << 15];
        let mut spans = Vec::new();
        det.push(&idle, &mut spans);
        assert!(spans.is_empty());
        assert!((det.noise_floor() - 0.25).abs() < 0.02);
    }
}
