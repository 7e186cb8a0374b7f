//! Scoring what the daemon sent back against what the generator offered.
//!
//! `attempted` is the rounds offered after warm-up. A round fails — once,
//! whatever went wrong with it — if no frame starts within half a round of
//! where it really started, or if any transmitting device's payload
//! differs from what was sent. A frame that matches no offered round is
//! one more failure. A frame that is right but arrives more than the late
//! limit after its round's last sample was due is *late*. The hypervisor
//! holds a vCPU for 50–350 ms in about one window in seven, which makes up
//! to 3% of the window's frames late (14% once in 450 windows) whatever the
//! daemon does; a daemon that has fallen behind its input makes most of
//! them late. So late rounds are failures when they are more than
//! [`LATE_SHARE_LIMIT`] of the rounds offered, and only counted otherwise:
//! `failed` must say something about the code and repeat exactly.

use crate::workload::Capture;
use netscatter::json::Json;
use netscatter_coding::frame::FrameCodec;
use netscatter_daemon::protocol::bits_string;

/// A frame later than this after its round's last sample was due has
/// missed its deadline: one round's airtime at the declared radio rate
/// (48 symbols · 512 samples / 0.5 Msps).
pub const LATE_LIMIT_S: f64 = 0.050;

/// Late rounds are the daemon's — failures — when they are more than this
/// share of the rounds offered, and the box's below it.
pub const LATE_SHARE_LIMIT: f64 = 0.25;

/// What each transmitting device of one truth round must come back as:
/// `(bin, payload)`, where payload is the on-air bits (uncoded) or the
/// frame's data bits (coded; the record must also say `crc_ok`).
pub type Expected = Vec<(usize, String)>;

/// The expectation of every round of `capture`, in truth order.
pub fn expectations(capture: &Capture, codec: Option<&FrameCodec>) -> Vec<Expected> {
    capture
        .truth
        .iter()
        .map(|round| {
            round
                .sent
                .iter()
                .enumerate()
                .filter_map(|(device, sent)| {
                    let sent = sent.as_ref()?;
                    let payload = match codec {
                        None => bits_string(sent),
                        Some(c) => bits_string(&c.decode_frame(sent).data),
                    };
                    Some((capture.bins[device], payload))
                })
                .collect()
        })
        .collect()
}

/// One round as offered on one connection.
#[derive(Debug, Clone)]
pub struct Offered<'a> {
    /// Where the round starts, as a sample index of its connection.
    pub start_sample: u64,
    /// When its last sample was due, in seconds on the run's clock.
    pub due_s: f64,
    /// False for warm-up rounds: matched, but neither attempted nor timed.
    pub counted: bool,
    /// What must come back.
    pub expect: &'a [(usize, String)],
}

/// One device of a `frame` record.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameDevice {
    /// The device's cyclic shift.
    pub bin: usize,
    /// Decoded on-air bits.
    pub bits: String,
    /// CRC verdict and recovered data, on coded streams.
    pub link: Option<(bool, String)>,
}

/// One `frame` record and when its newline was read.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Where the daemon says the packet starts.
    pub start_sample: u64,
    /// Read time in seconds on the run's clock.
    pub at_s: f64,
    /// The decoded devices.
    pub devices: Vec<FrameDevice>,
}

/// A parsed NDJSON record, as far as scoring needs it.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `ready`, carrying the daemon-assigned stream name.
    Ready(String),
    /// `frame`.
    Frame(Frame),
    /// `end`.
    End(End),
    /// `error`, or anything else: never expected on these workloads.
    Other(String),
}

/// The `end` record's verdict on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct End {
    /// `"code":"eof","complete":true`.
    pub clean: bool,
    /// Chunks the drop-oldest ring displaced.
    pub ring_dropped: u64,
    /// Frames with no device in them.
    pub false_alarms: u64,
    /// Packets cut off by the end of the stream.
    pub truncated: u64,
}

/// Parses one NDJSON line read at `at_s`.
pub fn parse_record(line: &str, at_s: f64) -> Record {
    let other = || Record::Other(line.chars().take(200).collect());
    let Ok(doc) = Json::parse(line) else {
        return other();
    };
    let num = |key: &str| doc.get(key).and_then(Json::as_u64);
    match doc.get("type").and_then(Json::as_str) {
        Some("ready") => match doc.get("stream").and_then(Json::as_str) {
            Some(name) => Record::Ready(name.to_string()),
            None => other(),
        },
        Some("frame") => {
            let devices = doc.get("devices").and_then(Json::as_array).map(|items| {
                items
                    .iter()
                    .filter_map(|d| {
                        let link = match (d.get("crc_ok"), d.get("data").and_then(Json::as_str)) {
                            (Some(Json::Bool(ok)), Some(data)) => Some((*ok, data.to_string())),
                            _ => None,
                        };
                        Some(FrameDevice {
                            bin: d.get("bin")?.as_u64()? as usize,
                            bits: d.get("bits")?.as_str()?.to_string(),
                            link,
                        })
                    })
                    .collect()
            });
            match (num("start_sample"), devices) {
                (Some(start_sample), Some(devices)) => Record::Frame(Frame {
                    start_sample,
                    at_s,
                    devices,
                }),
                _ => other(),
            }
        }
        Some("end") => Record::End(End {
            clean: doc.get("code").and_then(Json::as_str) == Some("eof")
                && doc.get("complete") == Some(&Json::Bool(true)),
            ring_dropped: num("ring_dropped").unwrap_or(u64::MAX),
            false_alarms: num("false_alarms").unwrap_or(0),
            truncated: num("truncated").unwrap_or(0),
        }),
        _ => other(),
    }
}

/// The tally of one or more connections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Score {
    /// Rounds offered after warm-up.
    pub attempted: u64,
    /// Failures: `missed + wrong + unmatched`.
    pub failed: u64,
    /// Counted rounds no frame matched.
    pub missed: u64,
    /// Counted rounds whose frame carried a wrong or absent payload.
    pub wrong: u64,
    /// Counted rounds decoded right but past the late limit; failures
    /// only once [`Score::charge_late`] finds too many of them.
    pub late: u64,
    /// Frames that matched no offered round.
    pub unmatched: u64,
    /// `(due_s, latency_ms)` of every matched counted round.
    pub latencies: Vec<(f64, f64)>,
}

impl Score {
    /// Adds another connection's tally.
    pub fn merge(&mut self, other: Score) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.missed += other.missed;
        self.wrong += other.wrong;
        self.late += other.late;
        self.unmatched += other.unmatched;
        self.latencies.extend(other.latencies);
    }

    /// Adds the late rounds to `failed` if they are more than
    /// [`LATE_SHARE_LIMIT`] of the rounds attempted: call once, on the
    /// tally of the whole window.
    pub fn charge_late(&mut self) {
        if self.late as f64 > LATE_SHARE_LIMIT * self.attempted as f64 {
            self.failed += self.late;
        }
    }

    /// Fails every counted round of a connection that did not end with a
    /// clean `eof` and zero ring drops: nothing it returned can be trusted.
    pub fn fail_all(offered: &[Offered]) -> Score {
        let attempted = offered.iter().filter(|o| o.counted).count() as u64;
        Score {
            attempted,
            failed: attempted,
            missed: attempted,
            ..Score::default()
        }
    }
}

/// Whether `frame` carries every expected device with the right payload.
fn payload_ok(frame: &Frame, expect: &[(usize, String)], coded: bool) -> bool {
    expect.iter().all(|(bin, payload)| {
        frame
            .devices
            .iter()
            .find(|d| d.bin == *bin)
            .is_some_and(|d| match (&d.link, coded) {
                (Some((crc_ok, data)), true) => *crc_ok && data == payload,
                (None, false) => d.bits == *payload,
                _ => false,
            })
    })
}

/// Scores one connection. `offered` is in stream order; a frame belongs to
/// the offered round whose true start is nearest, if that is nearer than
/// `tolerance` samples (half a round) and the round has no frame yet.
pub fn score(
    offered: &[Offered],
    frames: &[Frame],
    tolerance: u64,
    late_limit_s: f64,
    coded: bool,
) -> Score {
    let mut out = Score::default();
    let mut matched: Vec<Option<&Frame>> = vec![None; offered.len()];
    for frame in frames {
        let after = offered.partition_point(|o| o.start_sample < frame.start_sample);
        let nearest = [
            after.checked_sub(1),
            (after < offered.len()).then_some(after),
        ]
        .into_iter()
        .flatten()
        .min_by_key(|&i| offered[i].start_sample.abs_diff(frame.start_sample));
        match nearest {
            Some(i)
                if offered[i].start_sample.abs_diff(frame.start_sample) < tolerance
                    && matched[i].is_none() =>
            {
                matched[i] = Some(frame)
            }
            _ => out.unmatched += 1,
        }
    }
    for (round, frame) in offered.iter().zip(matched) {
        if !round.counted {
            continue;
        }
        out.attempted += 1;
        match frame {
            None => out.missed += 1,
            Some(frame) => {
                let latency_s = frame.at_s - round.due_s;
                out.latencies.push((round.due_s, latency_s * 1e3));
                if !payload_ok(frame, round.expect, coded) {
                    out.wrong += 1;
                } else if latency_s > late_limit_s {
                    out.late += 1;
                }
            }
        }
    }
    out.failed = out.missed + out.wrong + out.unmatched;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(start_sample: u64, at_s: f64, bits: &str) -> Frame {
        Frame {
            start_sample,
            at_s,
            devices: vec![FrameDevice {
                bin: 64,
                bits: bits.to_string(),
                link: None,
            }],
        }
    }

    #[test]
    fn each_kind_of_outcome_is_counted_once() {
        let expect = vec![(64usize, "1010".to_string())];
        let round = |start_sample: u64, due_s: f64, counted: bool| Offered {
            start_sample,
            due_s,
            counted,
            expect: &expect,
        };
        let offered = [
            round(1_000, 0.5, false), // warm-up: matched, not counted
            round(10_000, 1.0, true), // decoded right and on time
            round(20_000, 2.0, true), // missed
            round(30_000, 3.0, true), // late (and right)
            round(40_000, 4.0, true), // wrong bits (and late: counted once)
            round(50_000, 5.0, true), // matched by the nearer of two frames
        ];
        let frames = [
            frame(1_003, 0.501, "1010"),
            frame(10_002, 1.004, "1010"),
            frame(30_000, 3.051, "1010"),
            frame(40_001, 4.2, "1011"),
            frame(50_000, 5.002, "1010"),
            frame(50_900, 5.003, "1010"), // second frame near a matched round
            frame(70_000, 6.0, "1010"),   // near nothing: a false alarm
        ];
        let s = score(&offered, &frames, 2_048, LATE_LIMIT_S, false);
        assert_eq!(s.attempted, 5);
        assert_eq!((s.missed, s.late, s.wrong, s.unmatched), (1, 1, 1, 2));
        assert_eq!(s.failed, 4);
        assert_eq!(s.latencies.len(), 4);
        assert_eq!(s.latencies[0].0, 1.0);
        assert!((s.latencies[0].1 - 4.0).abs() < 1e-9);
        // One late round in five is the box's; two in five are the daemon's.
        let mut few = s.clone();
        few.charge_late();
        assert_eq!(few.failed, 4);
        let mut many = Score { late: 2, ..s };
        many.charge_late();
        assert_eq!(many.failed, 6);
        // A frame exactly half a round away matches nothing.
        let far = [frame(12_048, 1.0, "1010")];
        assert_eq!(
            score(&offered[1..2], &far, 2_048, LATE_LIMIT_S, false).missed,
            1
        );
    }

    #[test]
    fn coded_rounds_need_a_clean_crc_and_the_right_data() {
        let expect = vec![(7usize, "11".to_string())];
        let offered = [Offered {
            start_sample: 0,
            due_s: 0.0,
            counted: true,
            expect: &expect,
        }];
        let coded = |crc_ok: bool, data: &str| Frame {
            start_sample: 0,
            at_s: 0.001,
            devices: vec![FrameDevice {
                bin: 7,
                bits: "0110".to_string(),
                link: Some((crc_ok, data.to_string())),
            }],
        };
        let run = |f: Frame, is_coded: bool| score(&offered, &[f], 10, LATE_LIMIT_S, is_coded);
        assert_eq!(run(coded(true, "11"), true).failed, 0);
        assert_eq!(run(coded(false, "11"), true).wrong, 1);
        assert_eq!(run(coded(true, "10"), true).wrong, 1);
        // A verdict on an uncoded stream (or none on a coded one) is wrong.
        assert_eq!(run(coded(true, "11"), false).wrong, 1);
        assert_eq!(run(frame(0, 0.001, "11"), true).wrong, 1);
    }

    #[test]
    fn records_parse_by_field_name() {
        let line = r#"{"type":"frame","stream":"s#2","index":3,"start_sample":4096,"devices":[{"bin":64,"power":1.5,"bits":"101","crc_ok":true,"seq":9,"corrected":0,"data":"01"}]}"#;
        let Record::Frame(f) = parse_record(line, 1.25) else {
            panic!("not a frame");
        };
        assert_eq!((f.start_sample, f.at_s), (4096, 1.25));
        assert_eq!(f.devices[0].link, Some((true, "01".to_string())));
        let end = r#"{"type":"end","stream":"s","code":"eof","complete":true,"frames":2,"rounds":2,"false_alarms":1,"truncated":1,"ring_dropped":0}"#;
        assert_eq!(
            parse_record(end, 0.0),
            Record::End(End {
                clean: true,
                ring_dropped: 0,
                false_alarms: 1,
                truncated: 1
            })
        );
        let cut =
            r#"{"type":"end","stream":"s","code":"shutdown","complete":false,"ring_dropped":0}"#;
        assert!(matches!(parse_record(cut, 0.0), Record::End(e) if !e.clean));
        assert!(matches!(
            parse_record(r#"{"type":"error"}"#, 0.0),
            Record::Other(_)
        ));
        assert_eq!(
            parse_record(r#"{"type":"ready","stream":"a#1"}"#, 0.0),
            Record::Ready("a#1".to_string())
        );
    }
}
