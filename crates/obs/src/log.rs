//! Leveled structured logging with text and NDJSON sinks.
//!
//! Every event is a level, a target (the emitting component), a message,
//! and a flat list of key/value fields; correlation happens through
//! conventional field names (`stream`, `span`, `round`, `channel`) rather
//! than thread-local context, so the same event renders identically from
//! any thread. Rendering is a pure function (`format_line`) over those
//! parts — the global logger just filters by level and writes the
//! rendered line to stderr under the stream lock (stdout is reserved for
//! protocol output: NDJSON frame records and experiment reports).
//!
//! `--log-format json` switches every daemon status line to one JSON
//! object per line (`{"ts":…,"level":…,"target":…,"msg":…,…fields}`),
//! which is what makes daemon logs machine-parseable end to end.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The daemon cannot do what it was asked to.
    Error = 0,
    /// Degraded but serving (timeouts, rejected connections).
    Warn = 1,
    /// Lifecycle events (listening, stream start/end, shutdown).
    Info = 2,
    /// Per-operation detail for debugging.
    Debug = 3,
}

impl Level {
    /// Parse a CLI level name.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Output encoding for log lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `TS LEVEL target: msg key=value …` — for humans.
    #[default]
    Text,
    /// One JSON object per line — for machines.
    Json,
}

impl LogFormat {
    /// Parse a `--log-format` value.
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// A field value: the closed set of types log call sites need.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    /// A string field (escaped in JSON, quoted in text if it has spaces).
    Str(&'a str),
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A float field.
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The process-wide logger configuration (level + format).
///
/// Stored as two atomics rather than a locked struct so `enabled()` — the
/// check on every suppressed call site — is a single relaxed load.
#[derive(Debug)]
pub struct Logger {
    level: AtomicU8,
    format: AtomicU8,
}

static LOGGER: Logger = Logger {
    level: AtomicU8::new(Level::Info as u8),
    format: AtomicU8::new(0),
};

static SPAN_IDS: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique correlation id for a logical span of work.
pub fn next_span_id() -> u64 {
    SPAN_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Configure the global logger (idempotent; later calls win).
pub fn init(level: Level, format: LogFormat) {
    LOGGER.level.store(level as u8, Ordering::Relaxed);
    LOGGER
        .format
        .store(matches!(format, LogFormat::Json) as u8, Ordering::Relaxed);
}

/// Whether events at `level` currently pass the filter.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= LOGGER.level.load(Ordering::Relaxed)
}

/// The configured output format.
pub fn format() -> LogFormat {
    if LOGGER.format.load(Ordering::Relaxed) == 1 {
        LogFormat::Json
    } else {
        LogFormat::Text
    }
}

/// Emit an event through the global logger.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled(level) {
        return;
    }
    let line = format_line(level, target, msg, fields, format(), unix_now());
    let stderr = std::io::stderr();
    let mut out = stderr.lock();
    let _ = writeln!(out, "{line}");
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Error, target, msg, fields);
}
/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Warn, target, msg, fields);
}
/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Info, target, msg, fields);
}

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Render one event; pure, so the format is unit-testable without
/// capturing stderr. `unix_ts` is seconds since the epoch.
fn format_line(
    level: Level,
    target: &str,
    msg: &str,
    fields: &[(&str, Value<'_>)],
    format: LogFormat,
    unix_ts: f64,
) -> String {
    match format {
        LogFormat::Text => {
            let mut line = format!(
                "{} {:5} {target}: {msg}",
                iso8601(unix_ts),
                level.as_str().to_uppercase()
            );
            for (k, v) in fields {
                match v {
                    Value::Str(s) if s.contains([' ', '"']) => {
                        let _ = write!(line, " {k}={s:?}");
                    }
                    Value::Str(s) => {
                        let _ = write!(line, " {k}={s}");
                    }
                    Value::U64(n) => {
                        let _ = write!(line, " {k}={n}");
                    }
                    Value::I64(n) => {
                        let _ = write!(line, " {k}={n}");
                    }
                    Value::F64(x) => {
                        let _ = write!(line, " {k}={x}");
                    }
                    Value::Bool(b) => {
                        let _ = write!(line, " {k}={b}");
                    }
                }
            }
            line
        }
        LogFormat::Json => {
            let mut line = format!(
                "{{\"ts\":{unix_ts:.6},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
                level.as_str(),
                escape_json(target),
                escape_json(msg)
            );
            for (k, v) in fields {
                let _ = write!(line, ",\"{}\":", escape_json(k));
                match v {
                    Value::Str(s) => {
                        let _ = write!(line, "\"{}\"", escape_json(s));
                    }
                    Value::U64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    Value::I64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    Value::F64(x) if x.is_finite() => {
                        let _ = write!(line, "{x}");
                    }
                    Value::F64(x) => {
                        let _ = write!(line, "\"{x}\"");
                    }
                    Value::Bool(b) => {
                        let _ = write!(line, "{b}");
                    }
                }
            }
            line.push('}');
            line
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `unix_ts` seconds → `YYYY-MM-DDTHH:MM:SS.mmmZ` (proleptic Gregorian,
/// days-from-civil inverse — no date dependency).
fn iso8601(unix_ts: f64) -> String {
    let total_ms = (unix_ts.max(0.0) * 1000.0) as u64;
    let (secs, ms) = (total_ms / 1000, total_ms % 1000);
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (h, m, s) = (tod / 3600, (tod % 3600) / 60, tod % 60);
    // civil-from-days (Hinnant's algorithm), epoch 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mon = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mon <= 2 { y + 1 } else { y };
    format!("{y:04}-{mon:02}-{d:02}T{h:02}:{m:02}:{s:02}.{ms:03}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_parse() {
        assert!(Level::Error < Level::Debug);
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(LogFormat::parse("json"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("xml"), None);
    }

    #[test]
    fn text_line_is_pinned() {
        let line = format_line(
            Level::Info,
            "daemon",
            "listening",
            &[
                ("addr", Value::from("127.0.0.1:7470")),
                ("conns", Value::from(3u64)),
            ],
            LogFormat::Text,
            0.0,
        );
        assert_eq!(
            line,
            "1970-01-01T00:00:00.000Z INFO  daemon: listening addr=127.0.0.1:7470 conns=3"
        );
    }

    #[test]
    fn json_line_is_valid_and_escaped() {
        let line = format_line(
            Level::Warn,
            "serve",
            "header \"bad\"",
            &[
                ("stream", Value::from("a\nb")),
                ("span", Value::from(9u64)),
                ("rtf", Value::from(1.5)),
                ("ok", Value::from(false)),
            ],
            LogFormat::Json,
            1_700_000_000.25,
        );
        assert_eq!(
            line,
            "{\"ts\":1700000000.250000,\"level\":\"warn\",\"target\":\"serve\",\
             \"msg\":\"header \\\"bad\\\"\",\"stream\":\"a\\nb\",\"span\":9,\"rtf\":1.5,\"ok\":false}"
        );
    }

    #[test]
    fn iso8601_known_dates() {
        assert_eq!(iso8601(0.0), "1970-01-01T00:00:00.000Z");
        // 2000-03-01T00:00:00Z == 951868800 (leap-century boundary).
        assert_eq!(iso8601(951_868_800.0), "2000-03-01T00:00:00.000Z");
        assert_eq!(iso8601(1_700_000_000.0), "2023-11-14T22:13:20.000Z");
    }

    #[test]
    fn span_ids_are_unique() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, b);
    }
}
