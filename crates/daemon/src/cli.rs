//! Command-line front end shared by the `netscatterd` binary and the
//! `netscatter serve` subcommand.

use crate::client;
use crate::protocol::{check_config, positive_finite, StreamHeader};
use crate::registry::DEFAULT_METRICS_RETENTION;
use crate::serve::{Daemon, DaemonConfig};
use crate::signals;
use netscatter_coding::CodingScheme;
use netscatter_gateway::GatewayConfig;
use netscatter_obs::log as olog;
use netscatter_obs::{Level, LogFormat};
use netscatter_phy::params::PhyProfile;
use std::path::PathBuf;

/// A CLI failure: message for stderr plus the process exit code (0 for
/// `--help`, whose message goes to stdout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliUsage {
    /// Human-readable error or help text.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliUsage {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
        }
    }
}

/// The `--help` text.
pub fn usage() -> String {
    "netscatterd — NetScatter multi-stream serving daemon

USAGE:
  netscatterd [flags]

Accepts any number of concurrent ingest streams over TCP. Each connection
sends one JSON header line ({\"stream\":\"name\",...}) followed by raw
cf32le samples, and receives decoded frames back as NDJSON. A connection
to the metrics port gets a plain-text metrics snapshot.

FLAGS:
  --listen <ADDR>         ingest address (default 127.0.0.1:7470; port 0 = ephemeral)
  --metrics <ADDR|off>    metrics address (default 127.0.0.1:7471)
  --bins <B1,B2,...>      default cyclic-shift assignment for headers without one
  --payload-bits <N>      default payload bits per packet (default 8, at most 1024)
  --sample-rate <HZ>      default ingest sample rate (default 500000)
  --chunk-samples <N>     most samples held back from a busy detector, and
                          the ring's chunk size (default 4096, at most
                          1048576); a detector that keeps up gets each read
                          as soon as the socket has nothing more to give
  --ring-slots <N>        per-stream ring capacity in chunks (default 64,
                          ~0.5 s of real-time ingest; at most 4096)
  --workers <N>           decode workers per stream (default 0 = all cores, at most 1024)
  --detection-floor <F>   receiver detection-floor fraction override
  --max-conns <N>         cap on concurrent ingest connections; over-cap
                          connections get an immediate {\"code\":\"overloaded\"}
                          error record (default 64; 0 = unlimited)
  --header-timeout <SECS> cut connections whose header line does not arrive
                          in time, with code \"header_timeout\"
                          (default 10; 0 = wait forever)
  --idle-timeout <SECS>   end streams whose ingest stalls this long, with
                          an end record coded \"idle_timeout\" — everything
                          received is still decoded (default 30; 0 = off)
  --metrics-retention <N> finished streams kept individually visible in
                          metrics before the oldest folds into the
                          persistent *_total counters (default 64; 0 =
                          never retire)
  --log-level <LEVEL>     stderr log verbosity: error, warn, info or debug
                          (default info)
  --log-format <FMT>      stderr log format: text or json (default text)
  --enable-fault-injection
                          honor header-carried fault_panic_span chaos
                          hooks (tests only; off by default)
  --replay <FILE[@NAME]>  feed this .cf32 capture to the daemon's own ingest
                          port (repeatable; NAME defaults to the file stem)
  --pace <F>              replay upload speed as a multiple of the sample
                          rate (default 1 = real time; 0 = wire speed —
                          expect counted ring drops)
  --once                  exit after the --replay feeders finish
  --quiet                 do not echo feeder NDJSON records to stdout
  --help                  this text

Without --once the daemon runs until SIGINT/SIGTERM, then shuts down
gracefully (streams drained, end records written, threads joined)."
        .to_string()
}

/// `--max-conns` when the flag is absent. Each connection costs a serving
/// thread, a detection thread and `--workers` decode threads, so an
/// unlimited default lets a fleet of well-formed clients grow the daemon's
/// thread count without bound. 64 is above the 52 500 kHz channels of the
/// 902–928 MHz band, so one stream per channel still fits.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Parsed `netscatterd` options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Ingest listen address.
    pub listen: String,
    /// Metrics listen address (`None` = disabled).
    pub metrics: Option<String>,
    /// Every stream's gateway defaults; a header may override the bins,
    /// payload bits and detection floor.
    pub base: GatewayConfig,
    /// Default sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Concurrent-connection cap (0 = unlimited; default
    /// [`DEFAULT_MAX_CONNS`]).
    pub max_conns: usize,
    /// Header deadline in seconds (0 = wait forever).
    pub header_timeout_secs: f64,
    /// Idle-ingest deadline in seconds (0 = wait forever).
    pub idle_timeout_secs: f64,
    /// Honor header-carried fault-injection hooks (tests only).
    pub enable_fault_injection: bool,
    /// Finished streams kept individually visible in metrics (0 = never
    /// retire).
    pub metrics_retention: usize,
    /// Stderr log verbosity.
    pub log_level: Level,
    /// Stderr log format.
    pub log_format: LogFormat,
    /// Replay feeders: capture path plus stream name.
    pub replays: Vec<(PathBuf, String)>,
    /// Replay upload speed as a multiple of the sample rate (0 = wire
    /// speed).
    pub pace: f64,
    /// Exit once the feeders finish.
    pub once: bool,
    /// Suppress feeder record echo.
    pub quiet: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:7470".to_string(),
            metrics: Some("127.0.0.1:7471".to_string()),
            base: GatewayConfig {
                // A serving default, deliberately deeper than the in-process pipeline's 8:
                // 64 × 4096 samples is ~0.5 s of real-time ingest per stream, so drop-oldest
                // only fires on sustained overload, not on scheduler jitter when many streams
                // share few cores.
                ring_slots: 64,
                ..GatewayConfig::new(PhyProfile::default(), Vec::new(), 8)
            },
            sample_rate_hz: 500e3,
            max_conns: DEFAULT_MAX_CONNS,
            header_timeout_secs: 10.0,
            idle_timeout_secs: 30.0,
            enable_fault_injection: false,
            metrics_retention: DEFAULT_METRICS_RETENTION,
            log_level: Level::Info,
            log_format: LogFormat::Text,
            replays: Vec::new(),
            pace: 1.0,
            once: false,
            quiet: false,
        }
    }
}

impl ServeOptions {
    /// The daemon configuration these options describe.
    pub fn daemon_config(&self) -> DaemonConfig {
        let deadline = |secs: f64| (secs > 0.0).then(|| std::time::Duration::from_secs_f64(secs));
        DaemonConfig {
            listen: self.listen.clone(),
            metrics: self.metrics.clone(),
            base: self.base.clone(),
            default_sample_rate_hz: self.sample_rate_hz,
            max_conns: self.max_conns,
            header_deadline: deadline(self.header_timeout_secs),
            idle_deadline: deadline(self.idle_timeout_secs),
            allow_fault_injection: self.enable_fault_injection,
            metrics_retention: self.metrics_retention,
        }
    }
}

/// Parses the `netscatterd` flag set. The stream defaults are range-checked
/// once, after every flag is in, by [`check_config`].
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, CliUsage> {
    let mut opts = ServeOptions::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliUsage> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliUsage::usage(format!("{flag} requires a value")))
    };
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliUsage> {
        v.parse()
            .map_err(|_| CliUsage::usage(format!("{flag}: cannot parse {v:?}")))
    }
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--listen" => opts.listen = value(&mut i, arg)?,
            "--metrics" => {
                let v = value(&mut i, arg)?;
                opts.metrics = (v != "off").then_some(v);
            }
            "--bins" => {
                let v = value(&mut i, arg)?;
                opts.base.assigned_bins = v
                    .split(',')
                    .map(|b| num::<usize>(arg, b.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--payload-bits" => opts.base.payload_symbols = num(arg, &value(&mut i, arg)?)?,
            "--sample-rate" => {
                opts.sample_rate_hz = positive_finite(arg, num(arg, &value(&mut i, arg)?)?)
                    .map_err(CliUsage::usage)?;
            }
            "--chunk-samples" => opts.base.chunk_samples = num(arg, &value(&mut i, arg)?)?,
            "--ring-slots" => opts.base.ring_slots = num(arg, &value(&mut i, arg)?)?,
            "--workers" => opts.base.workers = num(arg, &value(&mut i, arg)?)?,
            "--detection-floor" => {
                opts.base.detection_floor_fraction = Some(num(arg, &value(&mut i, arg)?)?);
            }
            "--max-conns" => opts.max_conns = num(arg, &value(&mut i, arg)?)?,
            "--header-timeout" => {
                opts.header_timeout_secs = num(arg, &value(&mut i, arg)?)?;
                if opts.header_timeout_secs.is_nan() || opts.header_timeout_secs < 0.0 {
                    return Err(CliUsage::usage("--header-timeout must be non-negative"));
                }
            }
            "--idle-timeout" => {
                opts.idle_timeout_secs = num(arg, &value(&mut i, arg)?)?;
                if opts.idle_timeout_secs.is_nan() || opts.idle_timeout_secs < 0.0 {
                    return Err(CliUsage::usage("--idle-timeout must be non-negative"));
                }
            }
            "--enable-fault-injection" => opts.enable_fault_injection = true,
            "--metrics-retention" => opts.metrics_retention = num(arg, &value(&mut i, arg)?)?,
            "--log-level" => {
                let v = value(&mut i, arg)?;
                opts.log_level = Level::parse(&v).ok_or_else(|| {
                    CliUsage::usage(format!(
                        "--log-level: expected error, warn, info or debug, got {v:?}"
                    ))
                })?;
            }
            "--log-format" => {
                let v = value(&mut i, arg)?;
                opts.log_format = LogFormat::parse(&v).ok_or_else(|| {
                    CliUsage::usage(format!("--log-format: expected text or json, got {v:?}"))
                })?;
            }
            "--replay" => {
                let v = value(&mut i, arg)?;
                let (path, name) = match v.split_once('@') {
                    Some((p, n)) if !n.is_empty() => (PathBuf::from(p), n.to_string()),
                    _ => {
                        let p = PathBuf::from(&v);
                        let name = p
                            .file_stem()
                            .map(|s| s.to_string_lossy().into_owned())
                            .unwrap_or_else(|| "replay".to_string());
                        (p, name)
                    }
                };
                opts.replays.push((path, name));
            }
            "--pace" => {
                opts.pace = num(arg, &value(&mut i, arg)?)?;
                if opts.pace.is_nan() || opts.pace < 0.0 {
                    return Err(CliUsage::usage("--pace must be non-negative"));
                }
            }
            "--once" => opts.once = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                return Err(CliUsage {
                    message: usage(),
                    code: 0,
                })
            }
            other => return Err(CliUsage::usage(format!("unknown argument: {other}"))),
        }
        i += 1;
    }
    if opts.once && opts.replays.is_empty() {
        return Err(CliUsage::usage(
            "--once without --replay would exit immediately",
        ));
    }
    check_config(&opts.base, CodingScheme::None).map_err(CliUsage::usage)?;
    Ok(opts)
}

/// Runs the daemon for `opts` until its stop condition. Factored apart
/// from [`serve_main`] so tests can drive it with a custom stop.
fn run_daemon(opts: &ServeOptions) -> Result<(), String> {
    let daemon = Daemon::start(opts.daemon_config()).map_err(|e| format!("bind failed: {e}"))?;
    // Status goes through the structured logger (stderr, level-filtered,
    // `--log-format json` for machines); stdout stays reserved for the
    // NDJSON records the feeders echo.
    olog::info(
        "netscatterd",
        "ingest listening",
        &[("addr", daemon.ingest_addr().to_string().as_str().into())],
    );
    if let Some(addr) = daemon.metrics_addr() {
        olog::info(
            "netscatterd",
            "metrics listening",
            &[("addr", addr.to_string().as_str().into())],
        );
    }

    let ingest = daemon.ingest_addr();
    let rate = opts.sample_rate_hz;
    let quiet = opts.quiet;
    let pace = if opts.pace > 0.0 {
        client::Pace::SamplesPerSec(rate * opts.pace)
    } else {
        client::Pace::Unlimited
    };
    let feeders: Vec<_> = opts
        .replays
        .iter()
        .cloned()
        .map(|(path, name)| {
            std::thread::spawn(move || -> Result<(), String> {
                let mut header = StreamHeader::named(&name);
                header.sample_rate_hz = Some(rate);
                let lines = client::stream_file(ingest, &header, &path, pace)
                    .map_err(|e| format!("replay {}: {e}", path.display()))?;
                if !quiet {
                    for line in &lines {
                        println!("{line}");
                    }
                }
                Ok(())
            })
        })
        .collect();

    let mut failures = Vec::new();
    if opts.once {
        for f in feeders {
            if let Err(e) = f.join().expect("feeder thread panicked") {
                failures.push(e);
            }
        }
    } else {
        signals::install();
        while !signals::signaled() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        olog::info("netscatterd", "shutdown signal received", &[]);
        for f in feeders {
            if let Err(e) = f.join().expect("feeder thread panicked") {
                failures.push(e);
            }
        }
    }
    daemon.shutdown();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Entry point shared by the `netscatterd` binary and `netscatter serve`:
/// parses flags, runs the daemon, returns the process exit code.
pub fn serve_main(args: &[String]) -> i32 {
    let opts = match parse_serve_args(args) {
        Ok(opts) => opts,
        Err(e) => {
            if e.code == 0 {
                println!("{}", e.message);
            } else {
                eprintln!("{}", e.message);
                eprintln!("run `netscatterd --help` for usage");
            }
            return e.code;
        }
    };
    olog::init(opts.log_level, opts.log_format);
    match run_daemon(&opts) {
        Ok(()) => 0,
        Err(e) => {
            olog::error("netscatterd", &e, &[]);
            1
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
    fn flags_assemble_serve_options() {
        let opts = parse_serve_args(&args(&[
            "--listen",
            "0.0.0.0:9000",
            "--metrics",
            "off",
            "--bins",
            "64, 192",
            "--payload-bits",
            "16",
            "--sample-rate",
            "250000",
            "--workers",
            "2",
            "--max-conns",
            "4",
            "--header-timeout",
            "0.5",
            "--idle-timeout",
            "0",
            "--enable-fault-injection",
            "--replay",
            "/tmp/cap.cf32@door",
            "--replay",
            "/tmp/other.cf32",
            "--quiet",
        ]))
        .expect("flags parse");
        assert_eq!(opts.listen, "0.0.0.0:9000");
        assert_eq!(opts.metrics, None);
        assert_eq!(opts.base.assigned_bins, vec![64, 192]);
        assert_eq!(opts.base.payload_symbols, 16);
        assert_eq!(opts.sample_rate_hz, 250e3);
        assert_eq!(opts.base.workers, 2);
        assert_eq!(opts.replays[0].1, "door");
        assert_eq!(opts.replays[1].1, "other");
        assert!(opts.quiet && !opts.once);
        assert_eq!(opts.max_conns, 4);
        // The gateway config the options resolve to.
        let cfg = opts.daemon_config();
        assert_eq!(cfg.base.assigned_bins, vec![64, 192]);
        assert_eq!(cfg.base.payload_symbols, 16);
        assert_eq!(cfg.default_sample_rate_hz, 250e3);
        assert_eq!(cfg.max_conns, 4);
        assert_eq!(
            cfg.header_deadline,
            Some(std::time::Duration::from_millis(500))
        );
        assert_eq!(cfg.idle_deadline, None); // 0 disables the deadline
        assert!(cfg.allow_fault_injection);
    }

    #[test]
    fn max_conns_defaults_to_a_finite_cap_and_zero_opts_out() {
        let opts = parse_serve_args(&[]).expect("no flags parse");
        assert_eq!(opts.max_conns, 64);
        assert_eq!(opts.daemon_config().max_conns, DEFAULT_MAX_CONNS);
        let unlimited = parse_serve_args(&args(&["--max-conns", "0"])).expect("0 parses");
        assert_eq!(unlimited.daemon_config().max_conns, 0, "0 = unlimited");
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        for bad in [
            vec!["--frobnicate"],
            vec!["--bins"],
            vec!["--bins", "a,b"],
            vec!["--bins", "64,512"], // 512 is not a shift of a 2^9-bin chirp
            vec!["--bins", "64,64"],  // one shift, decoded and counted twice
            vec!["--payload-bits", "0"],
            vec!["--payload-bits", "1025"],
            vec!["--payload-bits", "36028797018963968"], // 2^55 wraps a packet length
            vec!["--payload-bits", "18446744073709551616"], // 2^64 does not parse
            vec!["--ring-slots", "0"],                   // a ring holds at least one chunk
            vec!["--chunk-samples", "0"],                // a chunk holds at least one sample
            vec!["--sample-rate", "-1"],
            vec!["--sample-rate", "inf"],
            vec!["--detection-floor", "-1"],
            vec!["--detection-floor", "nan"],
            vec!["--detection-floor", "inf"],
            vec!["--header-timeout", "-1"],
            vec!["--idle-timeout", "nope"],
            vec!["--once"], // nothing to replay: would exit immediately
        ] {
            let err = parse_serve_args(&args(&bad)).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}");
        }
        assert_eq!(parse_serve_args(&args(&["--help"])).unwrap_err().code, 0);
        let last = parse_serve_args(&args(&["--bins", "0,511"])).expect("highest shift parses");
        assert_eq!(last.base.assigned_bins, vec![0, 511]);
        // One entry per cyclic shift at most: every shift once is the most.
        let shifts = (0..512)
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert!(parse_serve_args(&args(&["--bins", &shifts])).is_ok());
        let over = format!("{shifts},0");
        let err = parse_serve_args(&args(&["--bins", &over])).unwrap_err();
        assert!(
            err.code == 2 && err.message.contains("513 bins"),
            "{}",
            err.message
        );
        let most = parse_serve_args(&args(&["--payload-bits", "1024"])).expect("the cap parses");
        assert_eq!(most.base.payload_symbols, 1024);
        let one = parse_serve_args(&args(&["--ring-slots", "1"])).expect("one slot parses");
        assert_eq!(one.base.ring_slots, 1);
    }
}
