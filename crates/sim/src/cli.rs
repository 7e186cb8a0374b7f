//! The unified `netscatter` command-line interface.
//!
//! One binary runs every experiment:
//!
//! * `netscatter list` — every registered experiment with its scenario
//!   knobs.
//! * `netscatter run <id> [flags]` — run one experiment; `--format
//!   text|json|csv` selects the sink, `--out` redirects it to a file.
//! * `netscatter sweep <id> --set field=v1,v2,… [--set …]` — the cartesian
//!   parameter grid over any [`Scenario`] field, one structured result per
//!   grid point.
//! * `netscatter serve [flags]` — run the `netscatterd` multi-stream
//!   serving daemon (same flags as the standalone binary).
//! * `netscatter stress [flags]` — the multi-stream daemon stress harness
//!   (see [`crate::stress`]).
//!
//! Every experiment accepts the same universal flags (`--quick`/`--paper`,
//! `--seed`, `--threads`, `--fidelity`, `--devices`, `--placement`,
//! `--channel`, `--payload-bits`, `--coding`).

use crate::experiment::{render, Experiment, ExperimentResult, OutputFormat, SCHEMA_VERSION};
use crate::experiments::{find, registry};
use crate::scenario::{Scenario, SCENARIO_FIELDS};
use netscatter::json::Json;

/// A CLI failure: message for stderr plus the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable error (printed to stderr).
    pub message: String,
    /// Process exit code (2 for usage errors, 1 for I/O failures).
    pub code: i32,
}

impl CliError {
    pub(crate) fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
        }
    }

    fn io(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 1,
        }
    }
}

/// The `--help` text.
pub fn usage() -> String {
    format!(
        "netscatter — unified experiment runner for the NetScatter reproduction

USAGE:
  netscatter list
  netscatter run <id> [flags]
  netscatter sweep <id> --set <field>=<v1,v2,...> [--set ...] [flags]
  netscatter serve [flags]     # the netscatterd daemon (serve --help)
  netscatter stress [flags]    # multi-stream daemon stress (stress --help)

FLAGS (run & sweep):
  --quick | --paper           trial-count scale (default: paper)
  --seed <N>                  Monte-Carlo base seed (default: 42)
  --threads <N>               worker-thread bound (default: all cores; 0 = all cores)
  --fidelity <analytical|sample>
  --devices <N>               population size (default: 256)
  --placement <office|hall>
  --channel <office|outdoor|pristine>
  --payload-bits <N>
  --coding <{codings}>        link-layer coding scheme (default: none)
  --arrival-rate <R>          gateway round arrivals per second (default: 10)
  --stream-secs <S>           gateway stream duration (default: 1.0)
  --chunk-samples <N>         gateway producer chunk size (default: 4096)
  --channels <K>              gateway channels for the sharded engine (default: 1)
  --format <text|json|csv>    output sink (default: text)
  --out <PATH>                write output to PATH instead of stdout

Enum values (--fidelity, --placement, --channel, --coding, --format, and
their --set counterparts) are case-insensitive.
Sweepable scenario fields: {fields}
Run `netscatter list` for the experiment ids.",
        codings = coding_names().join("|"),
        fields = SCENARIO_FIELDS.join(", ")
    )
}

/// The CLI names of every link-layer coding scheme.
fn coding_names() -> Vec<&'static str> {
    netscatter_coding::CodingScheme::ALL
        .iter()
        .map(|c| c.name())
        .collect()
}

/// Options shared by `run` and `sweep` (and, for the scenario flags,
/// `stress`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// The scenario assembled from the flags.
    pub scenario: Scenario,
    /// Output sink.
    pub format: OutputFormat,
    /// Output file (stdout when `None`).
    pub out: Option<String>,
    /// `--set` grid axes, in flag order (sweep only).
    pub grid: Vec<(String, Vec<String>)>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scenario: Scenario::default(),
            format: OutputFormat::Text,
            out: None,
            grid: Vec::new(),
        }
    }
}

/// Parses the universal flag set into [`RunOptions`]. `allow_grid` enables
/// `--set` (the sweep grid); everything else is shared with `run`.
pub fn parse_flags(args: &[String], allow_grid: bool) -> Result<RunOptions, CliError> {
    let mut opts = RunOptions::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError::usage(format!("{flag} requires a value")))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--quick" => opts
                .scenario
                .set_field("scale", "quick")
                .map_err(CliError::usage)?,
            "--paper" => opts
                .scenario
                .set_field("scale", "paper")
                .map_err(CliError::usage)?,
            // Enum-valued fields are case-insensitive inside `set_field`,
            // which also covers the `--set` sweep path.
            "--seed" | "--threads" | "--devices" | "--placement" | "--channel" | "--fidelity"
            | "--coding" => {
                let field = arg.trim_start_matches("--").to_string();
                let v = value(&mut i, arg)?;
                opts.scenario
                    .set_field(&field, &v)
                    .map_err(CliError::usage)?;
            }
            "--payload-bits" | "--arrival-rate" | "--stream-secs" | "--chunk-samples"
            | "--channels" => {
                let field = arg.trim_start_matches("--").replace('-', "_");
                let v = value(&mut i, arg)?;
                opts.scenario
                    .set_field(&field, &v)
                    .map_err(CliError::usage)?;
            }
            "--format" => {
                let v = value(&mut i, arg)?;
                opts.format = OutputFormat::parse(&v).map_err(CliError::usage)?;
            }
            "--out" => opts.out = Some(value(&mut i, arg)?),
            "--set" if allow_grid => {
                let v = value(&mut i, arg)?;
                let (field, values) = v
                    .split_once('=')
                    .ok_or_else(|| CliError::usage("--set expects <field>=<v1,v2,...>"))?;
                if !SCENARIO_FIELDS.contains(&field) {
                    return Err(CliError::usage(format!(
                        "unknown scenario field {field:?}; known fields: {}",
                        SCENARIO_FIELDS.join(", ")
                    )));
                }
                if opts.grid.iter().any(|(f, _)| f == field) {
                    // A second axis on the same field would overwrite the
                    // first and mislabel every sweep point.
                    return Err(CliError::usage(format!(
                        "--set {field} given twice; list all values in one axis"
                    )));
                }
                let values: Vec<String> = values.split(',').map(str::to_string).collect();
                if values.iter().any(String::is_empty) {
                    return Err(CliError::usage(format!(
                        "--set {field}= has an empty value"
                    )));
                }
                opts.grid.push((field.to_string(), values));
            }
            "--help" | "-h" => {
                return Err(CliError {
                    message: usage(),
                    code: 0,
                })
            }
            other => return Err(CliError::usage(format!("unknown argument: {other}"))),
        }
        i += 1;
    }
    // Cross-field validation (coding × payload_bits frame geometry) runs
    // once all flags are in, so flag order never matters. When a sweep axis
    // covers either field, the base value is about to be overwritten — each
    // expanded grid point is validated instead (in `expand_grid`).
    let swept = |field: &str| opts.grid.iter().any(|(f, _)| f == field);
    if !swept("coding") && !swept("payload_bits") {
        opts.scenario.validate().map_err(CliError::usage)?;
    }
    Ok(opts)
}

/// Case-insensitive Levenshtein edit distance, for the did-you-mean hint.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.to_lowercase().chars().collect();
    let b: Vec<char> = b.to_lowercase().chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The registered experiment id closest to `id`, if any is close enough to
/// plausibly be a typo (edit distance at most half the longer name).
fn nearest_experiment_id(id: &str) -> Option<&'static str> {
    registry()
        .iter()
        .map(|e| (edit_distance(id, e.id), e.id))
        .min()
        .filter(|(d, best)| *d * 2 <= id.len().max(best.len()))
        .map(|(_, best)| best)
}

/// Looks up `id` in the registry with a usage-quality error, suggesting the
/// nearest registered id on a miss.
fn find_experiment(id: &str) -> Result<&'static Experiment, CliError> {
    find(id).ok_or_else(|| {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let hint = nearest_experiment_id(id)
            .map(|best| format!(" did you mean {best:?}?"))
            .unwrap_or_default();
        CliError::usage(format!(
            "unknown experiment {id:?};{hint} available: {}",
            ids.join(", ")
        ))
    })
}

/// Warns (stderr) when a flag sets a field the experiment never reads.
fn warn_unused_fields(exp: &Experiment, opts: &RunOptions) {
    let defaults = Scenario::default();
    let default_fields = defaults.fields();
    for ((name, value), (_, default)) in opts.scenario.fields().iter().zip(&default_fields) {
        let used = exp.fields.contains(name);
        if value != default && !used {
            eprintln!(
                "note: {} does not read scenario field '{name}' (set to {value}); result is unaffected",
                exp.id
            );
        }
    }
    for (field, _) in &opts.grid {
        if !exp.fields.contains(&field.as_str()) {
            eprintln!(
                "note: {} does not read scenario field '{field}'; sweeping it repeats the same result",
                exp.id
            );
        }
    }
}

/// Writes `content` to `--out` or stdout.
fn emit(content: &str, out: &Option<String>) -> Result<(), CliError> {
    match out {
        Some(path) => {
            std::fs::write(path, content)
                .map_err(|e| CliError::io(format!("failed to write {path}: {e}")))?;
            println!("wrote {path}");
            Ok(())
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

/// `netscatter list`.
fn list() -> Result<(), CliError> {
    println!("registered experiments ({}):", registry().len());
    for exp in registry() {
        let fields = exp.fields;
        let knobs = if fields.is_empty() {
            "none (pure function)".to_string()
        } else {
            fields.join(", ")
        };
        println!("  {:18} {}", exp.id, exp.title);
        println!("  {:18}   scenario knobs: {knobs}", "");
    }
    Ok(())
}

/// `netscatter run <id>`.
fn run(id: &str, flag_args: &[String]) -> Result<(), CliError> {
    let exp = find_experiment(id)?;
    let opts = parse_flags(flag_args, false)?;
    warn_unused_fields(exp, &opts);
    let result = exp.run(&opts.scenario);
    emit(&render(exp, &result, opts.format), &opts.out)
}

/// Expands the cartesian grid of `--set` axes into concrete scenarios.
/// Returns `(labels, scenarios)` in row-major order (last axis fastest).
fn expand_grid(
    base: &Scenario,
    grid: &[(String, Vec<String>)],
) -> Result<Vec<(String, Scenario)>, CliError> {
    let mut combos: Vec<(String, Scenario)> = vec![(String::new(), base.clone())];
    for (field, values) in grid {
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for (label, scenario) in &combos {
            for value in values {
                let mut s = scenario.clone();
                s.set_field(field, value).map_err(CliError::usage)?;
                let label = if label.is_empty() {
                    format!("{field}={value}")
                } else {
                    format!("{label} {field}={value}")
                };
                next.push((label, s));
            }
        }
        combos = next;
    }
    // Intermediate combos may be transiently invalid (a coding axis applied
    // before the payload_bits axis); only the finished grid points must
    // satisfy the cross-field frame geometry.
    for (label, scenario) in &combos {
        scenario.validate().map_err(|e| {
            CliError::usage(if label.is_empty() {
                e.clone()
            } else {
                format!("sweep point [{label}]: {e}")
            })
        })?;
    }
    Ok(combos)
}

/// `netscatter sweep <id>`.
fn sweep(id: &str, flag_args: &[String]) -> Result<(), CliError> {
    let exp = find_experiment(id)?;
    let opts = parse_flags(flag_args, true)?;
    if opts.grid.is_empty() {
        return Err(CliError::usage(
            "sweep requires at least one --set <field>=<v1,v2,...> axis",
        ));
    }
    warn_unused_fields(exp, &opts);
    let combos = expand_grid(&opts.scenario, &opts.grid)?;
    let results: Vec<(String, ExperimentResult)> = combos
        .into_iter()
        .map(|(label, scenario)| (label, exp.run(&scenario)))
        .collect();
    let content = match opts.format {
        OutputFormat::Json => {
            let axes = Json::Array(
                opts.grid
                    .iter()
                    .map(|(field, values)| {
                        Json::object(vec![
                            ("field", Json::Str(field.clone())),
                            (
                                "values",
                                Json::Array(values.iter().map(|v| Json::Str(v.clone())).collect()),
                            ),
                        ])
                    })
                    .collect(),
            );
            Json::object(vec![
                ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
                ("experiment", Json::Str(exp.id.to_string())),
                ("sweep", axes),
                (
                    "results",
                    Json::Array(results.iter().map(|(_, r)| r.to_json()).collect()),
                ),
            ])
            .to_string_pretty()
        }
        OutputFormat::Csv => {
            let mut out = String::new();
            for (label, result) in &results {
                out.push_str(&format!("# sweep-point: {label}\n"));
                out.push_str(&result.to_csv());
            }
            out
        }
        OutputFormat::Text => {
            let mut out = String::new();
            for (label, result) in &results {
                out.push_str(&format!("== {label} ==\n"));
                out.push_str(&exp.render_text(result));
            }
            out
        }
    };
    emit(&content, &opts.out)
}

/// Entry point shared by the `netscatter` binary: dispatches the
/// subcommand and returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("run") => match args.get(1).map(String::as_str) {
            Some("--help") | Some("-h") => {
                println!("{}", usage());
                Ok(())
            }
            Some(id) => run(id, &args[2..]),
            None => Err(CliError::usage("run requires an experiment id")),
        },
        Some("sweep") => match args.get(1).map(String::as_str) {
            Some("--help") | Some("-h") => {
                println!("{}", usage());
                Ok(())
            }
            Some(id) => sweep(id, &args[2..]),
            None => Err(CliError::usage("sweep requires an experiment id")),
        },
        // The daemon and its stress harness keep their own flag sets; their
        // entry points already print usage and return exit codes directly.
        Some("serve") => return netscatter_daemon::cli::serve_main(&args[1..]),
        Some("stress") => return crate::stress::stress_main(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown subcommand {other:?}; expected list, run, sweep, serve or stress"
        ))),
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            if e.code == 0 {
                println!("{}", e.message);
            } else {
                eprintln!("{}", e.message);
                eprintln!("run `netscatter --help` for usage");
            }
            e.code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn universal_flags_assemble_a_scenario() {
        let opts = parse_flags(
            &args(&[
                "--quick",
                "--seed",
                "7",
                "--threads",
                "3",
                "--fidelity",
                "sample",
                "--devices",
                "32",
                "--placement",
                "hall",
                "--channel",
                "outdoor",
                "--payload-bits",
                "16",
                "--format",
                "json",
            ]),
            false,
        )
        .expect("flags parse");
        assert_eq!(opts.scenario.scale, Scale::Quick);
        assert_eq!(opts.scenario.seed, 7);
        assert_eq!(opts.scenario.threads, 3);
        assert_eq!(opts.scenario.devices, 32);
        assert_eq!(opts.scenario.payload_bits, 16);
        assert_eq!(opts.format, OutputFormat::Json);
        assert!(opts.out.is_none());
    }

    #[test]
    fn gateway_flags_reach_the_scenario() {
        let opts = parse_flags(
            &args(&[
                "--arrival-rate",
                "2.5",
                "--stream-secs",
                "0.5",
                "--chunk-samples",
                "1024",
            ]),
            false,
        )
        .expect("flags parse");
        assert_eq!(opts.scenario.arrival_rate, 2.5);
        assert_eq!(opts.scenario.stream_secs, 0.5);
        assert_eq!(opts.scenario.chunk_samples, 1024);
        assert!(parse_flags(&args(&["--arrival-rate", "0"]), false).is_err());
    }

    #[test]
    fn channels_flag_reaches_the_scenario_and_sweeps_as_a_grid_axis() {
        let opts = parse_flags(&args(&["--channels", "4"]), false).expect("flags parse");
        assert_eq!(opts.scenario.channels, 4);
        // A zero-channel gateway is meaningless: rejected at parse time.
        assert!(parse_flags(&args(&["--channels", "0"]), false).is_err());
        // The sharding axis sweeps like any other scenario field.
        let opts = parse_flags(&args(&["--set", "channels=1,2,4"]), true).expect("grid parses");
        let combos = expand_grid(&opts.scenario, &opts.grid).expect("grid expands");
        assert_eq!(combos.len(), 3);
        assert_eq!(
            combos.iter().map(|(_, s)| s.channels).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert_eq!(combos[1].0, "channels=2");
        assert!(expand_grid(&opts.scenario, &[("channels".into(), vec!["0".into()])]).is_err());
    }

    #[test]
    fn coding_flag_validates_frame_geometry_after_all_flags() {
        // A valid scheme × payload pairing parses in either flag order.
        for order in [
            ["--coding", "rs", "--payload-bits", "112"],
            ["--payload-bits", "112", "--coding", "rs"],
        ] {
            let opts = parse_flags(&args(&order), false).expect("valid geometry parses");
            assert_eq!(opts.scenario.coding, netscatter_coding::CodingScheme::Rs);
            assert_eq!(opts.scenario.payload_bits, 112);
        }
        // The default 40-bit payload fits no RS geometry: usage error that
        // names the constraint instead of a silent downstream failure.
        let err = parse_flags(&args(&["--coding", "rs"]), false).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("payload_bits"), "{}", err.message);
        // Unknown schemes are rejected at the flag.
        assert!(parse_flags(&args(&["--coding", "turbo"]), false).is_err());
        // coding none (the default) never constrains payload_bits.
        assert!(parse_flags(&args(&["--coding", "none"]), false).is_ok());
        // A sweep may fix the geometry through its axes: the base scenario
        // is transiently invalid, every expanded point is checked instead.
        let opts = parse_flags(
            &args(&["--coding", "hamming", "--set", "payload_bits=70,84"]),
            true,
        )
        .expect("geometry deferred to the grid");
        let combos = expand_grid(&opts.scenario, &opts.grid).expect("valid grid points");
        assert_eq!(combos.len(), 2);
        let err = expand_grid(
            &opts.scenario,
            &[("payload_bits".into(), vec!["70".into(), "41".into()])],
        )
        .unwrap_err();
        assert!(err.message.contains("payload_bits=41"), "{}", err.message);
        // And coding itself sweeps as a grid axis.
        let opts = parse_flags(
            &args(&["--payload-bits", "112", "--set", "coding=none,rs"]),
            true,
        )
        .expect("coding axis parses");
        let combos = expand_grid(&opts.scenario, &opts.grid).expect("axis expands");
        assert_eq!(
            combos
                .iter()
                .map(|(_, s)| s.coding.name())
                .collect::<Vec<_>>(),
            vec!["none", "rs"]
        );
    }

    #[test]
    fn enum_valued_flags_are_case_insensitive() {
        let opts = parse_flags(
            &args(&[
                "--fidelity",
                "Sample",
                "--placement",
                "HALL",
                "--format",
                "JSON",
            ]),
            false,
        )
        .expect("mixed-case values parse");
        assert_eq!(
            opts.scenario.fidelity,
            crate::network::Fidelity::SampleLevel
        );
        assert_eq!(opts.scenario.placement, crate::scenario::Placement::Hall);
        assert_eq!(opts.format, OutputFormat::Json);
        // Other flags stay strict: values that are not enum names at any
        // capitalization still fail.
        assert!(parse_flags(&args(&["--fidelity", "vibes"]), false).is_err());
    }

    #[test]
    fn unknown_experiment_ids_get_a_nearest_suggestion() {
        let miss = |id: &str| find_experiment(id).err().expect("unknown id errors");
        let err = miss("fig7");
        assert!(
            err.message.contains("did you mean \"fig17\"?")
                || err.message.contains("did you mean \"fig04\"?"),
            "{}",
            err.message
        );
        let err = miss("gatewy");
        assert!(
            err.message.contains("did you mean \"gateway\"?"),
            "{}",
            err.message
        );
        // Nothing plausible: no suggestion, just the listing.
        let err = miss("zzzzzzzzzzzz");
        assert!(!err.message.contains("did you mean"), "{}", err.message);
        assert!(err.message.contains("available:"));
    }

    #[test]
    fn edit_distance_is_a_metric_on_small_words() {
        assert_eq!(edit_distance("fig17", "fig17"), 0);
        assert_eq!(edit_distance("fig7", "fig17"), 1);
        assert_eq!(edit_distance("FIG17", "fig17"), 0, "case-insensitive");
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_usage_errors() {
        for bad in [
            vec!["--frobnicate"],
            vec!["--scheme", "netscatter"],
            vec!["--seed"],
            vec!["--seed", "many"],
            vec!["--fidelity", "vibes"],
            vec!["--format", "yaml"],
            vec!["--payload-bits", "0"],
            // Past the daemon's bound: refused here, before a round of that
            // size is ever synthesized.
            vec!["--payload-bits", "1025"],
            vec!["--payload-bits", "36028797018963968"],
            vec!["--set", "devices=1,2"], // grid not allowed outside sweep
        ] {
            let err = parse_flags(&args(&bad), false).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}");
        }
        let opts = parse_flags(&args(&["--payload-bits", "1024"]), false).unwrap();
        assert_eq!(opts.scenario.payload_bits, 1024);
        // A sweep axis is checked point by point as the grid expands.
        let opts = parse_flags(&args(&["--set", "payload_bits=1024,1025"]), true).unwrap();
        let err = expand_grid(&opts.scenario, &opts.grid).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("1..=1024"), "{}", err.message);
    }

    #[test]
    fn grid_parsing_validates_fields_and_expands_cartesian_products() {
        let opts = parse_flags(
            &args(&["--set", "devices=16,64", "--set", "seed=1,2,3"]),
            true,
        )
        .expect("grid parses");
        let combos = expand_grid(&opts.scenario, &opts.grid).expect("grid expands");
        assert_eq!(combos.len(), 6);
        assert_eq!(combos[0].0, "devices=16 seed=1");
        assert_eq!(combos[5].0, "devices=64 seed=3");
        assert_eq!(combos[5].1.devices, 64);
        assert_eq!(combos[5].1.seed, 3);
        // Unknown fields, empty values, and duplicate axes are rejected at
        // parse time (a second axis on one field would mislabel the sweep).
        assert!(parse_flags(&args(&["--set", "volume=11"]), true).is_err());
        assert!(parse_flags(&args(&["--set", "scheme=netscatter"]), true).is_err());
        assert!(parse_flags(&args(&["--set", "devices=,"]), true).is_err());
        assert!(parse_flags(&args(&["--set", "devices"]), true).is_err());
        let dup = parse_flags(&args(&["--set", "seed=1,2", "--set", "seed=3"]), true).unwrap_err();
        assert!(dup.message.contains("twice"), "{}", dup.message);
    }

    #[test]
    fn main_dispatch_reports_usage_errors() {
        assert_eq!(main_with_args(&args(&["run"])), 2);
        assert_eq!(main_with_args(&args(&["run", "fig99"])), 2);
        assert_eq!(
            main_with_args(&args(&["sweep", "fig08"])),
            2,
            "sweep without --set"
        );
        assert_eq!(main_with_args(&args(&["bogus"])), 2);
    }

    #[test]
    fn help_is_reachable_from_every_dispatch_position() {
        assert_eq!(main_with_args(&args(&["--help"])), 0);
        assert_eq!(main_with_args(&args(&["run", "--help"])), 0);
        assert_eq!(main_with_args(&args(&["sweep", "-h"])), 0);
    }

    #[test]
    fn run_and_list_succeed_end_to_end() {
        // `list` and a cheap pure-function experiment through the real
        // dispatch path (stdout is shared with the test harness; the exit
        // code is the contract here).
        assert_eq!(main_with_args(&args(&["list"])), 0);
        assert_eq!(main_with_args(&args(&["run", "fig08"])), 0);
        assert_eq!(
            main_with_args(&args(&["run", "analysis_choir", "--format", "csv"])),
            0
        );
    }
}
