//! The typed experiment API: registry entries, structured results, and
//! output sinks.
//!
//! Every table/figure/analysis driver of the evaluation is one
//! [`Experiment`] in [`crate::experiments::registry`]: a named unit that
//! maps a [`crate::scenario::Scenario`] to a structured
//! [`ExperimentResult`]. Results are plain data — named tables of numeric
//! rows plus named scalars, stamped with the scenario, a `schema_version`
//! and the source revision — so downstream tooling (sweeps, regression
//! gates, plotting) composes them programmatically instead of scraping
//! text. The pre-redesign text reports are reproduced byte-for-byte by
//! [`Experiment::render_text`], making the old format just one sink among
//! [`OutputFormat::Json`] and [`OutputFormat::Csv`].

use crate::scenario::Scenario;
use netscatter::json::Json;
use serde::{Deserialize, Serialize};

/// Version stamp carried by every serialized [`ExperimentResult`]. Bump on
/// any breaking change to the JSON/CSV layout.
pub const SCHEMA_VERSION: u64 = 1;

/// One named column of a [`Table`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Machine-friendly column name (snake_case).
    pub name: String,
    /// Unit string ("dB", "bps", "" for dimensionless).
    pub unit: String,
}

/// A named table of numeric rows — one axis/series block of a result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table name, unique within the result.
    pub name: String,
    /// Column headers; every row has exactly this many values.
    pub columns: Vec<Column>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table from `(name, unit)` column pairs.
    pub fn new(name: &str, columns: &[(&str, &str)]) -> Self {
        Self {
            name: name.to_string(),
            columns: columns
                .iter()
                .map(|(name, unit)| Column {
                    name: name.to_string(),
                    unit: unit.to_string(),
                })
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.name
        );
        self.rows.push(row);
    }

    /// The values of the named column, in row order.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c.name == name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }
}

/// The structured outcome of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Registered experiment id (e.g. `"fig17"`).
    pub experiment: String,
    /// One-line human title.
    pub title: String,
    /// Source revision (`git describe`) the result was produced from.
    pub source: String,
    /// The scenario the experiment ran under.
    pub scenario: Scenario,
    /// Named data tables.
    pub tables: Vec<Table>,
    /// Named scalar metrics (headline gains, quantiles, timings).
    pub scalars: Vec<(String, f64)>,
}

/// Encodes one result value. Finite numbers are JSON numbers; non-finite
/// values (a gain with a zero denominator at a degenerate sweep point)
/// become the strings `"NaN"` / `"inf"` / `"-inf"` so the document stays
/// valid JSON and the value survives the round trip instead of collapsing
/// to `null`.
fn num_to_json(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::Str("NaN".to_string())
    } else if v > 0.0 {
        Json::Str("inf".to_string())
    } else {
        Json::Str("-inf".to_string())
    }
}

/// Decodes a value written by [`num_to_json`].
fn json_to_num(v: &Json) -> Result<f64, String> {
    match v {
        Json::Num(n) => Ok(*n),
        Json::Str(s) if s == "NaN" => Ok(f64::NAN),
        Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
        Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
        _ => Err("expected a number".to_string()),
    }
}

impl ExperimentResult {
    /// A result shell for `experiment` under `scenario`, stamped with the
    /// schema version and source revision; tables and scalars start empty.
    fn new(experiment: &str, title: &str, scenario: &Scenario) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_string(),
            title: title.to_string(),
            source: git_describe(),
            scenario: scenario.clone(),
            tables: Vec::new(),
            scalars: Vec::new(),
        }
    }

    /// The named table, if present.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// The named scalar, if present.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Serializes to the JSON document model.
    pub fn to_json(&self) -> Json {
        let scenario = Json::Object(
            self.scenario
                .fields()
                .into_iter()
                .map(|(name, value)| {
                    // Numeric fields serialize as numbers when the value
                    // survives the f64 round-trip exactly; everything else
                    // (enum names, seeds above 2^53) stays a string so the
                    // recorded scenario is never lossy.
                    let v = match value.parse::<u64>() {
                        Ok(n) if (n as f64) as u64 == n => Json::Num(n as f64),
                        _ => Json::Str(value),
                    };
                    (name.to_string(), v)
                })
                .collect(),
        );
        let tables = Json::Array(
            self.tables
                .iter()
                .map(|t| {
                    Json::object(vec![
                        ("name", Json::Str(t.name.clone())),
                        (
                            "columns",
                            Json::Array(
                                t.columns
                                    .iter()
                                    .map(|c| {
                                        Json::object(vec![
                                            ("name", Json::Str(c.name.clone())),
                                            ("unit", Json::Str(c.unit.clone())),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "rows",
                            Json::Array(
                                t.rows
                                    .iter()
                                    .map(|r| {
                                        Json::Array(r.iter().map(|v| num_to_json(*v)).collect())
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let scalars = Json::Object(
            self.scalars
                .iter()
                .map(|(name, value)| (name.clone(), num_to_json(*value)))
                .collect(),
        );
        Json::object(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("title", Json::Str(self.title.clone())),
            ("source", Json::Str(self.source.clone())),
            ("scenario", scenario),
            ("tables", tables),
            ("scalars", scalars),
        ])
    }

    /// Deserializes from the JSON document model, validating the layout.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let str_field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {name:?}"))
        };
        let schema_version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
            ));
        }
        let scenario_doc = doc.get("scenario").ok_or("missing scenario")?;
        let Json::Object(scenario_fields) = scenario_doc else {
            return Err("scenario is not an object".into());
        };
        let mut scenario = Scenario::default();
        for (name, value) in scenario_fields {
            let text = match value {
                Json::Str(s) => s.clone(),
                Json::Num(n) => format!("{}", *n as u64),
                _ => return Err(format!("scenario field {name:?} has an invalid type")),
            };
            scenario.set_field(name, &text)?;
        }
        let mut tables = Vec::new();
        for t in doc
            .get("tables")
            .and_then(Json::as_array)
            .ok_or("missing tables array")?
        {
            let name = t
                .get("name")
                .and_then(Json::as_str)
                .ok_or("table without a name")?;
            let mut columns = Vec::new();
            for c in t
                .get("columns")
                .and_then(Json::as_array)
                .ok_or("table without columns")?
            {
                columns.push(Column {
                    name: c
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("column without a name")?
                        .to_string(),
                    unit: c
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                });
            }
            let mut rows = Vec::new();
            for row in t
                .get("rows")
                .and_then(Json::as_array)
                .ok_or("table without rows")?
            {
                let row = row
                    .as_array()
                    .ok_or("row is not an array")?
                    .iter()
                    .map(|v| json_to_num(v).map_err(|_| "non-numeric cell"))
                    .collect::<Result<Vec<f64>, _>>()?;
                if row.len() != columns.len() {
                    return Err(format!("row width mismatch in table {name:?}"));
                }
                rows.push(row);
            }
            tables.push(Table {
                name: name.to_string(),
                columns,
                rows,
            });
        }
        let mut scalars = Vec::new();
        if let Some(Json::Object(fields)) = doc.get("scalars") {
            for (name, value) in fields {
                scalars.push((
                    name.clone(),
                    json_to_num(value).map_err(|_| format!("scalar {name:?} is not a number"))?,
                ));
            }
        }
        Ok(Self {
            schema_version,
            experiment: str_field("experiment")?,
            title: str_field("title")?,
            source: str_field("source")?,
            scenario,
            tables,
            scalars,
        })
    }

    /// Renders the CSV sink: one section per table (comment header + column
    /// row + data rows), scalars as a final `name,value` section.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# experiment: {} (schema_version {})",
            self.experiment, self.schema_version
        );
        let scenario: Vec<String> = self
            .scenario
            .fields()
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "# scenario: {}", scenario.join(" "));
        for table in &self.tables {
            let _ = writeln!(out, "# table: {}", table.name);
            let header: Vec<String> = table
                .columns
                .iter()
                .map(|c| {
                    if c.unit.is_empty() {
                        c.name.clone()
                    } else {
                        format!("{}[{}]", c.name, c.unit)
                    }
                })
                .collect();
            let _ = writeln!(out, "{}", header.join(","));
            for row in &table.rows {
                let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
                let _ = writeln!(out, "{}", cells.join(","));
            }
        }
        if !self.scalars.is_empty() {
            let _ = writeln!(out, "# table: scalars");
            let _ = writeln!(out, "name,value");
            for (name, value) in &self.scalars {
                let _ = writeln!(out, "{name},{value}");
            }
        }
        out
    }
}

/// One registered driver of the evaluation: a row of
/// [`crate::experiments::registry`].
pub struct Experiment {
    /// Stable registry id (`"fig17"`, `"table1"`, `"perf"`).
    pub id: &'static str,
    /// One-line description shown by `netscatter list`.
    pub title: &'static str,
    /// The [`Scenario`] fields this experiment is actually parameterized
    /// by. Sweeping or setting a field outside this list runs fine but
    /// cannot change the result; the CLI uses the list to warn about it.
    pub fields: &'static [&'static str],
    /// Fills the tables and scalars of a result whose header is stamped.
    pub(crate) run: fn(&Scenario, &mut ExperimentResult),
    /// The text report of a result.
    pub(crate) render: fn(&ExperimentResult) -> String,
}

impl Experiment {
    /// Runs the experiment under `scenario`.
    pub fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let mut result = ExperimentResult::new(self.id, self.title, scenario);
        (self.run)(scenario, &mut result);
        result
    }

    /// Renders a result of this experiment as the pre-redesign text report
    /// (byte-identical to the output of the former per-figure binary at the
    /// same scenario — pinned by the golden parity tests).
    pub fn render_text(&self, result: &ExperimentResult) -> String {
        (self.render)(result)
    }
}

/// How a result leaves the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// The pre-redesign per-figure report.
    Text,
    /// Pretty-printed JSON (`ExperimentResult::to_json`).
    Json,
    /// Comma-separated sections (`ExperimentResult::to_csv`).
    Csv,
}

impl OutputFormat {
    /// Parses a CLI `--format` value (case-insensitive).
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.to_lowercase().as_str() {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            _ => Err(format!(
                "--format expects 'text', 'json' or 'csv', got {value:?}"
            )),
        }
    }
}

/// Renders `result` through the chosen sink. Text needs the experiment for
/// its report format; JSON and CSV are experiment-independent.
pub fn render(experiment: &Experiment, result: &ExperimentResult, format: OutputFormat) -> String {
    match format {
        OutputFormat::Text => experiment.render_text(result),
        OutputFormat::Json => result.to_json().to_string_pretty(),
        OutputFormat::Csv => result.to_csv(),
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a git checkout. Computed once per process.
fn git_describe() -> String {
    use std::sync::OnceLock;
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    fn sample_result() -> ExperimentResult {
        let scenario = Scenario {
            scale: Scale::Quick,
            seed: 9,
            ..Scenario::default()
        };
        let mut result = ExperimentResult::new("demo", "A demo result", &scenario);
        let mut t = Table::new("sweep", &[("n", ""), ("rate", "bps")]);
        t.push_row(vec![1.0, 0.125]);
        t.push_row(vec![64.0, 1e6 / 3.0]);
        result.tables.push(t);
        result.scalars.push(("gain".into(), 26.2));
        result
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let original = sample_result();
        let text = original.to_json().to_string_pretty();
        let parsed = ExperimentResult::from_json(&Json::parse(&text).expect("valid JSON"))
            .expect("layout round-trips");
        assert_eq!(parsed, original);
        // JSON → struct → JSON is byte-stable.
        assert_eq!(parsed.to_json().to_string_pretty(), text);
    }

    #[test]
    fn non_finite_values_round_trip_as_tagged_strings() {
        // A degenerate sweep point can divide by a zero baseline; the JSON
        // must stay valid (no bare NaN) and the value must survive.
        let mut result = sample_result();
        result.scalars.push(("inf_gain".into(), f64::INFINITY));
        result.scalars.push(("neg".into(), f64::NEG_INFINITY));
        result.tables[0].push_row(vec![2.0, f64::INFINITY]);
        let text = result.to_json().to_string_pretty();
        assert!(text.contains("\"inf\""), "tagged string, not null:\n{text}");
        assert!(!text.contains("null"), "no nulls emitted:\n{text}");
        let parsed = ExperimentResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.scalar("inf_gain"), Some(f64::INFINITY));
        assert_eq!(parsed.scalar("neg"), Some(f64::NEG_INFINITY));
        assert_eq!(parsed.tables[0].rows[2][1], f64::INFINITY);
        // NaN serializes as "NaN" and parses back to a NaN.
        let mut result = sample_result();
        result.scalars.push(("nan".into(), f64::NAN));
        let text = result.to_json().to_string_pretty();
        let parsed = ExperimentResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(parsed.scalar("nan").unwrap().is_nan());
    }

    #[test]
    fn seeds_above_2_pow_53_round_trip_exactly() {
        // f64 cannot carry every u64; such seeds must serialize as strings
        // so the recorded scenario never misstates the seed that ran.
        let big = (1u64 << 53) + 3;
        let mut result = sample_result();
        result.scenario.seed = big;
        let text = result.to_json().to_string_pretty();
        assert!(
            text.contains(&format!("\"{big}\"")),
            "seed stored losslessly"
        );
        let parsed =
            ExperimentResult::from_json(&Json::parse(&text).unwrap()).expect("round-trips");
        assert_eq!(parsed.scenario.seed, big);
    }

    #[test]
    fn from_json_rejects_schema_mismatches() {
        let mut doc = sample_result().to_json();
        if let Json::Object(fields) = &mut doc {
            fields[0].1 = Json::Num(99.0);
        }
        let err = ExperimentResult::from_json(&doc).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn table_accessors_find_columns_and_scalars() {
        let result = sample_result();
        let t = result.table("sweep").expect("table exists");
        assert_eq!(t.column("n"), Some(vec![1.0, 64.0]));
        assert_eq!(t.column("absent"), None);
        assert_eq!(result.scalar("gain"), Some(26.2));
        assert_eq!(result.scalar("absent"), None);
        assert!(result.table("absent").is_none());
    }

    #[test]
    fn csv_sink_sections_are_parseable() {
        let csv = sample_result().to_csv();
        assert!(csv.contains("# table: sweep"));
        assert!(csv.contains("n,rate[bps]"));
        assert!(csv.contains("# table: scalars"));
        assert!(csv.contains("gain,26.2"));
        // Data rows round-trip through shortest-float formatting.
        let row: Vec<f64> = csv
            .lines()
            .find(|l| l.starts_with("64,"))
            .unwrap()
            .split(',')
            .map(|c| c.parse().unwrap())
            .collect();
        assert_eq!(row, vec![64.0, 1e6 / 3.0]);
    }

    #[test]
    fn output_format_parsing_rejects_unknown_values() {
        assert_eq!(OutputFormat::parse("json"), Ok(OutputFormat::Json));
        assert_eq!(OutputFormat::parse("text"), Ok(OutputFormat::Text));
        assert_eq!(OutputFormat::parse("csv"), Ok(OutputFormat::Csv));
        assert!(OutputFormat::parse("yaml").is_err());
    }
}
