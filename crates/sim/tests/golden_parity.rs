//! Golden parity: the redesigned experiment API must render byte-identical
//! text to the pre-redesign per-figure binaries.
//!
//! The files under `tests/golden/` were captured from the binaries as they
//! existed before the `Experiment`/`ExperimentResult` redesign, at quick
//! scale with the then-hardcoded seed 42 (and default fidelity; one extra
//! golden pins `fig17 --fidelity sample`). Each test runs the registered
//! experiment at the same scenario and compares `render_text` — plus the
//! trailing newline `println!` used to add — against the captured bytes.
//! Also covers the serde story: JSON → struct → JSON round trips for real
//! experiment results.

use netscatter::json::Json;
use netscatter_sim::experiment::{ExperimentResult, SCHEMA_VERSION};
use netscatter_sim::experiments::find;
use netscatter_sim::scenario::{Scale, Scenario};
use netscatter_sim::Fidelity;

/// The scenario the pre-redesign binaries ran under with `--quick`:
/// quick scale, seed 42, analytical fidelity, office deployment.
fn golden_scenario() -> Scenario {
    Scenario {
        scale: Scale::Quick,
        seed: 42,
        ..Scenario::default()
    }
}

fn assert_matches_golden(id: &str, scenario: &Scenario, golden: &str) {
    let exp = find(id).unwrap_or_else(|| panic!("{id} not registered"));
    let result = exp.run(scenario);
    // The registry stamps every result with its entry's id and title.
    assert_eq!(result.experiment, id);
    assert_eq!(result.title, exp.title);
    let text = exp.render_text(&result);
    // The former binaries printed the report through `println!`, so the
    // captured stdout is the report plus one extra newline.
    assert_eq!(
        format!("{text}\n"),
        golden,
        "{id}: text rendering diverged from the pre-redesign binary output"
    );
}

macro_rules! golden {
    ($($name:ident => $id:literal;)*) => {$(
        #[test]
        fn $name() {
            assert_matches_golden(
                $id,
                &golden_scenario(),
                include_str!(concat!("golden/", $id, ".txt")),
            );
        }
    )*};
}

golden! {
    table1_matches_pre_redesign_output => "table1";
    fig04_matches_pre_redesign_output => "fig04";
    fig08_matches_pre_redesign_output => "fig08";
    fig09_matches_pre_redesign_output => "fig09";
    fig12_matches_pre_redesign_output => "fig12";
    fig14_matches_pre_redesign_output => "fig14";
    fig15_matches_pre_redesign_output => "fig15";
    fig16_matches_pre_redesign_output => "fig16";
    fig17_matches_pre_redesign_output => "fig17";
    fig18_matches_pre_redesign_output => "fig18";
    fig19_matches_pre_redesign_output => "fig19";
    analysis_choir_matches_pre_redesign_output => "analysis_choir";
    analysis_capacity_matches_pre_redesign_output => "analysis_capacity";
}

#[test]
fn fig17_sample_fidelity_matches_pre_redesign_output() {
    let mut scenario = golden_scenario();
    scenario.fidelity = Fidelity::SampleLevel;
    assert_matches_golden("fig17", &scenario, include_str!("golden/fig17_sample.txt"));
}

#[test]
fn experiment_results_round_trip_through_json() {
    // Real (cheap) experiments, not synthetic fixtures: run, serialize,
    // parse, deserialize, and compare structs and re-serialized bytes.
    let scenario = golden_scenario();
    for id in ["table1", "fig08", "analysis_capacity"] {
        let exp = find(id).unwrap();
        let original = exp.run(&scenario);
        assert_eq!(original.schema_version, SCHEMA_VERSION);
        let text = original.to_json().to_string_pretty();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION),
            "{id}: schema_version must be explicit in the JSON"
        );
        let parsed = ExperimentResult::from_json(&doc).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(parsed, original, "{id}: JSON -> struct round trip");
        assert_eq!(
            parsed.to_json().to_string_pretty(),
            text,
            "{id}: struct -> JSON is byte-stable"
        );
    }
}

#[test]
fn rendering_is_a_pure_function_of_the_result() {
    // Two runs at the same scenario produce identical structures and
    // therefore identical renderings in every sink.
    let exp = find("fig04").unwrap();
    let scenario = golden_scenario();
    let a = exp.run(&scenario);
    let b = exp.run(&scenario);
    assert_eq!(a, b);
    assert_eq!(exp.render_text(&a), exp.render_text(&b));
    assert_eq!(a.to_csv(), b.to_csv());
}
