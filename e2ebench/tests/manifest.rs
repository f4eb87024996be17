//! `BENCHMARK.json` lists exactly the metrics the benchmark prints, in
//! order and with the same units.

use execmig_e2e_bench::e2e::{self, Cfg, Scenario};
use execmig_e2e_bench::metrics::{self, Metric};

/// `(name, unit)` of every entry in the manifest's `key` array.
fn section(key: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} array"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |entry: &str, f: &str| {
        let rest = entry
            .split(&format!("\"{f}\": \""))
            .nth(1)
            .unwrap_or_else(|| panic!("entry without {f}: {entry}"));
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn names(ms: &[Metric]) -> Vec<(String, String)> {
    ms.iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn manifest_matches_the_metrics_printed() {
    let (seed, budget) = (1, 100_000);
    let (_, passes) = e2e::run_segments(e2e::setup(Scenario::Coherence, seed), budget);
    let traced = e2e::run_traced(Scenario::Coherence, seed, budget);
    let replay = e2e::replay("art", Cfg::Mesi, 0, budget);
    let setup = [std::time::Duration::from_millis(1)];
    assert_eq!(
        section("end_to_end"),
        names(&metrics::end_to_end(&setup, &passes, 1.0))
    );
    assert_eq!(
        section("per_layer"),
        names(&metrics::per_layer(&passes, &traced, &[replay]))
    );
}
