//! Golden tests: run the linter over the seeded fixture workspace and
//! pin every expected diagnostic (and every expected exemption).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use execmig_analysis::{diag, Diagnostic};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violating")
}

fn fixture_diags() -> Vec<Diagnostic> {
    execmig_analysis::run(&fixture_root()).expect("fixture workspace loads")
}

fn by_rule(diags: &[Diagnostic], rule: &str) -> Vec<Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).cloned().collect()
}

#[test]
fn golden_rule_counts() {
    let diags = fixture_diags();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &diags {
        *counts.entry(d.rule).or_default() += 1;
    }
    let expected: BTreeMap<&str, usize> = [("E001", 2), ("E004", 2), ("E005", 3), ("E008", 1)]
        .into_iter()
        .collect();
    assert_eq!(
        counts,
        expected,
        "full diagnostics:\n{}",
        diag::render_text(&diags)
    );
}

#[test]
fn layering_flags_manifest_dependencies() {
    let diags = fixture_diags();
    let e001 = by_rule(&diags, "E001");
    assert!(e001.iter().all(|d| d.path == "crates/cache/Cargo.toml"));
    assert!(e001.iter().any(|d| d.message.contains("execmig-machine")));
    assert!(e001
        .iter()
        .any(|d| d.message.contains("serde") && d.message.contains("dependency-free")));
}

#[test]
fn hot_path_violations_name_the_constructs() {
    let diags = fixture_diags();
    let e004 = by_rule(&diags, "E004");
    assert!(e004.iter().all(|d| d.path == "crates/cache/src/cache.rs"));
    assert!(e004.iter().any(|d| d.message.contains(".unwrap()")));
    assert!(e004.iter().any(|d| d.message.contains("`panic!`")));
    let e005 = by_rule(&diags, "E005");
    assert!(e005.iter().all(|d| d.path == "crates/cache/src/cache.rs"));
    assert!(e005.iter().all(|d| d.line > 0));
}

#[test]
fn test_modules_and_doc_examples_are_exempt() {
    let diags = fixture_diags();
    // sat.rs is a hot file full of floats and unwraps — all in tests
    // or doc examples, so none may be flagged.
    assert!(
        !diags.iter().any(|d| d.path.contains("core/src/sat.rs")),
        "false positives:\n{}",
        diag::render_text(&diags)
    );
}

#[test]
fn manual_to_json_impl_satisfies_e008() {
    let diags = fixture_diags();
    let e008 = by_rule(&diags, "E008");
    assert_eq!(e008.len(), 1);
    assert!(e008[0].message.contains("ProbeConfig"));
    assert!(!diags.iter().any(|d| d.message.contains("TunableConfig")));
}

#[test]
fn json_report_is_stable() {
    let diags = fixture_diags();
    let json = diag::render_json(&diags);
    assert!(json.starts_with("{\"count\":8,"));
    assert!(json.contains("\"rule\":\"E001\""));
    assert!(json.contains("\"rule\":\"E008\""));
}

#[test]
fn every_reported_rule_is_in_the_catalog() {
    for d in fixture_diags() {
        assert!(
            execmig_analysis::catalog::rule(d.rule).is_some(),
            "rule {} missing from catalog",
            d.rule
        );
    }
}
