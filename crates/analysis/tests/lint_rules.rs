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
    let expected: BTreeMap<&str, usize> = [
        ("E001", 2),
        ("E002", 1),
        ("E003", 1),
        ("E004", 2),
        ("E005", 3),
        ("E006", 3),
        ("E007", 1),
        ("E008", 1),
        ("E009", 2),
        ("E012", 2),
        ("E013", 2),
    ]
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
fn layering_flags_manifest_and_source() {
    let diags = fixture_diags();
    let e001 = by_rule(&diags, "E001");
    assert!(e001.iter().all(|d| d.path == "crates/cache/Cargo.toml"));
    assert!(e001.iter().any(|d| d.message.contains("execmig-machine")));
    assert!(e001
        .iter()
        .any(|d| d.message.contains("serde") && d.message.contains("dependency-free")));
    let e002 = by_rule(&diags, "E002");
    assert_eq!(e002[0].path, "crates/cache/src/lib.rs");
    assert!(e002[0].message.contains("execmig_machine"));
}

#[test]
fn feature_gate_flags_hardwired_trace_but_not_forwarding() {
    let diags = fixture_diags();
    let e003 = by_rule(&diags, "E003");
    assert_eq!(e003.len(), 1);
    assert_eq!(e003[0].path, "crates/cache/Cargo.toml");
    // The machine fixture forwards trace through [features]: clean.
    assert!(!diags.iter().any(|d| d.path == "crates/machine/Cargo.toml"));
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
    // The cache test module's unwrap is exempt too: E009 hits exactly
    // lib.rs (non-test) and cache.rs (hot file), once each.
    let e009 = by_rule(&diags, "E009");
    let mut paths: Vec<&str> = e009.iter().map(|d| d.path.as_str()).collect();
    paths.sort_unstable();
    assert_eq!(
        paths,
        ["crates/cache/src/cache.rs", "crates/cache/src/lib.rs"]
    );
}

#[test]
fn ungated_recorder_reads_are_flagged_and_gated_ones_are_clean() {
    let diags = fixture_diags();
    let e006 = by_rule(&diags, "E006");
    assert_eq!(e006.len(), 3);
    assert!(e006.iter().all(|d| d.path == "crates/cache/src/lib.rs"));
    // One row of the recorder table per recorder: the tracer read and
    // both profiler accesses, each named with its own gate.
    assert!(e006
        .iter()
        .any(|d| d.message.contains("`events`") && d.message.contains("Tracer::ACTIVE")));
    assert!(e006
        .iter()
        .any(|d| d.message.contains("record_sample") && d.message.contains("Profiler::ACTIVE")));
    assert!(e006.iter().any(|d| d.message.contains("`records`")));
    // machine.rs reads the ring inside `if Tracer::ACTIVE { … }` and
    // the sampler inside `if Profiler::ACTIVE { … }`.
    assert!(!diags
        .iter()
        .any(|d| d.path == "crates/machine/src/machine.rs"));
}

#[test]
fn unregistered_counter_is_named() {
    let diags = fixture_diags();
    let e007 = by_rule(&diags, "E007");
    assert_eq!(e007.len(), 1);
    assert!(e007[0].message.contains("lost_counter"));
    assert_eq!(e007[0].path, "crates/machine/src/stats.rs");
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
fn raw_concurrency_paths_and_bare_orderings_are_flagged() {
    let diags = fixture_diags();
    let e012 = by_rule(&diags, "E012");
    assert_eq!(e012.len(), 2);
    assert!(e012.iter().all(|d| d.path == "crates/cache/src/spin.rs"));
    assert!(e012.iter().any(|d| d.message.contains("std::sync::atomic")));
    assert!(e012.iter().any(|d| d.message.contains("std::thread")));
    let e013 = by_rule(&diags, "E013");
    assert_eq!(e013.len(), 2);
    assert!(e013.iter().all(|d| d.path == "crates/cache/src/spin.rs"));
    assert!(e013.iter().any(|d| d.message.contains("Ordering::Relaxed")));
    assert!(e013.iter().any(|d| d.message.contains("Ordering::SeqCst")));
    // The `// ord:`-annotated loads (same-line and comment-above) and
    // the test module's raw atomics are exempt: exactly two of each.
}

#[test]
fn json_report_is_stable() {
    let diags = fixture_diags();
    let json = diag::render_json(&diags);
    assert!(json.starts_with("{\"count\":20,"));
    assert!(json.contains("\"rule\":\"E001\""));
    assert!(json.contains("\"rule\":\"E009\""));
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
