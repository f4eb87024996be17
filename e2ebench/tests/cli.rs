//! The binary's command line is strict: every malformed invocation
//! prints usage and exits 2 without a result line.

use std::process::{Command, Output};

use execmig_e2e_bench::e2e::Scenario;

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn assert_usage_error(args: &[&str], complaint: &str) {
    let out = benchmark(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert!(stderr.contains("usage: benchmark"), "{args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
}

#[test]
fn unknown_workload_exits_2() {
    assert_usage_error(&["--workload", "tabel2"], "unknown workload");
}

#[test]
fn unknown_flag_exits_2() {
    assert_usage_error(
        &["--workload", "table2", "--instrs", "100"],
        "unknown argument",
    );
}

#[test]
fn malformed_number_exits_2() {
    assert_usage_error(&["--workload", "table2", "--seed", "1e3"], "integer");
    assert_usage_error(&["--workload", "table2", "--seconds", "ten"], "integer");
    assert_usage_error(&["--workload", "table2", "--trace", "2"], "0 or 1");
}

#[test]
fn missing_workload_exits_2() {
    assert_usage_error(&["--seed", "3"], "--workload is required");
}

#[test]
fn a_run_ends_with_the_result_line() {
    let out = benchmark(&["--workload", "coherence", "--seed", "1", "--seconds", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output");
    let attempted = Scenario::Coherence.items().len();
    assert!(
        last.starts_with(&format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{"
        )),
        "{last}"
    );
    for name in ["setup_s", "sim_mips", "run_ns_per_instr_p50", "peak_rss_mb"] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
}
