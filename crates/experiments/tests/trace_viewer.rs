//! `trace_viewer` rejects bad flag values where it reads them: a
//! message and exit code 2, never a panic, and no trace written.

use std::path::PathBuf;
use std::process::Command;

/// Runs `trace_viewer` with `args` in a fresh temporary directory and
/// asserts a clean usage error mentioning `complaint`.
fn assert_usage_error(name: &str, args: &[&str], complaint: &str) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "execmig-trace-viewer-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temporary dir");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_viewer"))
        .args(args)
        .args(["--instr", "1000", "--no-manifest", "--out", "trace.json"])
        .current_dir(&dir)
        .output()
        .expect("trace_viewer runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let wrote = dir.join("trace.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert!(!wrote, "{args:?} wrote a trace");
}

#[test]
fn zero_period_is_a_usage_error() {
    assert_usage_error("period", &["--period", "0"], "--period");
}

#[test]
fn bench_with_circular_is_a_usage_error() {
    assert_usage_error(
        "exclusive",
        &["--bench", "art", "--circular", "4000"],
        "mutually exclusive",
    );
}
