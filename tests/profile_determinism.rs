//! Determinism guard for the interval profiler and its exporters: two
//! identical runs must produce bit-identical profile JSON and Chrome
//! traces. This is what makes `obs_diff` usable as a CI gate — any
//! nondeterminism in the sampler would show up as phantom drift.

use execution_migration::machine::{Machine, MachineConfig};
use execution_migration::obs::chrome::render_machine_trace;
use execution_migration::obs::{json, ProfileConfig, ToJson};
use execution_migration::trace::suite;

/// One em3d run with a small sampling period (so a short run still
/// crosses many interval boundaries and exercises decimation), exported
/// as (profile JSON, Chrome-trace JSON).
fn profiled_run() -> (String, String) {
    let mut m = Machine::new(MachineConfig::four_core_migration());
    m.attach_recorders(ProfileConfig {
        period: 16 << 10,
        capacity: 64,
    });
    let mut w = suite::by_name("em3d").expect("em3d in suite");
    m.run(&mut *w, 3_000_000);

    let profiler = m.profiler().expect("attached");
    let events = m.events().expect("attached").to_vec();
    assert!(!events.is_empty(), "em3d must record events");
    let trace = render_machine_trace(
        profiler.records(),
        &events,
        m.config().cores,
        m.stats().instructions,
    )
    .compact();
    (profiler.to_json().pretty(), trace)
}

#[test]
fn profile_export_is_bit_identical_across_runs() {
    let (profile_a, trace_a) = profiled_run();
    let (profile_b, trace_b) = profiled_run();
    assert_eq!(profile_a, profile_b, "profile JSON must be bit-identical");
    assert_eq!(trace_a, trace_b, "Chrome trace must be bit-identical");

    // Both artefacts are well-formed JSON.
    let profile = json::parse(&profile_a).expect("profile parses");
    let trace = json::parse(&trace_a).expect("trace parses");
    let records = match profile.get("records") {
        Some(execution_migration::obs::Json::Arr(r)) => r.len(),
        other => panic!("records missing: {other:?}"),
    };
    assert!(trace.get("traceEvents").is_some());
    // 3M instructions at a 16k period, decimated into ≤64 records.
    assert!((2..=64).contains(&records), "{records} records");
    assert!(
        profile
            .get("decimations")
            .is_some_and(|d| *d != execution_migration::obs::Json::UInt(0)),
        "a 16k period over 3M instructions must decimate"
    );
}
