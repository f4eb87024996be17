//! Differential-checking integration tests: the lockstep differ, the
//! fuzzer's repro artifacts, and the stress configurations, exercised
//! through the facade crate the way the `differ` binary uses them.

mod common;

use common::instr_budget;
use execution_migration::check::fuzz::{diverges, generate, stress_configs, FuzzConfig};
use execution_migration::check::{read_repro, write_repro, Lockstep, TraceStep};
use execution_migration::machine::{MachineConfig, Protocol};
use execution_migration::trace::suite;

/// The optimized machine and the naive reference agree, step for step
/// and in final cache contents, on real suite workloads.
#[test]
fn suite_workloads_run_divergence_free() {
    let budget = instr_budget(300_000);
    for name in ["mcf", "em3d", "art"] {
        let mut w = suite::by_name(name).unwrap();
        let mut lockstep = Lockstep::new(MachineConfig::four_core_migration());
        let report = lockstep
            .run_workload(&mut *w, budget)
            .or_else(|| lockstep.final_check());
        assert!(report.is_none(), "{name} diverged:\n{}", report.unwrap());
        assert!(lockstep.steps() > 0, "{name} produced no steps");
    }
}

/// The bus protocols agree with the naive reference on real suite
/// workloads too, not only on fuzzed streams over tiny caches: MESI and
/// Dragon on the paper's four-core machine, with the same budget.
#[test]
fn bus_protocols_run_divergence_free_on_suite_workloads() {
    let budget = instr_budget(300_000);
    for protocol in [Protocol::Mesi, Protocol::Dragon] {
        for name in ["em3d", "twolf"] {
            let mut w = suite::by_name(name).unwrap();
            let mut lockstep = Lockstep::new(MachineConfig {
                protocol,
                ..MachineConfig::four_core_migration()
            });
            let report = lockstep
                .run_workload(&mut *w, budget)
                .or_else(|| lockstep.final_check());
            assert!(
                report.is_none(),
                "{name} under {} diverged:\n{}",
                protocol.as_str(),
                report.unwrap()
            );
            assert!(lockstep.steps() > 0, "{name} produced no steps");
        }
    }
}

/// Fuzzed streams agree on every stress configuration (the CI seeds).
#[test]
fn fuzzed_streams_run_divergence_free() {
    for seed in 1..=2 {
        let stream = generate(&FuzzConfig {
            seed,
            accesses: 8_000,
            ..FuzzConfig::default()
        });
        for (name, config) in stress_configs() {
            let report = diverges(&config, &stream);
            assert!(
                report.is_none(),
                "seed {seed} vs {name} diverged:\n{}",
                report.unwrap()
            );
        }
    }
}

/// A repro artifact survives a disk round-trip and replays to the same
/// verdict — the contract the `differ --replay` mode depends on.
#[test]
fn repro_artifacts_round_trip_through_disk() {
    let stream = generate(&FuzzConfig {
        seed: 5,
        accesses: 500,
        ..FuzzConfig::default()
    });
    let path =
        std::env::temp_dir().join(format!("execmig-differential-{}.emt", std::process::id()));
    let file = std::fs::File::create(&path).unwrap();
    write_repro(std::io::BufWriter::new(file), &stream).unwrap();
    let reread: Vec<TraceStep> =
        read_repro(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(stream, reread);
    // The replayed stream reaches the same verdict on every config.
    for (name, config) in stress_configs() {
        assert!(
            diverges(&config, &reread).is_none(),
            "replayed stream diverged on {name}"
        );
    }
}
