//! Golden determinism tests: exact event counts for fixed seeds and
//! budgets. These pin the whole stack — generators, caches, affinity
//! arithmetic, coherence — so any unintended behavioural change fails
//! loudly. If a change is *intended* (e.g. retuning a workload), update
//! the constants and note it in CHANGELOG.md.
//!
//! Every machine run here also runs with the event ring and the
//! interval profiler attached, and must end on identical
//! `MachineStats`: recording never perturbs the simulation.

use execution_migration::core::{Splitter2, SplitterConfig};
use execution_migration::machine::{Machine, MachineConfig, MachineStats, Protocol};
use execution_migration::obs::ProfileConfig;
use execution_migration::trace::{suite, Workload};

/// Final stats of one machine run of `name`, which must not depend on
/// whether the recorders are attached.
fn run(name: &str, config: MachineConfig, instructions: u64) -> MachineStats {
    let detached = {
        let mut m = Machine::new(config.clone());
        m.run(&mut *suite::by_name(name).unwrap(), instructions);
        *m.stats()
    };
    let mut m = Machine::new(config);
    // A short period cuts many blocks and forces decimation.
    m.attach_recorders(ProfileConfig {
        period: 4096,
        capacity: 64,
    });
    m.run(&mut *suite::by_name(name).unwrap(), instructions);
    assert!(
        m.events().is_some_and(|r| !r.is_empty()),
        "{name}: no events"
    );
    assert!(
        m.profiler().is_some_and(|p| p.decimations() > 0),
        "{name}: profiler never decimated"
    );
    assert_eq!(*m.stats(), detached, "{name}: recorders perturbed the run");
    detached
}

#[test]
fn golden_art_baseline() {
    let s = run("art", MachineConfig::single_core(), 2_000_000);
    assert_eq!(
        (s.dl1_misses, s.l2_misses, s.migrations),
        (227453, 199751, 0)
    );
    assert!(s.l3_writebacks > 0);
}

#[test]
fn golden_art_migration() {
    let s = run("art", MachineConfig::four_core_migration(), 2_000_000);
    // The DL1 side is identical to the baseline by construction (L1
    // mirroring): same stream, same (shared) L1.
    assert_eq!(s.dl1_misses, 227453);
    // The L2 and migration counts are pinned to the exact algorithm.
    assert_eq!((s.l2_misses, s.migrations), (143089, 31));
}

#[test]
fn golden_mcf_migration() {
    let s = run("mcf", MachineConfig::four_core_migration(), 2_000_000);
    assert_eq!((s.l2_misses, s.migrations), (476485, 584));
}

#[test]
fn golden_art_mesi() {
    let config = MachineConfig {
        protocol: Protocol::Mesi,
        ..MachineConfig::four_core_migration()
    };
    let s = run("art", config, 2_000_000);
    // The L1 side never depends on the L2 protocol (mirrored L1s).
    assert_eq!(s.dl1_misses, 227453);
    // Invalidations kill remote copies, so the miss stream (and hence
    // the controller's decisions) differs from migration mode.
    assert_eq!(
        (
            s.l2_misses,
            s.migrations,
            s.invalidations,
            s.coherence_updates
        ),
        (136736, 29, 19232, 0)
    );
}

#[test]
fn golden_art_dragon() {
    let config = MachineConfig {
        protocol: Protocol::Dragon,
        ..MachineConfig::four_core_migration()
    };
    let s = run("art", config, 2_000_000);
    assert_eq!(s.dl1_misses, 227453);
    // Dragon updates copies in place, exactly like migration mode's
    // store broadcast — so the hit/miss stream (and migrations) match
    // `golden_art_migration`; only the accounting differs.
    assert_eq!(
        (
            s.l2_misses,
            s.migrations,
            s.invalidations,
            s.coherence_updates
        ),
        (143089, 31, 0, 86583)
    );
}

#[test]
fn golden_splitter_circular() {
    let mut s = Splitter2::new(SplitterConfig {
        r_window: 100,
        ..SplitterConfig::default()
    });
    for t in 0..500_000u64 {
        s.on_reference(t % 4000);
    }
    let st = s.stats();
    assert_eq!(st.references, 500_000);
    assert_eq!(st.transitions, 249);
}

#[test]
fn golden_workload_streams() {
    // First data-access line of each benchmark is stable.
    let expected: &[(&str, u64)] = &[
        ("gzip", 0x2_0002_dec0),
        ("art", 0x2_0000_0000),
        ("mcf", 0x2_0015_8fc0),
        ("bh", 0x2_0002_2c80),
    ];
    for &(name, addr) in expected {
        let mut w = suite::by_name(name).unwrap();
        let first_data = loop {
            let a = w.next_access();
            if a.kind.is_data() {
                break a.addr.raw();
            }
        };
        assert_eq!(first_data, addr, "{name} first data access moved");
    }
}
