//! The traced path measures the same simulation the untraced path
//! runs, and its instruments are sound.

use execmig_check::capture;
use execmig_e2e_bench::e2e::{self, Cfg, Outcome, Scenario};
use execmig_e2e_bench::seed::{skip_events, Seeded};
use execmig_machine::{Machine, MachineStats};
use execmig_trace::Workload;

#[test]
fn traced_stats_equal_untraced_on_every_workload() {
    let (seed, budget) = (11, 300_000);
    for s in Scenario::ALL {
        let (_, untraced) = e2e::run_segments(e2e::setup(s, seed), budget);
        let traced = e2e::run_traced(s, seed, budget);
        let untraced = &untraced[e2e::SEGMENTS - 1];
        assert_eq!(untraced.runs.len(), traced.runs.len());
        for (u, t) in untraced.runs.iter().zip(&traced.runs) {
            assert_eq!(u.item, t.item);
            let (Ok(uo), Ok(to)) = (&u.result, &t.result) else {
                panic!("{}: {:?} / {:?}", u.item, u.result, t.result);
            };
            assert_eq!(uo, to, "{}", u.item);
            assert!(uo.instructions() >= budget, "{}", u.item);
        }
        assert_eq!(traced.segments.len(), e2e::SEGMENTS);
        assert!(traced.events > 0 && traced.fill > std::time::Duration::ZERO);
        let machine_runs = s != Scenario::L1Stream;
        assert_eq!(!traced.block_ns.is_empty(), machine_runs, "{}", s.name());
        assert_eq!(traced.filter.is_zero(), machine_runs, "{}", s.name());
    }
}

#[test]
fn segments_retire_the_whole_budget() {
    let budget = 200_000;
    let (_, passes) = e2e::run_segments(e2e::setup(Scenario::Table2, 4), budget);
    for (i, item) in Scenario::Table2.items().into_iter().enumerate() {
        let retired: u64 = passes.iter().map(|p| p.runs[i].retired).sum();
        let last = &passes[e2e::SEGMENTS - 1].runs[i];
        let outcome = last.result.as_ref().expect("clean run");
        assert_eq!(retired, outcome.instructions(), "{item}");
    }
}

#[test]
fn controller_replay_reproduces_machine_migrations() {
    let mut migrations = 0;
    for (bench, cfg) in [
        ("art", Cfg::Mig),
        ("mcf", Cfg::Mig),
        ("em3d", Cfg::Mesi),
        ("twolf", Cfg::Dragon),
    ] {
        let r = e2e::replay(bench, cfg, skip_events(5, 0, 1), 500_000);
        assert!(r.requests > 0, "{bench}");
        assert_eq!(r.mismatches, 0, "{bench}/{}", cfg.name());
        migrations += r.migrations;
    }
    assert!(migrations > 0, "the replays must exercise migrations");
}

fn run_in_blocks(bench: &str, skip: u64, budget: u64, block: usize) -> MachineStats {
    let mut w = Seeded::new(bench, skip).expect("suite benchmark");
    let mut m = Machine::new(Cfg::Mig.config());
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if w.fill_block(&mut buf, budget, block) == 0 {
            break;
        }
        m.run_block(&buf);
    }
    *m.stats()
}

/// Block-stepping the rebased stream matches stepping its
/// `next_access`/`instructions` view one access at a time.
#[test]
fn seeded_stats_do_not_depend_on_block_size() {
    let budget = 200_000;
    for (bench, skip) in [("art", skip_events(9, 1, 3)), ("mcf", 0), ("gcc", 12_345)] {
        let config = Cfg::Mig.config();
        let line = config.validate();
        let mut per_step = Machine::new(config);
        let mut w = Seeded::new(bench, skip).expect("suite benchmark");
        for t in capture(&mut w, budget) {
            let a = t.access;
            per_step.step_tagged(a.kind, line.line_of(a.addr), t.instructions, a.pointer);
        }
        for block in [1, 7, Machine::BLOCK_EVENTS] {
            assert_eq!(
                run_in_blocks(bench, skip, budget, block),
                *per_step.stats(),
                "{bench} block {block}"
            );
        }
    }
}

#[test]
fn identity_checker_flags_corrupted_stats() {
    let budget = 100_000;
    let (_, passes) = e2e::run_segments(e2e::setup(Scenario::Coherence, 2), budget);
    let good = passes[e2e::SEGMENTS - 1].runs[0]
        .result
        .clone()
        .expect("clean run");
    assert_eq!(e2e::check_identities(&good, budget), Ok(()));
    assert!(e2e::check_identities(&good, good.instructions() + 1).is_err());
    let Outcome::Machine {
        stats,
        core_instructions,
        affinity,
    } = good
    else {
        panic!("coherence runs are machine runs");
    };
    let corruptions: [fn(&mut MachineStats); 3] = [
        |s| s.loads += 1,
        |s| s.l2_misses = s.l2_accesses + 1,
        |s| s.instructions += 1,
    ];
    for corrupt in corruptions {
        let mut bad = stats;
        corrupt(&mut bad);
        let outcome = Outcome::Machine {
            stats: bad,
            core_instructions,
            affinity,
        };
        assert!(e2e::check_identities(&outcome, budget).is_err(), "{bad:?}");
    }
    let l1 = Outcome::L1 {
        instructions: budget,
        accesses: 10,
        il1_misses: 6,
        dl1_misses: 5,
    };
    assert!(e2e::check_identities(&l1, budget).is_err());
}

#[test]
fn reference_checks_pass_on_every_kind_of_run() {
    for s in Scenario::ALL {
        let item = s.items()[1];
        let skip = s.skip(3, item.bench);
        assert_eq!(e2e::verify_reference(item, skip, 50_000), Ok(()), "{item}");
    }
}
