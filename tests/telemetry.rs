//! Acceptance tests for run-time observability: the wall-clock span
//! recorder. A four-worker sweep with a wall attached records the
//! runner's and the machine's span families, one task span per item,
//! and folds only working stacks. The hard promise: attaching it never
//! changes a result — `MachineStats` and the experiments' JSON rows are
//! bit-identical with the wall attached and detached, at any thread
//! count.

mod common;

use std::collections::HashMap;
use std::time::Duration;

use execution_migration::experiments::runner::{parallel_map_observed, Obs};
use execution_migration::experiments::{coherence_compare, table2};
use execution_migration::machine::{Machine, MachineConfig, Protocol};
use execution_migration::obs::wall;
use execution_migration::obs::{Family, ToJson, Wall, WallSnapshot};
use execution_migration::trace::suite;

/// Observability must observe, never perturb: a machine run on a thread
/// with an attached wall registers the same counters — every metric,
/// bit for bit — as the same run detached, and records one
/// `machine/block` span. Uses the migration config (the richest
/// datapath: filter, A_R, coherence, bus) and two workloads with very
/// different migration behaviour.
#[test]
fn machine_stats_bit_identical_with_telemetry_on() {
    let budget = common::instr_budget(2_000_000);
    for name in ["art", "mcf"] {
        let mut plain = Machine::new(MachineConfig::four_core_migration());
        plain.run(&mut *suite::by_name(name).expect("suite workload"), budget);

        let recorder = Wall::with_threads(1);
        assert!(wall::attach(&recorder, 0), "slot 0");
        let mut observed = Machine::new(MachineConfig::four_core_migration());
        observed.run(&mut *suite::by_name(name).expect("suite workload"), budget);
        wall::detach();

        // Registry equality covers every counter Machine registers,
        // which is every `MachineStats::counters()` entry.
        assert_eq!(
            plain.metrics(),
            observed.metrics(),
            "observability perturbed the {name} run"
        );
        assert_eq!(plain.stats(), observed.stats(), "{name}");
        let blocks = recorder
            .snapshot()
            .family(Family::MachineBlock)
            .map(|f| f.count);
        assert_eq!(blocks, Some(1), "{name}: one machine/block span per run");
    }
}

/// The acceptance sweep: four workers with a wall attached. The workers
/// hand their spans over before the join, so the driver reads every
/// task before it hands over its own `sweep` root; afterwards the
/// runner's and the machine's span families are all recorded, with one
/// task and one machine span per sweep item and nothing dropped.
#[test]
fn four_worker_sweep_records_spans() {
    let threads = 4;
    // One wall slot per worker plus a last one for this (driver)
    // thread, which owns the sweep root span.
    let recorder = Wall::with_threads(threads + 1);
    assert!(wall::attach(&recorder, threads), "driver slot");
    let budget = common::instr_budget(3_000_000);
    let names = ["art", "mcf", "gzip", "gcc", "bzip2", "art", "mcf", "gzip"];

    let (rows, _report) = {
        let _sweep = wall::span(Family::Sweep);
        parallel_map_observed(
            names.to_vec(),
            threads,
            Obs::with_wall(&recorder),
            |name, _| {
                let mut m = Machine::new(MachineConfig::four_core_migration());
                m.run(&mut *suite::by_name(name).expect("suite workload"), budget);
                m.stats().l2_misses
            },
        )
    };
    let before_driver = recorder.snapshot();
    wall::detach();

    assert_eq!(rows.len(), names.len());
    assert!(rows.iter().all(|&misses| misses > 0));
    let count = |snap: &WallSnapshot, family| snap.family(family).map_or(0, |f| f.count);
    assert_eq!(count(&before_driver, Family::Task), names.len() as u64);
    assert_eq!(count(&before_driver, Family::Sweep), 0, "driver attached");

    let snap = recorder.snapshot();
    for family in [
        Family::Sweep,
        Family::Task,
        Family::Claim,
        Family::Run,
        Family::MachineBlock,
    ] {
        let stats = snap.family(family).expect("every family has a row");
        assert!(stats.count > 0, "{} recorded no spans", family.name());
        assert!(stats.p50_ns <= stats.p99_ns && stats.p99_ns <= stats.p999_ns);
    }
    for family in [Family::Task, Family::MachineBlock] {
        assert_eq!(
            count(&snap, family),
            names.len() as u64,
            "one {} span per sweep item",
            family.name()
        );
    }
    assert_eq!(snap.overhead.dropped, 0);
    assert_eq!(snap.overhead.spans, snap.total_spans());
}

/// A wall sees inside the machine: each `run_shared` task records
/// exactly one `machine/block` span, nested under the runner's
/// `runner/run` span for that task.
#[test]
fn wall_only_sweep_records_one_machine_block_per_task() {
    let threads = 2;
    let recorder = Wall::with_threads(threads);
    let budget = common::instr_budget(200_000);
    let names = ["art", "mcf", "gzip", "gcc"];
    parallel_map_observed(
        names.to_vec(),
        threads,
        Obs::with_wall(&recorder),
        |name, _| {
            let mut m = [Machine::new(MachineConfig::four_core_migration())];
            let mut w = suite::by_name(name).expect("suite workload");
            Machine::run_shared(&mut m, &mut *w, budget);
        },
    );

    let spans = recorder.spans();
    let family_of: HashMap<u64, Family> = spans.iter().map(|s| (s.id, s.family)).collect();
    let blocks: Vec<_> = spans
        .iter()
        .filter(|s| s.family == Family::MachineBlock)
        .collect();
    assert_eq!(blocks.len(), names.len(), "one machine/block span per task");
    for block in blocks {
        assert_eq!(
            family_of.get(&block.parent),
            Some(&Family::Run),
            "machine/block parents to runner/run"
        );
    }
}

/// The folded stacks show work only. A driver holding its `sweep` root
/// while it joins its workers folds no bare `sweep` line; the workers'
/// `runner/task;runner/run` stacks fold, each with a positive whole
/// number of µs.
#[test]
fn folded_stacks_skip_the_idle_sweep_driver() {
    let threads = 2;
    let recorder = Wall::with_threads(threads + 1);
    assert!(wall::attach(&recorder, threads), "driver slot");
    {
        let _sweep = wall::span(Family::Sweep);
        parallel_map_observed(vec![(); 4], threads, Obs::with_wall(&recorder), |(), _| {
            std::thread::sleep(Duration::from_millis(2))
        });
    }
    wall::detach();

    let folded = recorder.snapshot().collapsed_text();
    let lines: Vec<(&str, &str)> = folded
        .lines()
        .map(|line| line.rsplit_once(' ').expect("`stack count` line"))
        .collect();
    assert!(
        lines
            .iter()
            .all(|(_, count)| count.parse::<u64>().is_ok_and(|n| n > 0)),
        "a count is not a positive integer:\n{folded}"
    );
    let stacks: Vec<&str> = lines.iter().map(|&(stack, _)| stack).collect();
    assert!(
        !stacks.contains(&"sweep"),
        "the idle driver was folded:\n{folded}"
    );
    assert!(
        stacks.contains(&"runner/task;runner/run"),
        "no working stack folded:\n{folded}"
    );
    assert!(
        recorder.spans().iter().any(|s| s.family == Family::Sweep),
        "the sweep span is still recorded"
    );
}

/// Asserts that `sweep(threads, obs)`, a sweep's rows as the JSON its
/// binary prints with `--json`, gives the same bytes three ways.
fn assert_rows_identical(name: &str, sweep: impl Fn(usize, Obs<'_>) -> String) {
    let serial = sweep(1, Obs::none());
    assert_eq!(sweep(8, Obs::none()), serial, "{name}: 8 threads");
    let recorder = Wall::with_threads(2);
    let observed = sweep(2, Obs::with_wall(&recorder));
    assert_eq!(observed, serial, "{name}: 2 threads, wall attached");
    let tasks = recorder.snapshot().family(Family::Task).map(|f| f.count);
    assert_eq!(tasks, Some(suite::names().len() as u64), "{name}: rows");
}

/// The experiments' JSON rows do not depend on how the sweep is run:
/// `table2` and `coherence_compare` serialise to the same bytes on 1
/// and 8 worker threads with observability detached, and on 2 threads
/// with a wall attached.
#[test]
fn experiment_rows_identical_across_threads_and_observability() {
    let budget = common::instr_budget(100_000);
    assert_rows_identical("table2", |threads, obs| {
        table2::run_all(budget, threads, Protocol::MigrationMode, obs)
            .to_json()
            .pretty()
    });
    assert_rows_identical("coherence_compare", |threads, obs| {
        coherence_compare::run_all(budget, threads, obs)
            .to_json()
            .pretty()
    });
}
