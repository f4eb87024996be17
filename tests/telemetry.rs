//! Acceptance tests for run-time observability: the progress hub and
//! the wall-clock flight recorder. A 4-worker sweep with both attached
//! must end with every worker `Done` and every task counted, record the
//! runner's and the machine's span families, and keep both recorders'
//! self-accounted overhead inside the [`Budget`] (2 % of run time).
//! The hard promise: attaching them never changes a result —
//! `MachineStats` and the experiments' JSON rows are bit-identical
//! with observability on and off, at any thread count.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use execution_migration::experiments::runner::{parallel_map_observed, Obs, BEAT_PERIOD_INSTR};
use execution_migration::experiments::{coherence_compare, table2};
use execution_migration::machine::{Machine, MachineConfig, Protocol};
use execution_migration::obs::wall;
use execution_migration::obs::{Budget, Family, Hub, HubConfig, ObsCtx, ToJson, Wall, WorkerState};
use execution_migration::trace::suite;

/// What the drains of [`while_draining`] saw while the sweep ran.
#[derive(Debug, Default)]
struct LivePolls {
    /// Hub snapshots that caught a worker running with instructions
    /// retired, i.e. after a mid-task beat.
    progress: u64,
    /// Wall snapshots that already held closed spans.
    spans: u64,
}

/// Sets the flag when dropped, so the drain loop stops even if the
/// sweep panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Runs `sweep` on this thread while a second thread drains `hub` and
/// `recorder` every 5 ms, as any reader of a long observed run must:
/// each worker's rings hold a bounded number of beats and spans, and a
/// full ring drops the newest. Returns the sweep's result and what the
/// drains saw mid-run.
fn while_draining<R>(hub: &Hub, recorder: &Wall, sweep: impl FnOnce() -> R) -> (R, LivePolls) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut live = LivePolls::default();
            while !stop.load(Ordering::Acquire) {
                let snap = hub.snapshot();
                if snap
                    .workers
                    .iter()
                    .any(|w| w.state == WorkerState::Running && w.instructions > 0)
                {
                    live.progress += 1;
                }
                let snap = recorder.snapshot();
                for f in &snap.families {
                    assert!(f.p50_ns <= f.p99_ns && f.p99_ns <= f.p999_ns);
                }
                if snap.total_spans() > 0 {
                    live.spans += 1;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            live
        });
        let out = {
            let _stop = StopOnDrop(&stop);
            sweep()
        };
        (out, poller.join().expect("drain thread"))
    })
}

/// Observability must observe, never perturb: a machine run with a hub
/// `ObsCtx` and an attached wall registers the same counters — every
/// metric, bit for bit — as the same run with both detached. Uses the
/// migration config (the richest datapath: filter, A_R, coherence,
/// bus) and two workloads with very different migration behaviour.
#[test]
fn machine_stats_bit_identical_with_telemetry_on() {
    let budget = common::instr_budget(2_000_000);
    for name in ["art", "mcf"] {
        let mut plain = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name(name).expect("suite workload");
        plain.run(&mut *w, budget);

        let hub = Hub::new(HubConfig::with_workers(1));
        let worker = hub.worker(0).expect("slot 0");
        let ctx = ObsCtx {
            worker: &worker,
            task: 0,
            tasks_done: 0,
            beat_period: BEAT_PERIOD_INSTR,
        };
        let recorder = Wall::with_threads(1);
        assert!(wall::attach(&recorder, 0), "slot 0");
        let mut observed = [Machine::new(MachineConfig::four_core_migration())];
        let mut w = suite::by_name(name).expect("suite workload");
        Machine::run_shared(&mut observed, &mut *w, budget, Some(&ctx));
        wall::detach();
        let [observed] = observed;

        // Registry equality covers every counter Machine registers,
        // which is every `MachineStats::counters()` entry.
        assert_eq!(
            plain.metrics(),
            observed.metrics(),
            "observability perturbed the {name} run"
        );
        let snap = hub.snapshot();
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.workers[0].instructions, budget);
        let blocks = recorder
            .snapshot()
            .family(Family::MachineBlock)
            .map(|f| f.count);
        assert!(
            blocks.is_some_and(|n| n > 0),
            "{name}: no machine/block span recorded"
        );
    }
}

/// The acceptance sweep: four workers with a hub and a wall attached,
/// drained while they run. Mid-run snapshots show live progress and
/// spans; every worker ends `Done` with every task counted, the
/// runner's and the machine's span families record, and each
/// recorder's overhead stays inside the 2 % budget.
#[test]
fn four_worker_sweep_records_progress_and_spans() {
    let threads = 4;
    let hub = Hub::with_workers(threads);
    // One wall slot per worker plus a last one for this (driver)
    // thread, which owns the sweep root span.
    let recorder = Wall::with_threads(threads + 1);
    assert!(wall::attach(&recorder, threads), "driver slot");
    let budget = common::instr_budget(3_000_000);
    let names = ["art", "mcf", "gzip", "gcc", "bzip2", "art", "mcf", "gzip"];

    let started = Instant::now();
    let ((rows, _report), live) = while_draining(&hub, &recorder, || {
        // The sweep root span: worker task spans parent to it.
        let _sweep = wall::span(Family::Sweep);
        parallel_map_observed(
            names.to_vec(),
            threads,
            Obs::new(Some(&hub), Some(&recorder)),
            |name, ctx| {
                let mut m = [Machine::new(MachineConfig::four_core_migration())];
                let mut w = suite::by_name(name).expect("suite workload");
                Machine::run_shared(&mut m, &mut *w, budget, ctx.as_ref());
                m[0].stats().l2_misses
            },
        )
    });
    let run_ns = started.elapsed().as_nanos() as u64;
    wall::detach();

    assert_eq!(rows.len(), names.len());
    assert!(rows.iter().all(|&misses| misses > 0));

    // Tasks longer than a beat period publish mid-task beats, and run
    // long enough for a 5 ms drain to catch them.
    if budget > BEAT_PERIOD_INSTR {
        assert!(
            live.progress > 0,
            "no drain caught a running worker mid-task"
        );
        assert!(live.spans > 0, "no drain caught a closed span mid-run");
    }
    let snap = hub.snapshot();
    assert!(snap.all_done(), "every worker reported Done: {snap:?}");
    assert_eq!(snap.total_tasks_done(), names.len() as u64);
    assert_eq!(
        snap.total_instructions(),
        0,
        "Done beats reset per-task counters"
    );
    let overhead = hub.overhead();
    assert!(overhead.beats > 0, "the sweep published beats");
    let verdict = Budget::default().verdict(overhead.total_ns(), run_ns);
    assert!(
        verdict.within,
        "hub overhead {:.4} % exceeds the {:.0} % budget",
        verdict.fraction * 100.0,
        verdict.max_fraction * 100.0
    );

    let snap = recorder.snapshot();
    for family in [
        Family::Sweep,
        Family::Task,
        Family::Run,
        Family::MachineBlock,
    ] {
        let stats = snap.family(family).expect("every family has a row");
        assert!(stats.count > 0, "{} recorded no spans", family.name());
        assert!(stats.p50_ns <= stats.p99_ns && stats.p99_ns <= stats.p999_ns);
    }
    assert_eq!(
        snap.family(Family::Task).map(|f| f.count),
        Some(names.len() as u64),
        "one task span per sweep item"
    );
    let wall_verdict = Budget::default().verdict(recorder.overhead().total_ns(), run_ns);
    assert!(
        wall_verdict.within,
        "wall overhead {:.4} % exceeds the {:.0} % budget",
        wall_verdict.fraction * 100.0,
        wall_verdict.max_fraction * 100.0
    );
}

/// A wall with no hub still sees inside the machine: each
/// `run_shared` task records exactly one `machine/block` span, nested
/// under the runner's `runner/run` span for that task.
#[test]
fn wall_only_sweep_records_one_machine_block_per_task() {
    let threads = 2;
    let recorder = Wall::with_threads(threads);
    let budget = common::instr_budget(200_000);
    let names = ["art", "mcf", "gzip", "gcc"];
    parallel_map_observed(
        names.to_vec(),
        threads,
        Obs::new(None, Some(&recorder)),
        |name, ctx| {
            assert!(ctx.is_none(), "no hub, no progress context");
            let mut m = [Machine::new(MachineConfig::four_core_migration())];
            let mut w = suite::by_name(name).expect("suite workload");
            Machine::run_shared(&mut m, &mut *w, budget, None);
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
/// `runner/task;runner/run` stacks still fold. Each task waits inside
/// `runner/run` until the sampler has passed over it twice, so both
/// stacks are live under the sampler whatever the host's speed.
#[test]
fn folded_stacks_skip_the_idle_sweep_driver() {
    let threads = 2;
    let recorder = Wall::with_threads(threads + 1);
    assert!(wall::attach(&recorder, threads), "driver slot");
    let passes = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                recorder.sample_stacks();
                passes.fetch_add(1, Ordering::AcqRel);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let _stop = StopOnDrop(&done);
        let _sweep = wall::span(Family::Sweep);
        parallel_map_observed(
            vec![(); 4],
            threads,
            Obs::new(None, Some(&recorder)),
            |(), _| {
                let entered = passes.load(Ordering::Acquire);
                while passes.load(Ordering::Acquire) < entered + 2 {
                    std::thread::yield_now();
                }
            },
        );
    });
    wall::detach();

    let folded = recorder.snapshot().collapsed_text();
    let stacks: Vec<&str> = folded
        .lines()
        .filter_map(|line| line.rsplit_once(' ').map(|(stack, _)| stack))
        .collect();
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
    let hub = Hub::with_workers(2);
    let recorder = Wall::with_threads(2);
    let (observed, _) = while_draining(&hub, &recorder, || {
        sweep(2, Obs::new(Some(&hub), Some(&recorder)))
    });
    assert_eq!(observed, serial, "{name}: 2 threads, hub and wall");
    let tasks = suite::names().len() as u64;
    assert_eq!(hub.snapshot().total_tasks_done(), tasks, "{name}: rows");
}

/// The experiments' JSON rows do not depend on how the sweep is run:
/// `table2` and `coherence_compare` serialise to the same bytes on 1
/// and 8 worker threads with observability detached, and on 2 threads
/// with a hub and a wall attached.
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
