//! Interleaving model checks for the runner's claim/complete protocol.
//!
//! Compiled only under `RUSTFLAGS="--cfg execmig_model"`: the runner's
//! task-queue claim and panic slot then execute on the `execmig-model`
//! virtual scheduler, and these tests assert the protocol's invariants
//! — every task is claimed and completed exactly once, and results keep
//! input order — across every bounded interleaving.

#![cfg(execmig_model)]

use execmig_experiments::runner::{parallel_map, parallel_map_observed, Obs};
use execmig_model::{explore_with, Config};

/// Two workers racing a three-task queue: under every interleaving each
/// task is claimed exactly once and the output keeps input order.
#[test]
fn claims_are_exclusive_and_order_preserved() {
    explore_with(
        Config {
            preemption_bound: Some(2),
            ..Config::default()
        },
        || {
            let out = parallel_map(vec![1u64, 2, 3], 2, |x| x * 10);
            assert_eq!(out, vec![10, 20, 30]);
        },
    );
}

/// Every claimed task completes on exactly one worker: the closure sees
/// each item with its own index, and the per-worker completion records
/// merged after the join name every task once.
#[test]
fn completions_conserve_the_task_count() {
    explore_with(
        Config {
            preemption_bound: Some(1),
            ..Config::default()
        },
        || {
            let (out, report) =
                parallel_map_observed(vec![1u64, 2], 2, Obs::none(), |x, i| x * 10 + i as u64);
            assert_eq!(out, vec![10, 21]);
            let mut done: Vec<usize> = report.timings.iter().flatten().map(|t| t.0).collect();
            done.sort_unstable();
            assert_eq!(done, [0, 1], "each task completed once");
        },
    );
}
