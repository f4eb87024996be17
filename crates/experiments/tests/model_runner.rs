//! Interleaving model checks for the runner's claim/complete protocol.
//!
//! Compiled only under `RUSTFLAGS="--cfg execmig_model"`: the runner's
//! task-queue claim, panic slot, and hub beats then execute on the
//! `execmig-model` virtual scheduler, and these tests assert the
//! protocol's invariants — every task runs exactly once, results keep
//! input order, and no worker's `Done` beat is lost — across every
//! bounded interleaving.

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

/// The observed variant with a live hub: beats ride the same SPSC rings
/// `execmig-obs`'s `model_spsc` test exercises, and after the run every
/// claimed worker slot must show its final `Done` beat — completion is
/// never lost, and completed-task counts conserve the task count.
#[test]
fn done_beats_are_never_lost() {
    use execmig_obs::{Hub, HubConfig, WorkerState};
    explore_with(
        Config {
            preemption_bound: Some(1),
            ..Config::default()
        },
        || {
            let hub = Hub::new(HubConfig {
                workers: 2,
                // Roomy ring: a dropped beat is legal, but this test
                // pins the *lossless* path so the Done beat must land.
                ring_capacity: 16,
                heartbeat_us: 1_000_000,
                stall_beats: 1_000,
            });
            let (out, _report) =
                parallel_map_observed(vec![1u64, 2], 2, Obs::hub_only(&hub), |x, _ctx| x + 1);
            assert_eq!(out, vec![2, 3]);
            let snap = hub.snapshot();
            assert_eq!(snap.overhead.dropped, 0, "ring never filled");
            let mut tasks_done = 0;
            for row in &snap.workers {
                assert_eq!(
                    row.state,
                    WorkerState::Done,
                    "worker {} lost its Done beat",
                    row.worker
                );
                tasks_done += row.tasks_done;
            }
            assert_eq!(tasks_done, 2, "completions conserve the task count");
        },
    );
}
