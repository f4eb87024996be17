//! Real-thread stress for the hub's SPSC rings: the model checker
//! (`tests/model_spsc.rs`) proves the ring protocol on small bounded
//! executions; this test hammers the same invariants at scale on real
//! hardware, where actual weak-memory reordering and cache traffic
//! apply.
//!
//! N producers publish through deliberately tiny rings (so the
//! full-ring drop path runs constantly) while a merger snapshots
//! concurrently. Invariants: per-worker publish counts are conserved
//! as accepted + dropped, merged rows never show a torn beat, and
//! snapshot epochs are strictly monotone.

use execmig_obs::model::thread;
use execmig_obs::{Beat, Hub, HubConfig, WorkerState};

const WORKERS: usize = 4;

/// Publishes per worker: enough to wrap the ring thousands of times on
/// real runs, scaled down under miri where every instruction is
/// interpreted.
fn publishes_per_worker() -> u64 {
    if cfg!(miri) {
        200
    } else {
        20_000
    }
}

fn beat(k: u64) -> Beat {
    Beat {
        state: WorkerState::Running,
        task: k,
        tasks_done: k,
        // Self-describing payload: every word derives from k, so a
        // torn mix of two beats is detectable in any single field pair.
        instructions: k * 3,
        l2_misses: k * 5,
        ..Beat::default()
    }
}

#[test]
fn producers_hammering_full_rings_conserve_counts() {
    let per_worker = publishes_per_worker();
    let hub = Hub::new(HubConfig {
        workers: WORKERS,
        ring_capacity: 2, // tiny: force the drop path constantly
    });
    let mut epochs_seen = 0u64;
    let mut last_epoch = 0u64;
    let mut floor = [0u64; WORKERS];
    thread::scope(|scope| {
        for w in 0..WORKERS {
            let hub = &hub;
            scope.spawn(move || {
                let handle = hub.worker(w).expect("one claimant per slot");
                for k in 1..=per_worker {
                    handle.publish(beat(k));
                }
                let mut done = beat(per_worker);
                done.state = WorkerState::Done;
                handle.publish(done);
            });
        }
        // Merge concurrently until every publish is accounted for,
        // checking coherence of each observed row. (The final Done
        // beat may itself drop on a full ring, so "all workers Done"
        // is not a sound break condition — conservation is.)
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            let snap = hub.snapshot();
            assert!(
                snap.epoch > last_epoch,
                "snapshot epochs must be strictly monotone: {} after {}",
                snap.epoch,
                last_epoch
            );
            last_epoch = snap.epoch;
            epochs_seen += 1;
            let mut accounted = true;
            for row in &snap.workers {
                accounted &= row.beats + row.dropped == per_worker + 1;
                if row.beats == 0 {
                    continue;
                }
                // No torn beat: every field of the merged row must
                // come from one publish, i.e. one k.
                let k = row.task;
                assert!(k >= 1 && k <= per_worker, "task counter out of range: {k}");
                assert_eq!(row.tasks_done, k, "torn beat: tasks_done vs task");
                assert_eq!(row.instructions, k * 3, "torn beat: instructions");
                assert_eq!(row.l2_misses, k * 5, "torn beat: l2_misses");
                // Newest-wins merge only moves forward.
                assert!(
                    k >= floor[row.worker],
                    "merge went backwards on worker {}: {} after {}",
                    row.worker,
                    k,
                    floor[row.worker]
                );
                floor[row.worker] = k;
            }
            if accounted {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "publish counts never settled: {:?}",
                snap.workers
            );
        }
    });

    // Producers joined: counters are exact now. Conservation — every
    // publish was either accepted (and later merged) or counted as a
    // drop, per worker and in the aggregate.
    let snap = hub.snapshot();
    let o = &snap.overhead;
    let attempts = WORKERS as u64 * (per_worker + 1);
    assert_eq!(
        o.beats + o.dropped,
        attempts,
        "aggregate conservation: accepted + dropped == publishes"
    );
    let mut merged = 0u64;
    for row in &snap.workers {
        assert_eq!(
            row.beats + row.dropped,
            per_worker + 1,
            "worker {} conservation",
            row.worker
        );
        merged += row.beats;
    }
    assert_eq!(merged, o.beats, "merged beats account for every acceptance");
    assert!(
        o.dropped > 0,
        "a capacity-2 ring under {per_worker} publishes must have dropped"
    );
    assert!(epochs_seen >= 1);
    assert!(snap.epoch >= epochs_seen, "epoch bumped on every merge");
}
