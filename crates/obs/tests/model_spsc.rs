//! Interleaving model checks for the one SPSC ring
//! (`execmig_obs::spsc::Ring`) and the two recorders built on it.
//!
//! Compiled only under `RUSTFLAGS="--cfg execmig_model"`: the shim in
//! `execmig_obs::model` then routes every atomic through
//! `execmig_model`'s bounded-DFS scheduler, so these tests assert the
//! ring protocol across *every* bounded interleaving and every stale
//! value the memory model permits — not just the schedules one lucky
//! run happens to hit.
//!
//! The same file is the mutation gate: built with
//! `--cfg execmig_weak_head` (the Release head bump weakened to
//! Relaxed) or `--cfg execmig_torn_slot` (word 0 stored after the head
//! bump), [`ring_push_drain_protocol`] must *fail* to find a clean
//! exploration — the checker has to produce a torn or stale read. CI
//! runs all three configurations.

#![cfg(execmig_model)]

use execmig_model::{try_explore, Config};
use execmig_obs::model::sync::Arc;
use execmig_obs::model::thread;
use execmig_obs::spsc::Ring;

/// A self-describing record: both payload words derive from `k`, so a
/// torn mix of init zeros and half-landed words is detectable. The last
/// word is left to the ring's sequence stamp.
fn record(k: u64) -> [u64; 3] {
    [k, k * 10, 0]
}

/// Checks that a drained record is one whole push and returns its `k`.
/// Only the third push can drop (the first two fit), so accepted record
/// `k` always carries sequence stamp `k - 1`.
fn untorn(r: &[u64; 3]) -> u64 {
    let k = r[0];
    assert!((1..=3).contains(&k), "torn record: word 0 is {k}");
    assert_eq!(r[1], k * 10, "torn record: word 1 disagrees with word 0");
    assert_eq!(r[2], k - 1, "torn record: sequence stamp");
    k
}

/// The tentpole gate: one producer pushing three records through a
/// capacity-2 ring while the main thread drains concurrently.
///
/// Clean orderings: no interleaving shows a torn record, records drain
/// in push order exactly once, and afterwards published + dropped
/// conserves the push count. Mutated orderings
/// (`execmig_weak_head`/`execmig_torn_slot`): the exploration MUST
/// detect a violation.
#[test]
fn ring_push_drain_protocol() {
    let result = try_explore(Config::default(), || {
        let ring = Arc::new(Ring::<3>::new(2));
        let producer_ring = Arc::clone(&ring);
        let producer = thread::spawn(move || {
            assert!(producer_ring.claim(), "first claim wins");
            (1..=3).filter(|&k| producer_ring.push(record(k))).count() as u64
        });

        // Concurrent drains racing the producer: every record handed
        // out must be a whole push.
        let mut seen = Vec::new();
        ring.drain(|r| seen.push(untorn(r)));
        ring.drain(|r| seen.push(untorn(r)));

        let accepted = producer.join().expect("producer");

        // Joined: the counters are exact. Every push either landed and
        // was drained once, or was counted as a drop — conservation.
        ring.drain(|r| seen.push(untorn(r)));
        assert_eq!(accepted + ring.dropped(), 3, "push conservation");
        assert_eq!(ring.published(), accepted);
        assert_eq!(seen.len() as u64, accepted, "each record drained once");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "push order: {seen:?}");
        assert!(!ring.claim(), "the producer's claim holds");
    });

    #[cfg(not(any(execmig_weak_head, execmig_torn_slot)))]
    {
        let report = result.expect("correct orderings: no violation in any bounded interleaving");
        assert!(
            report.executions > 1,
            "the exploration must actually branch"
        );
    }
    #[cfg(any(execmig_weak_head, execmig_torn_slot))]
    {
        let v = result.expect_err(
            "mutation gate: a weakened Release head bump / reordered slot store \
             must surface as a detected torn or stale read",
        );
        eprintln!("mutation detected, as required:\n{v}");
    }
}

/// Drop accounting is exact when producer and consumer are sequenced:
/// four pushes into a capacity-2 ring with no intervening drain is
/// exactly two accepted and two counted drops, and the two oldest
/// records survive. (Single-threaded, so it holds under the mutation
/// cfgs too — coherence forces a thread to see its own stores.)
#[test]
fn full_ring_drops_exactly_counted() {
    execmig_model::explore(|| {
        let ring = Ring::<3>::new(2);
        let accepted = (1..=4).filter(|&k| ring.push(record(k))).count();
        assert_eq!(accepted, 2, "capacity-2 ring accepts two");
        assert_eq!(ring.dropped(), 2, "and counts the other two");
        let mut seen = Vec::new();
        ring.drain(|r| seen.push(r[0]));
        assert_eq!(seen, vec![1, 2]);
    });
}

/// The thin recorder checks below exercise the ring through the hub's
/// and the wall's own merge code, so they only run on the correct
/// orderings.
#[cfg(not(any(execmig_weak_head, execmig_torn_slot)))]
mod recorders {
    use super::*;
    use execmig_obs::{Beat, Family, Hub, HubConfig, Wall, WorkerState};

    /// Claiming is exclusive under every interleaving: two racing
    /// claimants of one hub slot, exactly one wins (the ring stays
    /// SPSC). The wall's `thread()` claims through the same
    /// `Ring::claim`.
    #[test]
    fn slot_claim_is_exclusive() {
        execmig_model::explore(|| {
            let hub = Hub::with_workers(1);
            let rival_hub = hub.clone();
            let rival = thread::spawn(move || rival_hub.worker(0).is_some());
            let mine = hub.worker(0).is_some();
            let theirs = rival.join().expect("rival");
            assert!(
                mine ^ theirs,
                "exactly one claimant may win slot 0 (mine={mine}, theirs={theirs})"
            );
        });
    }

    /// The hub's newest-wins merge: snapshots racing three publishes
    /// never go backwards, and after the join the row holds the newest
    /// accepted beat with beats + drops conserving the publish count.
    #[test]
    fn hub_merge_keeps_the_newest_beat() {
        execmig_model::explore(|| {
            let hub = Hub::new(HubConfig {
                workers: 1,
                ring_capacity: 2,
            });
            let w = hub.worker(0).expect("claim");
            let producer = thread::spawn(move || {
                for instructions in [10, 20, 30] {
                    w.publish(Beat {
                        state: WorkerState::Running,
                        instructions,
                        ..Beat::default()
                    });
                }
            });
            let i1 = hub.snapshot().workers[0].instructions;
            let i2 = hub.snapshot().workers[0].instructions;
            assert!(i2 >= i1, "newest-wins merge went backwards: {i1} -> {i2}");
            producer.join().expect("producer");

            let fin = hub.snapshot();
            let (row, o) = (&fin.workers[0], &fin.overhead);
            assert_eq!(o.beats + o.dropped, 3, "publish conservation");
            assert_eq!(row.beats, o.beats, "merged beats == accepted beats");
            let newest = if o.dropped == 1 { 20 } else { 30 };
            assert_eq!(row.instructions, newest, "newest-wins merge");
            assert_eq!(fin.epoch, 3);
        });
    }

    /// The wall's histogram fold: spans closed concurrently with
    /// snapshots all land in their family's histogram exactly once.
    #[test]
    fn wall_histograms_conserve_spans() {
        execmig_model::explore(|| {
            let wall = Wall::new(1, 2);
            let t = wall.thread(0).expect("claim");
            let producer = thread::spawn(move || {
                for _ in 0..3 {
                    let id = t.enter(Family::Task);
                    t.exit(id);
                }
            });
            let n1 = wall.snapshot().total_spans();
            let n2 = wall.snapshot().total_spans();
            assert!(n2 >= n1, "drained span count went backwards: {n1} -> {n2}");
            producer.join().expect("producer");

            let fin = wall.snapshot();
            let o = &fin.overhead;
            assert_eq!(o.spans + o.dropped, 3, "exit conservation");
            assert_eq!(fin.total_spans(), o.spans, "merged == accepted");
            let task = fin.family(Family::Task).expect("task row");
            assert_eq!(task.count, o.spans, "all spans are task spans");
        });
    }
}
