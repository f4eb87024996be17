//! The lock-free single-producer/single-consumer ring both concurrent
//! recorders are built on: the progress [`Hub`](crate::Hub) (progress
//! beats) and the wall-clock [`Wall`](crate::Wall) (closed spans), plus
//! the [`Budget`] that judges what they cost.
//!
//! A [`Ring<W>`] holds fixed-size records of `W` `u64` words. The
//! protocol, written once here:
//!
//! - **Claim.** One producer per ring: [`Ring::claim`] is a
//!   first-claim-wins `AcqRel` swap.
//! - **Push.** The producer stores the record words with Relaxed
//!   stores, then publishes them with one Release store of `head`. A
//!   full ring drops the record and counts the drop; the producer never
//!   waits.
//! - **Drain.** The single consumer (each recorder drains under its
//!   merge mutex) loads `head` with Acquire, reads every record in
//!   `[tail, head)`, and hands the cells back with one Release store of
//!   `tail`.
//!
//! The last word of every record is the ring's own sequence stamp; the
//! drain checks it in debug builds. The ring also keeps the producer's
//! self-accounting: records published, records dropped, and the
//! nanoseconds its owner bills to it ([`Ring::bill`]).
//!
//! All atomics go through [`crate::model`], so `tests/model_spsc.rs`
//! checks this exact source under `--cfg execmig_model`. The two
//! deliberate-bug mutations it must detect live only in this file:
//! `--cfg execmig_weak_head` weakens the Release head bump to Relaxed,
//! and `--cfg execmig_torn_slot` stores word 0 after the head bump.

use crate::model::sync::{AtomicBool, AtomicU64, Ordering};

/// A bounded SPSC ring of `W`-word records (the last word is the
/// ring's sequence stamp).
#[derive(Debug)]
pub struct Ring<const W: usize> {
    /// Next sequence number the producer will write (monotonic).
    head: AtomicU64,
    /// Next sequence number the consumer will read.
    tail: AtomicU64,
    /// Records accepted.
    published: AtomicU64,
    /// Records dropped on a full ring.
    dropped: AtomicU64,
    /// Producer nanoseconds billed by the owner.
    cost_ns: AtomicU64,
    /// Producer handle handed out already?
    claimed: AtomicBool,
    /// Record storage; cell `i` holds sequence numbers `≡ i (mod len)`.
    cells: Vec<[AtomicU64; W]>,
}

impl<const W: usize> Ring<W> {
    /// An empty ring holding up to `capacity` undrained records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` or `W == 0` (no room for the stamp).
    pub fn new(capacity: usize) -> Ring<W> {
        assert!(capacity >= 2, "ring capacity must be ≥ 2");
        assert!(W > 0, "a record needs at least its sequence stamp");
        Ring {
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cost_ns: AtomicU64::new(0),
            claimed: AtomicBool::new(false),
            cells: (0..capacity)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Claims the producer side. The first claim wins; later claims get
    /// `false`, which is what keeps the ring single-producer.
    pub fn claim(&self) -> bool {
        // ord: AcqRel swap pairs claim attempts with each other so
        // exactly one caller wins the ring.
        !self.claimed.swap(true, Ordering::AcqRel)
    }

    /// Producer side: appends `record`, stamping its last word with the
    /// sequence number. Returns `false` (and counts a drop) when the
    /// ring is full. Only the claimant may call this.
    pub fn push(&self, mut record: [u64; W]) -> bool {
        // ord: Relaxed — head is producer-owned; we are its only writer.
        let head = self.head.load(Ordering::Relaxed);
        // ord: Acquire pairs with the consumer's Release tail store in
        // drain(): once tail covers a cell, the consumer is done reading
        // it and we may overwrite.
        let tail = self.tail.load(Ordering::Acquire);
        let cap = self.cells.len() as u64;
        if head.wrapping_sub(tail) >= cap {
            // ord: Relaxed — monotone drop counter, producer-owned.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        record[W - 1] = head;
        let cell = &self.cells[(head % cap) as usize];
        for (i, (c, w)) in cell.iter().zip(record).enumerate() {
            if cfg!(execmig_torn_slot) && i == 0 {
                continue;
            }
            // ord: Relaxed — the Release head store below publishes
            // these words.
            c.store(w, Ordering::Relaxed);
        }
        #[cfg(not(execmig_weak_head))]
        // ord: Release publishes the record words written above; pairs
        // with the Acquire head load in drain().
        self.head.store(head + 1, Ordering::Release);
        #[cfg(execmig_weak_head)]
        // ord: Relaxed — deliberately broken mutation: without the
        // release pairing, drain() may read torn records.
        self.head.store(head + 1, Ordering::Relaxed);
        #[cfg(execmig_torn_slot)]
        // ord: Relaxed — deliberately broken mutation: word 0 is
        // published after the head bump.
        cell[0].store(record[0], Ordering::Relaxed);
        // ord: Relaxed — monotone self-accounting counter.
        self.published.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Consumer side: hands every published, undrained record to `each`
    /// in sequence order, then frees their cells. Callers serialise
    /// drains (one consumer at a time); producers never block on it.
    pub fn drain(&self, mut each: impl FnMut(&[u64; W])) {
        // ord: Acquire pairs with the producer's Release head store in
        // push(): everything below `head` is fully written.
        let head = self.head.load(Ordering::Acquire);
        // ord: Relaxed — tail is consumer-owned; drains are serialised.
        let tail = self.tail.load(Ordering::Relaxed);
        if head == tail {
            return;
        }
        let cap = self.cells.len() as u64;
        let mut record = [0u64; W];
        for seq in tail..head {
            let cell = &self.cells[(seq % cap) as usize];
            for (w, c) in record.iter_mut().zip(cell) {
                // ord: Relaxed — covered by the Acquire head load above.
                *w = c.load(Ordering::Relaxed);
            }
            debug_assert_eq!(record[W - 1], seq, "ring sequence stamp mismatch");
            each(&record);
        }
        // ord: Release pairs with the producer's Acquire tail load in
        // push(): the cells are the producer's again once tail advances.
        self.tail.store(head, Ordering::Release);
    }

    /// Adds `ns` producer nanoseconds to the ring's cost counter.
    pub fn bill(&self, ns: u64) {
        // ord: Relaxed — monotone self-accounting counter.
        self.cost_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records accepted so far (exact once the producer is joined).
    pub fn published(&self) -> u64 {
        // ord: Relaxed — monotone counter read for display.
        self.published.load(Ordering::Relaxed)
    }

    /// Records dropped on a full ring so far.
    pub fn dropped(&self) -> u64 {
        // ord: Relaxed — monotone counter read for display.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Producer nanoseconds billed so far.
    pub fn cost_ns(&self) -> u64 {
        // ord: Relaxed — monotone counter read for display.
        self.cost_ns.load(Ordering::Relaxed)
    }
}

/// A cap on how much of a run a recorder's self-billed cost may take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Maximum tolerated `cost / run` time fraction.
    pub max_fraction: f64,
}

impl Default for Budget {
    fn default() -> Self {
        // The acceptance bar: observability under 2 % of run time.
        Budget { max_fraction: 0.02 }
    }
}

impl Budget {
    /// Checks `cost_ns` of recorder time against a run of `run_ns`
    /// nanoseconds. A zero-length run never fails.
    pub fn verdict(&self, cost_ns: u64, run_ns: u64) -> BudgetVerdict {
        let fraction = if run_ns == 0 {
            0.0
        } else {
            cost_ns as f64 / run_ns as f64
        };
        BudgetVerdict {
            fraction,
            max_fraction: self.max_fraction,
            within: fraction <= self.max_fraction,
        }
    }
}

/// A budget check outcome (never panics; callers decide severity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetVerdict {
    /// Measured cost fraction of the run.
    pub fraction: f64,
    /// The configured cap.
    pub max_fraction: f64,
    /// `fraction <= max_fraction`.
    pub within: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained<const W: usize>(ring: &Ring<W>) -> Vec<[u64; W]> {
        let mut out = Vec::new();
        ring.drain(|r| out.push(*r));
        out
    }

    #[test]
    fn push_drain_stamps_sequence_numbers() {
        let ring = Ring::<3>::new(4);
        assert!(ring.push([7, 8, 0]));
        assert!(ring.push([9, 10, 0]));
        assert_eq!(drained(&ring), vec![[7, 8, 0], [9, 10, 1]]);
        assert!(drained(&ring).is_empty(), "drain frees what it read");
        assert!(ring.push([11, 12, 0]));
        assert_eq!(drained(&ring), vec![[11, 12, 2]]);
        assert_eq!((ring.published(), ring.dropped()), (3, 0));
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let ring = Ring::<2>::new(4);
        let accepted = (1..=10u64).filter(|&k| ring.push([k, 0])).count();
        assert_eq!(accepted, 4, "ring holds 4");
        assert_eq!((ring.published(), ring.dropped()), (4, 6));
        let firsts: Vec<u64> = drained(&ring).iter().map(|r| r[0]).collect();
        assert_eq!(firsts, vec![1, 2, 3, 4], "the oldest records survive");
        assert!(ring.push([77, 0]), "room again after the drain");
        assert_eq!(drained(&ring), vec![[77, 4]]);
    }

    #[test]
    fn claim_is_first_wins() {
        let ring = Ring::<1>::new(2);
        assert!(ring.claim());
        assert!(!ring.claim());
    }

    #[test]
    fn billing_accumulates() {
        let ring = Ring::<1>::new(2);
        ring.bill(5);
        ring.bill(7);
        assert_eq!(ring.cost_ns(), 12);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_one_is_rejected() {
        let _ = Ring::<1>::new(1);
    }

    #[test]
    fn budget_verdicts() {
        let budget = Budget::default();
        assert!(budget.verdict(2_000, 1_000_000).within);
        let v = budget.verdict(500_000, 1_000_000);
        assert!(!v.within);
        assert!((v.fraction - 0.5).abs() < 1e-12);
        assert_eq!(v.max_fraction, 0.02);
        // Zero-length runs never fail the budget.
        assert!(budget.verdict(500_000, 0).within);
    }
}
