//! The R-window: a FIFO of the `|R|` most recently referenced elements.
//!
//! §3.2 defines `R` as the `n` most recently referenced *distinct*
//! elements, but notes that enforcing distinctness "requires a fully
//! associative memory with LRU replacement, which can be costly", and
//! relaxes it: "we implement the R-window as a FIFO, i.e., a memory array
//! and a circular pointer on that array". Each entry holds a line address
//! and its recorded `I_e`.
//!
//! # Duplicate elements (audited)
//!
//! Under the FIFO relaxation a re-referenced element occupies one slot
//! *per reference* — distinctness is exactly what the relaxation gives
//! up. This does **not** double-subtract `I_e` from `A_R`: each slot
//! carries the `I_e` recorded at its own entry and is handed back by
//! [`push`](RWindow::push) exactly once, at its own exit, so the
//! mechanism subtracts each recorded value once (see the conservation
//! test below). Duplicate slots exit oldest-first, so the *last*
//! write-back for an element is always from its freshest slot, and the
//! affinity table is never left holding a stale `O_e`. The differential
//! oracle (`execmig-check`) runs the hardware mechanism against a
//! from-scratch FIFO restatement and against the distinct-LRU
//! [`IdealAffinity`](crate::IdealAffinity) of Definition 1: the former
//! matches step-for-step; the latter differs only within the
//! paper-sanctioned relaxation (both split a working set into the same
//! balanced halves).
#![deny(clippy::panic)]

/// FIFO R-window of `(element, I_e)` entries.
///
/// ```
/// use execmig_core::RWindow;
/// let mut w = RWindow::new(2);
/// assert_eq!(w.push(10, 1), None);      // filling
/// assert_eq!(w.push(20, 2), None);      // filling
/// assert_eq!(w.push(30, 3), Some((10, 1))); // oldest leaves
/// assert_eq!(w.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RWindow {
    entries: Vec<(u64, i64)>,
    /// Index of the oldest entry once full; insertion point while filling.
    at: usize,
    capacity: usize,
}

impl RWindow {
    /// Creates a window of the given capacity (`|R|`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "R-window must hold at least one element");
        RWindow {
            entries: Vec::with_capacity(capacity),
            at: 0,
            capacity,
        }
    }

    /// `|R|`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (less than `|R|` only during warm-up).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True during warm-up, before any element has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True once the FIFO is full.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Pushes `(element, i_e)`; once full, returns the evicted oldest
    /// entry `(f, I_f)`.
    pub fn push(&mut self, element: u64, i_e: i64) -> Option<(u64, i64)> {
        if self.entries.len() < self.capacity {
            self.entries.push((element, i_e));
            None
        } else {
            let old = self.entries[self.at];
            self.entries[self.at] = (element, i_e);
            // Wrap the circular pointer with a compare, not a divide.
            self.at += 1;
            if self.at == self.capacity {
                self.at = 0;
            }
            Some(old)
        }
    }

    /// Looks up the most recently pushed entry for `element`, if it is
    /// currently in the window (linear scan; introspection only).
    pub fn find(&self, element: u64) -> Option<i64> {
        // Scan from newest to oldest so duplicates resolve to the
        // freshest I_e.
        let n = self.entries.len();
        for k in 1..=n {
            let idx = if self.is_full() {
                (self.at + n - k) % n
            } else {
                n - k
            };
            let (e, i_e) = self.entries[idx];
            if e == element {
                return Some(i_e);
            }
        }
        None
    }

    /// Iterates over `(element, I_e)` entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut w = RWindow::new(3);
        assert!(w.is_empty());
        w.push(1, 10);
        w.push(2, 20);
        w.push(3, 30);
        assert!(w.is_full());
        assert_eq!(w.push(4, 40), Some((1, 10)));
        assert_eq!(w.push(5, 50), Some((2, 20)));
        assert_eq!(w.push(6, 60), Some((3, 30)));
        assert_eq!(w.push(7, 70), Some((4, 40)));
    }

    #[test]
    fn duplicates_allowed() {
        let mut w = RWindow::new(2);
        w.push(9, 1);
        w.push(9, 2);
        assert_eq!(w.push(9, 3), Some((9, 1)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn duplicate_slots_exit_oldest_first_exactly_once() {
        // A re-referenced element holds one slot per reference; each
        // slot exits once, oldest first, with the I_e recorded at its
        // own entry — the A_R maintenance never sees a slot twice.
        let mut w = RWindow::new(3);
        w.push(7, 10);
        w.push(8, 20);
        w.push(7, 11); // duplicate of 7 with a fresher I_e
        assert_eq!(w.push(9, 30), Some((7, 10))); // stale slot first
        assert_eq!(w.push(10, 40), Some((8, 20)));
        assert_eq!(w.push(11, 50), Some((7, 11))); // fresh slot later
    }

    #[test]
    fn eviction_conserves_every_pushed_entry() {
        // Conservation law behind the no-double-subtraction audit:
        // over any stream (duplicates included), the multiset of
        // evicted entries plus the window residue equals the multiset
        // of pushed entries.
        let mut w = RWindow::new(5);
        let mut pushed = Vec::new();
        let mut evicted = Vec::new();
        let mut x = 42u64;
        for k in 0..1000i64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let e = (x >> 33) % 7; // tiny universe: duplicates abound
            pushed.push((e, k));
            if let Some(old) = w.push(e, k) {
                evicted.push(old);
            }
        }
        evicted.extend(w.iter());
        evicted.sort_unstable();
        pushed.sort_unstable();
        assert_eq!(evicted, pushed);
    }

    #[test]
    fn find_returns_freshest() {
        let mut w = RWindow::new(3);
        w.push(1, 10);
        w.push(2, 20);
        w.push(1, 11);
        assert_eq!(w.find(1), Some(11));
        assert_eq!(w.find(2), Some(20));
        assert_eq!(w.find(3), None);
        // Wrap around: push two more, evicting both oldest entries.
        w.push(4, 40);
        w.push(5, 50);
        assert_eq!(w.find(1), Some(11));
        assert_eq!(w.find(2), None);
    }

    #[test]
    fn capacity_one() {
        let mut w = RWindow::new(1);
        assert_eq!(w.push(1, 5), None);
        assert_eq!(w.push(2, 6), Some((1, 5)));
        assert_eq!(w.find(2), Some(6));
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn rejects_zero_capacity() {
        RWindow::new(0);
    }

    #[test]
    fn iter_yields_all() {
        let mut w = RWindow::new(2);
        w.push(1, 10);
        w.push(2, 20);
        let mut v: Vec<_> = w.iter().collect();
        v.sort_unstable();
        assert_eq!(v, vec![(1, 10), (2, 20)]);
    }
}
