//! The abstract working-set behaviours of §3.3.
//!
//! These streams reference *elements*, not byte addresses; element `e` is
//! mapped to byte address `e * 64` so that, with the default 64-byte line
//! size, element numbers and line numbers coincide — exactly the setting
//! of Figure 3.

use crate::access::Access;
use crate::addr::Addr;
use crate::rng::Rng;
use crate::workload::Workload;

/// The `Circular` behaviour: the infinite stream
/// `0, 1, …, N-1, 0, 1, …, N-1, …`.
///
/// §3.3: "Circular is an important case, as many applications exhibit this
/// kind of working-set behavior, especially after filtering by a L1
/// cache."
///
/// ```
/// use execmig_trace::gen::CircularWorkload;
/// use execmig_trace::Workload;
/// let mut w = CircularWorkload::new(4);
/// let lines: Vec<u64> = (0..6).map(|_| w.next_access().addr.raw() / 64).collect();
/// assert_eq!(lines, [0, 1, 2, 3, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct CircularWorkload {
    n: u64,
    pos: u64,
    instr: u64,
}

impl CircularWorkload {
    /// Creates a circular stream over `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "working set must be non-empty");
        CircularWorkload {
            n,
            pos: 0,
            instr: 0,
        }
    }

    /// The working-set size in elements.
    pub fn working_set(&self) -> u64 {
        self.n
    }
}

impl Workload for CircularWorkload {
    fn name(&self) -> &str {
        "circular"
    }

    #[inline]
    fn next_access(&mut self) -> Access {
        let e = self.pos;
        self.pos = (self.pos + 1) % self.n;
        self.instr += 1;
        Access::load(Addr::new(e * 64))
    }

    fn instructions(&self) -> u64 {
        self.instr
    }
}

/// The `HalfRandom(m)` behaviour: `m` random elements drawn from the lower
/// half `[0, N/2)`, then `m` from the upper half `[N/2, N)`, alternating
/// forever (§3.3).
///
/// ```
/// use execmig_trace::gen::HalfRandomWorkload;
/// use execmig_trace::Workload;
/// let mut w = HalfRandomWorkload::new(4000, 300, 1);
/// for i in 0..1200 {
///     let e = w.next_access().addr.raw() / 64;
///     let lower = (i / 300) % 2 == 0;
///     assert_eq!(e < 2000, lower, "element {e} at step {i}");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct HalfRandomWorkload {
    n: u64,
    m: u64,
    in_burst: u64,
    upper: bool,
    rng: Rng,
    instr: u64,
}

impl HalfRandomWorkload {
    /// Creates a `HalfRandom(m)` stream over `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `m == 0`.
    pub fn new(n: u64, m: u64, seed: u64) -> Self {
        assert!(n >= 2, "need at least two elements");
        assert!(m > 0, "burst length must be positive");
        HalfRandomWorkload {
            n,
            m,
            in_burst: 0,
            upper: false,
            rng: Rng::seed_from(seed),
            instr: 0,
        }
    }

    /// The working-set size in elements.
    pub fn working_set(&self) -> u64 {
        self.n
    }

    /// The burst length `m`.
    pub fn burst(&self) -> u64 {
        self.m
    }
}

impl Workload for HalfRandomWorkload {
    fn name(&self) -> &str {
        "half_random"
    }

    #[inline]
    fn next_access(&mut self) -> Access {
        if self.in_burst == self.m {
            self.in_burst = 0;
            self.upper = !self.upper;
        }
        self.in_burst += 1;
        let half = self.n / 2;
        let e = if self.upper {
            self.rng.range(half, self.n)
        } else {
            self.rng.below(half)
        };
        self.instr += 1;
        Access::load(Addr::new(e * 64))
    }

    fn instructions(&self) -> u64 {
        self.instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_wraps() {
        let mut w = CircularWorkload::new(3);
        let es: Vec<u64> = (0..7).map(|_| w.next_access().addr.raw() / 64).collect();
        assert_eq!(es, [0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(w.instructions(), 7);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn circular_rejects_empty() {
        CircularWorkload::new(0);
    }

    #[test]
    fn half_random_alternates_halves() {
        let n = 1000;
        let m = 50;
        let mut w = HalfRandomWorkload::new(n, m, 7);
        for burst in 0..10 {
            for _ in 0..m {
                let e = w.next_access().addr.raw() / 64;
                assert!(e < n);
                if burst % 2 == 0 {
                    assert!(e < n / 2, "burst {burst}: {e} should be in lower half");
                } else {
                    assert!(e >= n / 2, "burst {burst}: {e} should be in upper half");
                }
            }
        }
    }

    #[test]
    fn half_random_deterministic() {
        let mut a = HalfRandomWorkload::new(4000, 300, 42);
        let mut b = HalfRandomWorkload::new(4000, 300, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn half_random_covers_both_halves() {
        let mut w = HalfRandomWorkload::new(100, 10, 3);
        let mut low = false;
        let mut high = false;
        for _ in 0..100 {
            let e = w.next_access().addr.raw() / 64;
            if e < 50 {
                low = true;
            } else {
                high = true;
            }
        }
        assert!(low && high);
    }
}
