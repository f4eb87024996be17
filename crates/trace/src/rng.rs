//! A small, self-contained deterministic RNG.
//!
//! The workload generators must be bit-exact across runs and platforms so
//! that experiments are reproducible and tests can assert on exact event
//! counts. To avoid tying that guarantee to an external crate's version,
//! this module implements SplitMix64 (for seeding) and xoshiro256**
//! (for the stream), both public-domain algorithms by Blackman & Vigna.

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// ```
/// use execmig_trace::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// One SplitMix64 step; used for seeding and as a cheap stateless mixer.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanded via SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro256** requires a non-zero state; SplitMix64 output of four
        // consecutive words is never all-zero, but guard anyway.
        if s == [0; 4] {
            Rng { s: [1, 2, 3, 4] }
        } else {
            Rng { s }
        }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Used so that, e.g., a workload's pointer-graph layout and its
    /// traversal noise come from decorrelated streams.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mut sm = self.next_u64() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` using Lemire's multiply-shift
    /// rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let m = (self.next_u64() as u128).wrapping_mul(bound as u128);
        // `lo >= bound` accepts without computing the rejection
        // threshold, which is below `bound`: nearly every draw ends here.
        if m as u64 >= bound {
            return (m >> 64) as u64;
        }
        self.below_slow(bound, m)
    }

    /// The rest of [`below`](Self::below) after a draw whose low word
    /// fell under `bound`: accept it if it clears the threshold,
    /// otherwise redraw until one does.
    #[cold]
    #[inline(never)]
    fn below_slow(&mut self, bound: u64, mut m: u128) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        while (m as u64) < threshold {
            m = (self.next_u64() as u128).wrapping_mul(bound as u128);
        }
        (m >> 64) as u64
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// True with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        assert!(den > 0);
        self.below(den) < num
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A sample from a geometric-ish distribution: the number of failures
    /// before a success with probability `1/mean`, capped at `8 * mean`.
    /// Used to draw burst lengths with a given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean == 0`.
    pub fn burst_len(&mut self, mean: u64) -> u64 {
        assert!(mean > 0);
        if mean == 1 {
            return 1;
        }
        let cap = mean * 8;
        let mut n = 1;
        while n < cap && !self.chance(1, mean) {
            n += 1;
        }
        n
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::seed_from(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..100 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rng::seed_from(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_bounds() {
        let mut r = Rng::seed_from(4);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_panics_on_empty() {
        Rng::seed_from(0).range(5, 5);
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut r = Rng::seed_from(5);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(6);
        for _ in 0..100 {
            assert!(r.chance(1, 1));
            assert!(!r.chance(0, 1));
        }
    }

    #[test]
    fn burst_len_mean_is_close() {
        let mut r = Rng::seed_from(8);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.burst_len(16)).sum();
        let mean = total as f64 / n as f64;
        assert!((12.0..20.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn fork_streams_are_decorrelated() {
        let mut base = Rng::seed_from(10);
        let mut a = base.fork(1);
        let mut b = base.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
