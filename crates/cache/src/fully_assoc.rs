//! An O(1) fully-associative LRU cache.
//!
//! §4.1 filters the reference stream through 16 KB *fully-associative*
//! LRU L1 caches before profiling. A way-scan implementation would cost
//! O(capacity) per access; this one keeps an intrusive doubly-linked
//! recency list over an arena plus an intrusive chained hash index over
//! the same nodes, for O(1) expected time:
//!
//! - node 0 is a sentinel closing the recency list into a ring, so
//!   unlinking and pushing at the MRU end never branch on empty ends;
//! - each node carries a `chain` link into one of ≥ 4 × capacity bucket
//!   heads (Fibonacci hashing: the top bits of `line × 2^64/φ`), so
//!   chains stay a node or two long and a miss recycles the LRU node in
//!   place: walk its short chain to unhook it, re-key it, push it on
//!   its new bucket;
//! - an access to the line already at the MRU end returns before
//!   hashing at all.

/// Arena index of the sentinel; also the end-of-chain marker, since the
/// sentinel is never in a bucket chain.
const SENTINEL: u32 = 0;

/// Fibonacci-hashing multiplier (2^64 / φ).
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug, Clone, Copy)]
struct Node {
    line: u64,
    /// Towards the MRU end of the recency ring.
    prev: u32,
    /// Towards the LRU end of the recency ring.
    next: u32,
    /// Next node in the same bucket, or `SENTINEL`.
    chain: u32,
}

/// Fully-associative cache with true LRU replacement.
///
/// ```
/// use execmig_cache::FullyAssocLru;
/// let mut c = FullyAssocLru::new(2);
/// assert!(!c.access(1)); // miss, fill
/// assert!(!c.access(2)); // miss, fill
/// assert!(c.access(1));  // hit
/// assert!(!c.access(3)); // miss, evicts 2 (LRU)
/// assert!(!c.access(2)); // miss again
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocLru {
    capacity: usize,
    /// The sentinel, then one node per resident line.
    nodes: Vec<Node>,
    /// First node of each bucket chain, or `SENTINEL`.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: a line's bucket is the top bits of
    /// its hash.
    shift: u32,
}

impl FullyAssocLru {
    /// Creates a cache holding `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one line");
        assert!(capacity <= (u32::MAX >> 3) as usize, "capacity too large");
        let buckets = (capacity * 4).next_power_of_two();
        let mut nodes = Vec::with_capacity(capacity + 1);
        nodes.push(Node {
            line: 0,
            prev: SENTINEL,
            next: SENTINEL,
            chain: SENTINEL,
        });
        FullyAssocLru {
            capacity,
            nodes,
            buckets: vec![SENTINEL; buckets],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// Lines the cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lines currently resident.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `line` is resident (no recency update).
    pub fn contains(&self, line: u64) -> bool {
        self.find(self.bucket(line), line) != SENTINEL
    }

    #[inline(always)]
    fn bucket(&self, line: u64) -> usize {
        (line.wrapping_mul(PHI) >> self.shift) as usize
    }

    /// The node holding `line` in bucket `b`, or `SENTINEL`.
    #[inline(always)]
    fn find(&self, b: usize, line: u64) -> u32 {
        let mut i = self.buckets[b];
        while i != SENTINEL && self.nodes[i as usize].line != line {
            i = self.nodes[i as usize].chain;
        }
        i
    }

    #[inline(always)]
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    #[inline(always)]
    fn push_front(&mut self, i: u32) {
        let head = self.nodes[SENTINEL as usize].next;
        let n = &mut self.nodes[i as usize];
        n.prev = SENTINEL;
        n.next = head;
        self.nodes[head as usize].prev = i;
        self.nodes[SENTINEL as usize].next = i;
    }

    /// Removes node `i` from the chain of bucket `b`, which holds it.
    #[inline(always)]
    fn unchain(&mut self, b: usize, i: u32) {
        let after = self.nodes[i as usize].chain;
        let mut p = self.buckets[b];
        if p == i {
            self.buckets[b] = after;
            return;
        }
        while self.nodes[p as usize].chain != i {
            p = self.nodes[p as usize].chain;
        }
        self.nodes[p as usize].chain = after;
    }

    /// Accesses `line`: returns true on hit. On a miss the line is
    /// filled, evicting the LRU line if the cache is full.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let head = self.nodes[SENTINEL as usize].next;
        if self.nodes[head as usize].line == line && head != SENTINEL {
            return true;
        }
        let b = self.bucket(line);
        let i = self.find(b, line);
        if i != SENTINEL {
            self.unlink(i);
            self.push_front(i);
            return true;
        }
        let i = if self.nodes.len() <= self.capacity {
            self.nodes.push(Node {
                line,
                prev: SENTINEL,
                next: SENTINEL,
                chain: SENTINEL,
            });
            (self.nodes.len() - 1) as u32
        } else {
            // Recycle the LRU node under its new key.
            let i = self.nodes[SENTINEL as usize].prev;
            self.unchain(self.bucket(self.nodes[i as usize].line), i);
            self.unlink(i);
            self.nodes[i as usize].line = line;
            i
        };
        self.nodes[i as usize].chain = self.buckets[b];
        self.buckets[b] = i;
        self.push_front(i);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: recency-ordered Vec.
    struct NaiveLru {
        cap: usize,
        order: Vec<u64>, // most recent last
    }

    impl NaiveLru {
        fn new(cap: usize) -> Self {
            NaiveLru {
                cap,
                order: Vec::new(),
            }
        }

        fn access(&mut self, line: u64) -> bool {
            let hit = self.order.contains(&line);
            self.order.retain(|&l| l != line);
            self.order.push(line);
            if self.order.len() > self.cap {
                self.order.remove(0);
            }
            hit
        }
    }

    /// Steps a fresh cache and a [`NaiveLru`] of `cap` lines through
    /// `lines`, comparing `contains` before each access, the access
    /// itself, and `len` after it.
    fn check_against_naive(cap: usize, lines: impl IntoIterator<Item = u64>) {
        let mut fast = FullyAssocLru::new(cap);
        let mut naive = NaiveLru::new(cap);
        for (i, line) in lines.into_iter().enumerate() {
            assert_eq!(
                fast.contains(line),
                naive.order.contains(&line),
                "cap {cap} step {i} line {line}: contains"
            );
            assert_eq!(
                fast.access(line),
                naive.access(line),
                "cap {cap} step {i} line {line}: access"
            );
            assert_eq!(fast.len(), naive.order.len(), "cap {cap} step {i}: len");
        }
    }

    #[test]
    fn basic_hit_miss_evict() {
        let mut c = FullyAssocLru::new(2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert_eq!(c.len(), 2);
        assert!(c.access(1));
        assert!(!c.access(3)); // evicts 2
        assert!(!c.contains(2));
        assert!(c.contains(1));
        assert!(c.contains(3));
    }

    #[test]
    fn capacity_one() {
        let mut c = FullyAssocLru::new(1);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert!(!c.access(2));
        assert!(!c.access(1));
    }

    #[test]
    fn line_zero_is_not_the_sentinel() {
        // The sentinel's own line field is 0: an empty cache must still
        // miss line 0, and a resident line 0 must hit.
        let mut c = FullyAssocLru::new(4);
        assert!(c.is_empty());
        assert!(!c.contains(0));
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.contains(0));
    }

    #[test]
    fn matches_naive_on_random_stream() {
        // The paper's L1 is 256 lines (16 KB of 64 B lines).
        for (cap, steps) in [
            (1usize, 20_000),
            (2, 20_000),
            (7, 20_000),
            (64, 20_000),
            (256, 200_000),
        ] {
            let mut state = 7u64;
            let lines = (0..steps).map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % (cap as u64 * 3)
            });
            check_against_naive(cap, lines);
        }
    }

    #[test]
    fn colliding_keys_share_one_chain() {
        // Eight lines hashing to one bucket of a 4-line cache.
        let mut c = FullyAssocLru::new(4);
        let keys: Vec<u64> = (0u64..)
            .filter(|&l| c.bucket(l) == c.bucket(0))
            .take(8)
            .collect();
        // Cyclic over capacity: every access misses and evicts the
        // oldest fill, the last node of the one chain.
        check_against_naive(4, keys.iter().copied().cycle().take(400));
        // Random recency: victims come off the chain's head, middle and
        // end.
        let mut state = 3u64;
        let mixed = (0..20_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            keys[(state % keys.len() as u64) as usize]
        });
        check_against_naive(4, mixed);
        // Pinned mid-chain eviction: after four fills the chain is
        // 3, 2, 1, 0 (newest first); touching 0 leaves 1 as the LRU.
        for &k in &keys[..4] {
            assert!(!c.access(k));
        }
        assert!(c.access(keys[0]));
        assert!(!c.access(keys[4]));
        assert!(!c.contains(keys[1]), "the mid-chain LRU line was evicted");
        for k in [keys[0], keys[2], keys[3], keys[4]] {
            assert!(c.contains(k), "line {k} must stay resident");
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn circular_over_capacity_always_misses() {
        let mut c = FullyAssocLru::new(100);
        // Warm up.
        for e in 0..150u64 {
            c.access(e);
        }
        // LRU on a circular stream larger than capacity: every miss.
        for round in 0..3 {
            for e in 0..150u64 {
                assert!(!c.access(e), "round {round} element {e}");
            }
        }
    }

    #[test]
    fn circular_within_capacity_always_hits() {
        let mut c = FullyAssocLru::new(100);
        for e in 0..100u64 {
            c.access(e);
        }
        for _ in 0..3 {
            for e in 0..100u64 {
                assert!(c.access(e));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn rejects_zero_capacity() {
        FullyAssocLru::new(0);
    }
}
