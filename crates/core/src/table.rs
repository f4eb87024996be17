//! Affinity storage: the *affinity cache* holding `O_e` per line.
//!
//! §3.5 dimensions it: "we need a 32k-entry affinity cache … It is
//! possible to decrease the size of the affinity cache by sampling the
//! working-set." §4.2 uses an 8k-entry, 4-way skewed-associative
//! affinity cache with age-based replacement, and "upon a miss for line
//! `e` in the affinity cache, we force `A_e = 0` by setting `O_e = ∆`".
//!
//! [`UnboundedAffinityTable`] (a hash map) models the "unlimited affinity
//! cache size" of the §4.1 stack-profile experiment; [`SkewedAffinityCache`]
//! models the finite hardware structure.
#![deny(clippy::panic)]

use std::collections::HashMap;

use execmig_obs::Histogram;

/// Hit/miss counters of an affinity table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Reads that found an entry.
    pub hits: u64,
    /// Reads that allocated a fresh entry (forcing `A_e = 0`).
    pub misses: u64,
}

/// Storage of `O_e` values, keyed by line address.
pub trait AffinityTable {
    /// Reads `O_e` for `line`; on a miss, installs `reset` (the caller
    /// passes its current `∆`, clamped to the affinity width, so the
    /// fresh entry has `A_e = 0`) and returns it.
    fn read_or_insert(&mut self, line: u64, reset: i64) -> i64;

    /// Writes `O_e` back when `line` leaves the R-window. May allocate
    /// if the entry was evicted in the meantime.
    fn write(&mut self, line: u64, o_e: i64);

    /// Reads without inserting or disturbing replacement state.
    fn peek(&self, line: u64) -> Option<i64>;

    /// Hit/miss counters.
    fn stats(&self) -> TableStats;
}

/// Unlimited affinity storage (§4.1's "unlimited affinity cache size").
#[derive(Debug, Clone, Default)]
pub struct UnboundedAffinityTable {
    map: HashMap<u64, i64>,
    stats: TableStats,
}

impl UnboundedAffinityTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        UnboundedAffinityTable::default()
    }

    /// Number of lines tracked.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no line is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl AffinityTable for UnboundedAffinityTable {
    fn read_or_insert(&mut self, line: u64, reset: i64) -> i64 {
        match self.map.get(&line) {
            Some(&v) => {
                self.stats.hits += 1;
                v
            }
            None => {
                self.stats.misses += 1;
                self.map.insert(line, reset);
                reset
            }
        }
    }

    fn write(&mut self, line: u64, o_e: i64) {
        self.map.insert(line, o_e);
    }

    fn peek(&self, line: u64) -> Option<i64> {
        self.map.get(&line).copied()
    }

    fn stats(&self) -> TableStats {
        self.stats
    }
}

/// Largest way count [`SkewedAffinityCache::new`] accepts.
const MAX_WAYS: u32 = 8;

/// Per-way keys for the skewing hashes (distinct from the L2's keys; the
/// affinity cache is an independent structure).
const SKEW_KEYS: [u64; MAX_WAYS as usize] = [
    0x2545_f491_4f6c_dd1d,
    0x27d4_eb2f_1656_67c5,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca6b_27d4_eb2f,
    0xc2b2_ae3d_27d4_eb4f,
    0x9e37_79b1_85eb_ca87,
    0x1b87_3593_27d4_eb2d,
    0xff51_afd7_ed55_8ccd,
];

/// One 32-byte affinity-cache entry.
///
/// There is no valid flag: an entry is valid iff `last != 0`. The table
/// clock ticks before every stamp, so a valid entry's `last` is at
/// least 1, and no two entries share a stamp. `last` is therefore also
/// the whole victim key: the smallest `last` among the candidates is
/// the first invalid way if there is one, else the oldest entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    o_e: i64,
    /// Age-based replacement state: the clock at the entry's last use
    /// (larger = more recent; 0 = invalid).
    last: u64,
    /// Clock value when the entry was (re)allocated, for the
    /// age-at-eviction histogram.
    born: u64,
}

const EMPTY: Entry = Entry {
    line: 0,
    o_e: 0,
    last: 0,
    born: 0,
};

/// What one probe found: the entry holding the line, or the entry an
/// allocation would replace.
enum Slot {
    Hit(usize),
    Miss(usize),
}

/// A finite, skewed-associative affinity cache (§4.2: 8k entries,
/// 4-way skewed, age-based replacement).
///
/// Entries are stored way-major: way `w`'s entry for a line lives at
/// `w * sets + hash_w(line)`. Every access makes one probe: one body,
/// generic over the way count, hashes each way once, loads every
/// candidate entry, and picks the hit and the age victim in one
/// branch-free pass.
///
/// ```
/// use execmig_core::{AffinityTable, SkewedAffinityCache};
/// let mut t = SkewedAffinityCache::new(8 << 10, 4);
/// assert_eq!(t.read_or_insert(7, 42), 42); // miss: forced to reset
/// assert_eq!(t.read_or_insert(7, 0), 42);  // hit
/// assert_eq!(t.stats().misses, 1);
/// assert_eq!(t.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SkewedAffinityCache {
    entries: Vec<Entry>,
    sets: u64,
    ways: u32,
    clock: u64,
    stats: TableStats,
    /// Lifetime (in table accesses) of each evicted entry.
    ages: Histogram,
}

impl SkewedAffinityCache {
    /// Creates a cache with `entries` total entries and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not a power of two up to 8, or if `entries`
    /// is not a power-of-two multiple of `ways`.
    pub fn new(entries: u64, ways: u32) -> Self {
        assert!(
            ways.is_power_of_two() && ways <= MAX_WAYS,
            "affinity cache ways must be a power of two up to {MAX_WAYS}, got {ways}"
        );
        assert!(
            entries.is_multiple_of(ways as u64),
            "entries must divide by ways"
        );
        let sets = entries / ways as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        SkewedAffinityCache {
            entries: vec![EMPTY; entries as usize],
            sets,
            ways,
            clock: 0,
            stats: TableStats::default(),
            ages: Histogram::new(),
        }
    }

    /// Total entry count.
    pub fn capacity(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Entries currently valid.
    pub fn occupancy(&self) -> u64 {
        self.entries.iter().filter(|e| e.last != 0).count() as u64
    }

    /// How long evicted entries lived, in table accesses: the §3.5
    /// sizing question ("we need a 32k-entry affinity cache") made
    /// observable — entries dying young mean the cache is too small for
    /// the sampled working set.
    pub fn age_at_eviction(&self) -> &Histogram {
        &self.ages
    }

    /// The one probe of `line`, dispatched once on the way count (`new`
    /// admits only 1, 2, 4 and 8).
    #[inline(always)]
    fn probe(&self, line: u64) -> Slot {
        match self.ways {
            4 => self.probe_ways::<4>(line),
            2 => self.probe_ways::<2>(line),
            8 => self.probe_ways::<8>(line),
            _ => self.probe_ways::<1>(line),
        }
    }

    /// The probe body for `W` ways: computes the `W` entry indices,
    /// loads every candidate (the loads are independent, so they
    /// overlap), then returns the entry holding `line` or the age
    /// victim — the smallest `last`, earliest way on ties, which is the
    /// first invalid way if any (see [`Entry`]).
    #[inline(always)]
    fn probe_ways<const W: usize>(&self, line: u64) -> Slot {
        let at: [usize; W] = std::array::from_fn(|w| {
            let mut z = line ^ SKEW_KEYS[w];
            z ^= z >> 30;
            z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 31;
            (w as u64 * self.sets + (z & (self.sets - 1))) as usize
        });
        let candidates = at.map(|i| self.entries[i]);
        let mut hit = usize::MAX;
        let mut victim = at[0];
        let mut vkey = u64::MAX;
        for (&i, e) in at.iter().zip(&candidates) {
            hit = if e.last != 0 && e.line == line {
                i
            } else {
                hit
            };
            // Strict < keeps the earliest way on ties.
            let better = e.last < vkey;
            victim = if better { i } else { victim };
            vkey = if better { e.last } else { vkey };
        }
        if hit != usize::MAX {
            Slot::Hit(hit)
        } else {
            Slot::Miss(victim)
        }
    }

    /// Installs `line` with `o_e` in entry `i`, a probe's age victim,
    /// recording the age of the entry it replaces.
    fn fill(&mut self, i: usize, line: u64, o_e: i64) {
        let old = self.entries[i];
        if old.last != 0 {
            self.ages.observe(self.clock - old.born);
        }
        self.entries[i] = Entry {
            line,
            o_e,
            last: self.clock,
            born: self.clock,
        };
    }
}

impl AffinityTable for SkewedAffinityCache {
    fn read_or_insert(&mut self, line: u64, reset: i64) -> i64 {
        self.clock += 1;
        match self.probe(line) {
            Slot::Hit(i) => {
                self.stats.hits += 1;
                let e = &mut self.entries[i];
                e.last = self.clock;
                e.o_e
            }
            Slot::Miss(i) => {
                self.stats.misses += 1;
                self.fill(i, line, reset);
                reset
            }
        }
    }

    fn write(&mut self, line: u64, o_e: i64) {
        self.clock += 1;
        match self.probe(line) {
            Slot::Hit(i) => {
                let e = &mut self.entries[i];
                e.o_e = o_e;
                e.last = self.clock;
            }
            Slot::Miss(i) => self.fill(i, line, o_e),
        }
    }

    fn peek(&self, line: u64) -> Option<i64> {
        match self.probe(line) {
            Slot::Hit(i) => Some(self.entries[i].o_e),
            Slot::Miss(_) => None,
        }
    }

    fn stats(&self) -> TableStats {
        self.stats
    }
}

/// Either affinity-table implementation, selected at run time by the
/// migration controller's configuration.
#[derive(Debug, Clone)]
pub enum AnyAffinityTable {
    /// Hash-map storage, never evicts.
    Unbounded(UnboundedAffinityTable),
    /// Finite skewed-associative hardware model.
    Skewed(SkewedAffinityCache),
}

impl AnyAffinityTable {
    /// Age-at-eviction histogram; `None` for the unbounded table
    /// (which never evicts).
    pub fn age_at_eviction(&self) -> Option<&Histogram> {
        match self {
            AnyAffinityTable::Unbounded(_) => None,
            AnyAffinityTable::Skewed(t) => Some(t.age_at_eviction()),
        }
    }
}

impl AffinityTable for AnyAffinityTable {
    fn read_or_insert(&mut self, line: u64, reset: i64) -> i64 {
        match self {
            AnyAffinityTable::Unbounded(t) => t.read_or_insert(line, reset),
            AnyAffinityTable::Skewed(t) => t.read_or_insert(line, reset),
        }
    }

    fn write(&mut self, line: u64, o_e: i64) {
        match self {
            AnyAffinityTable::Unbounded(t) => t.write(line, o_e),
            AnyAffinityTable::Skewed(t) => t.write(line, o_e),
        }
    }

    fn peek(&self, line: u64) -> Option<i64> {
        match self {
            AnyAffinityTable::Unbounded(t) => t.peek(line),
            AnyAffinityTable::Skewed(t) => t.peek(line),
        }
    }

    fn stats(&self) -> TableStats {
        match self {
            AnyAffinityTable::Unbounded(t) => t.stats(),
            AnyAffinityTable::Skewed(t) => t.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_basics() {
        let mut t = UnboundedAffinityTable::new();
        assert!(t.is_empty());
        assert_eq!(t.read_or_insert(1, -5), -5);
        assert_eq!(t.read_or_insert(1, 99), -5, "hit must ignore reset");
        t.write(1, 7);
        assert_eq!(t.peek(1), Some(7));
        assert_eq!(t.peek(2), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats(), TableStats { hits: 1, misses: 1 });
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut t = UnboundedAffinityTable::new();
        for i in 0..100_000u64 {
            t.read_or_insert(i, 0);
        }
        assert_eq!(t.len(), 100_000);
        assert_eq!(t.stats().misses, 100_000);
    }

    #[test]
    fn skewed_hit_after_insert() {
        let mut t = SkewedAffinityCache::new(64, 4);
        assert_eq!(t.read_or_insert(5, 3), 3);
        assert_eq!(t.read_or_insert(5, 0), 3);
        t.write(5, -9);
        assert_eq!(t.peek(5), Some(-9));
    }

    #[test]
    fn skewed_evicts_under_pressure() {
        let mut t = SkewedAffinityCache::new(64, 4);
        for i in 0..1000u64 {
            t.read_or_insert(i, i as i64);
        }
        assert_eq!(t.occupancy(), 64);
        assert!(t.stats().misses >= 1000 - 64);
    }

    #[test]
    fn skewed_write_allocates_if_evicted() {
        let mut t = SkewedAffinityCache::new(8, 4);
        t.read_or_insert(1, 0);
        // Thrash the cache so line 1 is likely evicted.
        for i in 100..200u64 {
            t.read_or_insert(i, 0);
        }
        t.write(1, 42);
        assert_eq!(t.peek(1), Some(42), "write must re-allocate");
    }

    #[test]
    fn skewed_age_based_replacement_prefers_old() {
        let mut t = SkewedAffinityCache::new(8, 2);
        // Fill, then keep touching a subset; victims should come from
        // the untouched lines (statistically: with skewing we can only
        // check that a recently touched line survives modest pressure).
        t.read_or_insert(1, 11);
        for i in 2..6u64 {
            t.read_or_insert(i, 0);
        }
        for _ in 0..20 {
            t.read_or_insert(1, 0); // keep 1 fresh
        }
        for i in 100..104u64 {
            t.read_or_insert(i, 0);
        }
        assert_eq!(t.peek(1), Some(11), "hot line evicted despite recency");
    }

    #[test]
    fn eviction_ages_are_recorded() {
        let mut t = SkewedAffinityCache::new(8, 2);
        // Fill past capacity: every eviction of a valid entry must land
        // in the age histogram, and ages are bounded by the clock.
        for i in 0..1000u64 {
            t.read_or_insert(i, 0);
        }
        let ages = t.age_at_eviction();
        assert!(ages.count() >= 1000 - 8, "evictions {}", ages.count());
        assert!(ages.max() < 1000, "age beyond clock: {}", ages.max());
        // A fresh cache has seen no evictions.
        assert!(SkewedAffinityCache::new(8, 2).age_at_eviction().is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn skewed_rejects_bad_geometry() {
        SkewedAffinityCache::new(96, 4);
    }

    #[test]
    fn entries_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn any_table_dispatches() {
        let mut u = AnyAffinityTable::Unbounded(UnboundedAffinityTable::new());
        let mut s = AnyAffinityTable::Skewed(SkewedAffinityCache::new(16, 2));
        for t in [&mut u, &mut s] {
            assert_eq!(t.read_or_insert(3, 8), 8);
            t.write(3, -1);
            assert_eq!(t.peek(3), Some(-1));
            assert_eq!(t.stats().misses, 1);
        }
    }
}
