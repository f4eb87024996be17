//! A deliberately naive cache model for differential checking.
//!
//! [`RefCache`] re-states the semantics of `execmig_cache::Cache` in the
//! most obvious form available: one plain struct per frame, a way-major
//! `Vec` (the optimized cache is set-major), full scans instead of fused
//! probes, and a two-pass victim search that says "first invalid way,
//! else smallest timestamp" in exactly those words. It shares *no code*
//! with the optimized cache beyond [`CacheConfig`] (the configuration is
//! the contract, not an implementation detail) — any packing bug,
//! recency-tick slip, or victim-selection tie-break error in the fast
//! path shows up as a divergence.
//!
//! The skewing hash and its per-way keys are re-stated here literally:
//! they are part of the modelled hardware (which frames a line may live
//! in), not an implementation strategy, so both models must agree on
//! them by construction.

use execmig_cache::{CacheConfig, Indexing};
use execmig_trace::LineAddr;

/// A line evicted by a reference-model fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefEvicted {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether its modified bit was set.
    pub modified: bool,
}

/// Outcome of a combined lookup + fill-on-miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefAccessOutcome {
    /// True if the line was already resident.
    pub hit: bool,
    /// The line evicted to make room, if the access missed a full set.
    pub evicted: Option<RefEvicted>,
}

/// One cache frame, spelled out field by field.
#[derive(Debug, Clone, Copy)]
struct RefFrame {
    line: u64,
    valid: bool,
    modified: bool,
    /// Coherence shared bit (MESI `S`, Dragon `Sc`/`Sm`); never set by
    /// migration mode. A use preserves it; a refill starts unshared.
    shared: bool,
    /// Recency timestamp; larger = more recently used. The shared clock
    /// ticks once per use (touch or replace), so timestamps of valid
    /// frames are distinct and LRU ties cannot arise among them.
    last: u64,
}

const EMPTY: RefFrame = RefFrame {
    line: 0,
    valid: false,
    modified: false,
    shared: false,
    last: 0,
};

/// The per-way skewing keys of the simulated hardware (the same
/// constants the optimized cache bakes in — re-stated, not imported).
const SKEW_KEYS: [u64; 8] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
    0xca5a_8263_95fc_9dd7,
    0x8cb9_2ba7_2f3d_8dd7,
    0xa24b_aed4_963e_e407,
    0x9fb2_1c65_1e98_df25,
];

/// The skewing finalizer (splitmix64 tail), re-stated literally.
fn mix(z: u64) -> u64 {
    let mut z = z;
    z ^= z >> 29;
    z = z.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= z >> 32;
    z
}

/// The naive cache: full scans, explicit frames, way-major layout.
#[derive(Debug, Clone)]
pub struct RefCache {
    config: CacheConfig,
    sets: u64,
    /// `frames[way * sets + set]` — the transpose of the optimized
    /// cache's set-major layout, so a layout confusion in either model
    /// cannot cancel out.
    frames: Vec<RefFrame>,
    clock: u64,
}

impl RefCache {
    /// Builds the reference cache.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig`]); skewed
    /// indexing supports at most 8 ways.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(config.ways > 0, "cache needs at least one way");
        if config.indexing == Indexing::Skewed {
            assert!(
                (config.ways as usize) <= SKEW_KEYS.len(),
                "skewed indexing supports at most {} ways",
                SKEW_KEYS.len()
            );
        }
        RefCache {
            sets,
            frames: vec![EMPTY; (sets * config.ways as u64) as usize],
            clock: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The frame index way `way` would hold `raw` in.
    fn frame_of(&self, raw: u64, way: u32) -> usize {
        let set = match self.config.indexing {
            Indexing::Modulo => raw % self.sets,
            Indexing::Skewed => mix(raw ^ SKEW_KEYS[way as usize]) & (self.sets - 1),
        };
        (way as u64 * self.sets + set) as usize
    }

    /// Full scan over every candidate way for `raw`.
    fn find(&self, raw: u64) -> Option<usize> {
        (0..self.config.ways)
            .map(|w| self.frame_of(raw, w))
            .find(|&f| self.frames[f].valid && self.frames[f].line == raw)
    }

    /// The LRU victim among the candidate frames of `raw`: the first
    /// invalid way in way order, else the smallest timestamp (earliest
    /// way on ties — unreachable for valid frames, whose timestamps are
    /// distinct, but stated for completeness).
    fn victim(&self, raw: u64) -> usize {
        for w in 0..self.config.ways {
            let f = self.frame_of(raw, w);
            if !self.frames[f].valid {
                return f;
            }
        }
        let mut victim = self.frame_of(raw, 0);
        for w in 1..self.config.ways {
            let f = self.frame_of(raw, w);
            if self.frames[f].last < self.frames[victim].last {
                victim = f;
            }
        }
        victim
    }

    /// A use: refresh recency and OR in `modified`.
    fn touch(&mut self, f: usize, modified: bool) {
        self.clock += 1;
        let frame = &mut self.frames[f];
        frame.last = self.clock;
        frame.modified |= modified;
    }

    /// Replaces the frame at `f` with `raw`, returning the eviction.
    fn replace(&mut self, f: usize, raw: u64, modified: bool) -> Option<RefEvicted> {
        let old = self.frames[f];
        let evicted = old.valid.then_some(RefEvicted {
            line: LineAddr::new(old.line),
            modified: old.modified,
        });
        self.clock += 1;
        self.frames[f] = RefFrame {
            line: raw,
            valid: true,
            modified,
            shared: false,
            last: self.clock,
        };
        evicted
    }

    /// True if `line` is resident, updating its recency (a use). A miss
    /// does not tick the clock.
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        match self.find(line.raw()) {
            Some(f) => {
                self.touch(f, false);
                true
            }
            None => false,
        }
    }

    /// True if `line` is resident; no state change.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line.raw()).is_some()
    }

    /// The modified bit of `line`, if resident; no state change.
    pub fn modified(&self, line: LineAddr) -> Option<bool> {
        self.find(line.raw()).map(|f| self.frames[f].modified)
    }

    /// Sets or clears the modified bit of `line` if resident (an
    /// assignment, not an OR); returns whether the line was found.
    /// Coherence traffic is not a local use: no recency update.
    pub fn set_modified(&mut self, line: LineAddr, modified: bool) -> bool {
        match self.find(line.raw()) {
            Some(f) => {
                self.frames[f].modified = modified;
                true
            }
            None => false,
        }
    }

    /// The shared bit of `line`, if resident; no state change.
    pub fn shared(&self, line: LineAddr) -> Option<bool> {
        self.find(line.raw()).map(|f| self.frames[f].shared)
    }

    /// Sets or clears the shared bit of `line` if resident; returns
    /// whether the line was found. Coherence traffic is not a local
    /// use: no recency update.
    pub fn set_shared(&mut self, line: LineAddr, shared: bool) -> bool {
        match self.find(line.raw()) {
            Some(f) => {
                self.frames[f].shared = shared;
                true
            }
            None => false,
        }
    }

    /// Combined lookup + fill-on-miss. A hit refreshes recency and ORs
    /// in `modified`; a miss inserts the line over the LRU victim.
    pub fn access(&mut self, line: LineAddr, modified: bool) -> RefAccessOutcome {
        let raw = line.raw();
        match self.find(raw) {
            Some(f) => {
                self.touch(f, modified);
                RefAccessOutcome {
                    hit: true,
                    evicted: None,
                }
            }
            None => {
                let victim = self.victim(raw);
                RefAccessOutcome {
                    hit: false,
                    evicted: self.replace(victim, raw, modified),
                }
            }
        }
    }

    /// Inserts `line`, returning the eviction if the set was full. A
    /// resident line is a use (recency refresh, modified OR-ed in).
    pub fn fill(&mut self, line: LineAddr, modified: bool) -> Option<RefEvicted> {
        self.access(line, modified).evicted
    }

    /// Inserts `line` only when absent. A resident line is left fully
    /// untouched — no recency tick, no modified-bit change. Returns
    /// `None` when the line was present, `Some(eviction)` when filled.
    pub fn fill_if_absent(&mut self, line: LineAddr, modified: bool) -> Option<Option<RefEvicted>> {
        let raw = line.raw();
        if self.find(raw).is_some() {
            return None;
        }
        let victim = self.victim(raw);
        Some(self.replace(victim, raw, modified))
    }

    /// Invalidates `line` if resident, returning its identity and
    /// modified bit (a coherence kill, e.g. MESI `BusRdX`/`BusUpgr`).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<RefEvicted> {
        self.find(line.raw()).map(|f| {
            let frame = &mut self.frames[f];
            let evicted = RefEvicted {
                line: LineAddr::new(frame.line),
                modified: frame.modified,
            };
            *frame = EMPTY;
            evicted
        })
    }

    /// Number of valid lines, by full scan.
    pub fn occupancy(&self) -> u64 {
        self.frames.iter().filter(|f| f.valid).count() as u64
    }

    /// Number of resident lines with the modified bit set, by full scan.
    pub fn modified_count(&self) -> u64 {
        self.frames.iter().filter(|f| f.valid && f.modified).count() as u64
    }

    /// Resident lines (and modified bits), in unspecified order.
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, bool)> + '_ {
        self.frames
            .iter()
            .filter(|f| f.valid)
            .map(|f| (LineAddr::new(f.line), f.modified))
    }

    /// Resident lines with full coherence state `(line, modified,
    /// shared)`, in unspecified order.
    pub fn resident_states(&self) -> impl Iterator<Item = (LineAddr, bool, bool)> + '_ {
        self.frames
            .iter()
            .filter(|f| f.valid)
            .map(|f| (LineAddr::new(f.line), f.modified, f.shared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use execmig_cache::{Cache, Probe};

    fn configs() -> Vec<CacheConfig> {
        vec![
            CacheConfig::set_associative(1 << 10, 1, 64), // direct-mapped
            CacheConfig::set_associative(1 << 10, 2, 64),
            CacheConfig::set_associative(4 << 10, 4, 64),
            CacheConfig::skewed(8 << 10, 4, 64),
            CacheConfig::skewed(16 << 10, 8, 64),
            CacheConfig::set_associative(1 << 10, 16, 64), // fully associative
        ]
    }

    /// Drive the optimized cache and the reference through the same
    /// randomized operation stream; every observable must agree at
    /// every step.
    #[test]
    fn matches_optimized_cache_on_random_streams() {
        for config in configs() {
            let mut fast = Cache::new(config);
            let mut naive = RefCache::new(config);
            let mut x = 0x1234_5678u64;
            for i in 0..30_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = LineAddr::new((x >> 33) % 300);
                let m = x & 1 == 0;
                match (x >> 8) % 9 {
                    0 => assert_eq!(fast.lookup(line), naive.lookup(line), "lookup step {i}"),
                    1 => {
                        let a = fast.access(line, m);
                        let b = naive.access(line, m);
                        assert_eq!(a.hit, b.hit, "access hit step {i}");
                        assert_eq!(
                            a.evicted.map(|e| (e.line, e.modified)),
                            b.evicted.map(|e| (e.line, e.modified)),
                            "access eviction step {i}"
                        );
                    }
                    2 => {
                        let a = fast.fill(line, m);
                        let b = naive.fill(line, m);
                        assert_eq!(
                            a.map(|e| (e.line, e.modified)),
                            b.map(|e| (e.line, e.modified)),
                            "fill step {i}"
                        );
                    }
                    3 => {
                        // A probe that fills only on a miss, into the
                        // victim it chose.
                        let a = match fast.probe_at(line) {
                            Probe::Hit(_) => None,
                            Probe::Miss(victim) => Some(fast.fill_at(victim, line, m)),
                        };
                        let b = naive.fill_if_absent(line, m);
                        match (a, b) {
                            (None, None) => {}
                            (Some(ea), Some(eb)) => assert_eq!(
                                ea.map(|e| (e.line, e.modified)),
                                eb.map(|e| (e.line, e.modified)),
                                "fill_if_absent eviction step {i}"
                            ),
                            other => panic!("fill_if_absent mismatch step {i}: {other:?}"),
                        }
                    }
                    4 => assert_eq!(
                        fast.set_modified(line, m),
                        naive.set_modified(line, m),
                        "set_modified step {i}"
                    ),
                    5 => {
                        let found = fast.find_at(line);
                        if let Some(f) = found {
                            fast.set_shared_at(f, m);
                        }
                        let hit = naive.set_shared(line, m);
                        assert_eq!(found.is_some(), hit, "set_shared step {i}")
                    }
                    6 => assert_eq!(
                        fast.find_at(line).map(|f| fast.shared_at(f)),
                        naive.shared(line),
                        "shared step {i}"
                    ),
                    7 => assert_eq!(
                        fast.find_at(line)
                            .map(|f| fast.invalidate_at(f))
                            .map(|e| (e.line, e.modified)),
                        naive.invalidate(line).map(|e| (e.line, e.modified)),
                        "invalidate step {i}"
                    ),
                    _ => assert_eq!(fast.modified(line), naive.modified(line), "probe step {i}"),
                }
                assert_eq!(fast.occupancy(), naive.occupancy(), "occupancy step {i}");
            }
            let mut a: Vec<_> = fast
                .resident_states()
                .map(|(l, m, s)| (l.raw(), m, s))
                .collect();
            let mut b: Vec<_> = naive
                .resident_states()
                .map(|(l, m, s)| (l.raw(), m, s))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "final contents for {config:?}");
        }
    }

    #[test]
    fn victim_prefers_first_invalid_way() {
        let mut c = RefCache::new(CacheConfig::set_associative(1 << 10, 2, 64));
        // Set 0 holds lines 0 and 8 (8 sets). With one way free the
        // fill must not evict.
        assert!(c.fill(LineAddr::new(0), false).is_none());
        assert!(c.fill(LineAddr::new(8), false).is_none());
        // Touch 0 so 8 becomes LRU.
        assert!(c.lookup(LineAddr::new(0)));
        let ev = c.fill(LineAddr::new(16), true).expect("set full");
        assert_eq!(ev.line, LineAddr::new(8));
        assert!(!ev.modified);
    }

    #[test]
    fn fill_if_absent_present_is_a_pure_noop() {
        let mut c = RefCache::new(CacheConfig::set_associative(1 << 10, 2, 64));
        c.fill(LineAddr::new(0), false);
        c.fill(LineAddr::new(8), false); // 0 is now LRU
        assert_eq!(c.fill_if_absent(LineAddr::new(0), true), None);
        assert_eq!(c.modified(LineAddr::new(0)), Some(false), "bit changed");
        let ev = c.fill(LineAddr::new(16), false).expect("set full");
        assert_eq!(ev.line, LineAddr::new(0), "recency was refreshed");
    }
}
