//! Set-associative and skewed-associative caches with per-line
//! valid/modified/shared state.
//!
//! The §4.2 machine uses 16 KB 4-way set-associative L1 caches and
//! 512 KB 4-way *skewed*-associative L2 caches (Bodin & Seznec); the
//! affinity cache is also 4-way skewed-associative. Skewed associativity
//! gives each way its own index hash, so two lines conflicting in one way
//! rarely conflict in the others.
//!
//! The cache exposes *mechanism*, not policy. Every operation starts
//! with one probe of the line's candidate frames ([`Cache::probe_at`]),
//! which returns a frame handle: the frame holding the line, or the
//! victim a fill would replace. Follow-up edits act on that handle
//! (`touch_at`, `fill_at`, `modified_at`, `set_modified_at`,
//! `set_shared_at`, `invalidate_at`), so a transaction that reads a
//! line's state and then changes it — a miss path filling the victim its
//! own lookup chose, a coherence hook editing a remote copy — scans each
//! set once. The line-keyed helpers (`access`, `lookup`, `fill`,
//! `contains`, `modified`, `set_modified`) are one probe each.
//! Write-through/write-back and allocation decisions live in the machine
//! model, which is where the paper defines them (§2.1).
#![deny(clippy::panic)]

use execmig_obs::{impl_to_json, Json, ToJson};
use execmig_trace::LineAddr;

/// How a line maps to sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Indexing {
    /// Conventional: one index hash shared by all ways (modulo sets).
    Modulo,
    /// Skewed associativity: each way has its own index hash.
    Skewed,
}

/// Largest associativity a [`Cache`] accepts (way counts are powers of
/// two).
const MAX_WAYS: u32 = 16;

/// Largest associativity with [`Indexing::Skewed`]: one skewing key per
/// way.
const MAX_SKEWED_WAYS: u32 = 8;

/// Geometry and indexing of a [`Cache`]: the way count is a power of two
/// up to 16 (up to 8 when skewed), the set count a power of two, and the
/// frame count below 2^28.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Index mapping.
    pub indexing: Indexing,
}

impl CacheConfig {
    /// A conventional set-associative cache.
    pub fn set_associative(capacity_bytes: u64, ways: u32, line_bytes: u64) -> Self {
        CacheConfig {
            capacity_bytes,
            ways,
            line_bytes,
            indexing: Indexing::Modulo,
        }
    }

    /// A skewed-associative cache.
    pub fn skewed(capacity_bytes: u64, ways: u32, line_bytes: u64) -> Self {
        CacheConfig {
            capacity_bytes,
            ways,
            line_bytes,
            indexing: Indexing::Skewed,
        }
    }

    /// Lines per way.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Total line frames.
    pub fn frames(&self) -> u64 {
        self.sets() * self.ways as u64
    }

    /// Checks the geometry and returns the probe body it selects.
    fn validate(&self) -> Shape {
        let max_ways = match self.indexing {
            Indexing::Modulo => MAX_WAYS,
            Indexing::Skewed => MAX_SKEWED_WAYS,
        };
        assert!(
            self.ways.is_power_of_two() && self.ways <= max_ways,
            "cache ways must be a power of two up to {MAX_WAYS} \
             ({MAX_SKEWED_WAYS} with skewed indexing), got {} ({:?})",
            self.ways,
            self.indexing
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            self.capacity_bytes
                .is_multiple_of(self.line_bytes * self.ways as u64),
            "capacity must be a whole number of sets"
        );
        let sets = self.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (capacity {}, ways {}, line {})",
            self.capacity_bytes,
            self.ways,
            self.line_bytes
        );
        assert!(
            self.frames() < MAX_FRAMES,
            "cache frames must number fewer than 2^28, got {} (capacity {}, line {})",
            self.frames(),
            self.capacity_bytes,
            self.line_bytes
        );
        // Total after the first assert: `_` is the largest way count.
        match (self.indexing, self.ways) {
            (Indexing::Modulo, 1) => Shape::Modulo1,
            (Indexing::Modulo, 2) => Shape::Modulo2,
            (Indexing::Modulo, 4) => Shape::Modulo4,
            (Indexing::Modulo, 8) => Shape::Modulo8,
            (Indexing::Modulo, _) => Shape::Modulo16,
            (Indexing::Skewed, 1) => Shape::Skewed1,
            (Indexing::Skewed, 2) => Shape::Skewed2,
            (Indexing::Skewed, 4) => Shape::Skewed4,
            (Indexing::Skewed, _) => Shape::Skewed8,
        }
    }
}

impl ToJson for Indexing {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Indexing::Modulo => "modulo",
                Indexing::Skewed => "skewed",
            }
            .to_string(),
        )
    }
}

impl_to_json!(CacheConfig {
    capacity_bytes,
    ways,
    line_bytes,
    indexing,
});

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether its modified bit was set (write-back needed).
    pub modified: bool,
}

/// Outcome of a combined [`Cache::access`] (lookup + fill-on-miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// True if the line was already resident (the access was a hit).
    pub hit: bool,
    /// The line evicted to make room, if the access missed a full set.
    pub evicted: Option<Evicted>,
}

/// Outcome of [`Cache::probe_at`]: a frame handle either way.
///
/// A handle stays valid until the next call that can move a line in
/// this cache: [`Cache::fill_at`], [`Cache::invalidate_at`],
/// [`Cache::access`] or [`Cache::fill`]. State edits (`touch_at`,
/// `set_*_at`) and probes leave every handle valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line is resident in this frame.
    Hit(usize),
    /// The line is absent; this frame is the LRU victim a fill would
    /// replace (first invalid candidate, else the least recently used;
    /// earliest way on ties).
    Miss(usize),
}

/// Modified bit of [`Frame::meta`].
const MODIFIED: u32 = 1;
/// Valid bit of [`Frame::meta`].
const VALID: u32 = 2;
/// Shared bit of [`Frame::meta`]: set by coherence protocols that
/// track sharers (MESI's S, Dragon's Sc/Sm); migration-mode coherence
/// never sets it, keeping its meta words bit-identical to the
/// pre-shared-bit encoding.
const SHARED: u32 = 4;
/// LRU timestamp occupies the remaining high bits of [`Frame::meta`].
const LAST_SHIFT: u32 = 3;
/// Largest LRU timestamp: the 29 bits above the three state bits.
/// [`Cache::renumber`] compacts the timestamps before the clock would
/// pass it.
const MAX_STAMP: u32 = u32::MAX >> LAST_SHIFT;
/// Frame-count bound of a [`Cache`] (exclusive): a renumbered cache
/// holds at most `MAX_FRAMES - 1` stamps, so each renumber frees at
/// least half of the stamp range.
const MAX_FRAMES: u64 = 1 << 28;

/// One 12-byte cache frame: the line tag plus packed metadata.
///
/// `meta` packs `(last << 3) | shared << 2 | valid << 1 | modified`,
/// with a 29-bit timestamp `last`. The packing makes `meta` itself the
/// LRU victim-selection key: invalid frames are zeroed (key 0, always
/// preferred), and among valid frames the timestamps are distinct (the
/// clock ticks once per use), so the low shared/valid/modified bits
/// never reorder two candidates. `packed(4)` drops the four bytes of
/// padding a `u64`-aligned frame would carry; both fields are only
/// ever read and written by value.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Frame {
    line: u64,
    meta: u32,
}

impl Frame {
    #[inline(always)]
    fn is_valid(&self) -> bool {
        self.meta & VALID != 0
    }

    #[inline(always)]
    fn is_modified(&self) -> bool {
        self.meta & MODIFIED != 0
    }

    #[inline(always)]
    fn is_shared(&self) -> bool {
        self.meta & SHARED != 0
    }
}

const EMPTY: Frame = Frame { line: 0, meta: 0 };

/// The probe body a geometry selects at construction: the indexing and
/// the way count, both compile-time constants of
/// [`Cache::probe_ways`]'s instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Modulo1,
    Modulo2,
    Modulo4,
    Modulo8,
    Modulo16,
    Skewed1,
    Skewed2,
    Skewed4,
    Skewed8,
}

/// Per-way keys for the skewing hashes.
const SKEW_KEYS: [u64; MAX_SKEWED_WAYS as usize] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
    0xca5a_8263_95fc_9dd7,
    0x8cb9_2ba7_2f3d_8dd7,
    0xa24b_aed4_963e_e407,
    0x9fb2_1c65_1e98_df25,
];

/// The skewing hash of way `w` is `mix(raw ^ SKEW_KEYS[w])` (identical
/// across cache sizes up to the final mask, so skewed caches of
/// different capacities spread conflicts the same way).
#[inline(always)]
fn mix(z: u64) -> u64 {
    let mut z = z;
    z ^= z >> 29;
    z = z.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= z >> 32;
    z
}

/// A set-associative or skewed-associative cache with true-LRU
/// replacement among the candidate frames.
///
/// Frames are stored *set-major*: the `ways` candidate frames of a
/// modulo set are one contiguous block reached with a single index
/// computation; way `w` of a skewed cache lives at `set_w * ways + w`.
/// One probe body, generic over the way count, loads every candidate
/// frame and then matches the tag and tracks the LRU victim (branchless
/// min over the packed metadata word). Occupancy is maintained
/// incrementally, so [`Cache::occupancy`] is O(1) rather than a scan
/// over every frame.
///
/// ```
/// use execmig_cache::{Cache, CacheConfig, Probe};
/// use execmig_trace::LineAddr;
///
/// let mut l2 = Cache::new(CacheConfig::skewed(512 << 10, 4, 64));
/// let line = LineAddr::new(42);
/// assert!(!l2.lookup(line));
/// // One probe names the frame a fill would replace...
/// let victim = match l2.probe_at(line) {
///     Probe::Miss(f) => f,
///     Probe::Hit(_) => return,
/// };
/// // ...and the fill goes there without scanning the set again.
/// assert!(l2.fill_at(victim, line, false).is_none());
/// assert_eq!(l2.probe_at(line), Probe::Hit(victim));
/// assert!(l2.lookup(line));
/// assert_eq!(l2.occupancy(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    shape: Shape,
    /// `sets - 1`; the set count is a power of two.
    set_mask: u64,
    frames: Vec<Frame>,
    /// The last timestamp handed out; at most [`MAX_STAMP`].
    clock: u32,
    /// Valid-frame count, maintained by fill/invalidate.
    live: u64,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig`]): a
    /// way count that is not a power of two up to 16 (up to 8 with
    /// skewed indexing), a line size or set count that is not a power
    /// of two, or 2^28 frames or more.
    pub fn new(config: CacheConfig) -> Self {
        let shape = config.validate();
        let sets = config.sets();
        Cache {
            config,
            shape,
            set_mask: sets - 1,
            frames: vec![EMPTY; (sets * config.ways as u64) as usize],
            clock: 0,
            live: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Probes `line`: the frame holding it, or the frame a fill would
    /// replace. No state changes, not even recency.
    ///
    /// Only the two shapes the paper's machines use, 4-way modulo (the
    /// L1s) and 4-way skewed (the L2s), inline at the call site; every
    /// other shape takes one out-of-line probe, so the machine's hot
    /// paths carry two probe bodies, not nine.
    #[inline(always)]
    pub fn probe_at(&self, line: LineAddr) -> Probe {
        let raw = line.raw();
        match self.shape {
            Shape::Modulo4 => self.probe_ways::<4, false>(raw),
            Shape::Skewed4 => self.probe_ways::<4, true>(raw),
            _ => self.probe_cold(raw),
        }
    }

    /// [`Cache::probe_at`] for every shape, out of line: only the
    /// differ's stress configurations and the tests reach the shapes it
    /// does not inline.
    #[inline(never)]
    fn probe_cold(&self, raw: u64) -> Probe {
        match self.shape {
            Shape::Modulo1 => self.probe_ways::<1, false>(raw),
            Shape::Modulo2 => self.probe_ways::<2, false>(raw),
            Shape::Modulo4 => self.probe_ways::<4, false>(raw),
            Shape::Modulo8 => self.probe_ways::<8, false>(raw),
            Shape::Modulo16 => self.probe_ways::<16, false>(raw),
            Shape::Skewed1 => self.probe_ways::<1, true>(raw),
            Shape::Skewed2 => self.probe_ways::<2, true>(raw),
            Shape::Skewed4 => self.probe_ways::<4, true>(raw),
            Shape::Skewed8 => self.probe_ways::<8, true>(raw),
        }
    }

    /// The one probe body, for `W` ways and the given indexing: loads
    /// all `W` candidate frames of `raw` first (the loads are
    /// independent, so they overlap), then returns the matching frame
    /// or the LRU victim (first invalid way, else the smallest
    /// timestamp; earliest way on ties — `meta` is the comparison key,
    /// see [`Frame`]).
    #[inline(always)]
    fn probe_ways<const W: usize, const SKEWED: bool>(&self, raw: u64) -> Probe {
        let mut at = [0usize; W];
        let candidates: [Frame; W] = if SKEWED {
            for (w, f) in at.iter_mut().enumerate() {
                let set = mix(raw ^ SKEW_KEYS[w]) & self.set_mask;
                *f = (set as usize) * W + w;
            }
            at.map(|f| self.frames[f])
        } else {
            let base = ((raw & self.set_mask) as usize) * W;
            for (w, f) in at.iter_mut().enumerate() {
                *f = base + w;
            }
            let set = &self.frames[base..base + W];
            std::array::from_fn(|w| set[w])
        };
        // One branch-free pass: the match (a line is resident in at
        // most one frame) and the LRU victim.
        let mut hit = usize::MAX;
        let mut victim = at[0];
        let mut vkey = u32::MAX;
        for (&f, frame) in at.iter().zip(&candidates) {
            hit = if frame.is_valid() && frame.line == raw {
                f
            } else {
                hit
            };
            // Strict < keeps the earliest way on ties.
            let better = frame.meta < vkey;
            victim = if better { f } else { victim };
            vkey = if better { frame.meta } else { vkey };
        }
        if hit != usize::MAX {
            Probe::Hit(hit)
        } else {
            Probe::Miss(victim)
        }
    }

    /// The frame holding `line`, if resident; no recency update.
    #[inline(always)]
    pub fn find_at(&self, line: LineAddr) -> Option<usize> {
        match self.probe_at(line) {
            Probe::Hit(f) => Some(f),
            Probe::Miss(_) => None,
        }
    }

    /// A use of the line in frame `f`: refreshes its recency and ORs in
    /// `modified`; the shared bit is preserved (a local use does not
    /// change who else holds the line).
    #[inline(always)]
    pub fn touch_at(&mut self, f: usize, modified: bool) {
        let stamp = self.tick();
        let frame = &mut self.frames[f];
        frame.meta =
            (stamp << LAST_SHIFT) | VALID | (frame.meta & (MODIFIED | SHARED)) | modified as u32;
    }

    /// The next LRU timestamp. Renumbers first if the clock would pass
    /// [`MAX_STAMP`].
    #[inline(always)]
    fn tick(&mut self) -> u32 {
        if self.clock == MAX_STAMP {
            self.renumber();
        }
        self.clock += 1;
        self.clock
    }

    /// Rewrites the timestamps of the valid frames as `1..=n` in their
    /// current order and restarts the clock at `n`: the order-preserving
    /// compaction [`crate::LruStack`] applies to its slots. Victim
    /// choice only orders the candidates' `meta` keys, and invalid
    /// frames stay at 0, so every later probe, eviction and frame
    /// handle is what it would have been with unbounded timestamps. At
    /// most `MAX_FRAMES - 1` frames are valid, so the clock restarts at
    /// or below half of [`MAX_STAMP`].
    #[cold]
    #[inline(never)]
    fn renumber(&mut self) {
        let mut order: Vec<(u32, usize)> = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, frame)| frame.is_valid())
            .map(|(f, frame)| (frame.meta >> LAST_SHIFT, f))
            .collect();
        order.sort_unstable();
        debug_assert!(
            order.windows(2).all(|w| w[0].0 < w[1].0),
            "valid frames must carry distinct timestamps"
        );
        for (stamp, &(_, f)) in (1..).zip(&order) {
            let frame = &mut self.frames[f];
            frame.meta = (stamp << LAST_SHIFT) | (frame.meta & (VALID | MODIFIED | SHARED));
        }
        self.clock = order.len() as u32;
    }

    /// Installs `line` in frame `f` — the [`Probe::Miss`] victim of a
    /// probe for `line` — as the most recent use, unshared, with the
    /// given modified bit. Returns the line it evicted, if the frame was
    /// valid. Protocols that fill in a shared state call
    /// [`Cache::set_shared_at`] afterwards.
    #[inline(always)]
    pub fn fill_at(&mut self, f: usize, line: LineAddr, modified: bool) -> Option<Evicted> {
        let old = self.frames[f];
        let evicted = if old.is_valid() {
            Some(Evicted {
                line: LineAddr::new(old.line),
                modified: old.is_modified(),
            })
        } else {
            self.live += 1;
            None
        };
        let stamp = self.tick();
        self.frames[f] = Frame {
            line: line.raw(),
            meta: (stamp << LAST_SHIFT) | VALID | modified as u32,
        };
        evicted
    }

    /// The modified bit of frame `f`.
    #[inline]
    pub fn modified_at(&self, f: usize) -> bool {
        self.frames[f].is_modified()
    }

    /// The shared bit of frame `f`.
    #[inline]
    pub fn shared_at(&self, f: usize) -> bool {
        self.frames[f].is_shared()
    }

    /// Sets or clears the modified bit of frame `f`. Does not update
    /// recency (coherence traffic is not a local use).
    #[inline]
    pub fn set_modified_at(&mut self, f: usize, modified: bool) {
        let frame = &mut self.frames[f];
        frame.meta = (frame.meta & !MODIFIED) | modified as u32;
    }

    /// Sets or clears the shared bit of frame `f`. Does not update
    /// recency.
    #[inline]
    pub fn set_shared_at(&mut self, f: usize, shared: bool) {
        let frame = &mut self.frames[f];
        frame.meta = (frame.meta & !SHARED) | if shared { SHARED } else { 0 };
    }

    /// Removes the line in frame `f` (a [`Probe::Hit`] frame), returning
    /// its state.
    #[inline]
    pub fn invalidate_at(&mut self, f: usize) -> Evicted {
        let frame = &mut self.frames[f];
        let evicted = Evicted {
            line: LineAddr::new(frame.line),
            modified: frame.is_modified(),
        };
        self.live -= frame.is_valid() as u64;
        frame.meta = 0;
        evicted
    }

    /// Combined lookup + fill-on-miss in a single probe: the per-access
    /// hot path of the machine's L1s. A hit refreshes recency and ORs
    /// in `modified`; a miss inserts the line, evicting the LRU
    /// candidate if every candidate frame is valid.
    #[inline(always)]
    pub fn access(&mut self, line: LineAddr, modified: bool) -> AccessOutcome {
        match self.probe_at(line) {
            Probe::Hit(f) => {
                self.touch_at(f, modified);
                AccessOutcome {
                    hit: true,
                    evicted: None,
                }
            }
            Probe::Miss(f) => AccessOutcome {
                hit: false,
                evicted: self.fill_at(f, line, modified),
            },
        }
    }

    /// True if `line` is resident, updating its recency (a *use*).
    #[inline(always)]
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        match self.probe_at(line) {
            Probe::Hit(f) => {
                self.touch_at(f, false);
                true
            }
            Probe::Miss(_) => false,
        }
    }

    /// Inserts `line`, evicting the LRU candidate frame if every
    /// candidate is valid. Returns the eviction, if any.
    ///
    /// If the line is already resident this is a use: recency is
    /// refreshed, the modified bit is OR-ed in, and no eviction happens.
    #[inline]
    pub fn fill(&mut self, line: LineAddr, modified: bool) -> Option<Evicted> {
        self.access(line, modified).evicted
    }

    /// True if `line` is resident; no recency update.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_at(line).is_some()
    }

    /// The modified bit of `line`, if resident.
    #[inline]
    pub fn modified(&self, line: LineAddr) -> Option<bool> {
        self.find_at(line).map(|f| self.modified_at(f))
    }

    /// Sets or clears the modified bit of `line` if resident; returns
    /// whether the line was found. Does not update recency (coherence
    /// traffic is not a local use).
    #[inline]
    pub fn set_modified(&mut self, line: LineAddr, modified: bool) -> bool {
        match self.find_at(line) {
            Some(f) => {
                self.set_modified_at(f, modified);
                true
            }
            None => false,
        }
    }

    /// Number of valid lines currently resident. O(1): the count is
    /// maintained incrementally by fills and invalidations.
    pub fn occupancy(&self) -> u64 {
        self.live
    }

    /// Iterates over resident lines (and their modified bits), in no
    /// particular order.
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, bool)> + '_ {
        self.frames
            .iter()
            .filter(|f| f.is_valid())
            .map(|f| (LineAddr::new(f.line), f.is_modified()))
    }

    /// Iterates over resident lines as `(line, modified, shared)`
    /// triples, in no particular order — the full per-line coherence
    /// state an invariant kernel or contents differ needs.
    pub fn resident_states(&self) -> impl Iterator<Item = (LineAddr, bool, bool)> + '_ {
        self.frames
            .iter()
            .filter(|f| f.is_valid())
            .map(|f| (LineAddr::new(f.line), f.is_modified(), f.is_shared()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 8 sets x 2 ways x 64 B = 1 KB
        Cache::new(CacheConfig::set_associative(1 << 10, 2, 64))
    }

    /// Sets the shared bit of `line` if resident, re-probing for it.
    fn set_shared(c: &mut Cache, line: LineAddr, shared: bool) -> bool {
        match c.find_at(line) {
            Some(f) => {
                c.set_shared_at(f, shared);
                true
            }
            None => false,
        }
    }

    /// The shared bit of `line`, if resident.
    fn shared(c: &Cache, line: LineAddr) -> Option<bool> {
        c.find_at(line).map(|f| c.shared_at(f))
    }

    /// Removes `line` if resident, re-probing for it.
    fn invalidate(c: &mut Cache, line: LineAddr) -> Option<Evicted> {
        c.find_at(line).map(|f| c.invalidate_at(f))
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 8);
        assert_eq!(c.config().frames(), 16);
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut c = small();
        let l = LineAddr::new(5);
        assert!(!c.lookup(l));
        assert_eq!(c.fill(l, false), None);
        assert!(c.lookup(l));
        assert!(c.contains(l));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn conflict_eviction_is_lru() {
        let mut c = small();
        // Lines 0, 8, 16 all map to set 0 (8 sets, modulo).
        c.fill(LineAddr::new(0), false);
        c.fill(LineAddr::new(8), false);
        // Touch 0 so 8 is LRU.
        assert!(c.lookup(LineAddr::new(0)));
        let ev = c.fill(LineAddr::new(16), false).expect("must evict");
        assert_eq!(ev.line, LineAddr::new(8));
        assert!(!ev.modified);
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(16)));
    }

    #[test]
    fn modified_bit_tracks_through_eviction() {
        let mut c = small();
        c.fill(LineAddr::new(0), true);
        c.fill(LineAddr::new(8), false);
        c.fill(LineAddr::new(16), false); // evicts 0 (LRU)
        let mut c2 = small();
        c2.fill(LineAddr::new(0), true);
        c2.fill(LineAddr::new(8), false);
        c2.lookup(LineAddr::new(8));
        let ev = c2.fill(LineAddr::new(16), false).unwrap();
        assert_eq!(ev.line, LineAddr::new(0));
        assert!(ev.modified, "dirty eviction must report modified");
    }

    #[test]
    fn refill_ors_modified_and_refreshes() {
        let mut c = small();
        c.fill(LineAddr::new(0), false);
        assert_eq!(c.modified(LineAddr::new(0)), Some(false));
        assert_eq!(c.fill(LineAddr::new(0), true), None);
        assert_eq!(c.modified(LineAddr::new(0)), Some(true));
        // A clean refill must not clear the bit.
        assert_eq!(c.fill(LineAddr::new(0), false), None);
        assert_eq!(c.modified(LineAddr::new(0)), Some(true));
    }

    #[test]
    fn set_modified_reports_presence() {
        let mut c = small();
        assert!(!c.set_modified(LineAddr::new(3), true));
        c.fill(LineAddr::new(3), false);
        assert!(c.set_modified(LineAddr::new(3), true));
        assert_eq!(c.modified(LineAddr::new(3)), Some(true));
        assert!(c.set_modified(LineAddr::new(3), false));
        assert_eq!(c.modified(LineAddr::new(3)), Some(false));
    }

    #[test]
    fn shared_bit_round_trips_and_survives_uses() {
        let mut c = small();
        let l = LineAddr::new(3);
        assert!(!set_shared(&mut c, l, true), "absent line");
        c.fill(l, false);
        assert_eq!(shared(&c, l), Some(false));
        assert!(set_shared(&mut c, l, true));
        assert_eq!(shared(&c, l), Some(true));
        // A local use (lookup) refreshes recency but must not clear
        // the shared bit, and modified-bit traffic must not either.
        assert!(c.lookup(l));
        assert_eq!(shared(&c, l), Some(true));
        assert!(c.set_modified(l, true));
        assert_eq!(shared(&c, l), Some(true));
        assert_eq!(c.modified(l), Some(true));
        assert!(set_shared(&mut c, l, false));
        assert_eq!(shared(&c, l), Some(false));
        assert_eq!(c.modified(l), Some(true));
    }

    #[test]
    fn refill_after_eviction_starts_unshared() {
        let mut c = small();
        // Set 0 holds lines 0 and 8; mark 0 shared, then evict it.
        c.fill(LineAddr::new(0), false);
        set_shared(&mut c, LineAddr::new(0), true);
        c.fill(LineAddr::new(8), false);
        c.fill(LineAddr::new(16), false); // evicts 0 (LRU)
        assert!(!c.contains(LineAddr::new(0)));
        // Refill into the same frame: the stale shared bit is gone.
        c.fill(LineAddr::new(0), false);
        assert_eq!(shared(&c, LineAddr::new(0)), Some(false));
    }

    #[test]
    fn shared_bit_does_not_perturb_lru_order() {
        // Identical reference streams with and without shared-bit
        // traffic must evict identically: the timestamp dominates the
        // packed key.
        let mut plain = small();
        let mut marked = small();
        let mut x = 1u64;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr::new(x % 40);
            let a = plain.fill(line, false);
            let b = marked.fill(line, false);
            set_shared(&mut marked, line, x.is_multiple_of(3));
            assert_eq!(a, b, "step {i}");
        }
        let mut a: Vec<u64> = plain.resident_lines().map(|(l, _)| l.raw()).collect();
        let mut b: Vec<u64> = marked.resident_lines().map(|(l, _)| l.raw()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn resident_states_reports_all_three_bits() {
        let mut c = small();
        c.fill(LineAddr::new(1), false);
        c.fill(LineAddr::new(2), true);
        set_shared(&mut c, LineAddr::new(2), true);
        let mut states: Vec<(u64, bool, bool)> = c
            .resident_states()
            .map(|(l, m, s)| (l.raw(), m, s))
            .collect();
        states.sort_unstable();
        assert_eq!(states, vec![(1, false, false), (2, true, true)]);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.fill(LineAddr::new(7), true);
        let ev = invalidate(&mut c, LineAddr::new(7)).unwrap();
        assert!(ev.modified);
        assert!(!c.contains(LineAddr::new(7)));
        assert!(c.find_at(LineAddr::new(7)).is_none());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = small();
        for i in 0..100u64 {
            c.fill(LineAddr::new(i), false);
        }
        assert_eq!(c.occupancy(), 16);
    }

    #[test]
    fn skewed_spreads_conflicts() {
        // 64 sets x 4 ways. Lines that collide in a modulo cache
        // (same low bits) should mostly not collide in all skewed ways.
        let cfg = CacheConfig::skewed(16 << 10, 4, 64);
        let mut c = Cache::new(cfg);
        // 8 lines, all equal mod 64: a modulo 4-way cache keeps only 4.
        for i in 0..8u64 {
            c.fill(LineAddr::new(i * 64), false);
        }
        let resident = (0..8u64)
            .filter(|&i| c.contains(LineAddr::new(i * 64)))
            .count();
        assert!(resident >= 6, "skewing kept only {resident}/8 lines");

        let mut m = Cache::new(CacheConfig::set_associative(16 << 10, 4, 64));
        for i in 0..8u64 {
            m.fill(LineAddr::new(i * 64), false);
        }
        let resident_m = (0..8u64)
            .filter(|&i| m.contains(LineAddr::new(i * 64)))
            .count();
        assert_eq!(resident_m, 4, "modulo cache must thrash the shared set");
    }

    #[test]
    fn resident_lines_iterates_all() {
        let mut c = small();
        c.fill(LineAddr::new(1), false);
        c.fill(LineAddr::new(2), true);
        let mut lines: Vec<(u64, bool)> = c.resident_lines().map(|(l, m)| (l.raw(), m)).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![(1, false), (2, true)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        Cache::new(CacheConfig::set_associative(192, 1, 64));
    }

    #[test]
    #[should_panic(expected = "cache ways must be a power of two up to 16")]
    fn rejects_three_ways() {
        // 4 sets x 3 ways: every other check passes.
        Cache::new(CacheConfig::set_associative(3 * 4 * 64, 3, 64));
    }

    #[test]
    #[should_panic(expected = "8 with skewed indexing")]
    fn rejects_sixteen_skewed_ways() {
        Cache::new(CacheConfig::skewed(16 << 10, 16, 64));
    }

    /// The incremental occupancy counter always matches a full scan.
    fn scan_occupancy(c: &Cache) -> u64 {
        c.resident_lines().count() as u64
    }

    #[test]
    fn access_equals_lookup_then_fill() {
        // Drive two caches through the same reference stream, one with
        // the fused access(), one with the legacy lookup-then-fill
        // sequence; every observable must stay identical.
        let mut fused = small();
        let mut split = small();
        let mut x = 7u64;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr::new(x % 40);
            // The L1 read path: clean accesses only (a hit with
            // modified=true ORs the bit in, which plain lookup would
            // not — see the access() contract).
            let out = fused.access(line, false);
            let hit = split.lookup(line);
            let evicted = if hit { None } else { split.fill(line, false) };
            assert_eq!(out.hit, hit, "step {i}");
            assert_eq!(out.evicted, evicted, "step {i}");
            assert_eq!(fused.occupancy(), split.occupancy(), "step {i}");
            assert_eq!(fused.occupancy(), scan_occupancy(&fused), "step {i}");
        }
        let mut a: Vec<_> = fused.resident_lines().collect();
        let mut b: Vec<_> = split.resident_lines().collect();
        a.sort_unstable_by_key(|(l, _)| l.raw());
        b.sort_unstable_by_key(|(l, _)| l.raw());
        assert_eq!(a, b);
    }

    #[test]
    fn probe_at_is_not_a_use() {
        let mut c = small();
        c.fill(LineAddr::new(0), false);
        c.fill(LineAddr::new(8), false);
        // 0 is LRU. Probing 0 must NOT refresh it, and the miss probe
        // for 16 names 0's frame as the victim.
        let Probe::Hit(f0) = c.probe_at(LineAddr::new(0)) else {
            panic!("0 is resident");
        };
        assert_eq!(c.probe_at(LineAddr::new(16)), Probe::Miss(f0));
        let ev = c.fill(LineAddr::new(16), false).expect("set is full");
        assert_eq!(ev.line, LineAddr::new(0), "probe_at refreshed recency");
    }

    #[test]
    fn occupancy_counter_tracks_invalidate_and_refill() {
        let mut c = small();
        for i in 0..100u64 {
            c.fill(LineAddr::new(i), i % 2 == 0);
            if i % 7 == 0 {
                invalidate(&mut c, LineAddr::new(i / 2));
            }
            assert_eq!(c.occupancy(), scan_occupancy(&c), "step {i}");
        }
        for i in 0..100u64 {
            invalidate(&mut c, LineAddr::new(i));
        }
        assert_eq!(c.occupancy(), 0);
        assert_eq!(scan_occupancy(&c), 0);
    }

    #[test]
    fn skewed_access_matches_legacy_sequence() {
        let cfg = CacheConfig::skewed(16 << 10, 4, 64);
        let mut fused = Cache::new(cfg);
        let mut split = Cache::new(cfg);
        let mut x = 99u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr::new(x % 600);
            let out = fused.access(line, false);
            let hit = split.lookup(line);
            let evicted = if hit { None } else { split.fill(line, false) };
            assert_eq!((out.hit, out.evicted), (hit, evicted), "step {i}");
        }
        assert_eq!(fused.occupancy(), split.occupancy());
        assert_eq!(fused.occupancy(), scan_occupancy(&fused));
    }

    /// Every geometry the cache accepts: both indexings at every way
    /// count, 16 sets each.
    fn every_shape() -> Vec<CacheConfig> {
        let mut configs = Vec::new();
        for ways in [1u32, 2, 4, 8, 16] {
            let capacity = 16 * ways as u64 * 64;
            configs.push(CacheConfig::set_associative(capacity, ways, 64));
            if ways <= MAX_SKEWED_WAYS {
                configs.push(CacheConfig::skewed(capacity, ways, 64));
            }
        }
        configs
    }

    /// The machine's frame-handle transactions — one probe, then edits
    /// by frame — against the line-keyed sequences they replace, which
    /// re-probe for every step: same hits, same evictions, same final
    /// contents and occupancy, on random streams with invalidations
    /// interleaved, for every accepted geometry.
    #[test]
    fn frame_handles_match_line_keyed_sequences() {
        let shapes = every_shape();
        assert_eq!(shapes.len(), 9);
        for config in shapes {
            let mut framed = Cache::new(config);
            let mut keyed = Cache::new(config);
            // Four times the frame count keeps every set under pressure.
            let span = 4 * config.frames();
            let mut x = 0x5eed_u64 ^ config.frames();
            for i in 0..20_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = LineAddr::new((x >> 33) % span);
                let bit = x & (1 << 20) != 0;
                let step = format!("{config:?} step {i}");
                match (x >> 8) % 6 {
                    // L2 read: a hit is a use, a miss fills the victim
                    // its own probe chose.
                    0 => {
                        let a = match framed.probe_at(line) {
                            Probe::Hit(f) => {
                                framed.touch_at(f, false);
                                (true, None)
                            }
                            Probe::Miss(v) => (false, framed.fill_at(v, line, false)),
                        };
                        let hit = keyed.lookup(line);
                        let b = (hit, if hit { None } else { keyed.fill(line, false) });
                        assert_eq!(a, b, "read {step}");
                    }
                    // L2 write: a hit sets the modified bit, a miss
                    // allocates modified.
                    1 => {
                        let a = match framed.probe_at(line) {
                            Probe::Hit(f) => {
                                framed.touch_at(f, false);
                                framed.set_modified_at(f, true);
                                (true, None)
                            }
                            Probe::Miss(v) => (false, framed.fill_at(v, line, true)),
                        };
                        let b = if keyed.lookup(line) {
                            keyed.set_modified(line, true);
                            (true, None)
                        } else {
                            (false, keyed.fill(line, true))
                        };
                        assert_eq!(a, b, "write {step}");
                    }
                    // A shared-state fill (MESI/Dragon read miss).
                    2 => {
                        let a = match framed.probe_at(line) {
                            Probe::Hit(_) => None,
                            Probe::Miss(v) => {
                                let ev = framed.fill_at(v, line, false);
                                framed.set_shared_at(v, bit);
                                Some(ev)
                            }
                        };
                        let b = (!keyed.contains(line)).then(|| {
                            let ev = keyed.fill(line, false);
                            set_shared(&mut keyed, line, bit);
                            ev
                        });
                        assert_eq!(a, b, "shared fill {step}");
                    }
                    // A remote snoop: read the modified bit, then demote.
                    3 => {
                        let a = framed.find_at(line).map(|f| {
                            let m = framed.modified_at(f);
                            framed.set_modified_at(f, false);
                            framed.set_shared_at(f, bit);
                            m
                        });
                        let b = keyed.modified(line);
                        if b.is_some() {
                            keyed.set_modified(line, false);
                            set_shared(&mut keyed, line, bit);
                        }
                        assert_eq!(a, b, "snoop {step}");
                    }
                    // An invalidation.
                    4 => {
                        let a = framed.find_at(line).map(|f| framed.invalidate_at(f));
                        let b = invalidate(&mut keyed, line);
                        assert_eq!(a, b, "invalidate {step}");
                    }
                    // A fused access.
                    _ => assert_eq!(
                        framed.access(line, bit),
                        keyed.access(line, bit),
                        "access {step}"
                    ),
                }
                assert_eq!(framed.occupancy(), keyed.occupancy(), "{step}");
            }
            assert_eq!(framed.occupancy(), scan_occupancy(&framed));
            let mut a: Vec<_> = framed
                .resident_states()
                .map(|(l, m, s)| (l.raw(), m, s))
                .collect();
            let mut b: Vec<_> = keyed
                .resident_states()
                .map(|(l, m, s)| (l.raw(), m, s))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "final contents for {config:?}");
        }
    }

    #[test]
    fn frame_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Frame>(), 12);
    }

    #[test]
    #[should_panic(expected = "cache frames must number fewer than 2^28, got 268435456")]
    fn rejects_two_to_the_28_frames() {
        // 2^26 sets x 4 ways x 64 B = 16 GB, rejected before any frame
        // is allocated.
        Cache::new(CacheConfig::set_associative(1 << 34, 4, 64));
    }

    /// Moves the clock of `c` up to `to` and every valid timestamp up by
    /// the same amount: the inverse of a renumber, order preserved.
    fn advance_clock(c: &mut Cache, to: u32) {
        let delta = to - c.clock;
        for frame in c.frames.iter_mut().filter(|f| f.is_valid()) {
            frame.meta += delta << LAST_SHIFT;
        }
        c.clock = to;
    }

    /// A cache pushed to the edge of the stamp range every 2,500 steps
    /// renumbers mid-stream again and again, and still matches a fresh
    /// cache step for step: same probes and handles, same hits and
    /// evictions, same occupancy and final contents, with state edits
    /// and invalidations interleaved, for every accepted geometry.
    #[test]
    fn renumbering_matches_a_fresh_cache() {
        for config in every_shape() {
            let mut fresh = Cache::new(config);
            let mut aged = Cache::new(config);
            let span = 4 * config.frames();
            let mut renumbers = 0;
            let mut x = 0xa9ed_u64 ^ config.frames();
            for i in 0..20_000u64 {
                if i % 2_500 == 0 && aged.clock < MAX_STAMP - 3 {
                    advance_clock(&mut aged, MAX_STAMP - 3);
                }
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = LineAddr::new((x >> 33) % span);
                let bit = x & (1 << 20) != 0;
                let before = aged.clock;
                match (x >> 8) % 4 {
                    0 => assert_eq!(
                        fresh.access(line, bit),
                        aged.access(line, bit),
                        "access {config:?} step {i}"
                    ),
                    1 => {
                        let p = fresh.probe_at(line);
                        assert_eq!(p, aged.probe_at(line), "probe {config:?} step {i}");
                        match p {
                            Probe::Hit(f) => {
                                fresh.touch_at(f, bit);
                                aged.touch_at(f, bit);
                            }
                            Probe::Miss(f) => assert_eq!(
                                fresh.fill_at(f, line, bit),
                                aged.fill_at(f, line, bit),
                                "fill {config:?} step {i}"
                            ),
                        }
                    }
                    2 => {
                        let a = fresh.find_at(line).map(|f| fresh.invalidate_at(f));
                        let b = aged.find_at(line).map(|f| aged.invalidate_at(f));
                        assert_eq!(a, b, "invalidate {config:?} step {i}");
                    }
                    _ => {
                        let f = fresh.find_at(line);
                        assert_eq!(f, aged.find_at(line), "find {config:?} step {i}");
                        if let Some(f) = f {
                            for c in [&mut fresh, &mut aged] {
                                c.set_modified_at(f, bit);
                                c.set_shared_at(f, !bit);
                            }
                        }
                    }
                }
                renumbers += (aged.clock < before) as u32;
                assert_eq!(fresh.occupancy(), aged.occupancy(), "{config:?} step {i}");
            }
            // One renumber after each of the eight pushes.
            assert_eq!(renumbers, 8, "{config:?}");
            let mut a: Vec<_> = fresh
                .resident_states()
                .map(|(l, m, s)| (l.raw(), m, s))
                .collect();
            let mut b: Vec<_> = aged
                .resident_states()
                .map(|(l, m, s)| (l.raw(), m, s))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "final contents for {config:?}");
        }
    }

    #[test]
    fn fully_associative_shape_works() {
        // 1 set x 16 ways.
        let mut c = Cache::new(CacheConfig::set_associative(1 << 10, 16, 64));
        assert_eq!(c.config().sets(), 1);
        for i in 0..16u64 {
            c.fill(LineAddr::new(i), false);
        }
        assert_eq!(c.occupancy(), 16);
        c.lookup(LineAddr::new(0));
        let ev = c.fill(LineAddr::new(99), false).unwrap();
        assert_eq!(ev.line, LineAddr::new(1), "LRU among all ways");
    }
}
