//! Recursive working-set splitting into `2^depth` subsets: the
//! migration controller's one splitter.
//!
//! §3.6 builds 4-way splitting from two levels of 2-way mechanisms, §6
//! says the method "works also on 2-core configurations" and conjectures
//! that "it is possible to adapt it to a larger number of cores".
//! [`SplitterTree`] is that recursion at any depth from 1 to 3: level
//! `l` holds `2^l` (mechanism, transition filter) nodes, one per
//! sign-path through the levels above, all sharing one affinity cache.
//!
//! # Routing
//!
//! Only sampled lines (`H(e) < threshold`, §3.5) reach a mechanism. A
//! sampled line goes to level `min(tz(H(e)), depth − 1)`, where `tz`
//! counts trailing zero bits and `tz(0)` is 64:
//!
//! - level `l < depth − 1` takes `H(e) ≡ 2^l (mod 2^{l+1})`, half of
//!   the lines the levels above leave;
//! - the last level takes the rest, `H(e) ≡ 0 (mod 2^{depth−1})`.
//!
//! Within its level the line updates the node on the current sign-path.
//! At depth 1 every sampled line goes to the one node; at depth 2 this
//! is the paper's rule, odd `H(e)` to `X` and even `H(e)` to
//! `Y[sign(F_X)]`. The designated subset of *any* reference is the full
//! sign-path, level 0's sign in the highest bit (`Plus` = 0,
//! `Minus` = 1). Only a filter update can move it, so a reference that
//! updates no filter keeps the current subset without walking the
//! tree. R-windows halve per level (`|R_X| = 128`, `|R_Y| = 64`,
//! `|R_Z| = 32`); the top window must leave every level at least 8.
//!
//! # Layout
//!
//! The nodes are heap-indexed: node `i`'s children are `2i + 1`
//! (`Plus`) and `2i + 2` (`Minus`), so level `l` spans nodes
//! `2^l − 1 .. 2^{l+1} − 1`. The filters live inside the struct in an
//! array sized for the deepest tree (7 nodes, 112 bytes). The
//! mechanisms, which only sampled references touch, live in one boxed
//! slice of the `2^depth − 1` live nodes, so a shallow tree builds no
//! mechanism or R-window it does not use. One dispatch on `depth`
//! selects a per-reference body monomorphized for that depth.
#![deny(clippy::panic)]

use crate::filter::TransitionFilter;
use crate::mechanism::{DeltaMode, Mechanism, MechanismConfig, SignMode};
use crate::sampler::Sampler;
use crate::splitter2::SplitterStats;
use crate::table::{AffinityTable, TableStats, UnboundedAffinityTable};

/// Deepest tree accepted: 8 subsets, the §6 "larger number of cores"
/// extension.
const MAX_DEPTH: u32 = 3;

/// Nodes of the deepest tree.
const MAX_NODES: usize = (1 << MAX_DEPTH) - 1;

/// Configuration of a [`SplitterTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitterTreeConfig {
    /// Levels of recursion; the tree produces `2^depth` subsets.
    pub depth: u32,
    /// Bits of the affinity values (paper: 16).
    pub affinity_bits: u32,
    /// `|R|` of the top-level mechanism; halves per level. At least
    /// `8 << (depth − 1)`, so the last level's window holds 8.
    pub r_window_top: usize,
    /// Transition-filter width.
    pub filter_bits: u32,
    /// Which lines are sampled.
    pub sampler: Sampler,
    /// Sign source for the `∆` updates.
    pub sign_mode: SignMode,
    /// Bounding of `∆` and the stored values.
    pub delta_mode: DeltaMode,
}

impl Default for SplitterTreeConfig {
    fn default() -> Self {
        SplitterTreeConfig {
            depth: 3,
            affinity_bits: 16,
            r_window_top: 128,
            filter_bits: 20,
            sampler: Sampler::full(),
            sign_mode: SignMode::TrueSum,
            delta_mode: DeltaMode::Wide,
        }
    }
}

/// The level a sampled hash is routed to in a tree of `depth` levels.
#[inline]
fn level_of(h: u64, depth: u32) -> u32 {
    h.trailing_zeros().min(depth - 1)
}

/// A `2^depth`-way working-set splitter.
#[derive(Debug, Clone)]
pub struct SplitterTree<T: AffinityTable = UnboundedAffinityTable> {
    depth: u32,
    /// Every node's transition filter, heap-indexed.
    filters: [TransitionFilter; MAX_NODES],
    /// The live nodes' mechanisms, indexed like `filters`.
    mechanisms: Box<[Mechanism]>,
    sampler: Sampler,
    table: T,
    current: usize,
    stats: SplitterStats,
    sampled_refs: u64,
}

impl SplitterTree<UnboundedAffinityTable> {
    /// Builds a tree over an unbounded affinity table.
    pub fn new(config: SplitterTreeConfig) -> Self {
        SplitterTree::with_table(config, UnboundedAffinityTable::new())
    }
}

impl<T: AffinityTable> SplitterTree<T> {
    /// Builds a tree over the given affinity table.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or above 3, if `r_window_top` is below
    /// `8 << (depth − 1)`, or on invalid widths (see [`MechanismConfig`]
    /// and [`TransitionFilter::new`]).
    pub fn with_table(config: SplitterTreeConfig, table: T) -> Self {
        assert!(
            (1..=MAX_DEPTH).contains(&config.depth),
            "depth must be in [1, 3]"
        );
        assert!(
            config.r_window_top >> (config.depth - 1) >= 8,
            "r_window_top must be at least 8 << (depth - 1) = {}, got {}",
            8 << (config.depth - 1),
            config.r_window_top
        );
        let mechanism = |node: usize| {
            let level = (node + 1).ilog2();
            Mechanism::new(MechanismConfig {
                affinity_bits: config.affinity_bits,
                r_window: config.r_window_top >> level,
                sign_mode: config.sign_mode,
                delta_mode: config.delta_mode,
            })
        };
        SplitterTree {
            depth: config.depth,
            filters: std::array::from_fn(|_| TransitionFilter::new(config.filter_bits)),
            mechanisms: (0..(1 << config.depth) - 1).map(mechanism).collect(),
            sampler: config.sampler,
            table,
            current: 0,
            stats: SplitterStats::default(),
            sampled_refs: 0,
        }
    }

    /// Number of subsets (`2^depth`).
    pub fn subsets(&self) -> usize {
        1 << self.depth
    }

    /// Processes a reference; returns the designated subset index in
    /// `0..2^depth`. `update_filter` is false for L2 hits under L2
    /// filtering (§3.4).
    pub fn on_reference_filtered(&mut self, line: u64, update_filter: bool) -> usize {
        self.advance(line, update_filter);
        self.current
    }

    /// Processes a reference; returns whether the designated subset
    /// changed, which [`current_subset`](Self::current_subset) then
    /// reads.
    pub(crate) fn advance(&mut self, line: u64, update_filter: bool) -> bool {
        match self.depth {
            1 => self.step::<1>(line, update_filter),
            2 => self.step::<2>(line, update_filter),
            _ => self.step::<3>(line, update_filter),
        }
    }

    /// The per-reference body of a `DEPTH`-level tree.
    #[inline(always)]
    fn step<const DEPTH: u32>(&mut self, line: u64, update_filter: bool) -> bool {
        // The subset is the filters' sign-path: a reference that
        // updates no filter cannot move it.
        self.stats.references += 1;
        let h = self.sampler.hash(line);
        if h >= self.sampler.threshold() {
            return false;
        }
        self.sampled_refs += 1;
        let node = self.walk(level_of(h, DEPTH));
        let a_e = self.mechanisms[node].on_reference(line, &mut self.table);
        if !update_filter {
            return false;
        }
        self.filters[node].update(a_e);
        // Below the last level, the walk lands on the designated
        // subset's position in a virtual level `DEPTH`.
        let subset = self.walk(DEPTH) + 1 - (1 << DEPTH);
        if subset == self.current {
            return false;
        }
        self.stats.transitions += 1;
        self.current = subset;
        true
    }

    /// The node `levels` levels below the root along the filters' signs.
    #[inline(always)]
    fn walk(&self, levels: u32) -> usize {
        let mut node = 0;
        for _ in 0..levels {
            node = 2 * node + 1 + self.filters[node].side().index();
        }
        node
    }

    /// Processes a reference with unconditional filter update.
    pub fn on_reference(&mut self, line: u64) -> usize {
        self.on_reference_filtered(line, true)
    }

    /// The currently designated subset.
    pub fn current_subset(&self) -> usize {
        self.current
    }

    /// Transition statistics.
    pub fn stats(&self) -> SplitterStats {
        self.stats
    }

    /// Affinity-table statistics.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// The affinity table.
    pub fn table(&self) -> &T {
        &self.table
    }

    /// References routed into some mechanism.
    pub fn sampled_references(&self) -> u64 {
        self.sampled_refs
    }

    /// Level 0's filter value (`F_X`).
    pub fn filter_value(&self) -> i64 {
        self.filters[0].value()
    }

    /// Level 0's mechanism (`X`).
    pub fn mechanism(&self) -> &Mechanism {
        &self.mechanisms[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(depth: u32) -> SplitterTree {
        SplitterTree::new(SplitterTreeConfig {
            depth,
            ..SplitterTreeConfig::default()
        })
    }

    #[test]
    fn depth_bounds_enforced() {
        for depth in [1u32, 2, 3] {
            let t = tree(depth);
            assert_eq!(t.subsets(), 1 << depth);
        }
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn depth_zero_rejected() {
        tree(0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn depth_four_rejected() {
        tree(4);
    }

    #[test]
    #[should_panic(expected = "r_window_top must be at least 8 << (depth - 1) = 32")]
    fn short_top_window_rejected() {
        SplitterTree::new(SplitterTreeConfig {
            depth: 3,
            r_window_top: 31,
            ..SplitterTreeConfig::default()
        });
    }

    #[test]
    fn level_routing_matches_paper_for_depth_two() {
        // depth 2: odd hashes to level 0 (X), even to level 1 (Y).
        for h in 0..31u64 {
            let expect = if h % 2 == 1 { 0 } else { 1 };
            assert_eq!(level_of(h, 2), expect, "h = {h}");
        }
    }

    #[test]
    fn level_routing_halves_per_level_for_depth_three() {
        let mut counts = [0u32; 3];
        for h in 0..31u64 {
            counts[level_of(h, 3) as usize] += 1;
        }
        // Of the 31 residues 0..30: 15 odd, 8 ≡2 (mod 4), 8 ≡0 (mod 4).
        assert_eq!(counts, [15, 8, 8]);
    }

    #[test]
    fn trailing_zeros_rule_is_the_modular_rule() {
        // Level l < depth − 1 takes H ≡ 2^l (mod 2^{l+1}); the last
        // level takes the rest, H = 0 included.
        for depth in 1..=MAX_DEPTH {
            for h in 0..31u64 {
                let modular = (0..depth - 1)
                    .find(|&l| h % (1 << (l + 1)) == 1 << l)
                    .unwrap_or(depth - 1);
                assert_eq!(level_of(h, depth), modular, "h = {h}, depth {depth}");
            }
        }
    }

    #[test]
    fn odd_h_updates_x_even_h_updates_y_of_fx_sign() {
        // §3.6: "a sampled line with odd H(e) is processed by X, one
        // with even H(e) by Y[sign(F_X)]". With the full sampler,
        // H(e) = e mod 31. A second reference to a line yields
        // A_e = −∆ ≠ 0, which moves exactly one filter, revealing the
        // routing. Nodes: 0 = X, 1 = Y[+], 2 = Y[−].
        let values =
            |t: &SplitterTree| t.filters[..3].iter().map(|f| f.value()).collect::<Vec<_>>();

        // e = 2 (even H) while F_X ≥ 0 must update F_Y[+] only.
        let mut t = tree(2);
        t.on_reference(2);
        t.on_reference(2);
        let v = values(&t);
        assert_eq!((v[0], v[2]), (0, 0), "only F_Y[+] may move: {v:?}");
        assert_ne!(v[1], 0, "F_Y[+] must move");

        // e = 1 (odd H) must update F_X only.
        let mut t = tree(2);
        t.on_reference(1);
        assert_eq!(t.on_reference(1), 2, "F_X < 0 is the high subset bit");
        let v = values(&t);
        assert!(v[0] < 0, "F_X must move on odd H");
        assert_eq!((v[1], v[2]), (0, 0));

        // With F_X < 0, even H routes to the other leaf: F_Y[−].
        t.on_reference(2);
        t.on_reference(2);
        let v = values(&t);
        assert_eq!(v[1], 0, "F_Y[+] must not move");
        assert_ne!(v[2], 0, "F_Y[−] must move");
    }

    #[test]
    fn four_way_splits_circular() {
        // A large circular stream spreads over all four subsets and
        // transitions rarely once settled.
        let mut t = tree(2);
        let n = 16_000u64;
        for i in 0..4_000_000u64 {
            t.on_reference(i % n);
        }
        let mut used = [0u64; 4];
        let before = t.stats().transitions;
        for i in 0..n {
            used[t.on_reference(i % n)] += 1;
        }
        let transitions = t.stats().transitions - before;
        let occupied = used.iter().filter(|&&c| c > n / 16).count();
        assert!(occupied >= 3, "only {occupied} subsets used: {used:?}");
        assert!(
            transitions <= 64,
            "{transitions} transitions in one settled lap"
        );
    }

    #[test]
    fn eight_way_splits_circular() {
        let mut t = tree(3);
        let n = 32_000u64;
        for i in 0..6_000_000u64 {
            t.on_reference(i % n);
        }
        // Steady state: one settled lap, count subsets used and
        // transitions.
        let mut used = [0u64; 8];
        let before = t.stats().transitions;
        for i in 0..n {
            used[t.on_reference(i % n)] += 1;
        }
        let transitions = t.stats().transitions - before;
        let occupied = used.iter().filter(|&&c| c > n / 32).count();
        assert!(occupied >= 5, "only {occupied} subsets used: {used:?}");
        assert!(
            transitions <= 3 * 8,
            "{transitions} transitions in one settled lap"
        );
    }

    #[test]
    fn depth_one_matches_two_way_balance() {
        let mut t = SplitterTree::new(SplitterTreeConfig {
            depth: 1,
            r_window_top: 100,
            ..SplitterTreeConfig::default()
        });
        for i in 0..1_000_000u64 {
            t.on_reference(i % 4000);
        }
        let before = t.stats().transitions;
        for i in 0..100_000u64 {
            t.on_reference(i % 4000);
        }
        let rate = (t.stats().transitions - before) as f64 / 100_000.0;
        assert!(rate < 0.01, "depth-1 tree transition rate {rate}");
    }

    #[test]
    fn l2_filtering_freezes_subsets() {
        let mut t = SplitterTree::new(SplitterTreeConfig::default());
        let first = t.on_reference_filtered(0, false);
        for i in 0..20_000u64 {
            assert_eq!(t.on_reference_filtered(i % 999, false), first);
        }
        assert_eq!(t.stats().transitions, 0);
    }

    #[test]
    fn sampling_reduces_traffic() {
        for depth in [1, 2, 3] {
            let mut full = tree(depth);
            let mut quarter = SplitterTree::new(SplitterTreeConfig {
                depth,
                sampler: Sampler::quarter(),
                ..SplitterTreeConfig::default()
            });
            for i in 0..50_000u64 {
                full.on_reference(i % 7000);
                quarter.on_reference(i % 7000);
            }
            assert_eq!(full.sampled_references(), 50_000);
            let frac = quarter.sampled_references() as f64 / 50_000.0;
            assert!((0.2..0.32).contains(&frac), "depth {depth}: {frac}");
        }
    }

    #[test]
    fn unsampled_lines_never_touch_the_table() {
        for depth in [1, 2, 3] {
            let mut t = SplitterTree::new(SplitterTreeConfig {
                depth,
                sampler: Sampler::quarter(),
                ..SplitterTreeConfig::default()
            });
            for e in (0..10_000u64).filter(|&e| !Sampler::quarter().is_sampled(e)) {
                t.on_reference(e);
            }
            assert_eq!(t.sampled_references(), 0);
            let ts = t.table_stats();
            assert_eq!(ts.hits + ts.misses, 0, "depth {depth}");
        }
    }
}
