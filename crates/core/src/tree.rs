//! Generalised recursive working-set splitting: 2^depth subsets.
//!
//! §3.6 builds 4-way splitting from two levels of 2-way mechanisms and
//! conjectures in §6 that "it is possible to adapt it to a larger
//! number of cores". [`SplitterTree`] realises that: `depth` levels of
//! mechanisms, level `l` holding `2^l` of them (one per sign-path
//! through the upper levels). Sampled lines are distributed over the
//! levels by their hash, generalising the paper's odd/even rule:
//!
//! - level `l < depth−1` processes lines with `H(e) ≡ 2^l (mod 2^{l+1})`
//!   (half of the remaining lines at each level),
//! - the last level processes the rest (`H(e) ≡ 0 (mod 2^{depth−1})`).
//!
//! For `depth = 2` this is exactly the paper's scheme: odd hashes go to
//! `X`, even ones to `Y[sign(F_X)]`. R-windows halve per level
//! (`|R_X| = 128`, `|R_Y| = 64`, `|R_Z| = 32`, …).
#![deny(clippy::panic)]

use crate::filter::TransitionFilter;
use crate::mechanism::{DeltaMode, Mechanism, MechanismConfig, SignMode};
use crate::sampler::Sampler;
use crate::splitter2::SplitterStats;
use crate::table::{AffinityTable, TableStats, UnboundedAffinityTable};
use crate::Side;

/// Configuration of a [`SplitterTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitterTreeConfig {
    /// Levels of recursion; the tree produces `2^depth` subsets.
    pub depth: u32,
    /// Bits of the affinity values (paper: 16).
    pub affinity_bits: u32,
    /// `|R|` of the top-level mechanism; halves per level (minimum 8).
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

/// A `2^depth`-way working-set splitter.
#[derive(Debug, Clone)]
pub struct SplitterTree<T: AffinityTable = UnboundedAffinityTable> {
    depth: u32,
    /// `levels[l][path]`: the mechanism+filter for sign-path `path`
    /// through levels `0..l`.
    levels: Vec<Vec<(Mechanism, TransitionFilter)>>,
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
    /// Panics if `depth` is 0 or above 4 (16-way: beyond any plausible
    /// single-chip configuration of the paper's era), or on invalid
    /// widths.
    pub fn with_table(config: SplitterTreeConfig, table: T) -> Self {
        assert!((1..=4).contains(&config.depth), "depth must be in [1, 4]");
        let levels = (0..config.depth)
            .map(|l| {
                let r = (config.r_window_top >> l).max(8);
                (0..(1usize << l))
                    .map(|_| {
                        (
                            Mechanism::new(MechanismConfig {
                                affinity_bits: config.affinity_bits,
                                r_window: r,
                                sign_mode: config.sign_mode,
                                delta_mode: config.delta_mode,
                            }),
                            TransitionFilter::new(config.filter_bits),
                        )
                    })
                    .collect()
            })
            .collect();
        SplitterTree {
            depth: config.depth,
            levels,
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

    /// The level a sampled hash is routed to.
    fn level_of(&self, h: u64) -> u32 {
        for l in 0..self.depth - 1 {
            if h % (1 << (l + 1)) == (1 << l) {
                return l;
            }
        }
        self.depth - 1
    }

    /// The sign-path through levels `0..l` given the current filters.
    fn path_to(&self, l: u32) -> usize {
        let mut path = 0usize;
        for level in 0..l {
            let (_, f) = &self.levels[level as usize][path];
            path = (path << 1) | f.side().index();
        }
        path
    }

    /// Processes a reference; returns the designated subset index in
    /// `0..2^depth`. `update_filter` is false for L2 hits under L2
    /// filtering.
    pub fn on_reference_filtered(&mut self, line: u64, update_filter: bool) -> usize {
        let h = self.sampler.hash(line);
        if h < self.sampler.threshold() {
            self.sampled_refs += 1;
            let l = self.level_of(h);
            let path = self.path_to(l);
            let (mech, filter) = &mut self.levels[l as usize][path];
            let a_e = mech.on_reference(line, &mut self.table);
            if update_filter {
                filter.update(a_e);
            }
        }
        // The designated subset: the full sign-path.
        let mut subset = 0usize;
        let mut path = 0usize;
        for level in 0..self.depth {
            let (_, f) = &self.levels[level as usize][path];
            let bit = f.side().index();
            subset = (subset << 1) | bit;
            path = (path << 1) | bit;
        }
        self.stats.references += 1;
        if subset != self.current {
            self.stats.transitions += 1;
            self.current = subset;
        }
        subset
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

    /// The sign of level 0's filter (for cross-checks against
    /// [`Splitter2`](crate::Splitter2)).
    pub fn top_side(&self) -> Side {
        self.levels[0][0].1.side()
    }

    /// Level 0's filter value (`F_X`).
    pub fn filter_value(&self) -> i64 {
        self.levels[0][0].1.value()
    }

    /// Level 0's mechanism (`X`).
    pub fn mechanism(&self) -> &Mechanism {
        &self.levels[0][0].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_bounds_enforced() {
        for depth in [1u32, 2, 3, 4] {
            let t = SplitterTree::new(SplitterTreeConfig {
                depth,
                ..SplitterTreeConfig::default()
            });
            assert_eq!(t.subsets(), 1 << depth);
        }
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn depth_zero_rejected() {
        SplitterTree::new(SplitterTreeConfig {
            depth: 0,
            ..SplitterTreeConfig::default()
        });
    }

    #[test]
    fn level_routing_matches_paper_for_depth_two() {
        // depth 2: odd hashes to level 0 (X), even to level 1 (Y).
        let t = SplitterTree::new(SplitterTreeConfig {
            depth: 2,
            ..SplitterTreeConfig::default()
        });
        for h in 0..31u64 {
            let expect = if h % 2 == 1 { 0 } else { 1 };
            assert_eq!(t.level_of(h), expect, "h = {h}");
        }
    }

    #[test]
    fn level_routing_halves_per_level_for_depth_three() {
        let t = SplitterTree::new(SplitterTreeConfig {
            depth: 3,
            ..SplitterTreeConfig::default()
        });
        let mut counts = [0u32; 3];
        for h in 0..31u64 {
            counts[t.level_of(h) as usize] += 1;
        }
        // Of the 31 residues 0..30: 15 odd, 8 ≡2 (mod 4), 8 ≡0 (mod 4).
        assert_eq!(counts, [15, 8, 8]);
    }

    #[test]
    fn eight_way_splits_circular() {
        let mut t = SplitterTree::new(SplitterTreeConfig {
            depth: 3,
            ..SplitterTreeConfig::default()
        });
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
        let mut full = SplitterTree::new(SplitterTreeConfig::default());
        let mut quarter = SplitterTree::new(SplitterTreeConfig {
            sampler: Sampler::quarter(),
            ..SplitterTreeConfig::default()
        });
        for i in 0..50_000u64 {
            full.on_reference(i % 7000);
            quarter.on_reference(i % 7000);
        }
        assert_eq!(full.sampled_references(), 50_000);
        assert!(quarter.sampled_references() < 20_000);
    }
}
