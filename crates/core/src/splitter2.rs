//! 2-way working-set splitting: one mechanism, one optional transition
//! filter, one affinity table.
#![deny(clippy::panic)]

use crate::filter::TransitionFilter;
use crate::mechanism::{DeltaMode, Mechanism, MechanismConfig, SignMode};
use crate::table::{AffinityTable, UnboundedAffinityTable};
use crate::Side;

/// Configuration of a [`Splitter2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitterConfig {
    /// Bits of the affinity values (paper: 16).
    pub affinity_bits: u32,
    /// `|R|`.
    pub r_window: usize,
    /// Transition-filter width; `None` assigns subsets by raw affinity
    /// sign, the §3.2/§3.3 setting used for Figure 3.
    pub filter_bits: Option<u32>,
    /// Sign source for the `∆` update.
    pub sign_mode: SignMode,
    /// Bounding of `∆` and the stored values.
    pub delta_mode: DeltaMode,
}

impl Default for SplitterConfig {
    fn default() -> Self {
        SplitterConfig {
            affinity_bits: 16,
            r_window: 128,
            filter_bits: None,
            sign_mode: SignMode::TrueSum,
            delta_mode: DeltaMode::Wide,
        }
    }
}

/// Transition statistics of a splitter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitterStats {
    /// References processed.
    pub references: u64,
    /// Times the designated subset changed between consecutive
    /// references.
    pub transitions: u64,
}

/// A complete 2-way splitter over its own (unbounded by default)
/// affinity table.
///
/// ```
/// use execmig_core::{Splitter2, SplitterConfig, Side};
/// let mut s = Splitter2::new(SplitterConfig::default());
/// let side: Side = s.on_reference(1234);
/// assert_eq!(s.stats().references, 1);
/// let _ = side;
/// ```
#[derive(Debug, Clone)]
pub struct Splitter2<T: AffinityTable = UnboundedAffinityTable> {
    mechanism: Mechanism,
    filter: Option<TransitionFilter>,
    table: T,
    current: Side,
    stats: SplitterStats,
}

impl Splitter2<UnboundedAffinityTable> {
    /// Builds a splitter over an unbounded affinity table.
    ///
    /// # Panics
    ///
    /// Panics on invalid widths (see [`MechanismConfig`]).
    pub fn new(config: SplitterConfig) -> Self {
        Splitter2::with_table(config, UnboundedAffinityTable::new())
    }
}

impl<T: AffinityTable> Splitter2<T> {
    /// Builds a splitter over the given affinity table.
    pub fn with_table(config: SplitterConfig, table: T) -> Self {
        let mechanism = Mechanism::new(MechanismConfig {
            affinity_bits: config.affinity_bits,
            r_window: config.r_window,
            sign_mode: config.sign_mode,
            delta_mode: config.delta_mode,
        });
        Splitter2 {
            mechanism,
            filter: config.filter_bits.map(TransitionFilter::new),
            table,
            current: Side::Plus,
            stats: SplitterStats::default(),
        }
    }

    /// Processes a reference and returns the subset the splitter
    /// designates for execution after it.
    pub fn on_reference(&mut self, line: u64) -> Side {
        self.on_reference_filtered(line, true)
    }

    /// Like [`on_reference`](Self::on_reference), but `update_filter`
    /// can be false to model L2 filtering (§3.4): the affinity state
    /// still updates, the transition filter does not.
    pub fn on_reference_filtered(&mut self, line: u64, update_filter: bool) -> Side {
        let a_e = self.mechanism.on_reference(line, &mut self.table);
        let side = match &mut self.filter {
            Some(f) => {
                if update_filter {
                    f.update(a_e);
                }
                f.side()
            }
            None => Side::of(a_e),
        };
        self.stats.references += 1;
        if side != self.current {
            self.stats.transitions += 1;
            self.current = side;
        }
        side
    }

    /// The currently designated subset.
    pub fn current_side(&self) -> Side {
        self.current
    }

    /// Transition statistics.
    pub fn stats(&self) -> SplitterStats {
        self.stats
    }

    /// The affinity of `e`, if tracked (Figure 3 introspection).
    pub fn affinity_of(&self, e: u64) -> Option<i64> {
        self.mechanism.affinity_of(e, &self.table)
    }

    /// Borrow of the underlying affinity table.
    pub fn table(&self) -> &T {
        &self.table
    }

    /// Borrow of the underlying mechanism.
    pub fn mechanism(&self) -> &Mechanism {
        &self.mechanism
    }

    /// The transition filter's current `F` value; without a filter
    /// (raw-sign splitting) falls back to the mechanism's `A_R`, which
    /// plays the same designating role.
    pub fn filter_value(&self) -> i64 {
        match &self.filter {
            Some(f) => f.value(),
            None => self.mechanism.ar(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_splits_and_settles() {
        let mut s = Splitter2::new(SplitterConfig {
            r_window: 100,
            ..SplitterConfig::default()
        });
        for t in 0..1_000_000u64 {
            s.on_reference(t % 4000);
        }
        let frac = s.positive_fraction(0..4000);
        assert!((0.35..=0.65).contains(&frac), "fraction {frac}");
        // Steady-state transition rate: measure over a fresh window.
        let before = s.stats();
        for t in 0..100_000u64 {
            s.on_reference(t % 4000);
        }
        let after = s.stats();
        let rate = (after.transitions - before.transitions) as f64 / 100_000.0;
        assert!(rate <= 1.0 / 200.0, "late transition rate {rate}");
    }

    #[test]
    fn random_stream_with_filter_transitions_rarely() {
        // §3.4: a random working set is unsplittable; the filter keeps
        // the transition frequency around 1/2^(1+F-A) when affinities
        // saturate. With 16-bit affinities and a 20-bit filter ≈ 3%.
        let mut s = Splitter2::new(SplitterConfig {
            r_window: 100,
            filter_bits: Some(20),
            ..SplitterConfig::default()
        });
        let mut state = 1u64;
        for _ in 0..2_000_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.on_reference((state >> 33) % 4000);
        }
        let rate = s.stats().transition_rate();
        assert!(rate < 0.10, "filtered random transition rate {rate}");
    }

    #[test]
    fn filter_suppression_vs_unfiltered_random() {
        let run = |filter_bits: Option<u32>| {
            let mut s = Splitter2::new(SplitterConfig {
                r_window: 64,
                filter_bits,
                ..SplitterConfig::default()
            });
            let mut state = 5u64;
            for _ in 0..500_000u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s.on_reference((state >> 33) % 2000);
            }
            s.stats().transition_rate()
        };
        let raw = run(None);
        let filtered = run(Some(20));
        assert!(
            filtered < raw / 3.0,
            "filter did not suppress transitions: raw {raw}, filtered {filtered}"
        );
    }

    #[test]
    fn l2_filtering_freezes_subset() {
        let mut s = Splitter2::new(SplitterConfig {
            r_window: 16,
            filter_bits: Some(12),
            ..SplitterConfig::default()
        });
        let first = s.on_reference_filtered(1, false);
        for e in 0..10_000u64 {
            let side = s.on_reference_filtered(e % 64, false);
            assert_eq!(side, first, "side changed without filter updates");
        }
        assert_eq!(s.stats().transitions, 0);
    }

    #[test]
    fn stats_count_references() {
        let mut s = Splitter2::new(SplitterConfig::default());
        for e in 0..100 {
            s.on_reference(e);
        }
        assert_eq!(s.stats().references, 100);
    }
}
