//! 4-way working-set splitting by recursive 2-way splitting (§3.6).
//!
//! Three mechanisms share one affinity cache: `X` splits the whole
//! working set, `Y[+1]` and `Y[−1]` split the two halves. Instead of
//! storing two affinities per line, the scheme piggybacks on sampling:
//! a sampled line with odd `H(e)` is processed by `X`, one with even
//! `H(e)` by `Y[sign(F_X)]`. The 4-way subset of *any* reference is
//! `(sign(F_X), sign(F_{Y[sign(F_X)]}))`.
//!
//! §4.1 uses `|R_X| = 128`, `|R_Y[±1]| = 64`, 20-bit filters and an
//! unlimited affinity cache; §4.2 uses an 8k-entry skewed cache, 25 %
//! sampling and 18-bit filters.
#![deny(clippy::panic)]

use crate::filter::TransitionFilter;
use crate::mechanism::{DeltaMode, Mechanism, MechanismConfig, SignMode};
use crate::sampler::Sampler;
use crate::splitter2::SplitterStats;
use crate::table::{AffinityTable, TableStats, UnboundedAffinityTable};
use crate::Side;

/// One of the four subsets: `(sign(F_X), sign(F_Y))`.
///
/// ```
/// use execmig_core::{Quadrant, Side};
/// let q = Quadrant::from_sides(Side::Minus, Side::Plus);
/// assert_eq!(q.index(), 2);
/// assert_eq!(q.x(), Side::Minus);
/// assert_eq!(q.y(), Side::Plus);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quadrant(u8);

impl Quadrant {
    /// Builds a quadrant from the two filter signs.
    pub const fn from_sides(x: Side, y: Side) -> Self {
        Quadrant((x.index() as u8) << 1 | y.index() as u8)
    }

    /// Builds a quadrant from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> Self {
        assert!(index < 4, "quadrant index out of range");
        Quadrant(index as u8)
    }

    /// Stable index in `0..4`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The `X` (first-level) sign.
    pub const fn x(self) -> Side {
        if self.0 >> 1 == 0 {
            Side::Plus
        } else {
            Side::Minus
        }
    }

    /// The `Y` (second-level) sign.
    pub const fn y(self) -> Side {
        if self.0 & 1 == 0 {
            Side::Plus
        } else {
            Side::Minus
        }
    }
}

impl std::fmt::Display for Quadrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}{})", self.x(), self.y())
    }
}

/// Configuration of a [`Splitter4`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splitter4Config {
    /// Bits of the affinity values (paper: 16).
    pub affinity_bits: u32,
    /// `|R_X|` (paper: 128).
    pub r_window_x: usize,
    /// `|R_Y[+1]| = |R_Y[−1]|` (paper: 64 = `|R_X|/2`).
    pub r_window_y: usize,
    /// Transition-filter width (paper: 20 bits in §4.1, 18 in §4.2).
    pub filter_bits: u32,
    /// Which lines are sampled into the affinity mechanisms.
    pub sampler: Sampler,
    /// Sign source for the `∆` updates.
    pub sign_mode: SignMode,
    /// Bounding of `∆` and the stored values.
    pub delta_mode: DeltaMode,
}

impl Default for Splitter4Config {
    fn default() -> Self {
        Splitter4Config {
            affinity_bits: 16,
            r_window_x: 128,
            r_window_y: 64,
            filter_bits: 20,
            sampler: Sampler::full(),
            sign_mode: SignMode::TrueSum,
            delta_mode: DeltaMode::Wide,
        }
    }
}

/// The full 4-way splitting apparatus of §3.6.
#[derive(Debug, Clone)]
pub struct Splitter4<T: AffinityTable = UnboundedAffinityTable> {
    x: Mechanism,
    /// Indexed by `Side::index()` of `sign(F_X)`.
    y: [Mechanism; 2],
    f_x: TransitionFilter,
    f_y: [TransitionFilter; 2],
    sampler: Sampler,
    table: T,
    current: Quadrant,
    stats: SplitterStats,
    /// References that updated an affinity mechanism (sampled ones).
    sampled_refs: u64,
}

impl Splitter4<UnboundedAffinityTable> {
    /// Builds a 4-way splitter over an unbounded affinity table.
    pub fn new(config: Splitter4Config) -> Self {
        Splitter4::with_table(config, UnboundedAffinityTable::new())
    }
}

impl<T: AffinityTable> Splitter4<T> {
    /// Builds a 4-way splitter over the given affinity table.
    ///
    /// # Panics
    ///
    /// Panics on invalid widths (see [`MechanismConfig`] and
    /// [`TransitionFilter::new`]).
    pub fn with_table(config: Splitter4Config, table: T) -> Self {
        let mech = |r| {
            Mechanism::new(MechanismConfig {
                affinity_bits: config.affinity_bits,
                r_window: r,
                sign_mode: config.sign_mode,
                delta_mode: config.delta_mode,
            })
        };
        Splitter4 {
            x: mech(config.r_window_x),
            y: [mech(config.r_window_y), mech(config.r_window_y)],
            f_x: TransitionFilter::new(config.filter_bits),
            f_y: [
                TransitionFilter::new(config.filter_bits),
                TransitionFilter::new(config.filter_bits),
            ],
            sampler: config.sampler,
            table,
            current: Quadrant::from_sides(Side::Plus, Side::Plus),
            stats: SplitterStats::default(),
            sampled_refs: 0,
        }
    }

    /// Processes a reference; returns the quadrant designated for
    /// execution after it. `update_filter` is false under L2 filtering
    /// for requests that hit the L2 (§3.4).
    pub fn on_reference_filtered(&mut self, line: u64, update_filter: bool) -> Quadrant {
        let h = self.sampler.hash(line);
        if h < self.sampler.threshold() {
            self.sampled_refs += 1;
            if h % 2 == 1 {
                let a_e = self.x.on_reference(line, &mut self.table);
                if update_filter {
                    self.f_x.update(a_e);
                }
            } else {
                let yi = self.f_x.side().index();
                let a_e = self.y[yi].on_reference(line, &mut self.table);
                if update_filter {
                    self.f_y[yi].update(a_e);
                }
            }
        }
        let sx = self.f_x.side();
        let sy = self.f_y[sx.index()].side();
        let q = Quadrant::from_sides(sx, sy);
        self.stats.references += 1;
        if q != self.current {
            self.stats.transitions += 1;
            self.current = q;
        }
        q
    }

    /// Processes a reference with unconditional filter update.
    pub fn on_reference(&mut self, line: u64) -> Quadrant {
        self.on_reference_filtered(line, true)
    }

    /// The currently designated quadrant.
    pub fn current_quadrant(&self) -> Quadrant {
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

    /// References that updated an affinity mechanism.
    pub fn sampled_references(&self) -> u64 {
        self.sampled_refs
    }

    /// The sampler in use.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Borrow of the underlying affinity table.
    pub fn table(&self) -> &T {
        &self.table
    }

    /// The first-level filter's current `F_X` value.
    pub fn filter_value(&self) -> i64 {
        self.f_x.value()
    }

    /// The second-level filter value `F_{Y[side]}` for the given
    /// first-level side (differential checkers compare both leaves).
    pub fn y_filter_value(&self, side: Side) -> i64 {
        self.f_y[side.index()].value()
    }

    /// The first-level mechanism (`X`).
    pub fn mechanism(&self) -> &Mechanism {
        &self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_roundtrips() {
        for i in 0..4 {
            let q = Quadrant::from_index(i);
            assert_eq!(q.index(), i);
            assert_eq!(Quadrant::from_sides(q.x(), q.y()), q);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quadrant_rejects_bad_index() {
        Quadrant::from_index(4);
    }

    #[test]
    fn quadrant_display() {
        assert_eq!(
            Quadrant::from_sides(Side::Plus, Side::Minus).to_string(),
            "(+-)"
        );
    }

    #[test]
    fn quadrant_packing_is_x_high_bit_y_low_bit() {
        // §3.6 cross-check: the packed index is
        // `sign(F_X) << 1 | sign(F_Y)` with Plus = 0, Minus = 1.
        assert_eq!(Quadrant::from_sides(Side::Plus, Side::Plus).index(), 0);
        assert_eq!(Quadrant::from_sides(Side::Plus, Side::Minus).index(), 1);
        assert_eq!(Quadrant::from_sides(Side::Minus, Side::Plus).index(), 2);
        assert_eq!(Quadrant::from_sides(Side::Minus, Side::Minus).index(), 3);
        for i in 0..4usize {
            let q = Quadrant::from_index(i);
            assert_eq!((q.x().index() << 1) | q.y().index(), i);
        }
    }

    #[test]
    fn odd_h_updates_x_even_h_updates_y_of_fx_sign() {
        // §3.6: "a sampled line with odd H(e) is processed by X, one
        // with even H(e) by Y[sign(F_X)]". With the full sampler,
        // H(e) = e mod 31. A second reference to a line yields
        // A_e = −∆ ≠ 0, which moves exactly one filter — revealing the
        // routing.
        //
        // e = 2 (even H) while F_X ≥ 0 must update F_Y[+] only.
        let mut s = Splitter4::new(Splitter4Config::default());
        s.on_reference(2);
        s.on_reference(2);
        assert_eq!(s.filter_value(), 0, "F_X must not move on even H");
        assert_ne!(s.y_filter_value(Side::Plus), 0, "F_Y[+] must move");
        assert_eq!(s.y_filter_value(Side::Minus), 0, "F_Y[−] must not move");

        // e = 1 (odd H) must update F_X only.
        let mut s = Splitter4::new(Splitter4Config::default());
        s.on_reference(1);
        s.on_reference(1);
        assert!(s.filter_value() < 0, "F_X must move on odd H");
        assert_eq!(s.y_filter_value(Side::Plus), 0);
        assert_eq!(s.y_filter_value(Side::Minus), 0);

        // With F_X < 0, even H routes to the other leaf: F_Y[−].
        s.on_reference(2);
        s.on_reference(2);
        assert_eq!(s.y_filter_value(Side::Plus), 0, "F_Y[+] must not move");
        assert_ne!(s.y_filter_value(Side::Minus), 0, "F_Y[−] must move");
    }

    #[test]
    fn circular_splits_four_ways() {
        // A large circular stream should spread over all four quadrants
        // and transition rarely once settled.
        let mut s = Splitter4::new(Splitter4Config::default());
        let n = 16_000u64;
        for t in 0..4_000_000u64 {
            s.on_reference(t % n);
        }
        // Steady state: classify each element by running one more lap
        // and recording the designated quadrant per reference.
        let mut counts = [0u64; 4];
        let before = s.stats().transitions;
        for t in 0..n {
            let q = s.on_reference(t % n);
            counts[q.index()] += 1;
        }
        let transitions = s.stats().transitions - before;
        let occupied = counts.iter().filter(|&&c| c > n / 16).count();
        assert!(
            occupied >= 3,
            "split uses only {occupied} quadrants: {counts:?}"
        );
        assert!(
            transitions <= 64,
            "{transitions} transitions in one settled lap"
        );
    }

    #[test]
    fn sampling_reduces_mechanism_traffic() {
        let mut full = Splitter4::new(Splitter4Config::default());
        let mut quarter = Splitter4::new(Splitter4Config {
            sampler: Sampler::quarter(),
            ..Splitter4Config::default()
        });
        for t in 0..100_000u64 {
            full.on_reference(t % 5000);
            quarter.on_reference(t % 5000);
        }
        assert_eq!(full.sampled_references(), 100_000);
        let frac = quarter.sampled_references() as f64 / 100_000.0;
        assert!((0.2..0.32).contains(&frac), "sampled fraction {frac}");
    }

    #[test]
    fn unsampled_lines_never_touch_the_table() {
        let mut s = Splitter4::new(Splitter4Config {
            sampler: Sampler::quarter(),
            ..Splitter4Config::default()
        });
        // Feed only lines with H(e) >= 8.
        let unsampled: Vec<u64> = (0..10_000u64)
            .filter(|&e| !Sampler::quarter().is_sampled(e))
            .collect();
        for &e in &unsampled {
            s.on_reference(e);
        }
        assert_eq!(s.sampled_references(), 0);
        let ts = s.table_stats();
        assert_eq!(ts.hits + ts.misses, 0);
    }

    #[test]
    fn l2_filtering_keeps_quadrant_stable() {
        let mut s = Splitter4::new(Splitter4Config::default());
        let q0 = s.on_reference_filtered(0, false);
        for t in 0..50_000u64 {
            let q = s.on_reference_filtered(t % 3000, false);
            assert_eq!(q, q0);
        }
        assert_eq!(s.stats().transitions, 0);
    }
}
