//! The migration controller (§2.2, §3).
//!
//! "The migration controller monitors all the L1-miss requests issued
//! from the active processor, and it bases its decisions on current and
//! past requests." Each monitored request updates the affinity
//! mechanisms; the designated subset maps one-to-one onto a core, and a
//! change of designated core is a migration request.
//!
//! With *L2 filtering* (§3.4) the transition filters are updated only on
//! requests that miss the active L2, "so a migration can happen only
//! upon a L2 miss".

use crate::mechanism::{DeltaMode, SignMode};
use crate::sampler::Sampler;
use crate::splitter2::SplitterStats;
use crate::table::{AnyAffinityTable, SkewedAffinityCache, TableStats, UnboundedAffinityTable};
use crate::tree::{SplitterTree, SplitterTreeConfig};
use execmig_obs::Histogram;

/// Degree of working-set splitting (= number of cores used), one
/// [`SplitterTree`] level per doubling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitWays {
    /// 2-way splitting (2-core machine): one level.
    Two,
    /// 4-way recursive splitting (the paper's 4-core machine): two
    /// levels.
    Four,
    /// 8-way splitting, the §6 "larger number of cores" extension:
    /// three levels.
    Eight,
}

impl SplitWays {
    /// Number of subsets/cores.
    pub const fn count(self) -> usize {
        match self {
            SplitWays::Two => 2,
            SplitWays::Four => 4,
            SplitWays::Eight => 8,
        }
    }

    /// Levels of the splitter tree.
    pub const fn depth(self) -> u32 {
        self.count().trailing_zeros()
    }
}

/// Affinity-cache sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableConfig {
    /// Unlimited storage (§4.1).
    Unbounded,
    /// Finite skewed-associative cache (§4.2: 8k entries, 4 ways).
    Skewed {
        /// Total entries.
        entries: u64,
        /// Associativity.
        ways: u32,
    },
}

/// Configuration of a [`MigrationController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// 2-, 4- or 8-way splitting.
    pub ways: SplitWays,
    /// Bits of the affinity values (paper: 16).
    pub affinity_bits: u32,
    /// `|R_X|` (paper: 128). Each level below halves it (`|R_Y|` = 64,
    /// `|R_Z|` = 32); the last level's window must hold at least 8.
    pub r_window_x: usize,
    /// Transition-filter width.
    pub filter_bits: u32,
    /// Working-set sampling.
    pub sampler: Sampler,
    /// Affinity-cache sizing.
    pub table: TableConfig,
    /// Update transition filters only on L2 misses (§3.4 "L2
    /// filtering").
    pub l2_filter: bool,
    /// §6 extension: update transition filters only on requests coming
    /// from *pointer loads* ("restrict the class of applications
    /// triggering migrations"). Off in the paper's main configuration.
    pub pointer_filter: bool,
    /// Sign source for the `∆` updates.
    pub sign_mode: SignMode,
    /// Bounding of `∆` and the stored values.
    pub delta_mode: DeltaMode,
}

impl ControllerConfig {
    /// The §4.2 machine configuration: 4-way splitting, 8k-entry 4-way
    /// skewed affinity cache, 25 % sampling, 18-bit filters, L2
    /// filtering, `|R_X|` = 128.
    pub fn paper_4core() -> Self {
        ControllerConfig {
            ways: SplitWays::Four,
            affinity_bits: 16,
            r_window_x: 128,
            filter_bits: 18,
            sampler: Sampler::quarter(),
            table: TableConfig::Skewed {
                entries: 8 << 10,
                ways: 4,
            },
            l2_filter: true,
            pointer_filter: false,
            sign_mode: SignMode::TrueSum,
            delta_mode: DeltaMode::Wide,
        }
    }

    /// The §4.1 stack-profile configuration: 4-way splitting, unlimited
    /// affinity cache, every line sampled, 20-bit filters, no L2
    /// filtering.
    pub fn paper_stack_profile() -> Self {
        ControllerConfig {
            ways: SplitWays::Four,
            affinity_bits: 16,
            r_window_x: 128,
            filter_bits: 20,
            sampler: Sampler::full(),
            table: TableConfig::Unbounded,
            l2_filter: false,
            pointer_filter: false,
            sign_mode: SignMode::TrueSum,
            delta_mode: DeltaMode::Wide,
        }
    }

    fn build_table(&self) -> AnyAffinityTable {
        match self.table {
            TableConfig::Unbounded => AnyAffinityTable::Unbounded(UnboundedAffinityTable::new()),
            TableConfig::Skewed { entries, ways } => {
                AnyAffinityTable::Skewed(SkewedAffinityCache::new(entries, ways))
            }
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::paper_4core()
    }
}

/// Counters exposed by the controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// L1-miss requests monitored.
    pub requests: u64,
    /// Requests flagged as L2 misses.
    pub l2_misses: u64,
    /// Times the designated core changed (= migration requests).
    pub migrations: u64,
}

/// The migration controller: monitors L1-miss requests and designates
/// the core that should execute.
///
/// ```
/// use execmig_core::{ControllerConfig, MigrationController};
/// let mut mc = MigrationController::new(ControllerConfig::paper_4core());
/// let core = mc.on_request(0x1000, true);
/// assert!(core < 4);
/// assert_eq!(mc.stats().requests, 1);
/// ```
#[derive(Debug)]
pub struct MigrationController {
    config: ControllerConfig,
    /// Designates the core: its subsets are the cores, its references
    /// the requests and its transitions the migrations.
    splitter: SplitterTree<AnyAffinityTable>,
    /// Requests flagged as L2 misses.
    l2_misses: u64,
    /// Monitored requests between designated-core changes.
    dwell: Histogram,
    /// The request count at the last designated-core change.
    last_change_request: u64,
}

impl MigrationController {
    /// Builds a controller.
    ///
    /// # Panics
    ///
    /// Panics on invalid widths, on an `r_window_x` below
    /// `8 << (depth − 1)` or on invalid table geometry (see
    /// [`SplitterTree::with_table`] and [`SkewedAffinityCache::new`]).
    pub fn new(config: ControllerConfig) -> Self {
        let splitter = SplitterTree::with_table(
            SplitterTreeConfig {
                depth: config.ways.depth(),
                affinity_bits: config.affinity_bits,
                r_window_top: config.r_window_x,
                filter_bits: config.filter_bits,
                sampler: config.sampler,
                sign_mode: config.sign_mode,
                delta_mode: config.delta_mode,
            },
            config.build_table(),
        );
        MigrationController {
            config,
            splitter,
            l2_misses: 0,
            dwell: Histogram::new(),
            last_change_request: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Number of cores the controller schedules over.
    pub fn cores(&self) -> usize {
        self.config.ways.count()
    }

    /// Processes an L1-miss request for `line`. `l2_miss` says whether
    /// the request missed the active core's L2 (relevant under L2
    /// filtering). Returns the core that should execute next.
    ///
    /// Requests are treated as pointer loads (the permissive default);
    /// use [`on_request_tagged`](Self::on_request_tagged) when the
    /// request's origin is known and pointer filtering is configured.
    pub fn on_request(&mut self, line: u64, l2_miss: bool) -> usize {
        self.on_request_tagged(line, l2_miss, true)
    }

    /// Like [`on_request`](Self::on_request), with the request's
    /// pointer-load origin. Under [`ControllerConfig::pointer_filter`],
    /// only pointer-load requests may update the transition filters.
    pub fn on_request_tagged(&mut self, line: u64, l2_miss: bool, pointer: bool) -> usize {
        if l2_miss {
            self.l2_misses += 1;
        }
        let update_filter =
            (!self.config.l2_filter || l2_miss) && (!self.config.pointer_filter || pointer);
        if self.splitter.advance(line, update_filter) {
            let requests = self.splitter.stats().references;
            self.dwell.observe(requests - self.last_change_request);
            self.last_change_request = requests;
        }
        let core = self.splitter.current_subset();
        debug_assert!(
            core < self.cores(),
            "I107: designated core {core} out of range for {}-way splitting",
            self.cores()
        );
        debug_assert!(
            self.dwell.count() == self.splitter.stats().transitions,
            "I107: dwell samples ({}) must match migrations ({})",
            self.dwell.count(),
            self.splitter.stats().transitions
        );
        core
    }

    /// The core currently designated: the splitter's sign-path.
    pub fn current_core(&self) -> usize {
        self.splitter.current_subset()
    }

    /// Controller counters.
    pub fn stats(&self) -> ControllerStats {
        let s = self.splitter.stats();
        ControllerStats {
            requests: s.references,
            l2_misses: self.l2_misses,
            migrations: s.transitions,
        }
    }

    /// Splitter-level transition statistics.
    pub fn splitter_stats(&self) -> SplitterStats {
        self.splitter.stats()
    }

    /// Affinity-table statistics.
    pub fn table_stats(&self) -> TableStats {
        self.splitter.table_stats()
    }

    /// How many monitored requests the controller dwells on a core
    /// before moving: the distribution of distances between
    /// designated-core changes (§3.4's filter dwell time).
    pub fn dwell_histogram(&self) -> &Histogram {
        &self.dwell
    }

    /// Age-at-eviction histogram of the affinity cache; `None` when the
    /// table is unbounded (it never evicts).
    pub fn affinity_age_histogram(&self) -> Option<&Histogram> {
        self.splitter.table().age_at_eviction()
    }

    /// The top-level transition filter's current `F` value (`F_X`), the
    /// quantity whose sign flips drive migrations (§3.4).
    pub fn filter_value(&self) -> i64 {
        self.splitter.filter_value()
    }

    /// The top-level mechanism's current window sum `A_R` (§3.2).
    pub fn ar(&self) -> i64 {
        self.splitter.mechanism().ar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_core_controller_schedules_in_range() {
        let mut mc = MigrationController::new(ControllerConfig::paper_4core());
        for t in 0..10_000u64 {
            let core = mc.on_request(t % 3000, t % 7 == 0);
            assert!(core < 4);
        }
        assert_eq!(mc.stats().requests, 10_000);
    }

    #[test]
    fn two_way_controller_uses_two_cores() {
        let cfg = ControllerConfig {
            ways: SplitWays::Two,
            ..ControllerConfig::paper_4core()
        };
        let mut mc = MigrationController::new(cfg);
        assert_eq!(mc.cores(), 2);
        for t in 0..10_000u64 {
            assert!(mc.on_request(t % 3000, true) < 2);
        }
    }

    #[test]
    fn two_way_controller_honours_its_sampler() {
        // §3.5 samples the working set whatever the split degree: only
        // lines with H(e) < 8 reach the affinity cache.
        let mut mc = MigrationController::new(ControllerConfig {
            ways: SplitWays::Two,
            ..ControllerConfig::paper_4core()
        });
        let sampler = Sampler::quarter();
        let mut sampled = 0u64;
        for t in 0..10_000u64 {
            let line = t % 3000;
            sampled += u64::from(sampler.is_sampled(line));
            mc.on_request(line, true);
        }
        let ts = mc.table_stats();
        assert_eq!(ts.hits + ts.misses, sampled);
        assert!(sampled < 3_000, "quarter sampling kept {sampled} of 10000");
    }

    #[test]
    #[should_panic(expected = "r_window_top must be at least 8 << (depth - 1) = 32, got 16")]
    fn eight_way_controller_rejects_a_short_top_window() {
        // Halving 16 twice would leave the last level a 4-entry window.
        MigrationController::new(ControllerConfig {
            ways: SplitWays::Eight,
            r_window_x: 16,
            ..ControllerConfig::paper_4core()
        });
    }

    #[test]
    fn l2_filtering_blocks_migrations_without_l2_misses() {
        let mut mc = MigrationController::new(ControllerConfig::paper_4core());
        for t in 0..100_000u64 {
            mc.on_request(t % 3000, false);
        }
        assert_eq!(mc.stats().migrations, 0, "migrated despite no L2 misses");
    }

    #[test]
    fn without_l2_filtering_migrations_happen_on_circular() {
        let cfg = ControllerConfig {
            l2_filter: false,
            table: TableConfig::Unbounded,
            sampler: Sampler::full(),
            filter_bits: 14,
            ..ControllerConfig::paper_4core()
        };
        let mut mc = MigrationController::new(cfg);
        for t in 0..2_000_000u64 {
            mc.on_request(t % 16_000, false);
        }
        assert!(mc.stats().migrations > 0, "no migrations on circular");
    }

    #[test]
    fn migration_count_matches_core_changes() {
        let mut mc = MigrationController::new(ControllerConfig {
            l2_filter: false,
            ..ControllerConfig::paper_stack_profile()
        });
        let mut last = mc.current_core();
        let mut changes = 0u64;
        for t in 0..500_000u64 {
            let core = mc.on_request(t % 20_000, true);
            if core != last {
                changes += 1;
                last = core;
            }
        }
        assert_eq!(mc.stats().migrations, changes);
    }

    #[test]
    fn dwell_histogram_tracks_migrations() {
        let mut mc = MigrationController::new(ControllerConfig {
            l2_filter: false,
            ..ControllerConfig::paper_stack_profile()
        });
        for t in 0..500_000u64 {
            mc.on_request(t % 20_000, true);
        }
        let dwell = mc.dwell_histogram();
        assert_eq!(
            dwell.count(),
            mc.stats().migrations,
            "one dwell sample per migration"
        );
        assert!(dwell.sum() <= mc.stats().requests, "dwell exceeds requests");
        assert!(dwell.count() > 0, "stream must migrate");
        // Unbounded table: no eviction ages.
        assert!(mc.affinity_age_histogram().is_none());
    }

    #[test]
    fn skewed_controller_exposes_eviction_ages() {
        let mut mc = MigrationController::new(ControllerConfig {
            table: TableConfig::Skewed {
                entries: 64,
                ways: 4,
            },
            sampler: Sampler::full(),
            ..ControllerConfig::paper_4core()
        });
        for t in 0..50_000u64 {
            mc.on_request(t % 10_000, true);
        }
        let ages = mc.affinity_age_histogram().expect("skewed table");
        assert!(ages.count() > 0, "thrashing cache must evict");
    }

    #[test]
    fn table_stats_reflect_config() {
        let mut small = MigrationController::new(ControllerConfig {
            table: TableConfig::Skewed {
                entries: 64,
                ways: 4,
            },
            sampler: Sampler::full(),
            ..ControllerConfig::paper_4core()
        });
        for t in 0..50_000u64 {
            small.on_request(t % 10_000, true);
        }
        assert!(
            small.table_stats().miss_rate() > 0.3,
            "tiny affinity cache should thrash: {:?}",
            small.table_stats()
        );
    }
}
