//! Random access within a hot region, with sequential runs and rare cold
//! excursions.
//!
//! This is the structure the paper identifies as *lacking splittability*
//! (§3.4): "There exists applications with random-like reference streams
//! (we observed such behavior on 164.gzip and 175.vpr for instance)."

use crate::access::Access;
use crate::addr::Addr;
use crate::rng::Rng;
use crate::workload::{InstrBudget, Workload};

use super::{region_base, CodeFeed};

/// Parameters of [`HotRandomWorkload`].
#[derive(Debug, Clone)]
pub struct HotRandomParams {
    /// Size of the hot region in bytes.
    pub hot_bytes: u64,
    /// Size of the cold region in bytes (0 disables excursions).
    pub cold_bytes: u64,
    /// Per-mille probability that an access starts a sequential run.
    pub seq_run_permille: u64,
    /// Mean sequential-run length in 64-byte lines.
    pub run_lines_mean: u64,
    /// Parts-per-million probability of a cold-region excursion.
    pub cold_ppm: u64,
    /// Per-mille fraction of data accesses that are stores.
    pub store_permille: u64,
    /// Mean instructions per data access, in 1/256ths.
    pub instr_per_access_x256: u64,
    /// Data region index (see [`region_base`]).
    pub region: u64,
    /// If non-zero, the hot region is a *sliding window*: its base
    /// advances by one line every `slide_every` data accesses (models
    /// gzip's dictionary window — compulsory misses dominate and the
    /// cached working set turns over continuously).
    pub slide_every: u64,
}

impl Default for HotRandomParams {
    fn default() -> Self {
        HotRandomParams {
            hot_bytes: 1 << 20,
            cold_bytes: 0,
            seq_run_permille: 100,
            run_lines_mean: 4,
            cold_ppm: 0,
            store_permille: 150,
            instr_per_access_x256: 3 * 256,
            region: 0,
            slide_every: 0,
        }
    }
}

/// A random-like reference stream: uniform accesses within a hot region,
/// short sequential runs, and rare excursions into a larger cold region.
#[derive(Debug, Clone)]
pub struct HotRandomWorkload {
    name: &'static str,
    params: HotRandomParams,
    rng: Rng,
    budget: InstrBudget,
    code: CodeFeed,
    /// Remaining lines of the current sequential run and its cursor.
    run: Option<(u64, u64)>,
    /// Current window base line (sliding mode) and accesses since the
    /// last slide step.
    window_base: u64,
    since_slide: u64,
}

impl HotRandomWorkload {
    /// Builds the workload. `rng` must already be forked per benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the hot region is smaller than one line.
    pub fn new(name: &'static str, params: HotRandomParams, rng: Rng) -> Self {
        assert!(params.hot_bytes >= 64, "hot region must hold a line");
        let budget = InstrBudget::new(params.instr_per_access_x256);
        HotRandomWorkload {
            name,
            params,
            rng,
            budget,
            code: CodeFeed::tiny_loop(32),
            run: None,
            window_base: 0,
            since_slide: 0,
        }
    }

    #[inline]
    fn hot_lines(&self) -> u64 {
        self.params.hot_bytes / 64
    }

    /// Byte address of the `line`-th line of the (possibly sliding)
    /// hot window.
    #[inline]
    fn hot_addr(&self, line: u64) -> u64 {
        region_base(self.params.region) + (self.window_base + line) * 64
    }

    #[inline(always)]
    fn data_addr(&mut self) -> u64 {
        if self.params.slide_every > 0 {
            self.since_slide += 1;
            if self.since_slide == self.params.slide_every {
                self.since_slide = 0;
                self.window_base += 1;
            }
        }
        if let Some((cursor, left)) = self.run {
            let addr = self.hot_addr(cursor);
            // `cursor < hot_lines` always, so a compare replaces the
            // per-access modulo.
            let mut next = cursor + 1;
            if next == self.hot_lines() {
                next = 0;
            }
            self.run = if left > 1 {
                Some((next, left - 1))
            } else {
                None
            };
            return addr;
        }
        if self.params.cold_bytes > 0 && self.rng.chance(self.params.cold_ppm, 1_000_000) {
            return self.cold_addr();
        }
        let line = self.rng.below(self.hot_lines());
        if self.rng.chance(self.params.seq_run_permille, 1000) {
            self.start_run(line);
        }
        self.hot_addr(line)
    }

    /// A cold excursion: the cold region lives past the hot region's
    /// maximum extent (window slides are bounded well below 1 GiB in
    /// any practical run).
    #[cold]
    #[inline(never)]
    fn cold_addr(&mut self) -> u64 {
        let base = region_base(self.params.region);
        let cold_lines = self.params.cold_bytes / 64;
        let line = (1 << 22) + self.rng.below(cold_lines);
        base + line * 64
    }

    /// Starts a sequential run just past `line`. Drawing the run's
    /// length loops, so it stays out of the per-access path.
    #[inline(never)]
    fn start_run(&mut self, line: u64) {
        let len = self.rng.burst_len(self.params.run_lines_mean);
        let mut start = line + 1;
        if start == self.hot_lines() {
            start = 0;
        }
        self.run = Some((start, len));
    }
}

impl Workload for HotRandomWorkload {
    fn name(&self) -> &str {
        self.name
    }

    // `always`, here and on `data_addr`: with a plain hint, LLVM keeps
    // these bodies out of line in both `fill_block` loops that run them
    // (this engine's and code-heavy's), and the RNG state goes through
    // memory per event.
    #[inline(always)]
    fn next_access(&mut self) -> Access {
        if let Some(f) = self.code.next_ifetch() {
            return f;
        }
        let addr = Addr::new(self.data_addr());
        let instrs = self.budget.step();
        self.code.charge(instrs);
        if self.rng.chance(self.params.store_permille, 1000) {
            Access::store(addr)
        } else {
            Access::load(addr)
        }
    }

    #[inline]
    fn instructions(&self) -> u64 {
        self.budget.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use std::collections::HashSet;

    fn run(params: HotRandomParams, n: usize) -> Vec<Access> {
        let mut w = HotRandomWorkload::new("t", params, Rng::seed_from(1));
        (0..n).map(|_| w.next_access()).collect()
    }

    /// Byte offset of the cold region within the data region.
    const COLD_OFFSET: u64 = (1 << 22) * 64;

    #[test]
    fn data_stays_in_region() {
        let p = HotRandomParams {
            hot_bytes: 1 << 16,
            cold_bytes: 1 << 20,
            cold_ppm: 100_000,
            ..HotRandomParams::default()
        };
        let accesses = run(p, 20_000);
        let base = region_base(0);
        let limit = region_base(1);
        for a in accesses.iter().filter(|a| a.kind.is_data()) {
            assert!(a.addr.raw() >= base && a.addr.raw() < limit);
        }
    }

    #[test]
    fn cold_excursions_happen_at_requested_rate() {
        let p = HotRandomParams {
            hot_bytes: 1 << 16,
            cold_bytes: 1 << 22,
            cold_ppm: 100_000,
            seq_run_permille: 0,
            ..HotRandomParams::default()
        };
        let accesses = run(p, 50_000);
        let base = region_base(0);
        let data: Vec<_> = accesses.iter().filter(|a| a.kind.is_data()).collect();
        let cold = data
            .iter()
            .filter(|a| a.addr.raw() >= base + COLD_OFFSET)
            .count();
        let frac = cold as f64 / data.len() as f64;
        assert!((0.07..0.13).contains(&frac), "cold fraction {frac}");
    }

    #[test]
    fn sliding_window_advances() {
        let p = HotRandomParams {
            hot_bytes: 1 << 14, // 256 lines
            slide_every: 10,
            seq_run_permille: 0,
            store_permille: 0,
            ..HotRandomParams::default()
        };
        let accesses = run(p, 40_000);
        let base = region_base(0);
        let data: Vec<u64> = accesses
            .iter()
            .filter(|a| a.kind.is_data())
            .map(|a| (a.addr.raw() - base) / 64)
            .collect();
        // After k accesses the window starts at k/10; early accesses
        // stay below 256, late ones must exceed it.
        let early_max = data[..100].iter().max().unwrap();
        let late_min = data[data.len() - 100..].iter().min().unwrap();
        assert!(*early_max < 256 + 10);
        assert!(*late_min > 256, "window did not slide: late min {late_min}");
    }

    #[test]
    fn stores_at_requested_rate() {
        let p = HotRandomParams {
            store_permille: 300,
            ..HotRandomParams::default()
        };
        let accesses = run(p, 50_000);
        let data: Vec<_> = accesses.iter().filter(|a| a.kind.is_data()).collect();
        let stores = data.iter().filter(|a| a.kind == AccessKind::Store).count();
        let frac = stores as f64 / data.len() as f64;
        assert!((0.25..0.35).contains(&frac), "store fraction {frac}");
    }

    #[test]
    fn covers_most_of_hot_region() {
        let p = HotRandomParams {
            hot_bytes: 1 << 14, // 256 lines
            ..HotRandomParams::default()
        };
        let accesses = run(p, 20_000);
        let distinct: HashSet<u64> = accesses
            .iter()
            .filter(|a| a.kind.is_data())
            .map(|a| a.addr.raw() / 64)
            .collect();
        assert!(distinct.len() > 200, "covered {} lines", distinct.len());
    }

    #[test]
    fn sequential_runs_produce_adjacent_lines() {
        let p = HotRandomParams {
            seq_run_permille: 1000,
            run_lines_mean: 8,
            store_permille: 0,
            ..HotRandomParams::default()
        };
        let accesses = run(p, 10_000);
        let lines: Vec<u64> = accesses
            .iter()
            .filter(|a| a.kind.is_data())
            .map(|a| a.addr.raw() / 64)
            .collect();
        let adjacent = lines
            .windows(2)
            .filter(|w| w[1] == w[0] + 1 || (w[1] + (1 << 20) / 64 == w[0] + 1))
            .count();
        assert!(
            adjacent * 2 > lines.len(),
            "only {adjacent} adjacent pairs out of {}",
            lines.len()
        );
    }

    #[test]
    fn deterministic() {
        let p = HotRandomParams::default();
        assert_eq!(run(p.clone(), 1000), run(p, 1000));
    }
}
