//! Instruction-fetch modelling.
//!
//! Two code models are provided:
//!
//! - a *tiny loop* used by data-dominated benchmarks (their code fits the
//!   16 KB IL1, matching the ≈0 IL1 miss counts of Table 1), and
//! - a *code walk* over a large footprint of functions with limited loop
//!   reuse, used by the code-heavy benchmarks (gcc, crafty, vortex whose
//!   IL1 miss densities rival or exceed their DL1 densities).
//!
//! [`CodeFeed`] converts retired-instruction counts into a stream of
//! instruction-fetch accesses at cache-line granularity: one `IFetch`
//! access per code line entered, assuming 8 instructions per 64-byte line
//! (PISA instructions are 8 bytes).

use crate::access::Access;
use crate::addr::Addr;
use crate::rng::Rng;
use crate::workload::{InstrBudget, Workload};

use super::hot_random::{HotRandomParams, HotRandomWorkload};
use super::CODE_BASE;

/// Instructions per 64-byte code line (8-byte PISA instructions).
const INSTRS_PER_LINE: u64 = 8;

/// Parameters of the large-footprint code walk.
#[derive(Debug, Clone)]
pub struct CodeWalkParams {
    /// Total code footprint in bytes.
    pub footprint_bytes: u64,
    /// Mean function length in code lines.
    pub func_lines_mean: u64,
    /// Fraction (per-mille) of control transfers that go to the hot
    /// subset of functions.
    pub hot_permille: u64,
    /// Size of the hot subset, as a per-mille fraction of all functions.
    pub hot_set_permille: u64,
    /// Mean number of times a function body re-executes before moving on
    /// (loop reuse). 1 means straight-line execution.
    pub loop_repeat_mean: u64,
}

impl Default for CodeWalkParams {
    fn default() -> Self {
        CodeWalkParams {
            footprint_bytes: 1 << 20,
            func_lines_mean: 12,
            hot_permille: 800,
            hot_set_permille: 100,
            loop_repeat_mean: 2,
        }
    }
}

#[derive(Debug, Clone)]
enum CodeModel {
    /// Sequential loop over `lines` lines starting at `CODE_BASE`.
    TinyLoop { lines: u64, pos: u64 },
    /// Function-granular walk over a large footprint.
    Walk {
        /// (start line, length in lines) per function.
        funcs: Vec<(u64, u64)>,
        hot_count: usize,
        params: CodeWalkParams,
        current: usize,
        pos: u64,
        repeats_left: u64,
        rng: Rng,
    },
}

/// Converts instruction counts into `IFetch` accesses.
#[derive(Debug, Clone)]
pub struct CodeFeed {
    model: CodeModel,
    credit: u64,
}

impl CodeFeed {
    /// A small loop of `lines` code lines; never misses a 16 KB IL1 once
    /// warm (keep `lines` ≤ 256).
    pub fn tiny_loop(lines: u64) -> Self {
        assert!(lines > 0, "loop must have at least one line");
        CodeFeed {
            model: CodeModel::TinyLoop { lines, pos: 0 },
            credit: 0,
        }
    }

    /// A large-footprint code walk.
    pub fn walk(params: CodeWalkParams, rng: &mut Rng) -> Self {
        assert!(params.footprint_bytes >= 64, "footprint must hold a line");
        assert!(params.func_lines_mean > 0);
        let total_lines = params.footprint_bytes / 64;
        let mut layout_rng = rng.fork(0xc0de);
        let mut funcs = Vec::new();
        let mut at = 0u64;
        while at < total_lines {
            let len = layout_rng
                .range(1, params.func_lines_mean * 2 + 1)
                .min(total_lines - at);
            funcs.push((at, len));
            at += len;
        }
        let hot_count = ((funcs.len() as u64 * params.hot_set_permille) / 1000).max(1) as usize;
        let walk_rng = rng.fork(0xc0de + 1);
        CodeFeed {
            model: CodeModel::Walk {
                funcs,
                hot_count,
                params,
                current: 0,
                pos: 0,
                repeats_left: 0,
                rng: walk_rng,
            },
            credit: 0,
        }
    }

    /// Credits `instrs` retired instructions toward future fetches.
    #[inline]
    pub fn charge(&mut self, instrs: u64) {
        self.credit += instrs;
    }

    /// Returns the next pending instruction fetch, if the credited
    /// instructions have crossed into a new code line.
    #[inline]
    pub fn next_ifetch(&mut self) -> Option<Access> {
        if self.credit < INSTRS_PER_LINE {
            return None;
        }
        self.credit -= INSTRS_PER_LINE;
        let line = match &mut self.model {
            CodeModel::TinyLoop { lines, pos } => {
                let l = *pos;
                // `pos < lines` always, so a compare replaces the
                // modulo — this runs once per code line entered.
                *pos += 1;
                if *pos == *lines {
                    *pos = 0;
                }
                l
            }
            CodeModel::Walk {
                funcs,
                hot_count,
                params,
                current,
                pos,
                repeats_left,
                rng,
            } => {
                let (start, len) = funcs[*current];
                let l = start + *pos;
                *pos += 1;
                if *pos >= len {
                    *pos = 0;
                    if *repeats_left > 0 {
                        *repeats_left -= 1;
                    } else {
                        (*current, *repeats_left) =
                            next_function(rng, params, *hot_count, funcs.len());
                    }
                }
                l
            }
        };
        Some(Access::ifetch(Addr::new(CODE_BASE + line * 64)))
    }
}

/// The code walk's move to another function: the callee's index and
/// how many more times its body repeats. Runs once per function body
/// walked, so it stays out of the per-fetch path.
#[inline(never)]
fn next_function(
    rng: &mut Rng,
    params: &CodeWalkParams,
    hot_count: usize,
    func_count: usize,
) -> (usize, u64) {
    let current = if rng.chance(params.hot_permille, 1000) {
        rng.below(hot_count as u64) as usize
    } else {
        rng.below(func_count as u64) as usize
    };
    (current, rng.burst_len(params.loop_repeat_mean) - 1)
}

/// Parameters of a code-heavy benchmark model: a big code walk plus a
/// data side modelled by [`HotRandomWorkload`].
#[derive(Debug, Clone)]
pub struct CodeHeavyParams {
    /// Stable benchmark name.
    pub name: &'static str,
    /// The instruction-side walk.
    pub code: CodeWalkParams,
    /// The data side.
    pub data: HotRandomParams,
    /// RNG seed.
    pub seed: u64,
}

/// A benchmark dominated by its instruction footprint (gcc, crafty,
/// vortex in Table 1).
#[derive(Debug, Clone)]
pub struct CodeHeavyWorkload {
    name: &'static str,
    code: CodeFeed,
    data: HotRandomWorkload,
    budget: InstrBudget,
}

impl CodeHeavyWorkload {
    /// Builds the workload from its parameters.
    pub fn new(params: CodeHeavyParams) -> Self {
        let mut rng = Rng::seed_from(params.seed);
        let code = CodeFeed::walk(params.code, &mut rng);
        let instr_x256 = params.data.instr_per_access_x256;
        let data = HotRandomWorkload::new(params.name, params.data, rng.fork(1));
        CodeHeavyWorkload {
            name: params.name,
            code,
            data,
            budget: InstrBudget::new(instr_x256),
        }
    }
}

impl Workload for CodeHeavyWorkload {
    fn name(&self) -> &str {
        self.name
    }

    #[inline]
    fn next_access(&mut self) -> Access {
        if let Some(f) = self.code.next_ifetch() {
            return f;
        }
        let a = self.data.next_access();
        let instrs = self.budget.step();
        self.code.charge(instrs);
        a
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

    #[test]
    fn tiny_loop_cycles_over_small_set() {
        let mut feed = CodeFeed::tiny_loop(4);
        feed.charge(INSTRS_PER_LINE * 10);
        let mut lines = Vec::new();
        while let Some(a) = feed.next_ifetch() {
            lines.push((a.addr.raw() - CODE_BASE) / 64);
        }
        assert_eq!(lines, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn feed_emits_one_fetch_per_code_line() {
        let mut feed = CodeFeed::tiny_loop(16);
        feed.charge(7);
        assert!(feed.next_ifetch().is_none(), "7 instrs < one line");
        feed.charge(1);
        assert!(feed.next_ifetch().is_some());
        assert!(feed.next_ifetch().is_none());
    }

    #[test]
    fn walk_stays_in_footprint() {
        let params = CodeWalkParams {
            footprint_bytes: 1 << 16,
            ..CodeWalkParams::default()
        };
        let mut rng = Rng::seed_from(5);
        let mut feed = CodeFeed::walk(params, &mut rng);
        feed.charge(100_000 * INSTRS_PER_LINE);
        let mut n = 0;
        while let Some(a) = feed.next_ifetch() {
            let line = (a.addr.raw() - CODE_BASE) / 64;
            assert!(line < (1 << 16) / 64);
            n += 1;
        }
        assert_eq!(n, 100_000);
    }

    #[test]
    fn walk_visits_many_distinct_lines() {
        let params = CodeWalkParams {
            footprint_bytes: 1 << 20,
            ..CodeWalkParams::default()
        };
        let mut rng = Rng::seed_from(6);
        let mut feed = CodeFeed::walk(params, &mut rng);
        feed.charge(200_000 * INSTRS_PER_LINE);
        let mut seen = std::collections::HashSet::new();
        while let Some(a) = feed.next_ifetch() {
            seen.insert(a.addr.raw());
        }
        // Footprint is 16k lines; a code-heavy walk should touch most.
        assert!(seen.len() > 4000, "only {} distinct code lines", seen.len());
    }

    #[test]
    fn code_heavy_interleaves_ifetch_and_data() {
        let params = CodeHeavyParams {
            name: "t",
            code: CodeWalkParams::default(),
            data: HotRandomParams {
                instr_per_access_x256: 4 * 256,
                ..HotRandomParams::default()
            },
            seed: 1,
        };
        let mut w = CodeHeavyWorkload::new(params);
        let mut ifetch = 0;
        let mut data = 0;
        for _ in 0..10_000 {
            match w.next_access().kind {
                AccessKind::IFetch => ifetch += 1,
                _ => data += 1,
            }
        }
        assert!(ifetch > 1000, "ifetch {ifetch}");
        assert!(data > 1000, "data {data}");
        assert!(w.instructions() > 0);
    }
}
