//! Repeated sequential sweeps over large arrays.
//!
//! At cache-line granularity this is precisely the paper's *Circular*
//! behaviour (§3.3) and models the loop-nest benchmarks: swim, mgrid,
//! art, ammp. A working set larger than one L2 but smaller than the
//! aggregate L2 capacity is the paper's best case for execution
//! migration (179.art: L2-miss ratio 0.03 in Table 2).

use crate::access::Access;
use crate::addr::Addr;
use crate::rng::Rng;
use crate::workload::{InstrBudget, Workload};

use super::{region_base, CodeFeed};

/// Parameters of [`SweepWorkload`].
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// Sizes of the arrays swept, in bytes, in sweep order.
    pub arrays: Vec<u64>,
    /// Access strides in bytes, cycled per full pass over all arrays
    /// (models multigrid-style level changes; use `[8]` for dense
    /// element-by-element sweeps).
    pub strides: Vec<u64>,
    /// Per-mille fraction of accesses that are stores.
    pub store_permille: u64,
    /// Mean instructions per data access, in 1/256ths.
    pub instr_per_access_x256: u64,
    /// Per-mille probability of an out-of-order random touch within the
    /// current array (models boundary/index accesses).
    pub noise_permille: u64,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            arrays: vec![1 << 20],
            strides: vec![8],
            store_permille: 200,
            instr_per_access_x256: 4 * 256,
            noise_permille: 0,
        }
    }
}

/// Sequential sweeps over a set of arrays, repeated forever.
#[derive(Debug, Clone)]
pub struct SweepWorkload {
    name: &'static str,
    params: SweepParams,
    /// Byte base of each array.
    bases: Vec<u64>,
    array: usize,
    offset: u64,
    pass: u64,
    /// `stride()` for the current pass, cached so the hot path does no
    /// modulo (see [`advance`](Self::advance)).
    cur_stride: u64,
    rng: Rng,
    budget: InstrBudget,
    code: CodeFeed,
}

impl SweepWorkload {
    /// Builds the workload; arrays are laid out in consecutive 1 GiB
    /// regions so they never alias.
    ///
    /// # Panics
    ///
    /// Panics if there are no arrays, an array is empty, or a stride is 0.
    pub fn new(name: &'static str, params: SweepParams, seed: u64) -> Self {
        assert!(!params.arrays.is_empty(), "need at least one array");
        assert!(
            params.arrays.iter().all(|&b| b >= 64),
            "arrays must hold a line"
        );
        assert!(!params.strides.is_empty(), "need at least one stride");
        assert!(params.strides.iter().all(|&s| s > 0), "strides must be > 0");
        let bases = (0..params.arrays.len() as u64).map(region_base).collect();
        let budget = InstrBudget::new(params.instr_per_access_x256);
        let cur_stride = params.strides[0];
        SweepWorkload {
            name,
            params,
            bases,
            array: 0,
            offset: 0,
            pass: 0,
            cur_stride,
            rng: Rng::seed_from(seed),
            budget,
            code: CodeFeed::tiny_loop(48),
        }
    }

    /// Total bytes across all arrays — the circular working-set size.
    pub fn working_set_bytes(&self) -> u64 {
        self.params.arrays.iter().sum()
    }

    fn stride(&self) -> u64 {
        self.params.strides[(self.pass as usize) % self.params.strides.len()]
    }

    #[inline]
    fn advance(&mut self) -> u64 {
        let size = self.params.arrays[self.array];
        let addr = self.bases[self.array] + self.offset;
        // `cur_stride` mirrors `stride()` but is refreshed only when
        // `pass` changes: the modulo indexing would otherwise cost an
        // integer division on every access.
        self.offset += self.cur_stride;
        if self.offset >= size {
            self.next_array();
        }
        addr
    }

    /// Moves the sweep to the start of the next array, wrapping to the
    /// next pass after the last. Runs once per array swept.
    #[cold]
    #[inline(never)]
    fn next_array(&mut self) {
        self.offset = 0;
        self.array += 1;
        if self.array == self.params.arrays.len() {
            self.array = 0;
            self.pass += 1;
            self.cur_stride = self.stride();
        }
    }
}

impl Workload for SweepWorkload {
    fn name(&self) -> &str {
        self.name
    }

    #[inline]
    fn next_access(&mut self) -> Access {
        if let Some(f) = self.code.next_ifetch() {
            return f;
        }
        let addr = if self.params.noise_permille > 0
            && self.rng.chance(self.params.noise_permille, 1000)
        {
            let size = self.params.arrays[self.array];
            self.bases[self.array] + self.rng.below(size / 64) * 64
        } else {
            self.advance()
        };
        let instrs = self.budget.step();
        self.code.charge(instrs);
        if self.params.store_permille > 0 && self.rng.chance(self.params.store_permille, 1000) {
            Access::store(Addr::new(addr))
        } else {
            Access::load(Addr::new(addr))
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

    fn lines_of(w: &mut SweepWorkload, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while out.len() < n {
            let a = w.next_access();
            if a.kind.is_data() {
                out.push(a.addr.raw() / 64);
            }
        }
        out
    }

    #[test]
    fn sweep_is_monotone_within_array() {
        let p = SweepParams {
            arrays: vec![1 << 16],
            strides: vec![64],
            store_permille: 0,
            noise_permille: 0,
            ..SweepParams::default()
        };
        let mut w = SweepWorkload::new("t", p, 1);
        let lines = lines_of(&mut w, 1024);
        for pair in lines.windows(2) {
            let wrap = pair[1] == lines[0];
            assert!(pair[1] == pair[0] + 1 || wrap, "{pair:?}");
        }
    }

    #[test]
    fn sweep_cycles_through_all_arrays() {
        let p = SweepParams {
            arrays: vec![1 << 12, 1 << 12, 1 << 12],
            strides: vec![64],
            store_permille: 0,
            ..SweepParams::default()
        };
        let mut w = SweepWorkload::new("t", p, 1);
        let lines = lines_of(&mut w, 64 * 3 + 1);
        // After sweeping three 64-line arrays we are back at the start.
        assert_eq!(lines[0], lines[64 * 3]);
        let distinct: std::collections::HashSet<u64> = lines.iter().copied().collect();
        assert_eq!(distinct.len(), 64 * 3);
    }

    #[test]
    fn strides_cycle_per_pass() {
        let p = SweepParams {
            arrays: vec![1 << 12],
            strides: vec![64, 128],
            store_permille: 0,
            ..SweepParams::default()
        };
        let mut w = SweepWorkload::new("t", p, 1);
        // First pass: 64 lines at stride 64; second: 32 lines at stride 128.
        let lines = lines_of(&mut w, 64 + 32 + 1);
        assert_eq!(lines[64], lines[0]);
        assert_eq!(lines[65], lines[0] + 2);
    }

    #[test]
    fn working_set_reports_total() {
        let p = SweepParams {
            arrays: vec![1 << 20, 1 << 21],
            ..SweepParams::default()
        };
        let w = SweepWorkload::new("t", p, 1);
        assert_eq!(w.working_set_bytes(), (1 << 20) + (1 << 21));
    }

    #[test]
    fn dense_stride_revisits_lines() {
        // With an 8-byte stride, 8 consecutive accesses share a line.
        let p = SweepParams {
            arrays: vec![1 << 12],
            strides: vec![8],
            store_permille: 0,
            ..SweepParams::default()
        };
        let mut w = SweepWorkload::new("t", p, 1);
        let lines = lines_of(&mut w, 16);
        assert_eq!(lines[0], lines[7]);
        assert_eq!(lines[8], lines[0] + 1);
    }

    #[test]
    #[should_panic(expected = "at least one array")]
    fn rejects_empty_arrays() {
        SweepWorkload::new(
            "t",
            SweepParams {
                arrays: vec![],
                ..SweepParams::default()
            },
            1,
        );
    }
}
