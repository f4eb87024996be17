//! Block-phased behaviour: repeated passes over one block, then a phase
//! change to the next block (256.bzip2's block-sorting compression).
//!
//! Each block is revisited several times (sort passes, move-to-front,
//! entropy coding), producing a circular working set that fits the
//! aggregate L2 but not a single one — hence bzip2's 0.35 L2-miss ratio
//! in Table 2 — punctuated by phase changes when the next block starts.

use crate::access::Access;
use crate::addr::Addr;
use crate::rng::Rng;
use crate::workload::{InstrBudget, Workload};

use super::{region_base, CodeFeed};

/// Parameters of [`BlockPhaseWorkload`].
#[derive(Debug, Clone)]
pub struct BlockPhaseParams {
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Number of distinct blocks cycled through.
    pub blocks: u64,
    /// Sequential-ish passes over a block before moving on.
    pub passes_per_block: u64,
    /// Per-mille probability that a step is a random touch within the
    /// block (suffix-sorting comparisons) rather than sequential.
    pub random_permille: u64,
    /// Per-mille fraction of accesses that are stores.
    pub store_permille: u64,
    /// Mean instructions per data access, in 1/256ths.
    pub instr_per_access_x256: u64,
    /// Access stride in bytes during sequential portions.
    pub stride: u64,
}

impl Default for BlockPhaseParams {
    fn default() -> Self {
        BlockPhaseParams {
            block_bytes: 900 << 10,
            blocks: 8,
            passes_per_block: 6,
            random_permille: 250,
            store_permille: 250,
            instr_per_access_x256: 3 * 256,
            stride: 16,
        }
    }
}

/// Repeated mixed sequential/random passes over a block, then the next.
#[derive(Debug, Clone)]
pub struct BlockPhaseWorkload {
    name: &'static str,
    params: BlockPhaseParams,
    block: u64,
    pass: u64,
    offset: u64,
    rng: Rng,
    budget: InstrBudget,
    code: CodeFeed,
}

impl BlockPhaseWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if a block is smaller than a line, there are no blocks or
    /// passes, or the stride is 0.
    pub fn new(name: &'static str, params: BlockPhaseParams, seed: u64) -> Self {
        assert!(params.block_bytes >= 64, "block must hold a line");
        assert!(params.blocks > 0, "need at least one block");
        assert!(params.passes_per_block > 0, "need at least one pass");
        assert!(params.stride > 0, "stride must be > 0");
        let budget = InstrBudget::new(params.instr_per_access_x256);
        BlockPhaseWorkload {
            name,
            params,
            block: 0,
            pass: 0,
            offset: 0,
            rng: Rng::seed_from(seed),
            budget,
            code: CodeFeed::tiny_loop(64),
        }
    }

    /// The byte base of the block currently being processed.
    #[inline]
    pub fn current_block_base(&self) -> u64 {
        // Blocks live in one region, spaced a block apart.
        region_base(0) + self.block * self.params.block_bytes
    }

    #[inline]
    fn next_data_addr(&mut self) -> u64 {
        let base = self.current_block_base();
        if self.rng.chance(self.params.random_permille, 1000) {
            return base + self.rng.below(self.params.block_bytes / 64) * 64;
        }
        let addr = base + self.offset;
        self.offset += self.params.stride;
        if self.offset >= self.params.block_bytes {
            self.next_pass();
        }
        addr
    }

    /// Starts the next pass over the block, moving to the next block
    /// after the last pass. Runs once per pass.
    #[cold]
    #[inline(never)]
    fn next_pass(&mut self) {
        self.offset = 0;
        self.pass += 1;
        if self.pass == self.params.passes_per_block {
            self.pass = 0;
            self.block = (self.block + 1) % self.params.blocks;
        }
    }
}

impl Workload for BlockPhaseWorkload {
    fn name(&self) -> &str {
        self.name
    }

    #[inline]
    fn next_access(&mut self) -> Access {
        if let Some(f) = self.code.next_ifetch() {
            return f;
        }
        let addr = Addr::new(self.next_data_addr());
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

    fn data_addrs(w: &mut BlockPhaseWorkload, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while out.len() < n {
            let a = w.next_access();
            if a.kind.is_data() {
                out.push(a.addr.raw());
            }
        }
        out
    }

    #[test]
    fn stays_within_current_block_until_phase_change() {
        let p = BlockPhaseParams {
            block_bytes: 1 << 14,
            blocks: 4,
            passes_per_block: 2,
            random_permille: 500,
            stride: 64,
            ..BlockPhaseParams::default()
        };
        let mut w = BlockPhaseWorkload::new("t", p, 1);
        let base0 = w.current_block_base();
        // The first sequential pass has 256 steps; with 50% random mixed
        // in, the first ~300 accesses are certainly in block 0.
        for addr in data_addrs(&mut w, 300) {
            assert!(
                (base0..base0 + (1 << 14)).contains(&addr),
                "{addr:#x} escaped block 0"
            );
        }
    }

    #[test]
    fn phases_advance_through_blocks_and_wrap() {
        let p = BlockPhaseParams {
            block_bytes: 1 << 12,
            blocks: 3,
            passes_per_block: 1,
            random_permille: 0,
            stride: 64,
            store_permille: 0,
            ..BlockPhaseParams::default()
        };
        let mut w = BlockPhaseWorkload::new("t", p, 1);
        let addrs = data_addrs(&mut w, 64 * 3 + 1);
        let blocks: Vec<u64> = addrs
            .iter()
            .map(|a| (a - region_base(0)) / (1 << 12))
            .collect();
        assert_eq!(blocks[0], 0);
        assert_eq!(blocks[64], 1);
        assert_eq!(blocks[128], 2);
        assert_eq!(blocks[192], 0, "should wrap to block 0");
    }

    #[test]
    fn random_touches_stay_in_block() {
        let p = BlockPhaseParams {
            block_bytes: 1 << 13,
            blocks: 1,
            random_permille: 1000,
            ..BlockPhaseParams::default()
        };
        let mut w = BlockPhaseWorkload::new("t", p, 2);
        let base = w.current_block_base();
        for addr in data_addrs(&mut w, 5000) {
            assert!((base..base + (1 << 13)).contains(&addr));
        }
    }

    #[test]
    fn deterministic() {
        let p = BlockPhaseParams::default();
        let mut a = BlockPhaseWorkload::new("t", p.clone(), 9);
        let mut b = BlockPhaseWorkload::new("t", p, 9);
        for _ in 0..2000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn rejects_zero_blocks() {
        BlockPhaseWorkload::new(
            "t",
            BlockPhaseParams {
                blocks: 0,
                ..BlockPhaseParams::default()
            },
            1,
        );
    }
}
