//! Bring your own workload: implement [`Workload`] for a custom access
//! pattern and evaluate it on the migration machine.
//!
//! The example models a two-phase scientific kernel — a gather over a
//! large index array followed by a stencil sweep — and asks whether
//! execution migration would help it.
//!
//! Run with: `cargo run --release --example custom_workload`

use execution_migration::machine::{Machine, MachineConfig};
use execution_migration::trace::workload::InstrBudget;
use execution_migration::trace::{Access, Addr, Rng, Workload};

/// A gather/stencil kernel over ~1.6 MB of data: the stencil part is
/// circular (splittable), the gather part is random (not).
struct GatherStencil {
    rng: Rng,
    budget: InstrBudget,
    /// Stencil cursor over the grid.
    cursor: u64,
    /// True while in the stencil phase.
    in_stencil: bool,
    /// Accesses left in the current phase.
    phase_left: u64,
}

const GRID_BYTES: u64 = 1400 << 10;
const GRID_BASE: u64 = 1 << 33;
const STENCIL_PHASE: u64 = 1_500_000;
const GATHER_PHASE: u64 = 60_000;

impl GatherStencil {
    fn new(seed: u64) -> Self {
        GatherStencil {
            rng: Rng::seed_from(seed),
            budget: InstrBudget::per_access(3),
            cursor: 0,
            in_stencil: true,
            phase_left: STENCIL_PHASE,
        }
    }
}

impl Workload for GatherStencil {
    fn name(&self) -> &str {
        "gather_stencil"
    }

    fn next_access(&mut self) -> Access {
        self.budget.step();
        if self.phase_left == 0 {
            // Alternate phases: stencil -> gather -> stencil -> …
            self.in_stencil = !self.in_stencil;
            self.phase_left = if self.in_stencil {
                STENCIL_PHASE
            } else {
                GATHER_PHASE
            };
        }
        self.phase_left -= 1;
        let addr = if self.in_stencil {
            // Stencil: sequential sweep, wrapping at the grid end.
            let a = GRID_BASE + self.cursor;
            self.cursor = (self.cursor + 8) % GRID_BYTES;
            a
        } else {
            // Gather: random indexed reads over the same grid.
            GRID_BASE + self.rng.below(GRID_BYTES / 64) * 64
        };
        Access::load(Addr::new(addr))
    }

    fn instructions(&self) -> u64 {
        self.budget.total()
    }
}

fn main() {
    let instructions = 30_000_000u64;
    println!(
        "custom workload: 1.6 MB gather/stencil kernel, {} M instructions\n",
        instructions / 1_000_000
    );

    // Both machines replay one generated stream.
    let mut pair = [
        Machine::new(MachineConfig::single_core()),
        Machine::new(MachineConfig::four_core_migration()),
    ];
    Machine::run_shared(&mut pair, &mut GatherStencil::new(42), instructions, None);

    let [b, m] = pair.each_ref().map(Machine::stats);
    println!(
        "baseline : L2 miss every {:>6.0} instructions",
        b.instr_per_l2_miss()
    );
    println!(
        "migration: L2 miss every {:>6.0} instructions, migration every {:>8.0}",
        m.instr_per_l2_miss(),
        m.instr_per_migration()
    );
    let ratio = m.l2_miss_ratio(b);
    println!(
        "L2-miss ratio: {ratio:.2} ({}).",
        if ratio < 0.9 {
            "the stencil phase is splittable - migration helps"
        } else {
            "no benefit"
        }
    );
}
