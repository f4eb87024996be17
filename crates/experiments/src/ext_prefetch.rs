//! §6 extension: combining prefetching and execution migration.
//!
//! "Execution migration is not intended to replace prefetching. …
//! much of the splittability we observed seems to come from circular
//! working-set behaviors on which prefetching is likely to succeed. It
//! is possible that execution migration, as a way to decrease L2
//! misses, is mostly interesting on applications using linked data
//! structures."
//!
//! The experiment runs each benchmark through the 2×2 grid
//! {no prefetch, sequential prefetch} × {1 core, 4 cores + migration}
//! and reports L2 misses per kilo-instruction. The paper's conjecture
//! shows up directly: sequential prefetching recovers most of art's
//! (array sweeps) migration benefit, but almost none of em3d's
//! (pointer chasing), where migration keeps its edge.

use execmig_machine::{Machine, MachineConfig, PrefetchConfig};
use execmig_trace::suite;

/// L2 misses per kilo-instruction in each of the four configurations.
#[derive(Debug, Clone)]
pub struct PrefetchRow {
    /// Benchmark.
    pub name: String,
    /// 1 core, no prefetch (Table 2 baseline).
    pub base: f64,
    /// 1 core, sequential prefetch.
    pub base_prefetch: f64,
    /// 4 cores + migration, no prefetch.
    pub migration: f64,
    /// 4 cores + migration + prefetch.
    pub both: f64,
}

execmig_obs::impl_to_json!(PrefetchRow {
    name,
    base,
    base_prefetch,
    migration,
    both
});

/// Runs one benchmark through the 2×2 grid at `degree`-deep prefetch:
/// the four machines replay one generated stream.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark.
pub fn run_benchmark(name: &str, degree: u32, instructions: u64) -> PrefetchRow {
    let prefetch = Some(PrefetchConfig { degree });
    let mut machines = [
        MachineConfig::single_core(),
        MachineConfig {
            prefetch,
            ..MachineConfig::single_core()
        },
        MachineConfig::four_core_migration(),
        MachineConfig {
            prefetch,
            ..MachineConfig::four_core_migration()
        },
    ]
    .map(Machine::new);
    let mut w = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    Machine::run_shared(&mut machines, &mut *w, instructions);
    let [base, base_prefetch, migration, both] = machines.each_ref().map(|m| {
        let s = m.stats();
        s.l2_misses as f64 * 1000.0 / s.instructions.max(1) as f64
    });
    PrefetchRow {
        name: name.to_string(),
        base,
        base_prefetch,
        migration,
        both,
    }
}

/// Renders the grid.
pub fn render(rows: &[PrefetchRow]) -> String {
    let mut t = crate::report::TextTable::new(&[
        "benchmark",
        "base",
        "prefetch",
        "migration",
        "both",
        "(L2 misses per kinstr)",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            format!("{:.2}", r.base),
            format!("{:.2}", r.base_prefetch),
            format!("{:.2}", r.migration),
            format!("{:.2}", r.both),
            String::new(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_recovers_sequential_benchmarks() {
        // art sweeps arrays: next-line prefetching removes most of its
        // L2 misses even on one core.
        let r = run_benchmark("art", 4, 10_000_000);
        assert!(
            r.base_prefetch < r.base * 0.5,
            "prefetch did nothing for art: {} -> {}",
            r.base,
            r.base_prefetch
        );
    }

    #[test]
    fn migration_beats_prefetch_on_pointer_chasing() {
        // em3d's ring is scattered: next-line prefetching helps only
        // partially (an address-neighbour must survive the thrashing L2
        // until its random traversal slot), while migration removes the
        // bulk of the misses — the paper's §6 conjecture.
        let r = run_benchmark("em3d", 4, 15_000_000);
        assert!(
            r.base_prefetch > r.base * 0.5,
            "next-line prefetch should not fix em3d: {} -> {}",
            r.base,
            r.base_prefetch
        );
        assert!(
            r.migration < r.base_prefetch * 0.5,
            "migration ({}) should beat prefetch ({}) on em3d",
            r.migration,
            r.base_prefetch
        );
    }
}
