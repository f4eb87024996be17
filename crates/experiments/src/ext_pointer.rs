//! §6 extension: pointer-load filtering.
//!
//! "Pointer loads found in applications using linked data structures
//! generally have a high miss penalty. One could decide to restrict the
//! class of applications triggering migrations by having the transition
//! filter updated only on requests coming from pointer loads."
//!
//! With the filter restricted, pointer-chasing benchmarks keep their
//! benefit while benchmarks without pointer loads stop migrating
//! entirely — trading away any (possibly accidental) benefit for a
//! guarantee that migration costs are only paid where the expensive
//! misses are.

use execmig_core::ControllerConfig;
use execmig_machine::{Machine, MachineConfig, MachineStats};
use execmig_trace::suite;

/// Result of one benchmark under both filter settings.
#[derive(Debug, Clone)]
pub struct PointerFilterRow {
    /// Benchmark.
    pub name: String,
    /// L2-miss ratio without pointer filtering (the Table 2 setting).
    pub ratio_plain: f64,
    /// Migrations per million instructions without pointer filtering.
    pub migr_per_minstr_plain: f64,
    /// L2-miss ratio with pointer filtering.
    pub ratio_pointer: f64,
    /// Migrations per million instructions with pointer filtering.
    pub migr_per_minstr_pointer: f64,
}

execmig_obs::impl_to_json!(PointerFilterRow {
    name,
    ratio_plain,
    migr_per_minstr_plain,
    ratio_pointer,
    migr_per_minstr_pointer
});

/// Runs one benchmark with and without pointer filtering: the
/// single-core baseline and both four-core machines replay one
/// generated stream.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark.
pub fn run_benchmark(name: &str, instructions: u64) -> PointerFilterRow {
    let migration = |pointer_filter| {
        Machine::new(MachineConfig {
            controller: Some(ControllerConfig {
                pointer_filter,
                ..ControllerConfig::paper_4core()
            }),
            ..MachineConfig::four_core_migration()
        })
    };
    let mut machines = [
        Machine::new(MachineConfig::single_core()),
        migration(false),
        migration(true),
    ];
    let mut w = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    Machine::run_shared(&mut machines, &mut *w, instructions, None);
    let [baseline, plain, pointer] = machines.each_ref().map(Machine::stats);
    let migr = |m: &MachineStats| m.migrations as f64 * 1e6 / m.instructions.max(1) as f64;
    PointerFilterRow {
        name: name.to_string(),
        ratio_plain: plain.l2_miss_ratio(baseline),
        migr_per_minstr_plain: migr(plain),
        ratio_pointer: pointer.l2_miss_ratio(baseline),
        migr_per_minstr_pointer: migr(pointer),
    }
}

/// Renders the comparison.
pub fn render(rows: &[PointerFilterRow]) -> String {
    let mut t = crate::report::TextTable::new(&[
        "benchmark",
        "ratio (plain)",
        "migr/Minstr",
        "ratio (ptr-filter)",
        "migr/Minstr ",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            crate::report::fmt_ratio(r.ratio_plain),
            format!("{:.1}", r.migr_per_minstr_plain),
            crate::report::fmt_ratio(r.ratio_pointer),
            format!("{:.1}", r.migr_per_minstr_pointer),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_benchmark_keeps_benefit() {
        // em3d's traversal loads are pointer loads: filtering on them
        // must preserve the L2-miss reduction.
        let r = run_benchmark("em3d", 15_000_000);
        assert!(r.ratio_plain < 0.5, "plain {}", r.ratio_plain);
        assert!(r.ratio_pointer < 0.5, "pointer {}", r.ratio_pointer);
    }

    #[test]
    fn non_pointer_benchmark_stops_migrating() {
        // art is array code: no pointer loads, so the restricted filter
        // never moves and no migrations happen.
        let r = run_benchmark("art", 5_000_000);
        assert!(r.migr_per_minstr_plain > 0.0);
        assert_eq!(r.migr_per_minstr_pointer, 0.0, "{r:?}");
        // Without migrations the ratio returns to ~1.
        assert!(
            (0.9..=1.1).contains(&r.ratio_pointer),
            "pointer-filtered art ratio {}",
            r.ratio_pointer
        );
    }
}
