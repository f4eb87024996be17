//! §6 extension: core-count scaling.
//!
//! "We have shown that this method works on 4-core configurations.
//! However, it works also on 2-core configurations, and we believe it
//! is possible to adapt it to a larger number of cores." This
//! experiment sweeps 1/2/4/8 cores (8-way splitting uses the third
//! recursion level of
//! [`SplitterTree`](execmig_core::SplitterTree)) and reports the
//! L2-miss ratio versus the single-core baseline.

use execmig_core::{ControllerConfig, SplitWays};
use execmig_machine::{Machine, MachineConfig};
use execmig_trace::suite;

/// Result of one (benchmark, cores) cell.
#[derive(Debug, Clone)]
pub struct CoreSweepPoint {
    /// Benchmark.
    pub name: String,
    /// Core count.
    pub cores: usize,
    /// L2-miss ratio versus the 1-core baseline (per instruction).
    pub ratio: f64,
    /// Instructions per migration.
    pub migration_ipe: f64,
    /// Instructions per L2 miss.
    pub l2_ipe: f64,
}

execmig_obs::impl_to_json!(CoreSweepPoint {
    name,
    cores,
    ratio,
    migration_ipe,
    l2_ipe
});

/// Builds the machine for a core count.
fn machine_for(cores: usize) -> Machine {
    let controller = match cores {
        1 => None,
        2 => Some(ControllerConfig {
            ways: SplitWays::Two,
            ..ControllerConfig::paper_4core()
        }),
        4 => Some(ControllerConfig::paper_4core()),
        8 => Some(ControllerConfig {
            ways: SplitWays::Eight,
            ..ControllerConfig::paper_4core()
        }),
        _ => panic!("unsupported core count {cores}"),
    };
    Machine::new(MachineConfig {
        cores,
        controller,
        ..MachineConfig::single_core()
    })
}

/// Sweeps core counts for one benchmark: one machine per count, all
/// replaying one generated stream. Ratios are against the first
/// count's machine.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark or a count is not 1, 2, 4
/// or 8.
pub fn sweep(name: &str, core_counts: &[usize], instructions: u64) -> Vec<CoreSweepPoint> {
    let mut machines: Vec<Machine> = core_counts.iter().map(|&c| machine_for(c)).collect();
    let mut w = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    Machine::run_shared(&mut machines, &mut *w, instructions, None);
    let Some(base) = machines.first().map(|m| *m.stats()) else {
        return Vec::new();
    };
    core_counts
        .iter()
        .zip(&machines)
        .map(|(&cores, machine)| {
            let s = machine.stats();
            CoreSweepPoint {
                name: name.to_string(),
                cores,
                ratio: s.l2_miss_ratio(&base),
                migration_ipe: s.instr_per_migration(),
                l2_ipe: s.instr_per_l2_miss(),
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(points: &[CoreSweepPoint]) -> String {
    let mut t = crate::report::TextTable::new(&[
        "benchmark",
        "cores",
        "L2-miss ratio",
        "L2 ipe",
        "migration ipe",
    ]);
    for p in points {
        t.row(&[
            p.name.clone(),
            p.cores.to_string(),
            crate::report::fmt_ratio(p.ratio),
            crate::report::fmt_ipe(p.l2_ipe),
            crate::report::fmt_ipe(p.migration_ipe),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_degree_must_make_subsets_fit() {
        // art's 1.5 MB circular set: 2-way halves are 768 KB — still
        // bigger than one 512 KB L2, so 2 cores give ~no benefit; the
        // 4-way quarters (384 KB) fit, and the misses collapse.
        let points = sweep("art", &[1, 2, 4], 15_000_000);
        assert!((points[0].ratio - 1.0).abs() < 1e-9);
        assert!(
            (0.85..=1.1).contains(&points[1].ratio),
            "2-core ratio {} — halves should still thrash",
            points[1].ratio
        );
        assert!(
            points[2].ratio < 0.3,
            "4-core ratio {} — quarters should fit",
            points[2].ratio
        );
    }

    #[test]
    fn eight_cores_run_end_to_end() {
        let points = sweep("em3d", &[1, 8], 10_000_000);
        assert_eq!(points[1].cores, 8);
        assert!(points[1].ratio < 0.9, "8-core ratio {}", points[1].ratio);
    }

    #[test]
    #[should_panic(expected = "unsupported core count")]
    fn rejects_bad_core_count() {
        sweep("art", &[3], 1000);
    }
}
