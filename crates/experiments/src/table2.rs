//! Table 2: the four-core 512 KB-L2 experiment.
//!
//! For each benchmark, two runs over the identical reference stream:
//! a single-core baseline (columns "L1 miss" and "L2 miss") and the
//! four-core migration machine (§4.2 configuration: 8k-entry 4-way
//! skewed affinity cache, 25 % sampling, 18-bit transition filters,
//! `|R_X|`=128, `|R_Y|`=64, L2 filtering). All quantities are reported
//! as instructions per event, higher is better; the "ratio" column is
//! the migration run's L2 misses relative to the baseline's (per
//! instruction) — below 1 means execution migration removed L2 misses.

use execmig_machine::{Machine, MachineConfig, Protocol};
use execmig_trace::suite;

use crate::runner::{Obs, ObsCtx};

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// SPEC2000 or Olden.
    pub class: String,
    /// Instructions simulated.
    pub instructions: u64,
    /// Instructions per L1-miss request (baseline).
    pub l1_ipe: f64,
    /// Instructions per L2 miss (baseline single core).
    pub l2_ipe: f64,
    /// Instructions per L2 miss with migrations ("4xL2").
    pub l2x4_ipe: f64,
    /// L2-miss ratio (migration / baseline, per instruction).
    pub ratio: f64,
    /// Instructions per migration.
    pub migration_ipe: f64,
    /// Raw migration count.
    pub migrations: u64,
    /// The ratio the paper reports for the namesake benchmark.
    pub paper_ratio: f64,
    /// Affinity-cache miss rate in the migration run.
    pub affinity_miss_rate: f64,
    /// L2-to-L2 modified-line forwards in the migration run.
    pub l2_forwards: u64,
    /// Update-bus bytes per instruction in the migration run.
    pub bus_bytes_per_instr: f64,
}

execmig_obs::impl_to_json!(Table2Row {
    name,
    class,
    instructions,
    l1_ipe,
    l2_ipe,
    l2x4_ipe,
    ratio,
    migration_ipe,
    migrations,
    paper_ratio,
    affinity_miss_rate,
    l2_forwards,
    bus_bytes_per_instr
});

/// Runs one benchmark at the given instruction budget.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark.
pub fn run_benchmark(name: &str, instructions: u64) -> Table2Row {
    run_benchmark_with(name, instructions, Protocol::MigrationMode, None)
}

/// As [`run_benchmark`], with the four-core machine running the given
/// L2 coherence backend instead of migration mode's (the single-core
/// baseline is protocol-independent), and with live telemetry beats
/// from the four-core machine when an [`ObsCtx`] is present. Both
/// machines replay one generated stream (`Machine::run_shared`); the
/// beats only read counters, so the row is the same with telemetry on
/// or off.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark.
pub fn run_benchmark_with(
    name: &str,
    instructions: u64,
    protocol: Protocol,
    ctx: Option<&ObsCtx<'_>>,
) -> Table2Row {
    let info = suite::info(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut machines = [
        Machine::new(MachineConfig::single_core()),
        Machine::new(MachineConfig {
            protocol,
            ..MachineConfig::four_core_migration()
        }),
    ];
    let mut w = suite::by_name(name).expect("suite benchmark");
    Machine::run_shared(&mut machines, &mut *w, instructions, ctx);

    let [baseline, migration] = &machines;
    let b = baseline.stats();
    let m = migration.stats();
    Table2Row {
        name: name.to_string(),
        class: info.class.to_string(),
        instructions: m.instructions,
        l1_ipe: b.instr_per_l1_miss(),
        l2_ipe: b.instr_per_l2_miss(),
        l2x4_ipe: m.instr_per_l2_miss(),
        ratio: m.l2_miss_ratio(b),
        migration_ipe: m.instr_per_migration(),
        migrations: m.migrations,
        paper_ratio: info.paper_ratio,
        affinity_miss_rate: migration
            .controller()
            .map(|c| c.table_stats().miss_rate())
            .unwrap_or(0.0),
        l2_forwards: m.l2_to_l2_forwards,
        bus_bytes_per_instr: m.bus.update_bus_bytes() as f64 / m.instructions.max(1) as f64,
    }
}

/// Runs the whole suite on `threads` workers under the given L2
/// coherence backend, with live observability into `obs` (hub beats
/// and/or wall-clock spans, when given; [`Obs::none`] for neither).
pub fn run_all(
    instructions: u64,
    threads: usize,
    protocol: Protocol,
    obs: Obs<'_>,
) -> Vec<Table2Row> {
    crate::runner::parallel_map_observed(suite::names(), threads, obs, |name, ctx| {
        run_benchmark_with(name, instructions, protocol, ctx.as_ref())
    })
    .0
}

/// Renders rows as the paper's Table 2, plus the paper's own ratio for
/// comparison.
pub fn render(rows: &[Table2Row]) -> String {
    use crate::report::{fmt_ipe, fmt_ratio};
    let mut t = crate::report::TextTable::new(&[
        "benchmark",
        "L1 miss",
        "L2 miss",
        "4xL2 miss",
        "ratio",
        "paper",
        "migration",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            fmt_ipe(r.l1_ipe),
            fmt_ipe(r.l2_ipe),
            fmt_ipe(r.l2x4_ipe),
            fmt_ratio(r.ratio),
            fmt_ratio(r.paper_ratio),
            fmt_ipe(r.migration_ipe),
        ]);
    }
    t.render()
}

/// Classifies a measured ratio the way the suite metadata does.
pub fn classify(ratio: f64) -> &'static str {
    if !ratio.is_finite() {
        "n/a"
    } else if ratio < 0.9 {
        "improves"
    } else if ratio <= 1.02 {
        "neutral"
    } else {
        "degrades"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Classification smoke tests at a modest budget; the full-budget
    // sweep lives in the integration tests and the `table2` binary.
    #[test]
    fn art_improves() {
        let r = run_benchmark("art", 10_000_000);
        assert!(r.ratio < 0.5, "art ratio {}", r.ratio);
        assert!(r.migrations > 0);
    }

    #[test]
    fn swim_is_neutral() {
        let r = run_benchmark("swim", 5_000_000);
        assert!((0.95..=1.05).contains(&r.ratio), "swim ratio {}", r.ratio);
    }

    #[test]
    fn bh_degrades() {
        let r = run_benchmark("bh", 20_000_000);
        assert!(r.ratio > 1.1, "bh ratio {}", r.ratio);
    }

    #[test]
    fn classify_bands() {
        assert_eq!(classify(0.1), "improves");
        assert_eq!(classify(1.0), "neutral");
        assert_eq!(classify(1.6), "degrades");
        assert_eq!(classify(f64::NAN), "n/a");
    }

    #[test]
    fn protocol_override_reaches_the_machine() {
        let mig = run_benchmark("art", 2_000_000);
        let mesi = run_benchmark_with("art", 2_000_000, Protocol::Mesi, None);
        // The single-core baseline is protocol-independent...
        assert_eq!(mig.l1_ipe, mesi.l1_ipe);
        assert_eq!(mig.l2_ipe, mesi.l2_ipe);
        // ...but the four-core run is not: invalidations change the
        // miss stream, hence the controller's migration decisions.
        assert_ne!(mig.migrations, mesi.migrations);
    }

    #[test]
    fn render_contains_columns() {
        let rows = vec![run_benchmark("swim", 1_000_000)];
        let s = render(&rows);
        assert!(s.contains("4xL2 miss"));
        assert!(s.contains("swim"));
    }
}
