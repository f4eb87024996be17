//! Coherence-backend comparison: the same reference streams through the
//! four-core migration machine under each L2 protocol — migration mode
//! (the paper's machine), MESI (invalidation-based, Illinois variant)
//! and Dragon (update-based) — reporting what each backend pays in
//! misses and bus traffic.
//!
//! Migration mode never invalidates and never sends coherence updates
//! (migrating the *thread* to the data is its whole answer to write
//! sharing), so its `inv/kinstr`, `upd/kinstr` and coherence-bus
//! columns are zero by construction; its cost shows up on the §2.3
//! register/store/branch update bus instead, which is reported
//! separately. The `vs mig` column is the protocol's L2-miss rate
//! relative to migration mode's on the same stream — below 1 means the
//! bus protocol removes misses migration mode keeps.

use execmig_machine::{Machine, MachineConfig, Protocol};
use execmig_trace::suite;

use crate::runner::{Obs, ObsCtx};

/// One (benchmark, protocol) cell of the comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Benchmark name.
    pub name: String,
    /// Protocol label (`migration`, `mesi`, `dragon`).
    pub protocol: String,
    /// Instructions simulated.
    pub instructions: u64,
    /// Raw L2 miss count.
    pub l2_misses: u64,
    /// L2 misses per thousand instructions.
    pub l2_misses_per_kinstr: f64,
    /// This protocol's L2-miss rate over migration mode's.
    pub miss_ratio_vs_migration: f64,
    /// Migrations taken (the controller runs under every protocol).
    pub migrations: u64,
    /// Remote copies killed (MESI only; structurally zero elsewhere).
    pub invalidations: u64,
    /// Remote copies refreshed in place (Dragon only).
    pub coherence_updates: u64,
    /// Invalidations per thousand instructions.
    pub invalidations_per_kinstr: f64,
    /// Updates per thousand instructions.
    pub updates_per_kinstr: f64,
    /// Coherence-transaction bus bytes per instruction.
    pub coherence_bytes_per_instr: f64,
    /// §2.3 register/store/branch update-bus bytes per instruction.
    pub update_bus_bytes_per_instr: f64,
}

execmig_obs::impl_to_json!(CompareRow {
    name,
    protocol,
    instructions,
    l2_misses,
    l2_misses_per_kinstr,
    miss_ratio_vs_migration,
    migrations,
    invalidations,
    coherence_updates,
    invalidations_per_kinstr,
    updates_per_kinstr,
    coherence_bytes_per_instr,
    update_bus_bytes_per_instr
});

/// Runs one benchmark under every protocol at the given budget; returns
/// one row per protocol, migration mode first.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark.
pub fn run_benchmark(name: &str, instructions: u64) -> Vec<CompareRow> {
    rows(name, instructions, None)
}

/// Runs the whole suite on `threads` workers, with live observability
/// into `obs` (hub beats and/or wall-clock spans, when given;
/// [`Obs::none`] for neither). Rows are grouped by benchmark, migration
/// mode first within each group.
pub fn run_all(instructions: u64, threads: usize, obs: Obs<'_>) -> Vec<CompareRow> {
    crate::runner::parallel_map_observed(suite::names(), threads, obs, |name, ctx| {
        rows(name, instructions, ctx.as_ref())
    })
    .0
    .into_iter()
    .flatten()
    .collect()
}

/// The three protocol machines over one generated stream
/// (`Machine::run_shared`), beating from the last (Dragon) when an
/// [`ObsCtx`] is present; the beats only read counters.
fn rows(name: &str, instructions: u64, ctx: Option<&ObsCtx<'_>>) -> Vec<CompareRow> {
    let mut machines = Protocol::ALL.map(|protocol| {
        Machine::new(MachineConfig {
            protocol,
            ..MachineConfig::four_core_migration()
        })
    });
    let mut w = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    Machine::run_shared(&mut machines, &mut *w, instructions, ctx);
    // `Protocol::ALL` lists migration mode first.
    let migration = *machines[0].stats();
    Protocol::ALL
        .iter()
        .zip(&machines)
        .map(|(protocol, m)| {
            let s = m.stats();
            let instr = s.instructions.max(1) as f64;
            CompareRow {
                name: name.to_string(),
                protocol: protocol.as_str().to_string(),
                instructions: s.instructions,
                l2_misses: s.l2_misses,
                l2_misses_per_kinstr: s.l2_miss_rate_per_instr() * 1000.0,
                miss_ratio_vs_migration: s.l2_miss_ratio(&migration),
                migrations: s.migrations,
                invalidations: s.invalidations,
                coherence_updates: s.coherence_updates,
                invalidations_per_kinstr: s.invalidations as f64 / instr * 1000.0,
                updates_per_kinstr: s.coherence_updates as f64 / instr * 1000.0,
                coherence_bytes_per_instr: s.coherence_bus_bytes as f64 / instr,
                update_bus_bytes_per_instr: s.bus.update_bus_bytes() as f64 / instr,
            }
        })
        .collect()
}

/// Renders the comparison table.
pub fn render(rows: &[CompareRow]) -> String {
    use crate::report::fmt_ratio;
    let mut t = crate::report::TextTable::new(&[
        "benchmark",
        "protocol",
        "L2miss/kinstr",
        "vs mig",
        "inv/kinstr",
        "upd/kinstr",
        "coh B/instr",
        "§2.3 B/instr",
        "migrations",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            r.protocol.clone(),
            format!("{:.3}", r.l2_misses_per_kinstr),
            fmt_ratio(r.miss_ratio_vs_migration),
            format!("{:.3}", r.invalidations_per_kinstr),
            format!("{:.3}", r.updates_per_kinstr),
            format!("{:.3}", r.coherence_bytes_per_instr),
            format!("{:.3}", r.update_bus_bytes_per_instr),
            r.migrations.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn art_rows_have_the_structural_zeroes() {
        let rows = run_benchmark("art", 2_000_000);
        assert_eq!(rows.len(), 3);
        let (mig, mesi, dragon) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!(
            (
                mig.protocol.as_str(),
                mesi.protocol.as_str(),
                dragon.protocol.as_str()
            ),
            ("migration", "mesi", "dragon")
        );
        // Migration mode pays no coherence transactions at all.
        assert_eq!((mig.invalidations, mig.coherence_updates), (0, 0));
        assert_eq!(mig.coherence_bytes_per_instr, 0.0);
        assert!((mig.miss_ratio_vs_migration - 1.0).abs() < 1e-12);
        // MESI invalidates, never updates; Dragon the reverse.
        assert!(mesi.invalidations > 0);
        assert_eq!(mesi.coherence_updates, 0);
        assert_eq!(dragon.invalidations, 0);
        assert!(dragon.coherence_updates > 0);
        assert!(mesi.coherence_bytes_per_instr > 0.0);
        assert!(dragon.coherence_bytes_per_instr > 0.0);
        // Dragon's update keeps copies alive exactly like migration
        // mode's store broadcast: identical miss stream.
        assert_eq!(dragon.l2_misses, mig.l2_misses);
        // The §2.3 bus (register transfers on migration, store
        // broadcast) is where migration mode's sharing cost lives.
        assert!(mig.update_bus_bytes_per_instr > 0.0);
    }

    #[test]
    fn render_groups_protocol_rows() {
        let rows = run_benchmark("swim", 500_000);
        let s = render(&rows);
        assert!(s.contains("mesi"));
        assert!(s.contains("dragon"));
        assert!(s.contains("vs mig"));
    }
}
