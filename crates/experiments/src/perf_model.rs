//! §2.3/§2.4/§4.2: update-bus bandwidth, migration penalty, and the
//! break-even `P_mig` per benchmark.
//!
//! The paper's bottom line for 181.mcf: "as long as the migration
//! penalty is less than 60 times the L2-miss/L3-hit penalty, i.e.
//! `P_mig < 60`, we will observe performance gains."

use execmig_machine::{
    bus::paper_estimate_bytes_per_cycle, perf::break_even_pmig, Machine, MachineConfig,
    MigrationProtocol, PerfModel, PipelineConfig, UpdateBusConfig,
};
use execmig_trace::suite;

/// Performance analysis of one benchmark.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Benchmark.
    pub name: String,
    /// Break-even `P_mig` (L2 misses removed per migration); `None`
    /// when the migration run made no migrations.
    pub break_even_pmig: Option<f64>,
    /// Update-bus bytes per instruction in the migration run.
    pub bus_bytes_per_instr: f64,
    /// Estimated update-bus bytes per cycle at IPC 2.
    pub bus_bytes_per_cycle_ipc2: f64,
    /// Speed-up of the migration run at `P_mig` = 10 (> 1 is a win).
    pub speedup_pmig10: f64,
    /// Speed-up at `P_mig` = 60.
    pub speedup_pmig60: f64,
}

execmig_obs::impl_to_json!(PerfRow {
    name,
    break_even_pmig,
    bus_bytes_per_instr,
    bus_bytes_per_cycle_ipc2,
    speedup_pmig10,
    speedup_pmig60
});

/// Runs the per-benchmark analysis: the single-core baseline and the
/// four-core migration machine replay one generated stream.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark.
pub fn run_benchmark(name: &str, instructions: u64) -> PerfRow {
    let mut machines = [
        Machine::new(MachineConfig::single_core()),
        Machine::new(MachineConfig::four_core_migration()),
    ];
    let mut w = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    Machine::run_shared(&mut machines, &mut *w, instructions, None);

    let [b, m] = machines.each_ref().map(Machine::stats);
    let at = |pmig: f64| {
        PerfModel {
            pmig,
            ..PerfModel::default()
        }
        .speedup(b, m)
    };
    PerfRow {
        name: name.to_string(),
        break_even_pmig: break_even_pmig(b, m),
        bus_bytes_per_instr: m.bus.update_bus_bytes() as f64 / m.instructions.max(1) as f64,
        bus_bytes_per_cycle_ipc2: m.bus.bytes_per_cycle(m.instructions, 2.0),
        speedup_pmig10: at(10.0),
        speedup_pmig60: at(60.0),
    }
}

/// Runs the whole suite.
pub fn run_all(instructions: u64, threads: usize) -> Vec<PerfRow> {
    crate::runner::parallel_map(suite::names(), threads, |name| {
        run_benchmark(name, instructions)
    })
}

/// Renders the per-benchmark rows.
pub fn render(rows: &[PerfRow]) -> String {
    let mut t = crate::report::TextTable::new(&[
        "benchmark",
        "break-even Pmig",
        "bus B/instr",
        "bus B/cyc@ipc2",
        "speedup@Pmig=10",
        "speedup@Pmig=60",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            r.break_even_pmig
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".to_string()),
            format!("{:.1}", r.bus_bytes_per_instr),
            format!("{:.1}", r.bus_bytes_per_cycle_ipc2),
            format!("{:.3}", r.speedup_pmig10),
            format!("{:.3}", r.speedup_pmig60),
        ]);
    }
    t.render()
}

/// The protocol-level migration-penalty summary (§2.2/§2.4).
#[derive(Debug, Clone)]
pub struct PenaltySummary {
    /// Closed-form penalty (drain + broadcast + stages) in cycles.
    pub analytic_cycles: u64,
    /// Mean simulated penalty over many migrations (with mispredicts).
    pub mean_cycles: f64,
    /// The paper's §2.3 bus estimate in bytes/cycle at 4-wide retire.
    pub paper_bus_estimate: f64,
}

execmig_obs::impl_to_json!(PenaltySummary {
    analytic_cycles,
    mean_cycles,
    paper_bus_estimate
});

/// Computes the penalty summary for a pipeline configuration.
pub fn penalty_summary(config: PipelineConfig, samples: u64) -> PenaltySummary {
    let mut protocol = MigrationProtocol::new(config, 0xfee1);
    PenaltySummary {
        analytic_cycles: protocol.analytic_penalty(),
        mean_cycles: protocol.mean_penalty(samples),
        paper_bus_estimate: paper_estimate_bytes_per_cycle(&UpdateBusConfig::default(), 4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improving_benchmark_has_positive_break_even() {
        let r = run_benchmark("art", 8_000_000);
        let be = r.break_even_pmig.expect("art migrates");
        assert!(be > 1.0, "art break-even {be}");
        // At a small P_mig the win must materialise.
        assert!(r.speedup_pmig10 > 1.0, "art speedup {}", r.speedup_pmig10);
    }

    #[test]
    fn degrading_benchmark_never_wins() {
        let r = run_benchmark("bh", 20_000_000);
        if let Some(be) = r.break_even_pmig {
            assert!(be < 1.0, "bh break-even {be} should be below P_mig > 1");
        }
        assert!(r.speedup_pmig60 <= 1.0, "bh speedup {}", r.speedup_pmig60);
    }

    #[test]
    fn bus_traffic_is_plausible() {
        let r = run_benchmark("swim", 2_000_000);
        // ~0.7 reg writes * 9 B ≈ 6-8 B per instruction.
        assert!(
            (3.0..=15.0).contains(&r.bus_bytes_per_instr),
            "bus B/instr {}",
            r.bus_bytes_per_instr
        );
    }

    #[test]
    fn penalty_summary_matches_paper_estimate() {
        let s = penalty_summary(PipelineConfig::default(), 1000);
        assert_eq!(s.analytic_cycles, 21);
        assert!(s.mean_cycles <= s.analytic_cycles as f64);
        assert!((40.0..=50.0).contains(&s.paper_bus_estimate));
    }
}
