//! Table 1: the benchmark suite with dynamic instruction counts and
//! 16 KB fully-associative L1 miss counts.
//!
//! The paper runs each benchmark for up to 10⁹ instructions and reports
//! instruction and L1-miss counts in millions. The harness scales the
//! instruction budget (default 50 M) and reports both raw counts and
//! per-1000-instruction densities, which are budget-independent and the
//! quantity the rest of the evaluation actually depends on.

use crate::l1filter::L1Filter;
use crate::runner::{Obs, ObsCtx};
use execmig_obs::{Beat, WorkerState};
use execmig_trace::{suite, LineSize};

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// SPEC2000 or Olden.
    pub class: String,
    /// Dynamic instructions simulated.
    pub instructions: u64,
    /// IL1 misses (16 KB fully-associative LRU).
    pub il1_misses: u64,
    /// DL1 misses (16 KB fully-associative LRU; loads and stores).
    pub dl1_misses: u64,
    /// IL1 misses per 1000 instructions.
    pub il1_per_kinstr: f64,
    /// DL1 misses per 1000 instructions.
    pub dl1_per_kinstr: f64,
}

execmig_obs::impl_to_json!(Table1Row {
    name,
    class,
    instructions,
    il1_misses,
    dl1_misses,
    il1_per_kinstr,
    dl1_per_kinstr
});

/// Runs one benchmark through the §4.1 L1 filter.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark.
pub fn run_benchmark(name: &str, instructions: u64) -> Table1Row {
    row(name, instructions, None)
}

/// Runs the whole suite on `threads` workers, with live observability
/// into `obs` (hub beats and/or wall-clock spans, when given;
/// [`Obs::none`] for neither).
pub fn run_all(instructions: u64, threads: usize, obs: Obs<'_>) -> Vec<Table1Row> {
    crate::runner::parallel_map_observed(suite::names(), threads, obs, |name, ctx| {
        row(name, instructions, ctx.as_ref())
    })
    .0
}

/// One benchmark's row, publishing a live telemetry beat every
/// [`ObsCtx::beat_period`] retired instructions when an [`ObsCtx`] is
/// present. The beats only read the workload's instruction counter —
/// results are identical either way.
fn row(name: &str, instructions: u64, ctx: Option<&ObsCtx<'_>>) -> Table1Row {
    let info = suite::info(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut w = suite::by_name(name).expect("suite benchmark");
    let mut filter = L1Filter::paper(LineSize::DEFAULT);
    // Without a context the first beat never comes due.
    let mut next_beat = ctx.map_or(u64::MAX, |c| c.beat_period);
    while w.instructions() < instructions {
        let access = w.next_access();
        let _ = filter.filter(access);
        if w.instructions() >= next_beat {
            if let Some(c) = ctx {
                c.worker.publish(Beat {
                    state: WorkerState::Running,
                    task: c.task,
                    tasks_done: c.tasks_done,
                    instructions: w.instructions(),
                    ..Beat::default()
                });
                next_beat = w.instructions() + c.beat_period;
            }
        }
    }
    let stats = filter.stats();
    let instr = w.instructions();
    Table1Row {
        name: name.to_string(),
        class: info.class.to_string(),
        instructions: instr,
        il1_misses: stats.il1_misses,
        dl1_misses: stats.dl1_misses,
        il1_per_kinstr: stats.il1_misses as f64 * 1000.0 / instr as f64,
        dl1_per_kinstr: stats.dl1_misses as f64 * 1000.0 / instr as f64,
    }
}

/// Renders rows as the paper's Table 1 (plus density columns).
pub fn render(rows: &[Table1Row]) -> String {
    let mut t = crate::report::TextTable::new(&[
        "benchmark",
        "class",
        "instr (M)",
        "i-miss (M)",
        "d-miss (M)",
        "i-miss/kinstr",
        "d-miss/kinstr",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            r.class.clone(),
            format!("{:.0}", r.instructions as f64 / 1e6),
            format!("{:.2}", r.il1_misses as f64 / 1e6),
            format!("{:.2}", r.dl1_misses as f64 / 1e6),
            format!("{:.2}", r.il1_per_kinstr),
            format!("{:.2}", r.dl1_per_kinstr),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn art_is_data_miss_heavy() {
        let r = run_benchmark("art", 2_000_000);
        assert!(r.dl1_per_kinstr > 50.0, "art d-miss {}", r.dl1_per_kinstr);
        assert!(r.il1_per_kinstr < 1.0, "art i-miss {}", r.il1_per_kinstr);
    }

    #[test]
    fn gcc_is_instruction_miss_heavy() {
        let r = run_benchmark("gcc", 2_000_000);
        assert!(r.il1_per_kinstr > 5.0, "gcc i-miss {}", r.il1_per_kinstr);
    }

    #[test]
    fn data_benchmarks_have_negligible_imisses() {
        for name in ["swim", "mcf", "bh", "em3d"] {
            let r = run_benchmark(name, 1_000_000);
            assert!(r.il1_per_kinstr < 0.5, "{name} i-miss {}", r.il1_per_kinstr);
        }
    }

    #[test]
    fn render_includes_all_rows() {
        let rows = vec![run_benchmark("bh", 200_000), run_benchmark("mst", 200_000)];
        let s = render(&rows);
        assert!(s.contains("bh"));
        assert!(s.contains("mst"));
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn rejects_unknown() {
        run_benchmark("nope", 1000);
    }
}
