//! `benchmark --workload <table2|coherence|l1_stream> [--seed N]
//! [--seconds N] [--trace 0|1]`
//!
//! Runs one workload, checks its results, and prints every metric by
//! name with unit and sample count; the last stdout line is the JSON
//! result. Exits 2 on a bad command line and 1 when a check fails.

use std::process::ExitCode;
use std::time::Instant;

use execmig_e2e_bench::cli::{self, Args};
use execmig_e2e_bench::e2e::{self, Job, Pass, Replay, Run, Scenario, Sim, Traced};
use execmig_e2e_bench::metrics::{self, Metric};

/// Set-ups an untraced run times; `setup_s` is their median.
const SETUPS: usize = 5;

/// What a run found, before printing.
#[derive(Default)]
struct Report {
    notes: Vec<String>,
    metrics: Vec<Metric>,
    /// Per sweep, whether each of its runs failed.
    failed: Vec<Vec<bool>>,
    errors: Vec<String>,
}

impl Report {
    /// Marks each run of sweep `sweep` that panicked or broke an
    /// identity in this segment as failed.
    fn record(&mut self, sweep: usize, runs: &[Run]) {
        if self.failed.len() <= sweep {
            self.failed.resize(sweep + 1, vec![false; runs.len()]);
        }
        for (i, r) in runs.iter().enumerate() {
            if let Err(e) = &r.result {
                self.fail(sweep, i, format!("{}: {e}", r.item));
            }
        }
    }

    fn fail(&mut self, sweep: usize, run: usize, error: String) {
        self.failed[sweep][run] = true;
        self.errors.push(error);
    }

    /// Checks the full runs of the first sweep: Table 2 fidelity, and
    /// at seed 0 and the canonical budget, the golden statistics.
    fn check_full_runs(&mut self, a: &Args, budget: u64, runs: &[Run]) {
        let canonical = a.seed == 0 && budget == a.scenario.canonical_budget();
        if a.scenario == Scenario::Table2 {
            match e2e::table2_fidelity(runs) {
                Ok(f) => {
                    self.notes.push(format!(
                        "table2 fidelity at {budget} instr: {}/{} agree with the paper's classes, \
                         mean |ln(ratio/paper)| {:.4}",
                        f.agree, f.benches, f.ratio_err
                    ));
                    if canonical && f.agree != e2e::TABLE2_AGREE_SEED0 {
                        self.errors.push(format!(
                            "table2 agreement {} at seed 0, want {}",
                            f.agree,
                            e2e::TABLE2_AGREE_SEED0
                        ));
                    }
                }
                Err(e) => self.errors.push(e),
            }
        }
        if canonical {
            for (i, r) in runs.iter().enumerate() {
                if let Err(e) = e2e::check_golden(e2e::GOLDEN, a.scenario, r) {
                    self.fail(0, i, e);
                }
            }
        }
    }

    /// Checks a prefix of every item against the reference models.
    fn verify(&mut self, a: &Args) {
        for item in a.scenario.items() {
            let skip = a.scenario.skip(a.seed, item.bench);
            if let Err(e) = e2e::verify_reference(item, skip, e2e::VERIFY_PREFIX) {
                self.errors.push(e);
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let budget = args.scenario.budget(args.seconds);
    println!(
        "# workload {} seed {} budget {budget} instr/run in {} segments, {} runs, 1 worker thread{}",
        args.scenario.name(),
        args.seed,
        e2e::SEGMENTS,
        args.scenario.items().len(),
        if args.trace { ", traced" } else { "" }
    );
    let mut report = if args.trace {
        traced(&args, budget)
    } else {
        untraced(&args, budget)
    };
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report.errors.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "{:<44} {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &report.errors {
        eprintln!("benchmark: {e}");
    }
    let correct = report.errors.is_empty();
    let attempted: usize = report.failed.iter().map(Vec::len).sum();
    let failed = report.failed.iter().flatten().filter(|&&f| f).count();
    println!(
        "{}",
        metrics::result_json(correct, attempted as u64, failed as u64, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn untraced(a: &Args, budget: u64) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut jobs: Vec<Job> = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut jobs));
        let t = Instant::now();
        jobs = e2e::setup(a.scenario, a.seed);
        setups.push(t.elapsed());
    }
    let (_, passes) = e2e::run_segments(jobs, budget);
    for p in &passes {
        r.record(0, &p.runs);
    }
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        r.errors.push(e);
        0.0
    });
    r.check_full_runs(a, budget, &passes[e2e::SEGMENTS - 1].runs);
    r.verify(a);
    r.metrics = metrics::end_to_end(&setups, &passes, rss);
    r
}

fn traced(a: &Args, budget: u64) -> Report {
    let mut r = Report::default();
    let mut untraced_jobs = e2e::setup(a.scenario, a.seed);
    let start = Instant::now();
    let mut traced_jobs = e2e::setup(a.scenario, a.seed);
    let mut t = Traced {
        setup: start.elapsed(),
        ..Traced::default()
    };
    let mut untraced: Vec<Pass> = Vec::with_capacity(e2e::SEGMENTS);
    for k in 1..=e2e::SEGMENTS {
        let until = e2e::segment_end(budget, k);
        // Every other segment runs traced first, so neither side
        // always meets the warmer host.
        for traced_turn in [k % 2 == 0, k % 2 == 1] {
            if traced_turn {
                e2e::trace_segment(&mut traced_jobs, until, &mut t);
                r.record(1, &t.runs);
            } else {
                let (jobs, p) = e2e::run_segment(untraced_jobs, until);
                untraced_jobs = jobs;
                r.record(0, &p.runs);
                untraced.push(p);
            }
        }
        let segment = &untraced[k - 1].runs;
        for (i, (u, tr)) in segment.iter().zip(&t.runs).enumerate() {
            if let (Ok(uo), Ok(to)) = (&u.result, &tr.result) {
                if uo != to {
                    r.fail(
                        1,
                        i,
                        format!("{}: traced statistics differ from untraced", tr.item),
                    );
                }
            }
        }
    }
    r.check_full_runs(a, budget, &untraced[e2e::SEGMENTS - 1].runs);
    let replay_prefix = e2e::REPLAY_PREFIX.min(budget);
    let mut replays: Vec<Replay> = Vec::new();
    for item in a.scenario.items() {
        let Sim::Machine(cfg) = item.sim else {
            continue;
        };
        if !cfg.four_core() {
            continue;
        }
        let skip = a.scenario.skip(a.seed, item.bench);
        let rep = e2e::replay(item.bench, cfg, skip, replay_prefix);
        if rep.mismatches > 0 {
            r.errors.push(format!(
                "{item}: controller replay disagrees with the machine {} times",
                rep.mismatches
            ));
        }
        replays.push(rep);
    }
    r.verify(a);
    r.metrics = metrics::per_layer(&untraced, &t, &replays);
    ledger_notes(&mut r, &t);
    r
}

fn ledger_notes(r: &mut Report, traced: &Traced) {
    let wall = traced.wall().as_secs_f64();
    for (name, s) in [
        ("set-up", traced.setup.as_secs_f64()),
        ("Workload::fill_block", traced.fill.as_secs_f64()),
        ("Machine::run_block", traced.machine().as_secs_f64()),
        ("L1Filter::filter", traced.filter.as_secs_f64()),
        ("residual", wall - traced.accounted().as_secs_f64()),
        ("traced wall", wall),
    ] {
        r.notes.push(format!(
            "ledger {name:<22} {s:>10.4} s {:>6.1} %",
            s / wall * 100.0
        ));
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
