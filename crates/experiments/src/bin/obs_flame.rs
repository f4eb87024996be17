//! Flamegraph self-profiler: runs a multi-worker Table 2 sweep with a
//! wall-clock span recorder attached and writes the collapsed-stack
//! ("folded") output any flamegraph renderer understands — one
//! `stack;sub;leaf count` line per stack, weighted by the exact self
//! time of its innermost span in µs.
//!
//! Usage: `obs_flame [--instr N] [--threads N] [--out FILE]
//!                    [--chrome FILE] [--quiet]`
//!
//! `--out FILE` writes the collapsed stacks to FILE (default stdout);
//! `--chrome FILE` additionally exports the closed spans as a Trace
//! Event Format document (wall-clock process group, one track per
//! worker plus the driver) for `chrome://tracing` / Perfetto — built
//! with [`render_wall_trace`](execmig_obs::render_wall_trace), it can
//! be spliced with a simulated-time machine trace via
//! [`merge_traces`](execmig_obs::merge_traces) for the dual-clock view.
//!
//! Exit codes: 0 on success, 2 on a write error.

use std::time::Instant;

use execmig_experiments::report::{arg_flag, arg_u64, arg_value};
use execmig_experiments::runner::Obs;
use execmig_experiments::table2;
use execmig_machine::Protocol;
use execmig_obs::{render_wall_trace, wall, Family, Wall};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instructions = arg_u64(&args, "--instr", 10_000_000);
    let threads = arg_u64(&args, "--threads", 4) as usize;
    let out = arg_value(&args, "--out");
    let chrome = arg_value(&args, "--chrome");
    let quiet = arg_flag(&args, "--quiet");

    // Slots 0..threads are the sweep workers; the last slot is this
    // (driver) thread, which owns the sweep root span.
    let recorder = Wall::with_threads(threads + 1);
    wall::attach(&recorder, threads);

    let t0 = Instant::now();
    let rows = {
        // The sweep root span: runner tasks parent to it. It only waits
        // on the workers, so the fold gives it no self time.
        let _sweep = wall::span(Family::Sweep);
        table2::run_all(
            instructions,
            threads,
            Protocol::MigrationMode,
            Obs::with_wall(&recorder),
        )
    };
    let run_ns = t0.elapsed().as_nanos() as u64;
    // The workers handed their spans over before the join; this hands
    // over the driver's.
    wall::detach();

    let snap = recorder.snapshot();
    let collapsed = snap.collapsed_text();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &collapsed) {
                eprintln!("obs_flame: cannot write {path}: {e}");
                std::process::exit(2);
            }
            if !quiet {
                eprintln!(
                    "obs_flame: wrote {} stack lines to {path}",
                    snap.collapsed.len()
                );
            }
        }
        None => print!("{collapsed}"),
    }
    if let Some(path) = &chrome {
        let trace = render_wall_trace(&recorder.spans(), threads + 1);
        if let Err(e) = std::fs::write(path, format!("{}\n", trace.compact())) {
            eprintln!("obs_flame: cannot write {path}: {e}");
            std::process::exit(2);
        }
        if !quiet {
            eprintln!("obs_flame: wrote wall-clock Chrome trace to {path}");
        }
    }

    if !quiet {
        let o = snap.overhead;
        eprintln!(
            "obs_flame: {} rows; {} spans ({} dropped); recorder cost {:.4} % of {:.1} ms run",
            rows.len(),
            o.spans,
            o.dropped,
            o.record_ns as f64 / run_ns.max(1) as f64 * 100.0,
            run_ns as f64 / 1e6,
        );
    }
}
