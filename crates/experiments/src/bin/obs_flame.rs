//! Flamegraph self-profiler: runs a multi-worker Table 2 sweep with a
//! wall-clock flight recorder attached, samples the live span stacks
//! on a fixed wall-clock cadence, and writes the collapsed-stack
//! ("folded") output any flamegraph renderer understands — one
//! `stack;sub;leaf count` line per observed stack.
//!
//! Usage: `obs_flame [--instr N] [--threads N] [--sample-ms N]
//!                    [--out FILE] [--chrome FILE] [--quiet]`
//!
//! `--out FILE` writes the collapsed stacks to FILE (default stdout);
//! `--chrome FILE` additionally exports the retained spans as a Trace
//! Event Format document (wall-clock process group, one track per
//! worker plus the driver) for `chrome://tracing` / Perfetto — built
//! with [`render_wall_trace`](execmig_obs::render_wall_trace), it can
//! be spliced with a simulated-time machine trace via
//! [`merge_traces`](execmig_obs::merge_traces) for the dual-clock view.
//!
//! Exit codes: 0 on success, 2 on a write error.

use std::time::{Duration, Instant};

use execmig_experiments::report::{arg_flag, arg_u64, arg_value};
use execmig_experiments::runner::Obs;
use execmig_experiments::table2;
use execmig_machine::Protocol;
use execmig_obs::model::sync::{AtomicBool, Ordering};
use execmig_obs::model::thread;
use execmig_obs::{render_wall_trace, wall, Budget, Family, Wall};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instructions = arg_u64(&args, "--instr", 10_000_000);
    let threads = arg_u64(&args, "--threads", 4) as usize;
    let sample_ms = arg_u64(&args, "--sample-ms", 5).max(1);
    let out = arg_value(&args, "--out");
    let chrome = arg_value(&args, "--chrome");
    let quiet = arg_flag(&args, "--quiet");

    // Slots 0..threads are the sweep workers; the last slot is this
    // (driver) thread, which owns the sweep root span.
    let recorder = Wall::with_threads(threads + 1);
    wall::attach(&recorder, threads);

    let t0 = Instant::now();
    let stop = AtomicBool::new(false);
    let rows = thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut passes = 0u64;
            // ord: Relaxed — standalone stop flag; the sampler join
            // below is the synchronisation point.
            while !stop.load(Ordering::Relaxed) {
                recorder.sample_stacks();
                passes += 1;
                thread::sleep(Duration::from_millis(sample_ms));
            }
            passes
        });
        let rows = {
            // The sweep root span: runner tasks parent to it. While this
            // thread holds only this frame it is joining the workers,
            // and the sampler skips it.
            let _sweep = wall::span(Family::Sweep);
            table2::run_all(
                instructions,
                threads,
                Protocol::MigrationMode,
                Obs::new(None, Some(&recorder)),
            )
        };
        // ord: Relaxed — flag only; sampler.join() synchronises.
        stop.store(true, Ordering::Relaxed);
        let passes = sampler.join().expect("sampler thread");
        if !quiet {
            eprintln!("obs_flame: {passes} sampling passes over the sweep");
        }
        rows
    });
    let run_ns = t0.elapsed().as_nanos() as u64;

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

    wall::detach();
    if !quiet {
        let o = snap.overhead;
        let verdict = Budget::default().verdict(o.total_ns(), run_ns);
        eprintln!(
            "obs_flame: {} rows; {} spans ({} dropped), {} samples; \
             recorder cost {:.4} % of {:.1} ms run (budget {:.0} %): {}",
            rows.len(),
            o.spans,
            o.dropped,
            o.samples,
            verdict.fraction * 100.0,
            run_ns as f64 / 1e6,
            verdict.max_fraction * 100.0,
            if verdict.within { "OK" } else { "EXCEEDED" }
        );
    }
}
