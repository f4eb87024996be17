//! Live telemetry demo and smoke target: runs a multi-worker Table 2
//! sweep with the telemetry server up, prints the endpoints while the
//! sweep is in flight, and self-checks the hub's and the wall's
//! overhead against the [`Budget`](execmig_obs::Budget) when it
//! finishes.
//!
//! Usage: `obs_live [--instr N] [--threads N] [--addr HOST:PORT]
//!                   [--poll-ms N] [--linger SECS] [--json]`
//!
//! While it runs:
//!
//! ```text
//! curl http://127.0.0.1:9163/progress   # per-worker live state
//! curl http://127.0.0.1:9163/spans      # wall-clock span latencies
//! curl http://127.0.0.1:9163/healthz    # stall watchdog
//! curl http://127.0.0.1:9163/metrics    # Prometheus exposition
//! ```
//!
//! Exit status: 0 on success, 1 if the server cannot bind, 2 if the
//! measured observability overhead exceeds the 2 % budget.

use std::time::{Duration, Instant};

use execmig_experiments::report::{arg_flag, arg_u64, arg_value};
use execmig_experiments::table2;
use execmig_experiments::telemetry::Telemetry;
use execmig_machine::Protocol;
use execmig_obs::model::sync::{AtomicBool, Ordering};
use execmig_obs::model::thread;
use execmig_obs::{wall, Budget, Family, Hub, Json, Registry, Wall};

fn print_progress(hub: &Hub) {
    let snap = hub.snapshot();
    let per_worker: Vec<String> = snap
        .workers
        .iter()
        .map(|w| {
            format!(
                "w{}:{}/{}Mi/{}t",
                w.worker,
                w.state.as_str(),
                w.instructions / 1_000_000,
                w.tasks_done
            )
        })
        .collect();
    eprintln!(
        "progress: epoch {} | {} beats | {}",
        snap.epoch,
        snap.overhead.beats,
        per_worker.join(" ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instructions = arg_u64(&args, "--instr", 20_000_000);
    let threads = arg_u64(&args, "--threads", 4) as usize;
    let poll_ms = arg_u64(&args, "--poll-ms", 500);
    let linger_s = arg_u64(&args, "--linger", 0);
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:9163".to_string());

    let telemetry = Telemetry::new(Some(&addr), threads);
    let Some(bound) = telemetry.local_addr() else {
        eprintln!("obs_live: no server, nothing to demo");
        std::process::exit(1);
    };
    eprintln!("obs_live: sweep of {threads} workers x {instructions} instructions");
    eprintln!("obs_live: try  curl http://{bound}/progress  while it runs");

    let hub = telemetry.hub().cloned().expect("serving implies a hub");
    let t0 = Instant::now();
    let stop = AtomicBool::new(false);
    let rows = thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            // ord: Relaxed — standalone stop flag; the monitor join
            // below is the synchronisation point.
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(poll_ms));
                // ord: Relaxed — same stop flag, re-checked after the
                // poll sleep.
                if !stop.load(Ordering::Relaxed) {
                    print_progress(&hub);
                }
            }
        });
        let rows = {
            // The sweep root span: runner tasks parent to it.
            let _sweep = wall::span(Family::Sweep);
            table2::run_all(
                instructions,
                threads,
                Protocol::MigrationMode,
                telemetry.obs(),
            )
        };
        // ord: Relaxed — flag only; monitor.join() synchronises.
        stop.store(true, Ordering::Relaxed);
        monitor.join().expect("monitor thread");
        rows
    });
    let run_ns = t0.elapsed().as_nanos() as u64;

    // Overhead self-accounting: the hub and the wall each measured
    // their own cost; hold both to the default 2 % budget.
    let overhead = hub.overhead();
    let verdict = Budget::default().verdict(overhead.total_ns(), run_ns);
    let wall_overhead = telemetry.wall().map(Wall::overhead).unwrap_or_default();
    let wall_verdict = Budget::default().verdict(wall_overhead.total_ns(), run_ns);
    let mut registry = Registry::new();
    registry.counter("rows_done", rows.len() as u64);
    registry.counter("hub_beats", overhead.beats);
    registry.gauge("overhead_fraction", verdict.fraction);
    registry.counter("wall_spans", wall_overhead.spans);
    registry.gauge("wall_overhead_fraction", wall_verdict.fraction);
    telemetry.metrics().update(registry);

    if arg_flag(&args, "--json") {
        let report = Json::object()
            .field("rows", rows.len())
            .field("run_ns", run_ns)
            .field("overhead", overhead)
            .field("budget", verdict)
            .field("wall_overhead", wall_overhead)
            .field("wall_budget", wall_verdict)
            .field("snapshot", hub.snapshot());
        println!("{}", report.pretty());
    } else {
        println!("{}", table2::render(&rows));
        println!(
            "telemetry overhead: {} beats ({} dropped), {:.4} % of {:.1} ms run (budget {:.0} %): {}",
            overhead.beats,
            overhead.dropped,
            verdict.fraction * 100.0,
            run_ns as f64 / 1e6,
            verdict.max_fraction * 100.0,
            if verdict.within { "OK" } else { "EXCEEDED" }
        );
        println!(
            "wall overhead: {} spans ({} dropped), {:.4} % of run (budget {:.0} %): {}",
            wall_overhead.spans,
            wall_overhead.dropped,
            wall_verdict.fraction * 100.0,
            wall_verdict.max_fraction * 100.0,
            if wall_verdict.within {
                "OK"
            } else {
                "EXCEEDED"
            }
        );
    }

    if linger_s > 0 {
        eprintln!("obs_live: serving for {linger_s}s more (--linger)");
        thread::sleep(Duration::from_secs(linger_s));
    }
    telemetry.finish();
    if !verdict.within || !wall_verdict.within {
        std::process::exit(2);
    }
}
