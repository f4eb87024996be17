//! Chrome-trace export: runs one workload on the four-core migration
//! machine with interval profiling and writes the run as Chrome Trace
//! Event Format JSON, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>. The trace shows one track per core with
//! execution-residency slices, migration instants linked by flow
//! arrows, and counter tracks for `F`, `A_R`, miss densities, bus
//! traffic, and per-core residency.
//!
//! Usage: `trace_viewer [--bench NAME | --circular LINES] [--instr N]
//!                      [--period N] [--out PATH] [--no-manifest]
//!                      [--manifest-dir DIR]`
//!
//! The machine runs with the event ring and the interval profiler
//! attached. `--period 0` is a usage error (exit 2).

use execmig_experiments::manifest::ManifestEmitter;
use execmig_experiments::report::{arg_u64, arg_value};
use execmig_machine::{Machine, MachineConfig};
use execmig_obs::chrome::render_machine_trace;
use execmig_obs::{Json, ProfileConfig};
use execmig_trace::gen::CircularWorkload;
use execmig_trace::{suite, Workload};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instructions = arg_u64(&args, "--instr", 30_000_000);
    let period = arg_u64(&args, "--period", 64 << 10);
    if period == 0 {
        eprintln!("--period must be a positive instruction count");
        exit(2);
    }
    let out = arg_value(&args, "--out").unwrap_or_else(|| "trace.json".to_string());
    let circular = arg_value(&args, "--circular");
    let bench = arg_value(&args, "--bench");

    let mut workload: Box<dyn Workload> = match (&bench, &circular) {
        (Some(_), Some(_)) => {
            eprintln!("--bench and --circular are mutually exclusive");
            exit(2);
        }
        (Some(name), None) => match suite::by_name(name) {
            Some(w) => w,
            None => {
                eprintln!("unknown benchmark {name:?}; see `table1` for the suite");
                exit(2);
            }
        },
        // Default: a fig3-style circular stream over 4000 lines — the
        // cleanest illustration of affinity settling and migration.
        (None, Some(lines)) => {
            Box::new(CircularWorkload::new(lines.parse().unwrap_or_else(|_| {
                eprintln!("--circular expects a line count, got {lines:?}");
                exit(2);
            })))
        }
        (None, None) => Box::new(CircularWorkload::new(4000)),
    };

    let mut em = ManifestEmitter::start("trace_viewer", &args);
    em.budget(instructions);
    em.config(
        &Json::object()
            .field("workload", workload.name())
            .field("instructions", instructions)
            .field("period", period)
            .field("machine", "four_core_migration")
            .field("out", &out),
    );

    let mut machine = Machine::new(MachineConfig::four_core_migration());
    machine.attach_recorders(ProfileConfig {
        period,
        ..ProfileConfig::default()
    });
    machine.run(&mut *workload, instructions);
    let records = machine.profiler().expect("attached").records();
    let events = machine.events().expect("attached").to_vec();

    let cores = machine.config().cores;
    let doc = render_machine_trace(records, &events, cores, machine.stats().instructions);
    let body = format!("{}\n", doc.compact());
    if let Err(e) = std::fs::write(&out, &body) {
        eprintln!("trace_viewer: could not write {out}: {e}");
        exit(2);
    }
    let s = machine.stats();
    println!(
        "wrote {out}: {} trace events ({} profile intervals, {} ring events) — \
         {} instr, {} migrations, {} L2 misses",
        match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items.len(),
            _ => 0,
        },
        records.len(),
        events.len(),
        s.instructions,
        s.migrations,
        s.l2_misses
    );
    em.stats(
        Json::object()
            .field("trace_bytes", body.len() as u64)
            .field("profile_intervals", records.len() as u64)
            .field("ring_events", events.len() as u64)
            .field("migrations", s.migrations)
            .field("l2_misses", s.l2_misses),
    );
    em.write();
}
