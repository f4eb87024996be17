//! Observability report: runs one benchmark on the four-core migration
//! machine and prints the full observability surface — the metrics
//! registry, the migration inter-arrival / filter-dwell /
//! affinity-age histograms, and the tail of the typed event ring.
//!
//! Usage: `obs_report [--bench NAME] [--instr N] [--format FMT]
//!                     [--events N] [--no-manifest] [--manifest-dir DIR]`
//!
//! `--format` selects the machine-readable output: `json` (the metrics
//! registry as JSON), `csv` (`metric,kind,value` rows), or `prom`
//! (Prometheus text exposition). Without it the human-readable report
//! prints. `--json` and `--prometheus` remain as aliases.

use execmig_experiments::manifest::ManifestEmitter;
use execmig_experiments::report::{arg_flag, arg_u64, arg_value};
use execmig_machine::{Machine, MachineConfig};
use execmig_obs::{to_csv, to_prometheus, Histogram, Json, ProfileConfig, ToJson};
use execmig_trace::suite;
use std::process::exit;

fn print_histogram(title: &str, h: &Histogram) {
    println!("-- {title} --");
    if h.count() == 0 {
        println!("(no observations)");
    } else {
        println!(
            "count {}, min {}, max {}, mean {:.1}, p50 {}, p90 {}, p99 {}",
            h.count(),
            h.min(),
            h.max(),
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99)
        );
        print!("{}", h.render(40));
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = arg_value(&args, "--bench").unwrap_or_else(|| "art".to_string());
    let instructions = arg_u64(&args, "--instr", 30_000_000);
    let events = arg_u64(&args, "--events", 20) as usize;
    let mut em = ManifestEmitter::start("obs_report", &args);
    em.budget(instructions);
    em.config(
        &Json::object()
            .field("bench", &bench)
            .field("instructions", instructions)
            .field("machine", "four_core_migration"),
    );

    let Some(mut w) = suite::by_name(&bench) else {
        eprintln!("unknown benchmark {bench:?}; see `table1` for the suite");
        exit(2);
    };
    let mut machine = Machine::new(MachineConfig::four_core_migration());
    machine.attach_recorders(ProfileConfig::default());
    machine.run(&mut *w, instructions);
    let registry = machine.metrics();
    em.stats(registry.to_json());

    // One flag, one dispatch; the old flags alias into it.
    let format = arg_value(&args, "--format").or_else(|| {
        if arg_flag(&args, "--prometheus") {
            Some("prom".to_string())
        } else if arg_flag(&args, "--json") {
            Some("json".to_string())
        } else {
            None
        }
    });
    if let Some(format) = format {
        match format.as_str() {
            "json" => println!("{}", registry.to_json().pretty()),
            "csv" => print!("{}", to_csv(&registry)),
            "prom" => print!("{}", to_prometheus(&registry, "execmig_")),
            other => {
                eprintln!("unknown --format {other:?}; expected json, csv, or prom");
                exit(2);
            }
        }
        em.write();
        return;
    }

    let stats = machine.stats();
    println!(
        "== observability report — {bench}, {} M instructions, 4-core migration machine ==",
        instructions / 1_000_000
    );
    println!(
        "instructions {}, L1 requests {}, L2 misses {}, migrations {}",
        stats.instructions, stats.l1_requests, stats.l2_misses, stats.migrations
    );
    println!();
    print_histogram(
        "migration inter-arrival (instructions between migrations)",
        machine.migration_interarrival(),
    );
    if let Some(mc) = machine.controller() {
        print_histogram(
            "filter dwell (controller requests between core changes)",
            mc.dwell_histogram(),
        );
        match mc.affinity_age_histogram() {
            Some(h) => print_histogram("affinity-cache age at eviction (requests)", h),
            None => println!("-- affinity table is unbounded: no evictions --\n"),
        }
    }

    let ring = machine.events().expect("attached");
    println!(
        "-- event ring: {} emitted, {} retained, {} dropped; last {} --",
        ring.pushed(),
        ring.len(),
        ring.dropped(),
        events.min(ring.len())
    );
    for e in ring.iter().skip(ring.len().saturating_sub(events)) {
        println!("{}", e.to_json().compact());
    }
    em.write();
}
