//! Compares the three L2 coherence backends — migration mode (the
//! paper's machine), MESI and Dragon — on the same reference streams:
//! L2 misses per kinstr, invalidations, updates, and bus bytes per
//! instruction, per workload.
//!
//! Usage: `coherence_compare [--instr N] [--threads N] [--bench NAME]
//!                 [--csv] [--json] [--no-manifest] [--manifest-dir DIR]`

use execmig_experiments::coherence_compare;
use execmig_experiments::manifest::ManifestEmitter;
use execmig_experiments::report::{arg_flag, arg_u64, arg_value};
use execmig_experiments::runner::{default_threads, Obs};
use execmig_obs::{Json, ToJson};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instructions = arg_u64(&args, "--instr", 50_000_000);
    let threads = arg_u64(&args, "--threads", default_threads(18) as u64) as usize;
    let mut em = ManifestEmitter::start("coherence_compare", &args);
    em.budget(instructions);
    em.config(
        &Json::object()
            .field("instructions", instructions)
            .field("threads", threads)
            .field("bench", arg_value(&args, "--bench"))
            .field("protocols", ["migration", "mesi", "dragon"]),
    );

    let rows = match arg_value(&args, "--bench") {
        Some(name) => coherence_compare::run_benchmark(&name, instructions),
        None => coherence_compare::run_all(instructions, threads, Obs::none()),
    };
    em.stats(
        Json::object()
            .field("rows", rows.len())
            .field("table", &rows),
    );
    if arg_flag(&args, "--json") {
        println!("{}", rows.to_json().pretty());
        em.write();
        return;
    }
    println!(
        "== Coherence backends — 4 cores, 512 KB L2 each, {} M instructions ==",
        instructions / 1_000_000
    );
    println!(
        "(migration mode never invalidates or updates; 'vs mig' < 1 means the bus \
         protocol removes L2 misses migration mode keeps)"
    );
    println!();
    if arg_flag(&args, "--csv") {
        let mut t = execmig_experiments::TextTable::new(&[
            "benchmark",
            "protocol",
            "l2_misses",
            "l2_misses_per_kinstr",
            "miss_ratio_vs_migration",
            "invalidations",
            "coherence_updates",
            "coherence_bytes_per_instr",
            "update_bus_bytes_per_instr",
            "migrations",
        ]);
        for r in &rows {
            t.row(&[
                r.name.clone(),
                r.protocol.clone(),
                r.l2_misses.to_string(),
                format!("{:.3}", r.l2_misses_per_kinstr),
                format!("{:.3}", r.miss_ratio_vs_migration),
                r.invalidations.to_string(),
                r.coherence_updates.to_string(),
                format!("{:.3}", r.coherence_bytes_per_instr),
                format!("{:.3}", r.update_bus_bytes_per_instr),
                r.migrations.to_string(),
            ]);
        }
        println!("{}", t.to_csv());
    } else {
        println!("{}", coherence_compare::render(&rows));
    }
    em.write();
}
