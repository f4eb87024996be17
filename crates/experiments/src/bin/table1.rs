//! Regenerates Table 1: the benchmark suite with instruction counts and
//! 16 KB fully-associative L1 miss counts.
//!
//! Usage: `table1 [--instr N] [--threads N]
//!                 [--protocol migration|mesi|dragon] [--csv] [--json]
//!                 [--no-manifest] [--manifest-dir DIR]`
//!
//! Table 1 is a single-core L1 characterisation, so `--protocol` does
//! not change any number; it is validated and recorded in the manifest
//! so a sweep driver can pass one uniform flag set to every binary.

use execmig_experiments::manifest::ManifestEmitter;
use execmig_experiments::report::{arg_flag, arg_protocol, arg_u64};
use execmig_experiments::runner::default_threads;
use execmig_experiments::table1;
use execmig_obs::{Json, ToJson};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instructions = arg_u64(&args, "--instr", 50_000_000);
    let threads = arg_u64(&args, "--threads", default_threads(18) as u64) as usize;
    let mut em = ManifestEmitter::start("table1", &args);
    em.budget(instructions);
    em.config(
        &Json::object()
            .field("instructions", instructions)
            .field("threads", threads)
            .field("protocol", arg_protocol(&args)),
    );

    let rows = table1::run_all(instructions, threads);
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
        "== Table 1 — benchmarks, {} M instructions, 16 KB fully-associative LRU L1s, 64 B lines ==",
        instructions / 1_000_000
    );
    let rendered = table1::render(&rows);
    if arg_flag(&args, "--csv") {
        // Re-render as CSV by rebuilding the table.
        let mut t = execmig_experiments::TextTable::new(&[
            "benchmark",
            "instructions",
            "il1_misses",
            "dl1_misses",
            "il1_per_kinstr",
            "dl1_per_kinstr",
        ]);
        for r in &rows {
            t.row(&[
                r.name.clone(),
                r.instructions.to_string(),
                r.il1_misses.to_string(),
                r.dl1_misses.to_string(),
                format!("{:.3}", r.il1_per_kinstr),
                format!("{:.3}", r.dl1_per_kinstr),
            ]);
        }
        println!("{}", t.to_csv());
    } else {
        println!("{rendered}");
    }
    em.write();
}
