//! Regenerates Table 2: the four-core 512 KB-L2 experiment — L1 misses,
//! L2 misses with and without migration, the L2-miss ratio, and the
//! migration frequency, all in instructions per event.
//!
//! Usage: `table2 [--instr N] [--threads N] [--bench NAME]
//!                 [--protocol migration|mesi|dragon] [--csv]
//!                 [--json] [--no-manifest] [--manifest-dir DIR]`
//!
//! `--protocol` swaps the four-core machine's L2 coherence backend
//! (default: the paper's migration mode); the single-core baseline
//! columns are protocol-independent.

use execmig_experiments::manifest::ManifestEmitter;
use execmig_experiments::report::{arg_flag, arg_protocol, arg_u64, arg_value};
use execmig_experiments::runner::{default_threads, Obs};
use execmig_experiments::table2;
use execmig_obs::{Json, ToJson};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instructions = arg_u64(&args, "--instr", 100_000_000);
    let threads = arg_u64(&args, "--threads", default_threads(18) as u64) as usize;
    let protocol = arg_protocol(&args);
    let mut em = ManifestEmitter::start("table2", &args);
    em.budget(instructions);
    em.config(
        &Json::object()
            .field("instructions", instructions)
            .field("threads", threads)
            .field("bench", arg_value(&args, "--bench"))
            .field("protocol", protocol),
    );

    let rows = match arg_value(&args, "--bench") {
        Some(name) => vec![table2::run_benchmark_with(&name, instructions, protocol)],
        None => table2::run_all(instructions, threads, protocol, Obs::none()),
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
        "== Table 2 — 4 cores, 512 KB 4-way skewed L2 each, {} M instructions ==",
        instructions / 1_000_000
    );
    println!(
        "(instructions per event, higher is better; ratio < 1 means migration removes L2 misses)"
    );
    println!();
    if arg_flag(&args, "--csv") {
        let mut t = execmig_experiments::TextTable::new(&[
            "benchmark",
            "l1_ipe",
            "l2_ipe",
            "l2x4_ipe",
            "ratio",
            "paper_ratio",
            "migration_ipe",
            "affinity_miss_rate",
        ]);
        for r in &rows {
            t.row(&[
                r.name.clone(),
                format!("{:.1}", r.l1_ipe),
                format!("{:.1}", r.l2_ipe),
                format!("{:.1}", r.l2x4_ipe),
                format!("{:.3}", r.ratio),
                format!("{:.3}", r.paper_ratio),
                format!("{:.1}", r.migration_ipe),
                format!("{:.3}", r.affinity_miss_rate),
            ]);
        }
        println!("{}", t.to_csv());
    } else {
        println!("{}", table2::render(&rows));
        // Classification summary against the paper.
        let mut agree = 0;
        let mut total = 0;
        for r in &rows {
            total += 1;
            if table2::classify(r.ratio) == table2::classify(r.paper_ratio) {
                agree += 1;
            }
        }
        println!("classification agreement with the paper: {agree}/{total}");
    }
    em.write();
}
