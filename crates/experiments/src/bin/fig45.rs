//! Regenerates Figures 4 and 5: LRU stack profiles `p1(x)` vs `p4(x)`
//! per benchmark, with the transition frequency.
//!
//! Usage: `fig45 [--instr N] [--threads N] [--bench NAME] [--summary]
//!                [--protocol migration|mesi|dragon]
//!                [--csv] [--json] [--no-manifest] [--manifest-dir DIR]`
//!
//! Figures 4–5 are LRU stack profiles over the L1-filtered stream (no
//! Machine is built), so `--protocol` does not change any number; it is
//! validated and recorded in the manifest for uniform sweep drivers.

use execmig_experiments::fig45::{self, Fig45Config};
use execmig_experiments::manifest::ManifestEmitter;
use execmig_experiments::report::{arg_flag, arg_protocol, arg_u64, arg_value};
use execmig_experiments::runner::default_threads;
use execmig_obs::{Json, ToJson};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instructions = arg_u64(&args, "--instr", 30_000_000);
    let threads = arg_u64(&args, "--threads", default_threads(18) as u64) as usize;
    let config = Fig45Config::paper(instructions);
    let mut em = ManifestEmitter::start("fig45", &args);
    em.budget(instructions);
    em.config(&config.to_json().field("protocol", arg_protocol(&args)));

    let rows = match arg_value(&args, "--bench") {
        Some(name) => vec![fig45::run_benchmark(&name, &config)],
        None => fig45::run_all(&config, threads),
    };
    em.stats(Json::object().field("rows", rows.len()));
    if arg_flag(&args, "--json") {
        println!("{}", rows.to_json().pretty());
        em.write();
        return;
    }
    println!(
        "== Figures 4-5 — L1-filtered LRU stack profiles, {} M instructions ==",
        instructions / 1_000_000
    );
    println!("p1 = single stack (\"normal\"), p4 = 4-way affinity split (\"split\")");
    println!();
    if arg_flag(&args, "--summary") {
        println!("{}", fig45::render_summary(&rows));
    } else {
        let rendered = fig45::render(&rows);
        if arg_flag(&args, "--csv") {
            let mut t = execmig_experiments::TextTable::new(&[
                "benchmark",
                "bytes",
                "p1",
                "p4",
                "transition_rate",
            ]);
            for r in &rows {
                for &(bytes, p1, p4) in &r.points {
                    t.row(&[
                        r.name.clone(),
                        bytes.to_string(),
                        format!("{p1:.5}"),
                        format!("{p4:.5}"),
                        format!("{:.5}", r.transition_rate),
                    ]);
                }
            }
            println!("{}", t.to_csv());
        } else {
            println!("{rendered}");
        }
    }
    em.write();
}
