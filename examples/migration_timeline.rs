//! Watch the migration controller learn: a windowed timeline of L2
//! misses, migrations, and the active core.
//!
//! Run with: `cargo run --release --example migration_timeline -- [bench] [instr] [--json]`
//!
//! Each window is one `ProfileRecord` between two cumulative snapshots
//! of the machine (`Machine::profile_cumulative`), so it needs no
//! attached profiler. Pass `--json` to dump the record array (the
//! machine's profiled counters, per-core residency, `F`, `A_R`, …) for
//! plotting. An unknown benchmark, a malformed instruction count or an
//! extra argument prints usage and exits 2.

use execution_migration::machine::{Machine, MachineConfig};
use execution_migration::obs::{ProfileRecord, ToJson};
use execution_migration::trace::suite;
use std::process::exit;

/// Reports `problem` with the usage line and exits 2.
fn usage(problem: &str) -> ! {
    eprintln!("migration_timeline: {problem}");
    eprintln!(
        "usage: migration_timeline [BENCH] [INSTRUCTIONS] [--json]; BENCH is one of {:?}",
        suite::names()
    );
    exit(2);
}

/// L2 misses per kilo-instruction in the window.
fn l2_density(r: &ProfileRecord) -> f64 {
    r["l2_misses"] as f64 * 1000.0 / r.len_instructions().max(1) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let args: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|&a| a != "--json")
        .collect();
    if args.len() > 2 {
        usage(&format!("unexpected argument {:?}", args[2]));
    }
    let bench = args.first().copied().unwrap_or("art");
    let instructions: u64 = match args.get(1) {
        None => 20_000_000,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| usage(&format!("{s:?} is not an instruction count"))),
    };
    let Some(mut workload) = suite::by_name(bench) else {
        usage(&format!("unknown benchmark {bench:?}"));
    };

    let window = (instructions / 40).max(1);
    let mut machine = Machine::new(MachineConfig::four_core_migration());
    let mut prev = machine.profile_cumulative();
    let mut records = Vec::new();
    while prev.end < instructions {
        machine.run(&mut *workload, (prev.end + window).min(instructions));
        let now = machine.profile_cumulative();
        records.push(ProfileRecord::between(&prev, &now));
        prev = now;
    }

    if json {
        println!("{}", records.to_json().pretty());
        return;
    }
    println!(
        "{bench}: {} windows of {} instructions",
        records.len(),
        window
    );
    println!("window  core  migrations  L2 misses/kinstr");
    let max_density = records.iter().map(l2_density).fold(1e-9, f64::max);
    for (i, r) in records.iter().enumerate() {
        let density = l2_density(r);
        let bar_len = (density / max_density * 40.0).round() as usize;
        println!(
            "{i:>5}    C{}  {:>9}  {:>8.2} |{}|",
            r.active_core,
            r["migrations"],
            density,
            "#".repeat(bar_len)
        );
    }
    println!(
        "\ntotal: {} migrations, {} L2 misses over {} M instructions",
        machine.stats().migrations,
        machine.stats().l2_misses,
        instructions / 1_000_000
    );
    println!("(on splittable benchmarks the bars collapse once the split settles)");
}
