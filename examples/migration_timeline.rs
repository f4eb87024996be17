//! Watch the migration controller learn: a windowed timeline of L2
//! misses, migrations, and the active core.
//!
//! Run with: `cargo run --release --example migration_timeline -- [bench] [instr]`
//!
//! Each window is one `ProfileRecord` between two cumulative snapshots
//! of the machine, so it needs no attached profiler. Pass
//! `--json` to dump the record array (per-core residency, transition
//! flips, affinity-table hits and misses, bus bytes, …) for plotting.

use execution_migration::machine::{Machine, MachineConfig};
use execution_migration::obs::{ProfileRecord, ToJson};
use execution_migration::trace::suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let args: Vec<String> = args.into_iter().filter(|a| a != "--json").collect();
    let bench = args.first().map(String::as_str).unwrap_or("art");
    let instructions: u64 = args
        .get(1)
        .map(|s| s.parse().expect("instruction count"))
        .unwrap_or(20_000_000);
    if suite::info(bench).is_none() {
        eprintln!(
            "unknown benchmark {bench:?}; choose one of {:?}",
            suite::names()
        );
        std::process::exit(1);
    }

    let window = (instructions / 40).max(1);
    let mut machine = Machine::new(MachineConfig::four_core_migration());
    let mut workload = suite::by_name(bench).unwrap();
    let mut prev = machine.profile_cumulative();
    let mut records = Vec::new();
    while prev.instructions < instructions {
        machine.run(
            &mut *workload,
            (prev.instructions + window).min(instructions),
        );
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
    let max_density = records
        .iter()
        .map(ProfileRecord::l2_miss_density)
        .fold(1e-9, f64::max);
    for (i, r) in records.iter().enumerate() {
        let density = r.l2_miss_density();
        let bar_len = (density / max_density * 40.0).round() as usize;
        println!(
            "{i:>5}    C{}  {:>9}  {:>8.2} |{}|",
            r.active_core,
            r.migrations,
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
