//! Full-machine simulation of one benchmark: the Table 2 experiment for
//! a single workload, plus the break-even migration penalty.
//!
//! Run with: `cargo run --release --example migration_sim -- [bench] [instr]`
//! e.g.      `cargo run --release --example migration_sim -- art 20000000`

use execution_migration::machine::perf::break_even_pmig;
use execution_migration::machine::{Machine, MachineConfig, PerfModel};
use execution_migration::trace::suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = args.first().map(String::as_str).unwrap_or("art");
    let instructions: u64 = args
        .get(1)
        .map(|s| s.parse().expect("instruction count"))
        .unwrap_or(20_000_000);

    let info = suite::info(bench).unwrap_or_else(|| {
        eprintln!(
            "unknown benchmark {bench:?}; choose one of {:?}",
            suite::names()
        );
        std::process::exit(1);
    });
    println!("benchmark: {bench} ({})", info.model);
    println!(
        "simulating 2 x {} M instructions...\n",
        instructions / 1_000_000
    );

    // Baseline (one core, one 512 KB L2) and migration machine (4
    // cores, §4.2 controller), both fed one generated stream.
    let mut pair = [
        Machine::new(MachineConfig::single_core()),
        Machine::new(MachineConfig::four_core_migration()),
    ];
    let mut w = suite::by_name(bench).expect("suite benchmark");
    Machine::run_shared(&mut pair, &mut *w, instructions, None);

    let [b, m] = pair.each_ref().map(Machine::stats);
    println!("                      baseline    migration");
    println!(
        "instr / L1 miss     {:>10.0}   {:>10.0}",
        b.instr_per_l1_miss(),
        m.instr_per_l1_miss()
    );
    println!(
        "instr / L2 miss     {:>10.0}   {:>10.0}",
        b.instr_per_l2_miss(),
        m.instr_per_l2_miss()
    );
    println!("migrations          {:>10}   {:>10}", "-", m.migrations);
    let ratio = m.l2_miss_ratio(b);
    println!(
        "\nL2-miss ratio (migration/baseline): {ratio:.2}  (paper reports {:.2})",
        info.paper_ratio
    );

    match break_even_pmig(b, m) {
        Some(be) if be > 1.0 => {
            println!("break-even P_mig: {be:.1} — migration wins whenever a migration");
            println!("costs less than {be:.1} L2-miss/L3-hit penalties");
            for pmig in [5.0, 10.0, 30.0, be] {
                let model = PerfModel {
                    pmig,
                    ..PerfModel::default()
                };
                println!(
                    "  speedup at P_mig = {pmig:>5.1}: {:.3}x",
                    model.speedup(b, m)
                );
            }
        }
        Some(be) => println!("break-even P_mig: {be:.1} — migration never profitable here"),
        None => println!("no migrations occurred — nothing to trade off"),
    }
}
