//! Analyze a recorded trace (`.emt`, see `execmig_trace::io`): would
//! execution migration help this application?
//!
//! Prints the §4.1-style stack profile (p1 vs p4), the Table 2-style
//! machine comparison, and the break-even migration penalty.
//!
//! Usage: `analyze_trace <trace.emt> [--json] [--no-manifest]
//!                        [--manifest-dir DIR]`
//!
//! Record a trace from any `Workload` (or an external tool emitting the
//! same format) with `execmig_trace::TraceWriter`; see the
//! `record_replay` example.

use execmig_cache::{LruStack, StackProfile};
use execmig_core::{ControllerConfig, MigrationController};
use execmig_experiments::l1filter::L1Filter;
use execmig_experiments::manifest::ManifestEmitter;
use execmig_experiments::report::{arg_flag, fmt_ratio};
use execmig_machine::perf::break_even_pmig;
use execmig_machine::{Machine, MachineConfig};
use execmig_obs::Json;
use execmig_trace::{LineSize, TraceReader, Workload};
use std::fs::File;
use std::io::BufReader;
use std::process::exit;

fn open_trace(path: &str) -> TraceReader<BufReader<File>> {
    match File::open(path)
        .map_err(|e| e.to_string())
        .and_then(|f| TraceReader::new(BufReader::new(f)).map_err(|e| e.to_string()))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open trace {path}: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: analyze_trace <trace.emt> [--json]");
        exit(2);
    };
    let line = LineSize::DEFAULT;
    let mut em = ManifestEmitter::start("analyze_trace", &args);
    em.config(
        &Json::object()
            .field("trace", path.as_str())
            .field("line_bytes", line.bytes()),
    );

    // Pass 1: stack profiles through the §4.1 pipeline.
    let mut reader = open_trace(path);
    let mut filter = L1Filter::paper(line);
    let mut stack1 = LruStack::new();
    let mut profile1 = StackProfile::new(512 << 10);
    let mut stacks4: Vec<LruStack> = (0..4).map(|_| LruStack::new()).collect();
    let mut profile4 = StackProfile::new(512 << 10);
    let mut controller = MigrationController::new(ControllerConfig::paper_stack_profile());
    let mut accesses = 0u64;
    while !reader.is_finished() {
        let access = reader.next_access();
        accesses += 1;
        if let Some(miss) = filter.filter(access) {
            profile1.record(stack1.access(miss.raw()));
            let core = controller.on_request(miss.raw(), true);
            profile4.record(stacks4[core].access(miss.raw()));
        }
    }
    let instructions = reader.instructions();

    // Pass 2+3: baseline and migration machines.
    let run_machine = |config: MachineConfig| {
        let mut reader = open_trace(path);
        let mut machine = Machine::new(config);
        while !reader.is_finished() {
            let access = reader.next_access();
            machine.step_tagged(
                access.kind,
                line.line_of(access.addr),
                reader.instructions(),
                access.pointer,
            );
        }
        *machine.stats()
    };
    let base = run_machine(MachineConfig::single_core());
    let mig = run_machine(MachineConfig::four_core_migration());
    let ratio = mig.l2_miss_ratio(&base);
    let break_even = break_even_pmig(&base, &mig);

    em.budget(instructions);
    em.stats(
        Json::object()
            .field("instructions", instructions)
            .field("accesses", accesses)
            .field("l2_miss_ratio", ratio)
            .field("migrations", mig.migrations)
            .field("break_even_pmig", break_even),
    );
    if arg_flag(&args, "--json") {
        let points: Vec<Json> = (0..=10)
            .map(|i| {
                let bytes: u64 = (16 << 10) << i;
                let lines = bytes / line.bytes();
                Json::object()
                    .field("bytes", bytes)
                    .field("p1", profile1.frac_deeper_than(lines))
                    .field("p4", profile4.frac_deeper_than(lines))
            })
            .collect();
        let out = Json::object()
            .field("instructions", instructions)
            .field("accesses", accesses)
            .field("profile", Json::Arr(points))
            .field(
                "transition_rate",
                controller.splitter_stats().transition_rate(),
            )
            .field("l2_miss_ratio", ratio)
            .field("migrations", mig.migrations)
            .field("break_even_pmig", break_even);
        println!("{}", out.pretty());
        em.write();
        return;
    }

    println!(
        "trace: {accesses} accesses, {} M instructions",
        instructions / 1_000_000
    );
    println!("\nstack profile (p1 single / p4 split, fraction deeper than size):");
    for i in 0..=10 {
        let bytes: u64 = (16 << 10) << i;
        let lines = bytes / line.bytes();
        println!(
            "  {:>6}  p1 {:.3}  p4 {:.3}",
            execmig_experiments::report::fmt_bytes(bytes),
            profile1.frac_deeper_than(lines),
            profile4.frac_deeper_than(lines)
        );
    }
    println!(
        "transition rate: {:.4} per stack access",
        controller.splitter_stats().transition_rate()
    );
    println!("\nmachine comparison (64 B lines, 16 KB L1s, 512 KB L2s):");
    println!(
        "  baseline : L2 miss every {:.0} instructions",
        base.instr_per_l2_miss()
    );
    println!(
        "  migration: L2 miss every {:.0} instructions, {} migrations",
        mig.instr_per_l2_miss(),
        mig.migrations
    );
    println!("  L2-miss ratio: {}", fmt_ratio(ratio));
    match break_even {
        Some(be) if be > 1.0 => {
            println!("  => migration helps whenever P_mig < {be:.0} L2-miss penalties")
        }
        Some(_) => println!("  => migration adds misses here; it never pays"),
        None => println!("  => no migrations were triggered"),
    }
    em.write();
}
