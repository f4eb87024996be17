//! Differential checker: runs the naive reference machine and the
//! optimized machine in lockstep and reports the first divergence.
//!
//! Modes (combinable; default is `--suite`):
//!
//! - `--suite`: lockstep over every suite workload on the paper's
//!   4-core migration machine.
//! - `--fuzz N`: N fuzzed streams (seeds `--seed S`, S+1, …) against
//!   every stress configuration; a divergence is ddmin-shrunk and the
//!   minimal repro written to `--repro-dir DIR` (default
//!   `differ-repros`) as an `EMT1` trace.
//! - `--replay FILE`: replays a repro artifact against every stress
//!   configuration (or just `--config NAME`).
//!
//! Usage: `differ [--suite] [--fuzz N] [--seed S] [--budget INSTR]
//!                 [--accesses N] [--replay FILE] [--config NAME]
//!                 [--protocol migration|mesi|dragon] [--repro-dir DIR]`
//!
//! `--protocol` selects the L2 coherence backend: the suite lockstep
//! runs the paper machine under it, and fuzz/replay rounds keep only
//! the stress configurations using it (default: suite under migration
//! mode, fuzz/replay against every configuration).
//!
//! Exits 0 when every comparison matches, 1 on any divergence, 2 on
//! usage errors.

use execmig_check::fuzz::{diverges, generate, shrink, stress_configs, write_repro, FuzzConfig};
use execmig_check::Lockstep;
use execmig_experiments::report::{arg_flag, arg_u64, arg_value};
use execmig_machine::{MachineConfig, Protocol};
use execmig_obs::{wall, Family, Wall};
use execmig_trace::suite;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::exit;

fn suite_lockstep(budget: u64, protocol: Protocol) -> bool {
    let mut clean = true;
    for name in suite::names() {
        // Each lockstep case is one wall-clock span, so a traced run
        // reports where differ time goes per case family.
        let _case_span = wall::span(Family::DifferCase);
        let mut workload = suite::by_name(name).expect("suite name");
        let mut lockstep = Lockstep::new(MachineConfig {
            protocol,
            ..MachineConfig::four_core_migration()
        });
        let report = lockstep
            .run_workload(&mut *workload, budget)
            .or_else(|| lockstep.final_check());
        match report {
            None => println!(
                "suite {name:>8} [{}]: ok ({} steps, {} migrations)",
                protocol.as_str(),
                lockstep.steps(),
                lockstep.machine().stats().migrations
            ),
            Some(report) => {
                clean = false;
                println!("suite {name:>8}: DIVERGED");
                println!("{report}");
            }
        }
    }
    clean
}

fn fuzz_round(
    fuzz: &FuzzConfig,
    config_filter: Option<&str>,
    protocol: Option<Protocol>,
    repro_dir: &Path,
) -> bool {
    // One span per fuzz round: generation plus every lockstep +
    // shrink it triggers.
    let _fuzz_span = wall::span(Family::DifferFuzz);
    let stream = generate(fuzz);
    let mut clean = true;
    for (name, config) in stress_configs() {
        if config_filter.is_some_and(|f| f != name) {
            continue;
        }
        if protocol.is_some_and(|p| p != config.protocol) {
            continue;
        }
        let Some(report) = diverges(&config, &stream) else {
            println!(
                "fuzz seed {} vs {name}: ok ({} steps)",
                fuzz.seed,
                stream.len()
            );
            continue;
        };
        clean = false;
        println!("fuzz seed {} vs {name}: DIVERGED", fuzz.seed);
        println!("{report}");
        let minimal = shrink(&config, &stream);
        println!(
            "shrunk {} -> {} steps; minimal divergence:",
            stream.len(),
            minimal.len()
        );
        if let Some(small) = diverges(&config, &minimal) {
            println!("{small}");
        }
        if let Err(e) = std::fs::create_dir_all(repro_dir) {
            eprintln!("cannot create {}: {e}", repro_dir.display());
            continue;
        }
        let path = repro_dir.join(format!("repro-seed{}-{name}.emt", fuzz.seed));
        match File::create(&path)
            .map_err(|e| e.to_string())
            .and_then(|f| {
                write_repro(BufWriter::new(f), &minimal)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }) {
            Ok(()) => println!("repro written to {}", path.display()),
            Err(e) => eprintln!("cannot write repro {}: {e}", path.display()),
        }
    }
    clean
}

fn replay(path: &str, config_filter: Option<&str>, protocol: Option<Protocol>) -> bool {
    let steps = match File::open(path).map_err(|e| e.to_string()).and_then(|f| {
        execmig_check::read_repro(std::io::BufReader::new(f)).map_err(|e| e.to_string())
    }) {
        Ok(steps) => steps,
        Err(e) => {
            eprintln!("cannot read repro {path}: {e}");
            exit(2);
        }
    };
    println!("replaying {path}: {} steps", steps.len());
    let mut clean = true;
    for (name, config) in stress_configs() {
        if config_filter.is_some_and(|f| f != name) {
            continue;
        }
        if protocol.is_some_and(|p| p != config.protocol) {
            continue;
        }
        match diverges(&config, &steps) {
            None => println!("replay vs {name}: ok"),
            Some(report) => {
                clean = false;
                println!("replay vs {name}: DIVERGED");
                println!("{report}");
            }
        }
    }
    clean
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: differ [--suite] [--fuzz N] [--seed S] [--budget INSTR] \
             [--accesses N] [--replay FILE] [--config NAME] \
             [--protocol migration|mesi|dragon] [--repro-dir DIR]"
        );
        exit(2);
    }
    let protocol = arg_value(&args, "--protocol").map(|v| {
        Protocol::parse(&v).unwrap_or_else(|| {
            eprintln!("--protocol expects migration|mesi|dragon, got {v:?}");
            exit(2);
        })
    });
    let budget = arg_u64(&args, "--budget", 2_000_000);
    let seed0 = arg_u64(&args, "--seed", 1);
    let accesses = arg_u64(&args, "--accesses", FuzzConfig::default().accesses);
    let fuzz_rounds = arg_u64(&args, "--fuzz", 0);
    let config_filter = arg_value(&args, "--config");
    let repro_dir = arg_value(&args, "--repro-dir").unwrap_or_else(|| "differ-repros".to_string());
    let replay_path = arg_value(&args, "--replay");
    let run_suite = arg_flag(&args, "--suite") || (fuzz_rounds == 0 && replay_path.is_none());

    // A local span recorder for the differ's own wall-clock time:
    // one slot, the main thread.
    let recorder = Wall::with_threads(1);
    wall::attach(&recorder, 0);

    let mut clean = true;
    if let Some(path) = replay_path {
        clean &= replay(&path, config_filter.as_deref(), protocol);
    }
    if run_suite {
        clean &= suite_lockstep(budget, protocol.unwrap_or_default());
    }
    for round in 0..fuzz_rounds {
        let fuzz = FuzzConfig {
            seed: seed0 + round,
            accesses,
            ..FuzzConfig::default()
        };
        clean &= fuzz_round(
            &fuzz,
            config_filter.as_deref(),
            protocol,
            Path::new(&repro_dir),
        );
    }
    // Detaching hands the main thread's spans to the recorder.
    wall::detach();
    let snap = recorder.snapshot();
    for f in snap.families.iter().filter(|f| f.count > 0) {
        eprintln!(
            "differ wall: {:>12} x{:<4} p50 {} ns, p99 {} ns, p999 {} ns",
            f.family.name(),
            f.count,
            f.p50_ns,
            f.p99_ns,
            f.p999_ns
        );
    }
    if !clean {
        exit(1);
    }
}
