//! `golden` — prints the golden file: every workload's runs at seed 0
//! and the canonical budget, one line per run.
//!
//! The benchmark fails a seed-0 run whose statistics differ from the
//! file. A change meant to alter the simulation regenerates it:
//!
//! ```bash
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin golden > e2ebench/golden/seed0.txt
//! ```

use execmig_e2e_bench::e2e::{self, Scenario};

fn main() {
    println!("# Simulated statistics of every benchmark run at --seed 0 and the canonical");
    println!("# budget. Regenerate with the `golden` binary of this package.");
    println!("# machine runs: instructions ifetches loads stores il1_misses dl1_misses");
    println!("#   l2_accesses l2_misses l2_forwards invalidations updates update_bus_bytes");
    println!("#   coherence_bus_bytes migrations l1_requests affinity_hits affinity_misses");
    println!("# l1 runs: instructions accesses il1_misses dl1_misses");
    for scenario in Scenario::ALL {
        let budget = scenario.canonical_budget();
        let (_, passes) = e2e::run_segments(e2e::setup(scenario, 0), budget);
        for run in &passes[e2e::SEGMENTS - 1].runs {
            let outcome = run
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", run.item));
            println!("{}", e2e::golden_line(scenario, run.item, outcome));
        }
    }
}
