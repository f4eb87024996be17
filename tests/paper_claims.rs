//! Integration tests asserting the paper's headline claims reproduce,
//! at reduced (CI-friendly) instruction budgets.
//!
//! Each budget-heavy claim comes in two forms: the default test runs a
//! scaled-down budget (overridable via the `EXECMIG_TEST_INSTR`
//! environment variable, see `common::instr_budget`) so the tier-1
//! suite stays fast, and a `*_full` twin behind `#[ignore]` replays the
//! original paper budget (`cargo test --test paper_claims -- --ignored`).

mod common;

use common::instr_budget;
use execution_migration::experiments::{fig3, fig45, table2};
use execution_migration::machine::perf::break_even_pmig;
use execution_migration::machine::{Machine, MachineConfig};
use execution_migration::trace::suite;

/// §3.3 / Figure 3: Circular(4000) with |R| = 100 reaches the optimal
/// split — one transition every 2000 references — and a balanced sign
/// distribution.
#[test]
fn fig3_circular_reaches_optimal_split() {
    let result = fig3::run(fig3::Fig3Config::circular());
    let last = result.snapshots.last().unwrap();
    assert!((0.4..=0.6).contains(&last.positive_fraction));
    assert!(
        (last.transition_rate - 0.0005).abs() < 0.0005,
        "rate {}",
        last.transition_rate
    );
}

/// §3.3 / Figure 3: HalfRandom(300) transitions about once per burst.
#[test]
fn fig3_half_random_transitions_once_per_burst() {
    let result = fig3::run(fig3::Fig3Config::half_random());
    let last = result.snapshots.last().unwrap();
    assert!(
        (last.transition_rate - 1.0 / 300.0).abs() < 1.5 / 300.0,
        "rate {}",
        last.transition_rate
    );
}

/// §4.1 / Figures 4-5: the splittable/unsplittable classification —
/// art, ammp, em3d show a clear p1-p4 gap; gzip, vpr do not.
fn check_fig45_splittability(budget: u64, slow_budget: u64) {
    let config = fig45::Fig45Config::paper(budget);
    let slow_config = fig45::Fig45Config::paper(slow_budget);
    for name in ["art", "ammp", "em3d"] {
        // ammp and em3d warm their working sets slowly: their split
        // gains only clear the threshold at roughly twice art's budget.
        let config = if name == "art" { &config } else { &slow_config };
        let r = fig45::run_benchmark(name, config);
        assert!(r.split_gain > 0.05, "{name} gain {}", r.split_gain);
    }
    for name in ["gzip", "vpr"] {
        let r = fig45::run_benchmark(name, &config);
        assert!(r.split_gain.abs() < 0.08, "{name} gain {}", r.split_gain);
    }
}

#[test]
fn fig45_splittability_classification() {
    let budget = instr_budget(3_000_000);
    check_fig45_splittability(budget, budget * 2);
}

#[test]
#[ignore = "paper budget (8M instructions x 5 benchmarks); run with --ignored"]
fn fig45_splittability_classification_full() {
    check_fig45_splittability(8_000_000, 8_000_000);
}

/// §4.1: the transition frequency remains low in all cases — the
/// paper's worst is 1.34 % (vpr).
fn check_fig45_transition_frequency(budget: u64) {
    let config = fig45::Fig45Config::paper(budget);
    for name in ["gzip", "vpr", "mcf", "art", "bh"] {
        let r = fig45::run_benchmark(name, &config);
        assert!(
            r.transition_rate < 0.05,
            "{name}: transition rate {}",
            r.transition_rate
        );
    }
}

#[test]
fn fig45_transition_frequency_remains_low() {
    check_fig45_transition_frequency(instr_budget(2_000_000));
}

#[test]
#[ignore = "paper budget (4M instructions x 5 benchmarks); run with --ignored"]
fn fig45_transition_frequency_remains_low_full() {
    check_fig45_transition_frequency(4_000_000);
}

/// §4.2 / Table 2: the strong improvers improve and the degraders
/// degrade (moderate budget; the full sweep is in the table2 binary).
fn check_table2_headline_rows(scale: u64) {
    let improver = table2::run_benchmark("art", 20_000_000 / scale);
    assert!(improver.ratio < 0.3, "art ratio {}", improver.ratio);
    let degrader = table2::run_benchmark("bh", 30_000_000 / scale);
    assert!(degrader.ratio > 1.1, "bh ratio {}", degrader.ratio);
    let neutral = table2::run_benchmark("mst", 10_000_000 / scale);
    assert!(
        (0.95..=1.05).contains(&neutral.ratio),
        "mst ratio {}",
        neutral.ratio
    );
}

#[test]
fn table2_headline_rows() {
    // `EXECMIG_TEST_INSTR` sets the budget of the largest row (art);
    // the others keep their paper proportions. art's migration-mode
    // miss collapse needs ~10M instructions to amortise the cold start.
    let art_budget = instr_budget(10_000_000);
    check_table2_headline_rows((20_000_000 / art_budget).max(1));
}

#[test]
#[ignore = "paper budget (60M instructions); run with --ignored"]
fn table2_headline_rows_full() {
    check_table2_headline_rows(1);
}

/// §4.2: "In all cases, the frequency of migrations is kept under
/// control" — no benchmark migrates more often than once per ~500
/// instructions.
fn check_table2_migration_frequency(budget: u64) {
    for name in ["art", "em3d", "gzip", "swim"] {
        let r = table2::run_benchmark(name, budget);
        assert!(
            r.migration_ipe > 500.0,
            "{name}: migration every {} instructions",
            r.migration_ipe
        );
    }
}

#[test]
fn table2_migration_frequency_under_control() {
    check_table2_migration_frequency(instr_budget(3_000_000));
}

#[test]
#[ignore = "paper budget (10M instructions x 4 benchmarks); run with --ignored"]
fn table2_migration_frequency_under_control_full() {
    check_table2_migration_frequency(10_000_000);
}

/// §4.2's mcf argument: migration removes many L2 misses per migration,
/// so a positive break-even P_mig exists.
fn check_break_even_pmig(budget: u64) {
    for name in ["art", "health"] {
        let mut pair = [
            Machine::new(MachineConfig::single_core()),
            Machine::new(MachineConfig::four_core_migration()),
        ];
        Machine::run_shared(&mut pair, &mut *suite::by_name(name).unwrap(), budget, None);
        let [baseline, migration] = &pair;
        let be = break_even_pmig(baseline.stats(), migration.stats())
            .unwrap_or_else(|| panic!("{name} made no migrations"));
        assert!(be > 5.0, "{name}: break-even P_mig {be}");
    }
}

#[test]
fn break_even_pmig_positive_for_improvers() {
    check_break_even_pmig(instr_budget(5_000_000));
}

#[test]
#[ignore = "paper budget (15M instructions x 4 runs); run with --ignored"]
fn break_even_pmig_positive_for_improvers_full() {
    check_break_even_pmig(15_000_000);
}

/// The suite metadata's expected outcomes stay in sync with what the
/// simulator actually produces for a representative subset.
fn check_suite_outcomes(scale: u64) {
    use execution_migration::trace::suite::PaperOutcome;
    for (name, budget) in [("em3d", 20_000_000u64), ("vpr", 30_000_000)] {
        let info = suite::info(name).unwrap();
        let r = table2::run_benchmark(name, budget / scale);
        match info.paper_outcome {
            PaperOutcome::Improves => {
                assert!(r.ratio < 0.9, "{name} ratio {}", r.ratio)
            }
            PaperOutcome::Neutral => {
                assert!((0.9..=1.05).contains(&r.ratio), "{name} ratio {}", r.ratio)
            }
            PaperOutcome::Degrades => {
                assert!(r.ratio > 1.02, "{name} ratio {}", r.ratio)
            }
        }
    }
}

#[test]
fn suite_outcomes_match_simulation() {
    let em3d_budget = instr_budget(6_000_000);
    check_suite_outcomes((20_000_000 / em3d_budget).max(1));
}

#[test]
#[ignore = "paper budget (50M instructions); run with --ignored"]
fn suite_outcomes_match_simulation_full() {
    check_suite_outcomes(1);
}
