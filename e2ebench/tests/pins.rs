//! At seed 0 the benchmark's workloads are the repository's real
//! experiments: the same streams through the same simulators, run in
//! segments, give the same numbers as one uninterrupted run of
//! `table2`, `table1` and `coherence_compare`.

use execmig_core::TableStats;
use execmig_e2e_bench::e2e::{self, Outcome, Run, Scenario};
use execmig_experiments::{coherence_compare, table1, table2};
use execmig_machine::MachineStats;

const BUDGET: u64 = 1_000_000;

fn pass(s: Scenario) -> Vec<Run> {
    let (_, mut passes) = e2e::run_segments(e2e::setup(s, 0), BUDGET);
    passes.pop().expect("segments").runs
}

fn machine(r: &Run) -> (&MachineStats, &TableStats) {
    match &r.result {
        Ok(Outcome::Machine {
            stats, affinity, ..
        }) => (stats, affinity),
        other => panic!("{}: {other:?}", r.item),
    }
}

fn per_instr(n: u64, s: &MachineStats) -> f64 {
    n as f64 / s.instructions.max(1) as f64
}

#[test]
fn table2_rows_equal_the_table2_experiment() {
    let runs = pass(Scenario::Table2);
    assert_eq!(runs.len(), 36);
    for pair in runs.chunks(2) {
        let bench = pair[0].item.bench;
        let row = table2::run_benchmark(bench, BUDGET);
        let (b, _) = machine(&pair[0]);
        let (m, affinity) = machine(&pair[1]);
        assert_eq!(row.instructions, m.instructions, "{bench}");
        assert_eq!(row.l1_ipe, b.instr_per_l1_miss(), "{bench}");
        assert_eq!(row.l2_ipe, b.instr_per_l2_miss(), "{bench}");
        assert_eq!(row.l2x4_ipe, m.instr_per_l2_miss(), "{bench}");
        assert_eq!(
            row.ratio.to_bits(),
            e2e::l2_ratio(b, m).to_bits(),
            "{bench}"
        );
        assert_eq!(row.migrations, m.migrations, "{bench}");
        assert_eq!(row.l2_forwards, m.l2_to_l2_forwards, "{bench}");
        assert_eq!(row.affinity_miss_rate, affinity.miss_rate(), "{bench}");
        assert_eq!(
            row.bus_bytes_per_instr,
            per_instr(m.bus.update_bus_bytes(), m),
            "{bench}"
        );
    }
}

#[test]
fn l1_stream_counts_equal_the_table1_experiment() {
    let runs = pass(Scenario::L1Stream);
    assert_eq!(runs.len(), 18);
    for r in &runs {
        let row = table1::run_benchmark(r.item.bench, BUDGET);
        let Ok(Outcome::L1 {
            instructions,
            il1_misses,
            dl1_misses,
            ..
        }) = r.result
        else {
            panic!("{}: {:?}", r.item, r.result);
        };
        assert_eq!(
            (instructions, il1_misses, dl1_misses),
            (row.instructions, row.il1_misses, row.dl1_misses),
            "{}",
            r.item
        );
    }
}

#[test]
fn coherence_rows_equal_the_mesi_and_dragon_rows() {
    let runs = pass(Scenario::Coherence);
    assert_eq!(runs.len(), 10);
    for pair in runs.chunks(2) {
        let bench = pair[0].item.bench;
        let rows = coherence_compare::run_benchmark(bench, BUDGET);
        for (run, row) in pair.iter().zip(&rows[1..]) {
            let (s, _) = machine(run);
            assert_eq!(format!("{}", run.item), format!("{bench}/{}", row.protocol));
            assert_eq!(
                (
                    s.instructions,
                    s.l2_misses,
                    s.migrations,
                    s.invalidations,
                    s.coherence_updates
                ),
                (
                    row.instructions,
                    row.l2_misses,
                    row.migrations,
                    row.invalidations,
                    row.coherence_updates
                ),
                "{}",
                run.item
            );
            assert_eq!(
                per_instr(s.coherence_bus_bytes, s),
                row.coherence_bytes_per_instr
            );
            assert_eq!(
                per_instr(s.bus.update_bus_bytes(), s),
                row.update_bus_bytes_per_instr
            );
        }
    }
}
