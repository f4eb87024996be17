//! The benchmark suite of the paper's Table 1: 13 SPEC CPU2000 and
//! 5 Olden benchmarks, each modelled by a synthetic generator whose
//! reference-stream structure matches the published signature of its
//! namesake (working-set size, circularity, randomness, code footprint,
//! phase behaviour).
//!
//! The mapping rationale per benchmark is documented on each entry of
//! [`all`]; DESIGN.md §2 records the overall substitution argument.

use crate::gen::{
    BlockPhaseParams, BlockPhaseWorkload, CodeHeavyParams, CodeHeavyWorkload, CodeWalkParams,
    HotRandomParams, HotRandomWorkload, PointerRingParams, PointerRingWorkload, RingGrowth,
    SweepParams, SweepWorkload,
};
use crate::rng::Rng;
use crate::workload::BoxedWorkload;

/// Which suite a benchmark belongs to (Table 1 groups rows this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkSuiteClass {
    /// SPEC CPU2000.
    Spec2000,
    /// Olden (sequential versions).
    Olden,
}

impl std::fmt::Display for BenchmarkSuiteClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchmarkSuiteClass::Spec2000 => f.write_str("SPEC2000"),
            BenchmarkSuiteClass::Olden => f.write_str("Olden"),
        }
    }
}

/// The expected qualitative outcome for Table 2's L2-miss ratio, from the
/// paper. Used by tests and EXPERIMENTS.md to check reproduction shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperOutcome {
    /// Migration clearly removes L2 misses (ratio well below 1).
    Improves,
    /// Migration leaves L2 misses essentially unchanged (ratio ≈ 1).
    Neutral,
    /// Migration adds L2 misses (ratio above 1).
    Degrades,
}

/// Static description of one suite benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkInfo {
    /// Short name matching the paper's tables (without the SPEC number).
    pub name: &'static str,
    /// SPEC or Olden.
    pub class: BenchmarkSuiteClass,
    /// The paper's Table 2 L2-miss ratio for this benchmark.
    pub paper_ratio: f64,
    /// The qualitative outcome the paper reports.
    pub paper_outcome: PaperOutcome,
    /// One-line description of the synthetic model used.
    pub model: &'static str,
}

/// Seed namespace for suite workloads, so every benchmark gets a distinct
/// deterministic stream.
const SUITE_SEED: u64 = 0x45_4d_49_47; // "EMIG"

fn seed_for(name: &str) -> u64 {
    let mut h = SUITE_SEED;
    for b in name.bytes() {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
    }
    h
}

/// All 18 benchmarks, in Table 1 order.
pub fn all() -> Vec<BenchmarkInfo> {
    use BenchmarkSuiteClass::{Olden, Spec2000};
    use PaperOutcome::{Degrades, Improves, Neutral};
    vec![
        BenchmarkInfo {
            name: "gzip",
            class: Spec2000,
            paper_ratio: 1.01,
            paper_outcome: Neutral,
            model: "random access in a 256 KB sliding window + runs (not splittable)",
        },
        BenchmarkInfo {
            name: "swim",
            class: Spec2000,
            paper_ratio: 1.00,
            paper_outcome: Neutral,
            model: "dense sweeps over 8x2 MB arrays (circular, exceeds 4xL2)",
        },
        BenchmarkInfo {
            name: "mgrid",
            class: Spec2000,
            paper_ratio: 1.00,
            paper_outcome: Neutral,
            model: "multigrid sweeps, mixed strides over 4 MB+1 MB+256 KB",
        },
        BenchmarkInfo {
            name: "vpr",
            class: Spec2000,
            paper_ratio: 1.60,
            paper_outcome: Degrades,
            model: "random placement swaps in 256 KB + very rare 4 MB excursions",
        },
        BenchmarkInfo {
            name: "gcc",
            class: Spec2000,
            paper_ratio: 0.95,
            paper_outcome: Neutral,
            model: "2.5 MB code walk + 512 KB data (instruction-dominated)",
        },
        BenchmarkInfo {
            name: "art",
            class: Spec2000,
            paper_ratio: 0.03,
            paper_outcome: Improves,
            model: "dense sweeps over 2x768 KB neural-net arrays (circular 1.5 MB)",
        },
        BenchmarkInfo {
            name: "mcf",
            class: Spec2000,
            paper_ratio: 0.67,
            paper_outcome: Improves,
            model: "1.6 MB arc-list ring with 20% random detours and revisits",
        },
        BenchmarkInfo {
            name: "crafty",
            class: Spec2000,
            paper_ratio: 1.13,
            paper_outcome: Degrades,
            model: "2 MB loopy code walk + rare random 2 MB hash probes",
        },
        BenchmarkInfo {
            name: "ammp",
            class: Spec2000,
            paper_ratio: 0.17,
            paper_outcome: Improves,
            model: "per-timestep sweeps over 1.75 MB molecule data with light noise",
        },
        BenchmarkInfo {
            name: "parser",
            class: Spec2000,
            paper_ratio: 1.00,
            paper_outcome: Neutral,
            model: "random dictionary probes over 1.5 MB with sequential runs",
        },
        BenchmarkInfo {
            name: "vortex",
            class: Spec2000,
            paper_ratio: 1.10,
            paper_outcome: Degrades,
            model: "1.5 MB code walk (hot core resident) + 256 KB object data",
        },
        BenchmarkInfo {
            name: "bzip2",
            class: Spec2000,
            paper_ratio: 0.35,
            paper_outcome: Improves,
            model: "repeated passes over 900 KB blocks, phase change per block",
        },
        BenchmarkInfo {
            name: "twolf",
            class: Spec2000,
            paper_ratio: 1.00,
            paper_outcome: Neutral,
            model: "random access in a 640 KB placement grid (slightly over one L2)",
        },
        BenchmarkInfo {
            name: "bh",
            class: Olden,
            paper_ratio: 2.16,
            paper_outcome: Degrades,
            model: "octree passes over 288 KB (fits one L2; migrations only hurt)",
        },
        BenchmarkInfo {
            name: "bisort",
            class: Olden,
            paper_ratio: 1.08,
            paper_outcome: Degrades,
            model: "384 KB tree ring re-linked every pass (order keeps changing)",
        },
        BenchmarkInfo {
            name: "em3d",
            class: Olden,
            paper_ratio: 0.14,
            paper_outcome: Improves,
            model: "1.1 MB bipartite-graph ring traversed in fixed order with revisits",
        },
        BenchmarkInfo {
            name: "health",
            class: Olden,
            paper_ratio: 0.14,
            paper_outcome: Improves,
            model: "growing hierarchy of patient lists, 640 KB -> 1.25 MB",
        },
        BenchmarkInfo {
            name: "mst",
            class: Olden,
            paper_ratio: 1.00,
            paper_outcome: Neutral,
            model: "hash-bucket probes over 6 MB (random, exceeds 4xL2)",
        },
    ]
}

/// Info for one benchmark by name.
pub fn info(name: &str) -> Option<BenchmarkInfo> {
    all().into_iter().find(|b| b.name == name)
}

/// Instantiates the workload for a suite benchmark by name.
///
/// Returns `None` for unknown names.
///
/// ```
/// use execmig_trace::{suite, Workload};
/// let mut w = suite::by_name("mcf").unwrap();
/// assert_eq!(w.name(), "mcf");
/// let _ = w.next_access();
/// ```
pub fn by_name(name: &str) -> Option<BoxedWorkload> {
    let seed = seed_for(name);
    let w: BoxedWorkload = match name {
        "gzip" => Box::new(HotRandomWorkload::new(
            "gzip",
            HotRandomParams {
                hot_bytes: 256 << 10,
                cold_bytes: 4 << 20,
                seq_run_permille: 250,
                run_lines_mean: 6,
                cold_ppm: 100,
                store_permille: 250,
                instr_per_access_x256: (4 * 256) + 128, // 4.5 instr/access
                region: 0,
                // Dictionary window slides: ~1 new line per 775 instr,
                // matching the compulsory-miss-dominated L2 behaviour.
                slide_every: 172,
            },
            Rng::seed_from(seed),
        )),
        "swim" => Box::new(SweepWorkload::new(
            "swim",
            SweepParams {
                arrays: vec![2 << 20; 8],
                strides: vec![8],
                store_permille: 250,
                instr_per_access_x256: 6 * 256,
                noise_permille: 0,
            },
            seed,
        )),
        "mgrid" => Box::new(SweepWorkload::new(
            "mgrid",
            SweepParams {
                arrays: vec![4 << 20, 1 << 20, 256 << 10],
                strides: vec![8, 64, 512],
                store_permille: 200,
                instr_per_access_x256: 5 * 256,
                noise_permille: 5,
            },
            seed,
        )),
        "vpr" => Box::new(HotRandomWorkload::new(
            "vpr",
            HotRandomParams {
                hot_bytes: 256 << 10,
                cold_bytes: 4 << 20,
                seq_run_permille: 60,
                run_lines_mean: 3,
                // Very rare excursions: the placement core fits the L2,
                // so L2 misses are ~1 per 10^5 instructions, as in the
                // paper's Table 2 (one per 90k instructions).
                cold_ppm: 40,
                store_permille: 250,
                instr_per_access_x256: 4 * 256,
                region: 0,
                slide_every: 0,
            },
            Rng::seed_from(seed),
        )),
        "gcc" => Box::new(CodeHeavyWorkload::new(CodeHeavyParams {
            name: "gcc",
            code: CodeWalkParams {
                footprint_bytes: 2560 << 10,
                func_lines_mean: 10,
                // Most control transfers stay in a hot ~200 KB code
                // subset (fits the L2); the cold tail supplies the L2
                // misses, as in the real gcc's flat-but-local profile.
                hot_permille: 880,
                hot_set_permille: 80,
                loop_repeat_mean: 2,
            },
            data: HotRandomParams {
                hot_bytes: 512 << 10,
                cold_bytes: 2 << 20,
                seq_run_permille: 200,
                run_lines_mean: 5,
                cold_ppm: 4000,
                store_permille: 250,
                instr_per_access_x256: 3 * 256,
                region: 0,
                slide_every: 0,
            },
            seed,
        })),
        "art" => Box::new(SweepWorkload::new(
            "art",
            SweepParams {
                arrays: vec![768 << 10, 768 << 10],
                strides: vec![8],
                store_permille: 120,
                instr_per_access_x256: 256 + 64, // 1.25 instr/access
                noise_permille: 0,
            },
            seed,
        )),
        "mcf" => Box::new(PointerRingWorkload::new(
            "mcf",
            PointerRingParams {
                // 1.6 MB of arcs: each split subset fits a 512 KB L2,
                // but the random jumps (noise) land in remote subsets
                // and keep the benefit partial, as in the paper.
                nodes: 26 << 10,
                node_lines: 1,
                noise_permille: 200,
                store_permille: 200,
                instr_per_access_x256: 2 * 256,
                growth: None,
                relink_every_passes: None,
                revisit: Some((350, 768)),
            },
            seed,
        )),
        "crafty" => Box::new(CodeHeavyWorkload::new(CodeHeavyParams {
            name: "crafty",
            code: CodeWalkParams {
                footprint_bytes: 2 << 20,
                func_lines_mean: 14,
                hot_permille: 910,
                hot_set_permille: 60,
                loop_repeat_mean: 3,
            },
            data: HotRandomParams {
                hot_bytes: 192 << 10,
                cold_bytes: 2 << 20,
                seq_run_permille: 120,
                run_lines_mean: 4,
                cold_ppm: 9_000,
                store_permille: 180,
                instr_per_access_x256: 5 * 256,
                region: 0,
                slide_every: 0,
            },
            seed,
        })),
        "ammp" => Box::new(SweepWorkload::new(
            "ammp",
            SweepParams {
                arrays: vec![1792 << 10],
                strides: vec![16],
                store_permille: 200,
                instr_per_access_x256: 2 * 256,
                noise_permille: 20,
            },
            seed,
        )),
        "parser" => Box::new(HotRandomWorkload::new(
            "parser",
            HotRandomParams {
                // The dictionary and parse structures exceed one L2
                // but the access pattern is random-like: no benefit.
                hot_bytes: 1536 << 10,
                cold_bytes: 2 << 20,
                seq_run_permille: 300,
                run_lines_mean: 4,
                cold_ppm: 1000,
                store_permille: 220,
                instr_per_access_x256: 6 * 256,
                region: 0,
                slide_every: 0,
            },
            Rng::seed_from(seed),
        )),
        "vortex" => Box::new(CodeHeavyWorkload::new(CodeHeavyParams {
            name: "vortex",
            code: CodeWalkParams {
                footprint_bytes: 1536 << 10,
                func_lines_mean: 12,
                hot_permille: 900,
                hot_set_permille: 90,
                loop_repeat_mean: 2,
            },
            data: HotRandomParams {
                hot_bytes: 256 << 10,
                cold_bytes: 2 << 20,
                seq_run_permille: 250,
                run_lines_mean: 6,
                cold_ppm: 1500,
                store_permille: 300,
                instr_per_access_x256: 4 * 256,
                region: 0,
                slide_every: 0,
            },
            seed,
        })),
        "bzip2" => Box::new(BlockPhaseWorkload::new(
            "bzip2",
            BlockPhaseParams {
                block_bytes: 900 << 10,
                blocks: 8,
                passes_per_block: 12,
                random_permille: 80,
                store_permille: 250,
                instr_per_access_x256: 5 * 256,
                stride: 16,
            },
            seed,
        )),
        "twolf" => Box::new(HotRandomWorkload::new(
            "twolf",
            HotRandomParams {
                // Slightly exceeds one 512 KB L2: L2 misses keep the
                // transition filter live, migrations are frequent but
                // harmless because inactive L2s stay warm (valid
                // broadcast-refreshed copies are usable locally).
                hot_bytes: 640 << 10,
                cold_bytes: 0,
                seq_run_permille: 100,
                run_lines_mean: 3,
                cold_ppm: 0,
                store_permille: 220,
                instr_per_access_x256: 3 * 256,
                region: 0,
                slide_every: 0,
            },
            Rng::seed_from(seed),
        )),
        "bh" => Box::new(PointerRingWorkload::new(
            "bh",
            PointerRingParams {
                nodes: 4608, // 288 KB octree
                node_lines: 1,
                noise_permille: 30,
                store_permille: 120,
                instr_per_access_x256: 9 * 256,
                growth: None,
                relink_every_passes: None,
                revisit: Some((250, 64)),
            },
            seed,
        )),
        "bisort" => Box::new(PointerRingWorkload::new(
            "bisort",
            PointerRingParams {
                // 384 KB of tree nodes: resident in one L2 once warm,
                // so migrations only cost; the bitonic re-linking keeps
                // the affinity mechanism from ever finding a stable
                // split (paper ratio 1.08).
                nodes: 6 << 10,
                node_lines: 1,
                noise_permille: 120,
                store_permille: 300,
                instr_per_access_x256: 10 * 256,
                growth: None,
                relink_every_passes: Some(1),
                revisit: Some((250, 96)),
            },
            seed,
        )),
        "em3d" => Box::new(PointerRingWorkload::new(
            "em3d",
            PointerRingParams {
                nodes: 18 << 10, // 1.1 MB bipartite graph
                node_lines: 1,
                noise_permille: 0,
                store_permille: 150,
                instr_per_access_x256: 4 * 256,
                growth: None,
                relink_every_passes: None,
                // Neighbour-list reuse: misses the DL1, hits the L2.
                revisit: Some((500, 1200)),
            },
            seed,
        )),
        "health" => Box::new(PointerRingWorkload::new(
            "health",
            PointerRingParams {
                nodes: 20 << 10, // grows to 1.25 MB
                node_lines: 1,
                noise_permille: 0,
                store_permille: 150,
                instr_per_access_x256: 4 * 256,
                growth: Some(RingGrowth {
                    start: 10 << 10,
                    per_pass: 256,
                }),
                relink_every_passes: None,
                revisit: Some((500, 1200)),
            },
            seed,
        )),
        "mst" => Box::new(HotRandomWorkload::new(
            "mst",
            HotRandomParams {
                hot_bytes: 6 << 20,
                cold_bytes: 0,
                seq_run_permille: 150,
                run_lines_mean: 4,
                cold_ppm: 0,
                store_permille: 150,
                instr_per_access_x256: 5 * 256,
                region: 0,
                slide_every: 0,
            },
            Rng::seed_from(seed),
        )),
        _ => return None,
    };
    Some(w)
}

/// Names of all suite benchmarks, in Table 1 order.
pub fn names() -> Vec<&'static str> {
    all().into_iter().map(|b| b.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn suite_has_18_benchmarks() {
        let infos = all();
        assert_eq!(infos.len(), 18);
        let spec = infos
            .iter()
            .filter(|b| b.class == BenchmarkSuiteClass::Spec2000)
            .count();
        assert_eq!(spec, 13);
        assert_eq!(infos.len() - spec, 5);
    }

    #[test]
    fn every_info_has_a_workload() {
        for b in all() {
            let mut w = by_name(b.name).unwrap_or_else(|| panic!("{} missing", b.name));
            assert_eq!(w.name(), b.name);
            let _ = w.next_access();
        }
    }

    #[test]
    fn unknown_name_returns_none() {
        assert!(by_name("nonesuch").is_none());
        assert!(info("nonesuch").is_none());
    }

    #[test]
    fn outcomes_match_ratios() {
        for b in all() {
            match b.paper_outcome {
                PaperOutcome::Improves => assert!(b.paper_ratio < 0.95, "{}", b.name),
                PaperOutcome::Neutral => {
                    assert!((0.9..=1.05).contains(&b.paper_ratio), "{}", b.name)
                }
                PaperOutcome::Degrades => assert!(b.paper_ratio > 1.05, "{}", b.name),
            }
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for name in names() {
            let mut a = by_name(name).unwrap();
            let mut b = by_name(name).unwrap();
            for i in 0..500 {
                assert_eq!(a.next_access(), b.next_access(), "{name} step {i}");
            }
        }
    }

    #[test]
    fn workloads_make_instruction_progress() {
        for name in names() {
            let mut w = by_name(name).unwrap();
            for _ in 0..2000 {
                let _ = w.next_access();
            }
            assert!(
                w.instructions() > 1000,
                "{name} only retired {} instructions",
                w.instructions()
            );
        }
    }

    #[test]
    fn seeds_differ_between_benchmarks() {
        assert_ne!(seed_for("gzip"), seed_for("swim"));
        assert_ne!(seed_for("art"), seed_for("mcf"));
    }
}
