//! Seeded workload fuzzing with delta-debugging shrink.
//!
//! [`generate`] derives a deterministic access stream from a
//! [`FuzzConfig`] seed; [`diverges`] replays it through the lockstep
//! differ; on divergence, [`shrink`] bisects the stream to a locally
//! minimal repro with the classic ddmin complement-removal loop, and
//! [`write_repro`]/[`read_repro`] round-trip it through the `EMT1`
//! trace format so the `differ` binary and `tests/` can replay it.

use std::io::{Read, Write};

use execmig_core::{ControllerConfig, Sampler, TableConfig};
use execmig_machine::{CacheGeometry, MachineConfig, PrefetchConfig, Protocol};
use execmig_trace::{Access, AccessKind, Addr, Rng, TraceIoResult, TraceReader, TraceWriter};

use crate::differ::{DivergenceReport, Lockstep, TraceStep};

/// Parameters of the deterministic stream generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Seed of the stream (same seed, same stream).
    pub seed: u64,
    /// Number of accesses to generate.
    pub accesses: u64,
    /// Lines in the full working set.
    pub working_set_lines: u64,
    /// Lines in the hot subset jumps prefer.
    pub hot_lines: u64,
    /// Per-mille chance an access jumps instead of walking.
    pub jump_permille: u64,
    /// Per-mille chance of a store.
    pub store_permille: u64,
    /// Per-mille chance of an ifetch.
    pub ifetch_permille: u64,
    /// Per-mille chance a load is a pointer load.
    pub pointer_permille: u64,
}

execmig_obs::impl_to_json!(FuzzConfig {
    seed,
    accesses,
    working_set_lines,
    hot_lines,
    jump_permille,
    store_permille,
    ifetch_permille,
    pointer_permille,
});

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            accesses: 40_000,
            working_set_lines: 6_000,
            hot_lines: 96,
            jump_permille: 120,
            store_permille: 180,
            ifetch_permille: 350,
            pointer_permille: 250,
        }
    }
}

/// Generates the deterministic access stream of `config`: a sequential
/// walk with occasional jumps (biased toward a hot subset), a retire
/// mix set by the per-mille knobs, and 1–3 instructions per access.
pub fn generate(config: &FuzzConfig) -> Vec<TraceStep> {
    let mut rng = Rng::seed_from(config.seed);
    let line_bytes = 64u64;
    let mut steps = Vec::with_capacity(config.accesses as usize);
    let mut line = rng.below(config.working_set_lines.max(1));
    let mut instructions = 0u64;
    for _ in 0..config.accesses {
        if rng.chance(config.jump_permille, 1000) {
            line = if rng.chance(1, 2) {
                rng.below(config.hot_lines.max(1))
            } else {
                rng.below(config.working_set_lines.max(1))
            };
        } else {
            line = (line + 1) % config.working_set_lines.max(1);
        }
        let addr = Addr::new(line * line_bytes + rng.below(line_bytes));
        let kind = if rng.chance(config.ifetch_permille, 1000) {
            AccessKind::IFetch
        } else if rng.chance(config.store_permille, 1000) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let pointer = kind == AccessKind::Load && rng.chance(config.pointer_permille, 1000);
        instructions += 1 + rng.below(3);
        steps.push(TraceStep {
            access: Access {
                kind,
                addr,
                pointer,
            },
            instructions,
        });
    }
    steps
}

/// Replays `trace` through a fresh lockstep pair under `config`;
/// returns the first per-step divergence, or the end-of-run deep
/// (cache-contents) divergence if the steps all matched.
pub fn diverges(config: &MachineConfig, trace: &[TraceStep]) -> Option<DivergenceReport> {
    let mut lockstep = Lockstep::new(config.clone());
    lockstep.run_trace(trace).or_else(|| lockstep.final_check())
}

/// Classic ddmin: removes complements of ever-finer chunkings while
/// `pred` (the "still fails" oracle) holds, converging to a locally
/// 1-minimal failing subsequence. `pred` must hold on the input.
pub fn ddmin<F: FnMut(&[TraceStep]) -> bool>(trace: &[TraceStep], mut pred: F) -> Vec<TraceStep> {
    let mut current: Vec<TraceStep> = trace.to_vec();
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // The complement: everything but current[start..end].
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && pred(&candidate) {
                current = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    current
}

/// Shrinks a diverging `trace` to a locally minimal repro under
/// `config`, using [`diverges`] as the ddmin oracle.
pub fn shrink(config: &MachineConfig, trace: &[TraceStep]) -> Vec<TraceStep> {
    ddmin(trace, |candidate| diverges(config, candidate).is_some())
}

/// Writes `trace` as an `EMT1` artifact (subsequences keep their
/// non-decreasing instruction counts, so shrunk repros serialize
/// as-is).
///
/// # Errors
///
/// Fails on I/O errors from `sink`.
pub fn write_repro<W: Write>(sink: W, trace: &[TraceStep]) -> TraceIoResult<W> {
    let mut writer = TraceWriter::new(sink)?;
    for step in trace {
        writer.record(step.access, step.instructions)?;
    }
    writer.finish()
}

/// Reads a repro back from an `EMT1` stream.
///
/// # Errors
///
/// Fails on I/O errors or a corrupt/truncated trace.
pub fn read_repro<R: Read>(source: R) -> TraceIoResult<Vec<TraceStep>> {
    let mut reader = TraceReader::new(source)?;
    let mut steps = Vec::new();
    while let Some(access) = reader.try_next_access()? {
        steps.push(TraceStep {
            access,
            instructions: reader.instructions_so_far(),
        });
    }
    Ok(steps)
}

/// The fuzzer's machine configurations: small caches so eviction,
/// coherence and replacement corner cases fire within a CI-sized
/// stream, plus the full paper configuration.
pub fn stress_configs() -> Vec<(String, MachineConfig)> {
    let tiny_l1 = CacheGeometry {
        capacity_bytes: 1 << 10,
        ways: 2,
        indexing: execmig_cache::Indexing::Modulo,
    };
    let tiny_l2 = CacheGeometry {
        capacity_bytes: 8 << 10,
        ways: 4,
        indexing: execmig_cache::Indexing::Skewed,
    };
    let four = MachineConfig::four_core_migration();
    let small_controller = ControllerConfig {
        table: TableConfig::Skewed {
            entries: 256,
            ways: 4,
        },
        sampler: Sampler::full(),
        ..four
            .controller
            .expect("four_core_migration has a controller")
    };
    let mut configs = vec![
        (
            "tiny-4core-migration".to_string(),
            MachineConfig {
                cores: 4,
                il1: tiny_l1,
                dl1: tiny_l1,
                l2: tiny_l2,
                controller: Some(small_controller),
                ..MachineConfig::four_core_migration()
            },
        ),
        (
            "tiny-2core-migration".to_string(),
            MachineConfig {
                cores: 2,
                il1: tiny_l1,
                dl1: tiny_l1,
                l2: tiny_l2,
                controller: Some(ControllerConfig {
                    ways: execmig_core::SplitWays::Two,
                    ..small_controller
                }),
                ..MachineConfig::four_core_migration()
            },
        ),
        (
            "tiny-1core-prefetch-l3".to_string(),
            MachineConfig {
                il1: tiny_l1,
                dl1: tiny_l1,
                l2: tiny_l2,
                prefetch: Some(PrefetchConfig { degree: 2 }),
                l3: Some(CacheGeometry {
                    capacity_bytes: 32 << 10,
                    ways: 4,
                    indexing: execmig_cache::Indexing::Skewed,
                }),
                ..MachineConfig::single_core()
            },
        ),
        (
            "paper-4core".to_string(),
            MachineConfig::four_core_migration(),
        ),
    ];
    // Also exercise migration + prefetch + finite L3 together.
    configs.push((
        "tiny-4core-prefetch-l3".to_string(),
        MachineConfig {
            prefetch: Some(PrefetchConfig { degree: 2 }),
            l3: Some(CacheGeometry {
                capacity_bytes: 32 << 10,
                ways: 4,
                indexing: execmig_cache::Indexing::Skewed,
            }),
            ..configs[0].1.clone()
        },
    ));
    // The bus protocols, over the most stressful geometries: the
    // controller stays configured (migrations are what spread copies
    // across L2s and make coherence traffic fire), only the L2
    // protocol changes.
    for protocol in [Protocol::Mesi, Protocol::Dragon] {
        configs.push((
            format!("tiny-4core-{}", protocol.as_str()),
            MachineConfig {
                protocol,
                ..configs[0].1.clone()
            },
        ));
        configs.push((
            format!("tiny-4core-prefetch-l3-{}", protocol.as_str()),
            MachineConfig {
                protocol,
                ..configs[4].1.clone()
            },
        ));
    }
    // Eight cores: the splitter's third level, and an active core that
    // must be one of eight.
    configs.push((
        "tiny-8core-migration".to_string(),
        MachineConfig {
            cores: 8,
            controller: Some(ControllerConfig {
                ways: execmig_core::SplitWays::Eight,
                ..small_controller
            }),
            ..configs[0].1.clone()
        },
    ));
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = FuzzConfig::default();
        assert_eq!(generate(&config), generate(&config));
        let other = FuzzConfig { seed: 2, ..config };
        assert_ne!(generate(&config), generate(&other));
    }

    #[test]
    fn instructions_are_nondecreasing() {
        let steps = generate(&FuzzConfig::default());
        for pair in steps.windows(2) {
            assert!(pair[0].instructions <= pair[1].instructions);
        }
    }

    #[test]
    fn ddmin_finds_single_culprit() {
        let steps = generate(&FuzzConfig {
            accesses: 200,
            ..FuzzConfig::default()
        });
        // Synthetic oracle: "fails" iff the subsequence still contains
        // the step at original index 137 (identified by its payload).
        let culprit = steps[137];
        let shrunk = ddmin(&steps, |t| t.contains(&culprit));
        assert_eq!(shrunk, vec![culprit]);
    }

    #[test]
    fn ddmin_keeps_interacting_pair() {
        let steps = generate(&FuzzConfig {
            accesses: 300,
            ..FuzzConfig::default()
        });
        let a = steps[17];
        let b = steps[251];
        let shrunk = ddmin(&steps, |t| t.contains(&a) && t.contains(&b));
        assert_eq!(shrunk, vec![a, b]);
    }

    #[test]
    fn repro_roundtrip_preserves_steps() {
        let steps = generate(&FuzzConfig {
            accesses: 500,
            ..FuzzConfig::default()
        });
        let bytes = write_repro(Vec::new(), &steps).expect("write");
        let back = read_repro(bytes.as_slice()).expect("read");
        assert_eq!(steps, back);
    }

    /// The block API must be indistinguishable from per-step stepping
    /// at every block boundary, for *any* chunking of the same event
    /// stream: single-event blocks, tiny odd sizes, `BLOCK_EVENTS`-
    /// sized and oversized blocks (the final block then overshoots the
    /// remaining stream and is clamped), and a seeded random mix. The
    /// reference model inside the lockstep pair always steps one event
    /// at a time, so any per-event overhead wrongly hoisted to a block
    /// boundary (or vice versa) shows up as a divergence here.
    #[test]
    fn mixed_granularity_blocks_agree_with_per_step() {
        let trace = generate(&FuzzConfig {
            accesses: 20_000,
            ..FuzzConfig::default()
        });
        let mut rng = Rng::seed_from(0xb10c);
        let mut random_sizes: Vec<usize> = vec![1, 7, 4096];
        random_sizes.extend((0..16).map(|_| rng.below(512) as usize + 1));
        let chunkings: [&[usize]; 4] = [&[1], &[7], &[4096], &random_sizes];
        for (name, config) in stress_configs() {
            for sizes in chunkings {
                let mut lockstep = Lockstep::new(config.clone());
                let report = lockstep
                    .run_trace_blocks(&trace, sizes)
                    .or_else(|| lockstep.final_check());
                assert!(
                    report.is_none(),
                    "{name} with block sizes {sizes:?} diverged:\n{}",
                    report.unwrap()
                );
                assert_eq!(lockstep.steps(), trace.len());
            }
        }
    }

    #[test]
    fn stress_configs_are_valid() {
        let names: Vec<String> = stress_configs()
            .into_iter()
            .map(|(name, config)| {
                config.validate();
                name
            })
            .collect();
        assert!(names.iter().any(|n| n == "tiny-8core-migration"));
    }
}
