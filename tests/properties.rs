//! Property-style integration tests over the core data structures and
//! their cross-crate composition.
//!
//! Each test draws many random inputs from the workspace's own
//! deterministic [`Rng`] (seeded per test, so failures reproduce
//! exactly) and checks an invariant over all of them — the same
//! properties the seed repo expressed with proptest, without the
//! external dependency.

use execution_migration::cache::{Cache, CacheConfig, FullyAssocLru, LruStack, StackProfile};
use execution_migration::core::{
    sampler, AffinityTable, Sampler, SkewedAffinityCache, Splitter2, SplitterConfig,
    UnboundedAffinityTable,
};
use execution_migration::trace::{LineAddr, Rng};

/// Mattson's inclusion property: a reference hits a fully-assoc LRU
/// cache of capacity C exactly when its stack depth is <= C.
#[test]
fn stack_depth_predicts_lru_hits() {
    let mut rng = Rng::seed_from(0xa001);
    for round in 0..24 {
        let capacity = (1 + rng.below(63)) as usize;
        let n = 1 + rng.below(1999);
        let mut stack = LruStack::new();
        let mut cache = FullyAssocLru::new(capacity);
        for _ in 0..n {
            let line = rng.below(200);
            let depth = stack.access(line);
            let hit = cache.access(line);
            let predicted = matches!(depth, Some(d) if d <= capacity as u64);
            assert_eq!(hit, predicted, "round {round} line {line} depth {depth:?}");
        }
    }
}

/// Stack depths are positive and bounded by the number of distinct
/// lines seen so far.
#[test]
fn stack_depth_bounds() {
    let mut rng = Rng::seed_from(0xa002);
    for _ in 0..16 {
        let n = 1 + rng.below(2999);
        let mut stack = LruStack::new();
        for _ in 0..n {
            let line = rng.below(500);
            let before = stack.distinct_lines() as u64;
            if let Some(d) = stack.access(line) {
                assert!(d >= 1);
                assert!(d <= before, "depth {d} > distinct {before}");
            }
        }
    }
}

/// A set-associative cache never exceeds its frame count, and a
/// resident line is always found again immediately.
#[test]
fn cache_occupancy_bounded() {
    let mut rng = Rng::seed_from(0xa003);
    for _ in 0..12 {
        let ways = (1 + rng.below(7)) as u32;
        let config = CacheConfig::set_associative(4 << 10, ways, 64);
        if !config.sets().is_power_of_two() || config.sets() == 0 {
            continue;
        }
        let mut c = Cache::new(config);
        let n = 1 + rng.below(1999);
        for _ in 0..n {
            let line = LineAddr::new(rng.below(10_000));
            c.fill(line, false);
            assert!(c.contains(line));
        }
        assert!(c.occupancy() <= config.frames());
    }
}

/// Skewed and modulo caches agree on hit/miss for streams that fit
/// entirely (no evictions -> indexing is irrelevant).
#[test]
fn small_working_sets_always_hit() {
    let mut rng = Rng::seed_from(0xa004);
    for _ in 0..8 {
        for config in [
            CacheConfig::set_associative(16 << 10, 4, 64),
            CacheConfig::skewed(16 << 10, 4, 64),
        ] {
            let mut c = Cache::new(config);
            for l in 0u64..16 {
                c.fill(LineAddr::new(l), false);
            }
            let n = 1 + rng.below(499);
            for _ in 0..n {
                let l = rng.below(16);
                assert!(
                    c.lookup(LineAddr::new(l)),
                    "{:?} lost line {l}",
                    config.indexing
                );
            }
        }
    }
}

/// The carry-save mod-31 hash equals the remainder for all inputs.
#[test]
fn mod31_blocks_is_mod31() {
    let mut rng = Rng::seed_from(0xa005);
    for e in [0, 1, 30, 31, 32, u64::MAX, u64::MAX - 1] {
        assert_eq!(sampler::mod31_blocks(e), e % 31);
    }
    for _ in 0..10_000 {
        let e = rng.next_u64();
        assert_eq!(sampler::mod31_blocks(e), e % 31);
    }
}

/// Sampling thresholds partition lines consistently: a line sampled
/// at threshold t is sampled at every t' > t.
#[test]
fn sampling_is_monotone() {
    let mut rng = Rng::seed_from(0xa006);
    for _ in 0..10_000 {
        let line = rng.next_u64();
        let t = 1 + rng.below(30);
        let low = Sampler::new(t);
        let high = Sampler::new(t + 1);
        if low.is_sampled(line) {
            assert!(high.is_sampled(line), "line {line} dropped at t {t}+1");
        }
    }
}

/// Affinity tables: what you write is what you read back (unbounded
/// always, finite until evicted — here sized to fit).
#[test]
fn affinity_table_roundtrip() {
    let mut rng = Rng::seed_from(0xa007);
    for _ in 0..16 {
        let mut unbounded = UnboundedAffinityTable::new();
        let mut skewed = SkewedAffinityCache::new(256, 4);
        let n = 1 + rng.below(199);
        let mut last = std::collections::HashMap::new();
        for _ in 0..n {
            let line = rng.below(64);
            let v = rng.below(65_536) as i64 - 32_768;
            unbounded.write(line, v);
            skewed.write(line, v);
            last.insert(line, v);
        }
        for (&line, &v) in &last {
            assert_eq!(unbounded.peek(line), Some(v));
            assert_eq!(skewed.peek(line), Some(v));
        }
    }
}

/// The splitter's affinities always stay within the configured
/// width, whatever the reference stream.
#[test]
fn splitter_affinities_within_width() {
    let mut rng = Rng::seed_from(0xa008);
    for _ in 0..10 {
        let bits = (4 + rng.below(13)) as u32;
        let mut s = Splitter2::new(SplitterConfig {
            affinity_bits: bits,
            r_window: 32,
            ..SplitterConfig::default()
        });
        let n = 100 + rng.below(2900);
        for _ in 0..n {
            s.on_reference(rng.below(1000));
        }
        let (lo, hi) = execution_migration::core::sat::range(bits);
        for e in 0..1000 {
            if let Some(a) = s.affinity_of(e) {
                assert!(
                    (lo..=hi).contains(&a),
                    "A_{e} = {a} outside {bits}-bit range"
                );
            }
        }
    }
}

/// Transition counts never exceed reference counts.
#[test]
fn transitions_bounded_by_references() {
    let mut rng = Rng::seed_from(0xa009);
    for _ in 0..16 {
        let mut s = Splitter2::new(SplitterConfig {
            r_window: 16,
            filter_bits: Some(12),
            ..SplitterConfig::default()
        });
        let n = 1 + rng.below(1999);
        for _ in 0..n {
            s.on_reference(rng.below(100));
        }
        let st = s.stats();
        assert!(st.transitions <= st.references);
        assert_eq!(st.references, n);
    }
}

/// Stack profiles: `frac_deeper_than` is monotone non-increasing in
/// x and bounded by [0, 1].
#[test]
fn profile_monotone() {
    let mut rng = Rng::seed_from(0xa00a);
    for _ in 0..16 {
        let mut p = StackProfile::new(1 << 17);
        let n = 1 + rng.below(499);
        for _ in 0..n {
            let depth = if rng.below(4) == 0 {
                None
            } else {
                Some(1 + rng.below(99_999))
            };
            p.record(depth);
        }
        let mut prev = 1.0f64;
        for x in (0..18).map(|i| 1u64 << i) {
            let f = p.frac_deeper_than(x);
            assert!((0.0..=1.0).contains(&f));
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }
}

/// Machine invariants hold for arbitrary access sequences: every L2
/// miss is served exactly once, DL1 misses never exceed data
/// accesses, and no migrations occur without a controller.
#[test]
fn machine_invariants_on_random_streams() {
    use execution_migration::machine::{Machine, MachineConfig};
    use execution_migration::trace::AccessKind;
    let mut rng = Rng::seed_from(0xa00b);
    for _ in 0..12 {
        let mut m = Machine::new(MachineConfig::single_core());
        let n = 10 + rng.below(790);
        for i in 0..n {
            let kind = match rng.below(3) {
                0 => AccessKind::IFetch,
                1 => AccessKind::Load,
                _ => AccessKind::Store,
            };
            m.step(kind, LineAddr::new(rng.below(4096)), i + 1);
        }
        let s = m.stats();
        assert_eq!(s.accesses, n);
        assert_eq!(s.l2_to_l2_forwards + s.l3_fetches, s.l2_misses);
        assert!(s.dl1_misses + s.il1_misses <= s.accesses);
        assert!(s.l2_misses <= s.l2_accesses);
        assert_eq!(s.migrations, 0);
    }
}

/// The metrics registry mirrors `MachineStats` exactly, and its
/// per-core occupancy counters tile the instruction count — whatever
/// the access stream.
#[test]
fn metrics_mirror_machine_stats_on_random_streams() {
    use execution_migration::machine::{Machine, MachineConfig};
    use execution_migration::trace::AccessKind;
    let mut rng = Rng::seed_from(0xa00c);
    for _ in 0..8 {
        let mut m = Machine::new(MachineConfig::four_core_migration());
        let total = 400 + rng.below(800);
        for i in 0..total {
            let kind = match rng.below(3) {
                0 => AccessKind::IFetch,
                1 => AccessKind::Load,
                _ => AccessKind::Store,
            };
            m.step(kind, LineAddr::new(rng.below(4096)), i + 1);
        }
        let end = m.metrics();
        let fin = m.stats();
        for (name, aggregate) in [
            ("accesses", fin.accesses),
            ("l1_requests", fin.l1_requests),
            ("l2_misses", fin.l2_misses),
            ("migrations", fin.migrations),
            ("bus_l1_mirror_bytes", fin.bus.l1_mirror_bytes),
        ] {
            assert_eq!(end.counter_value(name), Some(aggregate), "{name} aggregate");
        }
        // Per-core occupancy tiles the instruction count.
        let occupancy: u64 = (0..4)
            .map(|c| end.counter_value(&format!("core{c}_instructions")).unwrap())
            .sum();
        assert_eq!(occupancy, fin.instructions);
    }
}

/// The binary trace format round-trips arbitrary access sequences
/// exactly, including pointer flags and instruction counts.
#[test]
fn trace_io_roundtrip() {
    use execution_migration::trace::{Access, Addr, TraceReader, TraceWriter, Workload};
    let mut rng = Rng::seed_from(0xa00d);
    for _ in 0..12 {
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        let mut instr = 0u64;
        let mut expected = Vec::new();
        let n = 1 + rng.below(299);
        for _ in 0..n {
            let addr = Addr::new(rng.next_u64());
            let access = match rng.below(4) {
                0 => Access::ifetch(addr),
                1 => Access::load(addr),
                2 => Access::pointer_load(addr),
                _ => Access::store(addr),
            };
            instr += rng.below(100);
            writer.record(access, instr).unwrap();
            expected.push((access, instr));
        }
        let buf = writer.finish().unwrap();
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        for (access, instr) in expected {
            assert!(!reader.is_finished());
            assert_eq!(reader.next_access(), access);
            assert_eq!(reader.instructions(), instr);
        }
        assert!(reader.is_finished());
    }
}

/// The 8-way splitter tree designates subsets in range and counts
/// transitions consistently for any stream.
#[test]
fn tree_subsets_in_range() {
    use execution_migration::core::{SplitterTree, SplitterTreeConfig};
    let mut rng = Rng::seed_from(0xa00e);
    for _ in 0..12 {
        let mut t = SplitterTree::new(SplitterTreeConfig::default());
        let n = 1 + rng.below(1999);
        for _ in 0..n {
            let subset = t.on_reference(rng.below(5000));
            assert!(subset < t.subsets());
        }
        let st = t.stats();
        assert_eq!(st.references, n);
        assert!(st.transitions <= st.references);
    }
}
