//! Bit-identity pins for the finite affinity cache.
//!
//! Each geometry of [`GEOMETRIES`] drives a fresh
//! `SkewedAffinityCache` through one seeded stream of [`OPS`]
//! `read_or_insert`, `write` and `peek` calls over a mix of hot and
//! cold lines (line 0 included). Every returned value, the final
//! `stats()` and `occupancy()`, and the `age_at_eviction()` histogram
//! (count, sum, min, max and every bucket) are folded into one FNV-1a
//! digest, which must equal the recorded one. A change to the hash, the
//! hit test, the age-based victim choice or the age bookkeeping fails
//! here.

mod digest;

use digest::Fnv;
use execution_migration::core::{AffinityTable, SkewedAffinityCache};

/// Table calls per geometry.
const OPS: u64 = 200_000;

/// `(entries, ways)`: the paper's 8k-entry 4-way table, the small
/// tables the oracles and the fuzzer use, a 2-way table and an 8-way
/// one.
const GEOMETRIES: [(u64, u32); 4] = [(8192, 4), (256, 4), (64, 2), (256, 8)];

/// The recorded digest of each geometry, in [`GEOMETRIES`] order.
const DIGESTS: [u64; 4] = [
    0x9c48_d42f_10bb_13b0,
    0x7c7b_1aa7_754c_fbc1,
    0x89b0_cecf_7362_4144,
    0x5e64_0acb_7104_fd02,
];

/// Digest of one geometry's stream.
fn drive(entries: u64, ways: u32) -> u64 {
    let mut t = SkewedAffinityCache::new(entries, ways);
    let mut h = Fnv::new();
    let mut x = 0x5eed_u64 ^ entries ^ ((ways as u64) << 32);
    for _ in 0..OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Three quarters of the calls stay in a hot set of half the
        // capacity; the rest range over eight times it.
        let span = if x >> 62 == 0 {
            entries * 8
        } else {
            entries / 2
        };
        let line = (x >> 20) % span;
        let value = ((x >> 8) & 0xfff) as i64 - 0x800;
        match (x >> 40) % 8 {
            0..=3 => h.word(t.read_or_insert(line, value) as u64),
            4..=5 => t.write(line, value),
            _ => match t.peek(line) {
                Some(v) => {
                    h.word(1);
                    h.word(v as u64);
                }
                None => h.word(0),
            },
        }
    }
    let stats = t.stats();
    h.word(stats.hits);
    h.word(stats.misses);
    h.word(t.occupancy());
    let ages = t.age_at_eviction();
    for w in [ages.count(), ages.sum(), ages.min(), ages.max()] {
        h.word(w);
    }
    ages.bucket_counts().iter().for_each(|&b| h.word(b));
    h.0
}

#[test]
fn every_geometry_matches_its_recorded_digest() {
    let mut failures = Vec::new();
    for (&(entries, ways), &want) in GEOMETRIES.iter().zip(&DIGESTS) {
        let got = drive(entries, ways);
        if got != want {
            failures.push(format!(
                "({entries}, {ways}): digest {got:#018x}, want {want:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "affinity cache moved:\n{}",
        failures.join("\n")
    );
}

#[test]
#[should_panic(expected = "affinity cache ways must be a power of two up to 8, got 3")]
fn three_ways_are_rejected_by_rule() {
    SkewedAffinityCache::new(192, 3);
}
