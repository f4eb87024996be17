//! Bit-identity pins for the set- and skewed-associative `Cache`.
//!
//! Each geometry of [`geometries`] drives a fresh `Cache` through one
//! seeded stream of [`OPS`] operations that mixes every entry point the
//! machine uses: `access`, `probe_at` followed by `touch_at` or
//! `fill_at`, `set_modified_at`, `set_shared_at`, `invalidate_at`,
//! `lookup` and `find_at`. Every returned value (hit, frame handle,
//! eviction, modified and shared bits), `occupancy()` after every
//! operation and the sorted final `resident_states()` are folded into
//! one FNV-1a digest, which must equal the recorded one. A change to the
//! index hashes, the frame layout, the hit test, the LRU victim choice
//! or the state bits fails here.

mod digest;

use digest::Fnv;
use execution_migration::cache::{Cache, CacheConfig, Evicted, Probe};
use execution_migration::trace::LineAddr;

/// Operations per geometry.
const OPS: u64 = 40_000;

/// The machine's two geometries (the 16 KB 4-way modulo L1 and the
/// 512 KB 4-way skewed L2, 64-byte lines), then a 16-set instance of
/// every accepted shape: modulo at 1, 2, 4, 8 and 16 ways, skewed at
/// 1, 2, 4 and 8.
fn geometries() -> Vec<CacheConfig> {
    let mut configs = vec![
        CacheConfig::set_associative(16 << 10, 4, 64),
        CacheConfig::skewed(512 << 10, 4, 64),
    ];
    for ways in [1u32, 2, 4, 8, 16] {
        let capacity = 16 * ways as u64 * 64;
        configs.push(CacheConfig::set_associative(capacity, ways, 64));
        if ways <= 8 {
            configs.push(CacheConfig::skewed(capacity, ways, 64));
        }
    }
    configs
}

/// The recorded digest of each geometry, in [`geometries`] order.
const DIGESTS: [u64; 11] = [
    0x7344_b31f_002b_1a14,
    0xa49d_af4b_5ecb_5def,
    0x1de5_8f27_c02a_be25,
    0x15c4_bd04_ca47_ee35,
    0xbf97_866b_ab2d_c5b4,
    0x7137_3a17_192a_69b8,
    0x88c9_699c_175f_ba0e,
    0x42e2_2737_b09c_d90b,
    0x083f_474d_873b_cd0f,
    0xfa87_6f03_6c19_0e46,
    0xc160_22fc_6e24_4cab,
];

fn fold_probe(h: &mut Fnv, p: Probe) {
    match p {
        Probe::Hit(f) => {
            h.word(1);
            h.word(f as u64);
        }
        Probe::Miss(f) => {
            h.word(2);
            h.word(f as u64);
        }
    }
}

fn fold_evicted(h: &mut Fnv, e: Option<Evicted>) {
    match e {
        Some(e) => {
            h.word(1);
            h.word(e.line.raw());
            h.word(e.modified as u64);
        }
        None => h.word(0),
    }
}

/// Digest of one geometry's stream.
fn drive(config: CacheConfig) -> u64 {
    let mut c = Cache::new(config);
    let mut h = Fnv::new();
    let frames = config.frames();
    let mut x = 0x5eed_u64 ^ frames ^ ((config.ways as u64) << 32);
    for _ in 0..OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Three quarters of the operations stay in a hot set of half
        // the capacity; the rest range over eight times it.
        let span = if x >> 62 == 0 { frames * 8 } else { frames / 2 };
        let line = LineAddr::new((x >> 20) % span);
        let bit = x & (1 << 12) != 0;
        match (x >> 40) % 8 {
            0 => {
                let out = c.access(line, bit);
                h.word(out.hit as u64);
                fold_evicted(&mut h, out.evicted);
            }
            // A miss path filling the victim its own probe chose.
            1 | 2 => {
                let p = c.probe_at(line);
                fold_probe(&mut h, p);
                match p {
                    Probe::Hit(f) => c.touch_at(f, bit),
                    Probe::Miss(f) => fold_evicted(&mut h, c.fill_at(f, line, bit)),
                }
            }
            3 => {
                if let Probe::Hit(f) = c.probe_at(line) {
                    h.word(c.modified_at(f) as u64);
                    c.set_modified_at(f, bit);
                }
            }
            4 => {
                if let Probe::Hit(f) = c.probe_at(line) {
                    h.word(c.shared_at(f) as u64);
                    c.set_shared_at(f, bit);
                }
            }
            5 => match c.find_at(line) {
                Some(f) => {
                    let e = c.invalidate_at(f);
                    fold_evicted(&mut h, Some(e));
                }
                None => h.word(0),
            },
            6 => h.word(c.lookup(line) as u64),
            _ => match c.find_at(line) {
                Some(f) => {
                    h.word(f as u64);
                    h.word(c.modified_at(f) as u64);
                    h.word(c.shared_at(f) as u64);
                }
                None => h.word(u64::MAX),
            },
        }
        h.word(c.occupancy());
    }
    let mut states: Vec<(u64, bool, bool)> = c
        .resident_states()
        .map(|(l, m, s)| (l.raw(), m, s))
        .collect();
    states.sort_unstable();
    h.word(states.len() as u64);
    for (l, m, s) in states {
        h.word(l);
        h.word(m as u64 | (s as u64) << 1);
    }
    h.0
}

#[test]
fn every_geometry_matches_its_recorded_digest() {
    let configs = geometries();
    assert_eq!(configs.len(), DIGESTS.len());
    let mut failures = Vec::new();
    for (config, &want) in configs.iter().zip(&DIGESTS) {
        let got = drive(*config);
        if got != want {
            failures.push(format!("{config:?}: digest {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(failures.is_empty(), "cache moved:\n{}", failures.join("\n"));
}
