//! Bit-identity pins for the migration controller.
//!
//! Each suite stream of [`BENCHES`] is cut to its first [`MISSES`]
//! L1-filtered misses (the §4.1 filter, `L1Filter::paper`). Every
//! configuration of [`configs`] replays those requests through a fresh
//! `MigrationController`. The L2-miss flag of a request is a fixed
//! function of its line; the pointer flag is the access's own. Every
//! designated core, the final `stats()`, `splitter_stats()`,
//! `table_stats()`, `filter_value()`, `ar()` and `current_core()`,
//! and the dwell and affinity-age histograms (count, sum, min, max and
//! every bucket) are folded into one FNV-1a digest per (stream,
//! configuration), which must equal the recorded one. A change to the
//! splitter's routing, its window sizes, the sampler, the filters or
//! the affinity cache fails here.

mod digest;

use digest::Fnv;
use execution_migration::core::{ControllerConfig, MigrationController, SplitWays};
use execution_migration::experiments::l1filter::L1Filter;
use execution_migration::obs::Histogram;
use execution_migration::trace::{suite, LineSize};

/// L1-filtered misses replayed per stream.
const MISSES: usize = 200_000;

/// The streams: two splittable (art, em3d), one pointer-heavy (mcf),
/// one that does not split (gzip).
const BENCHES: [&str; 4] = ["art", "em3d", "mcf", "gzip"];

/// Names of the configurations, in [`configs`] order.
const CONFIG_NAMES: [&str; 7] = [
    "paper_4core/two",
    "paper_4core/four",
    "paper_4core/eight",
    "paper_stack_profile/two",
    "paper_stack_profile/four",
    "paper_stack_profile/eight",
    "paper_4core/pointer_filter",
];

/// The §4.2 and §4.1 controllers at each split degree, plus §6's
/// pointer filter on the §4.2 one.
fn configs() -> [ControllerConfig; 7] {
    let at = |base: ControllerConfig, ways| ControllerConfig { ways, ..base };
    let (q, s) = (
        ControllerConfig::paper_4core(),
        ControllerConfig::paper_stack_profile(),
    );
    [
        at(q, SplitWays::Two),
        at(q, SplitWays::Four),
        at(q, SplitWays::Eight),
        at(s, SplitWays::Two),
        at(s, SplitWays::Four),
        at(s, SplitWays::Eight),
        ControllerConfig {
            pointer_filter: true,
            ..q
        },
    ]
}

/// The recorded digests: one row per stream of [`BENCHES`], one column
/// per configuration of [`CONFIG_NAMES`]. The first column changed once,
/// when the 2-way controller began to honour its quarter sampler.
const DIGESTS: [[u64; 7]; 4] = [
    [
        0x6330_3daa_f58b_b6e6,
        0x4506_8c64_f331_d43b,
        0x8a62_476d_bfca_66d9,
        0x94c4_6c24_b666_e1c2,
        0x36bb_a033_23c6_3dd3,
        0x0fa6_3024_d700_8109,
        0xc518_2ffd_7dce_807a,
    ],
    [
        0x2b16_3fbe_892d_4fcf,
        0x1177_3184_5d26_29b4,
        0xacec_3432_4710_9545,
        0x7e35_31c3_d931_c3b9,
        0x42c2_feb3_c879_b42e,
        0x3491_a588_70c6_6a3f,
        0x302a_f74e_425d_f9e7,
    ],
    [
        0xd2ce_1aa6_b45e_fbcf,
        0xe261_a827_ff93_d9dd,
        0xfc8c_dd2c_8264_e2c3,
        0x1085_3c89_b9f9_0003,
        0x8a60_c6a4_cb56_9178,
        0x5b92_49f8_967f_0a5c,
        0x6d98_7a91_73ca_929c,
    ],
    [
        0x6ced_3c34_e344_ec16,
        0xb327_0db9_6103_d895,
        0xba28_d89a_33a7_4639,
        0x63a5_fdc0_a1fb_07a5,
        0x7c83_7049_d788_0711,
        0xc63a_017e_1061_b9bc,
        0xad9b_e0d6_bac7_a553,
    ],
];

/// The first [`MISSES`] requests of `bench`: `(line, l2_miss, pointer)`.
fn requests(bench: &str) -> Vec<(u64, bool, bool)> {
    let mut w = suite::by_name(bench).expect("suite benchmark");
    let mut filter = L1Filter::paper(LineSize::DEFAULT);
    let mut out = Vec::with_capacity(MISSES);
    while out.len() < MISSES {
        let access = w.next_access();
        if let Some(line) = filter.filter(access) {
            let line = line.raw();
            // A quarter of the lines always miss the L2.
            let l2_miss = line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62 == 0;
            out.push((line, l2_miss, access.pointer));
        }
    }
    out
}

fn fold_histogram(h: &mut Fnv, hist: &Histogram) {
    for w in [hist.count(), hist.sum(), hist.min(), hist.max()] {
        h.word(w);
    }
    hist.bucket_counts().iter().for_each(|&b| h.word(b));
}

/// Digest of one configuration over one request stream.
fn drive(config: ControllerConfig, requests: &[(u64, bool, bool)]) -> u64 {
    let mut mc = MigrationController::new(config);
    let mut h = Fnv::new();
    for &(line, l2_miss, pointer) in requests {
        h.word(mc.on_request_tagged(line, l2_miss, pointer) as u64);
    }
    let stats = mc.stats();
    let splitter = mc.splitter_stats();
    let table = mc.table_stats();
    for w in [
        stats.requests,
        stats.l2_misses,
        stats.migrations,
        splitter.references,
        splitter.transitions,
        table.hits,
        table.misses,
        mc.filter_value() as u64,
        mc.ar() as u64,
        mc.current_core() as u64,
    ] {
        h.word(w);
    }
    fold_histogram(&mut h, mc.dwell_histogram());
    match mc.affinity_age_histogram() {
        Some(ages) => {
            h.word(1);
            fold_histogram(&mut h, ages);
        }
        None => h.word(0),
    }
    h.0
}

/// Each stream's digests, in [`CONFIG_NAMES`] order.
fn digests(bench: &str) -> Vec<u64> {
    let requests = requests(bench);
    configs()
        .into_iter()
        .map(|config| drive(config, &requests))
        .collect()
}

#[test]
fn every_configuration_matches_its_recorded_digest() {
    // One thread per stream keeps the debug build's wall time down.
    let got: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = BENCHES
            .iter()
            .map(|&bench| s.spawn(move || digests(bench)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("digest thread"))
            .collect()
    });
    let mut failures = Vec::new();
    for ((bench, got_row), want_row) in BENCHES.iter().zip(&got).zip(&DIGESTS) {
        for ((name, &got), &want) in CONFIG_NAMES.iter().zip(got_row).zip(want_row) {
            if got != want {
                failures.push(format!(
                    "{bench} {name}: digest {got:#018x}, want {want:#018x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "migration controller moved:\n{}",
        failures.join("\n")
    );
}
