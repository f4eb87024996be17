//! Bit-identity pins for experiment artefacts.
//!
//! Each pinned experiment is run through its library entry point at a
//! small fixed budget, and every JSON row its binary prints under
//! `--json` is folded, byte by byte, into one FNV-1a digest, which must
//! equal the recorded one. A change anywhere below an experiment (the
//! generator, the L1 filter, the caches, the controller, the machine)
//! that moves one of its numbers fails here.

mod digest;

use digest::Fnv;
use execution_migration::experiments::ext_cores;
use execution_migration::experiments::fig45::{self, Fig45Config};
use execution_migration::obs::ToJson;

/// Instructions per `fig45` row.
const FIG45_INSTR: u64 = 500_000;

/// Instructions per `ext_cores` sweep.
const CORES_INSTR: u64 = 500_000;

/// `fig45`'s benchmarks and the recorded digest of each row.
const FIG45: [(&str, u64); 2] = [
    ("art", 0x3a01_e1f5_eb86_5069),
    ("mcf", 0xccc4_8a4c_ce8f_8243),
];

/// `ext_cores`' benchmarks (its binary's default set) and core counts.
const CORES_BENCHES: [&str; 4] = ["art", "em3d", "mcf", "swim"];
const CORES: [usize; 4] = [1, 2, 4, 8];

/// The recorded digest of each `ext_cores` row: one row per benchmark
/// of [`CORES_BENCHES`], one column per count of [`CORES`]. The 2-core
/// column changed once, when the 2-way controller began to honour its
/// quarter sampler (swim's row did not move at this budget).
const CORES_DIGESTS: [[u64; 4]; 4] = [
    [
        0x4187_b606_703e_99a2,
        0x4eac_0d41_8cbf_a57a,
        0xa5b3_2c4f_b20a_d699,
        0x98bf_e21e_248f_bc0f,
    ],
    [
        0xecb1_3950_236d_ff5e,
        0xd438_1140_cfad_3012,
        0xef22_f3f2_f684_2eb5,
        0xd063_aa08_f53e_faa3,
    ],
    [
        0xcb11_dc9c_1aa8_4a8f,
        0xcb95_1ab6_0cbd_b9ef,
        0xaa39_20bb_1a92_a2d2,
        0x8398_cad1_202c_0961,
    ],
    [
        0xee5f_745a_783f_bd60,
        0xb28d_84fd_fce6_b6e3,
        0xbedc_1b18_6e9a_c7e5,
        0x643d_3412_7cac_55e9,
    ],
];

/// Digest of one rendered JSON row.
fn digest(row: &impl ToJson) -> u64 {
    let mut h = Fnv::new();
    row.to_json()
        .compact()
        .bytes()
        .for_each(|b| h.word(u64::from(b)));
    h.0
}

fn check(failures: &[String], what: &str) {
    assert!(
        failures.is_empty(),
        "{what} artefacts moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn fig45_rows_match_their_recorded_digests() {
    let config = Fig45Config::paper(FIG45_INSTR);
    let mut failures = Vec::new();
    for (bench, want) in FIG45 {
        let got = digest(&fig45::run_benchmark(bench, &config));
        if got != want {
            failures.push(format!("{bench}: digest {got:#018x}, want {want:#018x}"));
        }
    }
    check(&failures, "fig45");
}

#[test]
fn ext_cores_rows_match_their_recorded_digests() {
    // One thread per sweep keeps the debug build's wall time down.
    let sweeps: Vec<Vec<ext_cores::CoreSweepPoint>> = std::thread::scope(|s| {
        let handles: Vec<_> = CORES_BENCHES
            .iter()
            .map(|&bench| s.spawn(move || ext_cores::sweep(bench, &CORES, CORES_INSTR)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread"))
            .collect()
    });
    let mut failures = Vec::new();
    for ((bench, points), want_row) in CORES_BENCHES.iter().zip(&sweeps).zip(&CORES_DIGESTS) {
        for ((point, cores), &want) in points.iter().zip(CORES).zip(want_row) {
            let got = digest(point);
            if got != want {
                failures.push(format!(
                    "{bench} {cores} cores: digest {got:#018x}, want {want:#018x}"
                ));
            }
        }
    }
    check(&failures, "ext_cores");
}
