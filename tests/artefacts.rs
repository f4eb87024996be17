//! Bit-identity pins for experiment artefacts.
//!
//! Each pinned experiment is run through its library entry point at a
//! small fixed budget, and every JSON row its binary prints under
//! `--json` is folded, byte by byte, into one FNV-1a digest, which must
//! equal the recorded one. A change anywhere below an experiment (the
//! generator, the L1 filter, the caches, the controller, the machine)
//! that moves one of its numbers fails here.
//!
//! The recorder pins do the same for what the observability surfaces
//! print: the interval profile and the Chrome trace of `trace_viewer`,
//! the `migration_timeline` example's window records, and the three
//! registry renderings of `obs_report`. A change to the profiler, the
//! trace renderer, the registry or its exporters that moves one byte of
//! their output fails here.

mod digest;

use digest::Fnv;
use execution_migration::experiments::ext_cores;
use execution_migration::experiments::fig45::{self, Fig45Config};
use execution_migration::machine::{Machine, MachineConfig, Protocol};
use execution_migration::obs::chrome::render_machine_trace;
use execution_migration::obs::{to_csv, to_prometheus, ProfileConfig, ProfileRecord, ToJson};
use execution_migration::trace::suite;

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

/// Instructions per recorder run.
const RECORDER_INSTR: u64 = 1_000_000;

/// Profiler sizing for the recorder runs: 61 intervals of 16 Ki
/// instructions overflow 16 records, so decimation fires.
const RECORDER_PROFILE: ProfileConfig = ProfileConfig {
    period: 16 << 10,
    capacity: 16,
};

/// The recorded digests of em3d's profile JSON and compact Chrome
/// trace on the four-core machine, per protocol. Only MESI moves
/// `invalidations` and only Dragon `coherence_updates`.
const PROFILES: [(Protocol, u64, u64); 3] = [
    (
        Protocol::MigrationMode,
        0x4344_173a_43cf_f6fc,
        0x6365_ccf7_10db_ee6d,
    ),
    (Protocol::Mesi, 0xf9f4_8e04_78f9_fe73, 0xbbfe_6e95_5b11_77ea),
    (
        Protocol::Dragon,
        0x2c77_2f4a_35a6_9b3a,
        0xb652_f087_d2c1_5e13,
    ),
];

/// `migration_timeline`'s windows for the timeline pin.
const TIMELINE_WINDOWS: u64 = 10;

/// The recorded digest of art's window records as a JSON array.
const TIMELINE: u64 = 0x8dd2_7488_af95_e41c;

/// The recorded digests of art's registry as `obs_report` prints it
/// under `--format json`, `csv` and `prom`.
const REGISTRY: [(&str, u64); 3] = [
    ("json", 0xcc7a_21f9_54c0_2aef),
    ("csv", 0xfc68_6fbb_d3c2_1f43),
    ("prom", 0xab83_8e0b_4001_e561),
];

/// Digest of a rendered text, byte by byte.
fn digest_text(text: &str) -> u64 {
    let mut h = Fnv::new();
    text.bytes().for_each(|b| h.word(u64::from(b)));
    h.0
}

/// Digest of one rendered JSON row.
fn digest(row: &impl ToJson) -> u64 {
    digest_text(&row.to_json().compact())
}

/// A four-core machine under `protocol` with both recorders attached,
/// run over `bench` for [`RECORDER_INSTR`] instructions.
fn recorded_run(bench: &str, protocol: Protocol, profile: ProfileConfig) -> Machine {
    let mut m = Machine::new(MachineConfig {
        protocol,
        ..MachineConfig::four_core_migration()
    });
    m.attach_recorders(profile);
    let mut w = suite::by_name(bench).expect("benchmark in suite");
    m.run(&mut *w, RECORDER_INSTR);
    m
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

#[test]
fn profiles_and_traces_match_their_recorded_digests() {
    let runs: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = PROFILES
            .iter()
            .map(|&(protocol, _, _)| {
                s.spawn(move || {
                    let m = recorded_run("em3d", protocol, RECORDER_PROFILE);
                    let profiler = m.profiler().expect("attached");
                    assert!(profiler.decimations() > 0, "{protocol:?}: no decimation");
                    let events = m.events().expect("attached").to_vec();
                    let trace = render_machine_trace(
                        profiler.records(),
                        &events,
                        m.config().cores,
                        m.stats().instructions,
                    );
                    (digest(profiler), digest_text(&trace.compact()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("protocol thread"))
            .collect()
    });
    let mut failures = Vec::new();
    for (&(protocol, want_profile, want_trace), &(profile, trace)) in PROFILES.iter().zip(&runs) {
        for (what, got, want) in [
            ("profile", profile, want_profile),
            ("trace", trace, want_trace),
        ] {
            if got != want {
                failures.push(format!(
                    "{protocol:?} {what}: digest {got:#018x}, want {want:#018x}"
                ));
            }
        }
    }
    check(&failures, "recorder");
}

#[test]
fn timeline_windows_match_their_recorded_digest() {
    let mut m = Machine::new(MachineConfig::four_core_migration());
    let mut w = suite::by_name("art").expect("art in suite");
    let window = RECORDER_INSTR / TIMELINE_WINDOWS;
    let mut prev = m.profile_cumulative();
    let mut records = Vec::new();
    while prev.end < RECORDER_INSTR {
        m.run(&mut *w, (prev.end + window).min(RECORDER_INSTR));
        let now = m.profile_cumulative();
        records.push(ProfileRecord::between(&prev, &now));
        prev = now;
    }
    assert_eq!(records.len() as u64, TIMELINE_WINDOWS);
    let got = digest(&records);
    assert!(
        got == TIMELINE,
        "timeline artefacts moved: digest {got:#018x}, want {TIMELINE:#018x}"
    );
}

#[test]
fn registry_renderings_match_their_recorded_digests() {
    let registry = recorded_run("art", Protocol::MigrationMode, ProfileConfig::default()).metrics();
    let mut failures = Vec::new();
    for (format, want) in REGISTRY {
        let text = match format {
            "json" => format!("{}\n", registry.to_json().pretty()),
            "csv" => to_csv(&registry),
            _ => to_prometheus(&registry, "execmig_"),
        };
        let got = digest_text(&text);
        if got != want {
            failures.push(format!("{format}: digest {got:#018x}, want {want:#018x}"));
        }
    }
    check(&failures, "registry");
}
