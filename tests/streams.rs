//! Bit-identity pins for every suite stream.
//!
//! Each of the 18 suite benchmarks is drawn over its first
//! [`INSTR`] instructions four ways — one `next_access` at a time, and
//! through `fill_block` at block sizes 1, 7 and 2048 — and every draw
//! is folded into one FNV-1a digest over `(kind, addr, pointer,
//! instructions)` per event. All four must equal the recorded digest,
//! so a generator change that alters any access, any per-event
//! instruction count or the block-stepping stop rule fails here.

mod digest;

use digest::Fnv;
use execution_migration::trace::{suite, AccessKind, Workload, WorkloadEvent};

/// Instructions drawn per benchmark.
const INSTR: u64 = 200_000;

/// Block sizes the `fill_block` draws use: one event, an odd size that
/// straddles every stream's internal periods, and the machine's block.
const BLOCKS: [usize; 3] = [1, 7, 2048];

/// The recorded digest of each suite stream, in Table 1 order.
const DIGESTS: [(&str, u64); 18] = [
    ("gzip", 0x0525_e6ab_9c15_8aed),
    ("swim", 0x52e4_00f0_b840_980a),
    ("mgrid", 0xa4ec_174b_8fed_b3f1),
    ("vpr", 0x2d29_61b4_db75_6ce2),
    ("gcc", 0xf7d6_c4c4_a727_440c),
    ("art", 0x27ab_4930_50ea_d2ab),
    ("mcf", 0x98d5_d021_1da7_87a9),
    ("crafty", 0x3135_7d76_4d59_9498),
    ("ammp", 0xd18e_b456_9b2a_1dc1),
    ("parser", 0xa221_5f65_99d8_5df0),
    ("vortex", 0x9893_85e2_a94d_a90f),
    ("bzip2", 0x8023_3c28_59d8_025f),
    ("twolf", 0xc100_7a95_9c88_c06e),
    ("bh", 0x994b_dfa3_3186_0cb2),
    ("bisort", 0x2e9a_c155_decd_8524),
    ("em3d", 0x7b59_f7b7_acc7_12d2),
    ("health", 0xe333_4d85_d9ef_928d),
    ("mst", 0x9c52_15f4_a7b1_f0ac),
];

impl Fnv {
    /// Folds one event as `(kind, addr, pointer, instructions)`.
    fn event(&mut self, e: &WorkloadEvent) {
        let kind = match e.access.kind {
            AccessKind::IFetch => 0,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
        };
        self.word(kind);
        self.word(e.access.addr.raw());
        self.word(e.access.pointer as u64);
        self.word(e.instructions);
    }
}

/// Digest and event count of `name`'s stream drawn per step.
fn per_step(name: &str) -> (u64, usize) {
    let mut w = suite::by_name(name).expect("suite benchmark");
    let (mut h, mut n) = (Fnv::new(), 0);
    while w.instructions() < INSTR {
        let access = w.next_access();
        h.event(&WorkloadEvent {
            access,
            instructions: w.instructions(),
        });
        n += 1;
    }
    (h.0, n)
}

/// Digest and event count of `name`'s stream drawn in blocks of
/// `block` events into one reused buffer.
fn blocked(name: &str, block: usize) -> (u64, usize) {
    let mut w = suite::by_name(name).expect("suite benchmark");
    let (mut h, mut n) = (Fnv::new(), 0);
    let mut buf = Vec::with_capacity(block);
    loop {
        buf.clear();
        let filled = w.fill_block(&mut buf, INSTR, block);
        assert!(filled <= block, "{name}: block of {block} overfilled");
        assert_eq!(filled, buf.len(), "{name}: count disagrees with buffer");
        if filled == 0 {
            break;
        }
        buf.iter().for_each(|e| h.event(e));
        n += filled;
    }
    (h.0, n)
}

#[test]
fn suite_digests_cover_the_suite() {
    let pinned: Vec<&str> = DIGESTS.iter().map(|&(name, _)| name).collect();
    assert_eq!(pinned, suite::names());
}

#[test]
fn every_stream_matches_its_recorded_digest_four_ways() {
    let mut failures = Vec::new();
    for &(name, want) in &DIGESTS {
        let (step, events) = per_step(name);
        if step != want {
            failures.push(format!(
                "{name}: per-step digest {step:#018x}, want {want:#018x}"
            ));
        }
        for block in BLOCKS {
            let (got, n) = blocked(name, block);
            if (got, n) != (step, events) {
                failures.push(format!(
                    "{name}: fill_block({block}) gave {got:#018x} over {n} events, \
                     per-step {step:#018x} over {events}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "streams moved:\n{}",
        failures.join("\n")
    );
}
