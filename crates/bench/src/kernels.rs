//! The perf-trajectory bench kernels, shared between the per-artefact
//! bench targets and the combined `suite` target that exports
//! `BENCH_<n>.json` for the CI perf gate.
//!
//! Seven kernels cover the simulator's cost structure end to end:
//!
//! - `caches` — the [`execmig_cache::Cache`] per-reference hot path
//!   (fused lookup+fill via [`Cache::access`]), plus the
//!   fully-associative LRU and Mattson-stack substrates;
//! - `gen` — each generator engine alone, block by block through
//!   [`Workload::fill_block`], as every machine run draws its stream;
//! - `table1` — workload generation through the 16 KB fully-associative
//!   L1 filter (the front half of every experiment);
//! - `l1_replay` — the same L1 filter over a pre-generated access
//!   buffer, so the generator is off the clock;
//! - `machine` — the machine alone (caches + coherence + controller)
//!   over a pre-generated event buffer, under every configuration:
//!   baseline, migration mode, MESI and Dragon;
//! - `controller` — the migration controller alone, replaying the
//!   request stream the four-core machine recorded off the clock;
//! - `table2` — the full machine (caches + coherence + controller) per
//!   simulated instruction, baseline vs migration mode.

use crate::harness::Runner;
use crate::{workload, LineStream};
use execmig_cache::{Cache, CacheConfig, FullyAssocLru, LruStack};
use execmig_core::MigrationController;
use execmig_experiments::l1filter::L1Filter;
use execmig_machine::{Machine, MachineConfig, Protocol};
use execmig_trace::{AccessKind, LineAddr, LineSize, Workload, WorkloadEvent};
use std::hint::black_box;

/// Set-associative / skewed-associative per-reference throughput: the
/// 512 KB L2 geometries over 2^14 lines, and the machine's 16 KB 4-way
/// L1 over 2^9 lines (twice its 256 frames), which misses about half
/// the time.
pub fn bench_set_assoc(c: &mut Runner) {
    let mut g = c.benchmark_group("cache");
    g.throughput(1);

    for (label, config, bits) in [
        (
            "modulo_512k_4w",
            CacheConfig::set_associative(512 << 10, 4, 64),
            14,
        ),
        ("skewed_512k_4w", CacheConfig::skewed(512 << 10, 4, 64), 14),
        (
            "modulo_16k_4w",
            CacheConfig::set_associative(16 << 10, 4, 64),
            9,
        ),
    ] {
        g.bench_function(format!("lookup_fill/{label}"), |b| {
            let mut cache = Cache::new(config);
            let mut lines = LineStream::new(7, bits);
            // Warm to steady state (evictions happening).
            for _ in 0..50_000 {
                cache.access(LineAddr::new(lines.next_line()), false);
            }
            b.iter(|| {
                // The machine's L1/L2 read path: one fused probe.
                black_box(cache.access(LineAddr::new(lines.next_line()), false))
            });
        });
    }
    g.finish();
}

/// Fully-associative LRU per-access throughput.
pub fn bench_fully_assoc(c: &mut Runner) {
    let mut g = c.benchmark_group("fully_assoc_lru");
    g.throughput(1);
    g.bench_function("access/256_lines", |b| {
        let mut cache = FullyAssocLru::new(256);
        let mut lines = LineStream::new(9, 10);
        b.iter(|| black_box(cache.access(lines.next_line())));
    });
    g.finish();
}

/// Mattson LRU-stack per-access throughput.
pub fn bench_stack(c: &mut Runner) {
    let mut g = c.benchmark_group("lru_stack");
    g.throughput(1);
    for bits in [10u32, 16, 18] {
        g.bench_function(format!("access/{}_distinct_lines", 1u64 << bits), |b| {
            let mut stack = LruStack::new();
            let mut lines = LineStream::new(11, bits);
            for _ in 0..(1u64 << bits) * 2 {
                stack.access(lines.next_line());
            }
            b.iter(|| black_box(stack.access(lines.next_line())));
        });
    }
    g.finish();
}

/// Instructions generated per `gen` iteration.
pub const GEN_INSTRS: u64 = 500_000;

/// Events per `fill_block` call in the `gen` kernels: the machine's
/// block size.
pub const GEN_BLOCK: usize = 2048;

/// One generator engine alone: a fresh suite workload, built off the
/// clock, drawn to [`GEN_INSTRS`] through `fill_block` into one reused
/// buffer of [`GEN_BLOCK`] events.
pub fn bench_gen(c: &mut Runner) {
    let mut g = c.benchmark_group("gen");
    g.throughput(GEN_INSTRS);
    g.sample_size(10);

    // One benchmark per engine: sweep, pointer ring, hot random,
    // code-heavy, block phase.
    for name in ["art", "mcf", "gzip", "gcc", "bzip2"] {
        g.bench_function(format!("{name}/500k_instr"), |b| {
            let mut buf: Vec<WorkloadEvent> = Vec::with_capacity(GEN_BLOCK);
            b.iter_batched_ref(
                || workload(name),
                |w| {
                    let mut events = 0;
                    loop {
                        buf.clear();
                        let filled = w.fill_block(&mut buf, GEN_INSTRS, GEN_BLOCK);
                        if filled == 0 {
                            break events;
                        }
                        events += black_box(&buf).len();
                    }
                },
            );
        });
    }
    g.finish();
}

/// Instructions simulated per Table 1 L1-filter iteration.
pub const TABLE1_INSTRS: u64 = 500_000;

/// Workload generation + the 16 KB fully-associative L1 filter.
pub fn bench_table1(c: &mut Runner) {
    let mut g = c.benchmark_group("table1");
    g.throughput(TABLE1_INSTRS);
    g.sample_size(10);

    // One representative per generator engine.
    for name in ["art", "mcf", "gzip", "gcc", "bzip2"] {
        g.bench_function(format!("l1_filter/{name}/500k_instr"), |b| {
            b.iter_batched_ref(
                || (workload(name), L1Filter::paper(LineSize::DEFAULT)),
                |(w, filter)| {
                    while w.instructions() < TABLE1_INSTRS {
                        black_box(filter.filter(w.next_access()));
                    }
                },
            );
        });
    }
    g.finish();
}

/// The 16 KB fully-associative L1 filter alone: each benchmark's first
/// [`TABLE1_INSTRS`] instructions are generated once, off the clock,
/// and every sample replays them through a fresh filter.
pub fn bench_l1_replay(c: &mut Runner) {
    let mut g = c.benchmark_group("l1_replay");
    g.throughput(TABLE1_INSTRS);
    g.sample_size(10);

    for name in ["art", "mcf", "gzip", "gcc", "bzip2"] {
        g.bench_function(format!("{name}/500k_instr"), |b| {
            let mut w = workload(name);
            let mut accesses = Vec::new();
            while w.instructions() < TABLE1_INSTRS {
                accesses.push(w.next_access());
            }
            b.iter_batched_ref(
                || L1Filter::paper(LineSize::DEFAULT),
                |filter| {
                    for &a in &accesses {
                        black_box(filter.filter(a));
                    }
                },
            );
        });
    }
    g.finish();
}

/// Instructions simulated per `machine` kernel iteration.
pub const MACHINE_INSTRS: u64 = 1_000_000;

/// The machine configurations the `machine` kernels time: the
/// single-core baseline and the paper's four-core machine under each
/// coherence backend.
fn machine_configs() -> [(&'static str, MachineConfig); 4] {
    let four = |protocol| MachineConfig {
        protocol,
        ..MachineConfig::four_core_migration()
    };
    [
        ("base", MachineConfig::single_core()),
        ("mig", four(Protocol::MigrationMode)),
        ("mesi", four(Protocol::Mesi)),
        ("dragon", four(Protocol::Dragon)),
    ]
}

/// The machine alone: each benchmark's first [`MACHINE_INSTRS`]
/// instructions are generated once, off the clock, into blocks of
/// [`Machine::BLOCK_EVENTS`] events, and every sample replays them
/// through a fresh machine with `run_block` — the generator stays off
/// the clock, as in `l1_replay`.
pub fn bench_machine(c: &mut Runner) {
    let mut g = c.benchmark_group("machine");
    g.throughput(MACHINE_INSTRS);
    g.sample_size(10);

    for name in ["art", "em3d"] {
        let mut w = workload(name);
        let mut blocks: Vec<Vec<WorkloadEvent>> = Vec::new();
        loop {
            let mut buf = Vec::with_capacity(Machine::BLOCK_EVENTS);
            if w.fill_block(&mut buf, MACHINE_INSTRS, Machine::BLOCK_EVENTS) == 0 {
                break;
            }
            blocks.push(buf);
        }
        for (cfg, config) in machine_configs() {
            g.bench_function(format!("{cfg}/{name}/1M_instr"), |b| {
                b.iter_batched_ref(
                    || Machine::new(config.clone()),
                    |m| {
                        for block in &blocks {
                            m.run_block(block);
                        }
                        black_box(m.stats().l2_misses)
                    },
                );
            });
        }
    }
    g.finish();
}

/// Instructions of each benchmark whose controller requests a
/// `controller` kernel records.
pub const CONTROLLER_INSTRS: u64 = 1_000_000;

/// One controller request: `(line, l2_miss, pointer)`.
type Request = (u64, bool, bool);

/// The controller request stream of `name` on the paper's four-core
/// migration machine over its first [`CONTROLLER_INSTRS`] instructions,
/// recorded as e2ebench's `replay` records it: the machine steps one
/// event at a time through `run_block`, and an event whose step raises
/// `l1_requests` is a request, an L2 miss if `l2_misses` rose too.
fn controller_requests(name: &str) -> Vec<Request> {
    let config = MachineConfig::four_core_migration();
    let line = config.validate();
    let mut m = Machine::new(config);
    let mut w = workload(name);
    let mut requests = Vec::new();
    let mut buf = Vec::with_capacity(Machine::BLOCK_EVENTS);
    loop {
        buf.clear();
        if w.fill_block(&mut buf, CONTROLLER_INSTRS, Machine::BLOCK_EVENTS) == 0 {
            break requests;
        }
        for e in &buf {
            let before = *m.stats();
            m.run_block(std::slice::from_ref(e));
            if m.stats().l1_requests > before.l1_requests {
                requests.push((
                    line.line_of(e.access.addr).raw(),
                    m.stats().l2_misses > before.l2_misses,
                    // Stores reach the controller as non-pointer requests.
                    e.access.pointer && e.access.kind != AccessKind::Store,
                ));
            }
        }
    }
}

/// The migration controller alone: each benchmark's request stream
/// (see [`controller_requests`]) is recorded once, off the clock, and
/// every sample replays it through a fresh `MigrationController` with
/// `on_request_tagged`.
pub fn bench_controller(c: &mut Runner) {
    let mut g = c.benchmark_group("controller");
    g.sample_size(10);

    let controller = MachineConfig::four_core_migration()
        .controller
        .expect("the four-core machine has a controller");
    for name in ["art", "em3d"] {
        let requests = controller_requests(name);
        g.throughput(requests.len() as u64);
        g.bench_function(format!("{name}/replay"), |b| {
            b.iter_batched_ref(
                || MigrationController::new(controller),
                |mc| {
                    for &(line, l2_miss, pointer) in &requests {
                        black_box(mc.on_request_tagged(line, l2_miss, pointer));
                    }
                    mc.stats().migrations
                },
            );
        });
    }
    g.finish();
}

/// Instructions simulated per Table 2 machine iteration.
pub const TABLE2_INSTRS: u64 = 1_000_000;

/// The full machine per simulated instruction.
pub fn bench_table2(c: &mut Runner) {
    let mut g = c.benchmark_group("table2");
    g.throughput(TABLE2_INSTRS);
    g.sample_size(10);

    for name in ["art", "gzip"] {
        g.bench_function(format!("baseline/{name}/1M_instr"), |b| {
            b.iter_batched_ref(
                || (Machine::new(MachineConfig::single_core()), workload(name)),
                |(m, w)| {
                    m.run(&mut **w, TABLE2_INSTRS);
                    black_box(m.stats().l2_misses)
                },
            );
        });
        g.bench_function(format!("migration/{name}/1M_instr"), |b| {
            b.iter_batched_ref(
                || {
                    (
                        Machine::new(MachineConfig::four_core_migration()),
                        workload(name),
                    )
                },
                |(m, w)| {
                    m.run(&mut **w, TABLE2_INSTRS);
                    black_box(m.stats().migrations)
                },
            );
        });
    }
    g.finish();
}
