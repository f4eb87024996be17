//! The benchmark's workloads and the two ways it drives them.
//!
//! Every workload is a list of simulation runs ([`Job`]s), each run
//! carried to its full budget in [`SEGMENTS`] consecutive segments:
//! streams and simulators keep their state from one segment to the
//! next, so the last segment ends on exactly the statistics of one
//! uninterrupted run.
//!
//! - [`run_segment`] is the untraced path: every simulation goes
//!   through the public entry points the experiment binaries use —
//!   `Machine::run`, the Table 1 `L1Filter::filter` loop — on
//!   `runner::parallel_map_observed` with one worker thread.
//! - [`trace_segment`] drives the same jobs through the layers' own
//!   public functions (`Workload::fill_block`, `Machine::run_block`,
//!   `L1Filter::filter`) and times each call from outside; [`replay`]
//!   does the same for `MigrationController::on_request_tagged` on a
//!   request stream recorded from the machine.
//!
//! Both paths must produce bit-identical simulated statistics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use execmig_cache::LruStack;
use execmig_check::{capture, Lockstep};
use execmig_core::{MigrationController, TableStats};
use execmig_experiments::l1filter::L1Filter;
use execmig_experiments::runner::{parallel_map_observed, Obs};
use execmig_experiments::table2::classify;
use execmig_machine::{Machine, MachineConfig, MachineStats, Protocol, MAX_CORES};
use execmig_trace::{suite, AccessKind, LineSize, Workload, WorkloadEvent};

use crate::seed::{skip_events, Seeded};

/// The sharing-heavy streams of the coherence workload, where MESI
/// pays 1.8–3.8× migration mode's L2 misses.
pub const COHERENCE_BENCHES: [&str; 5] = ["vortex", "em3d", "twolf", "ammp", "art"];

/// Segments each run is split into. Host noise on a shared machine
/// only ever slows a segment down, so the timings report the fastest
/// segments: ten short segments catch a quiet stretch that one long
/// run would not.
pub const SEGMENTS: usize = 10;

/// The run length, in seconds, at which every workload simulates its
/// [`canonical_budget`](Scenario::canonical_budget).
pub const REFERENCE_SECONDS: u64 = 15;

/// Instructions of each four-core run whose controller requests
/// [`replay`] records.
pub const REPLAY_PREFIX: u64 = 2_000_000;

/// Instructions of each run the lockstep reference check covers.
pub const VERIFY_PREFIX: u64 = 100_000;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's Table 2: every suite benchmark through the
    /// single-core baseline and the four-core migration machine.
    Table2,
    /// [`COHERENCE_BENCHES`] through the four-core machine under MESI
    /// and Dragon.
    Coherence,
    /// Every suite benchmark through the Table 1 path: generator into
    /// the 16 KB fully-associative L1 filter, nothing behind it.
    L1Stream,
}

impl Scenario {
    /// Every workload.
    pub const ALL: [Scenario; 3] = [Scenario::Table2, Scenario::Coherence, Scenario::L1Stream];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Table2 => "table2",
            Scenario::Coherence => "coherence",
            Scenario::L1Stream => "l1_stream",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Instructions per simulation run at [`REFERENCE_SECONDS`]: the
    /// `table2` binary's 20 M for Table 2, 40 M for the others.
    pub fn canonical_budget(self) -> u64 {
        match self {
            Scenario::Table2 => 20_000_000,
            Scenario::Coherence | Scenario::L1Stream => 40_000_000,
        }
    }

    /// The per-run budget of a run measuring `seconds`: the canonical
    /// budget scaled by `seconds / REFERENCE_SECONDS`.
    pub fn budget(self, seconds: u64) -> u64 {
        self.canonical_budget() * seconds / REFERENCE_SECONDS
    }

    /// The suite benchmarks whose streams the workload runs, in order.
    pub fn benches(self) -> Vec<&'static str> {
        match self {
            Scenario::Table2 | Scenario::L1Stream => suite::names(),
            Scenario::Coherence => COHERENCE_BENCHES.to_vec(),
        }
    }

    /// The simulation runs of the workload, in order. Table 2 pairs
    /// each benchmark's baseline with its migration run.
    pub fn items(self) -> Vec<Item> {
        let sims: &[Sim] = match self {
            Scenario::Table2 => &[Sim::Machine(Cfg::Base), Sim::Machine(Cfg::Mig)],
            Scenario::Coherence => &[Sim::Machine(Cfg::Mesi), Sim::Machine(Cfg::Dragon)],
            Scenario::L1Stream => &[Sim::L1Filter],
        };
        self.benches()
            .into_iter()
            .flat_map(|bench| sims.iter().map(move |&sim| Item { bench, sim }))
            .collect()
    }

    /// Events `bench`'s stream skips under `seed` (see
    /// [`skip_events`]); every run of one benchmark sees the same
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not one of [`benches`](Self::benches).
    pub fn skip(self, seed: u64, bench: &str) -> u64 {
        let benches = self.benches();
        let slot = benches
            .iter()
            .position(|&b| b == bench)
            .expect("a benchmark of this workload");
        skip_events(seed, slot, benches.len())
    }
}

/// The absolute instruction count segment `k` (1-based) of a run
/// with `budget` instructions ends at.
pub fn segment_end(budget: u64, k: usize) -> u64 {
    budget * k as u64 / SEGMENTS as u64
}

/// A machine configuration the workloads simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cfg {
    /// Table 2's single-core baseline.
    Base,
    /// Table 2's four-core migration machine.
    Mig,
    /// The four-core machine under MESI.
    Mesi,
    /// The four-core machine under Dragon.
    Dragon,
}

impl Cfg {
    /// Every configuration, in metric order.
    pub const ALL: [Cfg; 4] = [Cfg::Base, Cfg::Mig, Cfg::Mesi, Cfg::Dragon];

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Cfg::Base => "base",
            Cfg::Mig => "mig",
            Cfg::Mesi => "mesi",
            Cfg::Dragon => "dragon",
        }
    }

    /// The machine configuration.
    pub fn config(self) -> MachineConfig {
        let protocol = match self {
            Cfg::Base => return MachineConfig::single_core(),
            Cfg::Mig => Protocol::MigrationMode,
            Cfg::Mesi => Protocol::Mesi,
            Cfg::Dragon => Protocol::Dragon,
        };
        MachineConfig {
            protocol,
            ..MachineConfig::four_core_migration()
        }
    }

    /// Whether the configuration has a migration controller.
    pub fn four_core(self) -> bool {
        self != Cfg::Base
    }
}

/// What a simulation run feeds its stream into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    /// A whole machine.
    Machine(Cfg),
    /// The Table 1 L1 filter.
    L1Filter,
}

/// One simulation run of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Suite benchmark supplying the stream.
    pub bench: &'static str,
    /// What consumes it.
    pub sim: Sim,
}

impl std::fmt::Display for Item {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.sim {
            Sim::Machine(cfg) => write!(f, "{}/{}", self.bench, cfg.name()),
            Sim::L1Filter => write!(f, "{}/l1", self.bench),
        }
    }
}

/// The simulated result of a run so far.
// A workload holds a few dozen outcomes; boxing the machine variant
// would save nothing measurable.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A machine run.
    Machine {
        /// The machine's counters.
        stats: MachineStats,
        /// Instructions executed on each core.
        core_instructions: [u64; MAX_CORES],
        /// Affinity-cache hits and misses (zero without a controller).
        affinity: TableStats,
    },
    /// An L1-filter run.
    L1 {
        /// Instructions retired by the stream.
        instructions: u64,
        /// Accesses filtered.
        accesses: u64,
        /// IL1 misses.
        il1_misses: u64,
        /// DL1 misses.
        dl1_misses: u64,
    },
}

impl Outcome {
    /// Instructions the run simulated.
    pub fn instructions(&self) -> u64 {
        match self {
            Outcome::Machine { stats, .. } => stats.instructions,
            Outcome::L1 { instructions, .. } => *instructions,
        }
    }

    /// The simulated counters the golden file pins, in its column
    /// order (see `golden/seed0.txt`).
    pub fn counters(&self) -> Vec<u64> {
        match self {
            Outcome::Machine {
                stats: s, affinity, ..
            } => vec![
                s.instructions,
                s.ifetches,
                s.loads,
                s.stores,
                s.il1_misses,
                s.dl1_misses,
                s.l2_accesses,
                s.l2_misses,
                s.l2_to_l2_forwards,
                s.invalidations,
                s.coherence_updates,
                s.bus.update_bus_bytes(),
                s.coherence_bus_bytes,
                s.migrations,
                s.l1_requests,
                affinity.hits,
                affinity.misses,
            ],
            Outcome::L1 {
                instructions,
                accesses,
                il1_misses,
                dl1_misses,
            } => vec![*instructions, *accesses, *il1_misses, *dl1_misses],
        }
    }
}

/// Checks the identities every run must satisfy: instructions ≥
/// budget and, for machine runs, accesses = ifetches + loads + stores,
/// L2 misses ≤ L2 accesses and Σ per-core instructions = instructions;
/// for L1 runs, misses ≤ accesses.
pub fn check_identities(outcome: &Outcome, budget: u64) -> Result<(), String> {
    let broken = |what: &str| Err(format!("identity broken: {what}"));
    if outcome.instructions() < budget {
        return broken("instructions >= budget");
    }
    match outcome {
        Outcome::Machine {
            stats: s,
            core_instructions,
            ..
        } => {
            if s.accesses != s.ifetches + s.loads + s.stores {
                return broken("accesses == ifetches + loads + stores");
            }
            if s.l2_misses > s.l2_accesses {
                return broken("l2_misses <= l2_accesses");
            }
            if core_instructions.iter().sum::<u64>() != s.instructions {
                return broken("sum(core_instructions) == instructions");
            }
        }
        Outcome::L1 {
            accesses,
            il1_misses,
            dl1_misses,
            ..
        } => {
            if il1_misses + dl1_misses > *accesses {
                return broken("il1_misses + dl1_misses <= accesses");
            }
        }
    }
    Ok(())
}

/// The simulator a job's stream feeds.
enum Engine {
    Machine(Box<Machine>, Cfg),
    Filter(L1Filter),
}

/// One simulation run in progress: its seeded stream and the simulator
/// it feeds, carried from segment to segment.
pub struct Job {
    /// The run.
    pub item: Item,
    stream: Seeded,
    engine: Engine,
}

impl Job {
    /// A fresh run of `item` on a stream fast-forwarded by `skip`
    /// events, with empty caches.
    ///
    /// # Panics
    ///
    /// Panics if `item.bench` is not a suite benchmark.
    pub fn new(item: Item, skip: u64) -> Job {
        let stream = Seeded::new(item.bench, skip).expect("workload items are suite benchmarks");
        let engine = match item.sim {
            Sim::Machine(cfg) => Engine::Machine(Box::new(Machine::new(cfg.config())), cfg),
            Sim::L1Filter => Engine::Filter(L1Filter::paper(LineSize::DEFAULT)),
        };
        Job {
            item,
            stream,
            engine,
        }
    }

    /// The run's statistics so far.
    pub fn outcome(&self) -> Outcome {
        match &self.engine {
            Engine::Machine(m, _) => Outcome::Machine {
                stats: *m.stats(),
                core_instructions: *m.core_instructions(),
                affinity: m.controller().map(|c| c.table_stats()).unwrap_or_default(),
            },
            Engine::Filter(f) => {
                let s = f.stats();
                Outcome::L1 {
                    instructions: self.stream.instructions(),
                    accesses: s.accesses,
                    il1_misses: s.il1_misses,
                    dl1_misses: s.dl1_misses,
                }
            }
        }
    }

    /// Runs on to `until` instructions through the public experiment
    /// paths.
    fn advance(&mut self, until: u64) {
        match &mut self.engine {
            Engine::Machine(m, _) => m.run(&mut self.stream, until),
            Engine::Filter(f) => {
                // The Table 1 loop, as `table1::run_benchmark` runs it.
                while self.stream.instructions() < until {
                    let _ = f.filter(self.stream.next_access());
                }
            }
        }
    }

    /// Runs on to `until` instructions layer by layer, timing each
    /// layer call into `t`.
    fn advance_traced(&mut self, until: u64, buf: &mut Vec<WorkloadEvent>, t: &mut Traced) {
        loop {
            buf.clear();
            let t0 = Instant::now();
            let n = self.stream.fill_block(buf, until, Machine::BLOCK_EVENTS);
            let t1 = Instant::now();
            t.fill += t1 - t0;
            if n == 0 {
                return;
            }
            t.events += n as u64;
            match &mut self.engine {
                Engine::Machine(m, cfg) => {
                    m.run_block(buf);
                    let d = t1.elapsed();
                    t.run_block[*cfg as usize] += d;
                    t.block_ns.push(d.as_nanos() as u64);
                }
                Engine::Filter(f) => {
                    for e in buf.iter() {
                        let _ = f.filter(e.access);
                    }
                    t.filter += t1.elapsed();
                }
            }
        }
    }

    /// Runs `step` and reports the run's state after it as one
    /// segment's [`Run`].
    fn segment(&mut self, until: u64, step: impl FnOnce(&mut Job)) -> Run {
        let before = self.stream.instructions();
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| step(self)))
            .map_err(|payload| {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string payload");
                format!("panicked: {msg}")
            })
            .and_then(|()| {
                let outcome = self.outcome();
                check_identities(&outcome, until)?;
                Ok(outcome)
            });
        Run {
            item: self.item,
            host: t.elapsed(),
            retired: self.stream.instructions() - before,
            result,
        }
    }
}

/// Builds a workload's jobs: a freshly seeded stream and an empty
/// simulator per item.
pub fn setup(scenario: Scenario, seed: u64) -> Vec<Job> {
    scenario
        .items()
        .into_iter()
        .map(|item| Job::new(item, scenario.skip(seed, item.bench)))
        .collect()
}

/// One segment of one run: the run's statistics at the segment's end
/// (or why it failed), and what the segment cost.
#[derive(Debug, Clone)]
pub struct Run {
    /// The item run.
    pub item: Item,
    /// The simulated outcome so far, or the panic or identity failure.
    pub result: Result<Outcome, String>,
    /// Host wall time of the segment.
    pub host: Duration,
    /// Instructions the segment retired.
    pub retired: u64,
}

/// One untraced segment of every job, and its wall time.
#[derive(Debug)]
pub struct Pass {
    /// Runs in item order.
    pub runs: Vec<Run>,
    /// Wall time of the segment, runner included.
    pub wall: Duration,
}

/// Runs every job on to `until` instructions through the public
/// experiment paths on a one-thread runner. A run that panics or
/// breaks an identity fails alone; the segment continues.
pub fn run_segment(jobs: Vec<Job>, until: u64) -> (Vec<Job>, Pass) {
    let start = Instant::now();
    let (out, _) = parallel_map_observed(jobs, 1, Obs::none(), |mut job, _| {
        let run = job.segment(until, |j| j.advance(until));
        (job, run)
    });
    let wall = start.elapsed();
    let (jobs, runs) = out.into_iter().unzip();
    (jobs, Pass { runs, wall })
}

/// Runs every job to `budget` instructions in [`SEGMENTS`] untraced
/// segments; the last segment's runs hold the full runs' statistics.
pub fn run_segments(mut jobs: Vec<Job>, budget: u64) -> (Vec<Job>, Vec<Pass>) {
    let mut passes = Vec::with_capacity(SEGMENTS);
    for k in 1..=SEGMENTS {
        let (next, pass) = run_segment(jobs, segment_end(budget, k));
        jobs = next;
        passes.push(pass);
    }
    (jobs, passes)
}

/// The layer times of a traced sweep: the same runs as
/// [`run_segments`], every layer call timed from outside.
#[derive(Debug, Default)]
pub struct Traced {
    /// The latest segment's runs, in item order.
    pub runs: Vec<Run>,
    /// Set-up: instantiating the simulators and fast-forwarding the
    /// streams.
    pub setup: Duration,
    /// Wall time of each traced segment.
    pub segments: Vec<Duration>,
    /// Σ `Workload::fill_block`.
    pub fill: Duration,
    /// Events the generators produced.
    pub events: u64,
    /// Σ `Machine::run_block`, per [`Cfg`] in [`Cfg::ALL`] order.
    pub run_block: [Duration; 4],
    /// Host ns of each `run_block` call.
    pub block_ns: Vec<u64>,
    /// Σ `L1Filter::filter` over all blocks.
    pub filter: Duration,
}

impl Traced {
    /// Σ `Machine::run_block` over every configuration.
    pub fn machine(&self) -> Duration {
        self.run_block.iter().sum()
    }

    /// Wall time of the sweep: set-up plus every traced segment.
    pub fn wall(&self) -> Duration {
        self.setup + self.segments.iter().sum::<Duration>()
    }

    /// The ledger's accounted time: set-up plus every timed layer call.
    pub fn accounted(&self) -> Duration {
        self.setup + self.fill + self.machine() + self.filter
    }
}

/// Runs every job on to `until` instructions layer by layer, timing
/// each call into `t`; `t.runs` becomes the segment's runs.
pub fn trace_segment(jobs: &mut [Job], until: u64, t: &mut Traced) {
    let start = Instant::now();
    let mut buf = Vec::with_capacity(Machine::BLOCK_EVENTS);
    let mut runs = Vec::with_capacity(jobs.len());
    for job in jobs {
        runs.push(job.segment(until, |j| j.advance_traced(until, &mut buf, t)));
    }
    t.runs = runs;
    t.segments.push(start.elapsed());
}

/// Sets up `scenario` and runs it to `budget` in [`SEGMENTS`] traced
/// segments.
pub fn run_traced(scenario: Scenario, seed: u64, budget: u64) -> Traced {
    let start = Instant::now();
    let mut jobs = setup(scenario, seed);
    let mut t = Traced {
        setup: start.elapsed(),
        ..Traced::default()
    };
    for k in 1..=SEGMENTS {
        trace_segment(&mut jobs, segment_end(budget, k), &mut t);
    }
    t
}

/// One controller request as the machine issued it.
#[derive(Debug, Clone, Copy)]
struct Request {
    line: u64,
    l2_miss: bool,
    pointer: bool,
    /// The machine's active core right after the request.
    core: usize,
}

/// Replays of each recorded request stream; [`replay`] reports the
/// median time.
const REPLAY_REPEATS: usize = 3;

/// The controller replay of one four-core run's prefix.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Requests recorded (and replayed).
    pub requests: u64,
    /// Replayed decisions that differ from the machine's, plus any
    /// difference in the migration count.
    pub mismatches: u64,
    /// Migrations the machine made over the prefix.
    pub migrations: u64,
    /// Median host time of one replay.
    pub replay: Duration,
}

/// Records the controller request stream of `bench` (fast-forwarded
/// by `skip` events) on `cfg` over the first `prefix` instructions —
/// stepping the machine one event at a time and reading the
/// `l1_requests`/`l2_misses` deltas — and replays it into a fresh
/// `MigrationController`.
///
/// # Panics
///
/// Panics if `cfg` has no controller or `bench` is not in the suite.
pub fn replay(bench: &str, cfg: Cfg, skip: u64, prefix: u64) -> Replay {
    let config = cfg.config();
    let line = config.validate();
    let controller = config
        .controller
        .expect("four-core config has a controller");
    let mut m = Machine::new(config);
    let mut w = Seeded::new(bench, skip).expect("suite benchmark");
    let mut stream = Vec::new();
    let mut mismatches = 0u64;
    let mut buf = Vec::with_capacity(Machine::BLOCK_EVENTS);
    loop {
        buf.clear();
        if w.fill_block(&mut buf, prefix, Machine::BLOCK_EVENTS) == 0 {
            break;
        }
        for e in &buf {
            let before = *m.stats();
            m.run_block(std::slice::from_ref(e));
            let s = m.stats();
            match s.l1_requests - before.l1_requests {
                0 => {}
                1 => stream.push(Request {
                    line: line.line_of(e.access.addr).raw(),
                    l2_miss: s.l2_misses > before.l2_misses,
                    // Stores reach the controller as non-pointer requests.
                    pointer: e.access.pointer && e.access.kind != AccessKind::Store,
                    core: m.active_core(),
                }),
                // One event issues at most one request; more cannot be
                // attributed, so each counts as a mismatch.
                n => mismatches += n,
            }
        }
    }
    let mut targets = Vec::with_capacity(stream.len());
    let mut times = Vec::with_capacity(REPLAY_REPEATS);
    let mut migrations = 0;
    for _ in 0..REPLAY_REPEATS {
        let mut mc = MigrationController::new(controller);
        targets.clear();
        let t = Instant::now();
        for r in &stream {
            targets.push(mc.on_request_tagged(r.line, r.l2_miss, r.pointer));
        }
        times.push(t.elapsed());
        migrations = mc.stats().migrations;
    }
    times.sort();
    mismatches += stream
        .iter()
        .zip(&targets)
        .filter(|(r, &core)| r.core != core)
        .count() as u64;
    mismatches += migrations.abs_diff(m.stats().migrations);
    Replay {
        requests: stream.len() as u64,
        mismatches,
        migrations: m.stats().migrations,
        replay: times[REPLAY_REPEATS / 2],
    }
}

/// Checks the first `prefix` instructions of `item` (its stream
/// fast-forwarded by `skip` events) against an independent reference:
/// the lockstep differ's naive whole-machine model for machine runs,
/// Mattson's LRU stack for the L1 filter (a fully-associative LRU
/// cache of `C` lines hits exactly the references of depth ≤ `C`).
pub fn verify_reference(item: Item, skip: u64, prefix: u64) -> Result<(), String> {
    let mut w = Seeded::new(item.bench, skip).ok_or("not a suite benchmark")?;
    match item.sim {
        Sim::Machine(cfg) => {
            let trace = capture(&mut w, prefix);
            let mut lockstep = Lockstep::new(cfg.config());
            match lockstep
                .run_trace_blocks(&trace, &[Machine::BLOCK_EVENTS])
                .or_else(|| lockstep.final_check())
            {
                Some(report) => Err(format!("{item} diverges from the reference:\n{report}")),
                None => Ok(()),
            }
        }
        Sim::L1Filter => {
            let line = LineSize::DEFAULT;
            let frames = (16 << 10) / line.bytes();
            let mut filter = L1Filter::paper(line);
            let (mut il1, mut dl1) = (LruStack::new(), LruStack::new());
            while w.instructions() < prefix {
                let a = w.next_access();
                let stack = match a.kind {
                    AccessKind::IFetch => &mut il1,
                    AccessKind::Load | AccessKind::Store => &mut dl1,
                };
                let hit = stack
                    .access(line.line_of(a.addr).raw())
                    .is_some_and(|depth| depth <= frames);
                if filter.filter(a).is_none() != hit {
                    return Err(format!(
                        "{item}: L1 filter and reference LRU disagree at instruction {}",
                        w.instructions()
                    ));
                }
            }
            Ok(())
        }
    }
}

/// The golden file: seed-0 statistics of every run at its canonical
/// budget.
pub const GOLDEN: &str = include_str!("../golden/seed0.txt");

/// A run's line in the golden file: workload, run, then its
/// [`counters`](Outcome::counters).
pub fn golden_line(scenario: Scenario, item: Item, outcome: &Outcome) -> String {
    let counters: Vec<String> = outcome.counters().iter().map(u64::to_string).collect();
    format!("{} {item} {}", scenario.name(), counters.join(" "))
}

/// Compares a full run of `scenario` at seed 0 and the canonical
/// budget with its line in `golden` (the contents of a golden file).
/// A failed run has nothing to compare and passes here.
pub fn check_golden(golden: &str, scenario: Scenario, run: &Run) -> Result<(), String> {
    let Ok(outcome) = &run.result else {
        return Ok(());
    };
    let got = golden_line(scenario, run.item, outcome);
    let key = format!("{} {} ", scenario.name(), run.item);
    match golden.lines().find(|l| l.starts_with(&key)) {
        Some(want) if want == got => Ok(()),
        want => Err(format!(
            "{}: simulated statistics differ from golden/seed0.txt\n  want {}\n  got  {got}",
            run.item,
            want.unwrap_or("(no line)")
        )),
    }
}

/// Table 2 fidelity: how many benchmarks land in the paper's class,
/// and the mean |ln(ratio / paper ratio)|.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Benchmarks classified as the paper classifies them.
    pub agree: usize,
    /// Benchmarks compared.
    pub benches: usize,
    /// Mean absolute log error of the L2-miss ratio.
    pub ratio_err: f64,
}

/// Benchmarks whose seed-0 Table 2 class matches the paper's at the
/// canonical budget.
pub const TABLE2_AGREE_SEED0: usize = 17;

/// The L2-miss ratio of Table 2: migration run over baseline, per
/// instruction, computed exactly as `table2::run_benchmark` does.
pub fn l2_ratio(base: &MachineStats, mig: &MachineStats) -> f64 {
    let base_rate = base.l2_misses as f64 / base.instructions.max(1) as f64;
    let mig_rate = mig.l2_misses as f64 / mig.instructions.max(1) as f64;
    if base_rate > 0.0 {
        mig_rate / base_rate
    } else {
        f64::NAN
    }
}

/// Table 2 fidelity from a table2 sweep's runs (baseline, migration
/// pairs). Errs if a run failed or a ratio is not finite.
pub fn table2_fidelity(runs: &[Run]) -> Result<Fidelity, String> {
    let mut agree = 0;
    let mut err = 0.0;
    for pair in runs.chunks(2) {
        let [base, mig] = pair else {
            return Err("table2 runs come in pairs".into());
        };
        let (Ok(Outcome::Machine { stats: b, .. }), Ok(Outcome::Machine { stats: m, .. })) =
            (&base.result, &mig.result)
        else {
            return Err(format!("{} has no machine result", base.item.bench));
        };
        let ratio = l2_ratio(b, m);
        let bench = base.item.bench;
        if !ratio.is_finite() || ratio <= 0.0 {
            return Err(format!(
                "{bench}: L2-miss ratio {ratio} is not a positive number"
            ));
        }
        let paper = suite::info(bench)
            .ok_or("not a suite benchmark")?
            .paper_ratio;
        agree += usize::from(classify(ratio) == classify(paper));
        err += (ratio / paper).ln().abs();
    }
    let benches = runs.len() / 2;
    Ok(Fidelity {
        agree,
        benches,
        ratio_err: err / benches.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        assert_eq!(Scenario::Table2.items().len(), 36);
        assert_eq!(Scenario::Coherence.items().len(), 10);
        assert_eq!(Scenario::L1Stream.items().len(), 18);
        for s in Scenario::ALL {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
    }

    #[test]
    fn budgets_scale_with_seconds() {
        assert_eq!(Scenario::Table2.budget(REFERENCE_SECONDS), 20_000_000);
        assert_eq!(Scenario::L1Stream.budget(3), 8_000_000);
        assert_eq!(segment_end(20_000_000, 1), 2_000_000);
        assert_eq!(segment_end(20_000_000, SEGMENTS), 20_000_000);
    }

    #[test]
    fn golden_lines_round_trip() {
        let item = Scenario::L1Stream.items()[0];
        let outcome = Outcome::L1 {
            instructions: 10,
            accesses: 7,
            il1_misses: 2,
            dl1_misses: 1,
        };
        let line = golden_line(Scenario::L1Stream, item, &outcome);
        assert_eq!(line, format!("l1_stream {item} 10 7 2 1"));
        let run = |outcome| Run {
            item,
            result: Ok(outcome),
            host: Duration::ZERO,
            retired: 10,
        };
        assert_eq!(
            check_golden(&line, Scenario::L1Stream, &run(outcome.clone())),
            Ok(())
        );
        let mut corrupted = outcome.clone();
        if let Outcome::L1 { il1_misses, .. } = &mut corrupted {
            *il1_misses += 1;
        }
        assert!(check_golden(&line, Scenario::L1Stream, &run(corrupted)).is_err());
        assert!(check_golden("", Scenario::L1Stream, &run(outcome)).is_err());
    }
}
