//! The machine: cores, caches, coherence, and the run loop.

use execmig_cache::{Cache, Probe};
use execmig_core::MigrationController;
use execmig_obs::{
    wall, EventKind, EventRing, Family, Histogram, ProfileConfig, ProfileRecord, Profiler,
    Registry, TraceEvent,
};
use execmig_trace::{AccessKind, LineAddr, LineSize, Workload, WorkloadEvent};

use crate::bus::UpdateBus;
use crate::coherence::{CoherenceCtx, CoherenceProtocol, Protocol};
use crate::config::MachineConfig;
use crate::invariants;
use crate::stats::MachineStats;

/// Upper bound on the core count (see [`MachineConfig::validate`]),
/// sizing the per-core occupancy counters.
pub const MAX_CORES: usize = 8;

// The profiler's residency array must hold every core's counter.
const _: () = assert!(MAX_CORES == execmig_obs::profile::PROFILE_MAX_CORES);

/// Reads one profiled counter's cumulative count off a machine.
type ReadCount = fn(&Machine) -> u64;

/// The profiled counters, in profile JSON order, each with its
/// cumulative count. This is the one list of what the interval
/// profiler records: every [`ProfileRecord`] a machine builds counts
/// under these names, and adding a counter is one entry here.
const PROFILED: &[(&str, ReadCount)] = &[
    ("il1_misses", |m| m.stats.il1_misses),
    ("dl1_misses", |m| m.stats.dl1_misses),
    ("l2_misses", |m| m.stats.l2_misses),
    ("l3_misses", |m| m.stats.l3_misses),
    ("migrations", |m| m.stats.migrations),
    // Transition-filter sign flips (splitter transitions).
    ("flips", |m| {
        m.controller
            .as_ref()
            .map_or(0, |mc| mc.splitter_stats().transitions)
    }),
    ("affinity_hits", |m| {
        m.controller.as_ref().map_or(0, |mc| mc.table_stats().hits)
    }),
    ("affinity_misses", |m| {
        m.controller
            .as_ref()
            .map_or(0, |mc| mc.table_stats().misses)
    }),
    // Total bus traffic: the architectural update bus plus any protocol
    // coherence transactions (0 under migration mode, so its profiles
    // are unchanged by the protocol seam).
    ("bus_bytes", |m| {
        m.stats.bus.update_bus_bytes() + m.stats.coherence_bus_bytes
    }),
    ("invalidations", |m| m.stats.invalidations),
    ("coherence_updates", |m| m.stats.coherence_updates),
];

/// [`PROFILED`]'s names: the list a machine's records carry.
const PROFILED_NAMES: &[&str] = &{
    let mut names = [""; PROFILED.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = PROFILED[i].0;
        i += 1;
    }
    names
};

// A record must hold every profiled counter.
const _: () = assert!(PROFILED.len() <= execmig_obs::profile::PROFILE_MAX_COUNTERS);

/// The multi-core machine in migration mode.
///
/// Because inactive L1s mirror the active one exactly (fills are
/// broadcast, DL1 is write-through so there is no divergent dirty state,
/// and stores are broadcast too — §2.3), the model keeps a *single*
/// IL1/DL1 pair shared by all cores; only the L2s are per-core. This is
/// not an approximation: it is the paper's stated design point ("when
/// execution migrates to another core, the L1 miss frequency is the same
/// as if execution had not migrated").
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    line: LineSize,
    il1: Cache,
    dl1: Cache,
    l2: Vec<Cache>,
    l3: Option<Cache>,
    controller: Option<MigrationController>,
    bus: UpdateBus,
    active: usize,
    stats: MachineStats,
    last_instructions: u64,
    /// Instructions executed on each core (occupancy).
    core_instructions: [u64; MAX_CORES],
    /// Instructions between consecutive migrations.
    inter_arrival: Histogram,
    /// Instruction count at the last migration.
    last_migration_at: u64,
    /// Event ring and interval profiler, both `Some` once
    /// [`attach_recorders`](Self::attach_recorders) has run. Boxed:
    /// inline, their ~300 bytes would sit between the hot fields of
    /// every detached machine.
    events: Option<Box<EventRing>>,
    profiler: Option<Box<Profiler>>,
    /// Update-bus instruction charge batched since the last block
    /// close (see [`close_block`](Self::close_block)).
    pend_bus_instr: u64,
    /// Line-run memo for the IL1: the line of the previous instruction
    /// fetch, which that fetch left resident — a repeat fetch is a
    /// guaranteed hit and skips the set scan entirely.
    il1_run: Option<LineAddr>,
    /// Line-run memo for the DL1: the line of the previous data access
    /// and whether it is resident (stores do not allocate, so a store
    /// miss memoizes `false`).
    dl1_run: Option<(LineAddr, bool)>,
    /// Store-run memo: the line of the previous store, which hit the
    /// active L2 and left it modified and unshared (any protocol),
    /// together with the number of remote L2 copies its §2.3 store
    /// broadcast refreshed (0 outside migration mode). While no other
    /// event touches any L2 (every such path clears this), an
    /// immediately repeated store to the same line is state-idempotent —
    /// the active copy is already modified and exclusive, the remote
    /// copies are already clean and still resident — so the block fast
    /// path replays it as two counter bumps instead of up to four set
    /// scans.
    store_run: Option<(LineAddr, u64)>,
}

/// Per-kind event counts one block accumulates in locals;
/// [`Machine::close_block`] lands them in [`MachineStats`].
#[derive(Default)]
struct BlockTally {
    ifetches: u64,
    loads: u64,
    stores: u64,
    l2_accesses: u64,
    broadcast_updates: u64,
}

impl BlockTally {
    fn accesses(&self) -> u64 {
        self.ifetches + self.loads + self.stores
    }
}

impl Machine {
    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig) -> Self {
        let line = config.validate();
        let il1 = Cache::new(config.il1.to_cache_config(config.line_bytes));
        let dl1 = Cache::new(config.dl1.to_cache_config(config.line_bytes));
        let l2 = (0..config.cores)
            .map(|_| Cache::new(config.l2.to_cache_config(config.line_bytes)))
            .collect();
        let l3 = config
            .l3
            .map(|g| Cache::new(g.to_cache_config(config.line_bytes)));
        let controller = config.controller.map(MigrationController::new);
        Machine {
            config,
            line,
            il1,
            dl1,
            l2,
            l3,
            controller,
            bus: UpdateBus::default(),
            active: 0,
            stats: MachineStats::default(),
            last_instructions: 0,
            core_instructions: [0; MAX_CORES],
            inter_arrival: Histogram::new(),
            last_migration_at: 0,
            events: None,
            profiler: None,
            pend_bus_instr: 0,
            il1_run: None,
            dl1_run: None,
            store_run: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The core currently executing.
    pub fn active_core(&self) -> usize {
        self.active
    }

    /// Switches execution to `core` directly, as an external scheduler
    /// would. Unlike controller-driven migration this does not count in
    /// [`MachineStats::migrations`] — tests and experiments use it to
    /// drive cross-core coherence scenarios on controller-less
    /// machines.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not below the configured core count.
    pub fn activate(&mut self, core: usize) {
        assert!(
            core < self.config.cores,
            "core {core} out of range for {} cores",
            self.config.cores
        );
        // The active/remote split the store-run memo was measured
        // against no longer holds.
        self.store_run = None;
        self.active = core;
    }

    /// Collected statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The migration controller, if configured.
    pub fn controller(&self) -> Option<&MigrationController> {
        self.controller.as_ref()
    }

    /// The (shared) instruction L1. Read-only: differential checkers
    /// compare cache contents without perturbing recency state.
    pub fn il1_cache(&self) -> &Cache {
        &self.il1
    }

    /// The (shared) data L1.
    pub fn dl1_cache(&self) -> &Cache {
        &self.dl1
    }

    /// Core `core`'s private L2.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not below the configured core count.
    pub fn l2_cache(&self, core: usize) -> &Cache {
        &self.l2[core]
    }

    /// The shared L3, when finite.
    pub fn l3_cache(&self) -> Option<&Cache> {
        self.l3.as_ref()
    }

    /// Attaches a fresh event ring, retaining the
    /// [`ring::DEFAULT_CAPACITY`](execmig_obs::ring::DEFAULT_CAPACITY)
    /// most recent events (migrations, transition flips,
    /// affinity-cache misses, L2 misses, bus broadcasts), and a fresh
    /// interval profiler sized by `profile`, replacing any attached
    /// ones. A machine starts detached and records nothing.
    ///
    /// # Panics
    ///
    /// Panics if `profile.period == 0` or `profile.capacity` is odd or
    /// below 2.
    pub fn attach_recorders(&mut self, profile: ProfileConfig) {
        self.events = Some(Box::new(EventRing::new(
            execmig_obs::ring::DEFAULT_CAPACITY,
        )));
        self.profiler = Some(Box::new(Profiler::with_config(profile)));
    }

    /// The attached event ring, if any.
    pub fn events(&self) -> Option<&EventRing> {
        self.events.as_deref()
    }

    /// The attached interval profiler, if any.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_deref()
    }

    /// Instructions executed on each core. Only the first
    /// [`MachineConfig::cores`] entries can be non-zero.
    pub fn core_instructions(&self) -> &[u64; MAX_CORES] {
        &self.core_instructions
    }

    /// Distribution of instruction distances between consecutive
    /// migrations (the first migration measures from instruction 0).
    pub fn migration_interarrival(&self) -> &Histogram {
        &self.inter_arrival
    }

    /// The machine's metrics as a named registry: every
    /// [`MachineStats::counters`] entry plus `bus_update_bytes`,
    /// per-core occupancy counters, the migration inter-arrival /
    /// filter-dwell / affinity-age histograms, and controller gauges,
    /// all cumulative. Per-interval deltas come from the profiler
    /// ([`attach_recorders`](Self::attach_recorders)) or from
    /// differences of [`profile_cumulative`](Self::profile_cumulative).
    pub fn metrics(&self) -> Registry {
        let mut r = Registry::new();
        for (name, v) in self.stats.counters() {
            r.counter(name, v);
        }
        r.counter("bus_update_bytes", self.stats.bus.update_bus_bytes());
        for (c, &instr) in self
            .core_instructions
            .iter()
            .enumerate()
            .take(self.config.cores)
        {
            r.counter(&format!("core{c}_instructions"), instr);
        }
        r.histogram("migration_interarrival_instr", &self.inter_arrival);
        if let Some(mc) = &self.controller {
            r.histogram("filter_dwell_requests", mc.dwell_histogram());
            if let Some(ages) = mc.affinity_age_histogram() {
                r.histogram("affinity_age_at_eviction", ages);
            }
            r.gauge("affinity_table_miss_rate", mc.table_stats().miss_rate());
        }
        r
    }

    /// Runs `workload` until at least `instructions` dynamic
    /// instructions have retired. Can be called repeatedly; the budget
    /// is absolute (total instructions since the workload started).
    ///
    /// The one-machine case of [`run_shared`](Self::run_shared).
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W, instructions: u64) {
        Self::run_shared(std::slice::from_mut(self), workload, instructions);
    }

    /// Runs every machine in `machines` over one `workload` stream
    /// until at least `instructions` dynamic instructions have retired:
    /// the one fill/replay loop. Each block of up to
    /// [`BLOCK_EVENTS`](Self::BLOCK_EVENTS) events is generated once
    /// with `Workload::fill_block` and replayed into every machine with
    /// [`run_block`](Self::run_block), so each machine ends in exactly
    /// the state a [`run`](Self::run) over its own fresh copy of the
    /// stream would leave — stats, caches, profiler records and event
    /// ring alike. The budget is absolute, as for `run`.
    ///
    /// On a thread with an attached wall, one `machine/block` span
    /// covers the call. The span only reads the clock: the simulation
    /// is the same with or without it.
    pub fn run_shared<W: Workload + ?Sized>(
        machines: &mut [Machine],
        workload: &mut W,
        instructions: u64,
    ) {
        let _block_span = wall::span(Family::MachineBlock);
        let mut buf: Vec<WorkloadEvent> = Vec::with_capacity(Self::BLOCK_EVENTS);
        loop {
            buf.clear();
            if workload.fill_block(&mut buf, instructions, Self::BLOCK_EVENTS) == 0 {
                break;
            }
            for m in machines.iter_mut() {
                m.run_block(&buf);
            }
        }
    }

    /// Processes one access. `instructions_now` is the workload's total
    /// retired-instruction count after this access.
    pub fn step(&mut self, kind: AccessKind, line: LineAddr, instructions_now: u64) {
        self.step_tagged(kind, line, instructions_now, false)
    }

    /// Like [`step`](Self::step), with the access's pointer-load origin
    /// (used by the §6 pointer-filter extension). The access runs as a
    /// one-event block: the same per-event body and block close as
    /// [`run_block`](Self::run_block).
    pub fn step_tagged(
        &mut self,
        kind: AccessKind,
        line: LineAddr,
        instructions_now: u64,
        pointer: bool,
    ) {
        let mut tally = BlockTally::default();
        self.event(kind, line, instructions_now, pointer, &mut tally);
        self.close_block(instructions_now, &tally);
    }

    /// Number of events block-stepping run loops buffer per
    /// [`run_block`](Self::run_block) call: large enough to amortize
    /// the per-block work to noise, small enough that a block of
    /// [`WorkloadEvent`]s stays L1-resident.
    pub const BLOCK_EVENTS: usize = 2048;

    /// Replays a buffered block of workload events.
    ///
    /// Observable state after the call — [`MachineStats`], cache
    /// contents, profiles, traces, controller state — is bit-identical
    /// to feeding the same events through
    /// [`step_tagged`](Self::step_tagged) one at a time; the per-event
    /// overheads are hoisted to block boundaries:
    ///
    /// - per-kind event counts accumulate in a tally that lands once per
    ///   block; `stats.instructions` and the per-core occupancy sync
    ///   only where a miss path needs them (event timestamps,
    ///   controller consultation) and at the block close.
    /// - update-bus instruction/store charging lands once per block.
    ///   The bus's fixed-point carry accumulators make split charging
    ///   associative, so every close sees identical byte counts (see
    ///   `UpdateBus::charge_instructions`).
    /// - the block is cut at each profiler boundary
    ///   (`Profiler::next_due`) into sub-blocks that contain none, so
    ///   each sample lands on exactly the event a per-step loop would
    ///   sample at, after its sub-block's close. With no profiler
    ///   attached the boundary is `u64::MAX` and the block runs whole.
    ///
    /// Events must carry monotone post-event instruction counts, as
    /// `Workload::fill_block` produces. Blocks of any size work,
    /// including a single event or a slice overshooting a caller's
    /// instruction budget.
    pub fn run_block(&mut self, events: &[WorkloadEvent]) {
        let mut rest = events;
        while let Some(last) = rest.last() {
            // `sample_due` is monotone in the instruction count, so the
            // first event at or past the boundary ends the sub-block.
            let due = self.profiler.as_ref().map_or(u64::MAX, |p| p.next_due());
            let len = if last.instructions < due {
                rest.len()
            } else {
                rest.partition_point(|e| e.instructions < due) + 1
            };
            let (block, tail) = rest.split_at(len);
            let mut tally = BlockTally::default();
            for e in block {
                let line = self.line.line_of(e.access.addr);
                self.event(
                    e.access.kind,
                    line,
                    e.instructions,
                    e.access.pointer,
                    &mut tally,
                );
            }
            self.close_block(block[len - 1].instructions, &tally);
            rest = tail;
        }
    }

    /// The per-event datapath behind every stepping path: the IL1, DL1
    /// and store-run memos, the miss paths below them, and the debug
    /// I-checks. Per-kind counts go to `tally`, and `stats.instructions`
    /// syncs only where a miss path reads it;
    /// [`close_block`](Self::close_block) lands both. Always inlined, so
    /// the tally stays in registers across `run_block`'s event loop.
    #[inline(always)]
    fn event(
        &mut self,
        kind: AccessKind,
        line: LineAddr,
        instructions: u64,
        pointer: bool,
        tally: &mut BlockTally,
    ) {
        match kind {
            AccessKind::IFetch => {
                tally.ifetches += 1;
                // Line-run memo: a repeat fetch of the previous fetch's
                // line is a guaranteed hit (that fetch left the line
                // resident, and only fetches touch the IL1), so the set
                // scan — and its LRU restamp — is skipped. Skipped
                // restamps never change a victim: between two touches
                // of one line no other stamp enters this cache, so the
                // relative stamp order every LRU decision reads is
                // preserved exactly.
                if self.il1_run != Some(line) {
                    self.il1_run = Some(line);
                    // Fused probe: one set scan decides hit-or-fill.
                    if !self.il1.access(line, false).hit {
                        self.sync_to(instructions);
                        self.il1_miss(line, pointer);
                    }
                }
            }
            AccessKind::Load => {
                tally.loads += 1;
                // Same line-run memo as the IL1; `true` means the run's
                // line is resident (a store miss memoizes `false`, and
                // a load then takes the full fill path below).
                if self.dl1_run != Some((line, true)) {
                    if !self.dl1.access(line, false).hit {
                        self.sync_to(instructions);
                        self.dl1_load_miss(line, pointer);
                    }
                    self.dl1_run = Some((line, true));
                }
            }
            AccessKind::Store => {
                tally.stores += 1;
                // Store-run fast path: the previous store hit this same
                // line (so did the DL1 memo), and no L2 has been touched
                // since — the repeat is state-idempotent (see the
                // `store_run` field) and its only observable effect is
                // the two counters.
                match self.store_run {
                    Some((l, k)) if l == line && self.dl1_run == Some((line, true)) => {
                        tally.l2_accesses += 1;
                        tally.broadcast_updates += k;
                    }
                    _ => {
                        self.sync_to(instructions);
                        self.store_event(line);
                    }
                }
            }
        }

        #[cfg(debug_assertions)]
        {
            self.sync_to(instructions);
            invariants::check_occupancy(
                &self.core_instructions[..self.config.cores],
                self.stats.instructions,
            );
            if (self.stats.accesses + tally.accesses()).is_multiple_of(invariants::SCAN_PERIOD) {
                self.check_invariants();
            }
        }
    }

    /// Closes a block whose last event retired at `end`: syncs the
    /// instruction counters, lands `tally`, charges the update bus and
    /// re-mirrors `stats.bus`, then records a sample if an attached
    /// profiler has one due.
    fn close_block(&mut self, end: u64, tally: &BlockTally) {
        self.sync_to(end);
        let s = &mut self.stats;
        s.accesses += tally.accesses();
        s.ifetches += tally.ifetches;
        s.loads += tally.loads;
        s.stores += tally.stores;
        s.l2_accesses += tally.l2_accesses;
        s.store_broadcast_updates += tally.broadcast_updates;
        // Register/branch broadcast for the instructions retired since
        // the last close, plus every store — hit or miss, fast or slow
        // — whose value crosses the update bus (§2.3).
        self.bus
            .charge_instructions(std::mem::take(&mut self.pend_bus_instr), tally.stores);
        self.stats.bus = self.bus.stats();

        if let Some(mut profiler) = self.profiler.take_if(|p| p.sample_due(end)) {
            profiler.record_sample(&self.profile_cumulative());
            self.profiler = Some(profiler);
        }
    }

    /// Records `kind` at instruction count `at` into the attached event
    /// ring; a detached machine pays one branch.
    #[inline]
    fn emit(&mut self, at: u64, kind: EventKind) {
        if let Some(ring) = &mut self.events {
            ring.push(TraceEvent { at, kind });
        }
    }

    /// Brings `stats.instructions`, the active core's occupancy
    /// counter, and the pending update-bus instruction charge up to
    /// `now`. Idempotent at a given `now`; every path that makes those
    /// counters observable (miss paths, block closes) syncs first.
    #[inline]
    fn sync_to(&mut self, now: u64) {
        let delta = now.saturating_sub(self.last_instructions);
        self.last_instructions = now;
        self.stats.instructions = now;
        self.core_instructions[self.active] += delta;
        self.pend_bus_instr += delta;
    }

    /// IL1 miss tail: counters, the §2.3 mirror fill broadcast, and the
    /// L2 read request. The caller has already synced
    /// `stats.instructions` to the event.
    #[inline]
    fn il1_miss(&mut self, line: LineAddr, pointer: bool) {
        self.stats.il1_misses += 1;
        self.bus.charge_l1_mirror(self.line.bytes());
        self.emit(self.stats.instructions, EventKind::BusBroadcast);
        self.l1_request(line, pointer);
    }

    /// DL1 load-miss tail; same shape as [`il1_miss`](Self::il1_miss).
    #[inline]
    fn dl1_load_miss(&mut self, line: LineAddr, pointer: bool) {
        self.stats.dl1_misses += 1;
        self.bus.charge_l1_mirror(self.line.bytes());
        self.emit(self.stats.instructions, EventKind::BusBroadcast);
        self.l1_request(line, pointer);
    }

    /// The store datapath below the per-kind counter: resolves the DL1
    /// (write-through, non-write-allocate) and forwards the write to
    /// the active L2. The caller has already synced
    /// `stats.instructions` to the event.
    #[inline]
    fn store_event(&mut self, line: LineAddr) {
        // Write-through, non-write-allocate DL1: a hit updates
        // the line in place, a miss does not allocate — but the
        // write always goes to the L2 (which *is*
        // write-allocate, "write allocation in L2 may be
        // triggered even upon DL1 hits").
        let dl1_hit = match self.dl1_run {
            Some((l, present)) if l == line => present,
            _ => {
                let hit = self.dl1.lookup(line);
                self.dl1_run = Some((line, hit));
                hit
            }
        };
        if !dl1_hit {
            self.stats.dl1_misses += 1;
        }
        // A DL1 store miss deliberately charges no
        // `charge_l1_mirror` bytes and emits no `BusBroadcast`,
        // unlike the Load/IFetch miss paths: under §2.3 the
        // mirror broadcast carries a *filled line* so inactive
        // L1s stay identical copies, and a non-write-allocate
        // miss fills nothing — there is no line to broadcast.
        // The store's own value crosses the update bus either
        // way (§2.3: every retired store is broadcast), which
        // `charge_instructions` prices per store as
        // `store_bytes` whether the DL1 hit or missed.
        self.l2_write(line, !dl1_hit);
    }

    /// The machine's profiled counters as one record over `[0, now)`:
    /// each [`PROFILED`] count, the instructions each core retired, and
    /// the active core and the controller's `F`, `A_R` and subset now.
    /// The profiler subtracts consecutive snapshots into interval
    /// records.
    pub fn profile_cumulative(&self) -> ProfileRecord {
        let mut counts = [0; PROFILED.len()];
        for (count, (_, read)) in counts.iter_mut().zip(PROFILED) {
            *count = read(self);
        }
        let mut record = ProfileRecord::new(PROFILED_NAMES, &counts);
        record.end = self.stats.instructions;
        record.residency = self.core_instructions;
        record.active_core = self.active as u8;
        record.subset = self.active as u8;
        if let Some(mc) = &self.controller {
            record.f_value = mc.filter_value();
            record.a_r = mc.ar();
            record.subset = mc.current_core() as u8;
        }
        record
    }

    /// Runs the machine-level invariant checks (I105–I107, see the
    /// [`invariants`] module). Debug builds call this automatically
    /// every [`invariants::SCAN_PERIOD`] accesses; in release builds
    /// the checks compile to nothing.
    pub fn check_invariants(&self) {
        invariants::check_coherence(self.config.protocol, &self.l2);
        invariants::check_l1_write_through(&self.il1, &self.dl1);
        invariants::check_occupancy(
            &self.core_instructions[..self.config.cores],
            self.stats.instructions,
        );
        invariants::check_migration_accounting(
            self.stats.migrations,
            self.controller.as_ref().map_or(0, |c| c.stats().migrations),
            self.active,
            self.config.cores,
        );
    }

    /// Read path for an L1 miss: consult the active L2, the remote L2s
    /// (modified copies only), then L3; notify the controller.
    fn l1_request(&mut self, line: LineAddr, pointer: bool) {
        // Fills, forwards, prefetches, and migrations below may move
        // lines in any L2.
        self.store_run = None;
        self.stats.l1_requests += 1;
        self.stats.l2_accesses += 1;
        // One probe: a hit is a use, a miss fills the victim it chose.
        let l2 = &mut self.l2[self.active];
        let l2_hit = match l2.probe_at(line) {
            Probe::Hit(f) => {
                l2.touch_at(f, false);
                true
            }
            Probe::Miss(victim) => {
                self.stats.l2_misses += 1;
                self.emit(self.stats.instructions, EventKind::L2Miss);
                self.serve_l2_miss(line, victim, false);
                self.prefetch_after(line);
                false
            }
        };
        self.consult_controller(line, !l2_hit, pointer);
    }

    /// The configured coherence backend plus the mutable view of the
    /// machine state its hooks may touch.
    fn coherence(&mut self) -> (Protocol, CoherenceCtx<'_>) {
        (
            self.config.protocol,
            CoherenceCtx {
                active: self.active,
                l2: &mut self.l2,
                l3: self.l3.as_mut(),
                stats: &mut self.stats,
            },
        )
    }

    /// Sequential prefetch (§6 extension): on a read miss for `line`,
    /// pull the next `degree` lines into the active L2 from L3.
    ///
    /// Prefetches are bus-free, so the backend decides which lines may
    /// fill at all (migration mode skips lines modified remotely — the
    /// L3 image is stale until the owner writes back; the bus protocols
    /// skip any remotely-held line, since a bus-free fill may only
    /// create an exclusive copy). Lines past the top of the address
    /// space are dropped, not wrapped. A modified prefetch victim is
    /// written back *and installed* into the finite L3, exactly like a
    /// demand-fill victim — merely counting the write-back would lose
    /// the only up-to-date copy of the line.
    fn prefetch_after(&mut self, line: LineAddr) {
        let Some(p) = self.config.prefetch else {
            return;
        };
        let protocol = self.config.protocol;
        let active = self.active;
        for i in 1..=p.degree as u64 {
            let Some(raw) = line.raw().checked_add(i) else {
                break;
            };
            let next = LineAddr::new(raw);
            // A resident line is left untouched: a prefetch probe is
            // not a use.
            let Probe::Miss(victim) = self.l2[active].probe_at(next) else {
                continue;
            };
            if !protocol.may_prefetch(active, &self.l2, next) {
                continue;
            }
            self.stats.prefetch_fills += 1;
            if let Some(e) = self.l2[active].fill_at(victim, next, false) {
                if e.modified {
                    self.stats.l3_writebacks += 1;
                    if let Some(l3) = &mut self.l3 {
                        l3.fill(e.line, true);
                    }
                }
            }
        }
    }

    /// Write path: every store reaches the active L2 (write-through L1).
    /// Only stores that missed the DL1 count as L1-miss requests for the
    /// migration controller.
    fn l2_write(&mut self, line: LineAddr, was_l1_request: bool) {
        self.store_run = None;
        self.stats.l2_accesses += 1;
        // The probe hands its frame to `write_hit` (the upgrade path
        // edits the active copy) or to `serve_miss` (the fill replaces
        // the victim it chose), so neither scans the set again.
        let l2 = &mut self.l2[self.active];
        let hit_frame = match l2.probe_at(line) {
            Probe::Hit(frame) => {
                l2.touch_at(frame, false);
                let (protocol, mut ctx) = self.coherence();
                protocol.write_hit(&mut ctx, line, frame);
                Some(frame)
            }
            Probe::Miss(victim) => {
                self.stats.l2_misses += 1;
                self.emit(self.stats.instructions, EventKind::L2Miss);
                self.serve_l2_miss(line, victim, true);
                None
            }
        };
        // Post-store bus work only touches remote L2s, and a one-L2
        // machine has none.
        let broadcast = if self.l2.len() > 1 {
            let before = self.stats.store_broadcast_updates;
            let (protocol, mut ctx) = self.coherence();
            protocol.after_write(&mut ctx, line);
            self.stats.store_broadcast_updates - before
        } else {
            0
        };
        if was_l1_request {
            self.stats.l1_requests += 1;
            // Stores are never pointer loads.
            self.consult_controller(line, hit_frame.is_none(), false);
        } else if hit_frame.is_some_and(|f| !self.l2[self.active].shared_at(f)) {
            // Arm the store-run memo: a DL1-hit store that hit the L2
            // ran no fill and consulted no controller, and `write_hit`
            // left the active copy modified and unshared, so until some
            // other path touches an L2 a repeat store to this line is
            // state-idempotent. Under MESI that always holds (S→M
            // invalidates; E→M and M→M are silent); under Dragon only
            // when the `BusUpd` found no sharer, since a copy left in
            // Sm must broadcast again; migration mode never sets the
            // shared bit, and its broadcast effect is the counter bump
            // measured above, stable across repeats.
            self.store_run = Some((line, broadcast));
        }
    }

    /// Fills `line` into frame `victim` of the active L2 after a miss,
    /// delegating the sourcing (remote forward vs L3 fetch),
    /// remote-state adjustment, and victim retirement to the configured
    /// coherence backend.
    fn serve_l2_miss(&mut self, line: LineAddr, victim: usize, store: bool) {
        let (protocol, mut ctx) = self.coherence();
        protocol.serve_miss(&mut ctx, line, victim, store);
    }

    /// Feeds the request to the migration controller and performs the
    /// migration it mandates, if any.
    #[inline]
    fn consult_controller(&mut self, line: LineAddr, l2_miss: bool, pointer: bool) {
        let Some(mc) = self.controller.as_mut() else {
            return;
        };
        let at = self.stats.instructions;
        let target = match &mut self.events {
            Some(ring) => request_recorded(mc, ring, at, self.active, line, l2_miss, pointer),
            None => mc.on_request_tagged(line.raw(), l2_miss, pointer),
        };
        if target != self.active {
            self.active = target;
            self.stats.migrations += 1;
            self.inter_arrival.observe(at - self.last_migration_at);
            self.last_migration_at = at;
        }
    }
}

/// [`MigrationController::on_request_tagged`] with an event ring
/// attached: pre-reads the splitter and affinity-table counters, turns
/// their movement into transition-flip and affinity-cache-miss events,
/// and records the migration away from `active` the request mandates,
/// if any. Out of line, so the detached request path in
/// `consult_controller` carries none of this.
#[inline(never)]
fn request_recorded(
    mc: &mut MigrationController,
    ring: &mut EventRing,
    at: u64,
    active: usize,
    line: LineAddr,
    l2_miss: bool,
    pointer: bool,
) -> usize {
    let flips_before = mc.splitter_stats().transitions;
    let table_misses_before = mc.table_stats().misses;
    let target = mc.on_request_tagged(line.raw(), l2_miss, pointer);
    if mc.splitter_stats().transitions > flips_before {
        ring.push(TraceEvent {
            at,
            kind: EventKind::TransitionFlip,
        });
    }
    if mc.table_stats().misses > table_misses_before {
        ring.push(TraceEvent {
            at,
            kind: EventKind::AffinityCacheMiss,
        });
    }
    if target != active {
        ring.push(TraceEvent {
            at,
            kind: EventKind::Migration {
                from: active as u8,
                to: target as u8,
            },
        });
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use execmig_cache::Indexing;
    use execmig_trace::gen::CircularWorkload;
    use execmig_trace::suite;

    fn tiny_config(cores: usize) -> MachineConfig {
        MachineConfig {
            cores,
            line_bytes: 64,
            il1: CacheGeometry {
                capacity_bytes: 1 << 10,
                ways: 2,
                indexing: Indexing::Modulo,
            },
            dl1: CacheGeometry {
                capacity_bytes: 1 << 10,
                ways: 2,
                indexing: Indexing::Modulo,
            },
            l2: CacheGeometry {
                capacity_bytes: 8 << 10,
                ways: 4,
                indexing: Indexing::Skewed,
            },
            // No controller: these configs drive coherence directly by
            // setting `active` in tests.
            controller: None,
            prefetch: None,
            l3: None,
            protocol: Protocol::MigrationMode,
        }
    }

    #[test]
    fn baseline_counts_l1_and_l2_misses() {
        let mut m = Machine::new(MachineConfig::single_core());
        let mut w = CircularWorkload::new(64 << 10); // 4 MB circular
        m.run(&mut w, 300_000);
        let s = m.stats();
        assert!(s.instructions >= 300_000);
        assert!(s.dl1_misses > 0, "4 MB circular must miss a 16 KB DL1");
        assert!(s.l2_misses > 0, "4 MB circular must miss a 512 KB L2");
        assert_eq!(s.migrations, 0, "no controller, no migrations");
        assert_eq!(m.active_core(), 0);
    }

    #[test]
    fn small_working_set_hits_l2() {
        let mut m = Machine::new(MachineConfig::single_core());
        let mut w = CircularWorkload::new(1024); // 64 KB circular
        m.run(&mut w, 500_000);
        let s = m.stats();
        // After warm-up, a 64 KB working set lives in the 512 KB L2:
        // L2 misses are bounded by the compulsory fills (~1024).
        assert!(
            s.l2_misses < 2048,
            "L2 misses {} for a resident working set",
            s.l2_misses
        );
        // But it does miss the 16 KB DL1 continuously.
        assert!(s.dl1_misses > 100_000);
    }

    #[test]
    fn stores_set_modified_and_broadcast_resets() {
        let mut m = Machine::new(tiny_config(4));
        let line = LineAddr::new(100);
        // Store on core 0: allocates modified in L2[0].
        m.step(AccessKind::Store, line, 1);
        assert_eq!(m.l2[0].modified(line), Some(true));
        // Load the same line after forcing a migration-free refill on
        // another core: emulate by switching active manually.
        m.activate(1);
        m.step(AccessKind::IFetch, LineAddr::new(999), 2); // unrelated warmup
        m.activate(1);
        m.step(AccessKind::Load, line, 3);
        // Core 1 missed its L2; the modified copy on core 0 was
        // forwarded: its bit is reset, line written back to L3.
        assert_eq!(m.l2[0].modified(line), Some(false));
        assert!(m.l2[1].contains(line));
        assert_eq!(m.stats().l2_to_l2_forwards, 1);
        assert!(m.stats().l3_writebacks >= 1);
        // A store on core 1 now resets nothing (copy on 0 already
        // clean) but refreshes it via broadcast accounting.
        m.step(AccessKind::Store, line, 4);
        assert_eq!(m.l2[1].modified(line), Some(true));
        assert_eq!(m.l2[0].modified(line), Some(false));
        assert!(m.stats().store_broadcast_updates >= 1);
    }

    /// The store-run memo arms under every protocol once a DL1-hit
    /// store leaves the active L2 copy modified and unshared: MESI M
    /// (E→M, or S→M once the upgrade invalidated the sharer) and Dragon
    /// M. A Dragon store to a line another L2 still holds leaves it in
    /// Sm, which must broadcast again on the next store, so the memo
    /// stays unarmed.
    #[test]
    fn store_run_memo_arms_only_on_an_exclusive_modified_copy() {
        let line = LineAddr::new(100);
        // Core 0 loads `line` into the DL1 and its L2. With `share`,
        // core 1 then evicts it from the mirrored DL1 and loads it into
        // its own L2. Core 0 then stores to it: a DL1 hit and an L2 hit.
        let memo_after_store = |protocol, share: bool| {
            let mut m = Machine::new(MachineConfig {
                protocol,
                ..tiny_config(2)
            });
            m.step(AccessKind::Load, line, 1);
            if share {
                m.activate(1);
                for i in 0..64u64 {
                    m.step(AccessKind::Load, LineAddr::new(1000 + i), 2 + i);
                }
                m.step(AccessKind::Load, line, 100);
                assert!(m.l2[0].contains(line) && m.l2[1].contains(line));
                m.activate(0);
            }
            let misses = m.stats().dl1_misses;
            m.step(AccessKind::Store, line, 200);
            assert_eq!(m.stats().dl1_misses, misses, "the store hit the DL1");
            assert_eq!(m.l2[0].modified(line), Some(true));
            m.store_run
        };
        let armed = Some((line, 0));
        assert_eq!(memo_after_store(Protocol::Mesi, false), armed, "MESI E→M");
        assert_eq!(memo_after_store(Protocol::Mesi, true), armed, "MESI S→M");
        assert_eq!(memo_after_store(Protocol::Dragon, false), armed, "Dragon M");
        assert_eq!(memo_after_store(Protocol::Dragon, true), None, "Dragon Sm");
    }

    #[test]
    fn non_modified_remote_copy_is_refetched_from_l3() {
        let mut m = Machine::new(tiny_config(4));
        let line = LineAddr::new(200);
        // Clean fill on core 0.
        m.step(AccessKind::Load, line, 1);
        assert_eq!(m.l2[0].modified(line), Some(false));
        // Evict `line` from the (mirrored) DL1 — but not from L2[0] —
        // so the next load actually reaches the L2 level.
        for i in 0..64u64 {
            m.step(AccessKind::Load, LineAddr::new(1000 + i), 1 + i);
        }
        assert!(!m.dl1.contains(line), "DL1 thrash failed");
        assert!(m.l2[0].contains(line), "L2 lost the line");
        let l3_before = m.stats().l3_fetches;
        // Miss on core 2: remote copy is clean, must go to L3.
        m.activate(2);
        m.step(AccessKind::Load, line, 100);
        assert_eq!(m.stats().l2_to_l2_forwards, 0);
        assert_eq!(m.stats().l3_fetches, l3_before + 1);
    }

    #[test]
    fn dl1_write_through_does_not_allocate() {
        let mut m = Machine::new(tiny_config(1));
        let line = LineAddr::new(300);
        m.step(AccessKind::Store, line, 1);
        assert_eq!(m.stats().dl1_misses, 1);
        // The store missed the DL1 and must NOT have allocated there…
        assert!(!m.dl1.contains(line));
        // …but write-allocation happened in the L2.
        assert!(m.l2[0].contains(line));
        assert_eq!(m.l2[0].modified(line), Some(true));
        // A second store misses the DL1 again (non-allocating).
        m.step(AccessKind::Store, line, 2);
        assert_eq!(m.stats().dl1_misses, 2);
    }

    #[test]
    fn migration_machine_migrates_on_splittable_stream() {
        let mut m = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name("art").unwrap();
        m.run(&mut *w, 3_000_000);
        let s = m.stats();
        assert!(s.migrations > 0, "art must trigger migrations");
        assert_eq!(
            s.migrations,
            m.controller().unwrap().stats().migrations,
            "machine and controller must agree on migration count"
        );
    }

    #[test]
    fn l1_requests_only_for_misses() {
        let mut m = Machine::new(tiny_config(1));
        let line = LineAddr::new(5);
        m.step(AccessKind::Load, line, 1); // miss
        m.step(AccessKind::Load, line, 2); // hit
        m.step(AccessKind::Load, line, 3); // hit
        assert_eq!(m.stats().l1_requests, 1);
        assert_eq!(m.stats().dl1_misses, 1);
    }

    #[test]
    fn instructions_track_workload() {
        let mut m = Machine::new(MachineConfig::single_core());
        let mut w = suite::by_name("gzip").unwrap();
        m.run(&mut *w, 50_000);
        assert!(m.stats().instructions >= 50_000);
        assert_eq!(m.stats().instructions, w.instructions());
    }

    #[test]
    fn finite_l3_counts_memory_accesses() {
        use crate::config::CacheGeometry;
        let mut with_l3 = Machine::new(MachineConfig {
            l3: Some(CacheGeometry {
                capacity_bytes: 2 << 20,
                ways: 8,
                indexing: Indexing::Skewed,
            }),
            ..MachineConfig::single_core()
        });
        let mut w = suite::by_name("swim").unwrap(); // 16 MB working set
        with_l3.run(&mut *w, 2_000_000);
        let s = with_l3.stats();
        assert!(s.l3_misses > 0, "16 MB sweep must miss a 2 MB L3");
        assert!(s.l3_misses <= s.l3_fetches);

        // A working set inside the L3 misses it only compulsorily.
        let mut small = Machine::new(MachineConfig {
            l3: Some(CacheGeometry {
                capacity_bytes: 2 << 20,
                ways: 8,
                indexing: Indexing::Skewed,
            }),
            ..MachineConfig::single_core()
        });
        let mut w = CircularWorkload::new(16 << 10); // 1 MB circular
        small.run(&mut w, 2_000_000);
        let s = small.stats();
        assert!(
            s.l3_misses <= (16 << 10) + 100,
            "resident set re-missed the L3: {}",
            s.l3_misses
        );
    }

    #[test]
    fn infinite_l3_never_counts_memory() {
        let mut m = Machine::new(MachineConfig::single_core());
        let mut w = suite::by_name("swim").unwrap();
        m.run(&mut *w, 1_000_000);
        assert_eq!(m.stats().l3_misses, 0);
    }

    #[test]
    fn metrics_registry_mirrors_stats() {
        let mut m = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name("art").unwrap();
        m.run(&mut *w, 3_000_000);
        let r = m.metrics();
        let s = m.stats();
        for (name, v) in s.counters() {
            assert_eq!(r.counter_value(name), Some(v), "{name}");
        }
        assert_eq!(
            r.counter_value("bus_update_bytes"),
            Some(s.bus.update_bus_bytes())
        );
        assert_eq!(r.counter_value("l2_misses"), Some(s.l2_misses));
        assert_eq!(r.counter_value("migrations"), Some(s.migrations));
        assert_eq!(r.counter_value("instructions"), Some(s.instructions));
        // Occupancy counters cover exactly the configured cores and sum
        // to the instruction total.
        assert!(r.counter_value("core3_instructions").is_some());
        assert!(r.counter_value("core4_instructions").is_none());
        let occupancy: u64 = (0..4)
            .map(|c| r.counter_value(&format!("core{c}_instructions")).unwrap())
            .sum();
        assert_eq!(occupancy, s.instructions);
        // One inter-arrival sample per migration.
        assert_eq!(m.migration_interarrival().count(), s.migrations);
        assert!(m.migration_interarrival().sum() <= s.instructions);
        // Controller histograms are exposed under stable names.
        match r.get("filter_dwell_requests") {
            Some(execmig_obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), m.controller().unwrap().stats().migrations)
            }
            other => panic!("filter_dwell_requests {other:?}"),
        }
    }

    /// Every profiled counter that shares a name with `counters()`
    /// carries the same count.
    #[test]
    fn profiled_counters_match_machine_stats_by_name() {
        for protocol in Protocol::ALL {
            let mut m = Machine::new(MachineConfig {
                protocol,
                ..MachineConfig::four_core_migration()
            });
            m.attach_recorders(ProfileConfig::default());
            let mut w = suite::by_name("em3d").unwrap();
            m.run(&mut *w, 1_000_000);
            let record = m.profile_cumulative();
            let counters = m.stats().counters();
            let mut shared = Vec::new();
            for (name, count) in record.counters() {
                if let Some(&(_, v)) = counters.iter().find(|(n, _)| *n == name) {
                    assert_eq!(count, v, "{protocol:?} {name}");
                    shared.push(name);
                }
            }
            assert_eq!(
                shared,
                [
                    "il1_misses",
                    "dl1_misses",
                    "l2_misses",
                    "l3_misses",
                    "migrations",
                    "invalidations",
                    "coherence_updates"
                ]
            );
            // Each protocol moves its own coherence counter, so the
            // comparison above is never just 0 against 0.
            match protocol {
                Protocol::Mesi => assert!(m.stats().invalidations > 0),
                Protocol::Dragon => assert!(m.stats().coherence_updates > 0),
                Protocol::MigrationMode => {}
            }
        }
    }

    #[test]
    fn event_ring_records_migrations_in_order() {
        let mut m = Machine::new(MachineConfig::four_core_migration());
        assert!(m.events().is_none(), "a new machine starts detached");
        m.attach_recorders(ProfileConfig::default());
        let mut w = suite::by_name("art").unwrap();
        m.run(&mut *w, 2_000_000);
        let ring = m.events().expect("attached");
        let events = ring.to_vec();
        assert!(!events.is_empty());
        // Timestamps are monotonic.
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        let migrations = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Migration { .. }))
            .count() as u64;
        assert!(migrations <= m.stats().migrations);
        assert!(
            migrations == m.stats().migrations || ring.dropped() > 0,
            "missing migration events without drops"
        );
    }

    #[test]
    fn profiler_intervals_tile_the_run() {
        let mut m = Machine::new(MachineConfig::four_core_migration());
        assert!(m.profiler().is_none(), "a new machine starts detached");
        m.attach_recorders(ProfileConfig {
            period: 64 << 10,
            capacity: 1 << 10,
        });
        let mut w = suite::by_name("art").unwrap();
        m.run(&mut *w, 2_000_000);
        let snap = m.profile_cumulative();
        assert_eq!((snap.start, snap.end), (0, m.stats().instructions));
        assert_eq!(snap["l2_misses"], m.stats().l2_misses);
        assert_eq!(snap.residency.iter().sum::<u64>(), snap.end);
        let recs = m.profiler().expect("attached").records();
        assert!(recs.len() >= 2_000_000 / (64 << 10) - 1, "{}", recs.len());
        // Intervals tile the run from instruction 0.
        assert_eq!(recs[0].start, 0);
        for pair in recs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Interval counters sum to (at most) the cumulative totals;
        // the tail past the last boundary is not yet recorded.
        let l2: u64 = recs.iter().map(|r| r["l2_misses"]).sum();
        assert!(l2 <= m.stats().l2_misses);
        let migrations: u64 = recs.iter().map(|r| r["migrations"]).sum();
        assert!(migrations <= m.stats().migrations);
        assert!(migrations > 0, "art must migrate within profiled span");
    }

    #[test]
    fn bus_bytes_are_charged_once_per_broadcast_not_per_mirror() {
        // The update bus broadcasts each retired event once; inactive
        // cores listen, they are not charged individually. Replaying the
        // same stream through 1-, 2-, and 4-core machines must therefore
        // produce byte-identical bus counters.
        let run = |cores: usize| {
            let mut m = Machine::new(tiny_config(cores));
            let mut x = 9u64;
            let mut instr = 0u64;
            for _ in 0..40_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = LineAddr::new((x >> 33) % 4096);
                let kind = match (x >> 20) % 10 {
                    0..=2 => AccessKind::IFetch,
                    3..=4 => AccessKind::Store,
                    _ => AccessKind::Load,
                };
                instr += 1 + (x >> 50) % 3;
                m.step(kind, line, instr);
            }
            (m.stats().bus, *m.stats())
        };
        let (bus1, s1) = run(1);
        let (bus2, _) = run(2);
        let (bus4, s4) = run(4);
        assert_eq!(bus1, bus2, "2-core machine double-charged broadcasts");
        assert_eq!(bus1, bus4, "4-core machine double-charged broadcasts");
        // Tie the counters to the retired-event counts: one store charge
        // per store instruction.
        let cost = crate::bus::UpdateBusConfig::default();
        assert_eq!(bus4.store_bytes, s4.stores * cost.bytes_per_store);
        assert_eq!(s1.stores, s4.stores);
        // On a store-free stream every L1 request mirrors exactly one
        // line (stores reach the L2 without a fill broadcast, so they
        // are excluded here to make the count exact).
        let mut m = Machine::new(tiny_config(4));
        let mut x = 7u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = if x & 1 == 0 {
                AccessKind::IFetch
            } else {
                AccessKind::Load
            };
            m.step(kind, LineAddr::new((x >> 33) % 4096), i + 1);
        }
        let s = m.stats();
        assert_eq!(s.bus.l1_mirror_bytes, s.l1_requests * 64);
        assert_eq!(s.l1_requests, s.il1_misses + s.dl1_misses);
    }

    #[test]
    fn update_bus_traffic_accumulates() {
        let mut m = Machine::new(MachineConfig::single_core());
        let mut w = suite::by_name("bzip2").unwrap();
        m.run(&mut *w, 100_000);
        let bus = m.stats().bus;
        assert!(bus.reg_bytes > 0);
        assert!(bus.store_bytes > 0);
        assert!(bus.update_bus_bytes() > 100_000, "≥1 B/instr expected");
    }

    /// A DL1 *store* miss is exempt from the L1 mirror traffic that
    /// load/ifetch misses generate: the DL1 is non-write-allocate, so
    /// the miss fills no line and there is nothing to broadcast to the
    /// inactive L1 mirrors (§2.3 — the store's value itself is priced
    /// separately, per retired store, by `charge_instructions`). This
    /// pins the exemption so a refactor can't silently start charging
    /// `charge_l1_mirror`/emitting `BusBroadcast` on the store path.
    #[test]
    fn store_miss_charges_no_mirror_bytes_and_no_broadcast() {
        let mut m = Machine::new(tiny_config(4));
        m.attach_recorders(ProfileConfig::default());
        let broadcasts = |m: &Machine| {
            m.events()
                .expect("attached")
                .iter()
                .filter(|e| matches!(e.kind, EventKind::BusBroadcast))
                .count()
        };
        let line = LineAddr::new(77);
        // Cold store: DL1 miss, no allocate, no mirror traffic.
        m.step(AccessKind::Store, line, 1);
        let s = m.stats();
        assert_eq!(s.dl1_misses, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.bus.l1_mirror_bytes, 0, "store miss must not mirror");
        assert_eq!(broadcasts(&m), 0, "store miss must not emit BusBroadcast");
        // Non-allocating: the same store misses again, still exempt.
        m.step(AccessKind::Store, line, 2);
        assert_eq!(m.stats().dl1_misses, 2);
        assert_eq!(m.stats().bus.l1_mirror_bytes, 0);
        // Contrast: a load miss *does* mirror the filled line, which
        // keeps this test honest about the counter being live at all.
        m.step(AccessKind::Load, LineAddr::new(200), 3);
        assert_eq!(m.stats().bus.l1_mirror_bytes, 64);
        assert_eq!(broadcasts(&m), 1);
    }

    /// Runs `workload` to `total` instructions in `window`-instruction
    /// slices and returns one profile record per slice.
    fn windows(
        m: &mut Machine,
        workload: &mut dyn Workload,
        total: u64,
        window: u64,
    ) -> Vec<ProfileRecord> {
        let mut prev = m.profile_cumulative();
        let mut records = Vec::new();
        while prev.end < total {
            m.run(workload, (prev.end + window).min(total));
            let now = m.profile_cumulative();
            records.push(ProfileRecord::between(&prev, &now));
            prev = now;
        }
        records
    }

    #[test]
    fn learning_phase_shows_in_the_timeline() {
        // On art, the early windows (controller still learning) have
        // high L2-miss density; late windows, after the split settles,
        // are far cheaper.
        let mut m = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name("art").unwrap();
        let records = windows(&mut m, &mut *w, 20_000_000, 1_000_000);
        let early = records[0]["l2_misses"];
        let late = records.last().unwrap()["l2_misses"];
        assert!(
            late * 4 < early,
            "no learning visible: early {early}, late {late}"
        );
    }

    #[test]
    fn migration_machine_rotates_cores() {
        let mut m = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name("em3d").unwrap();
        let records = windows(&mut m, &mut *w, 10_000_000, 250_000);
        let cores: std::collections::HashSet<u8> = records.iter().map(|r| r.active_core).collect();
        assert!(cores.len() >= 2, "never left core {cores:?}");
    }

    /// Profiler intervals, trace events and stats do not depend on how
    /// the stream is cut into blocks. A 1000-instruction period puts
    /// several interval boundaries inside every `BLOCK_EVENTS` block,
    /// and a 64-record capacity makes decimation change the period
    /// mid-run.
    #[test]
    fn profiler_records_do_not_depend_on_block_size() {
        const BUDGET: u64 = 400_000;
        let machine = || {
            let mut m = Machine::new(MachineConfig::four_core_migration());
            m.attach_recorders(ProfileConfig {
                period: 1000,
                capacity: 64,
            });
            m
        };
        let mut whole = machine();
        whole.run(&mut *suite::by_name("em3d").unwrap(), BUDGET);
        let mut events = Vec::new();
        suite::by_name("em3d")
            .unwrap()
            .fill_block(&mut events, BUDGET, usize::MAX);
        let mut chunked = machine();
        for block in events.chunks(7) {
            chunked.run_block(block);
        }
        let mut stepped = machine();
        for e in &events {
            let line = stepped.line.line_of(e.access.addr);
            stepped.step_tagged(e.access.kind, line, e.instructions, e.access.pointer);
        }
        fn records(m: &Machine) -> &[ProfileRecord] {
            m.profiler().expect("attached").records()
        }
        let events = |m: &Machine| m.events().expect("attached").to_vec();
        assert!(
            whole.profiler().is_some_and(|p| p.decimations() > 0),
            "decimation never fired"
        );
        assert!(!events(&whole).is_empty());
        for (m, how) in [(&chunked, "7-event blocks"), (&stepped, "per-event steps")] {
            assert_eq!(m.stats(), whole.stats(), "{how}");
            assert_eq!(records(m), records(&whole), "{how}");
            assert_eq!(events(m), events(&whole), "{how}");
        }
    }
}
