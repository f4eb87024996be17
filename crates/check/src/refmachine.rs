//! The naive whole-machine reference model.
//!
//! [`RefMachine`] is a from-scratch restatement of the migration-mode
//! machine of §2: write-through non-allocating L1s shared by all cores
//! (inactive L1s mirror the active one, §2.3), per-core L2s with the
//! modified-bit ownership protocol (§2.2: a modified remote copy is
//! forwarded L2-to-L2 with a simultaneous L3 write-back; a clean remote
//! copy "cannot be forwarded" and is re-fetched from L3), the update
//! bus, sequential prefetch (§6) and the migration controller. The
//! MESI and Dragon coherence backends of `execmig_machine::coherence`
//! are restated here too, as explicit per-transaction scans (`BusRd`,
//! `BusRdX`/`BusUpgr`, `BusUpd`) selected by the configured
//! [`Protocol`]. It shares only [`MachineConfig`] (including the
//! protocol selector) and the trace types with `execmig_machine` — the
//! caches are the fully-scanned [`RefCache`](crate::refcache::RefCache),
//! the controller is the literal
//! [`RefController`](crate::refcore::RefController).
//!
//! [`MachineStats`] is reused as the *output record* the two
//! implementations are compared in: it is a plain bundle of counters
//! with no behaviour of its own, so sharing it cannot mask a modelling
//! divergence — it is the comparison language, not the model.

use execmig_machine::bus::UpdateBusStats;
use execmig_machine::{MachineConfig, MachineStats, Protocol, UpdateBusConfig};
use execmig_trace::{AccessKind, LineAddr, LineSize, Workload};

use crate::refcache::RefCache;
use crate::refcore::RefController;

/// Address/control bytes of one coherence bus transaction — the same
/// modelled-hardware constant the optimized machine bakes in
/// (re-stated, not imported).
const ADDR_BYTES: u64 = 8;
/// Data bytes of one Dragon `BusUpd` word (re-stated, not imported).
const UPDATE_WORD_BYTES: u64 = 8;

/// Restated update-bus accounting (§2.3): per-mille retire-mix rates
/// applied with exact fixed-point remainders, each retired broadcast
/// charged once regardless of how many cores mirror it.
#[derive(Debug, Clone, Default)]
struct RefBus {
    stats: UpdateBusStats,
    reg_acc: u64,
    branch_acc: u64,
}

impl RefBus {
    fn charge_instructions(&mut self, instructions: u64, stores: u64) {
        let config = UpdateBusConfig::default();
        self.reg_acc += instructions * config.reg_write_permille;
        self.stats.reg_bytes += (self.reg_acc / 1000) * config.bytes_per_reg_write;
        self.reg_acc %= 1000;
        self.branch_acc += instructions * config.branch_permille;
        self.stats.branch_bytes += (self.branch_acc / 1000) * config.bytes_per_branch;
        self.branch_acc %= 1000;
        self.stats.store_bytes += stores * config.bytes_per_store;
    }

    fn charge_l1_mirror(&mut self, line_bytes: u64) {
        self.stats.l1_mirror_bytes += line_bytes;
    }
}

/// The naive reference machine. Same step protocol as
/// `execmig_machine::Machine`, different implementation of everything
/// below the configuration.
#[derive(Debug)]
pub struct RefMachine {
    cores: usize,
    line: LineSize,
    prefetch_degree: u64,
    protocol: Protocol,
    il1: RefCache,
    dl1: RefCache,
    l2: Vec<RefCache>,
    l3: Option<RefCache>,
    controller: Option<RefController>,
    bus: RefBus,
    active: usize,
    stats: MachineStats,
    last_instructions: u64,
}

impl RefMachine {
    /// Builds the reference machine from the shared configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (same validation as
    /// `Machine::new`) or configures 8-way splitting, which the
    /// reference model does not cover.
    pub fn new(config: &MachineConfig) -> Self {
        let line = config.validate();
        RefMachine {
            cores: config.cores,
            line,
            prefetch_degree: config.prefetch.map_or(0, |p| u64::from(p.degree)),
            protocol: config.protocol,
            il1: RefCache::new(config.il1.to_cache_config(config.line_bytes)),
            dl1: RefCache::new(config.dl1.to_cache_config(config.line_bytes)),
            l2: (0..config.cores)
                .map(|_| RefCache::new(config.l2.to_cache_config(config.line_bytes)))
                .collect(),
            l3: config
                .l3
                .map(|g| RefCache::new(g.to_cache_config(config.line_bytes))),
            controller: config.controller.as_ref().map(RefController::new),
            bus: RefBus::default(),
            active: 0,
            stats: MachineStats::default(),
            last_instructions: 0,
        }
    }

    /// Collected statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The core currently executing.
    pub fn active_core(&self) -> usize {
        self.active
    }

    /// The configured core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The reference controller, if configured.
    pub fn controller(&self) -> Option<&RefController> {
        self.controller.as_ref()
    }

    /// Core `core`'s private L2.
    pub fn l2_cache(&self, core: usize) -> &RefCache {
        &self.l2[core]
    }

    /// The (shared) instruction L1.
    pub fn il1_cache(&self) -> &RefCache {
        &self.il1
    }

    /// The (shared) data L1.
    pub fn dl1_cache(&self) -> &RefCache {
        &self.dl1
    }

    /// The shared L3, when finite.
    pub fn l3_cache(&self) -> Option<&RefCache> {
        self.l3.as_ref()
    }

    /// Runs `workload` until at least `instructions` dynamic
    /// instructions have retired (same loop as `Machine::run`).
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W, instructions: u64) {
        while workload.instructions() < instructions {
            let access = workload.next_access();
            let now = workload.instructions();
            self.step_tagged(
                access.kind,
                self.line.line_of(access.addr),
                now,
                access.pointer,
            );
        }
    }

    /// Processes one access; see `Machine::step_tagged`.
    pub fn step_tagged(
        &mut self,
        kind: AccessKind,
        line: LineAddr,
        instructions_now: u64,
        pointer: bool,
    ) {
        let delta_instr = instructions_now.saturating_sub(self.last_instructions);
        self.last_instructions = instructions_now;
        self.stats.instructions = instructions_now;
        self.bus
            .charge_instructions(delta_instr, u64::from(kind.is_store()));

        self.stats.accesses += 1;
        match kind {
            AccessKind::IFetch => {
                self.stats.ifetches += 1;
                if !self.il1.access(line, false).hit {
                    self.stats.il1_misses += 1;
                    self.bus.charge_l1_mirror(self.line.bytes());
                    self.l1_request(line, pointer);
                }
            }
            AccessKind::Load => {
                self.stats.loads += 1;
                if !self.dl1.access(line, false).hit {
                    self.stats.dl1_misses += 1;
                    self.bus.charge_l1_mirror(self.line.bytes());
                    self.l1_request(line, pointer);
                }
            }
            AccessKind::Store => {
                self.stats.stores += 1;
                // Write-through, non-allocating DL1 (§2.2): a hit
                // updates in place, a miss does not allocate; the write
                // always reaches the write-allocate L2.
                let dl1_hit = self.dl1.lookup(line);
                if !dl1_hit {
                    self.stats.dl1_misses += 1;
                }
                self.l2_write(line, !dl1_hit);
            }
        }
        self.stats.bus = self.bus.stats;
    }

    fn l1_request(&mut self, line: LineAddr, pointer: bool) {
        self.stats.l1_requests += 1;
        self.stats.l2_accesses += 1;
        let l2_hit = self.l2[self.active].lookup(line);
        if !l2_hit {
            self.stats.l2_misses += 1;
            self.serve_l2_miss(line, false);
            self.prefetch_after(line);
        }
        self.consult_controller(line, !l2_hit, pointer);
    }

    fn prefetch_after(&mut self, line: LineAddr) {
        for i in 1..=self.prefetch_degree {
            let Some(raw) = line.raw().checked_add(i) else {
                break;
            };
            let next = LineAddr::new(raw);
            // Prefetches are bus-free: under migration mode a modified
            // remote copy makes the L3 data stale (skip); the bus
            // protocols may only fill an exclusive copy, so any remote
            // copy at all blocks the prefetch.
            let blocked = match self.protocol {
                Protocol::MigrationMode => (0..self.cores)
                    .any(|c| c != self.active && self.l2[c].modified(next) == Some(true)),
                Protocol::Mesi | Protocol::Dragon => {
                    (0..self.cores).any(|c| c != self.active && self.l2[c].contains(next))
                }
            };
            if blocked {
                continue;
            }
            if let Some(evicted) = self.l2[self.active].fill_if_absent(next, false) {
                self.stats.prefetch_fills += 1;
                if let Some(e) = evicted {
                    if e.modified {
                        // A modified prefetch victim is written back
                        // and installed into the finite L3, exactly
                        // like a demand-fill victim.
                        self.stats.l3_writebacks += 1;
                        if let Some(l3) = &mut self.l3 {
                            l3.fill(e.line, true);
                        }
                    }
                }
            }
        }
    }

    fn l2_write(&mut self, line: LineAddr, was_l1_request: bool) {
        self.stats.l2_accesses += 1;
        let l2_hit = self.l2[self.active].lookup(line);
        if l2_hit {
            match self.protocol {
                Protocol::MigrationMode => {
                    self.l2[self.active].set_modified(line, true);
                }
                Protocol::Mesi => self.mesi_write_hit(line),
                Protocol::Dragon => self.dragon_write_hit(line),
            }
        } else {
            self.stats.l2_misses += 1;
            self.serve_l2_miss(line, true);
        }
        if self.protocol == Protocol::MigrationMode {
            // §2.3 store broadcast: inactive copies are refreshed, their
            // modified bits reset — at most one modified copy chip-wide.
            for c in 0..self.cores {
                if c != self.active && self.l2[c].set_modified(line, false) {
                    self.stats.store_broadcast_updates += 1;
                }
            }
        }
        if was_l1_request {
            self.stats.l1_requests += 1;
            // Stores are never pointer loads.
            self.consult_controller(line, !l2_hit, false);
        }
    }

    fn serve_l2_miss(&mut self, line: LineAddr, store: bool) {
        match self.protocol {
            Protocol::MigrationMode => self.migration_serve_miss(line, store),
            Protocol::Mesi => self.mesi_serve_miss(line, store),
            Protocol::Dragon => self.dragon_serve_miss(line, store),
        }
    }

    /// The "no cache supplied it" path: fetch from L3, going to memory
    /// past a finite L3 that misses.
    fn fetch_from_l3(&mut self, line: LineAddr) {
        self.stats.l3_fetches += 1;
        if let Some(l3) = &mut self.l3 {
            if !l3.lookup(line) {
                self.stats.l3_misses += 1;
                l3.fill(line, false);
            }
        }
    }

    /// Fills `line` into the active L2; a modified victim is written
    /// back and installed into the finite L3.
    fn fill_active(&mut self, line: LineAddr, modified: bool) {
        if let Some(evicted) = self.l2[self.active].fill(line, modified) {
            if evicted.modified {
                self.stats.l3_writebacks += 1;
                if let Some(l3) = &mut self.l3 {
                    l3.fill(evicted.line, true);
                }
            }
        }
    }

    fn migration_serve_miss(&mut self, line: LineAddr, store: bool) {
        let mut forwarded = false;
        for c in 0..self.cores {
            if c != self.active && self.l2[c].modified(line) == Some(true) {
                // §2.2: forward the modified copy L2-to-L2, write it
                // back to L3 simultaneously, reset the owner's bit.
                self.l2[c].set_modified(line, false);
                self.stats.l2_to_l2_forwards += 1;
                self.stats.l3_writebacks += 1;
                forwarded = true;
                break;
            }
        }
        if !forwarded {
            self.fetch_from_l3(line);
        }
        self.fill_active(line, store);
    }

    /// MESI `BusRdX` (write miss) / `BusRd` (read miss), as literal
    /// per-core scans.
    fn mesi_serve_miss(&mut self, line: LineAddr, store: bool) {
        if store {
            // BusRdX: every remote copy dies. A modified owner flushes
            // (forward + write-back + L3 install); failing that, the
            // first clean copy supplies the data (Illinois).
            let mut supplied = false;
            let mut killed = 0u64;
            for c in 0..self.cores {
                if c == self.active {
                    continue;
                }
                if let Some(ev) = self.l2[c].invalidate(line) {
                    killed += 1;
                    if ev.modified {
                        self.stats.l2_to_l2_forwards += 1;
                        self.stats.l3_writebacks += 1;
                        if let Some(l3) = &mut self.l3 {
                            l3.fill(line, true);
                        }
                        supplied = true;
                    } else if !supplied {
                        self.stats.l2_to_l2_forwards += 1;
                        supplied = true;
                    }
                }
            }
            if killed > 0 {
                self.stats.invalidations += killed;
                self.stats.coherence_bus_bytes += ADDR_BYTES;
            }
            if !supplied {
                self.fetch_from_l3(line);
            }
            // The requester ends in M: modified, unshared.
            self.fill_active(line, true);
        } else {
            // BusRd: a modified owner does M→S with a flush; otherwise
            // the first clean copy supplies the data (Illinois). Every
            // surviving copy — including the new one — becomes S.
            let mut supplied = false;
            let mut any_copy = false;
            for c in 0..self.cores {
                if c == self.active || !self.l2[c].contains(line) {
                    continue;
                }
                any_copy = true;
                if self.l2[c].modified(line) == Some(true) {
                    self.l2[c].set_modified(line, false);
                    self.stats.l2_to_l2_forwards += 1;
                    self.stats.l3_writebacks += 1;
                    if let Some(l3) = &mut self.l3 {
                        l3.fill(line, true);
                    }
                    supplied = true;
                } else if !supplied {
                    self.stats.l2_to_l2_forwards += 1;
                    supplied = true;
                }
                self.l2[c].set_shared(line, true);
            }
            if !supplied {
                self.fetch_from_l3(line);
            }
            self.fill_active(line, false);
            // S if anyone else holds it, E otherwise.
            self.l2[self.active].set_shared(line, any_copy);
        }
    }

    /// MESI write hit: `BusUpgr` from S (the writer believes the line
    /// is shared, so the upgrade goes on the bus even if every sharer
    /// has since been silently evicted); E→M and M→M are silent.
    fn mesi_write_hit(&mut self, line: LineAddr) {
        if self.l2[self.active].shared(line) == Some(true) {
            self.stats.coherence_bus_bytes += ADDR_BYTES;
            for c in 0..self.cores {
                if c != self.active && self.l2[c].invalidate(line).is_some() {
                    self.stats.invalidations += 1;
                }
            }
            self.l2[self.active].set_shared(line, false);
        }
        self.l2[self.active].set_modified(line, true);
    }

    /// Dragon `BusRd`: a dirty owner (M or Sm) supplies the line and
    /// stays dirty-shared — no memory write-back. A write miss chains a
    /// `BusUpd` when sharers remain.
    fn dragon_serve_miss(&mut self, line: LineAddr, store: bool) {
        let mut supplied = false;
        let mut any_copy = false;
        for c in 0..self.cores {
            if c == self.active || !self.l2[c].contains(line) {
                continue;
            }
            any_copy = true;
            if !supplied && self.l2[c].modified(line) == Some(true) {
                self.stats.l2_to_l2_forwards += 1;
                supplied = true;
            }
            self.l2[c].set_shared(line, true);
        }
        if !supplied {
            self.fetch_from_l3(line);
        }
        self.fill_active(line, false);
        self.l2[self.active].set_shared(line, any_copy);
        if store {
            if any_copy {
                self.dragon_bus_update(line);
            } else {
                self.l2[self.active].set_modified(line, true);
            }
        }
    }

    /// Dragon write hit: shared lines broadcast a `BusUpd`; E→M and
    /// M→M are silent.
    fn dragon_write_hit(&mut self, line: LineAddr) {
        if self.l2[self.active].shared(line) == Some(true) {
            self.dragon_bus_update(line);
        } else {
            self.l2[self.active].set_modified(line, true);
        }
    }

    /// Dragon `BusUpd`: remote copies snarf the written word (a remote
    /// owner degrades Sm→Sc); the writer ends Sm if a sharer remains, M
    /// otherwise.
    fn dragon_bus_update(&mut self, line: LineAddr) {
        let mut sharers = false;
        for c in 0..self.cores {
            if c == self.active || !self.l2[c].contains(line) {
                continue;
            }
            self.l2[c].set_modified(line, false);
            self.l2[c].set_shared(line, true);
            self.stats.coherence_updates += 1;
            sharers = true;
        }
        self.l2[self.active].set_modified(line, true);
        if sharers {
            self.stats.coherence_bus_bytes += ADDR_BYTES + UPDATE_WORD_BYTES;
            self.l2[self.active].set_shared(line, true);
        } else {
            self.l2[self.active].set_shared(line, false);
        }
    }

    fn consult_controller(&mut self, line: LineAddr, l2_miss: bool, pointer: bool) {
        let Some(mc) = self.controller.as_mut() else {
            return;
        };
        let target = mc.on_request_tagged(line.raw(), l2_miss, pointer);
        if target != self.active {
            self.active = target;
            self.stats.migrations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_counts_compulsory_misses() {
        let mut m = RefMachine::new(&MachineConfig::single_core());
        // Touch 100 distinct lines twice: first pass misses, second hits.
        for pass in 0..2u64 {
            for i in 0..100u64 {
                m.step_tagged(
                    AccessKind::Load,
                    LineAddr::new(i),
                    pass * 100 + i + 1,
                    false,
                );
            }
        }
        assert_eq!(m.stats().dl1_misses, 100);
        assert_eq!(m.stats().l2_misses, 100);
        assert_eq!(m.stats().accesses, 200);
    }
}
