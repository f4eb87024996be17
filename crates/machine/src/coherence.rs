//! Pluggable L2 coherence backends behind the [`CoherenceProtocol`]
//! trait.
//!
//! The paper's §2 migration-mode scheme (write-through mirrored L1s, a
//! store broadcast that keeps at most one modified L2 copy, L2-to-L2
//! forwarding of modified copies only) was previously inlined in
//! `Machine`. This module extracts the protocol-specific parts — what
//! happens on an L2 write hit, how an L2 miss is filled and sourced,
//! what post-store bus work runs, and when a prefetch may fill — so
//! three backends can share the machine skeleton:
//!
//! - [`MigrationMode`]: the paper's scheme, bit-identical to the
//!   pre-trait machine (it never touches the shared bit, so even the
//!   packed cache metadata matches).
//! - [`Mesi`]: a 4-state invalidation protocol (Illinois variant: a
//!   clean remote copy may supply the data cache-to-cache). States map
//!   onto the packed per-line bits as M = modified, E = clean+unshared,
//!   S = clean+shared, I = not resident.
//! - [`Dragon`]: a 4-state update protocol. M = modified+unshared,
//!   Sm = modified+shared (a dirty line may stay shared — "dirty
//!   sharing"), Sc = clean+shared, E = clean+unshared. Writes to shared
//!   lines broadcast a word update (`BusUpd`) instead of invalidating,
//!   and a dirty owner supplies read misses *without* a memory
//!   write-back.
//!
//! ## Bus accounting
//!
//! The architectural update bus (`UpdateBus`: register/store/branch
//! broadcasts plus L1 mirror fills) models the *execution-migration*
//! machinery and is charged identically under every backend — it is the
//! experiment's controlled variable. The protocols differ only in their
//! *L2 coherence* traffic, recorded in three counters that migration
//! mode leaves at zero:
//!
//! - `invalidations`: remote L2 copies killed by MESI's `BusRdX`/
//!   `BusUpgr`.
//! - `coherence_updates`: remote L2 copies refreshed by Dragon's
//!   `BusUpd` (the analogue of migration mode's
//!   `store_broadcast_updates`).
//! - `coherence_bus_bytes`: the extra bus bytes those transactions
//!   move — [`ADDR_BYTES`] per MESI invalidating transaction,
//!   [`ADDR_BYTES`]` + `[`UPDATE_WORD_BYTES`] per Dragon `BusUpd`.
//!   Data-line movement (fills, forwards, write-backs) is already
//!   visible in `l3_fetches`/`l2_to_l2_forwards`/`l3_writebacks` and is
//!   deliberately not double-counted here.

use execmig_cache::{Cache, Probe};
use execmig_obs::{Json, ToJson};
use execmig_trace::LineAddr;

use crate::stats::MachineStats;

/// Address/control bytes of one coherence bus transaction.
pub const ADDR_BYTES: u64 = 8;
/// Data bytes of one Dragon `BusUpd` word.
pub const UPDATE_WORD_BYTES: u64 = 8;

/// Which L2 coherence backend a machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// The paper's §2 migration-mode scheme (the default).
    #[default]
    MigrationMode,
    /// Invalidation-based MESI (Illinois).
    Mesi,
    /// Update-based Dragon.
    Dragon,
}

impl Protocol {
    /// Every backend, in the order reports compare them.
    pub const ALL: [Protocol; 3] = [Protocol::MigrationMode, Protocol::Mesi, Protocol::Dragon];

    /// The flag/JSON spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Protocol::MigrationMode => "migration",
            Protocol::Mesi => "mesi",
            Protocol::Dragon => "dragon",
        }
    }

    /// Parses a `--protocol` flag value.
    pub fn parse(s: &str) -> Option<Protocol> {
        match s {
            "migration" => Some(Protocol::MigrationMode),
            "mesi" => Some(Protocol::Mesi),
            "dragon" => Some(Protocol::Dragon),
            _ => None,
        }
    }
}

impl ToJson for Protocol {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }
}

/// The slice of machine state a coherence hook may touch: the per-core
/// L2s, the optional L3, and the stats block. The L1s, controller,
/// event ring, and update bus stay protocol-independent and remain in
/// `Machine`.
///
/// Hooks probe each cache at most once per transaction: a remote copy
/// is found once with `Cache::find_at` and edited by frame, and the
/// active L2's miss fill goes to the victim frame the machine's own
/// lookup chose.
#[derive(Debug)]
pub struct CoherenceCtx<'a> {
    /// Index of the core executing the access.
    pub active: usize,
    /// All per-core L2 caches.
    pub l2: &'a mut [Cache],
    /// The shared L3, if configured.
    pub l3: Option<&'a mut Cache>,
    /// The machine's counters.
    pub stats: &'a mut MachineStats,
}

impl CoherenceCtx<'_> {
    /// Fetches `line` from L3 (or memory beyond a finite L3 on an L3
    /// miss) — the protocol-independent "no cache supplied it" path.
    fn fetch_from_l3(&mut self, line: LineAddr) {
        self.stats.l3_fetches += 1;
        // With a finite L3, a fetch that misses it goes to memory.
        if let Some(l3) = self.l3.as_deref_mut() {
            match l3.probe_at(line) {
                Probe::Hit(f) => l3.touch_at(f, false),
                Probe::Miss(victim) => {
                    self.stats.l3_misses += 1;
                    l3.fill_at(victim, line, false);
                }
            }
        }
    }

    /// Fills `line` into frame `victim` of the active L2 and retires
    /// the line it held: a modified victim is written back *and
    /// installed* into the finite L3; a clean victim is dropped
    /// silently.
    fn fill_active(&mut self, victim: usize, line: LineAddr, modified: bool) {
        if let Some(evicted) = self.l2[self.active].fill_at(victim, line, modified) {
            if evicted.modified {
                self.stats.l3_writebacks += 1;
                // The write-back installs the line in the finite L3.
                if let Some(l3) = self.l3.as_deref_mut() {
                    l3.fill(evicted.line, true);
                }
            }
        }
    }
}

/// The protocol-specific hooks of the L2 coherence scheme. `Machine`
/// owns the skeleton (per-access counters, recorded events, controller
/// consultation) and delegates the coherence decisions here.
pub trait CoherenceProtocol {
    /// Serves an L2 miss for `line` on the active core: source the data
    /// (remote L2 or L3), adjust remote copies, fill the active L2 in
    /// the right state, and retire the fill victim. `victim` is the
    /// frame the active L2's miss probe chose (`Probe::Miss`); hooks
    /// touch only remote L2s and the L3 before filling it, so it is
    /// still the frame a line-keyed fill would pick. `store` is true
    /// for the write-allocate path.
    fn serve_miss(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, victim: usize, store: bool);

    /// Applies a store that hit the active L2 (the upgrade path).
    /// `frame` is the line's frame index in `ctx.l2[ctx.active]` as
    /// returned by the hit probe (`Probe::Hit`), so the hook can edit
    /// the active copy's state without re-scanning the set; it is valid
    /// as long as the hook fills nothing into the active L2.
    fn write_hit(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, frame: usize);

    /// Post-store bus work on the remote L2s that runs after every
    /// store, hit or miss, on a machine with more than one L2
    /// (migration mode's §2.3 store broadcast; a no-op for the bus
    /// protocols, which act in [`CoherenceProtocol::write_hit`] /
    /// [`CoherenceProtocol::serve_miss`]).
    fn after_write(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr);

    /// Whether a prefetch may fill `line` into `l2[active]` without a
    /// bus transaction.
    fn may_prefetch(&self, active: usize, l2: &[Cache], line: LineAddr) -> bool;
}

/// The paper's §2 migration-mode backend.
///
/// Reads: a modified remote copy is forwarded L2-to-L2 with a
/// simultaneous write-back and its modified bit reset; clean remote
/// copies "cannot be forwarded … and must be re-fetched from L3".
/// Writes: the store broadcast refreshes every inactive copy and
/// resets its modified bit, so at most one copy is modified. The
/// shared bit is never set, keeping cache metadata bit-identical to
/// the pre-trait machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationMode;

impl CoherenceProtocol for MigrationMode {
    fn serve_miss(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, victim: usize, store: bool) {
        let active = ctx.active;
        let mut forwarded = false;
        // A one-L2 machine has no remote copy to look for.
        if ctx.l2.len() > 1 {
            for (c, l2) in ctx.l2.iter_mut().enumerate() {
                if c == active {
                    continue;
                }
                if let Some(f) = l2.find_at(line).filter(|&f| l2.modified_at(f)) {
                    l2.set_modified_at(f, false);
                    ctx.stats.l2_to_l2_forwards += 1;
                    ctx.stats.l3_writebacks += 1;
                    forwarded = true;
                    break;
                }
            }
        }
        if !forwarded {
            ctx.fetch_from_l3(line);
        }
        ctx.fill_active(victim, line, store);
    }

    fn write_hit(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, frame: usize) {
        let _ = line;
        ctx.l2[ctx.active].set_modified_at(frame, true);
    }

    fn after_write(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr) {
        // Store broadcast (§2.3): inactive copies are refreshed and
        // their modified bit reset, so at most one copy is modified.
        let active = ctx.active;
        for (c, l2) in ctx.l2.iter_mut().enumerate() {
            if c != active && l2.set_modified(line, false) {
                ctx.stats.store_broadcast_updates += 1;
            }
        }
    }

    fn may_prefetch(&self, active: usize, l2: &[Cache], line: LineAddr) -> bool {
        // Skip lines whose only up-to-date copy is modified remotely:
        // the L3 image is stale until the owner writes back.
        !l2.iter()
            .enumerate()
            .any(|(c, l2)| c != active && l2.modified(line) == Some(true))
    }
}

/// Invalidation-based MESI (Illinois variant).
#[derive(Debug, Clone, Copy, Default)]
pub struct Mesi;

impl CoherenceProtocol for Mesi {
    fn serve_miss(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, victim: usize, store: bool) {
        let active = ctx.active;
        if store {
            // BusRdX: every remote copy is invalidated. A modified
            // owner flushes (forward + simultaneous write-back);
            // failing that, Illinois lets the first clean copy supply
            // the data cache-to-cache.
            let mut supplied = false;
            let mut killed = 0u64;
            for (c, l2) in ctx.l2.iter_mut().enumerate() {
                if c == active {
                    continue;
                }
                if let Some(f) = l2.find_at(line) {
                    let ev = l2.invalidate_at(f);
                    killed += 1;
                    if ev.modified {
                        ctx.stats.l2_to_l2_forwards += 1;
                        ctx.stats.l3_writebacks += 1;
                        if let Some(l3) = ctx.l3.as_deref_mut() {
                            l3.fill(line, true);
                        }
                        supplied = true;
                    } else if !supplied {
                        ctx.stats.l2_to_l2_forwards += 1;
                        supplied = true;
                    }
                }
            }
            if killed > 0 {
                ctx.stats.invalidations += killed;
                ctx.stats.coherence_bus_bytes += ADDR_BYTES;
            }
            if !supplied {
                ctx.fetch_from_l3(line);
            }
            // The requester ends in M: modified, unshared.
            ctx.fill_active(victim, line, true);
        } else {
            // BusRd: a modified owner does M→S with a flush (forward +
            // write-back); otherwise the first clean copy supplies the
            // data (Illinois). Every surviving copy — including the
            // new one — becomes S.
            let mut supplied = false;
            let mut any_copy = false;
            for (c, l2) in ctx.l2.iter_mut().enumerate() {
                if c == active {
                    continue;
                }
                let Some(f) = l2.find_at(line) else {
                    continue;
                };
                any_copy = true;
                if l2.modified_at(f) {
                    l2.set_modified_at(f, false);
                    ctx.stats.l2_to_l2_forwards += 1;
                    ctx.stats.l3_writebacks += 1;
                    if let Some(l3) = ctx.l3.as_deref_mut() {
                        l3.fill(line, true);
                    }
                    supplied = true;
                } else if !supplied {
                    ctx.stats.l2_to_l2_forwards += 1;
                    supplied = true;
                }
                l2.set_shared_at(f, true);
            }
            if !supplied {
                ctx.fetch_from_l3(line);
            }
            ctx.fill_active(victim, line, false);
            // S if anyone else holds it, E otherwise.
            ctx.l2[active].set_shared_at(victim, any_copy);
        }
    }

    fn write_hit(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, frame: usize) {
        let active = ctx.active;
        if ctx.l2[active].shared_at(frame) {
            // BusUpgr: the writer believes the line is shared, so the
            // upgrade goes on the bus even if every sharer has since
            // been silently evicted. Only remote caches are touched, so
            // `frame` stays valid.
            ctx.stats.coherence_bus_bytes += ADDR_BYTES;
            for (c, l2) in ctx.l2.iter_mut().enumerate() {
                if c == active {
                    continue;
                }
                if let Some(f) = l2.find_at(line) {
                    l2.invalidate_at(f);
                    ctx.stats.invalidations += 1;
                }
            }
            ctx.l2[active].set_shared_at(frame, false);
        }
        // S→M over the bus; E→M and M→M are silent.
        ctx.l2[active].set_modified_at(frame, true);
    }

    fn after_write(&self, _ctx: &mut CoherenceCtx<'_>, _line: LineAddr) {}

    fn may_prefetch(&self, active: usize, l2: &[Cache], line: LineAddr) -> bool {
        // A bus-free prefetch may only fill E, which requires that no
        // other cache holds the line at all.
        !l2.iter()
            .enumerate()
            .any(|(c, l2)| c != active && l2.contains(line))
    }
}

/// Update-based Dragon.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dragon;

impl Dragon {
    /// `BusUpd` from a write hit on the active copy in `frame`:
    /// broadcast the written word. Remote copies snarf it (and a remote
    /// owner degrades Sm→Sc); the writer ends Sm if a sharer remains, M
    /// otherwise — the snoop result stands in for the shared-line bus
    /// wire.
    fn bus_update(ctx: &mut CoherenceCtx<'_>, line: LineAddr, frame: usize) {
        let active = ctx.active;
        let mut sharers = false;
        for (c, l2) in ctx.l2.iter_mut().enumerate() {
            if c == active {
                continue;
            }
            if let Some(f) = l2.find_at(line) {
                l2.set_modified_at(f, false);
                l2.set_shared_at(f, true);
                ctx.stats.coherence_updates += 1;
                sharers = true;
            }
        }
        ctx.l2[active].set_modified_at(frame, true);
        ctx.l2[active].set_shared_at(frame, sharers);
        if sharers {
            ctx.stats.coherence_bus_bytes += ADDR_BYTES + UPDATE_WORD_BYTES;
        }
    }
}

impl CoherenceProtocol for Dragon {
    fn serve_miss(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, victim: usize, store: bool) {
        let active = ctx.active;
        // BusRd: a dirty owner (M or Sm) supplies the line and stays
        // dirty-shared — no memory write-back (Dragon's hallmark).
        // Clean copies do not supply; memory (L3) does. A write miss is
        // BusRd + BusUpd: in the same snoop each copy also snarfs the
        // written word, so the old owner loses ownership (Sm→Sc) to the
        // writer, which ends Sm — or M if no copy exists.
        let mut supplied = false;
        let mut any_copy = false;
        for (c, l2) in ctx.l2.iter_mut().enumerate() {
            if c == active {
                continue;
            }
            let Some(f) = l2.find_at(line) else {
                continue;
            };
            any_copy = true;
            if !supplied && l2.modified_at(f) {
                ctx.stats.l2_to_l2_forwards += 1;
                supplied = true;
            }
            l2.set_shared_at(f, true);
            if store {
                l2.set_modified_at(f, false);
                ctx.stats.coherence_updates += 1;
            }
        }
        if !supplied {
            ctx.fetch_from_l3(line);
        }
        ctx.fill_active(victim, line, store);
        ctx.l2[active].set_shared_at(victim, any_copy);
        if store && any_copy {
            ctx.stats.coherence_bus_bytes += ADDR_BYTES + UPDATE_WORD_BYTES;
        }
    }

    fn write_hit(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, frame: usize) {
        let active = ctx.active;
        if ctx.l2[active].shared_at(frame) {
            Dragon::bus_update(ctx, line, frame);
        } else {
            // E→M / M→M: silent.
            ctx.l2[active].set_modified_at(frame, true);
        }
    }

    fn after_write(&self, _ctx: &mut CoherenceCtx<'_>, _line: LineAddr) {}

    fn may_prefetch(&self, active: usize, l2: &[Cache], line: LineAddr) -> bool {
        // Same rule as MESI: a bus-free fill may only create E.
        !l2.iter()
            .enumerate()
            .any(|(c, l2)| c != active && l2.contains(line))
    }
}

impl CoherenceProtocol for Protocol {
    fn serve_miss(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, victim: usize, store: bool) {
        match self {
            Protocol::MigrationMode => MigrationMode.serve_miss(ctx, line, victim, store),
            Protocol::Mesi => Mesi.serve_miss(ctx, line, victim, store),
            Protocol::Dragon => Dragon.serve_miss(ctx, line, victim, store),
        }
    }

    fn write_hit(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr, frame: usize) {
        match self {
            Protocol::MigrationMode => MigrationMode.write_hit(ctx, line, frame),
            Protocol::Mesi => Mesi.write_hit(ctx, line, frame),
            Protocol::Dragon => Dragon.write_hit(ctx, line, frame),
        }
    }

    fn after_write(&self, ctx: &mut CoherenceCtx<'_>, line: LineAddr) {
        match self {
            Protocol::MigrationMode => MigrationMode.after_write(ctx, line),
            Protocol::Mesi => Mesi.after_write(ctx, line),
            Protocol::Dragon => Dragon.after_write(ctx, line),
        }
    }

    fn may_prefetch(&self, active: usize, l2: &[Cache], line: LineAddr) -> bool {
        match self {
            Protocol::MigrationMode => MigrationMode.may_prefetch(active, l2, line),
            Protocol::Mesi => Mesi.may_prefetch(active, l2, line),
            Protocol::Dragon => Dragon.may_prefetch(active, l2, line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use execmig_cache::CacheConfig;

    fn two_l2s() -> Vec<Cache> {
        (0..2)
            .map(|_| Cache::new(CacheConfig::set_associative(1 << 10, 2, 64)))
            .collect()
    }

    /// The shared bit of `line` in `c`, if resident.
    fn shared(c: &Cache, line: LineAddr) -> Option<bool> {
        c.find_at(line).map(|f| c.shared_at(f))
    }

    /// Fills `line` into `c` in the given modified/shared state.
    fn put(c: &mut Cache, line: LineAddr, modified: bool, shared: bool) {
        c.fill(line, modified);
        if let Some(f) = c.find_at(line) {
            c.set_shared_at(f, shared);
        }
    }

    /// The active L2's miss probe for `line`, as the machine runs it.
    fn victim(c: &Cache, line: LineAddr) -> usize {
        match c.probe_at(line) {
            Probe::Miss(f) => f,
            Probe::Hit(_) => panic!("{line:?} is resident"),
        }
    }

    /// The active L2's hit probe for `line`, as the machine runs it: a
    /// use, returning the frame.
    fn hit(c: &mut Cache, line: LineAddr) -> usize {
        match c.probe_at(line) {
            Probe::Hit(f) => {
                c.touch_at(f, false);
                f
            }
            Probe::Miss(_) => panic!("{line:?} is not resident"),
        }
    }

    fn ctx<'a>(
        active: usize,
        l2: &'a mut [Cache],
        stats: &'a mut MachineStats,
    ) -> CoherenceCtx<'a> {
        CoherenceCtx {
            active,
            l2,
            l3: None,
            stats,
        }
    }

    #[test]
    fn protocol_parses_its_own_spelling() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.as_str()), Some(p));
        }
        assert_eq!(Protocol::parse("mosi"), None);
        assert_eq!(Protocol::default(), Protocol::MigrationMode);
    }

    #[test]
    fn mesi_write_miss_invalidates_remote_copies() {
        let mut l2 = two_l2s();
        let mut stats = MachineStats::default();
        let line = LineAddr::new(7);
        l2[1].fill(line, false);
        let v = victim(&l2[0], line);
        Mesi.serve_miss(&mut ctx(0, &mut l2, &mut stats), line, v, true);
        assert!(!l2[1].contains(line), "remote copy survived BusRdX");
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.coherence_bus_bytes, ADDR_BYTES);
        assert_eq!(l2[0].modified(line), Some(true));
        assert_eq!(shared(&l2[0], line), Some(false));
        // Illinois: the clean remote copy supplied the data.
        assert_eq!(stats.l2_to_l2_forwards, 1);
        assert_eq!(stats.l3_fetches, 0);
    }

    #[test]
    fn mesi_read_miss_demotes_modified_owner_to_shared() {
        let mut l2 = two_l2s();
        let mut stats = MachineStats::default();
        let line = LineAddr::new(9);
        l2[1].fill(line, true);
        let v = victim(&l2[0], line);
        Mesi.serve_miss(&mut ctx(0, &mut l2, &mut stats), line, v, false);
        assert_eq!(l2[1].modified(line), Some(false), "owner must flush");
        assert_eq!(shared(&l2[1], line), Some(true));
        assert_eq!(shared(&l2[0], line), Some(true));
        assert_eq!((stats.l2_to_l2_forwards, stats.l3_writebacks), (1, 1));
        assert_eq!(stats.invalidations, 0, "reads never invalidate");
    }

    #[test]
    fn mesi_upgrade_from_shared_invalidates() {
        let mut l2 = two_l2s();
        let mut stats = MachineStats::default();
        let line = LineAddr::new(3);
        put(&mut l2[0], line, false, true);
        put(&mut l2[1], line, false, true);
        let frame = hit(&mut l2[0], line);
        Mesi.write_hit(&mut ctx(0, &mut l2, &mut stats), line, frame);
        assert!(!l2[1].contains(line));
        assert_eq!(stats.invalidations, 1);
        assert_eq!(l2[0].modified(line), Some(true));
        assert_eq!(shared(&l2[0], line), Some(false));
    }

    #[test]
    fn dragon_write_updates_instead_of_invalidating() {
        let mut l2 = two_l2s();
        let mut stats = MachineStats::default();
        let line = LineAddr::new(5);
        put(&mut l2[0], line, false, true);
        put(&mut l2[1], line, true, true); // remote owner in Sm
        let frame = hit(&mut l2[0], line);
        Dragon.write_hit(&mut ctx(0, &mut l2, &mut stats), line, frame);
        assert!(l2[1].contains(line), "Dragon must not invalidate");
        assert_eq!(l2[1].modified(line), Some(false), "old owner → Sc");
        assert_eq!(l2[0].modified(line), Some(true), "writer → Sm");
        assert_eq!(shared(&l2[0], line), Some(true));
        assert_eq!(stats.coherence_updates, 1);
        assert_eq!(stats.coherence_bus_bytes, ADDR_BYTES + UPDATE_WORD_BYTES);
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn dragon_read_miss_shares_dirty_line_without_writeback() {
        let mut l2 = two_l2s();
        let mut stats = MachineStats::default();
        let line = LineAddr::new(11);
        l2[1].fill(line, true);
        let v = victim(&l2[0], line);
        Dragon.serve_miss(&mut ctx(0, &mut l2, &mut stats), line, v, false);
        assert_eq!(
            l2[1].modified(line),
            Some(true),
            "owner keeps the dirty line"
        );
        assert_eq!(shared(&l2[1], line), Some(true), "owner M → Sm");
        assert_eq!(shared(&l2[0], line), Some(true), "requester fills Sc");
        assert_eq!(l2[0].modified(line), Some(false));
        assert_eq!(stats.l2_to_l2_forwards, 1);
        assert_eq!(stats.l3_writebacks, 0, "dirty sharing: no write-back");
        assert_eq!(stats.l3_fetches, 0);
    }

    #[test]
    fn dragon_write_miss_takes_ownership_from_the_dirty_owner() {
        // BusRd + BusUpd in one snoop: the M owner supplies the line,
        // snarfs the written word and drops to Sc; the writer ends Sm.
        let mut l2 = two_l2s();
        let mut stats = MachineStats::default();
        let line = LineAddr::new(15);
        l2[1].fill(line, true);
        let v = victim(&l2[0], line);
        Dragon.serve_miss(&mut ctx(0, &mut l2, &mut stats), line, v, true);
        assert_eq!(l2[1].modified(line), Some(false), "old owner → Sc");
        assert_eq!(shared(&l2[1], line), Some(true));
        assert_eq!(l2[0].modified(line), Some(true), "writer → Sm");
        assert_eq!(shared(&l2[0], line), Some(true));
        assert_eq!(stats.l2_to_l2_forwards, 1);
        assert_eq!(stats.coherence_updates, 1);
        assert_eq!(stats.coherence_bus_bytes, ADDR_BYTES + UPDATE_WORD_BYTES);
        assert_eq!((stats.l3_fetches, stats.l3_writebacks), (0, 0));
    }

    #[test]
    fn dragon_write_to_last_copy_goes_exclusive_silently() {
        let mut l2 = two_l2s();
        let mut stats = MachineStats::default();
        let line = LineAddr::new(13);
        put(&mut l2[0], line, false, true); // stale: the sharer is gone
        let frame = hit(&mut l2[0], line);
        Dragon.write_hit(&mut ctx(0, &mut l2, &mut stats), line, frame);
        assert_eq!(l2[0].modified(line), Some(true));
        assert_eq!(shared(&l2[0], line), Some(false), "no sharers ⇒ M");
        assert_eq!(stats.coherence_updates, 0);
        assert_eq!(
            stats.coherence_bus_bytes, 0,
            "the snoop found no sharer, so no update word is broadcast"
        );
    }

    #[test]
    fn migration_mode_never_sets_the_shared_bit() {
        let mut l2 = two_l2s();
        let mut stats = MachineStats::default();
        let line = LineAddr::new(17);
        l2[1].fill(line, true);
        let v = victim(&l2[0], line);
        MigrationMode.serve_miss(&mut ctx(0, &mut l2, &mut stats), line, v, false);
        let frame = hit(&mut l2[0], line);
        MigrationMode.write_hit(&mut ctx(0, &mut l2, &mut stats), line, frame);
        MigrationMode.after_write(&mut ctx(0, &mut l2, &mut stats), line);
        for cache in &l2 {
            assert!(cache.resident_states().all(|(_, _, shared)| !shared));
        }
        assert_eq!(stats.invalidations, 0);
        assert_eq!(stats.coherence_updates, 0);
        assert_eq!(stats.coherence_bus_bytes, 0);
    }
}
