//! Runtime invariant checkers for the machine-level coherence model.
//!
//! These are the machine half of the numbered invariant catalog (see
//! `DESIGN.md`, "Invariant catalog & static analysis"); the affinity
//! half (I101–I104) lives in `execmig_core::invariants`. Each check is
//! a `debug_assert!` — active in the tier-1 debug test build and in the
//! CI debug leg, compiled out of release binaries.
//!
//! - **I105** — per-line L2 state is legal for the configured
//!   coherence protocol. Under the paper's migration mode this is the
//!   §2.3 rule ("a cache line may be in the modified state in at most
//!   one L2 cache") plus the shared bit staying unused; under MESI,
//!   modified or unshared copies must be chip-wide exclusive; under
//!   Dragon, a single modified owner (M or Sm) may coexist with clean
//!   `Sc` sharers only when marked shared. Use [`check_coherence`] to
//!   dispatch on the protocol.
//! - **I106** — the write-through L1s never hold a modified line
//!   (§2.3: DL1 is write-through, so no dirty state can accumulate
//!   above the L2s; the mirrored-L1 model depends on this).
//! - **I107** — occupancy and migration bookkeeping are consistent:
//!   per-core instruction counters sum to the machine total, and the
//!   machine's migration count agrees with the controller's.

use std::collections::BTreeMap;

use execmig_cache::Cache;

use crate::coherence::Protocol;

/// How many accesses between full cache scans for I105/I106. The O(1)
/// bookkeeping checks of I107 run on every access in debug builds; the
/// scans walk every L2 frame and are sampled to keep debug runs usable.
pub const SCAN_PERIOD: u64 = 65_536;

/// I105: at most one modified copy of each line across the per-core
/// L2s. A violated check names the line and both offending cores.
///
/// This is the migration-mode kernel; it is protocol-agnostic in the
/// weak sense that MESI and Dragon also forbid two modified owners,
/// but it does not check the shared-bit legality those protocols add —
/// use [`check_coherence`] for the full per-protocol check.
pub fn check_single_modified_owner(l2s: &[Cache]) {
    if cfg!(debug_assertions) {
        let mut owner = BTreeMap::new();
        for (core, l2) in l2s.iter().enumerate() {
            for (line, modified) in l2.resident_lines() {
                if !modified {
                    continue;
                }
                if let Some(prev) = owner.insert(line, core) {
                    debug_assert!(
                        false,
                        "I105: line {line:?} modified in L2 {prev} and L2 {core} \
                         (§2.3: at most one modified owner per line)"
                    );
                }
            }
        }
    }
}

/// Per-line view of every L2 copy, gathered for the protocol kernels:
/// `line -> [(core, modified, shared)]`.
#[allow(clippy::type_complexity)]
fn copies_by_line(l2s: &[Cache]) -> BTreeMap<execmig_trace::LineAddr, Vec<(usize, bool, bool)>> {
    let mut by_line: BTreeMap<_, Vec<(usize, bool, bool)>> = BTreeMap::new();
    for (core, l2) in l2s.iter().enumerate() {
        for (line, modified, shared) in l2.resident_states() {
            by_line
                .entry(line)
                .or_default()
                .push((core, modified, shared));
        }
    }
    by_line
}

/// I105 (protocol dispatch): checks that every line's set of L2 copies
/// is a legal state combination for `protocol`.
///
/// - [`Protocol::MigrationMode`] — at most one modified owner, and the
///   shared bit is never set (migration mode does not use it).
/// - [`Protocol::Mesi`] — a modified (`M`) or clean-unshared (`E`)
///   copy must be the only copy chip-wide; multiple copies must all be
///   clean and marked shared (`S`).
/// - [`Protocol::Dragon`] — at most one modified owner (`M`/`Sm`); an
///   unshared copy (`M`/`E`) must be exclusive; a modified copy with
///   sharers must be marked shared (`Sm`), and its co-resident copies
///   must all be clean (`Sc`).
pub fn check_coherence(protocol: Protocol, l2s: &[Cache]) {
    if !cfg!(debug_assertions) {
        return;
    }
    match protocol {
        Protocol::MigrationMode => {
            check_single_modified_owner(l2s);
            for (core, l2) in l2s.iter().enumerate() {
                for (line, _, shared) in l2.resident_states() {
                    debug_assert!(
                        !shared,
                        "I105: migration mode does not use the shared bit, \
                         yet L2 {core} marks line {line:?} shared"
                    );
                }
            }
        }
        Protocol::Mesi => {
            for (line, copies) in copies_by_line(l2s) {
                if copies.len() < 2 {
                    continue;
                }
                for &(core, modified, shared) in &copies {
                    debug_assert!(
                        !modified,
                        "I105/MESI: line {line:?} modified in L2 {core} \
                         with {} other copies (M must be exclusive)",
                        copies.len() - 1
                    );
                    debug_assert!(
                        shared,
                        "I105/MESI: line {line:?} unshared (E) in L2 {core} \
                         with {} other copies (E must be exclusive)",
                        copies.len() - 1
                    );
                }
            }
        }
        Protocol::Dragon => {
            for (line, copies) in copies_by_line(l2s) {
                let owners: Vec<usize> = copies
                    .iter()
                    .filter(|&&(_, modified, _)| modified)
                    .map(|&(core, _, _)| core)
                    .collect();
                debug_assert!(
                    owners.len() <= 1,
                    "I105/Dragon: line {line:?} modified in L2s {owners:?} \
                     (at most one M/Sm owner per line)"
                );
                if copies.len() < 2 {
                    continue;
                }
                for &(core, modified, shared) in &copies {
                    debug_assert!(
                        shared,
                        "I105/Dragon: line {line:?} unshared ({}) in L2 {core} \
                         with {} other copies (M/E must be exclusive)",
                        if modified { "M" } else { "E" },
                        copies.len() - 1
                    );
                }
            }
        }
    }
}

/// I106: the shared write-through IL1/DL1 pair never marks a line
/// modified — dirty state lives only in the L2s.
pub fn check_l1_write_through(il1: &Cache, dl1: &Cache) {
    if cfg!(debug_assertions) {
        for (name, l1) in [("IL1", il1), ("DL1", dl1)] {
            for (line, modified) in l1.resident_lines() {
                debug_assert!(
                    !modified,
                    "I106: {name} holds modified line {line:?} \
                     (§2.3: L1s are write-through, mirrored across cores)"
                );
            }
        }
    }
}

/// I107 (occupancy half): the per-core instruction counters must sum
/// to the machine's total retired-instruction count.
pub fn check_occupancy(core_instructions: &[u64], instructions: u64) {
    let total: u64 = core_instructions.iter().sum();
    debug_assert!(
        total == instructions,
        "I107: per-core instruction counters sum to {total}, \
         machine retired {instructions}"
    );
}

/// I107 (migration half): the machine's migration count must agree
/// with the controller's, and the active core must be a valid
/// destination for the configured split degree.
pub fn check_migration_accounting(
    machine_migrations: u64,
    controller_migrations: u64,
    active: usize,
    cores: usize,
) {
    debug_assert!(
        machine_migrations == controller_migrations,
        "I107: machine counted {machine_migrations} migrations, \
         controller counted {controller_migrations}"
    );
    debug_assert!(
        active < cores,
        "I107: active core {active} out of range for {cores} cores"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use execmig_cache::{CacheConfig, Indexing};
    use execmig_trace::LineAddr;

    fn small_cache() -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: 1 << 10,
            ways: 2,
            line_bytes: 64,
            indexing: Indexing::Modulo,
        })
    }

    /// Sets the shared bit of resident `line`.
    fn mark_shared(c: &mut Cache, line: LineAddr) {
        if let Some(f) = c.find_at(line) {
            c.set_shared_at(f, true);
        }
    }

    #[test]
    fn accepts_disjoint_modified_lines() {
        let mut a = small_cache();
        let mut b = small_cache();
        a.fill(LineAddr::new(1), true);
        b.fill(LineAddr::new(2), true);
        b.fill(LineAddr::new(1), false);
        check_single_modified_owner(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "I105")]
    #[cfg(debug_assertions)]
    fn rejects_two_modified_owners() {
        let mut a = small_cache();
        let mut b = small_cache();
        a.fill(LineAddr::new(7), true);
        b.fill(LineAddr::new(7), true);
        check_single_modified_owner(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "I106")]
    #[cfg(debug_assertions)]
    fn rejects_modified_l1_line() {
        let il1 = small_cache();
        let mut dl1 = small_cache();
        dl1.fill(LineAddr::new(3), true);
        check_l1_write_through(&il1, &dl1);
    }

    #[test]
    #[should_panic(expected = "I107")]
    #[cfg(debug_assertions)]
    fn rejects_occupancy_mismatch() {
        check_occupancy(&[10, 20], 31);
    }

    #[test]
    #[should_panic(expected = "I107")]
    #[cfg(debug_assertions)]
    fn rejects_migration_count_mismatch() {
        check_migration_accounting(3, 4, 0, 4);
    }

    #[test]
    #[should_panic(expected = "shared bit")]
    #[cfg(debug_assertions)]
    fn migration_rejects_shared_bit() {
        let mut a = small_cache();
        a.fill(LineAddr::new(5), false);
        mark_shared(&mut a, LineAddr::new(5));
        check_coherence(Protocol::MigrationMode, &[a, small_cache()]);
    }

    #[test]
    fn mesi_accepts_clean_shared_copies() {
        let mut a = small_cache();
        let mut b = small_cache();
        for c in [&mut a, &mut b] {
            c.fill(LineAddr::new(9), false);
            mark_shared(c, LineAddr::new(9));
        }
        check_coherence(Protocol::Mesi, &[a, b]);
    }

    #[test]
    #[should_panic(expected = "I105/MESI")]
    #[cfg(debug_assertions)]
    fn mesi_rejects_modified_copy_with_sharers() {
        let mut a = small_cache();
        let mut b = small_cache();
        a.fill(LineAddr::new(9), true);
        b.fill(LineAddr::new(9), false);
        mark_shared(&mut b, LineAddr::new(9));
        check_coherence(Protocol::Mesi, &[a, b]);
    }

    #[test]
    #[should_panic(expected = "I105/MESI")]
    #[cfg(debug_assertions)]
    fn mesi_rejects_exclusive_marked_copy_with_sharers() {
        let mut a = small_cache();
        let mut b = small_cache();
        a.fill(LineAddr::new(9), false); // E, but a sharer exists
        b.fill(LineAddr::new(9), false);
        mark_shared(&mut b, LineAddr::new(9));
        check_coherence(Protocol::Mesi, &[a, b]);
    }

    #[test]
    fn dragon_accepts_sm_owner_with_sc_sharers() {
        let mut a = small_cache();
        let mut b = small_cache();
        a.fill(LineAddr::new(4), true); // Sm
        mark_shared(&mut a, LineAddr::new(4));
        b.fill(LineAddr::new(4), false); // Sc
        mark_shared(&mut b, LineAddr::new(4));
        check_coherence(Protocol::Dragon, &[a, b]);
    }

    #[test]
    #[should_panic(expected = "I105/Dragon")]
    #[cfg(debug_assertions)]
    fn dragon_rejects_two_modified_owners() {
        let mut a = small_cache();
        let mut b = small_cache();
        for c in [&mut a, &mut b] {
            c.fill(LineAddr::new(4), true);
            mark_shared(c, LineAddr::new(4));
        }
        check_coherence(Protocol::Dragon, &[a, b]);
    }

    #[test]
    #[should_panic(expected = "I105/Dragon")]
    #[cfg(debug_assertions)]
    fn dragon_rejects_unshared_copy_with_sharers() {
        let mut a = small_cache();
        let mut b = small_cache();
        a.fill(LineAddr::new(4), true); // claims M (unshared)...
        b.fill(LineAddr::new(4), false); // ...but a second copy exists
        mark_shared(&mut b, LineAddr::new(4));
        check_coherence(Protocol::Dragon, &[a, b]);
    }

    #[test]
    fn paper_machine_stays_consistent() {
        use crate::{Machine, MachineConfig};
        use execmig_trace::suite;

        let mut m = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name("art").unwrap();
        m.run(&mut *w, 200_000);
        m.check_invariants();
        assert!(m.stats().migrations > 0 || m.stats().l2_misses > 0);
    }
}
