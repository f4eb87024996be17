//! Event counters collected by the machine.

use crate::bus::UpdateBusStats;

/// Event counters for one simulation run.
///
/// Tables 1 and 2 report *instructions per event* — use the
/// `instr_per_*` accessors (higher is better, as in the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Dynamic instructions retired.
    pub instructions: u64,
    /// Total accesses processed.
    pub accesses: u64,
    /// Instruction fetches.
    pub ifetches: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// IL1 misses.
    pub il1_misses: u64,
    /// DL1 misses (loads and stores; stores do not allocate).
    pub dl1_misses: u64,
    /// L1-miss requests monitored by the migration controller.
    pub l1_requests: u64,
    /// Accesses reaching the active L2 (L1 misses + write-throughs).
    pub l2_accesses: u64,
    /// Active-L2 misses (includes those served L2-to-L2; the paper does
    /// not distinguish L2-to-L2 misses from L3 hits).
    pub l2_misses: u64,
    /// L2 misses served by forwarding a modified remote copy.
    pub l2_to_l2_forwards: u64,
    /// L2 misses served from L3 (no modified remote copy).
    pub l3_fetches: u64,
    /// Lines written back to L3 (dirty evictions + forward write-backs).
    pub l3_writebacks: u64,
    /// Migrations performed.
    pub migrations: u64,
    /// Inactive-L2 copies refreshed by store broadcasts.
    pub store_broadcast_updates: u64,
    /// Lines prefetched into the active L2 (sequential prefetcher).
    pub prefetch_fills: u64,
    /// Finite-L3 misses (memory accesses); 0 when the L3 is modelled
    /// as infinite.
    pub l3_misses: u64,
    /// Remote L2 copies invalidated by MESI `BusRdX`/`BusUpgr`
    /// transactions; 0 under migration mode and Dragon.
    pub invalidations: u64,
    /// Remote L2 copies refreshed by Dragon `BusUpd` transactions (the
    /// update-protocol analogue of `store_broadcast_updates`); 0 under
    /// migration mode and MESI.
    pub coherence_updates: u64,
    /// Extra bus bytes moved by coherence transactions (MESI
    /// invalidation addresses, Dragon update words); 0 under migration
    /// mode, whose update traffic is accounted in `bus`.
    pub coherence_bus_bytes: u64,
    /// Update-bus traffic.
    pub bus: UpdateBusStats,
}

impl MachineStats {
    /// Every counter as a `(registry name, value)` pair, in declaration
    /// order; the update-bus fields carry a `bus_` prefix. This is the
    /// one list of counter names: `Machine::metrics` registers it and
    /// the lockstep differ compares it. The destructure names every
    /// field with no `..`, so a counter added to either struct but left
    /// off this list fails to compile.
    pub fn counters(&self) -> [(&'static str, u64); 24] {
        let MachineStats {
            instructions,
            accesses,
            ifetches,
            loads,
            stores,
            il1_misses,
            dl1_misses,
            l1_requests,
            l2_accesses,
            l2_misses,
            l2_to_l2_forwards,
            l3_fetches,
            l3_writebacks,
            migrations,
            store_broadcast_updates,
            prefetch_fills,
            l3_misses,
            invalidations,
            coherence_updates,
            coherence_bus_bytes,
            bus:
                UpdateBusStats {
                    reg_bytes,
                    store_bytes,
                    branch_bytes,
                    l1_mirror_bytes,
                },
        } = *self;
        [
            ("instructions", instructions),
            ("accesses", accesses),
            ("ifetches", ifetches),
            ("loads", loads),
            ("stores", stores),
            ("il1_misses", il1_misses),
            ("dl1_misses", dl1_misses),
            ("l1_requests", l1_requests),
            ("l2_accesses", l2_accesses),
            ("l2_misses", l2_misses),
            ("l2_to_l2_forwards", l2_to_l2_forwards),
            ("l3_fetches", l3_fetches),
            ("l3_writebacks", l3_writebacks),
            ("migrations", migrations),
            ("store_broadcast_updates", store_broadcast_updates),
            ("prefetch_fills", prefetch_fills),
            ("l3_misses", l3_misses),
            ("invalidations", invalidations),
            ("coherence_updates", coherence_updates),
            ("coherence_bus_bytes", coherence_bus_bytes),
            ("bus_reg_bytes", reg_bytes),
            ("bus_store_bytes", store_bytes),
            ("bus_branch_bytes", branch_bytes),
            ("bus_l1_mirror_bytes", l1_mirror_bytes),
        ]
    }

    fn per_event(&self, events: u64) -> f64 {
        if events == 0 {
            f64::INFINITY
        } else {
            self.instructions as f64 / events as f64
        }
    }

    /// Instructions per L1-miss request (Table 2 column "L1 miss").
    pub fn instr_per_l1_miss(&self) -> f64 {
        self.per_event(self.l1_requests)
    }

    /// Instructions per L2 miss (Table 2 columns "L2 miss"/"4xL2 miss").
    pub fn instr_per_l2_miss(&self) -> f64 {
        self.per_event(self.l2_misses)
    }

    /// Instructions per migration (Table 2 column "migration").
    pub fn instr_per_migration(&self) -> f64 {
        self.per_event(self.migrations)
    }

    /// Instructions per IL1 miss (Table 1 column "16KB i-miss").
    pub fn instr_per_il1_miss(&self) -> f64 {
        self.per_event(self.il1_misses)
    }

    /// Instructions per DL1 miss (Table 1 column "16KB d-miss").
    pub fn instr_per_dl1_miss(&self) -> f64 {
        self.per_event(self.dl1_misses)
    }

    /// L2 misses per instruction (convenience for rate plots).
    pub fn l2_miss_rate_per_instr(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_event_handles_zero() {
        let s = MachineStats {
            instructions: 100,
            ..MachineStats::default()
        };
        assert!(s.instr_per_migration().is_infinite());
        assert_eq!(s.l2_miss_rate_per_instr(), 0.0);
    }

    #[test]
    fn per_event_divides() {
        let s = MachineStats {
            instructions: 1000,
            l2_misses: 10,
            migrations: 4,
            l1_requests: 100,
            ..MachineStats::default()
        };
        assert_eq!(s.instr_per_l2_miss(), 100.0);
        assert_eq!(s.instr_per_migration(), 250.0);
        assert_eq!(s.instr_per_l1_miss(), 10.0);
        assert_eq!(s.l2_miss_rate_per_instr(), 0.01);
    }
}
