//! Runtime invariant kernel: rules I101–I104 of the catalog in
//! DESIGN.md §7 (I105–I107 live in `execmig-machine`, next to the
//! coherence state they inspect). Every check compiles to nothing in
//! release builds (`debug_assert!`); every debug-build test run, tier-1
//! `cargo test` and CI's `cargo test --workspace`, exercises the kernel.
//!
//! - **I101** (§3.2): every recovered affinity `A_e` fits the
//!   configured saturating width.
//! - **I102** (Fig 2, §3.3): the `A_R` register equals the sum of the
//!   stored `I_e` values over the R-window, up to a residue that exact
//!   double-entry bookkeeping tracks (see [`ArShadow`]).
//! - **I103** (§3.4): the transition filter `F` stays inside its
//!   saturating range.
//! - **I104** (§3.2): under the literal `Saturating17` reading, `∆`
//!   stays inside its `bits[O_e] + 1`-bit width.

use crate::sat;
use crate::window::RWindow;

/// I101 (§3.2): a recovered affinity fits its configured width.
///
/// Called on every `A_e`/`A_f` the mechanism recovers; the saturating
/// clamp makes violation impossible unless the clamp itself regresses,
/// which is exactly what the check guards.
#[inline]
pub fn check_affinity_bounds(a: i64, bits: u32) {
    debug_assert!(
        {
            let (lo, hi) = sat::range(bits);
            (lo..=hi).contains(&a)
        },
        "I101: affinity {a} outside the {bits}-bit saturating range (§3.2)"
    );
}

/// I103 (§3.4): the transition filter value is inside its width.
#[inline]
pub fn check_filter_range(value: i64, bits: u32) {
    debug_assert!(
        {
            let (lo, hi) = sat::range(bits);
            (lo..=hi).contains(&value)
        },
        "I103: filter value {value} outside the {bits}-bit saturating range (§3.4)"
    );
}

/// I104 (§3.2): `∆` fits `bits[∆] = bits[O_e] + 1` under
/// `DeltaMode::Saturating17`.
#[inline]
pub fn check_delta_width(delta: i64, bits: u32) {
    debug_assert!(
        {
            let (lo, hi) = sat::range(bits);
            (lo..=hi).contains(&delta)
        },
        "I104: \u{2206} = {delta} outside its {bits}-bit width (§3.2)"
    );
}

/// I102 bookkeeping: verifies `A_R == Σ_{e∈R} I_e + residue`.
///
/// Figure 2 updates the register by `A_R += O_e − O_f`, which tracks
/// entry/exit swaps of the window, not the window sum itself. The two
/// agree up to an exactly computable residue: each warm-up push (no
/// eviction) contributes `∆`, and each steady-state push contributes
/// `∆ + I_f − clamp(I_f + ∆, bits)` — zero whenever the recovered exit
/// affinity does not clamp. [`ArShadow`] accrues that residue in O(1)
/// per reference and compares the register against a full window scan
/// every [`SCAN_PERIOD`](ArShadow::SCAN_PERIOD) references, so the
/// check is exact but costs O(1) amortised.
///
/// Applies to `DeltaMode::Wide` only; under `Saturating17` the register
/// itself saturates and the identity intentionally breaks.
#[derive(Debug, Clone, Default)]
pub struct ArShadow {
    residue: i64,
    refs: u64,
}

impl ArShadow {
    /// References between full window scans.
    pub const SCAN_PERIOD: u64 = 1024;

    /// Records a warm-up push (nothing left the window); `delta` is the
    /// `∆` in effect during the reference.
    #[inline]
    pub fn on_warmup(&mut self, delta: i64) {
        self.residue += delta;
    }

    /// Records a steady-state push: `f` left with stored value `i_f`,
    /// recovered as the clamped affinity `a_f`.
    #[inline]
    pub fn on_evict(&mut self, delta: i64, i_f: i64, a_f: i64) {
        self.residue += delta + i_f - a_f;
    }

    /// Asserts the I102 identity. Call once per reference, after the
    /// register update; the window scan runs every
    /// [`SCAN_PERIOD`](Self::SCAN_PERIOD) calls.
    #[inline]
    pub fn check(&mut self, ar: i64, window: &RWindow) {
        self.refs += 1;
        if !self.refs.is_multiple_of(Self::SCAN_PERIOD) {
            return;
        }
        let window_sum: i64 = window.iter().map(|(_, i_e)| i_e).sum();
        debug_assert!(
            ar == window_sum + self.residue,
            "I102: A_R register {ar} != window sum {window_sum} + residue {} \
             after {} references (Fig 2, §3.3)",
            self.residue,
            self.refs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{DeltaMode, Mechanism, MechanismConfig};
    use crate::table::UnboundedAffinityTable;

    #[test]
    fn bounds_checks_accept_in_range_values() {
        check_affinity_bounds(32767, 16);
        check_affinity_bounds(-32768, 16);
        check_filter_range(0, 18);
        check_delta_width(-65536, 17);
    }

    #[test]
    #[should_panic(expected = "I101")]
    #[cfg(debug_assertions)]
    fn affinity_bound_violation_trips() {
        check_affinity_bounds(32768, 16);
    }

    #[test]
    #[should_panic(expected = "I103")]
    #[cfg(debug_assertions)]
    fn filter_range_violation_trips() {
        check_filter_range(1 << 20, 18);
    }

    #[test]
    #[should_panic(expected = "I104")]
    #[cfg(debug_assertions)]
    fn delta_width_violation_trips() {
        check_delta_width(1 << 17, 17);
    }

    /// The shadow identity holds along a real mechanism run — the
    /// mechanism calls the shadow internally in debug builds, so a
    /// clean long run over clamping-heavy streams *is* the test; here
    /// we force many scans over a stream that saturates affinities.
    #[test]
    fn shadow_survives_saturating_stream() {
        let mut m = Mechanism::new(MechanismConfig {
            affinity_bits: 4, // tiny width: clamps constantly
            r_window: 32,
            delta_mode: DeltaMode::Wide,
            ..MechanismConfig::default()
        });
        let mut t = UnboundedAffinityTable::new();
        for i in 0..200_000u64 {
            m.on_reference(i % 97, &mut t);
        }
    }

    #[test]
    fn shadow_survives_warmup_only_run() {
        let mut m = Mechanism::new(MechanismConfig {
            r_window: 4096,
            ..MechanismConfig::default()
        });
        let mut t = UnboundedAffinityTable::new();
        // 2048 < 4096: the window never fills; every push is warm-up.
        for i in 0..2048u64 {
            m.on_reference(i, &mut t);
        }
    }
}
