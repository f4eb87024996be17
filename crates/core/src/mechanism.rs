//! One 2-way splitting mechanism — the Figure 2 datapath.
//!
//! The mechanism owns an R-window, the `A_R` register, and the `∆`
//! counter; the affinity cache is passed in per reference because the
//! 4-way scheme shares one cache among three mechanisms (§3.6).
//!
//! Per reference to element `e` with FIFO victim `f` (Figure 2):
//!
//! ```text
//! O_e  read from the affinity cache (miss ⇒ O_e = ∆, i.e. A_e = 0)
//! A_e  = O_e − ∆
//! I_e  = O_e − 2∆      pushed into the R-window with e
//! O_f  = I_f + 2∆      written back to the affinity cache
//! A_R  ← A_R + O_e − O_f
//! ∆    ← ∆ + sign(A_R)
//! ```
//!
//! All quantities use saturating arithmetic at the widths of §3.2.
#![deny(clippy::panic)]

use crate::invariants;
use crate::sat;
use crate::table::AffinityTable;
use crate::window::RWindow;
use crate::Side;

/// How the `sign` driving `∆` is computed.
///
/// Figure 2 draws a register updated by `A_R ← A_R + O_e − O_f` whose
/// sign feeds `∆`. Read literally, that register drifts away from the
/// true affinity sum `Σ_{e∈R} A_e` by `|R|·∆` (every step, all `|R|`
/// window members gain `sign(A_R)` under Definition 1, which the
/// increment `O_e − O_f` does not capture). Empirically the literal
/// register yields ~20× the transition frequency the paper reports on
/// `Circular(4000)`, while correcting the sign argument by `|R|·∆` —
/// algebraically the true sum, and one shift-and-add in hardware —
/// reproduces the paper's "optimal splitting, one transition every 2000
/// references" exactly. [`SignMode::TrueSum`] is therefore the default;
/// the literal register survives as [`SignMode::RegisterOnly`] for the
/// `ablation_signmode` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SignMode {
    /// `sign(A_R-register + |R|·∆)` — the sign of the true affinity sum
    /// of Definition 1 (absent saturation). Matches the paper's
    /// reported behaviour; default.
    #[default]
    TrueSum,
    /// `sign(A_R-register)`, the literal reading of Figure 2. Splits
    /// working sets too, but with an order of magnitude more
    /// transitions.
    RegisterOnly,
}

/// How the `∆` counter and the `∆`-relative stored values are bounded.
///
/// §3.2 dimensions `∆` at 17 bits. Read as a *saturating* counter, that
/// is fatal over long runs: the zero tie-break of `sign` biases `∆`
/// upward, it eventually pins at +2^16, the `−∆` decay of out-of-window
/// elements stops, and every recovered affinity clamps to the negative
/// rail — the splitter collapses to one subset (observable after ~10⁷
/// references on a circular stream). The paper's sustained Table 2 /
/// Figure 4-5 results over ~10⁹ instructions cannot have come from a
/// collapsing mechanism, so the faithful-to-results reading is that the
/// `∆`-relative encodings behave as unbounded (hardware-wise: wrapping)
/// counters, with the paper's 16-bit saturation applied to the
/// *recovered affinity* at each touch. [`DeltaMode::Wide`] implements
/// that and is the default; [`DeltaMode::Saturating17`] keeps the
/// literal reading for the `ablation_signmode` study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeltaMode {
    /// Unbounded `∆` and stored values; affinities saturate at the
    /// configured width when recovered (entry/exit of the R-window).
    #[default]
    Wide,
    /// Literal §3.2 widths: 17-bit saturating `∆`, 16-bit saturating
    /// stored values. Collapses on long runs.
    Saturating17,
}

/// Configuration of one [`Mechanism`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MechanismConfig {
    /// Bits of `O_e`/`I_e`/`A_e` (paper: 16).
    pub affinity_bits: u32,
    /// `|R|`.
    pub r_window: usize,
    /// Sign source for the `∆` update.
    pub sign_mode: SignMode,
    /// Bounding of `∆` and the stored values.
    pub delta_mode: DeltaMode,
}

impl Default for MechanismConfig {
    fn default() -> Self {
        MechanismConfig {
            affinity_bits: 16,
            r_window: 128,
            sign_mode: SignMode::TrueSum,
            delta_mode: DeltaMode::Wide,
        }
    }
}

impl MechanismConfig {
    fn validate(&self) {
        assert!(
            (2..=32).contains(&self.affinity_bits),
            "affinity width out of range"
        );
        assert!(self.r_window > 0, "R-window must be non-empty");
    }
}

/// One 2-way splitting mechanism (Figure 2).
#[derive(Debug, Clone)]
pub struct Mechanism {
    config: MechanismConfig,
    window: RWindow,
    /// The `A_R` register.
    ar: i64,
    /// The postponed-update counter `∆`.
    delta: i64,
    ar_bits: u32,
    delta_bits: u32,
    /// I102 double-entry bookkeeping (debug builds, Wide mode only).
    #[cfg(debug_assertions)]
    shadow: invariants::ArShadow,
}

impl Mechanism {
    /// Builds a mechanism.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized R-window or an affinity width outside
    /// `[2, 32]` bits.
    pub fn new(config: MechanismConfig) -> Self {
        config.validate();
        Mechanism {
            window: RWindow::new(config.r_window),
            ar: 0,
            delta: 0,
            ar_bits: sat::ar_bits(config.affinity_bits, config.r_window),
            delta_bits: sat::delta_bits(config.affinity_bits),
            config,
            #[cfg(debug_assertions)]
            shadow: invariants::ArShadow::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MechanismConfig {
        &self.config
    }

    /// Current `∆`.
    pub fn delta(&self) -> i64 {
        self.delta
    }

    /// Current `A_R` register value.
    pub fn ar(&self) -> i64 {
        self.ar
    }

    /// Processes a reference to `e`, updating the shared affinity
    /// `table`; returns `A_e(t)` — the element's affinity at reference
    /// time, which drives the transition filter and subset choice.
    pub fn on_reference<T: AffinityTable + ?Sized>(&mut self, e: u64, table: &mut T) -> i64 {
        let bits = self.config.affinity_bits;
        match self.config.delta_mode {
            DeltaMode::Wide => {
                // Unbounded ∆-relative encodings; the affinity
                // saturates at `bits` when recovered on entry/exit.
                let o_e = table.read_or_insert(e, self.delta);
                let a_e = sat::clamp(o_e - self.delta, bits);
                invariants::check_affinity_bounds(a_e, bits); // I101
                let i_e = a_e - self.delta; // re-anchor through clamped A_e
                let a_f = match self.window.push(e, i_e) {
                    Some((f, i_f)) => {
                        let a_f = sat::clamp(i_f + self.delta, bits);
                        invariants::check_affinity_bounds(a_f, bits); // I101
                        table.write(f, a_f + self.delta);
                        #[cfg(debug_assertions)]
                        self.shadow.on_evict(self.delta, i_f, a_f);
                        a_f
                    }
                    None => {
                        // Warm-up: nothing leaves.
                        #[cfg(debug_assertions)]
                        self.shadow.on_warmup(self.delta);
                        0
                    }
                };
                // `a_e − a_f` equals the Saturating17 path's
                // `o_e − o_f`: the register tracks entry/exit swaps and
                // the true window sum is `register + |R|·∆`. The
                // register must NOT saturate here: with balanced
                // affinities the true sum hovers near zero, so the
                // register tracks `−|R|·∆`, which grows without bound.
                // (Real hardware would instead track the true sum
                // directly — bounded by `|R|·2^(bits−1)`, i.e. the
                // paper's `bits[A_R]` — by adding the uniform
                // `|R|·sign` drift each step; the two formulations are
                // equivalent, and this one keeps the Figure 2 shape.)
                self.ar += a_e - a_f;
                let sign_arg = match self.config.sign_mode {
                    SignMode::TrueSum => self.ar + self.window.len() as i64 * self.delta,
                    SignMode::RegisterOnly => self.ar,
                };
                self.delta += Side::of(sign_arg).sign();
                #[cfg(debug_assertions)]
                self.shadow.check(self.ar, &self.window); // I102
                a_e
            }
            DeltaMode::Saturating17 => {
                let o_e = table.read_or_insert(e, sat::clamp(self.delta, bits));
                let a_e = sat::clamp(o_e - self.delta, bits);
                invariants::check_affinity_bounds(a_e, bits); // I101
                let i_e = sat::clamp(o_e - 2 * self.delta, bits);
                match self.window.push(e, i_e) {
                    Some((f, i_f)) => {
                        let o_f = sat::clamp(i_f + 2 * self.delta, bits);
                        table.write(f, o_f);
                        self.ar = sat::add(self.ar, o_e - o_f, self.ar_bits);
                    }
                    None => {
                        // Warm-up: no element leaves; the register gains
                        // the entering element's affinity.
                        self.ar = sat::add(self.ar, a_e, self.ar_bits);
                    }
                }
                let sign_arg = match self.config.sign_mode {
                    SignMode::TrueSum => self.ar + self.window.len() as i64 * self.delta,
                    SignMode::RegisterOnly => self.ar,
                };
                self.delta = sat::add(self.delta, Side::of(sign_arg).sign(), self.delta_bits);
                invariants::check_delta_width(self.delta, self.delta_bits); // I104
                a_e
            }
        }
    }

    /// The current affinity `A_e` of `e`, if tracked: from its window
    /// entry (`I_e + ∆`) when `e ∈ R`, else from the affinity cache
    /// (`O_e − ∆`). Introspection only (Figure 3 snapshots).
    pub fn affinity_of<T: AffinityTable + ?Sized>(&self, e: u64, table: &T) -> Option<i64> {
        let bits = self.config.affinity_bits;
        if let Some(i_e) = self.window.find(e) {
            return Some(sat::clamp(i_e + self.delta, bits));
        }
        table.peek(e).map(|o_e| sat::clamp(o_e - self.delta, bits))
    }

    /// The side `e` would be assigned by raw affinity sign (no filter).
    pub fn side_of<T: AffinityTable + ?Sized>(&self, e: u64, table: &T) -> Option<Side> {
        self.affinity_of(e, table).map(Side::of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::UnboundedAffinityTable;

    fn run_circular(n: u64, r: usize, steps: u64) -> (Mechanism, UnboundedAffinityTable) {
        let mut m = Mechanism::new(MechanismConfig {
            r_window: r,
            ..MechanismConfig::default()
        });
        let mut t = UnboundedAffinityTable::new();
        for i in 0..steps {
            m.on_reference(i % n, &mut t);
        }
        (m, t)
    }

    #[test]
    fn first_reference_has_zero_affinity() {
        let mut m = Mechanism::new(MechanismConfig::default());
        let mut t = UnboundedAffinityTable::new();
        assert_eq!(m.on_reference(42, &mut t), 0);
    }

    #[test]
    fn affinities_stay_within_width() {
        let (m, t) = run_circular(400, 100, 200_000);
        for e in 0..400 {
            let a = m.affinity_of(e, &t).expect("tracked");
            assert!((-32768..=32767).contains(&a), "A_{e} = {a}");
        }
    }

    #[test]
    fn circular_splits_into_balanced_halves() {
        // §3.3 / Figure 3: Circular N=4000, |R|=100 splits ~50/50.
        let (m, t) = run_circular(4000, 100, 1_000_000);
        let positive = (0..4000)
            .filter(|&e| m.side_of(e, &t) == Some(Side::Plus))
            .count();
        let frac = positive as f64 / 4000.0;
        assert!(
            (0.35..=0.65).contains(&frac),
            "positive fraction {frac} — no balanced split"
        );
    }

    #[test]
    fn circular_split_has_low_transition_rate() {
        let (mut m, mut t) = run_circular(4000, 100, 1_000_000);
        let rate = late_transition_rate(&mut m, &mut t, 4000);
        // §3.3: after enough time the transition frequency never
        // exceeded one transition every 2|R| references.
        assert!(rate <= 1.0 / 200.0, "transition rate {rate}");
    }

    /// Steady-state side-transition rate along the reference stream.
    fn late_transition_rate(m: &mut Mechanism, t: &mut UnboundedAffinityTable, n: u64) -> f64 {
        let mut transitions = 0u64;
        let mut last = None;
        let refs = 100_000u64;
        for i in 0..refs {
            let side = Side::of(m.on_reference(i % n, t));
            if last.is_some() && last != Some(side) {
                transitions += 1;
            }
            last = Some(side);
        }
        transitions as f64 / refs as f64
    }

    #[test]
    fn small_circular_does_not_split_usefully() {
        // §3.3: the algorithm splits Circular only if N > 2|R|. For
        // N ≤ 2|R| the negative feedback fails: elements are always
        // referenced on the same side, so the stream never alternates
        // between subsets — there is no *usable* split (while for
        // N > 2|R| the steady state has ~2 transitions per lap).
        let (mut m, mut t) = run_circular(150, 100, 300_000);
        let rate = late_transition_rate(&mut m, &mut t, 150);
        assert!(
            rate < 1.0 / 10_000.0,
            "N <= 2|R| produced an alternating split: rate {rate}"
        );
        let (mut m2, mut t2) = run_circular(4000, 100, 1_000_000);
        let rate2 = late_transition_rate(&mut m2, &mut t2, 4000);
        assert!(
            rate2 > 1.0 / 10_000.0,
            "N > 2|R| should alternate between subsets: rate {rate2}"
        );
    }

    #[test]
    fn register_only_mode_also_splits_circular() {
        // The literal Figure 2 register still achieves a balanced
        // split, just with a higher transition frequency.
        let mut m = Mechanism::new(MechanismConfig {
            r_window: 100,
            sign_mode: SignMode::RegisterOnly,
            ..MechanismConfig::default()
        });
        let mut t = UnboundedAffinityTable::new();
        for i in 0..1_000_000u64 {
            m.on_reference(i % 4000, &mut t);
        }
        let positive = (0..4000)
            .filter(|&e| m.side_of(e, &t) == Some(Side::Plus))
            .count();
        let frac = positive as f64 / 4000.0;
        assert!((0.3..=0.7).contains(&frac), "register-only fraction {frac}");
    }

    #[test]
    fn true_sum_mode_reaches_optimal_circular_split() {
        // Figure 3: Circular(4000), |R|=100 settles to the optimal
        // splitting with one transition every 2000 references.
        let (mut m, mut t) = run_circular(4000, 100, 1_000_000);
        let rate = late_transition_rate(&mut m, &mut t, 4000);
        assert!(
            (rate - 1.0 / 2000.0).abs() < 1.0 / 4000.0,
            "expected ~1/2000 transitions, got {rate}"
        );
    }

    #[test]
    fn affinity_of_consults_window_first() {
        let mut m = Mechanism::new(MechanismConfig {
            r_window: 4,
            ..MechanismConfig::default()
        });
        let mut t = UnboundedAffinityTable::new();
        let a = m.on_reference(1, &mut t);
        // Element 1 is in the window; affinity_of must agree with the
        // value the mechanism just computed (modulo the one ∆ step that
        // followed — A_e changes by ±1 per step while in R).
        let now = m.affinity_of(1, &t).unwrap();
        assert!((now - a).abs() <= 1, "window path broken: {now} vs {a}");
    }

    #[test]
    fn untracked_element_has_no_affinity() {
        let m = Mechanism::new(MechanismConfig::default());
        let t = UnboundedAffinityTable::new();
        assert_eq!(m.affinity_of(7, &t), None);
        assert_eq!(m.side_of(7, &t), None);
    }
}
