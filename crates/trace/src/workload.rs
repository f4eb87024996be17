//! The [`Workload`] trait: a deterministic, effectively infinite stream of
//! memory accesses with dynamic-instruction accounting.
//!
//! The paper reports every event count as *instructions per event*
//! (Tables 1 and 2), so generators must account for the instructions
//! retired between memory references, not just the references themselves.

use crate::access::Access;

/// A deterministic generator of memory accesses.
///
/// Implementations are infinite streams: `next_access` never ends. The
/// caller decides when to stop, normally when [`instructions`] reaches a
/// budget:
///
/// ```
/// use execmig_trace::{suite, Workload};
/// let mut w = suite::by_name("gzip").unwrap();
/// let mut refs = 0u64;
/// while w.instructions() < 10_000 {
///     let _a = w.next_access();
///     refs += 1;
/// }
/// assert!(refs > 0);
/// ```
///
/// [`instructions`]: Workload::instructions
pub trait Workload {
    /// A short, stable identifier (e.g. `"art"`, `"circular"`).
    fn name(&self) -> &str;

    /// Produces the next access and advances the instruction counter by
    /// however many instructions retire up to and including this access.
    fn next_access(&mut self) -> Access;

    /// Total dynamic instructions retired so far.
    fn instructions(&self) -> u64;

    /// Appends up to `max_events` events to `buf`, stopping early once
    /// [`instructions`](Workload::instructions) reaches `until`; returns
    /// the number appended.
    ///
    /// The stopping rule is exactly the per-step run loop's
    /// (`while instructions() < until { next_access() }`): the event
    /// that crosses `until` is *included*, so draining a workload
    /// through repeated `fill_block` calls yields the same event
    /// sequence — same accesses, same per-event instruction counts —
    /// as per-step consumption. Block-stepping callers rely on that to
    /// stay bit-identical with `Machine::step`.
    ///
    /// This is a provided method: each concrete workload monomorphizes
    /// its own copy, so a `dyn Workload` caller pays one virtual call
    /// per *block*. The loop inside is only as fast as what inlines
    /// into it. An engine keeps its loop one flat body by marking
    /// `next_access` `#[inline]`, together with every helper that runs
    /// per event: its address step, [`CodeFeed`]'s fetch and charge,
    /// [`InstrBudget::step`], and the [`Rng`] draws. Helpers for rare
    /// branches, such as a pass wrap, a relink shuffle or the code
    /// walk's switch to a new function, stay out of line. An engine
    /// does not override this method: `next_access` is its one event
    /// body, and `tests/streams.rs` pins both paths to one digest.
    ///
    /// [`CodeFeed`]: crate::gen::CodeFeed
    /// [`Rng`]: crate::Rng
    fn fill_block(&mut self, buf: &mut Vec<WorkloadEvent>, until: u64, max_events: usize) -> usize {
        let mut filled = 0;
        while filled < max_events && self.instructions() < until {
            let access = self.next_access();
            buf.push(WorkloadEvent {
                access,
                instructions: self.instructions(),
            });
            filled += 1;
        }
        filled
    }
}

/// One workload event as buffered by block-stepping drivers: the access
/// plus the workload's total retired-instruction count *after* it (the
/// value [`Workload::instructions`] returns at that point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadEvent {
    /// The access.
    pub access: Access,
    /// Total dynamic instructions retired up to and including it.
    pub instructions: u64,
}

/// A boxed, owned workload.
pub type BoxedWorkload = Box<dyn Workload + Send>;

/// Every method forwards through the vtable. The forwards are
/// `#[inline]` so a caller holding a box pays the one virtual call and
/// nothing more.
impl Workload for BoxedWorkload {
    #[inline]
    fn name(&self) -> &str {
        (**self).name()
    }

    #[inline]
    fn next_access(&mut self) -> Access {
        (**self).next_access()
    }

    #[inline]
    fn instructions(&self) -> u64 {
        (**self).instructions()
    }

    // Forwarded explicitly: without this, the box would run the
    // *default* body here, one virtual `next_access` per event,
    // instead of dispatching once into the concrete workload's
    // monomorphized loop, where `next_access` inlines.
    #[inline]
    fn fill_block(&mut self, buf: &mut Vec<WorkloadEvent>, until: u64, max_events: usize) -> usize {
        (**self).fill_block(buf, until, max_events)
    }
}

/// Fixed-point accumulator that converts a fractional mean
/// instructions-per-access into an exact deterministic integer sequence.
///
/// Means are expressed in 1/256ths of an instruction, so a mean of 2.5
/// instructions is `InstrBudget::new(640)`.
///
/// ```
/// use execmig_trace::workload::InstrBudget;
/// let mut b = InstrBudget::new(640); // 2.5 instructions per access
/// let total: u64 = (0..1000).map(|_| b.step()).sum();
/// assert_eq!(total, 2500);
/// ```
#[derive(Debug, Clone)]
pub struct InstrBudget {
    per_access_x256: u64,
    acc_x256: u64,
    total: u64,
}

impl InstrBudget {
    /// Creates a budget with the given mean, in 1/256ths of an
    /// instruction per access.
    ///
    /// # Panics
    ///
    /// Panics if `per_access_x256 == 0`.
    pub fn new(per_access_x256: u64) -> Self {
        assert!(per_access_x256 > 0, "instructions per access must be > 0");
        InstrBudget {
            per_access_x256,
            acc_x256: 0,
            total: 0,
        }
    }

    /// Convenience constructor from whole instructions per access.
    pub fn per_access(n: u64) -> Self {
        InstrBudget::new(n * 256)
    }

    /// Advances by one access; returns the integer number of instructions
    /// charged for it.
    #[inline]
    pub fn step(&mut self) -> u64 {
        self.acc_x256 += self.per_access_x256;
        let instrs = self.acc_x256 >> 8;
        self.acc_x256 &= 0xff;
        self.total += instrs;
        instrs
    }

    /// Charges extra instructions (e.g. for a computation-only phase).
    #[inline]
    pub fn charge(&mut self, instrs: u64) {
        self.total += instrs;
    }

    /// Total instructions charged so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::addr::Addr;

    struct Fixed {
        n: u64,
    }

    impl Workload for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn next_access(&mut self) -> Access {
            self.n += 1;
            Access::load(Addr::new(self.n * 64))
        }

        fn instructions(&self) -> u64 {
            self.n * 2
        }
    }

    #[test]
    fn boxed_workload_delegates() {
        let mut b: BoxedWorkload = Box::new(Fixed { n: 0 });
        assert_eq!(b.name(), "fixed");
        let a = b.next_access();
        assert_eq!(a.kind, AccessKind::Load);
        assert_eq!(b.instructions(), 2);
    }

    #[test]
    fn instr_budget_integer_mean() {
        let mut b = InstrBudget::per_access(3);
        for _ in 0..10 {
            assert_eq!(b.step(), 3);
        }
        assert_eq!(b.total(), 30);
    }

    #[test]
    fn instr_budget_fractional_mean_exact() {
        // 1.25 instructions per access: every 4th access charges 2.
        let mut b = InstrBudget::new(320);
        let seq: Vec<u64> = (0..8).map(|_| b.step()).collect();
        assert_eq!(seq.iter().sum::<u64>(), 10);
        assert_eq!(b.total(), 10);
    }

    #[test]
    fn instr_budget_sub_one_mean() {
        // 0.5 instructions per access: alternates 0, 1.
        let mut b = InstrBudget::new(128);
        let total: u64 = (0..1000).map(|_| b.step()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn instr_budget_charge_adds() {
        let mut b = InstrBudget::per_access(1);
        b.step();
        b.charge(100);
        assert_eq!(b.total(), 101);
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn instr_budget_zero_panics() {
        InstrBudget::new(0);
    }

    /// Draining through fill_block must replay the per-step loop
    /// exactly: same accesses, same post-event instruction counts,
    /// including the final event that crosses the budget.
    #[test]
    fn fill_block_matches_per_step_consumption() {
        let budget = 101; // odd on purpose: the last event overshoots
        let mut per_step = Fixed { n: 0 };
        let mut expected = Vec::new();
        while per_step.instructions() < budget {
            let access = per_step.next_access();
            expected.push(WorkloadEvent {
                access,
                instructions: per_step.instructions(),
            });
        }

        for block in [1usize, 7, 4096] {
            let mut blocked = Fixed { n: 0 };
            let mut got = Vec::new();
            loop {
                let filled = blocked.fill_block(&mut got, budget, block);
                if filled == 0 {
                    break;
                }
                assert!(filled <= block);
            }
            assert_eq!(got, expected, "block size {block}");
            assert_eq!(blocked.instructions(), per_step.instructions());
        }
    }

    /// Once the budget is reached, fill_block appends nothing.
    #[test]
    fn fill_block_stops_at_budget() {
        let mut w = Fixed { n: 0 };
        let mut buf = Vec::new();
        while w.fill_block(&mut buf, 10, 4) > 0 {}
        let len = buf.len();
        assert_eq!(w.fill_block(&mut buf, 10, 4), 0);
        assert_eq!(buf.len(), len);
    }

    /// The boxed forwarding returns the same events as the concrete
    /// type (and respects max_events).
    #[test]
    fn boxed_workload_forwards_fill_block() {
        let mut direct = Fixed { n: 0 };
        let mut boxed: BoxedWorkload = Box::new(Fixed { n: 0 });
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert_eq!(direct.fill_block(&mut a, 20, 3), 3);
        assert_eq!(boxed.fill_block(&mut b, 20, 3), 3);
        assert_eq!(a, b);
    }
}
