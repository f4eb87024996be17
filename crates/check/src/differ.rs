//! The lockstep differ: `execmig_machine::Machine` vs
//! [`RefMachine`](crate::refmachine::RefMachine) on the same access
//! stream.
//!
//! After every access the differ compares the full per-step observable
//! surface — hit/miss class counters, the executing core, the
//! controller's `F`/`A_R`/subset and its request/migration counters,
//! and the update-bus byte totals — and stops at the first divergent
//! step with both machine states pretty-printed. An end-of-run
//! [`final_check`](Lockstep::final_check) additionally compares cache
//! *contents* (resident lines and modified bits per level), which is
//! too expensive to scan per step but catches recency/victim drift
//! that identical miss counters can hide.

use std::fmt;

use execmig_machine::{Machine, MachineConfig, MachineStats};
use execmig_trace::{Access, LineSize, Workload, WorkloadEvent};

use crate::refmachine::RefMachine;

/// One captured access: what the workload produced and the cumulative
/// instruction count after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// The access itself.
    pub access: Access,
    /// Workload instruction total after this access.
    pub instructions: u64,
}

/// One observable that differs between the two implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Dotted observable name (e.g. `stats.l2_misses`).
    pub field: String,
    /// The optimized machine's value.
    pub machine: i128,
    /// The reference model's value.
    pub reference: i128,
}

/// The first divergent step of a lockstep run.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Zero-based index of the divergent access in the stream.
    pub step: usize,
    /// The access that exposed the divergence.
    pub access: Access,
    /// Workload instruction total at that access.
    pub instructions: u64,
    /// Every observable that differs, in declaration order.
    pub diffs: Vec<FieldDiff>,
    /// Pretty-printed optimized-machine state.
    pub machine_state: String,
    /// Pretty-printed reference-model state.
    pub reference_state: String,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence at step {} (instruction {}): {}",
            self.step, self.instructions, self.access
        )?;
        for d in &self.diffs {
            writeln!(
                f,
                "  {:<28} machine={} reference={}",
                d.field, d.machine, d.reference
            )?;
        }
        writeln!(f, "machine state:")?;
        writeln!(f, "{}", self.machine_state)?;
        writeln!(f, "reference state:")?;
        write!(f, "{}", self.reference_state)
    }
}

/// Per-`MachineStats` observables, shared by the per-step and the
/// end-of-run comparison: `stats.<name>` for each
/// [`MachineStats::counters`] entry, `bus.<field>` for the update-bus
/// ones. This runs after every access, so equal stats return before
/// the counter lists are built, and names are formatted only for
/// values that differ.
fn stats_diffs(m: &MachineStats, r: &MachineStats, out: &mut Vec<FieldDiff>) {
    if m == r {
        return;
    }
    for ((name, a), (_, b)) in m.counters().into_iter().zip(r.counters()) {
        if a != b {
            let field = match name.strip_prefix("bus_") {
                Some(bus) => format!("bus.{bus}"),
                None => format!("stats.{name}"),
            };
            out.push(FieldDiff {
                field,
                machine: i128::from(a),
                reference: i128::from(b),
            });
        }
    }
}

fn push_diff(out: &mut Vec<FieldDiff>, field: &str, machine: i128, reference: i128) {
    if machine != reference {
        out.push(FieldDiff {
            field: field.to_string(),
            machine,
            reference,
        });
    }
}

/// Runs the optimized machine and the reference model in lockstep.
pub struct Lockstep {
    machine: Machine,
    reference: RefMachine,
    line: LineSize,
    steps: usize,
}

impl Lockstep {
    /// Builds both implementations from the same configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: MachineConfig) -> Self {
        let line = config.validate();
        Lockstep {
            reference: RefMachine::new(&config),
            machine: Machine::new(config),
            line,
            steps: 0,
        }
    }

    /// Accesses processed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The optimized machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The reference model.
    pub fn reference(&self) -> &RefMachine {
        &self.reference
    }

    /// Feeds one access to both implementations and compares the
    /// per-step observables. Returns the report on first divergence.
    pub fn step(&mut self, access: Access, instructions_now: u64) -> Option<DivergenceReport> {
        let line = self.line.line_of(access.addr);
        self.machine
            .step_tagged(access.kind, line, instructions_now, access.pointer);
        self.reference
            .step_tagged(access.kind, line, instructions_now, access.pointer);
        let step = self.steps;
        self.steps += 1;
        let diffs = self.observable_diffs();
        if diffs.is_empty() {
            return None;
        }
        Some(self.report(step, access, instructions_now, diffs))
    }

    /// Replays a captured trace; returns the first divergence.
    pub fn run_trace(&mut self, trace: &[TraceStep]) -> Option<DivergenceReport> {
        for t in trace {
            if let Some(report) = self.step(t.access, t.instructions) {
                return Some(report);
            }
        }
        None
    }

    /// Replays a captured trace through the *block* API: the optimized
    /// machine consumes it in `run_block` chunks whose sizes cycle
    /// through `block_sizes` (clamped to the events remaining, so
    /// oversized entries exercise the overshooting-final-block case),
    /// while the reference model steps event by event. Observables are
    /// compared at every block boundary — the granularity at which
    /// [`Machine::run_block`] promises bit-identity with per-step
    /// execution. Returns the first divergent boundary.
    ///
    /// # Panics
    ///
    /// Panics if `block_sizes` is empty or contains 0.
    pub fn run_trace_blocks(
        &mut self,
        trace: &[TraceStep],
        block_sizes: &[usize],
    ) -> Option<DivergenceReport> {
        assert!(
            block_sizes.iter().all(|&n| n > 0),
            "block sizes must be positive"
        );
        let mut sizes = block_sizes.iter().cycle();
        let mut at = 0usize;
        let mut buf: Vec<WorkloadEvent> = Vec::new();
        while at < trace.len() {
            let n = (*sizes.next().expect("non-empty sizes")).min(trace.len() - at);
            let block = &trace[at..at + n];
            buf.clear();
            buf.extend(block.iter().map(|t| WorkloadEvent {
                access: t.access,
                instructions: t.instructions,
            }));
            self.machine.run_block(&buf);
            for t in block {
                let line = self.line.line_of(t.access.addr);
                self.reference
                    .step_tagged(t.access.kind, line, t.instructions, t.access.pointer);
            }
            self.steps += n;
            at += n;
            let diffs = self.observable_diffs();
            if !diffs.is_empty() {
                let last = block.last().expect("non-empty block");
                return Some(self.report(at - 1, last.access, last.instructions, diffs));
            }
        }
        None
    }

    /// Drives both implementations from `workload` until at least
    /// `instructions` have retired; returns the first divergence.
    pub fn run_workload<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        instructions: u64,
    ) -> Option<DivergenceReport> {
        while workload.instructions() < instructions {
            let access = workload.next_access();
            let now = workload.instructions();
            if let Some(report) = self.step(access, now) {
                return Some(report);
            }
        }
        None
    }

    /// End-of-run deep comparison: per-step observables *plus* cache
    /// contents (occupancy and the resident-line sets of every level,
    /// including per-line modified and shared bits). Returns a report
    /// attributed to the last processed step.
    pub fn final_check(&self) -> Option<DivergenceReport> {
        let mut diffs = self.observable_diffs();
        self.contents_diffs(&mut diffs);
        if diffs.is_empty() {
            return None;
        }
        let step = self.steps.saturating_sub(1);
        Some(self.report(
            step,
            Access::new(execmig_trace::AccessKind::Load, execmig_trace::Addr::new(0)),
            self.machine.stats().instructions,
            diffs,
        ))
    }

    fn observable_diffs(&self) -> Vec<FieldDiff> {
        let mut diffs = Vec::new();
        stats_diffs(self.machine.stats(), self.reference.stats(), &mut diffs);
        push_diff(
            &mut diffs,
            "active_core",
            self.machine.active_core() as i128,
            self.reference.active_core() as i128,
        );
        match (self.machine.controller(), self.reference.controller()) {
            (Some(mc), Some(rc)) => {
                push_diff(
                    &mut diffs,
                    "controller.filter_value",
                    i128::from(mc.filter_value()),
                    i128::from(rc.filter_value()),
                );
                push_diff(
                    &mut diffs,
                    "controller.a_r",
                    i128::from(mc.ar()),
                    i128::from(rc.ar()),
                );
                push_diff(
                    &mut diffs,
                    "controller.subset",
                    mc.current_core() as i128,
                    rc.current_subset() as i128,
                );
                push_diff(
                    &mut diffs,
                    "controller.current_core",
                    mc.current_core() as i128,
                    rc.current_core() as i128,
                );
                let ms = mc.stats();
                push_diff(
                    &mut diffs,
                    "controller.requests",
                    i128::from(ms.requests),
                    i128::from(rc.requests),
                );
                push_diff(
                    &mut diffs,
                    "controller.l2_misses",
                    i128::from(ms.l2_misses),
                    i128::from(rc.l2_misses),
                );
                push_diff(
                    &mut diffs,
                    "controller.migrations",
                    i128::from(ms.migrations),
                    i128::from(rc.migrations),
                );
                let ts = mc.table_stats();
                let (rh, rm) = rc.table_stats();
                push_diff(
                    &mut diffs,
                    "controller.table_hits",
                    i128::from(ts.hits),
                    i128::from(rh),
                );
                push_diff(
                    &mut diffs,
                    "controller.table_misses",
                    i128::from(ts.misses),
                    i128::from(rm),
                );
            }
            (None, None) => {}
            (m, r) => push_diff(
                &mut diffs,
                "controller.present",
                i128::from(m.is_some()),
                i128::from(r.is_some()),
            ),
        }
        diffs
    }

    fn contents_diffs(&self, diffs: &mut Vec<FieldDiff>) {
        let cores = self.machine.config().cores;
        let mut levels: Vec<(String, &execmig_cache::Cache, &crate::refcache::RefCache)> = vec![
            (
                "il1".to_string(),
                self.machine.il1_cache(),
                self.reference.il1_cache(),
            ),
            (
                "dl1".to_string(),
                self.machine.dl1_cache(),
                self.reference.dl1_cache(),
            ),
        ];
        for c in 0..cores {
            levels.push((
                format!("l2[{c}]"),
                self.machine.l2_cache(c),
                self.reference.l2_cache(c),
            ));
        }
        if let (Some(m), Some(r)) = (self.machine.l3_cache(), self.reference.l3_cache()) {
            levels.push(("l3".to_string(), m, r));
        }
        for (name, fast, naive) in levels {
            push_diff(
                diffs,
                &format!("{name}.occupancy"),
                i128::from(fast.occupancy()),
                i128::from(naive.occupancy()),
            );
            let mut a: Vec<(u64, bool, bool)> = fast
                .resident_states()
                .map(|(l, m, s)| (l.raw(), m, s))
                .collect();
            let mut b: Vec<(u64, bool, bool)> = naive
                .resident_states()
                .map(|(l, m, s)| (l.raw(), m, s))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            push_diff(
                diffs,
                &format!("{name}.contents_equal"),
                i128::from(a == b),
                1,
            );
        }
    }

    fn report(
        &self,
        step: usize,
        access: Access,
        instructions: u64,
        diffs: Vec<FieldDiff>,
    ) -> DivergenceReport {
        DivergenceReport {
            step,
            access,
            instructions,
            diffs,
            machine_state: machine_state(&self.machine),
            reference_state: reference_state(&self.reference),
        }
    }
}

fn machine_state(m: &Machine) -> String {
    let mut s = String::new();
    let cores = m.config().cores;
    state_header(&mut s, m.active_core(), m.stats());
    for c in 0..cores {
        let l2 = m.l2_cache(c);
        state_l2_line(
            &mut s,
            c,
            l2.occupancy(),
            modified_count(l2.resident_lines()),
        );
    }
    if let Some(mc) = m.controller() {
        state_controller_line(
            &mut s,
            mc.filter_value(),
            mc.ar(),
            mc.current_core(),
            mc.stats().requests,
            mc.stats().migrations,
        );
    }
    s
}

fn reference_state(r: &RefMachine) -> String {
    let mut s = String::new();
    state_header(&mut s, r.active_core(), r.stats());
    for c in 0..r.cores() {
        let l2 = r.l2_cache(c);
        state_l2_line(&mut s, c, l2.occupancy(), l2.modified_count());
    }
    if let Some(rc) = r.controller() {
        let (f, ar, subset) = (rc.filter_value(), rc.ar(), rc.current_subset());
        state_controller_line(&mut s, f, ar, subset, rc.requests, rc.migrations);
    }
    s
}

fn modified_count(lines: impl Iterator<Item = (execmig_trace::LineAddr, bool)>) -> u64 {
    lines.filter(|&(_, m)| m).count() as u64
}

fn state_header(s: &mut String, active: usize, stats: &MachineStats) {
    use fmt::Write;
    let _ = writeln!(
        s,
        "  active core {active}; {} accesses, {} l2 misses, {} migrations",
        stats.accesses, stats.l2_misses, stats.migrations
    );
}

fn state_l2_line(s: &mut String, core: usize, occupancy: u64, modified: u64) {
    use fmt::Write;
    let _ = writeln!(s, "  L2[{core}]: {occupancy} lines, {modified} modified");
}

fn state_controller_line(
    s: &mut String,
    f: i64,
    ar: i64,
    subset: usize,
    requests: u64,
    migrations: u64,
) {
    use fmt::Write;
    let _ = writeln!(
        s,
        "  controller: F={f} A_R={ar} subset={subset} requests={requests} migrations={migrations}"
    );
}

/// Captures `workload`'s access stream up to `instructions`, mirroring
/// the `Machine::run` loop, so the same stream can be replayed into
/// both implementations (and shrunk on divergence).
pub fn capture<W: Workload + ?Sized>(workload: &mut W, instructions: u64) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    while workload.instructions() < instructions {
        let access = workload.next_access();
        let now = workload.instructions();
        steps.push(TraceStep {
            access,
            instructions: now,
        });
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use execmig_trace::Addr;

    #[test]
    fn divergence_report_format_is_pinned() {
        // Golden: tooling (CI log scrapers, the differ binary's users)
        // may parse this report, so its shape is part of the contract.
        let report = DivergenceReport {
            step: 42,
            access: Access::load(Addr::new(0x2a40)),
            instructions: 137,
            diffs: vec![
                FieldDiff {
                    field: "stats.l2_misses".to_string(),
                    machine: 7,
                    reference: 8,
                },
                FieldDiff {
                    field: "controller.migrations".to_string(),
                    machine: 1,
                    reference: 0,
                },
            ],
            machine_state: "  active core 1; 43 accesses, 7 l2 misses, 1 migrations".to_string(),
            reference_state: "  active core 0; 43 accesses, 8 l2 misses, 0 migrations".to_string(),
        };
        let expected = "\
divergence at step 42 (instruction 137): load 0x2a40
  stats.l2_misses              machine=7 reference=8
  controller.migrations        machine=1 reference=0
machine state:
  active core 1; 43 accesses, 7 l2 misses, 1 migrations
reference state:
  active core 0; 43 accesses, 8 l2 misses, 0 migrations";
        assert_eq!(report.to_string(), expected);
    }

    #[test]
    fn stats_diffs_names_counters_and_bus_fields() {
        let machine = MachineStats::default();
        let mut reference = machine;
        reference.l2_misses = 3;
        reference.bus.reg_bytes = 9;
        let mut diffs = Vec::new();
        stats_diffs(&machine, &reference, &mut diffs);
        let fields: Vec<(&str, i128, i128)> = diffs
            .iter()
            .map(|d| (d.field.as_str(), d.machine, d.reference))
            .collect();
        assert_eq!(fields, [("stats.l2_misses", 0, 3), ("bus.reg_bytes", 0, 9)]);
    }

    #[test]
    fn lockstep_agrees_on_a_short_circular_run() {
        use execmig_trace::gen::CircularWorkload;
        let mut lockstep = Lockstep::new(MachineConfig::four_core_migration());
        let mut w = CircularWorkload::new(2048);
        let report = lockstep
            .run_workload(&mut w, 50_000)
            .or_else(|| lockstep.final_check());
        assert!(report.is_none(), "diverged:\n{}", report.unwrap());
        assert!(lockstep.steps() > 0);
    }

    #[test]
    fn lockstep_agrees_under_every_protocol() {
        use execmig_machine::Protocol;
        use execmig_trace::gen::CircularWorkload;
        for protocol in Protocol::ALL {
            let config = MachineConfig {
                protocol,
                ..MachineConfig::four_core_migration()
            };
            let mut lockstep = Lockstep::new(config);
            let mut w = CircularWorkload::new(2048);
            let report = lockstep
                .run_workload(&mut w, 50_000)
                .or_else(|| lockstep.final_check());
            assert!(
                report.is_none(),
                "{} diverged:\n{}",
                protocol.as_str(),
                report.unwrap()
            );
        }
    }
}
