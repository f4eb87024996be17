//! The numbered invariant catalog.
//!
//! One catalog covers both halves of the gate: `E…` rules are checked
//! statically by this crate; `I…` invariants are the runtime
//! `debug_assert!` twins living in `execmig_core::invariants` and
//! `execmig_machine::invariants`, whose panic messages carry the same
//! ids. `DESIGN.md` ("Invariant catalog & static analysis") documents
//! every entry; `execmig-lint --catalog` prints this table.

/// Whether a rule is enforced by the linter or by runtime asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Checked by `execmig-lint` over sources and manifests.
    Static,
    /// Checked by `debug_assert!` in debug builds.
    Runtime,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id (`E00x` static, `I10x` runtime).
    pub id: &'static str,
    /// Enforcement site.
    pub kind: RuleKind,
    /// One-line statement of the rule.
    pub title: &'static str,
    /// Where in Michaud (HPCA 2004) the rule comes from, or the repo
    /// policy it encodes.
    pub paper: &'static str,
}

/// The catalog, in id order.
pub const CATALOG: &[Rule] = &[
    Rule {
        id: "E001",
        kind: RuleKind::Static,
        title: "manifest dependencies respect the trace → cache → core → machine → experiments DAG (obs is a side layer; no third-party crates)",
        paper: "repo policy (dependency-free reproduction)",
    },
    Rule {
        id: "E002",
        kind: RuleKind::Static,
        title: "source code never names a crate above its own layer",
        paper: "repo policy (mirrors E001 at use/path level)",
    },
    Rule {
        id: "E003",
        kind: RuleKind::Static,
        title: "the obs `trace` feature is enabled only through [features] forwarding, never hard-wired in [dependencies]",
        paper: "repo policy (zero-cost tracing by default)",
    },
    Rule {
        id: "E004",
        kind: RuleKind::Static,
        title: "hot-path files are panic-free: no .unwrap()/.expect()/panic!/todo!/unimplemented! outside tests",
        paper: "§3.2, Fig 2 (the datapath is hardware: no failure path)",
    },
    Rule {
        id: "E005",
        kind: RuleKind::Static,
        title: "hot-path files use fixed-point arithmetic only: no f32/f64 outside tests",
        paper: "§3.2 (16-bit saturating integers); floats live in introspection modules",
    },
    Rule {
        id: "E006",
        kind: RuleKind::Static,
        title: "recorder buffer reads outside obs sit behind `if <Recorder>::ACTIVE`, #[cfg(feature = …)], or tests: Tracer (.events()/.dropped()/.emitted(), EventRing, TraceEvent) and Profiler (.record_sample()/.records())",
        paper: "repo policy (per-event recorders must cost nothing when compiled out)",
    },
    Rule {
        id: "E007",
        kind: RuleKind::Static,
        title: "every MachineStats counter (including nested bus stats) is registered by name in Machine::metrics",
        paper: "§4–§5 (every reported quantity must reach the exporters)",
    },
    Rule {
        id: "E008",
        kind: RuleKind::Static,
        title: "every exported `pub struct *Config` has a ToJson impl in its crate",
        paper: "repo policy (run manifests must capture full configurations)",
    },
    Rule {
        id: "E009",
        kind: RuleKind::Static,
        title: "library code in trace/cache/core/machine is .unwrap()/.expect()-free outside tests",
        paper: "repo policy (typed errors at the I/O boundary, total code elsewhere)",
    },
    Rule {
        id: "E012",
        kind: RuleKind::Static,
        title: "raw `std::sync::atomic`/`std::thread` paths appear only in the concurrency shim (`obs::model`), the checker crate, and tests; everything else routes through the shim",
        paper: "repo policy (every atomic and thread must be schedulable by the interleaving checker under --cfg execmig_model)",
    },
    Rule {
        id: "E013",
        kind: RuleKind::Static,
        title: "every atomic `Ordering::…` literal carries an `// ord:` justification comment naming its pairing",
        paper: "repo policy (memory orderings are load-bearing; unjustified orderings are unreviewable)",
    },
    Rule {
        id: "I101",
        kind: RuleKind::Runtime,
        title: "affinity values stay within the saturating range of the configured bit width",
        paper: "§3.2 (16-bit saturating arithmetic)",
    },
    Rule {
        id: "I102",
        kind: RuleKind::Runtime,
        title: "the A_R register equals the R-window affinity sum plus the clamp residue",
        paper: "Fig 2, §3.3 (A_R += O_e − O_f bookkeeping)",
    },
    Rule {
        id: "I103",
        kind: RuleKind::Runtime,
        title: "the transition filter F stays within its saturating range",
        paper: "§3.4 (F += A_e, saturating)",
    },
    Rule {
        id: "I104",
        kind: RuleKind::Runtime,
        title: "the global counter ∆ stays within its saturating width",
        paper: "§3.2 (∆ is one bit wider than the affinities)",
    },
    Rule {
        id: "I105",
        kind: RuleKind::Runtime,
        title: "at most one L2 holds a modified copy of any line",
        paper: "§2.3 (migration-mode coherence)",
    },
    Rule {
        id: "I106",
        kind: RuleKind::Runtime,
        title: "the write-through, mirrored L1s never hold a modified line",
        paper: "§2.3 (L1 mirroring over the update bus)",
    },
    Rule {
        id: "I107",
        kind: RuleKind::Runtime,
        title: "occupancy and migration bookkeeping agree between machine and controller",
        paper: "§2.1–§2.3 (one active core; migrations counted once)",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    CATALOG.iter().find(|r| r.id == id)
}

/// Renders the catalog as aligned text for `--catalog`.
pub fn render() -> String {
    let mut out = String::new();
    for r in CATALOG {
        let kind = match r.kind {
            RuleKind::Static => "static ",
            RuleKind::Runtime => "runtime",
        };
        out.push_str(&format!(
            "{}  {}  {}\n         [{}]\n",
            r.id, kind, r.title, r.paper
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sorted_and_unique() {
        let ids: Vec<_> = CATALOG.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn lookup_works() {
        assert_eq!(rule("E004").map(|r| r.kind), Some(RuleKind::Static));
        assert_eq!(rule("I105").map(|r| r.kind), Some(RuleKind::Runtime));
        assert!(rule("E999").is_none());
    }
}
