//! E003/E006: feature-gate discipline for the observability layer.
//!
//! Tracing must cost nothing unless a *top-level* build opts in with
//! `--features trace`. Two things can silently break that:
//!
//! - a manifest hard-wiring the feature on a dependency
//!   (`features = ["trace"]`), which turns tracing on for every build
//!   of everything above it (E003 — the feature may only travel via
//!   `[features]` forwarding like `trace = ["execmig-obs/trace"]`);
//! - source code reading a recorder's buffers unconditionally (E006).
//!   The event tracer and the interval profiler sit on the simulator's
//!   per-event path and compile to no-ops without `trace`. Their buffer
//!   APIs exist in both builds, but calling them outside
//!   `if <Recorder>::ACTIVE { … }`, a `#[cfg(feature = …)]` item, or a
//!   test means the call is *meant* to do work that a default build
//!   silently skips. [`RECORDERS`] has one row per recorder: its gate
//!   and the reads that need it. The cheap `Tracer::emit` and
//!   `Profiler::sample_due` calls need no gate — they are the gate.

use crate::diag::Diagnostic;
use crate::lexer::{self, TokKind};
use crate::workspace::Workspace;

/// A compile-time-gated recorder: reads of its buffers outside obs
/// must sit behind `<name>::ACTIVE`.
struct Recorder {
    /// The type whose `ACTIVE` const gates the reads.
    name: &'static str,
    /// Methods that read the buffers (flagged as `.method(`).
    methods: &'static [&'static str],
    /// Buffer types that must not be named ungated.
    types: &'static [&'static str],
}

const RECORDERS: &[Recorder] = &[
    Recorder {
        name: "Tracer",
        methods: &["events", "dropped", "emitted"],
        types: &["EventRing", "TraceEvent"],
    },
    Recorder {
        name: "Profiler",
        methods: &["record_sample", "records"],
        types: &[],
    },
];

/// Runs E003 (manifests) and E006 (sources).
pub fn check(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for krate in &ws.crates {
        if krate.name == "execmig-obs" {
            continue;
        }
        for dep in &krate.manifest.dependencies {
            if dep.name.starts_with("execmig") && dep.features.iter().any(|f| f == "trace") {
                diags.push(Diagnostic::new(
                    "E003",
                    &krate.manifest_rel,
                    dep.line,
                    format!(
                        "`{}` hard-wires the `trace` feature of `{}`; forward it \
                         through [features] instead (`trace = [\"{}/trace\"]`)",
                        krate.name, dep.name, dep.name
                    ),
                ));
            }
        }
        for file in &krate.files {
            let mut exempt = lexer::test_regions(&file.toks);
            exempt.extend(lexer::feature_regions(&file.toks));
            for rec in RECORDERS {
                let mut gated = exempt.clone();
                gated.extend(lexer::active_regions(&file.toks, rec.name));
                for (k, t) in file.toks.iter().enumerate() {
                    if t.kind != TokKind::Ident {
                        continue;
                    }
                    let read = rec.types.contains(&t.text.as_str())
                        || (rec.methods.contains(&t.text.as_str())
                            && k > 0
                            && lexer::is_punct(&file.toks[k - 1], '.')
                            && matches!(file.toks.get(k + 1), Some(n) if lexer::is_punct(n, '(')));
                    if read && !lexer::in_regions(t.pos, &gated) {
                        diags.push(Diagnostic::new(
                            "E006",
                            &file.rel,
                            t.line,
                            format!(
                                "{} buffer access `{}` outside `if {}::ACTIVE`, \
                                 `#[cfg(feature = …)]`, or tests",
                                rec.name, t.text, rec.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}
