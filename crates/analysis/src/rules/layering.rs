//! E001/E002: the crate-layering DAG.
//!
//! The workspace layers as `trace → cache → core → machine →
//! experiments`, with `obs` a side layer any crate may use, `check` — the
//! differential reference model — a leaf beside `experiments` (it may
//! see everything up to `machine`, and `experiments` may drive it),
//! and the root facade / bench harness on top. `model` — the
//! interleaving checker — is a leaf below `obs`, which wraps it in the
//! concurrency shim; nothing else may see it (tests reach it as a dev
//! dependency, which sits outside the DAG). `analysis` sits outside the DAG and
//! depends on nothing — it lints the policy, so it must not share
//! code with what it lints. Third-party dependencies are banned
//! outright: the reproduction is dependency-free by policy.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::workspace::Workspace;

/// crate name → the exact set of workspace crates it may depend on.
const LAYERS: &[(&str, &[&str])] = &[
    ("execmig-model", &[]),
    ("execmig-obs", &["execmig-model"]),
    ("execmig-trace", &[]),
    ("execmig-cache", &["execmig-trace", "execmig-obs"]),
    (
        "execmig-core",
        &["execmig-trace", "execmig-cache", "execmig-obs"],
    ),
    (
        "execmig-machine",
        &[
            "execmig-trace",
            "execmig-cache",
            "execmig-core",
            "execmig-obs",
        ],
    ),
    (
        "execmig-check",
        &[
            "execmig-trace",
            "execmig-cache",
            "execmig-core",
            "execmig-machine",
            "execmig-obs",
        ],
    ),
    (
        "execmig-experiments",
        &[
            "execmig-trace",
            "execmig-cache",
            "execmig-core",
            "execmig-machine",
            "execmig-check",
            "execmig-obs",
        ],
    ),
    (
        "execmig-bench",
        &[
            "execmig-trace",
            "execmig-cache",
            "execmig-core",
            "execmig-machine",
            "execmig-check",
            "execmig-experiments",
            "execmig-obs",
        ],
    ),
    (
        "execution-migration",
        &[
            "execmig-trace",
            "execmig-cache",
            "execmig-core",
            "execmig-machine",
            "execmig-check",
            "execmig-experiments",
            "execmig-obs",
        ],
    ),
    ("execmig-analysis", &[]),
];

fn allowed(name: &str) -> Option<&'static [&'static str]> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, a)| *a)
}

/// Runs E001 (manifests) and E002 (sources).
pub fn check(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for krate in &ws.crates {
        let Some(allow) = allowed(&krate.name) else {
            diags.push(Diagnostic::new(
                "E001",
                &krate.manifest_rel,
                0,
                format!(
                    "crate `{}` is not in the layering map; add it to \
                     rules/layering.rs with an explicit allowed-dependency set",
                    krate.name
                ),
            ));
            continue;
        };
        // E001: every [dependencies] entry must be an allowed workspace crate.
        for dep in &krate.manifest.dependencies {
            if allow.contains(&dep.name.as_str()) {
                continue;
            }
            let why = if dep.name.starts_with("execmig") || dep.name == "execution-migration" {
                format!(
                    "`{}` may not depend on `{}`: the layering DAG is \
                     trace → cache → core → machine → experiments (obs is a side layer)",
                    krate.name, dep.name
                )
            } else {
                format!(
                    "`{}` depends on third-party crate `{}`; the workspace is \
                     dependency-free by policy",
                    krate.name, dep.name
                )
            };
            diags.push(Diagnostic::new("E001", &krate.manifest_rel, dep.line, why));
        }
        // E002: sources must not name a crate above their layer.
        for file in &krate.files {
            for t in &file.toks {
                if t.kind != TokKind::Ident || !t.text.starts_with("execmig_") {
                    continue;
                }
                let dep = t.text.replace('_', "-");
                if dep == krate.name || allow.contains(&dep.as_str()) {
                    continue;
                }
                // Only identifiers naming a real workspace crate are
                // layer references; `execmig_`-prefixed cfg flags
                // (e.g. the mutation-gate cfgs) are not.
                if allowed(&dep).is_none() {
                    continue;
                }
                diags.push(Diagnostic::new(
                    "E002",
                    &file.rel,
                    t.line,
                    format!(
                        "`{}` names `{}`, which is not in its allowed layer set",
                        krate.name, t.text
                    ),
                ));
            }
        }
    }
}
