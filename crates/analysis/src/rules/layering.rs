//! E001: the crate-layering DAG.
//!
//! The workspace layers as `trace → cache → core → machine →
//! experiments`, with `obs` a side layer any crate may use, `check` — the
//! differential reference model — a leaf beside `experiments` (it may
//! see everything up to `machine`, and `experiments` may drive it),
//! and the root facade / bench harness on top. `analysis` sits outside
//! the DAG and depends on nothing — it lints the policy, so it must not
//! share code with what it lints. Third-party dependencies are banned
//! outright: the reproduction is dependency-free by policy.
//!
//! Only `[dependencies]` are checked: rustc rejects a library source
//! path naming a crate not listed there, so the manifests also bound
//! what sources can name. Dev-dependencies reach only tests.

use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// crate name → the exact set of workspace crates it may depend on.
const LAYERS: &[(&str, &[&str])] = &[
    ("execmig-obs", &[]),
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

/// Runs E001.
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
    }
}
