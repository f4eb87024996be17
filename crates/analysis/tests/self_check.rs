//! The gate's own gate: the real workspace must be clean, and the
//! runtime half of the catalog must actually exist in the code.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis sits two levels under the root")
}

#[test]
fn real_workspace_is_clean() {
    let diags = execmig_analysis::run(workspace_root()).expect("workspace loads");
    assert!(
        diags.is_empty(),
        "the workspace violates its own static rules:\n{}",
        execmig_analysis::diag::render_text(&diags)
    );
}

/// Every runtime invariant id in the catalog must appear as an
/// `"I1xx:"` message prefix somewhere in the workspace sources — the
/// debug_assert! checkers and the catalog must not drift apart.
#[test]
fn runtime_catalog_ids_have_debug_assert_twins() {
    let ws = execmig_analysis::workspace::load(workspace_root()).expect("workspace loads");
    for rule in execmig_analysis::catalog::CATALOG {
        if !rule.id.starts_with('I') {
            continue;
        }
        let tag = format!("{}:", rule.id);
        let found = ws
            .crates
            .iter()
            .flat_map(|c| &c.files)
            .any(|f| f.text.contains(&tag));
        assert!(
            found,
            "catalog lists runtime invariant {} but no source carries a \"{tag}\" message",
            rule.id
        );
    }
}

/// And the reverse: the workspace loader sees the crates we think it
/// does (guards against the walker silently skipping a member).
#[test]
fn loader_sees_all_members() {
    let ws = execmig_analysis::workspace::load(workspace_root()).expect("workspace loads");
    for name in [
        "execution-migration",
        "execmig-analysis",
        "execmig-bench",
        "execmig-cache",
        "execmig-core",
        "execmig-experiments",
        "execmig-machine",
        "execmig-obs",
        "execmig-trace",
    ] {
        assert!(ws.get(name).is_some(), "loader missed crate {name}");
    }
}

/// The coherence modules must sit inside the gate's scan set — if the
/// walker ever skipped these files, E008 would silently stop policing
/// the protocol modules' configs.
#[test]
fn scan_covers_the_coherence_modules() {
    let ws = execmig_analysis::workspace::load(workspace_root()).expect("workspace loads");
    for (krate, rel) in [
        ("execmig-machine", "crates/machine/src/coherence.rs"),
        ("execmig-machine", "crates/machine/src/invariants.rs"),
        ("execmig-check", "crates/check/src/refmachine.rs"),
        (
            "execmig-experiments",
            "crates/experiments/src/coherence_compare.rs",
        ),
    ] {
        let c = ws
            .get(krate)
            .unwrap_or_else(|| panic!("loader missed crate {krate}"));
        assert!(
            c.files.iter().any(|f| f.rel == rel),
            "{krate} scan missed {rel}; the source rules no longer cover it"
        );
    }
}
