#![warn(missing_docs)]

//! `execmig-lint`: the in-tree static analysis gate.
//!
//! The workspace keeps two kinds of structural promises that `rustc`
//! cannot check: architectural ones (crate layering, dependency-freedom)
//! and paper-fidelity ones (the Fig 2
//! datapath is panic-free fixed-point code; every config serialises
//! into run manifests).
//! This crate enforces them from source, with a hand-rolled lexer so
//! doc examples, strings, and comments never trip a rule.
//!
//! The rules share one numbered catalog ([`catalog::CATALOG`]) with
//! the runtime `debug_assert!` invariant checkers in
//! `execmig_core::invariants` and `execmig_machine::invariants`:
//! `E…` ids are enforced here, `I…` ids in debug builds. `DESIGN.md`
//! documents both under "Invariant catalog & static analysis".
//!
//! Run it as `cargo run -p execmig-analysis` from the workspace root;
//! exit status 0 means clean, 1 means diagnostics, 2 means the
//! workspace could not be loaded.

pub mod catalog;
pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod workspace;

use std::path::Path;

pub use diag::Diagnostic;

/// Lints the workspace rooted at `root` and returns the diagnostics.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = workspace::load(root)?;
    Ok(rules::run_all(&ws))
}
