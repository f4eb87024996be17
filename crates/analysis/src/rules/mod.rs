//! The static rules (E001, E002, E004, E005, E008, E009, E012).
//! Each module covers one concern and pushes [`Diagnostic`]s tagged
//! with catalog ids.

pub mod concurrency;
pub mod exhaustive;
pub mod hotpath;
pub mod hygiene;
pub mod layering;

use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// Runs every static rule over the workspace.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    layering::check(ws, &mut diags);
    hotpath::check(ws, &mut diags);
    exhaustive::check(ws, &mut diags);
    hygiene::check(ws, &mut diags);
    concurrency::check(ws, &mut diags);
    diags
}
