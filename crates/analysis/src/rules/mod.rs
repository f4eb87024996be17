//! The static rules (E001, E004, E005, E008). Each module covers one
//! concern and pushes [`Diagnostic`]s tagged with catalog ids.

pub mod exhaustive;
pub mod hotpath;
pub mod layering;

use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// Runs every static rule over the workspace.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    layering::check(ws, &mut diags);
    hotpath::check(ws, &mut diags);
    exhaustive::check(ws, &mut diags);
    diags
}
