//! E012: every thread and atomic goes through the concurrency shim.
//!
//! The workspace's concurrency runs through the shim in
//! `execmig_obs::model` so that `--cfg execmig_model` can swap every
//! atomic and thread for the `execmig-model` interleaving checker's
//! instrumented versions. E012 keeps that property: no raw
//! `std::sync::atomic` or `std::thread` paths outside the shim itself,
//! the checker crate, and test modules. An atomic or a thread reached
//! through `std` directly is invisible to the model checker — every
//! interleaving proof silently stops covering it.

use crate::diag::Diagnostic;
use crate::lexer::{self, TokKind, Token};
use crate::workspace::Workspace;

/// The interleaving checker itself: necessarily full of raw atomics.
const CHECKER_CRATE: &str = "execmig-model";

/// The shim file: the one legitimate home of raw `std` concurrency
/// paths in the reproduction (matched by path suffix so the fixture
/// workspaces can carry their own shim).
const SHIM_SUFFIX: &str = "obs/src/model.rs";

/// Runs E012.
pub fn check(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for krate in &ws.crates {
        if krate.name == CHECKER_CRATE {
            continue;
        }
        for file in &krate.files {
            if file.rel.ends_with(SHIM_SUFFIX) {
                continue;
            }
            let exempt = lexer::test_regions(&file.toks);
            for (k, t) in file.toks.iter().enumerate() {
                if t.kind != TokKind::Ident || lexer::in_regions(t.pos, &exempt) {
                    continue;
                }
                if t.text == "std" {
                    if path_follows(&file.toks, k, &["thread"]) {
                        diags.push(Diagnostic::new(
                            "E012",
                            &file.rel,
                            t.line,
                            "raw `std::thread` path outside the concurrency shim; \
                             use `execmig_obs::model::thread` so the interleaving \
                             checker can schedule it"
                                .to_string(),
                        ));
                    } else if path_follows(&file.toks, k, &["sync", "atomic"]) {
                        diags.push(Diagnostic::new(
                            "E012",
                            &file.rel,
                            t.line,
                            "raw `std::sync::atomic` path outside the concurrency \
                             shim; use `execmig_obs::model::sync` so the \
                             interleaving checker can intercept it"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
}

/// Does `toks[k..]` spell `<toks[k]> :: seg1 :: seg2 …` for the given
/// trailing segments?
fn path_follows(toks: &[Token], k: usize, segs: &[&str]) -> bool {
    let mut at = k;
    for seg in segs {
        if !(lexer::is_punct_at(toks, at + 1, ':')
            && lexer::is_punct_at(toks, at + 2, ':')
            && matches!(toks.get(at + 3), Some(n) if n.kind == TokKind::Ident && n.text == *seg))
        {
            return false;
        }
        at += 3;
    }
    true
}
