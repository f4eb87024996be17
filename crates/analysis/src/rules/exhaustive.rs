//! E008: every `pub struct …Config` in the workspace must have a
//! `ToJson` impl in its crate (via `impl_to_json!` or a manual
//! `impl ToJson for …`), so run manifests can capture the full
//! configuration that produced a result.

use crate::diag::Diagnostic;
use crate::lexer::{self, TokKind};
use crate::workspace::{CrateInfo, Workspace};

/// Runs E008.
pub fn check(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for krate in &ws.crates {
        if krate.name == "execmig-analysis" {
            // The linter sits outside the reproduction: it produces no
            // run manifests.
            continue;
        }
        for file in &krate.files {
            let exempt = lexer::test_regions(&file.toks);
            for k in 0..file.toks.len().saturating_sub(2) {
                let [a, b, c] = [&file.toks[k], &file.toks[k + 1], &file.toks[k + 2]];
                if !(a.kind == TokKind::Ident
                    && a.text == "pub"
                    && b.kind == TokKind::Ident
                    && b.text == "struct"
                    && c.kind == TokKind::Ident
                    && c.text.ends_with("Config"))
                    || lexer::in_regions(a.pos, &exempt)
                {
                    continue;
                }
                if !has_to_json(krate, &c.text) {
                    diags.push(Diagnostic::new(
                        "E008",
                        &file.rel,
                        c.line,
                        format!(
                            "`pub struct {}` has no ToJson impl in `{}`; add \
                             `impl_to_json!({} {{ … }})` so run manifests can record it",
                            c.text, krate.name, c.text
                        ),
                    ));
                }
            }
        }
    }
}

fn has_to_json(krate: &CrateInfo, name: &str) -> bool {
    krate.files.iter().any(|f| {
        f.toks.windows(4).any(|w| {
            // impl_to_json!(Name …
            (w[0].kind == TokKind::Ident
                && w[0].text == "impl_to_json"
                && lexer::is_punct(&w[1], '!')
                && lexer::is_punct(&w[2], '(')
                && w[3].kind == TokKind::Ident
                && w[3].text == name)
                // impl ToJson for Name
                || (w[0].kind == TokKind::Ident
                    && w[0].text == "impl"
                    && w[1].kind == TokKind::Ident
                    && w[1].text == "ToJson"
                    && w[2].kind == TokKind::Ident
                    && w[2].text == "for"
                    && w[3].kind == TokKind::Ident
                    && w[3].text == name)
        })
    })
}
