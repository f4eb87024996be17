//! `execmig-lint` CLI.
//!
//! ```text
//! execmig-lint [--root PATH] [--json] [--catalog]
//! ```
//!
//! Exit status: 0 clean, 1 diagnostics found, 2 usage or load error.

use std::path::PathBuf;
use std::process::ExitCode;

use execmig_analysis::{catalog, diag};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--catalog" => {
                print!("{}", catalog::render());
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "-h" | "--help" => {
                println!(
                    "execmig-lint: static analysis gate for the execution-migration workspace\n\n\
                     usage: execmig-lint [--root PATH] [--json] [--catalog]\n\n\
                     --root PATH  workspace root (default: walk up from the current directory)\n\
                     --json       machine-readable diagnostics\n\
                     --catalog    print the numbered rule catalog and exit\n\n\
                     exit status: 0 clean, 1 diagnostics, 2 error"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("execmig-lint: no workspace root found (no Cargo.toml with [workspace] above the current directory)");
            return ExitCode::from(2);
        }
    };
    match execmig_analysis::run(&root) {
        Ok(diags) if diags.is_empty() => {
            if json {
                println!("{}", diag::render_json(&diags));
            } else {
                let rules = catalog::CATALOG
                    .iter()
                    .filter(|r| r.kind == catalog::RuleKind::Static)
                    .count();
                println!("execmig-lint: workspace clean ({rules} static rules)");
            }
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            if json {
                println!("{}", diag::render_json(&diags));
            } else {
                print!("{}", diag::render_text(&diags));
                eprintln!("execmig-lint: {} diagnostic(s)", diags.len());
            }
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("execmig-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("execmig-lint: {msg} (try --help)");
    ExitCode::from(2)
}

/// Walks up from the current directory to the first Cargo.toml that
/// declares a `[workspace]`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
