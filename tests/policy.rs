//! The workspace's static policy (DESIGN.md §7) as plain text scans:
//! E001 crate layering, E004/E005 a panic-free, fixed-point hot path
//! (§3.2) and E008 configs a run manifest can record, plus the runtime
//! catalog's assert messages. The last tests pin the scanners on
//! in-memory snippets.

use std::fs;
use std::path::{Path, PathBuf};

/// Each package and the workspace crates it may depend on (E001),
/// named without their `execmig-` prefix: trace → cache → core →
/// machine → experiments, obs a side layer, check beside experiments.
#[rustfmt::skip]
const LAYERS: &[(&str, &str)] = &[
    ("execmig-obs", ""),
    ("execmig-trace", ""),
    ("execmig-cache", "trace obs"),
    ("execmig-core", "trace cache obs"),
    ("execmig-machine", "trace cache core obs"),
    ("execmig-check", "trace cache core machine obs"),
    ("execmig-experiments", "trace cache core machine check obs"),
    ("execmig-bench", "trace cache core machine check experiments obs"),
    ("execution-migration", "trace cache core machine check experiments obs"),
];

/// The hot path (E004, E005), as `crate/file` under `crates/*/src`: the
/// Fig 2 datapath, the splitters and the cache probes.
const HOT: &str = "core/sat core/window core/filter core/table core/mechanism \
                   core/splitter2 core/tree cache/cache cache/fully_assoc";

/// Reads a file, relative to the repository root; a missing file fails.
fn read(path: impl AsRef<Path>) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of each `.rs` file under `dir`.
fn sources(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("directory lists") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(read(path));
        }
    }
    out
}

/// The manifest and the `src/` files of the root package and of each
/// `crates/*` package.
fn packages() -> Vec<(String, Vec<String>)> {
    let mut dirs = vec![PathBuf::from(env!("CARGO_MANIFEST_DIR"))];
    for entry in fs::read_dir(dirs[0].join("crates")).expect("crates/ lists") {
        dirs.push(entry.expect("entry").path());
    }
    let package = |d: PathBuf| (read(d.join("Cargo.toml")), sources(&d.join("src")));
    dirs.into_iter().map(package).collect()
}

/// A manifest's package name and the keys of its `[dependencies]` and
/// `[dependencies.<name>]` tables.
fn manifest(text: &str) -> (String, Vec<String>) {
    let (mut name, mut deps, mut section) = (String::new(), Vec::new(), "");
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']');
            deps.extend(section.strip_prefix("dependencies.").map(str::to_string));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().trim_matches('"');
            if section == "package" && key == "name" {
                name = value.trim().trim_matches('"').to_string();
            } else if section == "dependencies" {
                deps.push(key.split('.').next().unwrap_or(key).to_string());
            }
        }
    }
    (name, deps)
}

/// E001 over `(package, dependencies)` pairs: each package missing from
/// the layering table and each dependency the table does not allow.
fn layering_violations(packages: &[(String, Vec<String>)]) -> Vec<String> {
    let mut out = Vec::new();
    for (name, deps) in packages {
        let Some((_, allowed)) = LAYERS.iter().find(|(layer, _)| layer == name) else {
            out.push(format!("`{name}` is not in the layering table"));
            continue;
        };
        for dep in deps {
            let short = dep.strip_prefix("execmig-").unwrap_or_default();
            if !allowed.split_whitespace().any(|a| a == short) {
                out.push(format!("`{name}` may not depend on `{dep}`"));
            }
        }
    }
    out
}

/// One source file with its comments and string, char and byte literals
/// blanked, line breaks kept, and cut at its test module, which clippy's
/// `items_after_test_module` keeps last. Block comments are taken not to
/// nest; none in the workspace do.
fn code(src: &str) -> String {
    let mut c: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < c.len() {
        let at = |k: usize, s: &str| s.chars().zip(k..).all(|(ch, j)| c.get(j) == Some(&ch));
        let word = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
        let r = i + usize::from(at(i, "br"));
        let h = c[r + 1..].iter().take_while(|&&ch| ch == '#').count();
        let raw = !word && c[r] == 'r' && at(r + 1 + h, "\"");
        // (opener length, closer, whether `\` escapes); `'a` is a lifetime.
        let (len, close, escapes) = match c[i] {
            _ if raw => (r + 2 + h - i, format!("\"{}", "#".repeat(h)), false),
            '/' if at(i, "//") => (2, "\n".into(), false),
            '/' if at(i, "/*") => (2, "*/".into(), false),
            '"' => (1, "\"".into(), true),
            '\'' if at(i + 1, "\\") || at(i + 2, "'") => (1, "'".into(), true),
            _ => {
                i += 1;
                continue;
            }
        };
        let mut j = i + len;
        while j < c.len() && !at(j, &close) {
            j += if escapes && c[j] == '\\' { 2 } else { 1 };
        }
        let end = (j + close.len()).min(c.len());
        for ch in c[i..end].iter_mut().filter(|ch| **ch != '\n') {
            *ch = ' ';
        }
        i = end;
    }
    let text: String = c.into_iter().collect();
    let mut tests = text.match_indices("#[cfg(test)]");
    let module = tests.find(|(k, _)| text[k + 12..].trim_start().starts_with("mod "));
    text[..module.map_or(text.len(), |(k, _)| k)].to_string()
}

/// `code` split into runs of letters, digits and `_`, and single other characters.
fn words(code: &str) -> Vec<&str> {
    let is_word = |ch: char| ch.is_alphanumeric() || ch == '_';
    let (mut out, mut rest) = (Vec::new(), code.trim_start());
    while let Some(ch) = rest.chars().next() {
        let len = if is_word(ch) {
            rest.find(|c: char| !is_word(c)).unwrap_or(rest.len())
        } else {
            ch.len_utf8()
        };
        out.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    out
}

/// Whether word `k` of `w` is `f32`, `f64` or starts a float literal:
/// `2.`, `0.5`, `1e3`, `3f32`, but not `x.0`, `0..n` or `1.max(2)`.
fn is_float(w: &[&str], k: usize) -> bool {
    let word = |d: isize| w.get(k.wrapping_add_signed(d)).copied().unwrap_or("");
    let digit = word(0).starts_with(|ch: char| ch.is_ascii_digit());
    let radix = ["0x", "0o", "0b"].iter().any(|p| word(0).starts_with(p));
    let field = word(-1) == "." && word(-2) != ".";
    let suffix = word(0).trim_start_matches(|ch: char| ch.is_ascii_digit() || ch == '_');
    let method = word(2).starts_with(|ch: char| ch.is_alphabetic() || ch == '_');
    let fraction = word(1) == "." && word(2) != "." && !method;
    let exponent = suffix.starts_with(['e', 'E', 'f']);
    matches!(word(0), "f32" | "f64") || (digit && !radix && !field && (exponent || fraction))
}

/// E005: each line of `src`'s [`code`] with an `f32`, `f64` or float literal.
fn floats(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (n, line) in code(src).lines().enumerate() {
        let w = words(line);
        if (0..w.len()).any(|k| is_float(&w, k)) {
            out.push(format!("line {}: {}", n + 1, line.trim()));
        }
    }
    out
}

/// E008 over one crate's [`code`]: each `pub struct …Config`, and whether
/// an `impl_to_json!(Name` or an `impl ToJson for Name` serialises it.
fn configs(code: &str) -> Vec<(String, bool)> {
    let w = words(code);
    let (mut impls, mut out) = (Vec::new(), Vec::new());
    for x in w.windows(4) {
        if let ["impl_to_json", "!", "(", n] | ["impl", "ToJson", "for", n] = *x {
            impls.push(n);
        }
    }
    for x in w.windows(3) {
        if let ["pub", "struct", n] = *x {
            if n.ends_with("Config") {
                out.push((n.to_string(), impls.contains(&n)));
            }
        }
    }
    out
}

#[test]
fn e001_dependencies_follow_the_layering() {
    let found: Vec<_> = packages().iter().map(|(toml, _)| manifest(toml)).collect();
    let bad = layering_violations(&found);
    assert!(bad.is_empty(), "E001:\n{}", bad.join("\n"));
    assert_eq!(found.len(), LAYERS.len(), "E001 scan missed a package");
    let lock = read("Cargo.lock");
    let foreign = lock.lines().find(|l| l.starts_with("source ="));
    assert_eq!(foreign, None, "E001: Cargo.lock resolves an outside crate");
}

#[test]
fn e004_e005_hot_files_deny_panics_and_floats() {
    for hot in HOT.split_whitespace() {
        let (krate, file) = hot.split_once('/').expect("crate/file");
        let src = read(format!("crates/{krate}/src/{file}.rs"));
        let deny = code(&src).contains("#![deny(clippy::panic)]");
        assert!(deny, "E004: {hot} must deny `clippy::panic`");
        let found = floats(&src);
        assert!(found.is_empty(), "E005: {hot}:\n{}", found.join("\n"));
    }
}

#[test]
fn e008_every_config_serialises() {
    let mut seen = Vec::new();
    for (_, files) in packages() {
        let code: String = files.iter().map(|f| code(f)).collect();
        for (name, serialised) in configs(&code) {
            assert!(serialised, "E008: `{name}` has no ToJson impl in its crate");
            seen.push(name);
        }
    }
    for name in ["MachineConfig", "ControllerConfig"] {
        assert!(seen.iter().any(|s| s == name), "E008 scan missed {name}");
    }
}

#[test]
fn runtime_invariants_have_assert_messages() {
    let design = read("DESIGN.md");
    let rows = design.lines().filter_map(|l| l.strip_prefix("| I"));
    let ids: Vec<_> = rows.filter_map(|l| l.split_once(" | runtime |")).collect();
    assert!(!ids.is_empty(), "DESIGN.md §7 lists no runtime invariant");
    let all: String = packages().into_iter().flat_map(|(_, f)| f).collect();
    for (id, _) in ids {
        assert!(all.contains(&format!("\"I{id}:")), "no \"I{id}:\" message");
    }
}

#[test]
fn layering_scan_flags_bad_dependencies_and_unknown_packages() {
    let (name, deps) = manifest(
        "[package]\nname = \"execmig-cache\" # the cache\n\n[dependencies]\n\
         execmig-trace.workspace = true\nexecmig-obs = { path = \"../obs\" }\n\
         serde = \"1\"\n[dependencies.execmig-machine]\nworkspace = true\n\
         [dev-dependencies]\nexecmig-experiments.workspace = true\n\
         [workspace.dependencies]\nexecmig-check = { path = \"crates/check\" }\n",
    );
    let parsed = ["execmig-trace", "execmig-obs", "serde", "execmig-machine"];
    assert_eq!(deps, parsed);
    let bad = layering_violations(&[(name, deps), ("execmig-lint".into(), vec![])]);
    let expected = [
        "`execmig-cache` may not depend on `serde`",
        "`execmig-cache` may not depend on `execmig-machine`",
        "`execmig-lint` is not in the layering table",
    ];
    assert_eq!(bad, expected);
}

#[test]
fn float_scan_flags_floats_outside_tests_comments_and_literals() {
    let src = "fn rate(m: u64) -> f64 {\n    let x = 0.5;\n    m as u64\n}\n";
    let expected = ["line 1: fn rate(m: u64) -> f64 {", "line 2: let x = 0.5;"];
    assert_eq!(floats(src), expected);
    for float in "2. 0.5 1e3 1e-3 1.5E+2 3f32 7_f64 0..1.0 f32".split(' ') {
        assert_eq!(floats(float).len(), 1, "{float}");
    }
    let clean = r###"//! §3.2: 16-bit, not 0.5.
/// let v = 1.5f64;
fn f<'a>(t: (u64, (u8, u8)), n: usize, s: &'a str) -> u64 {
    /* 2.0 f64 */
    let _ = ("0.5 f64 \" 1.0", r#"1.5 "f32""#, br"2.5", '.', b'.', '\'', s);
    let _ = (t.1.0, 1.max(2), 0x1e3, 0b1, 1_000u64, 0..n, 1..=n);
    t.0 // 0.25
}
#[cfg(test)]
mod tests {
    const HALF: f64 = 0.5;
}
"###;
    assert_eq!(floats(clean), Vec::<String>::new());
}

#[test]
fn config_scan_pairs_configs_with_to_json_impls() {
    let src = "pub struct ProbeConfig {\n    pub depth: u64,\n}\n\
               pub struct TunableConfig;\nimpl ToJson for TunableConfig {}\n\
               pub struct MachineConfig {}\nimpl_to_json!(MachineConfig { cores });\n\
               pub(crate) struct HiddenConfig;\n/// pub struct DocConfig;\n\
               const S: &str = \"pub struct StrConfig\";\n\
               #[cfg(test)]\nmod tests {\n    pub struct TestConfig;\n}\n";
    let found = configs(&code(src));
    let found: Vec<_> = found.iter().map(|(n, s)| format!("{n} {s}")).collect();
    let expected = "ProbeConfig false, TunableConfig true, MachineConfig true";
    assert_eq!(found.join(", "), expected);
}

#[test]
#[should_panic(expected = "no_such_file.rs")]
fn a_missing_hot_file_fails() {
    read("crates/core/src/no_such_file.rs");
}
