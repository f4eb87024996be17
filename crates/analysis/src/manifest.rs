//! A minimal Cargo.toml reader.
//!
//! Parses exactly the shapes this workspace uses: section headers,
//! `key = value` lines (dotted keys, strings, booleans, inline tables,
//! and possibly multi-line string arrays), and `#` comments. It is not
//! a general TOML parser — unknown constructs are skipped, never
//! fatal, since cargo itself validates the real syntax.

/// One `[dependencies]` entry.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Dependency (package) name.
    pub name: String,
    /// 1-based line of the entry.
    pub line: u32,
}

/// The parts of a manifest the rules look at.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `[package] name`, if the manifest declares a package.
    pub package_name: Option<String>,
    /// Normal `[dependencies]` (dev/build deps are not rule-relevant).
    pub dependencies: Vec<Dep>,
}

/// Parses manifest text. Never fails: unknown lines are skipped.
pub fn parse(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let line_no = (idx + 1) as u32;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            // `[dependencies.foo]` is a whole-section dependency entry.
            if let Some(dep_name) = section.strip_prefix("dependencies.") {
                m.dependencies.push(Dep {
                    name: dep_name.to_string(),
                    line: line_no,
                });
            }
            continue;
        }
        let mut entry = line.clone();
        // Join continuation lines until brackets balance (multi-line arrays).
        while bracket_balance(&entry) > 0 {
            match lines.next() {
                Some((_, more)) => {
                    entry.push(' ');
                    entry.push_str(strip_comment(more).trim());
                }
                None => break,
            }
        }
        let Some((key, value)) = split_kv(&entry) else {
            continue;
        };
        match section.as_str() {
            "package" if key == "name" => {
                m.package_name = Some(unquote(&value));
            }
            "dependencies" => {
                // `foo.workspace = true` and `foo = …` both name `foo`.
                let name = key.split('.').next().unwrap_or(&key).to_string();
                m.dependencies.push(Dep {
                    name,
                    line: line_no,
                });
            }
            _ => {}
        }
    }
    m
}

/// Removes a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_kv(line: &str) -> Option<(String, String)> {
    let eq = line.find('=')?;
    let key = line[..eq].trim().trim_matches('"').to_string();
    let value = line[eq + 1..].trim().to_string();
    if key.is_empty() {
        None
    } else {
        Some((key, value))
    }
}

fn unquote(v: &str) -> String {
    v.trim().trim_matches('"').to_string()
}

fn bracket_balance(line: &str) -> i32 {
    let mut bal = 0;
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => bal += 1,
            ']' if !in_str => bal -= 1,
            _ => {}
        }
    }
    bal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_this_workspace_shape() {
        let m = parse(
            "[package]\nname = \"execmig-machine\" # the machine\n\n\
             [dependencies]\nexecmig-trace.workspace = true\n\
             execmig-obs = { path = \"../obs\" }\n",
        );
        assert_eq!(m.package_name.as_deref(), Some("execmig-machine"));
        assert_eq!(m.dependencies.len(), 2);
        assert_eq!(m.dependencies[0].name, "execmig-trace");
        assert_eq!(m.dependencies[1].name, "execmig-obs");
        assert_eq!(m.dependencies[1].line, 6);
    }

    #[test]
    fn dotted_dependency_section() {
        let m = parse("[dependencies.execmig-obs]\nworkspace = true\n");
        assert_eq!(m.dependencies.len(), 1);
        assert_eq!(m.dependencies[0].name, "execmig-obs");
    }

    #[test]
    fn workspace_dependencies_ignored() {
        let m = parse("[workspace.dependencies]\nexecmig-trace = { path = \"crates/trace\" }\n");
        assert!(m.dependencies.is_empty());
        assert!(m.package_name.is_none());
    }

    #[test]
    fn multi_line_arrays_join() {
        // Unjoined, the closing line would read as a dependency named
        // `], default-features`.
        let m = parse(
            "[dependencies]\nfoo = { path = \"f\", features = [\n  \"a\",\n], \
             default-features = false }\nbar = \"1\"\n",
        );
        let names: Vec<&str> = m.dependencies.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["foo", "bar"]);
    }
}
