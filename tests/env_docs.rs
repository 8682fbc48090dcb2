//! The README's environment-variable table lists exactly the
//! `SAFETY_OPT_*` variables the code reads.
//!
//! "Read" means the variable's name appears as a whole string literal
//! (`"SAFETY_OPT_…"`) in a Rust source file under `crates/`, `src/` or
//! `examples/` (the offline stand-ins in `crates/compat` are not part
//! of the program). The table is the one under the README's
//! "### Environment variables" heading.

use std::collections::BTreeSet;
use std::path::Path;

const PREFIX: &str = "SAFETY_OPT_";

fn is_name_char(c: char) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'
}

/// Every `"SAFETY_OPT_…"` string literal in `text`.
fn quoted_names(text: &str, out: &mut BTreeSet<String>) {
    let needle = format!("\"{PREFIX}");
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let tail = &rest[at + 1..];
        let len = tail.find(|c| !is_name_char(c)).unwrap_or(tail.len());
        if tail[len..].starts_with('"') {
            out.insert(tail[..len].to_owned());
        }
        rest = &tail[len..];
    }
}

fn scan(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "compat" && name != "target" {
                scan(&path, out);
            }
        } else if name.ends_with(".rs") {
            quoted_names(&std::fs::read_to_string(&path).unwrap(), out);
        }
    }
}

/// The variable names of the README's environment table (first column).
fn table_names(readme: &str) -> BTreeSet<String> {
    let section = readme
        .split("\n### Environment variables\n")
        .nth(1)
        .expect("README has an Environment variables section");
    let mut names = BTreeSet::new();
    for line in section.lines().skip_while(|l| !l.starts_with('|')) {
        if !line.starts_with('|') {
            break;
        }
        let first = line.split('|').nth(1).unwrap_or("").trim();
        if let Some(name) = first.strip_prefix('`').and_then(|n| n.strip_suffix('`')) {
            if name.starts_with(PREFIX) {
                names.insert(name.to_owned());
            }
        }
    }
    names
}

#[test]
fn readme_env_table_matches_the_variables_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    for dir in ["crates", "src", "examples"] {
        scan(&root.join(dir), &mut read);
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let documented = table_names(&readme);
    assert!(!read.is_empty() && !documented.is_empty());
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "read but missing from the README env table: {undocumented:?}; \
         listed in the table but read nowhere: {unread:?}"
    );
}

#[test]
fn scanner_finds_whole_literals_only() {
    let mut out = BTreeSet::new();
    quoted_names(
        r#"var("SAFETY_OPT_A"); "SAFETY_OPT_B must be set"; // SAFETY_OPT_C"#,
        &mut out,
    );
    assert_eq!(out.into_iter().collect::<Vec<_>>(), ["SAFETY_OPT_A"]);
}
