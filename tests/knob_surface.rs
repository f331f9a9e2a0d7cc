//! The environment-variable surface is documented where it is read.
//!
//! Every `ADAPTAGG_*` name that appears in the program's source must be
//! a row of README.md's "Environment variables" table, and every row
//! must still have a reader — so the next knob is a visible diff in two
//! places, and a deleted one cannot linger in the docs. Nor may a test, an
//! example or a CI step go on naming (or setting) a variable nobody reads
//! any more.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Every `ADAPTAGG_[A-Z_]+` token in `text`.
fn knob_names(text: &str, out: &mut BTreeSet<String>) {
    const PREFIX: &str = "ADAPTAGG_";
    let mut rest = text;
    while let Some(at) = rest.find(PREFIX) {
        let tail = &rest[at..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(tail.len());
        if len > PREFIX.len() {
            out.insert(tail[..len].to_string());
        }
        rest = &tail[len..];
    }
}

fn scan_rust_sources(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan_rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            knob_names(
                &fs::read_to_string(&path).expect("source file is UTF-8"),
                out,
            );
        }
    }
}

#[test]
fn env_vars_in_source_match_the_readme_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let mut in_source = BTreeSet::new();
    scan_rust_sources(&root.join("src"), &mut in_source);
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        scan_rust_sources(
            &entry.expect("directory entry").path().join("src"),
            &mut in_source,
        );
    }

    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    let section = readme
        .split_once("## Environment variables")
        .expect("README.md has an \"Environment variables\" section")
        .1;
    let mut documented = BTreeSet::new();
    for row in section
        .lines()
        .take_while(|l| !l.starts_with('#'))
        .filter(|l| l.starts_with('|'))
    {
        knob_names(row, &mut documented);
    }

    assert_eq!(
        in_source, documented,
        "left: named in source; right: rows of README.md's table"
    );

    let mut used = BTreeSet::new();
    scan_rust_sources(&root.join("tests"), &mut used);
    scan_rust_sources(&root.join("examples"), &mut used);
    let ci = root.join(".github/workflows/ci.yml");
    knob_names(&fs::read_to_string(ci).expect("ci.yml"), &mut used);
    let unread: Vec<_> = used.difference(&in_source).collect();
    assert!(
        unread.is_empty(),
        "named under tests/, examples/ or in ci.yml, read nowhere: {unread:?}"
    );
}
