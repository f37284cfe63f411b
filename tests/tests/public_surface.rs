//! Guard for the public surface: every `pub fn` (or `pub const fn`) in
//! `crates/*/src` must be named by some other `.rs` file under `crates/`,
//! `tests/` or `examples/` — a binary, an example, another crate, an
//! integration test or bench, or the `e2e_bench` package. A function only
//! its own file calls should be private; one that nothing else calls, or
//! only its own file's tests, should be deleted with those tests.
//!
//! The search is by word, outside `//` comment lines, so a name mentioned
//! only in documentation does not count as a reader.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// The workspace root (this crate lives in `tests/`).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ has a parent")
        .to_path_buf()
}

/// Every `.rs` file under `dir`, skipping build output and hidden folders.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The identifier after a line's leading `pub fn` / `pub const fn`.
fn defined_fn(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

#[test]
fn every_pub_fn_has_a_reader_outside_its_file() {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        rust_files(&root.join(top), &mut files);
    }
    files.sort();
    assert!(files.len() > 50, "found only {} .rs files", files.len());

    // Which files name each word, outside `//` comment lines.
    let mut readers: HashMap<String, HashSet<usize>> = HashMap::new();
    let mut definitions = Vec::new();
    for (i, path) in files.iter().enumerate() {
        let text = std::fs::read_to_string(path).expect("readable source");
        let rel = path.strip_prefix(&root).expect("under the root");
        let parts: Vec<_> = rel.components().map(|c| c.as_os_str()).collect();
        let defines = parts.len() > 3
            && parts[0] == "crates"
            && parts[2] == "src"
            && !parts.iter().any(|p| *p == "e2e_bench");
        for line in text.lines() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for word in line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
            {
                readers.entry(word.to_string()).or_default().insert(i);
            }
            if defines {
                if let Some(name) = defined_fn(line) {
                    definitions.push((i, rel.display().to_string(), name.to_string()));
                }
            }
        }
    }
    assert!(!definitions.is_empty(), "no pub fn found in crates/*/src");

    let orphans: Vec<String> = definitions
        .iter()
        .filter(|(i, _, name)| readers[name].iter().all(|reader| reader == i))
        .map(|(_, file, name)| format!("{file}: {name}"))
        .collect();
    assert!(
        orphans.is_empty(),
        "{} pub fn(s) that no other file reads; make each private or delete it:\n{}",
        orphans.len(),
        orphans.join("\n")
    );
}
