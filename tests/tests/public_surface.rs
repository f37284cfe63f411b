//! Guard for the public surface: every `pub` item in `crates/*/src` — a
//! function (`pub fn`, `pub const fn`), struct, enum, type alias, trait,
//! constant or static — must be named by some other `.rs` file under
//! `crates/`, `tests/` or `examples/`: a binary, an example, another crate,
//! an integration test or bench, or the `e2e_bench` package. An item only
//! its own file names should be private; one that nothing else uses, or
//! only its own file's tests, should be deleted with those tests. The few
//! types and constants that stay `pub` regardless are listed in
//! [`KEPT_PUB`], each with its reason.
//!
//! The search is by word, outside `//` comment lines, so a name mentioned
//! only in documentation does not count as a reader.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Types and constants that only their own file names but stay `pub`:
/// `(file, name, reason)`.
const KEPT_PUB: &[(&str, &str, &str)] = &[
    (
        "crates/bench/src/session.rs",
        "Handler",
        "the handler type in `serve`'s signature, which both daemons call",
    ),
    (
        "crates/bench/src/session.rs",
        "MAX_REQUEST_LINE",
        "the request-line cap SERVICE.md documents; the daemon loop is narrowed when it next changes",
    ),
    (
        "crates/core/src/metrics.rs",
        "Counter",
        "returned by `MetricsRegistry::counter`",
    ),
    (
        "crates/core/src/metrics.rs",
        "Gauge",
        "returned by `MetricsRegistry::gauge`",
    ),
    (
        "crates/core/src/metrics.rs",
        "HistogramHandle",
        "returned by `MetricsRegistry::histogram`",
    ),
    (
        "crates/core/src/runner.rs",
        "ProgressSnapshot",
        "returned by `RunnerProgress::snapshot`",
    ),
    (
        "crates/core/src/service.rs",
        "CacheStats",
        "returned by `DiskResultCache::stats`",
    ),
    (
        "crates/core/src/service.rs",
        "CACHE_FORMAT_VERSION",
        "the cache format in every `code_version`; narrowed when the job-key rework bumps it",
    ),
    (
        "crates/noc-sim/src/network.rs",
        "StepReport",
        "returned by `Network::step`",
    ),
    (
        "crates/core/src/wire.rs",
        "Decoded",
        "the wire codec's kind vocabulary; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Kind",
        "the wire codec's kind vocabulary; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Group",
        "the wire codec's kind vocabulary; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Fields",
        "the wire codec's kind vocabulary; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Int",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "List",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Map",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Nullable",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Pair",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Baseline",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "Pattern",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "SumHiLo",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
    (
        "crates/core/src/wire.rs",
        "CacheMetrics",
        "a `message!` field kind; narrowed when the codec next changes",
    ),
];

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

/// The item a line's leading `pub` defines: whether it is a function, and
/// its name.
fn defined_item(line: &str) -> Option<(bool, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let (is_fn, rest) = match rest.strip_prefix("const fn ") {
        Some(rest) => (true, rest),
        None => [
            "fn ", "struct ", "enum ", "type ", "trait ", "const ", "static ",
        ]
        .iter()
        .find_map(|kw| Some((*kw == "fn ", rest.strip_prefix(kw)?)))?,
    };
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| (is_fn, &rest[..end]))
}

/// Every `pub` item in `crates/*/src` that no other file names, as
/// `(is_fn, file, name)`.
fn orphans() -> Vec<(bool, String, String)> {
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
        // This file's allow-list names the items it keeps; it reads none.
        if rel == Path::new("tests/tests/public_surface.rs") {
            continue;
        }
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
                if let Some((is_fn, name)) = defined_item(line) {
                    definitions.push((i, is_fn, rel.display().to_string(), name.to_string()));
                }
            }
        }
    }
    assert!(
        definitions.iter().any(|d| d.1) && definitions.iter().any(|d| !d.1),
        "the scan found no pub fn or no pub type in crates/*/src"
    );
    definitions
        .into_iter()
        .filter(|(i, _, _, name)| readers[name].iter().all(|reader| reader == i))
        .map(|(_, is_fn, file, name)| (is_fn, file, name))
        .collect()
}

#[test]
fn every_pub_fn_has_a_reader_outside_its_file() {
    let orphans: Vec<String> = (orphans().into_iter())
        .filter(|(is_fn, _, _)| *is_fn)
        .map(|(_, file, name)| format!("{file}: {name}"))
        .collect();
    assert!(
        orphans.is_empty(),
        "{} pub fn(s) that no other file reads; make each private or delete it:\n{}",
        orphans.len(),
        orphans.join("\n")
    );
}

#[test]
fn every_pub_type_and_constant_has_a_reader_outside_its_file() {
    let found: Vec<(String, String)> = (orphans().into_iter())
        .filter(|(is_fn, _, _)| !*is_fn)
        .map(|(_, file, name)| (file, name))
        .collect();
    let kept = |file: &str, name: &str| KEPT_PUB.iter().any(|k| (k.0, k.1) == (file, name));
    let unlisted: Vec<String> = (found.iter())
        .filter(|(file, name)| !kept(file, name))
        .map(|(file, name)| format!("{file}: {name}"))
        .collect();
    assert!(
        unlisted.is_empty(),
        "{} pub type(s) or constant(s) that no other file reads; make each private, \
         delete it, or list it in KEPT_PUB with its reason:\n{}",
        unlisted.len(),
        unlisted.join("\n")
    );
    // A listed item that gained a reader or went away leaves the list.
    let stale: Vec<&str> = (KEPT_PUB.iter())
        .filter(|k| {
            !found
                .iter()
                .any(|(file, name)| (file.as_str(), name.as_str()) == (k.0, k.1))
        })
        .map(|k| k.1)
        .collect();
    assert!(
        stale.is_empty(),
        "KEPT_PUB entries that are no longer orphans: {stale:?}"
    );
}
