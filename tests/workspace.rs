//! Source checks no clippy lint covers (README § Lints): distinct seed
//! salts (D7) and a `TACO_*` registry that matches the docs (D8).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use taco::trace::env::REGISTRY;

/// Every `.rs` file under `dir` (relative to the repository root),
/// as its relative path and its text.
fn rust_files(dir: &Path, out: &mut Vec<(String, String)>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(root.join(dir)).unwrap() {
        let path = entry.unwrap().path();
        let rel = path.strip_prefix(root).unwrap();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(rel, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((rel.to_string_lossy().into_owned(), text));
        }
    }
}

fn files_under(dirs: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for dir in dirs {
        rust_files(Path::new(dir), &mut out);
    }
    out
}

/// A line with its `//` comment dropped.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap()
}

/// Two RNG streams salted with one constant correlate, so every
/// `const *_SALT` / `*_TAG: u64` in the repository has its own value.
#[test]
fn seed_salts_are_pairwise_distinct() {
    let mut seen: BTreeMap<u64, String> = BTreeMap::new();
    for (path, text) in files_under(&["crates", "src", "tests", "examples", "fedbench/src"]) {
        for line in text.lines().map(code) {
            let Some((name, value)) = line
                .split_once("const ")
                .and_then(|(_, d)| d.split_once(": u64 ="))
            else {
                continue;
            };
            if !(name.ends_with("_SALT") || name.ends_with("_TAG")) {
                continue;
            }
            let digits = value.trim().trim_end_matches(';').replace('_', "");
            let value = match digits.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => digits.parse(),
            };
            let value = value.unwrap_or_else(|_| panic!("{}: {name} is not a literal", path));
            if let Some(first) = seen.insert(value, name.to_string()) {
                panic!("{}: {name} repeats the value {value:#x} of {first}", path);
            }
        }
    }
    assert!(seen.len() > 10, "the scan found only {} salts", seen.len());
}

/// Outside tests, a hex literal mixed into a seed is a salt without a
/// name: it belongs in a `*_SALT` / `*_TAG` constant the test above sees.
#[test]
fn no_raw_hex_is_mixed_into_a_seed() {
    let files = files_under(&["crates", "src", "examples"]);
    for (path, text) in files.iter().filter(|(p, _)| !p.contains("/tests/")) {
        let runtime = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for (i, line) in runtime.map(code).enumerate() {
            for (at, _) in line.match_indices("0x") {
                let before = line[..at].trim_end();
                let after =
                    line[at..].trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
                let mixed = ["^", "^=", "split(", "seed_from_u64("]
                    .iter()
                    .any(|p| before.ends_with(p))
                    || after.trim_start().starts_with('^');
                assert!(
                    !mixed,
                    "{}:{}: raw hex in a seed: {}",
                    path,
                    i + 1,
                    line.trim()
                );
            }
        }
    }
}

/// Every registered `TACO_*` variable is documented in README or
/// EXPERIMENTS, and every `TACO_*` name they mention is registered.
#[test]
fn env_registry_matches_the_docs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs: String = ["README.md", "EXPERIMENTS.md"]
        .iter()
        .map(|f| std::fs::read_to_string(root.join(f)).unwrap())
        .collect();
    let mut mentioned = BTreeSet::new();
    for (at, _) in docs.match_indices("TACO_") {
        if !docs[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            let mut word = docs[at..]
                .split(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'));
            mentioned.insert(word.next().unwrap().trim_end_matches('_'));
        }
    }
    mentioned.remove("TACO");
    let registered: BTreeSet<&str> = REGISTRY.iter().map(|v| v.name).collect();
    assert_eq!(
        mentioned, registered,
        "the docs and taco_trace::env::REGISTRY disagree"
    );
}
