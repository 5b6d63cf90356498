//! taco-check: the workspace invariant linter.
//!
//! TACO's evaluation depends on bit-identical trajectories for a fixed
//! seed at any `TACO_THREADS`. The golden-trajectory fixtures catch
//! drift *after* it happens; this crate enforces the source invariants
//! that prevent it, statically:
//!
//! | rule | slug            | invariant                                            |
//! |------|-----------------|------------------------------------------------------|
//! | D1   | thread-spawn    | threading only via `tensor::pool`                    |
//! | D2   | wall-clock      | no `Instant::now`/`SystemTime::now` outside trace/bench |
//! | D3   | hash-iteration  | no `HashMap`/`HashSet` in core/sim/nn library code   |
//! | D4   | unwrap          | no `.unwrap()`/`.expect()` in core/sim/nn/data library code |
//! | D5   | safety-comment  | every `unsafe` carries a `// SAFETY:` justification  |
//! | D6   | float-reduction | no ad-hoc `.sum()`/`.fold()` in core aggregation     |
//! | D7   | salt-discipline | named seed salts, pairwise-distinct workspace-wide   |
//! | D8   | env-registry    | `TACO_*` reads via `taco_trace::env`, declared + documented |
//! | D9   | span-contract   | span names resolve to the `sim::phase` contract      |
//!
//! D1–D6 are per-file lexical rules; D7–D9 are *cross-file* rules: a
//! collection pass ([`model`]) walks every file building a workspace
//! model (salt constants with values, env read sites and the registry,
//! span-name literals and the phase contract), then the workspace pass
//! ([`workspace_rules`]) checks the model's global invariants. Both
//! passes share one tree walk.
//!
//! The one escape hatch is an inline `// taco-check: allow(rule,
//! reason)` pragma on the finding's line (or the line above); for a
//! cross-file finding, a pragma at either anchor suppresses it. Run as
//! `cargo run -p taco-check` or via the workspace test; diagnostics
//! print `file:line`.
//!
//! The crate has zero dependencies and a hand-rolled lexer
//! ([`lexer`]), so it builds instantly anywhere the workspace builds.

pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod walker;
pub mod workspace_rules;

use report::Report;
use std::path::{Path, PathBuf};

/// Directory names never descended into. `fixtures` keeps seeded-
/// violation test fixtures (and golden-trajectory JSON) out of the
/// real scan; the fixture tests point the checker *at* a fixture tree
/// instead.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "fixtures", "results", "node_modules"];

/// Scans every `.rs` file under `root` (plus the README/
/// EXPERIMENTS docs for the env cross-check) and returns the report.
///
/// Phase 1 walks each file once: the per-file rules run and the
/// collection pass feeds the workspace model. Phase 2 runs the
/// cross-file rules over the model, re-using each file's pragmas so
/// a workspace finding can be suppressed at either of its anchors.
/// Files that cannot be read (I/O error, non-UTF-8) are never
/// silently skipped: they are reported and fail the run.
pub fn run(root: &Path) -> Report {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    files.sort();

    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut unreadable = Vec::new();
    let mut builder = model::ModelBuilder::new();
    let mut pragmas_by_file: Vec<(String, std::collections::BTreeMap<u32, Vec<rules::Pragma>>)> =
        Vec::new();

    for path in &files {
        let rel = rel_path(root, path);
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                unreadable.push(format!("{rel}: {e}"));
                continue;
            }
        };
        let ctx = walker::classify(&rel);
        let idx = walker::FileIndex::build(&lexer::lex(&src));
        findings.extend(rules::check_file(&ctx, &idx, &mut suppressed));
        builder.add_file(&ctx, &idx);
        pragmas_by_file.push((rel, rules::collect_pragmas(&idx)));
    }

    for doc in model::DOC_FILES {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            builder.add_doc(doc, &text);
        }
    }

    let ws_model = builder.finish();
    let mut ws_findings = Vec::new();
    workspace_rules::check(&ws_model, &mut ws_findings);
    let pragma_at = |file: &str, rule: rules::RuleId, line: u32| {
        pragmas_by_file
            .iter()
            .find(|(f, _)| f == file)
            .is_some_and(|(_, p)| rules::pragma_allows(p, rule, line))
    };
    ws_findings.retain(|f| {
        let hit = pragma_at(&f.file, f.rule, f.line)
            || f.related
                .as_ref()
                .is_some_and(|(file, line)| pragma_at(file, f.rule, *line));
        if hit {
            suppressed += 1;
        }
        !hit
    });
    findings.extend(ws_findings);

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Report {
        findings,
        suppressed_by_pragma: suppressed,
        files_scanned: files.len(),
        unreadable,
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The workspace root when running under cargo (`cargo run -p
/// taco-check`, or the workspace test): two levels up from this
/// crate's manifest.
pub fn workspace_root_from_manifest(manifest_dir: &str) -> PathBuf {
    Path::new(manifest_dir)
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}
