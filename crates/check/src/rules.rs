//! The rule engine: six per-file invariant lints (D1–D6) over the
//! lexed token stream, plus the `// taco-check: allow(rule, reason)`
//! pragma that suppresses a finding at its own line or the line below.
//! The cross-file rules D7–D9 live in [`crate::workspace_rules`] and
//! run over the model built by [`crate::model`]; their identifiers and
//! the [`Finding`] type are defined here so pragmas and reports treat
//! all nine rules uniformly.
//!
//! Per-file rules pattern-match on code-token sequences, so
//! occurrences inside strings, raw strings, and comments never fire
//! (the lexer guarantees this), and multi-line call chains still match
//! (token matching is layout-insensitive).

use crate::lexer::TokenKind;
use crate::walker::{FileCtx, FileIndex, FileKind};
use std::collections::BTreeMap;

/// The rule identifiers. Stable: pragmas refer to these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `std::thread::{spawn, scope, Builder}` outside the tensor
    /// worker pool — all parallelism must flow through `tensor::pool`
    /// so `TACO_THREADS` stays the single thread budget and result
    /// partitioning stays deterministic.
    D1ThreadSpawn,
    /// No `Instant::now`/`SystemTime::now` outside the `bench` crate
    /// and the trace clock edge (`trace::span`, `trace::event`) — the
    /// simulation's deadlines must consume simulated timings, so
    /// wall-clock never leaks into simulated time. Other justified
    /// readings (the kernel timers) carry explicit pragmas.
    D2WallClock,
    /// No `HashMap`/`HashSet` in `core`/`sim`/`nn` library code —
    /// their iteration order is nondeterministic; use `BTreeMap`/
    /// `BTreeSet` or indexed `Vec`s.
    D3HashIteration,
    /// No `.unwrap()`/`.expect()` in library code of `core`/`sim`/
    /// `nn`/`data` — return `Result` or document the invariant with an
    /// allow pragma.
    D4Unwrap,
    /// Every `unsafe` keyword must carry an adjacent `SAFETY:`
    /// justification comment (or `# Safety` doc section).
    D5SafetyComment,
    /// No ad-hoc `.sum()`/`.fold()` accumulation in `core` aggregation
    /// paths — use the order-fixed reduction helpers in
    /// `taco_tensor::ops` so reductions can never be silently
    /// reordered or parallelized.
    D6FloatReduction,
    /// Salt discipline (workspace rule): every constant salted into a
    /// seed must be a named `*_SALT`/`*_TAG` constant, the declared
    /// values must be pairwise distinct workspace-wide (two streams
    /// sharing a salt silently correlate), and raw hex literals must
    /// not be XOR'd or split into seeds inline outside tests.
    D7SaltDiscipline,
    /// Env registry (workspace rule): every `TACO_*` environment
    /// variable is read through the `taco_trace::env` accessor module,
    /// declared exactly once in its registry, and documented in
    /// README/EXPERIMENTS — typos and undocumented knobs are findings.
    D8EnvRegistry,
    /// Span contract (workspace rule): span-name string literals in
    /// `sim`/`bench` runtime code must resolve to the `sim::phase`
    /// contract constants (the telemetry schema), and contract
    /// constants with zero use sites are dangling.
    D9SpanContract,
}

/// All rules, in report order.
pub const ALL_RULES: [RuleId; 9] = [
    RuleId::D1ThreadSpawn,
    RuleId::D2WallClock,
    RuleId::D3HashIteration,
    RuleId::D4Unwrap,
    RuleId::D5SafetyComment,
    RuleId::D6FloatReduction,
    RuleId::D7SaltDiscipline,
    RuleId::D8EnvRegistry,
    RuleId::D9SpanContract,
];

impl RuleId {
    /// Short stable id used in terminal output and pragmas.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D1ThreadSpawn => "D1",
            RuleId::D2WallClock => "D2",
            RuleId::D3HashIteration => "D3",
            RuleId::D4Unwrap => "D4",
            RuleId::D5SafetyComment => "D5",
            RuleId::D6FloatReduction => "D6",
            RuleId::D7SaltDiscipline => "D7",
            RuleId::D8EnvRegistry => "D8",
            RuleId::D9SpanContract => "D9",
        }
    }

    /// Human-readable slug accepted in pragmas alongside the id.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::D1ThreadSpawn => "thread-spawn",
            RuleId::D2WallClock => "wall-clock",
            RuleId::D3HashIteration => "hash-iteration",
            RuleId::D4Unwrap => "unwrap",
            RuleId::D5SafetyComment => "safety-comment",
            RuleId::D6FloatReduction => "float-reduction",
            RuleId::D7SaltDiscipline => "salt-discipline",
            RuleId::D8EnvRegistry => "env-registry",
            RuleId::D9SpanContract => "span-contract",
        }
    }

    /// Parses an id (`D4`) or slug (`unwrap`) as written in pragmas.
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.slug() == s)
    }
}

/// One diagnostic. `file` is workspace-relative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Second anchor for cross-file findings (e.g. the *other* salt
    /// declaration sharing the value, or the registry the env var is
    /// missing from). A pragma at either anchor suppresses the
    /// finding.
    pub related: Option<(String, u32)>,
}

impl Finding {
    /// A single-location finding.
    pub fn new(rule: RuleId, file: impl Into<String>, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            message,
            related: None,
        }
    }

    /// Attaches the secondary anchor (builder style).
    pub fn with_related(mut self, file: impl Into<String>, line: u32) -> Finding {
        self.related = Some((file.into(), line));
        self
    }
}

/// Crates whose library code must be order-deterministic (D3).
const DETERMINISTIC_CRATES: [&str; 3] = ["core", "sim", "nn"];
/// Crates whose library code must be panic-free (D4).
const PANIC_FREE_CRATES: [&str; 4] = ["core", "sim", "nn", "data"];
/// Crates allowed to read the wall clock wholesale (D2): the bench
/// harness measures wall time by design.
const WALL_CLOCK_CRATES: [&str; 1] = ["bench"];
/// The trace files that *define* the clock edge (span timers, event
/// timestamps). The rest of the trace crate is held to D2 like
/// everyone else and must pragma each justified reading.
const WALL_CLOCK_FILES: [&str; 2] = ["crates/trace/src/span.rs", "crates/trace/src/event.rs"];
/// The one file allowed to create threads (D1).
const POOL_FILE: &str = "crates/tensor/src/pool.rs";

/// Runs every rule over one lexed file and returns *unsuppressed*
/// findings: pragma suppression is applied here. `suppressed` counts
/// findings silenced by a pragma.
pub fn check_file(ctx: &FileCtx, idx: &FileIndex, suppressed: &mut usize) -> Vec<Finding> {
    let pragmas = collect_pragmas(idx);
    let mut raw = Vec::new();
    rule_d1(ctx, idx, &mut raw);
    rule_d2(ctx, idx, &mut raw);
    rule_d3(ctx, idx, &mut raw);
    rule_d4(ctx, idx, &mut raw);
    rule_d5(ctx, idx, &mut raw);
    rule_d6(ctx, idx, &mut raw);
    pragma_diagnostics(ctx, &pragmas, &mut raw);
    raw.retain(|f| {
        let hit = pragma_allows(&pragmas, f.rule, f.line);
        if hit {
            *suppressed += 1;
        }
        !hit
    });
    raw.sort_by_key(|f| (f.line, f.rule));
    raw
}

/// A parsed pragma: which rules it allows, and whether it carried a
/// reason (pragmas without reasons are themselves diagnosed).
pub struct Pragma {
    rules: Vec<RuleId>,
    has_reason: bool,
    raw: String,
}

/// Pragmas by line. Public so the workspace pass in [`crate::run`] can
/// re-check cross-file findings against each anchor file's pragmas.
pub fn collect_pragmas(idx: &FileIndex) -> BTreeMap<u32, Vec<Pragma>> {
    let mut out: BTreeMap<u32, Vec<Pragma>> = BTreeMap::new();
    for (&line, texts) in &idx.comments {
        for text in texts {
            let Some(rest) = text.trim().strip_prefix("taco-check:") else {
                continue;
            };
            let rest = rest.trim();
            let Some(body) = rest
                .strip_prefix("allow(")
                .and_then(|b| b.rfind(')').map(|end| &b[..end]))
            else {
                out.entry(line).or_default().push(Pragma {
                    rules: Vec::new(),
                    has_reason: false,
                    raw: text.trim().to_string(),
                });
                continue;
            };
            // allow(rule, reason...) — rule up to the first comma, the
            // remainder is the mandatory reason.
            let (rule_part, reason) = match body.split_once(',') {
                Some((r, why)) => (r.trim(), why.trim()),
                None => (body.trim(), ""),
            };
            out.entry(line).or_default().push(Pragma {
                rules: RuleId::parse(rule_part).into_iter().collect(),
                has_reason: !reason.is_empty(),
                raw: text.trim().to_string(),
            });
        }
    }
    out
}

/// A finding at `line` is suppressed by a well-formed pragma on the
/// same line (trailing comment) or the line directly above.
pub fn pragma_allows(pragmas: &BTreeMap<u32, Vec<Pragma>>, rule: RuleId, line: u32) -> bool {
    [line, line.saturating_sub(1)].iter().any(|l| {
        pragmas
            .get(l)
            .is_some_and(|ps| ps.iter().any(|p| p.has_reason && p.rules.contains(&rule)))
    })
}

/// Malformed pragmas are findings too: a pragma that names no valid
/// rule or omits the reason would otherwise silently fail to suppress.
fn pragma_diagnostics(ctx: &FileCtx, pragmas: &BTreeMap<u32, Vec<Pragma>>, out: &mut Vec<Finding>) {
    for (&line, ps) in pragmas {
        for p in ps {
            if p.rules.is_empty() {
                out.push(Finding::new(
                    RuleId::D5SafetyComment, // nearest "hygiene" bucket
                    ctx.rel_path.clone(),
                    line,
                    format!(
                        "malformed taco-check pragma `{}`: expected `taco-check: allow(rule, reason)` with rule one of D1-D9 or its slug",
                        p.raw
                    ),
                ));
            } else if !p.has_reason {
                out.push(Finding::new(
                    p.rules[0],
                    ctx.rel_path.clone(),
                    line,
                    format!(
                        "pragma `{}` is missing its reason: write `taco-check: allow({}, why this is sound)`",
                        p.raw,
                        p.rules[0].slug()
                    ),
                ));
            }
        }
    }
}

/// Does the code token at `i` start the `::`-joined path segment
/// `first::second`?
fn path_pair(idx: &FileIndex, i: usize, first: &str, seconds: &[&str]) -> Option<(u32, String)> {
    let code = &idx.code;
    match (
        &code[i].kind,
        code.get(i + 1),
        code.get(i + 2),
        code.get(i + 3),
    ) {
        (TokenKind::Ident(a), Some(c1), Some(c2), Some(b))
            if a == first
                && c1.kind == TokenKind::Punct(':')
                && c2.kind == TokenKind::Punct(':') =>
        {
            if let TokenKind::Ident(second) = &b.kind {
                if seconds.contains(&second.as_str()) {
                    return Some((code[i].line, format!("{first}::{second}")));
                }
            }
            None
        }
        _ => None,
    }
}

/// Shared scope gate: rules that guard *runtime* determinism apply to
/// library, binary, and example code, and never to test regions.
fn in_runtime_scope(ctx: &FileCtx, idx: &FileIndex, line: u32) -> bool {
    matches!(ctx.kind, FileKind::Lib | FileKind::Bin | FileKind::Example)
        && !idx.in_test_region(line)
}

fn rule_d1(ctx: &FileCtx, idx: &FileIndex, out: &mut Vec<Finding>) {
    if ctx.rel_path == POOL_FILE {
        return;
    }
    for i in 0..idx.code.len() {
        if let Some((line, what)) = path_pair(idx, i, "thread", &["spawn", "scope", "Builder"]) {
            if in_runtime_scope(ctx, idx, line) {
                out.push(Finding::new(
                    RuleId::D1ThreadSpawn,
                    ctx.rel_path.clone(),
                    line,
                    format!(
                        "`{what}` outside tensor::pool: route parallelism through the shared worker pool so TACO_THREADS stays the single thread budget"
                    ),
                ));
            }
        }
    }
}

fn rule_d2(ctx: &FileCtx, idx: &FileIndex, out: &mut Vec<Finding>) {
    if WALL_CLOCK_CRATES.contains(&ctx.crate_name.as_str())
        || WALL_CLOCK_FILES.contains(&ctx.rel_path.as_str())
    {
        return;
    }
    for i in 0..idx.code.len() {
        let hit = path_pair(idx, i, "Instant", &["now"])
            .or_else(|| path_pair(idx, i, "SystemTime", &["now"]));
        if let Some((line, what)) = hit {
            if in_runtime_scope(ctx, idx, line) {
                out.push(Finding::new(
                    RuleId::D2WallClock,
                    ctx.rel_path.clone(),
                    line,
                    format!(
                        "`{what}` outside trace/bench: simulated time must come from the fault plan's deadline or taco-trace spans, never the wall clock"
                    ),
                ));
            }
        }
    }
}

fn rule_d3(ctx: &FileCtx, idx: &FileIndex, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib || !DETERMINISTIC_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for t in &idx.code {
        if let TokenKind::Ident(name) = &t.kind {
            if (name == "HashMap" || name == "HashSet") && !idx.in_test_region(t.line) {
                out.push(Finding::new(
                    RuleId::D3HashIteration,
                    ctx.rel_path.clone(),
                    t.line,
                    format!(
                        "`{name}` in deterministic crate `{}`: iteration order is nondeterministic; use BTreeMap/BTreeSet or an indexed Vec",
                        ctx.crate_name
                    ),
                ));
            }
        }
    }
}

fn rule_d4(ctx: &FileCtx, idx: &FileIndex, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib || !PANIC_FREE_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let code = &idx.code;
    for i in 0..code.len() {
        let TokenKind::Ident(name) = &code[i].kind else {
            continue;
        };
        if name != "unwrap" && name != "expect" {
            continue;
        }
        let preceded_by_dot = i > 0 && code[i - 1].kind == TokenKind::Punct('.');
        let followed_by_paren =
            matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct('('));
        if preceded_by_dot && followed_by_paren && !idx.in_test_region(code[i].line) {
            out.push(Finding::new(
                RuleId::D4Unwrap,
                ctx.rel_path.clone(),
                code[i].line,
                format!(
                    "`.{name}()` in library code of `{}`: return a Result, or annotate the invariant with `taco-check: allow(unwrap, reason)`",
                    ctx.crate_name
                ),
            ));
        }
    }
}

fn rule_d5(ctx: &FileCtx, idx: &FileIndex, out: &mut Vec<Finding>) {
    for t in &idx.code {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        if name != "unsafe" {
            continue;
        }
        if !has_safety_comment(idx, t.line) {
            out.push(Finding::new(
                RuleId::D5SafetyComment,
                ctx.rel_path.clone(),
                t.line,
                "`unsafe` without an adjacent `// SAFETY:` comment justifying why the invariants hold".to_string(),
            ));
        }
    }
}

/// Looks for a `SAFETY`/`# Safety` comment adjacent to the `unsafe`
/// keyword at `line`: on the line itself, or walking upward through
/// comment lines, attribute lines, statement-continuation lines, and
/// stacked `unsafe` items, stopping at the previous statement boundary
/// (a line ending in `;`, `{`, or `}`).
fn has_safety_comment(idx: &FileIndex, line: u32) -> bool {
    let marker = |l: u32| {
        idx.comments_on(l)
            .iter()
            .any(|t| t.contains("SAFETY") || t.contains("# Safety"))
    };
    if marker(line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    for _ in 0..25 {
        if l == 0 {
            return false;
        }
        if marker(l) {
            return true;
        }
        match idx.line_edges.get(&l) {
            // Blank or comment-only line: keep walking.
            None => {}
            Some((first, last)) => {
                let is_attr = *first == TokenKind::Punct('#');
                let stacked_unsafe = idx.unsafe_impl_lines.contains(&l);
                let boundary = matches!(
                    last,
                    TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}')
                );
                if !is_attr && !stacked_unsafe && boundary {
                    return false;
                }
            }
        }
        l -= 1;
    }
    false
}

fn rule_d6(ctx: &FileCtx, idx: &FileIndex, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib || ctx.crate_name != "core" {
        return;
    }
    let code = &idx.code;
    for i in 0..code.len() {
        let TokenKind::Ident(name) = &code[i].kind else {
            continue;
        };
        if name != "sum" && name != "fold" {
            continue;
        }
        let preceded_by_dot = i > 0 && code[i - 1].kind == TokenKind::Punct('.');
        // `.sum()`, `.sum::<f64>()`, `.fold(`.
        let followed = matches!(
            code.get(i + 1),
            Some(t) if t.kind == TokenKind::Punct('(') || t.kind == TokenKind::Punct(':')
        );
        if preceded_by_dot && followed && !idx.in_test_region(code[i].line) {
            out.push(Finding::new(
                RuleId::D6FloatReduction,
                ctx.rel_path.clone(),
                code[i].line,
                format!(
                    "ad-hoc `.{name}` accumulation in core aggregation: use the order-fixed helpers in taco_tensor::ops (sum/sum_f64/dot_f64/min_max)"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::walker::classify;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let ctx = classify(path);
        let idx = FileIndex::build(&lex(src));
        let mut suppressed = 0;
        check_file(&ctx, &idx, &mut suppressed)
    }

    #[test]
    fn d1_fires_outside_pool_only() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            run("crates/sim/src/x.rs", src)[0].rule,
            RuleId::D1ThreadSpawn
        );
        assert!(run("crates/tensor/src/pool.rs", src).is_empty());
        assert!(run("crates/sim/tests/x.rs", src).is_empty());
    }

    #[test]
    fn d2_exempts_bench_and_only_the_trace_clock_edge() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(run("crates/sim/src/x.rs", src)[0].rule, RuleId::D2WallClock);
        assert!(run("crates/bench/src/x.rs", src).is_empty());
        // Only span.rs/event.rs define the clock edge; the rest of the
        // trace crate needs a pragma per reading.
        assert!(run("crates/trace/src/span.rs", src).is_empty());
        assert!(run("crates/trace/src/event.rs", src).is_empty());
        assert_eq!(
            run("crates/trace/src/perf.rs", src)[0].rule,
            RuleId::D2WallClock
        );
        let pragmad = "fn f() {\n    // taco-check: allow(wall-clock, perf timing only)\n    let t = Instant::now();\n}\n";
        assert!(run("crates/trace/src/perf.rs", pragmad).is_empty());
    }

    #[test]
    fn d4_matches_method_calls_not_idents() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        assert_eq!(run("crates/core/src/x.rs", src)[0].rule, RuleId::D4Unwrap);
        // A function *named* unwrap, not a method call, is fine.
        assert!(run("crates/core/src/x.rs", "fn unwrap() {}\n").is_empty());
        // Out-of-scope crate.
        assert!(run("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn d5_accepts_adjacent_and_doc_safety() {
        let bad = "fn f() { unsafe { g(); } }\n";
        assert_eq!(
            run("crates/tensor/src/x.rs", bad)[0].rule,
            RuleId::D5SafetyComment
        );
        let good = "fn f() {\n    // SAFETY: g has no invariants.\n    unsafe { g(); }\n}\n";
        assert!(run("crates/tensor/src/x.rs", good).is_empty());
        let doc = "/// # Safety\n/// Caller must own the pointer.\n#[inline]\nunsafe fn g() {}\n";
        assert!(run("crates/tensor/src/x.rs", doc).is_empty());
    }

    #[test]
    fn d5_stops_at_statement_boundaries() {
        let src = "fn f() {\n    // SAFETY: only covers the next statement.\n    unsafe { a(); }\n    unsafe { b(); }\n}\n";
        let f = run("crates/tensor/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn d5_one_comment_covers_stacked_unsafe_impls() {
        let src = "// SAFETY: disjoint index ranges only.\nunsafe impl<T> Send for P<T> {}\nunsafe impl<T> Sync for P<T> {}\n";
        assert!(run("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn d6_matches_sum_and_fold_in_core_only() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum() }\n";
        assert_eq!(
            run("crates/core/src/x.rs", src)[0].rule,
            RuleId::D6FloatReduction
        );
        assert!(run("crates/sim/src/x.rs", src).is_empty());
        let turbo = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
        assert_eq!(run("crates/core/src/x.rs", turbo).len(), 1);
        let fold = "fn f(v: &[f32]) -> f32 { v.iter().fold(0.0, |a, b| a + b) }\n";
        assert_eq!(run("crates/core/src/x.rs", fold).len(), 1);
    }

    #[test]
    fn pragma_suppresses_with_reason_only() {
        let with = "fn f(x: Option<u8>) {\n    // taco-check: allow(unwrap, invariant documented here)\n    x.unwrap();\n}\n";
        assert!(run("crates/core/src/x.rs", with).is_empty());
        let trailing =
            "fn f(x: Option<u8>) {\n    x.unwrap(); // taco-check: allow(D4, same line works)\n}\n";
        assert!(run("crates/core/src/x.rs", trailing).is_empty());
        let without =
            "fn f(x: Option<u8>) {\n    // taco-check: allow(unwrap)\n    x.unwrap();\n}\n";
        let f = run("crates/core/src/x.rs", without);
        // Both the unsuppressed finding and the missing-reason pragma fire.
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn pragma_inside_string_is_inert() {
        let src = "fn f(x: Option<u8>) {\n    let _s = \"taco-check: allow(unwrap, fake)\";\n    x.unwrap();\n}\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::D4Unwrap);
    }

    #[test]
    fn malformed_pragma_is_reported() {
        let src = "// taco-check: allow(D42, no such rule)\nfn f() {}\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("malformed"));
    }

    #[test]
    fn test_regions_are_exempt_from_runtime_rules() {
        let src = "fn lib(x: Option<u8>) -> Option<u8> { x }\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }
}
