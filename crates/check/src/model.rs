//! The collection pass: builds the cross-file [`WorkspaceModel`] that
//! the workspace rules (D7–D9, [`crate::workspace_rules`]) run over.
//!
//! While [`crate::run`] walks the tree for the per-file rules, it
//! feeds every file's token index through [`ModelBuilder::add_file`],
//! which extracts the determinism-relevant facts:
//!
//! * declared `*_SALT`/`*_TAG` constants and their numeric values
//!   (salt discipline, D7),
//! * raw hex literals mixed into seeds inline (`seed ^ 0x…`,
//!   `rng.split(0x…)`, `seed_from_u64(0x…)`, `seed_tag: 0x…`) (D7),
//! * `env::var("TACO_*")` / `var_os` read sites and the entries of the
//!   central registry in [`ENV_FILE`] (D8),
//! * span-name string literals at span-creation sites in `sim`/`bench`
//!   and the contract constants exported by [`PHASE_FILE`] (D9), plus
//!   `phase::NAME` references so dangling constants can be detected.
//!
//! Doc files (README/EXPERIMENTS) are scanned separately via
//! [`ModelBuilder::add_doc`] for `TACO_*` mentions, so the registry
//! can be cross-checked against what users are told exists.
//!
//! Partial trees (the seeded fixture workspaces) are handled by
//! presence flags: rules needing the registry, the phase contract, or
//! the docs only run when the respective anchor file was scanned.

use crate::lexer::TokenKind;
use crate::walker::{FileCtx, FileIndex, FileKind};

/// The central env registry + accessor module: the only file allowed
/// to read `TACO_*` variables, and the place their names are declared.
pub const ENV_FILE: &str = "crates/trace/src/env.rs";
/// The span-name contract file exporting the phase constants.
pub const PHASE_FILE: &str = "crates/sim/src/phase.rs";
/// Doc files cross-checked against the env registry, relative to the
/// workspace root.
pub const DOC_FILES: [&str; 2] = ["README.md", "EXPERIMENTS.md"];

/// A code location: workspace-relative path + 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loc {
    pub file: String,
    pub line: u32,
}

/// A declared `*_SALT`/`*_TAG` constant with its parsed value.
#[derive(Debug, Clone)]
pub struct SaltDecl {
    pub name: String,
    pub value: u128,
    pub loc: Loc,
}

/// A raw hex literal mixed into a seed outside any named constant.
#[derive(Debug, Clone)]
pub struct RawSeedHex {
    /// The literal as written (`0x9A97`).
    pub text: String,
    /// What it was doing (`^`, `split`, `seed_from_u64`, `seed_tag:`).
    pub context: &'static str,
    pub loc: Loc,
}

/// An env read site `var("TACO_X")` / `var_os("TACO_X")`, or a
/// registry declaration `name: "TACO_X"` inside [`ENV_FILE`], or a
/// `TACO_X` mention in a doc file.
#[derive(Debug, Clone)]
pub struct EnvName {
    pub name: String,
    pub loc: Loc,
}

/// A span-name string literal at a span-creation site.
#[derive(Debug, Clone)]
pub struct SpanUse {
    pub name: String,
    pub loc: Loc,
}

/// A `const NAME: &str = "…"` contract constant in [`PHASE_FILE`].
#[derive(Debug, Clone)]
pub struct PhaseConst {
    pub name: String,
    pub value: String,
    pub loc: Loc,
}

/// Everything the workspace rules need, collected in one pass.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    pub salts: Vec<SaltDecl>,
    pub raw_seed_hex: Vec<RawSeedHex>,
    /// Read sites anywhere in the tree (including [`ENV_FILE`] itself;
    /// the rule exempts that file).
    pub env_reads: Vec<EnvName>,
    /// Registry declarations inside [`ENV_FILE`], in order.
    pub env_decls: Vec<EnvName>,
    /// `TACO_*` mentions in [`DOC_FILES`].
    pub doc_mentions: Vec<EnvName>,
    /// Span-name literals at span-creation sites in `sim`/`bench`.
    pub span_uses: Vec<SpanUse>,
    /// Contract constants exported by [`PHASE_FILE`].
    pub phase_consts: Vec<PhaseConst>,
    /// Names referenced as `phase::NAME` outside [`PHASE_FILE`].
    pub phase_refs: Vec<String>,
    /// Anchor-file presence flags gating the respective rules.
    pub has_env_file: bool,
    pub has_phase_file: bool,
    pub has_docs: bool,
}

/// Accumulates the model file by file.
#[derive(Debug, Default)]
pub struct ModelBuilder {
    model: WorkspaceModel,
}

impl ModelBuilder {
    pub fn new() -> ModelBuilder {
        ModelBuilder::default()
    }

    /// Finishes the pass and returns the model.
    pub fn finish(self) -> WorkspaceModel {
        self.model
    }

    /// Collects one `.rs` file's facts from its token index.
    pub fn add_file(&mut self, ctx: &FileCtx, idx: &FileIndex) {
        if ctx.rel_path == ENV_FILE {
            self.model.has_env_file = true;
            self.collect_env_decls(ctx, idx);
        }
        if ctx.rel_path == PHASE_FILE {
            self.model.has_phase_file = true;
            self.collect_phase_consts(ctx, idx);
        }
        self.collect_env_reads(ctx, idx);
        if runtime_file(ctx) {
            self.collect_salts(ctx, idx);
            self.collect_raw_seed_hex(ctx, idx);
        }
        if matches!(ctx.crate_name.as_str(), "sim" | "bench") {
            if ctx.rel_path != PHASE_FILE {
                self.collect_phase_refs(idx);
            }
            if runtime_file(ctx) {
                self.collect_span_uses(ctx, idx);
            }
        }
    }

    /// Scans a doc file's text for `TACO_*` mentions.
    pub fn add_doc(&mut self, rel_path: &str, text: &str) {
        self.model.has_docs = true;
        for (lineno, line) in text.lines().enumerate() {
            for name in taco_names_in(line) {
                self.model.doc_mentions.push(EnvName {
                    name,
                    loc: Loc {
                        file: rel_path.to_string(),
                        line: lineno as u32 + 1,
                    },
                });
            }
        }
    }

    /// `const NAME_SALT: u64 = 0x…;` — a named salt/tag declaration.
    fn collect_salts(&mut self, ctx: &FileCtx, idx: &FileIndex) {
        let code = &idx.code;
        for i in 0..code.len() {
            let TokenKind::Ident(kw) = &code[i].kind else {
                continue;
            };
            if kw != "const" {
                continue;
            }
            let Some(TokenKind::Ident(name)) = code.get(i + 1).map(|t| &t.kind) else {
                continue;
            };
            if !(name.ends_with("_SALT") || name.ends_with("_TAG")) {
                continue;
            }
            if idx.in_test_region(code[i].line) {
                continue;
            }
            // Value: the first numeric literal within the declaration
            // (`const N: u64 = 0x1234;` — type tokens never lex as
            // numbers, so the first NumLit is the value).
            let value = code[i + 2..].iter().take(8).find_map(|t| match &t.kind {
                TokenKind::NumLit(text) => parse_int(text),
                _ => None,
            });
            if let Some(value) = value {
                self.model.salts.push(SaltDecl {
                    name: name.clone(),
                    value,
                    loc: Loc {
                        file: ctx.rel_path.clone(),
                        line: code[i + 1].line,
                    },
                });
            }
        }
    }

    /// Hex literals mixed into seeds inline: `^ 0x…`, `0x… ^`,
    /// `split(0x…`, `seed_from_u64(0x…`, `seed_tag: 0x…`.
    fn collect_raw_seed_hex(&mut self, ctx: &FileCtx, idx: &FileIndex) {
        let code = &idx.code;
        let mut push = |text: &str, context: &'static str, line: u32| {
            if !idx.in_test_region(line) {
                self.model.raw_seed_hex.push(RawSeedHex {
                    text: text.to_string(),
                    context,
                    loc: Loc {
                        file: ctx.rel_path.clone(),
                        line,
                    },
                });
            }
        };
        for i in 0..code.len() {
            match &code[i].kind {
                // seed ^ 0xHEX  /  0xHEX ^ seed
                TokenKind::Punct('^') => {
                    if let Some(TokenKind::NumLit(t)) = code.get(i + 1).map(|t| &t.kind) {
                        if is_hex(t) {
                            push(t, "^", code[i + 1].line);
                        }
                    }
                    if i > 0 {
                        if let TokenKind::NumLit(t) = &code[i - 1].kind {
                            if is_hex(t) {
                                push(t, "^", code[i - 1].line);
                            }
                        }
                    }
                }
                // rng.split(0xHEX…)  /  Prng::seed_from_u64(0xHEX…)
                TokenKind::Ident(name) if name == "split" || name == "seed_from_u64" => {
                    if matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct('(')) {
                        if let Some(TokenKind::NumLit(t)) = code.get(i + 2).map(|t| &t.kind) {
                            if is_hex(t) {
                                let ctx_name: &'static str = if name == "split" {
                                    "split"
                                } else {
                                    "seed_from_u64"
                                };
                                push(t, ctx_name, code[i + 2].line);
                            }
                        }
                    }
                }
                // seed_tag: 0xHEX (struct literal field)
                TokenKind::Ident(name) if name == "seed_tag" => {
                    if matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct(':')) {
                        if let Some(TokenKind::NumLit(t)) = code.get(i + 2).map(|t| &t.kind) {
                            if is_hex(t) {
                                push(t, "seed_tag:", code[i + 2].line);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// `var("TACO_X")` / `var_os("TACO_X")` read sites, anywhere.
    fn collect_env_reads(&mut self, ctx: &FileCtx, idx: &FileIndex) {
        let code = &idx.code;
        for i in 0..code.len() {
            let TokenKind::Ident(name) = &code[i].kind else {
                continue;
            };
            if name != "var" && name != "var_os" {
                continue;
            }
            if !matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct('(')) {
                continue;
            }
            let Some(TokenKind::StrLit(s)) = code.get(i + 2).map(|t| &t.kind) else {
                continue;
            };
            if is_taco_name(s) {
                self.model.env_reads.push(EnvName {
                    name: s.clone(),
                    loc: Loc {
                        file: ctx.rel_path.clone(),
                        line: code[i + 2].line,
                    },
                });
            }
        }
    }

    /// `name: "TACO_X"` registry entries inside [`ENV_FILE`].
    fn collect_env_decls(&mut self, ctx: &FileCtx, idx: &FileIndex) {
        let code = &idx.code;
        for i in 0..code.len() {
            let TokenKind::Ident(field) = &code[i].kind else {
                continue;
            };
            if field != "name" {
                continue;
            }
            if !matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct(':')) {
                continue;
            }
            let Some(TokenKind::StrLit(s)) = code.get(i + 2).map(|t| &t.kind) else {
                continue;
            };
            if is_taco_name(s) && !idx.in_test_region(code[i].line) {
                self.model.env_decls.push(EnvName {
                    name: s.clone(),
                    loc: Loc {
                        file: ctx.rel_path.clone(),
                        line: code[i + 2].line,
                    },
                });
            }
        }
    }

    /// Span-creation sites whose name argument is a string literal:
    /// `quiet_span!("…")`, `Span::quiet("…")`.
    fn collect_span_uses(&mut self, ctx: &FileCtx, idx: &FileIndex) {
        let code = &idx.code;
        let mut sites: Vec<(usize, u32)> = Vec::new(); // index of the StrLit token
        for i in 0..code.len() {
            match &code[i].kind {
                // quiet_span!("…")
                TokenKind::Ident(name)
                    if name == "quiet_span"
                        && matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct('!'))
                        && matches!(code.get(i + 2), Some(t) if t.kind == TokenKind::Punct('(')) =>
                {
                    sites.push((i + 3, code[i].line));
                }
                // Span::quiet("…")
                TokenKind::Ident(name)
                    if name == "Span"
                        && matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct(':'))
                        && matches!(code.get(i + 2), Some(t) if t.kind == TokenKind::Punct(':'))
                        && matches!(
                            code.get(i + 3),
                            Some(t) if matches!(&t.kind, TokenKind::Ident(m) if m == "quiet")
                        )
                        && matches!(code.get(i + 4), Some(t) if t.kind == TokenKind::Punct('(')) =>
                {
                    sites.push((i + 5, code[i].line));
                }
                _ => {}
            }
        }
        for (lit_idx, line) in sites {
            if idx.in_test_region(line) {
                continue;
            }
            if let Some(TokenKind::StrLit(s)) = code.get(lit_idx).map(|t| &t.kind) {
                self.model.span_uses.push(SpanUse {
                    name: s.clone(),
                    loc: Loc {
                        file: ctx.rel_path.clone(),
                        line: code[lit_idx].line,
                    },
                });
            }
        }
    }

    /// `const NAME: &str = "…";` inside [`PHASE_FILE`].
    fn collect_phase_consts(&mut self, ctx: &FileCtx, idx: &FileIndex) {
        let code = &idx.code;
        for i in 0..code.len() {
            let TokenKind::Ident(kw) = &code[i].kind else {
                continue;
            };
            if kw != "const" || idx.in_test_region(code[i].line) {
                continue;
            }
            let Some(TokenKind::Ident(name)) = code.get(i + 1).map(|t| &t.kind) else {
                continue;
            };
            // The value: the first string literal within the next few
            // tokens (`const ROUND: &str = "sim.round";`). Array
            // constants like `ALL` hit an `[` first and have no
            // adjacent literal, so they are skipped by the window.
            let value = code[i + 2..].iter().take(6).find_map(|t| match &t.kind {
                TokenKind::StrLit(s) => Some((s.clone(), t.line)),
                TokenKind::Punct('[') => None,
                _ => None,
            });
            if let Some((value, line)) = value {
                self.model.phase_consts.push(PhaseConst {
                    name: name.clone(),
                    value,
                    loc: Loc {
                        file: ctx.rel_path.clone(),
                        line,
                    },
                });
            }
        }
    }

    /// `phase::NAME` references (any path prefix) outside the contract
    /// file — these count as use sites for dangling detection.
    fn collect_phase_refs(&mut self, idx: &FileIndex) {
        let code = &idx.code;
        for i in 0..code.len() {
            let TokenKind::Ident(seg) = &code[i].kind else {
                continue;
            };
            if seg != "phase" {
                continue;
            }
            if matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct(':'))
                && matches!(code.get(i + 2), Some(t) if t.kind == TokenKind::Punct(':'))
            {
                if let Some(TokenKind::Ident(name)) = code.get(i + 3).map(|t| &t.kind) {
                    self.model.phase_refs.push(name.clone());
                }
            }
        }
    }
}

/// Files whose runtime behaviour the workspace rules govern.
fn runtime_file(ctx: &FileCtx) -> bool {
    matches!(ctx.kind, FileKind::Lib | FileKind::Bin | FileKind::Example)
}

/// Is this string a concrete `TACO_*` name (non-empty tail, so the
/// glob `TACO_*` and the bare prefix never match)?
fn is_taco_name(s: &str) -> bool {
    s.strip_prefix("TACO_").is_some_and(|tail| {
        !tail.is_empty()
            && tail
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    })
}

/// Extracts every `TACO_[A-Z0-9_]+` token from a doc line.
fn taco_names_in(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while let Some(pos) = line[i..].find("TACO_") {
        let start = i + pos;
        // Must not continue a larger identifier (e.g. `MY_TACO_X`).
        if start > 0 {
            let prev = bytes[start - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                i = start + 5;
                continue;
            }
        }
        let tail = &line[start + 5..];
        let len = tail
            .chars()
            .take_while(|&c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            .count();
        if len > 0 {
            out.push(
                line[start..start + 5 + len]
                    .trim_end_matches('_')
                    .to_string(),
            );
        }
        i = start + 5 + len;
    }
    out
}

/// Parses an integer literal as the lexer spelled it: `0x`/`0o`/`0b`
/// prefixes, `_` separators, and an alphabetic type suffix.
fn parse_int(text: &str) -> Option<u128> {
    let t = text.replace('_', "");
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b, 2)
    } else {
        (t.as_str(), 10)
    };
    // Strip a type suffix (`u64`, `i32`, …): cut at the first char
    // that is not a digit of the radix.
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map_or(digits.len(), |(i, _)| i);
    if end == 0 {
        return None;
    }
    u128::from_str_radix(&digits[..end], radix).ok()
}

/// Is this numeric literal hex-spelled (`0x…`)? The raw-seed scan only
/// flags hex: decimal seeds (`seed_from_u64(42)`) are experiment
/// configuration, hex is the workspace's salt idiom.
fn is_hex(text: &str) -> bool {
    text.starts_with("0x") || text.starts_with("0X")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::walker::classify;

    fn collect(path: &str, src: &str) -> WorkspaceModel {
        let mut b = ModelBuilder::new();
        let ctx = classify(path);
        let idx = FileIndex::build(&lex(src));
        b.add_file(&ctx, &idx);
        b.finish()
    }

    #[test]
    fn salt_decls_are_collected_with_values() {
        let m = collect(
            "crates/sim/src/runner.rs",
            "const DRIFT_SALT: u64 = 0xD81F;\nconst MEAN_STREAM_TAG: u64 = 0xAD;\nconst OTHER: u64 = 7;\n",
        );
        assert_eq!(m.salts.len(), 2);
        assert_eq!(m.salts[0].name, "DRIFT_SALT");
        assert_eq!(m.salts[0].value, 0xD81F);
        assert_eq!(m.salts[1].value, 0xAD);
    }

    #[test]
    fn raw_seed_hex_patterns_fire_outside_tests_only() {
        let src = "fn f(seed: u64) {\n    let a = seed ^ 0x9A97;\n    let b = rng.split(0x7E);\n    let c = Prng::seed_from_u64(0xDA7A);\n}\n#[cfg(test)]\nmod tests {\n    fn t(seed: u64) { let _ = seed ^ 0xBEEF; }\n}\n";
        let m = collect("crates/sim/src/x.rs", src);
        let texts: Vec<&str> = m.raw_seed_hex.iter().map(|r| r.text.as_str()).collect();
        assert_eq!(texts, vec!["0x9A97", "0x7E", "0xDA7A"]);
    }

    #[test]
    fn decimal_literals_are_not_raw_salts() {
        let m = collect(
            "crates/bench/src/bin/x.rs",
            "fn f() { let r = Prng::seed_from_u64(42); let s = rng.split(3); }\n",
        );
        assert!(m.raw_seed_hex.is_empty());
    }

    #[test]
    fn env_reads_and_registry_decls() {
        let m = collect(
            "crates/bench/src/lib.rs",
            "fn f() { let v = std::env::var(\"TACO_SCALE\"); let w = std::env::var_os(\"TACO_RESULTS_DIR\"); let x = std::env::var(\"HOME\"); }\n",
        );
        let names: Vec<&str> = m.env_reads.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["TACO_SCALE", "TACO_RESULTS_DIR"]);
        let m = collect(
            ENV_FILE,
            "pub const REGISTRY: [EnvVar; 2] = [\n    EnvVar { name: \"TACO_TRACE\", doc: \"x\" },\n    EnvVar { name: \"TACO_SEEDS\", doc: \"y\" },\n];\n",
        );
        assert!(m.has_env_file);
        let names: Vec<&str> = m.env_decls.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["TACO_TRACE", "TACO_SEEDS"]);
    }

    #[test]
    fn span_sites_collect_literals_but_not_consts() {
        let src = "fn f() {\n    let a = trace::quiet_span!(\"client_step\");\n    let b = trace::Span::quiet(crate::phase::LOCAL);\n    let c = taco_trace::Span::quiet(\"sim.adhoc\");\n}\n";
        let m = collect("crates/sim/src/x.rs", src);
        let names: Vec<&str> = m.span_uses.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["client_step", "sim.adhoc"]);
        // The const reference registers a phase use, not a literal.
        assert_eq!(m.phase_refs, vec!["LOCAL".to_string()]);
    }

    #[test]
    fn phase_consts_and_doc_mentions() {
        let m = collect(
            PHASE_FILE,
            "pub const ROUND: &str = \"sim.round\";\npub const ALL: [&str; 1] = [ROUND];\n",
        );
        assert!(m.has_phase_file);
        assert_eq!(m.phase_consts.len(), 1);
        assert_eq!(m.phase_consts[0].name, "ROUND");
        assert_eq!(m.phase_consts[0].value, "sim.round");

        let mut b = ModelBuilder::new();
        b.add_doc(
            "README.md",
            "Set `TACO_THREADS=4` (all TACO_* knobs; not MY_TACO_X).\n",
        );
        let m = b.finish();
        let names: Vec<&str> = m.doc_mentions.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["TACO_THREADS"]);
    }

    #[test]
    fn int_parsing_handles_prefixes_suffixes_separators() {
        assert_eq!(parse_int("0x9A97"), Some(0x9A97));
        assert_eq!(parse_int("0xDEAD_BEEF"), Some(0xDEAD_BEEF));
        assert_eq!(parse_int("0x11u64"), Some(0x11));
        assert_eq!(parse_int("42"), Some(42));
        assert_eq!(parse_int("0b101"), Some(5));
        assert_eq!(parse_int("0x"), None);
    }
}
