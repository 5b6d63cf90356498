//! The workspace-rule pass: cross-file determinism rules D7–D9 over
//! the [`WorkspaceModel`] assembled by the collection pass.
//!
//! * **D7 salt discipline** — declared `*_SALT`/`*_TAG` values must be
//!   pairwise distinct workspace-wide (two RNG streams salted with the
//!   same constant silently correlate), and no raw hex literal may be
//!   mixed into a seed inline outside tests.
//! * **D8 env registry** — every `TACO_*` read goes through the
//!   accessor module ([`ENV_FILE`]), every name read is declared in
//!   the registry exactly once, and the registry round-trips with the
//!   user docs: registered-but-undocumented and
//!   documented-but-unregistered names are both findings.
//! * **D9 span contract** — span-name string literals in `sim`/`bench`
//!   runtime code must match a contract constant in [`PHASE_FILE`]
//!   (use the constant, not the literal), and a contract constant
//!   nothing references is dangling.
//!
//! Rules that need an anchor file (the registry, the phase contract,
//! the docs) only run when it was scanned, so pointing the checker at
//! a partial tree (the seeded fixtures) diagnoses exactly what that
//! tree contains.

use crate::model::{WorkspaceModel, DOC_FILES, ENV_FILE, PHASE_FILE};
use crate::rules::{Finding, RuleId};
use std::collections::{BTreeMap, BTreeSet};

/// Runs D7–D9 and appends the findings.
pub fn check(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    d7_salt_discipline(model, out);
    d8_env_registry(model, out);
    d9_span_contract(model, out);
}

fn d7_salt_discipline(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    // Pairwise-distinct values: group by value, flag every declaration
    // after the first, anchored to the first.
    let mut by_value: BTreeMap<u128, Vec<usize>> = BTreeMap::new();
    for (i, s) in model.salts.iter().enumerate() {
        by_value.entry(s.value).or_default().push(i);
    }
    for (value, decls) in &by_value {
        let first = &model.salts[decls[0]];
        for &i in &decls[1..] {
            let dup = &model.salts[i];
            out.push(
                Finding::new(
                    RuleId::D7SaltDiscipline,
                    dup.loc.file.clone(),
                    dup.loc.line,
                    format!(
                        "salt `{}` duplicates the value {value:#x} of `{}` ({}:{}): streams salted with the same constant correlate — pick a distinct value",
                        dup.name, first.name, first.loc.file, first.loc.line
                    ),
                )
                .with_related(first.loc.file.clone(), first.loc.line),
            );
        }
    }
    for raw in &model.raw_seed_hex {
        out.push(Finding::new(
            RuleId::D7SaltDiscipline,
            raw.loc.file.clone(),
            raw.loc.line,
            format!(
                "raw hex literal `{}` mixed into a seed (`{}`): hoist it to a documented `*_SALT`/`*_TAG` constant so the salt table stays auditable",
                raw.text, raw.context
            ),
        ));
    }
}

fn d8_env_registry(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    if !model.has_env_file {
        return; // partial tree without the registry: nothing to check against
    }
    let registry: BTreeMap<&str, &crate::model::EnvName> = model
        .env_decls
        .iter()
        .map(|d| (d.name.as_str(), d))
        .collect();

    // Exactly-once declaration.
    let mut seen: BTreeMap<&str, &crate::model::EnvName> = BTreeMap::new();
    for d in &model.env_decls {
        if let Some(first) = seen.get(d.name.as_str()) {
            out.push(
                Finding::new(
                    RuleId::D8EnvRegistry,
                    d.loc.file.clone(),
                    d.loc.line,
                    format!(
                        "`{}` is declared twice in the env registry (first at {}:{})",
                        d.name, first.loc.file, first.loc.line
                    ),
                )
                .with_related(first.loc.file.clone(), first.loc.line),
            );
        } else {
            seen.insert(&d.name, d);
        }
    }

    for read in &model.env_reads {
        // All reads flow through the accessor module.
        if read.loc.file != ENV_FILE {
            out.push(
                Finding::new(
                    RuleId::D8EnvRegistry,
                    read.loc.file.clone(),
                    read.loc.line,
                    format!(
                        "raw read of `{}`: go through the typed accessors in `taco_trace::env` so every knob stays declared, documented, and parsed one way",
                        read.name
                    ),
                )
                .with_related(ENV_FILE, 1),
            );
        }
        // Every name read exists in the registry (typo guard).
        if !registry.contains_key(read.name.as_str()) {
            out.push(
                Finding::new(
                    RuleId::D8EnvRegistry,
                    read.loc.file.clone(),
                    read.loc.line,
                    format!(
                        "`{}` is not declared in the env registry ({ENV_FILE}): add an `EnvVar` entry or fix the name",
                        read.name
                    ),
                )
                .with_related(ENV_FILE, 1),
            );
        }
    }

    // Docs ↔ registry round-trip.
    if model.has_docs {
        let documented: BTreeSet<&str> =
            model.doc_mentions.iter().map(|m| m.name.as_str()).collect();
        for d in &model.env_decls {
            if !documented.contains(d.name.as_str()) {
                out.push(Finding::new(
                    RuleId::D8EnvRegistry,
                    d.loc.file.clone(),
                    d.loc.line,
                    format!(
                        "`{}` is registered but never mentioned in {}: document the knob where users will find it",
                        d.name,
                        DOC_FILES.join("/")
                    ),
                ));
            }
        }
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        for m in &model.doc_mentions {
            if !registry.contains_key(m.name.as_str()) && reported.insert(&m.name) {
                out.push(
                    Finding::new(
                        RuleId::D8EnvRegistry,
                        m.loc.file.clone(),
                        m.loc.line,
                        format!(
                            "docs mention `{}` but the env registry ({ENV_FILE}) does not declare it: a typo, or a knob that no longer exists",
                            m.name
                        ),
                    )
                    .with_related(ENV_FILE, 1),
                );
            }
        }
    }
}

fn d9_span_contract(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    if !model.has_phase_file {
        return;
    }
    let contract: BTreeSet<&str> = model
        .phase_consts
        .iter()
        .map(|c| c.value.as_str())
        .collect();
    for u in &model.span_uses {
        if !contract.contains(u.name.as_str()) {
            out.push(
                Finding::new(
                    RuleId::D9SpanContract,
                    u.loc.file.clone(),
                    u.loc.line,
                    format!(
                        "span name `\"{}\"` is not in the sim::phase contract ({PHASE_FILE}): register it there and use the constant, so the telemetry schema has one source of truth",
                        u.name
                    ),
                )
                .with_related(PHASE_FILE, 1),
            );
        } else {
            // Registered, but spelled as a literal: use the constant.
            out.push(
                Finding::new(
                    RuleId::D9SpanContract,
                    u.loc.file.clone(),
                    u.loc.line,
                    format!(
                        "span name `\"{}\"` duplicates a sim::phase contract constant as a string literal: use the constant so renames stay atomic",
                        u.name
                    ),
                )
                .with_related(PHASE_FILE, 1),
            );
        }
    }
    // Dangling contract constants: exported but referenced nowhere.
    let refs: BTreeSet<&str> = model.phase_refs.iter().map(String::as_str).collect();
    for c in &model.phase_consts {
        if !refs.contains(c.name.as_str()) {
            out.push(Finding::new(
                RuleId::D9SpanContract,
                c.loc.file.clone(),
                c.loc.line,
                format!(
                    "contract constant `{}` (\"{}\") has no use site in sim/bench: dead telemetry schema — wire it up or remove it",
                    c.name, c.value
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EnvName, Loc, PhaseConst, RawSeedHex, SaltDecl, SpanUse};

    fn loc(file: &str, line: u32) -> Loc {
        Loc {
            file: file.to_string(),
            line,
        }
    }

    fn rules_of(out: &[Finding]) -> Vec<RuleId> {
        out.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d7_flags_duplicate_values_with_both_anchors() {
        let model = WorkspaceModel {
            salts: vec![
                SaltDecl {
                    name: "A_SALT".into(),
                    value: 0xFA17,
                    loc: loc("crates/sim/src/a.rs", 3),
                },
                SaltDecl {
                    name: "B_SALT".into(),
                    value: 0xFA17,
                    loc: loc("crates/bench/src/b.rs", 9),
                },
                SaltDecl {
                    name: "C_SALT".into(),
                    value: 0x0DE1,
                    loc: loc("crates/bench/src/b.rs", 11),
                },
            ],
            ..WorkspaceModel::default()
        };
        let mut out = Vec::new();
        check(&model, &mut out);
        assert_eq!(rules_of(&out), vec![RuleId::D7SaltDiscipline]);
        assert_eq!(out[0].file, "crates/bench/src/b.rs");
        assert_eq!(out[0].line, 9);
        assert_eq!(out[0].related, Some(("crates/sim/src/a.rs".to_string(), 3)));
    }

    #[test]
    fn d7_flags_raw_hex() {
        let model = WorkspaceModel {
            raw_seed_hex: vec![RawSeedHex {
                text: "0x9A97".into(),
                context: "^",
                loc: loc("crates/sim/src/runner.rs", 456),
            }],
            ..WorkspaceModel::default()
        };
        let mut out = Vec::new();
        check(&model, &mut out);
        assert_eq!(rules_of(&out), vec![RuleId::D7SaltDiscipline]);
        assert!(out[0].message.contains("0x9A97"));
    }

    #[test]
    fn d8_needs_the_registry_file() {
        let mut model = WorkspaceModel {
            env_reads: vec![EnvName {
                name: "TACO_TYPO".into(),
                loc: loc("crates/bench/src/lib.rs", 5),
            }],
            ..WorkspaceModel::default()
        };
        let mut out = Vec::new();
        check(&model, &mut out);
        assert!(out.is_empty(), "without the registry D8 stays silent");

        model.has_env_file = true;
        model.env_decls.push(EnvName {
            name: "TACO_TRACE".into(),
            loc: loc(ENV_FILE, 20),
        });
        let mut out = Vec::new();
        check(&model, &mut out);
        // Raw read outside the accessor + unregistered name.
        assert_eq!(
            rules_of(&out),
            vec![RuleId::D8EnvRegistry, RuleId::D8EnvRegistry]
        );
        assert!(out.iter().any(|f| f.message.contains("raw read")));
        assert!(out.iter().any(|f| f.message.contains("not declared")));
    }

    #[test]
    fn d8_docs_roundtrip_both_directions() {
        let model = WorkspaceModel {
            has_env_file: true,
            has_docs: true,
            env_decls: vec![
                EnvName {
                    name: "TACO_TRACE".into(),
                    loc: loc(ENV_FILE, 20),
                },
                EnvName {
                    name: "TACO_STALE".into(),
                    loc: loc(ENV_FILE, 24),
                },
            ],
            doc_mentions: vec![
                EnvName {
                    name: "TACO_TRACE".into(),
                    loc: loc("README.md", 100),
                },
                EnvName {
                    name: "TACO_DOCONLY".into(),
                    loc: loc("README.md", 101),
                },
            ],
            ..WorkspaceModel::default()
        };
        let mut out = Vec::new();
        check(&model, &mut out);
        assert!(out
            .iter()
            .any(|f| f.message.contains("TACO_STALE") && f.message.contains("never mentioned")));
        assert!(out
            .iter()
            .any(|f| f.message.contains("TACO_DOCONLY") && f.message.contains("docs mention")));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn d9_literals_and_dangling_consts() {
        let model = WorkspaceModel {
            has_phase_file: true,
            phase_consts: vec![
                PhaseConst {
                    name: "ROUND".into(),
                    value: "sim.round".into(),
                    loc: loc(PHASE_FILE, 12),
                },
                PhaseConst {
                    name: "GHOST".into(),
                    value: "sim.ghost".into(),
                    loc: loc(PHASE_FILE, 30),
                },
            ],
            phase_refs: vec!["ROUND".into()],
            span_uses: vec![
                SpanUse {
                    name: "sim.round".into(),
                    loc: loc("crates/sim/src/runner.rs", 355),
                },
                SpanUse {
                    name: "sim.adhoc".into(),
                    loc: loc("crates/sim/src/server.rs", 123),
                },
            ],
            ..WorkspaceModel::default()
        };
        let mut out = Vec::new();
        check(&model, &mut out);
        assert_eq!(out.len(), 3);
        // Literal that shadows a contract const.
        assert!(out.iter().any(|f| f
            .message
            .contains("duplicates a sim::phase contract constant")));
        // Literal not in the contract at all.
        assert!(out.iter().any(|f| f
            .message
            .contains("`\"sim.adhoc\"` is not in the sim::phase contract")));
        // Dangling const.
        assert!(out
            .iter()
            .any(|f| f.message.contains("`GHOST`") && f.message.contains("no use site")));
    }
}
