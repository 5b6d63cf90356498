//! Runs the checker over the seeded-violation fixture tree
//! (`tests/fixtures/ws`), which mimics the workspace layout and
//! violates every rule D1–D9. Also exercises pragma semantics for
//! two-location findings, the unreadable-file exit path, and the CLI's
//! exit codes end to end.

use std::path::PathBuf;
use taco_check::rules::{RuleId, ALL_RULES};
use taco_check::run;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("ws")
}

#[test]
fn every_rule_fires_on_the_seeded_fixture() {
    let report = run(&fixture_root());
    assert!(report.failed());
    for rule in ALL_RULES {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "rule {} did not fire on the fixture; findings:\n{}",
            rule.id(),
            report.render_text()
        );
    }
    // The pragma'd unwrap was suppressed, the documented unsafe clean.
    assert!(report.suppressed_by_pragma >= 1);
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == RuleId::D5SafetyComment
                && f.file.contains("bad_unsafe")
                && f.line > 7),
        "the SAFETY-commented unsafe block must not be flagged"
    );
    // String/raw-string contents are inert: nothing may fire on the
    // quoted_is_inert body.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file.contains("bad_time") && f.line >= 16),
        "rules fired inside string literals:\n{}",
        report.render_text()
    );
}

#[test]
fn cross_file_findings_carry_both_anchors() {
    let report = run(&fixture_root());
    // The duplicate-salt finding anchors at sim's SELECT_SALT (later
    // in collection order) and points back at core's REUSED_SALT.
    let dup = report
        .findings
        .iter()
        .find(|f| f.rule == RuleId::D7SaltDiscipline && f.message.contains("duplicates"))
        .expect("duplicate-salt finding");
    assert_eq!(dup.file, "crates/sim/src/bad_rng.rs");
    assert_eq!(
        dup.related,
        Some(("crates/core/src/dup_salt.rs".to_string(), 4))
    );
    // The raw-hex finding is single-location.
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == RuleId::D7SaltDiscipline
            && f.message.contains("raw hex")
            && f.related.is_none()));
    // D8 fires in every mode: raw read, typo'd name, undocumented
    // registry entry, doc-only ghost.
    let d8: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::D8EnvRegistry)
        .map(|f| f.message.as_str())
        .collect();
    assert!(d8
        .iter()
        .any(|m| m.contains("raw read of `TACO_FIXTURE_KNOB`")));
    assert!(d8
        .iter()
        .any(|m| m.contains("`TACO_FIXTURE_KNOBS` is not declared")));
    assert!(d8
        .iter()
        .any(|m| m.contains("`TACO_UNDOCUMENTED` is registered but never mentioned")));
    assert!(d8.iter().any(|m| m.contains("docs mention `TACO_GHOST`")));
    // D9 fires in every mode: off-contract literal, contract value as
    // a literal, dangling constant.
    let d9: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::D9SpanContract)
        .map(|f| f.message.as_str())
        .collect();
    assert!(d9
        .iter()
        .any(|m| m.contains("`\"sim.rogue\"` is not in the sim::phase contract")));
    assert!(d9
        .iter()
        .any(|m| m.contains("duplicates a sim::phase contract constant")));
    assert!(d9
        .iter()
        .any(|m| m.contains("`ORPHAN`") && m.contains("no use site")));
}

#[test]
fn pragmas_suppress_two_location_findings_at_either_anchor() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("pragma_ws");
    let report = run(&root);
    // Two duplicate-salt pairs: one suppressed by a pragma at the
    // finding's related anchor (core), one at its primary anchor
    // (sim). Nothing may survive.
    assert!(
        !report.failed(),
        "pragma'd duplicates must be suppressed:\n{}",
        report.render_text()
    );
    assert_eq!(report.suppressed_by_pragma, 2);
}

#[test]
fn unreadable_files_fail_the_run_with_exit_2() {
    // A scratch tree with one valid file and one non-UTF-8 file: the
    // library reports the scan incomplete, the CLI exits 2.
    let root = std::env::temp_dir().join("taco-check-unreadable-ws");
    let src_dir = root.join("crates").join("core").join("src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    std::fs::write(src_dir.join("ok.rs"), "pub fn f() {}\n").expect("write ok.rs");
    std::fs::write(src_dir.join("bad.rs"), [0xFFu8, 0xFE, 0x00, 0x9F]).expect("write bad.rs");

    let report = run(&root);
    assert!(report.incomplete());
    assert_eq!(report.unreadable.len(), 1);
    assert!(report.unreadable[0].starts_with("crates/core/src/bad.rs:"));

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_taco-check"))
        .args(["--root".as_ref(), root.as_os_str()])
        .output()
        .expect("spawn taco-check");
    assert_eq!(out.status.code(), Some(2), "unreadable files must exit 2");
    assert!(String::from_utf8_lossy(&out.stdout).contains("could not read crates/core/src/bad.rs"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cli_exit_codes_match_findings() {
    // Green on the real workspace…
    let root = taco_check::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
    let ok = std::process::Command::new(env!("CARGO_BIN_EXE_taco-check"))
        .args(["--root".as_ref(), root.as_os_str()])
        .arg("--quiet")
        .output()
        .expect("spawn taco-check");
    assert!(
        ok.status.success(),
        "workspace run failed:\n{}{}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );

    // …and red on the seeded fixture, with every rule in the text
    // diagnostics.
    let bad = std::process::Command::new(env!("CARGO_BIN_EXE_taco-check"))
        .args(["--root".as_ref(), fixture_root().as_os_str()])
        .output()
        .expect("spawn taco-check");
    assert_eq!(bad.status.code(), Some(1), "fixture run must exit 1");
    let text = String::from_utf8_lossy(&bad.stdout);
    for rule in ALL_RULES {
        assert!(
            text.contains(&format!("[{}/", rule.id())),
            "diagnostics missing rule {}:\n{text}",
            rule.id()
        );
    }
}
