//! The linter's own workspace gate: scanning the real workspace must
//! produce zero unsuppressed findings. This is the
//! "run as a workspace test" half of taco-check — CI additionally runs
//! the binary, but `cargo test` alone already enforces the invariants.

use taco_check::{run, workspace_root_from_manifest};

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
    let report = run(&root);
    assert!(
        !report.failed(),
        "taco-check found violations:\n{}",
        report.render_text()
    );
    // The scan must actually have covered the workspace — a silent
    // walk failure would vacuously pass.
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}
