//! The outcome of one checker run and its text diagnostics.

use crate::rules::Finding;

/// The outcome of one checker run over a tree.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings. Non-empty ⇒ exit 1.
    pub findings: Vec<Finding>,
    /// Findings silenced by inline pragmas.
    pub suppressed_by_pragma: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Files that could not be read (`path: error`). Non-empty ⇒ the
    /// scan was incomplete ⇒ exit 2, never a silent pass.
    pub unreadable: Vec<String>,
}

impl Report {
    /// True when the run should exit non-zero.
    pub fn failed(&self) -> bool {
        !self.findings.is_empty()
    }

    /// True when the scan itself was incomplete (unreadable files):
    /// the CLI exits 2, distinct from "findings exist".
    pub fn incomplete(&self) -> bool {
        !self.unreadable.is_empty()
    }

    /// Renders the human diagnostics, one `file:line: [Dx/slug] message`
    /// per finding (plus a `related:` line for a cross-file finding's
    /// second anchor), the unreadable files, and a summary line.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "{}:{}: [{}/{}] {}\n",
                f.file,
                f.line,
                f.rule.id(),
                f.rule.slug(),
                f.message
            ));
            if let Some((file, line)) = &f.related {
                s.push_str(&format!("    related: {file}:{line}\n"));
            }
        }
        for e in &self.unreadable {
            s.push_str(&format!("error: could not read {e}\n"));
        }
        s.push_str(&format!(
            "taco-check: {} finding(s), {} pragma-suppressed, {} file(s) scanned\n",
            self.findings.len(),
            self.suppressed_by_pragma,
            self.files_scanned
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn related_and_unreadable_render_in_text() {
        let report = Report {
            findings: vec![Finding::new(
                RuleId::D7SaltDiscipline,
                "crates/bench/src/lib.rs",
                40,
                "duplicate salt".to_string(),
            )
            .with_related("crates/sim/src/runner.rs", 23)],
            suppressed_by_pragma: 0,
            files_scanned: 2,
            unreadable: vec!["crates/sim/src/bad.rs: stream did not contain valid UTF-8".into()],
        };
        let text = report.render_text();
        assert!(text.contains("related: crates/sim/src/runner.rs:23"));
        assert!(text.contains("error: could not read crates/sim/src/bad.rs"));
        assert!(report.failed());
        assert!(report.incomplete());
    }
}
