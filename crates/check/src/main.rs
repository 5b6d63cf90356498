//! CLI entry point: `cargo run -p taco-check [-- flags]`.
//!
//! Flags:
//! * `--root <dir>`      — tree to scan (default: the workspace root)
//! * `--quiet`           — suppress per-finding lines, print the summary only
//!
//! Exit status: 0 when no unsuppressed findings remain, 1 otherwise,
//! 2 on usage errors or when any workspace file could not be read
//! (I/O error, non-UTF-8) — an incomplete scan never passes silently.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!("usage: taco-check [--root DIR] [--quiet]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("taco-check: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = root
        .unwrap_or_else(|| taco_check::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR")));
    let report = taco_check::run(&root);

    let text = report.render_text();
    if quiet {
        if let Some(summary) = text.lines().last() {
            println!("{summary}");
        }
    } else {
        print!("{text}");
    }
    if report.incomplete() {
        // The findings list may be misleadingly short when files were
        // skipped, so this outranks plain failure.
        ExitCode::from(2)
    } else if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
