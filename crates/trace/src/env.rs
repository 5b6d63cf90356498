//! `taco_env` — the single choke point for the `TACO_*` environment
//! surface.
//!
//! Every `TACO_*` variable the workspace reads is declared exactly once
//! in [`REGISTRY`] and read exactly here, through a typed accessor.
//! This is a **statically enforced contract**: taco-check's D8 rule
//! (`env-registry`) flags any raw `std::env::var("TACO_…")` outside
//! this file, any `TACO_*` name that is not registered (typos), and any
//! registered name missing from the README/EXPERIMENTS documentation —
//! see `crates/check/src/workspace_rules.rs`.
//!
//! Accessors deliberately reproduce the parsing semantics of the call
//! sites they replaced (trimming, empty-string handling, invalid-value
//! fallbacks), so routing a read through this module can never change a
//! trajectory or an artifact byte.

use std::path::PathBuf;

/// One declared `TACO_*` environment variable.
#[derive(Debug, Clone, Copy)]
pub struct EnvVar {
    /// The exact variable name, `TACO_`-prefixed.
    pub name: &'static str,
    /// What it controls, in one line (mirrored in the README registry
    /// table).
    pub doc: &'static str,
}

/// Every `TACO_*` variable the workspace recognizes. taco-check D8
/// cross-checks this registry against all use sites and against the
/// README/EXPERIMENTS docs in both directions.
pub const REGISTRY: [EnvVar; 7] = [
    EnvVar {
        name: "TACO_TRACE",
        doc: "JSONL trace sink file path; unset/empty disables tracing",
    },
    EnvVar {
        name: "TACO_THREADS",
        doc: "worker-pool size (positive integer); default: available parallelism",
    },
    EnvVar {
        name: "TACO_SCALE",
        doc: "experiment scale: `quick` (default) or `paper`",
    },
    EnvVar {
        name: "TACO_SEEDS",
        doc: "number of seeds averaged by fig2/table5 (default 3 / 1)",
    },
    EnvVar {
        name: "TACO_CLIENTS",
        doc: "federation size for table7 (default 100)",
    },
    EnvVar {
        name: "TACO_RESULTS_DIR",
        doc: "artifact directory override for results/ (tests use a scratch dir)",
    },
    EnvVar {
        name: "TACO_REGEN_GOLDEN",
        doc: "truthy: rewrite golden trajectory fixtures instead of comparing",
    },
];

/// Is `name` a declared `TACO_*` variable?
pub fn is_registered(name: &str) -> bool {
    REGISTRY.iter().any(|v| v.name == name)
}

/// The one raw read. Debug builds assert the name went through the
/// registry, so a typo in an accessor fails the first test that
/// exercises it rather than silently reading an unset variable.
fn raw(name: &str) -> Option<String> {
    debug_assert!(is_registered(name), "unregistered env var {name}");
    std::env::var(name).ok()
}

fn raw_os(name: &str) -> Option<std::ffi::OsString> {
    debug_assert!(is_registered(name), "unregistered env var {name}");
    std::env::var_os(name)
}

/// `TACO_TRACE`: the JSONL sink path; `None` when unset or empty.
pub fn trace_path() -> Option<String> {
    raw("TACO_TRACE").filter(|p| !p.is_empty())
}

/// `TACO_THREADS`: the worker-pool size. `None` when unset or invalid
/// (an invalid value warns once per read, matching the historical
/// `tensor::pool` behaviour).
pub fn threads() -> Option<usize> {
    let v = raw("TACO_THREADS")?;
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("warning: ignoring invalid TACO_THREADS={v:?}");
            None
        }
    }
}

/// `TACO_SCALE`: the raw scale name (`quick`/`paper`).
pub fn scale_name() -> Option<String> {
    raw("TACO_SCALE")
}

/// `TACO_SEEDS`: seed-count override for the multi-seed experiment
/// binaries; `None` when unset or unparseable.
pub fn seeds() -> Option<u64> {
    raw("TACO_SEEDS").and_then(|s| s.parse().ok())
}

/// `TACO_CLIENTS`: federation-size override; `None` when unset or
/// unparseable.
pub fn clients() -> Option<usize> {
    raw("TACO_CLIENTS").and_then(|s| s.parse().ok())
}

/// `TACO_RESULTS_DIR`: artifact directory override.
pub fn results_dir() -> Option<PathBuf> {
    raw_os("TACO_RESULTS_DIR").map(Into::into)
}

/// `TACO_REGEN_GOLDEN`: truthy when set to anything but `""`/`"0"`.
pub fn regen_golden() -> bool {
    raw("TACO_REGEN_GOLDEN").is_some_and(|v| v != "0" && !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|v| v.name).collect();
        for name in &names {
            assert!(name.starts_with("TACO_"), "{name}");
            assert!(
                name.len() > "TACO_".len(),
                "{name}: bare prefix is not a variable"
            );
            assert!(
                name.chars().all(|c| c.is_ascii_uppercase() || c == '_'),
                "{name}: registry names are SCREAMING_SNAKE"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate registry entry");
    }

    #[test]
    fn every_entry_is_documented_in_registry() {
        for v in REGISTRY {
            assert!(!v.doc.is_empty(), "{}: missing doc line", v.name);
        }
    }

    #[test]
    fn accessors_tolerate_unset_environment() {
        // The test environment leaves almost everything unset; every
        // accessor must return its unset-shape instead of panicking.
        let _ = trace_path();
        let _ = threads();
        let _ = scale_name();
        let _ = seeds();
        let _ = clients();
        let _ = results_dir();
        let _ = regen_golden();
    }
}
