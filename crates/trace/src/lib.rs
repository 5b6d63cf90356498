//! `taco-trace` — structured tracing, metrics, and JSONL event streams
//! for the TACO reproduction. Zero external dependencies.
//!
//! Five pieces, all thread-safe:
//!
//! - a process-global **metrics registry** ([`metrics`]) of counters
//!   and `f64` histograms (exact count/sum/min/max), always on and
//!   lock-free on the hot path;
//! - **spans** ([`quiet_span!`] / [`Span::quiet`]) — RAII wall-clock
//!   timers that feed `<name>.seconds` histograms;
//! - pluggable **sinks** ([`sink`]) receiving structured [`Event`]s: an
//!   in-memory sink for tests and a JSONL file sink, which
//!   [`sink_from_env`] opens when the `TACO_TRACE` environment variable
//!   names a file path. A sink is a value: whoever runs a simulation
//!   hands it one, so concurrent runs never share an event stream;
//! - a zero-dependency **peak-RSS probe** ([`perf`]), surfaced on
//!   every [`Snapshot`];
//! - the **`taco_env` registry** ([`env`](mod@env)) — the declared `TACO_*`
//!   environment surface with typed accessors; the one place in the
//!   workspace allowed to read `TACO_*` variables (any other
//!   `std::env::var` call fails clippy, rule D8).
//!
//! # Example
//!
//! ```
//! use taco_trace as trace;
//!
//! trace::counter("doc.rounds").incr();
//! {
//!     let _span = trace::quiet_span!("doc.phase");
//!     // ... timed work ...
//! }
//! let snapshot = trace::snapshot();
//! assert!(snapshot.counters.iter().any(|(k, v)| k == "doc.rounds" && *v >= 1));
//! ```
//!
//! # Overhead
//!
//! A span costs two `Instant` reads plus one atomic histogram update
//! and never allocates an event. A run without a sink builds no events
//! at all.

#![deny(missing_docs)]

pub mod env;
pub mod event;
pub mod json;
pub mod metrics;
pub mod perf;
pub mod sink;
pub mod span;
pub mod value;

pub use event::Event;
pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use perf::peak_rss_bytes;
pub use sink::{JsonlSink, MemorySink, Sink};
pub use span::Span;
pub use value::Value;

use std::sync::{Arc, OnceLock};

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

/// The global counter registered under `name` (created on first use).
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// The global histogram registered under `name` (created on first use).
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// A name-sorted copy of every global metric.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Opens a [`JsonlSink`] at the path the `TACO_TRACE` environment
/// variable names and records one `run_start` event in it.
///
/// An unset or empty `TACO_TRACE` gives `None`; so does an unwritable
/// path, after one warning on stderr (observability must never fail a
/// run).
pub fn sink_from_env() -> Option<Arc<dyn Sink>> {
    let path = env::trace_path()?;
    match JsonlSink::create(&path) {
        Ok(sink) => {
            sink.record(&Event::new("run_start").with("trace_path", path.as_str()));
            Some(Arc::new(sink))
        }
        Err(e) => {
            eprintln!("warning: TACO_TRACE={path}: {e}; tracing disabled");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        counter("lib.test.counter").add(5);
        assert_eq!(counter("lib.test.counter").get(), 5);
    }
}
