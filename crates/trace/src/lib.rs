//! `taco-trace` — structured tracing, metrics, and JSONL event streams
//! for the TACO reproduction. Zero external dependencies.
//!
//! Five pieces, all process-global and thread-safe:
//!
//! - a **metrics registry** ([`metrics`]) of counters and `f64`
//!   histograms (exact count/sum/min/max), always on and
//!   lock-free on the hot path;
//! - **spans** ([`span!`] / [`quiet_span!`]) — RAII wall-clock timers
//!   that feed `<name>.seconds` histograms and, for non-quiet spans,
//!   the event stream;
//! - pluggable **sinks** ([`sink`]) receiving structured [`Event`]s: a
//!   no-op default, an in-memory sink for tests, and a JSONL file sink
//!   enabled by setting the `TACO_TRACE` environment variable to a
//!   file path (see [`init_from_env`]);
//! - a zero-dependency **peak-RSS probe** ([`perf`]), surfaced on
//!   every [`Snapshot`];
//! - the **`taco_env` registry** ([`env`](mod@env)) — the declared `TACO_*`
//!   environment surface with typed accessors; the one place in the
//!   workspace allowed to read `TACO_*` variables (taco-check rule D8).
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
//! With no sink installed (the default), emitting an event is a single
//! relaxed atomic load; spans cost two `Instant` reads plus one atomic
//! histogram update. The simulation's hot paths (per-step
//! forward/backward) use [`quiet_span!`], which never allocates an
//! event even when a sink is active.

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
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink};
pub use span::Span;
pub use value::Value;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static SINK: OnceLock<RwLock<Arc<dyn Sink>>> = OnceLock::new();
/// Fast-path flag: `true` iff a non-noop sink is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_INIT: AtomicBool = AtomicBool::new(false);

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

/// Clears the global registry (tests / run isolation). Live handles
/// keep working but detach from future snapshots.
pub fn reset_metrics() {
    registry().reset();
}

fn sink_cell() -> &'static RwLock<Arc<dyn Sink>> {
    SINK.get_or_init(|| RwLock::new(Arc::new(NoopSink)))
}

/// Installs `sink` as the global event sink and returns the previous
/// one. Passing a [`NoopSink`] disables event emission.
pub fn set_sink(sink: Arc<dyn Sink>) -> Arc<dyn Sink> {
    // `Arc<NoopSink>` coerced to `Arc<dyn Sink>` has no cheap runtime
    // type check; track activity with an explicit flag instead: the
    // only inert sink anyone installs is the one `clear_sink` uses.
    let mut guard = sink_cell()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prev = std::mem::replace(&mut *guard, sink);
    ACTIVE.store(true, Ordering::Release);
    prev
}

/// Restores the no-op sink and returns the previously installed sink
/// (flushing it first).
pub fn clear_sink() -> Arc<dyn Sink> {
    let mut guard = sink_cell()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    ACTIVE.store(false, Ordering::Release);
    let prev = std::mem::replace(&mut *guard, Arc::new(NoopSink));
    prev.flush();
    prev
}

/// `true` when a sink is installed (events will be recorded). A single
/// relaxed atomic load — safe to call on hot paths.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Sends `event` to the installed sink, if any.
pub fn emit(event: &Event) {
    if active() {
        sink_cell()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .record(event);
    }
}

/// Flushes the installed sink.
pub fn flush() {
    sink_cell()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .flush();
}

/// Installs a [`JsonlSink`] when the `TACO_TRACE` environment variable
/// names a writable file path. Idempotent: only the first call in a
/// process inspects the environment. Returns `true` if a sink was
/// installed by this call.
///
/// An unset or empty `TACO_TRACE` leaves the no-op sink in place; an
/// unwritable path prints one warning to stderr and continues without
/// tracing (observability must never fail a run).
pub fn init_from_env() -> bool {
    if ENV_INIT.swap(true, Ordering::SeqCst) {
        return false;
    }
    match env::trace_path() {
        Some(path) => match JsonlSink::create(&path) {
            Ok(sink) => {
                set_sink(Arc::new(sink));
                emit(&Event::new("run_start").with("trace_path", path.as_str()));
                true
            }
            Err(e) => {
                eprintln!("warning: TACO_TRACE={path}: {e}; tracing disabled");
                false
            }
        },
        _ => false,
    }
}

/// Serializes tests that swap the global sink. Public so downstream
/// crates' tests can share the same exclusion.
#[doc(hidden)]
pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        counter("lib.test.counter").add(5);
        assert_eq!(counter("lib.test.counter").get(), 5);
    }

    #[test]
    fn emit_respects_sink_installation() {
        let _guard = test_guard();
        let sink = Arc::new(MemorySink::new());
        let prev = set_sink(sink.clone());
        assert!(active());
        emit(&Event::new("test_kind"));
        clear_sink();
        assert!(!active());
        emit(&Event::new("dropped"));
        // Restore whatever was installed before this test.
        set_sink(prev);
        clear_sink();
        assert_eq!(sink.events_of_kind("test_kind").len(), 1);
        assert!(sink.events_of_kind("dropped").is_empty());
    }

    #[test]
    fn init_from_env_is_idempotent() {
        let _guard = test_guard();
        // First call consumes the env probe; subsequent calls are no-ops
        // regardless of the variable (do not set it in-process: other
        // tests share the environment).
        let _ = init_from_env();
        assert!(!init_from_env());
    }
}
