//! Pluggable event sinks: in-memory (tests) and a JSONL file stream.

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Receives every emitted [`Event`]. Implementations must be cheap and
/// non-blocking where possible: a simulation records into its sink
/// inline, on the thread that runs its rounds.
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&self) {}
}

/// Buffers events in memory; the test-side sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of every event recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.lock().clone()
    }

    /// Copies of the recorded events of one kind.
    pub fn events_of_kind(&self, kind: &str) -> Vec<Event> {
        self.lock()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.lock().push(event.clone());
    }
}

/// Streams events as one JSON object per line to a file. Created by
/// `TACO_TRACE=path` (see [`crate::sink_from_env`]) or directly.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Trace output is best-effort: a full disk must not kill the
        // simulation.
        let _ = writeln!(w, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_records_and_filters() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(&Event::new("a"));
        sink.record(&Event::new("b"));
        sink.record(&Event::new("a"));
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.events_of_kind("a").len(), 2);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("taco-trace-test-{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&Event::new("x").with("v", 1usize));
            sink.record(&Event::new("y").with("s", "two"));
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::parse(line).expect("line parses as JSON");
        }
        let _ = std::fs::remove_file(&path);
    }
}
