//! Structured events: the unit of the JSONL trace stream.

use crate::value::Value;
use std::time::{SystemTime, UNIX_EPOCH};

/// One structured event. Serialized as a single JSON object per line:
/// `{"kind":...,"unix_ms":...,<fields>}`.
///
/// Field keys are flattened into the top-level object, so callers must
/// not reuse the reserved keys `kind` and `unix_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event category (`round`, `client_step`, `span`, `run_start`, ...).
    pub kind: String,
    /// Wall-clock timestamp in milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Ordered event payload.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Creates an event of the given kind stamped with the current
    /// wall-clock time.
    pub fn new(kind: &str) -> Self {
        Event {
            kind: kind.to_string(),
            unix_ms: unix_ms_now(),
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    pub fn with(mut self, key: &str, v: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), v.into()));
        self
    }

    /// Serializes the event as one compact JSON object.
    pub fn to_json(&self) -> String {
        let mut pairs = Vec::with_capacity(self.fields.len() + 2);
        pairs.push(("kind".to_string(), Value::from(self.kind.as_str())));
        pairs.push(("unix_ms".to_string(), Value::U64(self.unix_ms)));
        pairs.extend(self.fields.iter().cloned());
        Value::Object(pairs).to_json()
    }

    /// The value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Milliseconds since the Unix epoch right now.
#[expect(
    clippy::disallowed_methods,
    reason = "event timestamps are reported and never reach simulated time"
)]
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_to_valid_json() {
        let e = Event::new("round")
            .with("round", 3usize)
            .with("acc", 0.75f64)
            .with("algo", "TACO");
        let json = e.to_json();
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("round"));
        assert_eq!(v.get("round").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("algo").and_then(Value::as_str), Some("TACO"));
        assert!(e.unix_ms > 0);
        assert_eq!(e.field("acc").and_then(Value::as_f64), Some(0.75));
    }
}
