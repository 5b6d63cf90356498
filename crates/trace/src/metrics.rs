//! The global metrics registry: counters and histograms.
//!
//! A histogram keeps the exact count, sum, min, and max of what it
//! observed (and so the mean), not a distribution: the benchmark that
//! gates on medians (`fedbench`) computes them exactly from per-call
//! samples of its own.
//!
//! All metric types are lock-free on the hot path (atomics only); the
//! registry itself takes a short mutex on first lookup of a name.
//! Handles are `Arc`s, so call sites that care can cache them.

use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An `f64` histogram keeping exact count, sum, min, and max.
/// `observe` is lock-free.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = f(f64::from_bits(cur));
        if new.to_bits() == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + v);
        atomic_f64_update(&self.min_bits, |m| m.min(v));
        atomic_f64_update(&self.max_bits, |m| m.max(v));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
        }
    }
}

/// An immutable histogram summary: exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn to_value(&self) -> Value {
        Value::object(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::F64(self.sum)),
            ("min".to_string(), Value::F64(self.min)),
            ("max".to_string(), Value::F64(self.max)),
            ("mean".to_string(), Value::F64(self.mean())),
        ])
    }
}

/// A named collection of counters and histograms.
///
/// Use the free functions in the crate root ([`crate::counter`],
/// [`crate::histogram`]) for the process-global instance.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn lock<T>(map: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    map.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn intern<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut guard = lock(map);
    if let Some(existing) = guard.get(name) {
        return Arc::clone(existing);
    }
    let fresh = Arc::new(T::default());
    guard.insert(name.to_string(), Arc::clone(&fresh));
    fresh
}

impl Registry {
    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// An immutable, name-sorted copy of every metric, stamped with
    /// the process's current peak RSS (where the platform exposes it).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            peak_rss_bytes: crate::perf::peak_rss_bytes(),
        }
    }
}

/// A point-in-time copy of a [`Registry`], name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Peak resident-set size of the process when the snapshot was
    /// taken (`VmHWM`; see [`crate::perf::peak_rss_bytes`]). `None` on
    /// platforms without procfs.
    pub peak_rss_bytes: Option<u64>,
}

impl Snapshot {
    /// `true` when no metric of any kind was recorded (the peak-RSS
    /// stamp does not count: it is always present on linux).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the snapshot as a JSON object with `counters` and
    /// `histograms` sub-objects plus the `peak_rss_bytes` stamp.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            (
                "counters".to_string(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
            (
                "peak_rss_bytes".to_string(),
                self.peak_rss_bytes.map_or(Value::Null, Value::U64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let r = Registry::default();
        r.counter("a").add(2);
        r.counter("a").incr();
        assert_eq!(r.counter("a").get(), 3);
    }

    #[test]
    fn histogram_snapshot_stats() {
        let h = Histogram::default();
        for v in [0.5, 1.0, 1.5, 4.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 7.0).abs() < 1e-12);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 4.0);
        assert!((s.mean() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_carries_the_peak_rss_stamp_on_linux() {
        let s = Registry::default().snapshot();
        if cfg!(target_os = "linux") {
            assert!(s.peak_rss_bytes.is_some_and(|b| b > 0));
        }
        let v = s.to_value();
        assert!(v.get("peak_rss_bytes").is_some());
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_serializes() {
        let r = Registry::default();
        r.counter("z.last").incr();
        r.counter("a.first").incr();
        r.histogram("h").observe(1.0);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counters[1].0, "z.last");
        let parsed = crate::json::parse(&s.to_value().to_json()).unwrap();
        assert!(parsed.get("histograms").is_some());
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let h = std::sync::Arc::new(Histogram::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        h.observe(1.0 + (i % 7) as f64);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        // Σ (1 + i mod 7) over i < 1000 is 3997 per thread, exact in f64.
        assert_eq!(snap.sum, 4.0 * 3997.0);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 7.0);
    }
}
