//! The perf-trajectory schema (`BENCH_*.json`) and its comparator.
//!
//! `perf_suite` emits one schema-versioned report per run; the
//! committed copy at the repo root is the trajectory baseline the CI
//! `perf-trajectory` job diffs fresh runs against with
//! [`compare`] / the `bench_compare` binary. Two metric classes keep
//! the gate honest across heterogeneous runners:
//!
//! - **deterministic** metrics (wire bytes) gate everywhere — they
//!   must reproduce bit-for-bit on any host;
//! - **machine-dependent** metrics (GFLOP/s, GB/s, wall-times) gate
//!   only when the stored [`HostInfo`] fingerprint (OS, architecture,
//!   core count and CPU model) matches the baseline's; on a different
//!   machine they downgrade to warnings (pass `--strict` to gate
//!   regardless).
//!
//! A metric on one side only always gates, whatever the host: one the
//! current report lost breaks the schema, and one the baseline lacks
//! would otherwise never be compared at all.
//!
//! Every metric additionally carries an absolute `noise_floor`: a
//! relative regression above the threshold still passes while the
//! absolute change sits inside the floor, so sub-millisecond wobble on
//! a sub-10ms phase can never fail CI.

use std::io::Write as _;
use std::path::Path;

use taco_trace::{json, Value};

/// Version of the `BENCH_*.json` schema. Bump on any breaking change
/// to the report shape or to a reported metric name; the
/// comparator refuses to diff mismatched versions.
pub const SCHEMA_VERSION: u64 = 1;

/// Default per-metric regression threshold (relative, in the metric's
/// bad direction).
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// One gated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMetric {
    /// Stable metric name (`kernel.matmul.gflops.n256`,
    /// `codec.q8.wire_bytes`, ...).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label for humans (`gflop/s`, `ms`, `bytes`, ...).
    pub unit: String,
    /// Direction: `true` when bigger is better (throughput), `false`
    /// when smaller is better (latency, bytes).
    pub higher_is_better: bool,
    /// `true` for metrics that only compare meaningfully on the same
    /// hardware (wall-times, GFLOP/s, GB/s); `false` for deterministic
    /// quantities that must reproduce anywhere.
    pub machine_dependent: bool,
    /// Absolute change below which a regression never gates, whatever
    /// the relative threshold says.
    pub noise_floor: f64,
}

/// Host fingerprint stored in every report; machine-dependent metrics
/// gate only between matching fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available hardware parallelism.
    pub parallelism: u64,
    /// CPU model name (`model name` in `/proc/cpuinfo`); empty where
    /// the platform does not report one.
    pub cpu: String,
}

impl HostInfo {
    /// The fingerprint of this process's host.
    pub fn current() -> HostInfo {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines().find_map(|line| {
                        let (key, model) = line.split_once(':')?;
                        (key.trim() == "model name").then(|| model.trim().to_string())
                    })
                })
                .unwrap_or_default(),
        }
    }

    fn to_value(&self) -> Value {
        Value::object(vec![
            ("os".to_string(), Value::from(self.os.as_str())),
            ("arch".to_string(), Value::from(self.arch.as_str())),
            ("parallelism".to_string(), Value::U64(self.parallelism)),
            ("cpu".to_string(), Value::from(self.cpu.as_str())),
        ])
    }

    fn from_value(v: &Value) -> Result<HostInfo, String> {
        Ok(HostInfo {
            os: str_field(v, "os")?,
            arch: str_field(v, "arch")?,
            parallelism: num_field(v, "parallelism")? as u64,
            // Reports written before the CPU model joined the
            // fingerprint match no host that reports one.
            cpu: str_field(v, "cpu").unwrap_or_default(),
        })
    }
}

/// A complete `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Schema version ([`SCHEMA_VERSION`] for freshly-emitted files).
    pub schema_version: u64,
    /// Suite slug (`perf_suite`).
    pub suite: String,
    /// Emission timestamp (informational; never compared).
    pub unix_ms: u64,
    /// Build info from [`crate::build_info`] (informational).
    pub build: Value,
    /// Host fingerprint.
    pub host: HostInfo,
    /// Timed repeats behind each median (informational).
    pub repeats: u64,
    /// The gated metrics.
    pub metrics: Vec<PerfMetric>,
}

impl PerfReport {
    /// Serializes the report as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            (
                "schema_version".to_string(),
                Value::U64(self.schema_version),
            ),
            ("suite".to_string(), Value::from(self.suite.as_str())),
            ("unix_ms".to_string(), Value::U64(self.unix_ms)),
            ("build".to_string(), self.build.clone()),
            ("host".to_string(), self.host.to_value()),
            ("repeats".to_string(), Value::U64(self.repeats)),
            (
                "metrics".to_string(),
                Value::Array(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Value::object(vec![
                                ("name".to_string(), Value::from(m.name.as_str())),
                                ("value".to_string(), Value::F64(m.value)),
                                ("unit".to_string(), Value::from(m.unit.as_str())),
                                (
                                    "higher_is_better".to_string(),
                                    Value::Bool(m.higher_is_better),
                                ),
                                (
                                    "machine_dependent".to_string(),
                                    Value::Bool(m.machine_dependent),
                                ),
                                ("noise_floor".to_string(), Value::F64(m.noise_floor)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<PerfReport, String> {
        let metrics_v = v.get("metrics").ok_or("missing `metrics`")?;
        let Value::Array(items) = metrics_v else {
            return Err("`metrics` is not an array".to_string());
        };
        let mut metrics = Vec::with_capacity(items.len());
        for (i, m) in items.iter().enumerate() {
            metrics.push(PerfMetric {
                name: str_field(m, "name").map_err(|e| format!("metrics[{i}]: {e}"))?,
                value: num_field(m, "value").map_err(|e| format!("metrics[{i}]: {e}"))?,
                unit: str_field(m, "unit").map_err(|e| format!("metrics[{i}]: {e}"))?,
                higher_is_better: bool_field(m, "higher_is_better")
                    .map_err(|e| format!("metrics[{i}]: {e}"))?,
                machine_dependent: bool_field(m, "machine_dependent")
                    .map_err(|e| format!("metrics[{i}]: {e}"))?,
                noise_floor: num_field(m, "noise_floor")
                    .map_err(|e| format!("metrics[{i}]: {e}"))?,
            });
        }
        Ok(PerfReport {
            schema_version: num_field(v, "schema_version")? as u64,
            suite: str_field(v, "suite")?,
            unix_ms: num_field(v, "unix_ms")? as u64,
            build: v.get("build").cloned().unwrap_or(Value::Null),
            host: HostInfo::from_value(v.get("host").ok_or("missing `host`")?)?,
            repeats: num_field(v, "repeats")? as u64,
            metrics,
        })
    }

    /// Parses a report from JSON text.
    ///
    /// # Errors
    ///
    /// Propagates JSON syntax errors and schema-field errors.
    pub fn from_json(text: &str) -> Result<PerfReport, String> {
        PerfReport::from_value(&json::parse(text)?)
    }

    /// Reads and parses a report file.
    ///
    /// # Errors
    ///
    /// I/O errors and parse errors, prefixed with the path.
    pub fn read(path: &Path) -> Result<PerfReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        PerfReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the report as pretty-stable compact JSON (one document,
    /// trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.to_value().to_json())
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool `{key}`")),
    }
}

/// Outcome of one metric's baseline-vs-current diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Within threshold (or improved).
    Ok,
    /// Regressed past threshold and noise floor — gates the run.
    Regressed,
    /// Regressed, but machine-dependent across differing hosts —
    /// reported as a warning unless strict mode gates it.
    Waived,
    /// Present in the baseline but absent from the current report —
    /// a schema contract break, always gates.
    Missing,
    /// Present in the current report but absent from the baseline — a
    /// metric nothing gates yet, so the baseline is stale; always
    /// gates until the baseline is regenerated.
    Unbaselined,
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Baseline value (0.0 when [`DeltaStatus::Unbaselined`]).
    pub baseline: f64,
    /// Current value (0.0 when [`DeltaStatus::Missing`]).
    pub current: f64,
    /// Relative change in the metric's *bad* direction (positive =
    /// worse, negative = improved).
    pub rel_regression: f64,
    /// Unit label.
    pub unit: String,
    /// Verdict.
    pub status: DeltaStatus,
}

/// A full baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-metric rows: baseline order, then any unbaselined metrics
    /// in current-report order.
    pub deltas: Vec<MetricDelta>,
    /// Whether the two reports carry the same host fingerprint.
    pub host_match: bool,
    /// The threshold the verdicts were computed with.
    pub threshold: f64,
}

impl Comparison {
    /// `true` when the gate should fail. Waived rows fail only in
    /// strict mode.
    pub fn failed(&self, strict: bool) -> bool {
        self.deltas.iter().any(|d| match d.status {
            DeltaStatus::Ok => false,
            DeltaStatus::Regressed | DeltaStatus::Missing | DeltaStatus::Unbaselined => true,
            DeltaStatus::Waived => strict,
        })
    }

    /// Renders an aligned human-readable table of every row.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>14} {:>14} {:>9}  verdict\n",
            "metric", "baseline", "current", "change"
        ));
        for d in &self.deltas {
            let verdict = match d.status {
                DeltaStatus::Ok => "ok",
                DeltaStatus::Regressed => "REGRESSED",
                DeltaStatus::Waived => "waived (host differs)",
                DeltaStatus::Missing => "MISSING",
                DeltaStatus::Unbaselined => "UNBASELINED (not in baseline)",
            };
            out.push_str(&format!(
                "{:<34} {:>14.4} {:>14.4} {:>+8.1}%  {}\n",
                d.name,
                d.baseline,
                d.current,
                d.rel_regression * 100.0,
                verdict
            ));
        }
        if !self.host_match {
            out.push_str(
                "note: host fingerprints differ; machine-dependent metrics are advisory\n",
            );
        }
        out
    }
}

/// Diffs `current` against `baseline` at `threshold` (relative, per
/// metric, in the metric's bad direction). A metric on only one side
/// gates: [`DeltaStatus::Missing`] when the current report lacks it,
/// [`DeltaStatus::Unbaselined`] when the baseline does.
///
/// # Errors
///
/// Refuses mismatched schema versions or suite slugs — those diffs
/// would compare incommensurable numbers.
pub fn compare(
    baseline: &PerfReport,
    current: &PerfReport,
    threshold: f64,
) -> Result<Comparison, String> {
    if baseline.schema_version != current.schema_version {
        return Err(format!(
            "schema version mismatch: baseline v{} vs current v{}; regenerate the baseline",
            baseline.schema_version, current.schema_version
        ));
    }
    if baseline.suite != current.suite {
        return Err(format!(
            "suite mismatch: `{}` vs `{}`",
            baseline.suite, current.suite
        ));
    }
    let host_match = baseline.host == current.host;
    let mut deltas = Vec::with_capacity(baseline.metrics.len());
    for b in &baseline.metrics {
        let Some(c) = current.metrics.iter().find(|m| m.name == b.name) else {
            deltas.push(MetricDelta {
                name: b.name.clone(),
                baseline: b.value,
                current: 0.0,
                rel_regression: f64::INFINITY,
                unit: b.unit.clone(),
                status: DeltaStatus::Missing,
            });
            continue;
        };
        // Absolute change in the bad direction: positive = worse.
        let bad_abs = if b.higher_is_better {
            b.value - c.value
        } else {
            c.value - b.value
        };
        let rel = if b.value.abs() > f64::EPSILON {
            bad_abs / b.value.abs()
        } else if bad_abs > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let regressed = rel > threshold && bad_abs > b.noise_floor;
        let status = if !regressed {
            DeltaStatus::Ok
        } else if b.machine_dependent && !host_match {
            DeltaStatus::Waived
        } else {
            DeltaStatus::Regressed
        };
        deltas.push(MetricDelta {
            name: b.name.clone(),
            baseline: b.value,
            current: c.value,
            rel_regression: rel,
            unit: b.unit.clone(),
            status,
        });
    }
    for c in &current.metrics {
        if !baseline.metrics.iter().any(|b| b.name == c.name) {
            deltas.push(MetricDelta {
                name: c.name.clone(),
                baseline: 0.0,
                current: c.value,
                rel_regression: f64::INFINITY,
                unit: c.unit.clone(),
                status: DeltaStatus::Unbaselined,
            });
        }
    }
    Ok(Comparison {
        deltas,
        host_match,
        threshold,
    })
}

/// File-level comparator used by the `bench_compare` binary.
///
/// # Errors
///
/// I/O, parse, and schema errors from either side.
pub fn compare_files(
    baseline: &Path,
    current: &Path,
    threshold: f64,
) -> Result<Comparison, String> {
    compare(
        &PerfReport::read(baseline)?,
        &PerfReport::read(current)?,
        threshold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: Vec<PerfMetric>) -> PerfReport {
        PerfReport {
            schema_version: SCHEMA_VERSION,
            suite: "perf_suite".to_string(),
            unix_ms: 1_700_000_000_000,
            build: crate::build_info(),
            host: HostInfo::current(),
            repeats: 5,
            metrics,
        }
    }

    fn metric(name: &str, value: f64, higher: bool) -> PerfMetric {
        PerfMetric {
            name: name.to_string(),
            value,
            unit: "ms".to_string(),
            higher_is_better: higher,
            machine_dependent: false,
            noise_floor: 0.0,
        }
    }

    #[test]
    fn schema_round_trips_identically() {
        let original = report(vec![
            metric("aggregate.TACO.wall_ms", 12.5, false),
            PerfMetric {
                name: "kernel.matmul.gflops.n256".to_string(),
                value: 3.75,
                unit: "gflop/s".to_string(),
                higher_is_better: true,
                machine_dependent: true,
                noise_floor: 0.25,
            },
        ]);
        let parsed = PerfReport::from_json(&original.to_value().to_json()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn regression_direction_respects_higher_is_better() {
        let base = report(vec![
            metric("latency", 100.0, false),
            metric("throughput", 100.0, true),
        ]);
        // Latency up 20% and throughput down 20%: both regress.
        let cur = report(vec![
            metric("latency", 120.0, false),
            metric("throughput", 80.0, true),
        ]);
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD).unwrap();
        assert!(cmp.failed(false));
        assert!(cmp
            .deltas
            .iter()
            .all(|d| d.status == DeltaStatus::Regressed));
        // Latency *down* and throughput *up* is an improvement.
        let better = report(vec![
            metric("latency", 80.0, false),
            metric("throughput", 120.0, true),
        ]);
        let cmp = compare(&base, &better, DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.failed(true));
        assert!(cmp.deltas.iter().all(|d| d.rel_regression < 0.0));
    }

    #[test]
    fn noise_floor_absorbs_small_absolute_changes() {
        let mut m = metric("tiny_phase_ms", 1.0, false);
        m.noise_floor = 0.5;
        let base = report(vec![m.clone()]);
        m.value = 1.4; // +40% relative but only +0.4 absolute
        let cur = report(vec![m.clone()]);
        assert!(!compare(&base, &cur, 0.10).unwrap().failed(true));
        m.value = 1.6; // +60% and past the floor
        let cur = report(vec![m]);
        assert!(compare(&base, &cur, 0.10).unwrap().failed(false));
    }

    #[test]
    fn missing_metric_and_schema_mismatch_fail() {
        let base = report(vec![metric("a", 1.0, false), metric("b", 2.0, false)]);
        let cur = report(vec![metric("a", 1.0, false)]);
        let cmp = compare(&base, &cur, 0.10).unwrap();
        assert!(cmp.failed(false));
        assert_eq!(cmp.deltas[1].status, DeltaStatus::Missing);
        let mut v2 = base.clone();
        v2.schema_version = SCHEMA_VERSION + 1;
        assert!(compare(&base, &v2, 0.10).is_err());
    }

    #[test]
    fn unbaselined_metric_fails_even_when_host_differs() {
        let base = report(vec![metric("a", 1.0, false)]);
        let mut fresh = metric("b", 2.0, true);
        fresh.machine_dependent = true;
        let mut cur = report(vec![metric("a", 1.0, false), fresh]);
        cur.host.parallelism += 8;
        let cmp = compare(&base, &cur, 0.10).unwrap();
        assert!(cmp.failed(false), "a metric the baseline lacks must gate");
        assert_eq!(cmp.deltas.len(), 2);
        assert_eq!(cmp.deltas[0].status, DeltaStatus::Ok);
        assert_eq!(cmp.deltas[1].name, "b");
        assert_eq!(cmp.deltas[1].current, 2.0);
        assert_eq!(cmp.deltas[1].status, DeltaStatus::Unbaselined);
        assert!(cmp.render_text().contains("UNBASELINED"));
    }

    #[test]
    fn machine_dependent_metrics_waive_across_hosts() {
        let mut m = metric("wall_ms", 100.0, false);
        m.machine_dependent = true;
        let base = report(vec![m.clone()]);
        m.value = 200.0;
        let mut cur = report(vec![m]);
        cur.host.parallelism += 8; // different machine
        let cmp = compare(&base, &cur, 0.10).unwrap();
        assert_eq!(cmp.deltas[0].status, DeltaStatus::Waived);
        assert!(!cmp.failed(false), "waived row must not gate by default");
        assert!(cmp.failed(true), "strict mode gates waived rows");
    }

    #[test]
    fn self_comparison_always_passes() {
        let base = report(vec![metric("a", 3.0, false), metric("b", 0.0, true)]);
        let cmp = compare(&base, &base.clone(), DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.failed(true));
        assert!(cmp.render_text().contains("ok"));
    }
}
