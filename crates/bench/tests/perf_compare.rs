//! End-to-end checks of the perf-trajectory gate against committed
//! golden fixtures: a baseline, a 20–25% regression across all three
//! metric classes (must gate), and a sub-threshold wobble (must
//! pass). Also drives the actual `bench_compare` binary to pin its
//! exit-code contract.

use std::path::{Path, PathBuf};
use std::process::Command;

use taco_bench::perf::{compare, compare_files, DeltaStatus, PerfReport, DEFAULT_THRESHOLD};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn golden_regression_gates_and_wobble_passes() {
    let base = fixture("perf_base.json");
    let regressed = compare_files(&base, &fixture("perf_regressed.json"), DEFAULT_THRESHOLD)
        .expect("fixtures parse");
    assert!(regressed.host_match, "fixtures share a host fingerprint");
    assert!(regressed.failed(false), "20%+ regressions must gate");
    assert!(
        regressed
            .deltas
            .iter()
            .all(|d| d.status == DeltaStatus::Regressed),
        "{regressed:?}"
    );

    let wobble = compare_files(&base, &fixture("perf_wobble.json"), DEFAULT_THRESHOLD)
        .expect("fixtures parse");
    assert!(
        !wobble.failed(true),
        "sub-threshold wobble must pass even strictly: {:?}",
        wobble.deltas
    );
}

/// Every metric in the committed trajectory must be able to gate: a
/// 50% move in its bad direction on the baseline's own host is
/// `Regressed`. A noise floor at or above a metric's value would pass
/// any drop silently.
#[test]
fn every_committed_metric_gates_a_fifty_percent_regression() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf_suite.json");
    let base = PerfReport::read(&path).expect("committed trajectory parses");
    for m in &base.metrics {
        let mut cur = base.clone();
        for c in cur.metrics.iter_mut().filter(|c| c.name == m.name) {
            c.value = if m.higher_is_better {
                m.value * 0.5
            } else {
                m.value * 1.5
            };
        }
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD).expect("same schema");
        let row = cmp.deltas.iter().find(|d| d.name == m.name).unwrap();
        assert_eq!(
            row.status,
            DeltaStatus::Regressed,
            "{} ({} {}) cannot gate: noise floor {}",
            m.name,
            m.value,
            m.unit,
            m.noise_floor
        );
    }
}

#[test]
fn golden_fixtures_round_trip_through_the_schema() {
    for name in ["perf_base.json", "perf_regressed.json", "perf_wobble.json"] {
        let parsed = PerfReport::read(&fixture(name)).expect(name);
        let reparsed = PerfReport::from_json(&parsed.to_value().to_json()).expect(name);
        assert_eq!(reparsed, parsed, "{name} must serialize→parse→identical");
    }
}

#[test]
fn bench_compare_binary_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_bench_compare");
    let run = |current: &str| {
        Command::new(bin)
            .arg(fixture("perf_base.json"))
            .arg(fixture(current))
            .output()
            .expect("bench_compare runs")
    };
    let fail = run("perf_regressed.json");
    assert_eq!(fail.status.code(), Some(1), "regression must exit 1");
    assert!(
        String::from_utf8_lossy(&fail.stdout).contains("REGRESSED"),
        "table names the regressed rows"
    );
    let pass = run("perf_wobble.json");
    assert_eq!(pass.status.code(), Some(0), "wobble must exit 0");
    let usage = Command::new(bin)
        .arg(fixture("perf_base.json"))
        .output()
        .expect("bench_compare runs");
    assert_eq!(usage.status.code(), Some(2), "bad usage must exit 2");
}
