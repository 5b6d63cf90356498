//! Trace-sink wiring: the JSONL events a simulation emits.
//!
//! The sink is process-global, so every test here captures events
//! under `trace::test_guard()`, and nothing else in this binary runs a
//! simulation. Checks of *what* a run did read its `History` instead
//! and live next to the code.

use std::sync::Arc;

use taco_core::{FedAvg, HyperParams};
use taco_data::partition::{self, DriftSchedule};
use taco_data::{tabular, FederatedDataset};
use taco_nn::{Mlp, Model};
use taco_sim::{FaultKind, FaultPlan, SimConfig, Simulation};
use taco_tensor::Prng;
use taco_trace::{self as trace, MemorySink, Value};

fn small_fed(clients: usize, seed: u64) -> FederatedDataset {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = tabular::TabularSpec::adult_like().with_sizes(240, 80);
    let data = tabular::generate(&spec, &mut rng);
    let shards = partition::dirichlet(data.train.labels(), clients, 0.5, &mut rng);
    FederatedDataset::from_partition(data.train, data.test, &shards)
}

fn mlp(seed: u64) -> Box<dyn Model> {
    let mut rng = Prng::seed_from_u64(seed);
    Box::new(Mlp::new(14, &[16, 8], 2, &mut rng))
}

/// Runs `f` with a fresh memory sink installed and returns its result
/// with everything the sink caught.
fn capture<R>(f: impl FnOnce() -> R) -> (R, Arc<MemorySink>) {
    let _guard = trace::test_guard();
    let sink = Arc::new(MemorySink::new());
    let prev = trace::set_sink(sink.clone());
    let out = f();
    trace::set_sink(prev);
    trace::clear_sink();
    (out, sink)
}

fn num(e: &trace::Event, key: &str) -> Option<f64> {
    e.field(key).and_then(Value::as_f64)
}

#[test]
fn round_events_reach_the_sink_with_phase_breakdown() {
    let hyper = HyperParams::new(3, 2, 0.05, 8);
    let (history, sink) = capture(|| {
        Simulation::new(
            small_fed(3, 14),
            mlp(14),
            Box::new(FedAvg::default()),
            SimConfig::new(hyper, 3, 5),
        )
        .run()
    });
    let rounds = sink.events_of_kind("round");
    assert_eq!(rounds.len(), history.rounds.len());
    for (i, e) in rounds.iter().enumerate() {
        assert_eq!(num(e, "round"), Some(i as f64));
        for key in [
            "participation_secs",
            "local_secs",
            "compress_secs",
            "aggregate_secs",
            "eval_secs",
            "secs",
            "upload_bytes",
            "clients_active",
        ] {
            assert!(e.field(key).is_some(), "round event missing {key}");
        }
    }
    // Per-client spans rode along too: 3 clients × 3 rounds.
    let steps = sink.events_of_kind("span");
    assert_eq!(steps.len(), 9);
}

/// The round events restate the history (the counts derived from it
/// included), and every injection and quarantine arrives as one
/// `fault` event with a known label.
#[test]
fn fault_events_and_round_counts_match_the_history() {
    let n = 5;
    let seed = 41;
    let rounds = 5;
    let hyper = HyperParams::new(n, 4, 0.05, 16);
    let plan = FaultPlan::new()
        .with_dropouts(0.3)
        .with_corruption(0.3, 1e12)
        .with_max_delta_norm(1e4);
    let config = SimConfig::new(hyper, rounds, seed).with_fault_plan(plan.clone());
    let (history, sink) = capture(|| {
        Simulation::new(
            small_fed(n, 28),
            mlp(28),
            Box::new(FedAvg::default()),
            config,
        )
        .run()
    });
    let events = sink.events_of_kind("round");
    assert_eq!(events.len(), rounds);
    for (round, (e, r)) in events.iter().zip(&history.rounds).enumerate() {
        let faults = (0..n)
            .filter(|&c| plan.fault_for(seed, round, c).is_some())
            .count();
        let corrupted = (0..n)
            .filter(|&c| matches!(plan.fault_for(seed, round, c), Some(FaultKind::Corrupt(_))))
            .count();
        assert_eq!(
            num(e, "faults_injected"),
            Some(faults as f64),
            "round {round}"
        );
        assert_eq!(
            num(e, "updates_rejected"),
            Some(corrupted as f64),
            "round {round}"
        );
        assert_eq!(r.faults_injected, faults, "history and trace disagree");
        let active = r.participants.len() - r.fault_totals.dropouts - r.updates_rejected;
        assert_eq!(
            num(e, "clients_active"),
            Some(active as f64),
            "round {round}"
        );
        assert_eq!(num(e, "clients_skipped"), Some(0.0), "round {round}");
    }
    assert!(
        history.total_faults_injected() > 0,
        "plan never fired; the check is vacuous"
    );
    // Individual fault events arrive under the event kind "fault" with
    // the category in a "fault" field ("kind" is a reserved Event
    // key): one per injection plus one per quarantine.
    let fault_events = sink.events_of_kind("fault");
    assert_eq!(
        fault_events.len(),
        history.total_faults_injected() + history.total_updates_rejected()
    );
    for e in &fault_events {
        let label = e.field("fault").and_then(Value::as_str);
        assert!(
            matches!(
                label,
                Some(
                    "dropout"
                        | "straggler"
                        | "corrupt_nan"
                        | "corrupt_inf"
                        | "corrupt_scale"
                        | "deadline_cut"
                        | "quarantine"
                )
            ),
            "unexpected fault label {label:?}"
        );
    }
}

#[test]
fn drift_events_fire_on_the_schedule_cadence() {
    let hyper = HyperParams::new(4, 4, 0.05, 16);
    let schedule = DriftSchedule::new(0.5, 0.1, 2, 8);
    let run = || {
        Simulation::new(
            small_fed(4, 38),
            mlp(38),
            Box::new(FedAvg::default()),
            SimConfig::new(hyper, 8, 29).with_drift(schedule),
        )
        .run()
    };
    let (_, sink) = capture(|| (run(), run()));
    // Rounds 2, 4, 6 re-partition (round 0 keeps the initial
    // partition); two identical runs double the event count.
    let drifts = sink.events_of_kind("drift");
    assert_eq!(drifts.len(), 2 * 3);
    for e in &drifts {
        let phi = num(e, "phi");
        assert!(phi.is_some_and(|p| p > 0.0 && p <= 0.5), "phi {phi:?}");
    }
}
