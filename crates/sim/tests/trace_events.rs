//! Trace-sink wiring: the JSONL events a simulation emits.
//!
//! Each run records into its own [`MemorySink`], so these tests run in
//! parallel with each other and with any other simulation. Checks of
//! *what* a run did read its `History` instead and live next to the
//! code.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use taco_core::taco::TacoConfig;
use taco_core::{FedAvg, HyperParams, Taco};
use taco_data::partition;
use taco_data::{tabular, FederatedDataset};
use taco_nn::{Mlp, Model};
use taco_sim::{FaultKind, FaultPlan, History, SimConfig, Simulation};
use taco_tensor::pool::{self, Pool};
use taco_tensor::Prng;
use taco_trace::{self as trace, MemorySink, Sink, Value};

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

/// Runs `sim` with a fresh memory sink and returns its history with
/// everything the sink caught.
fn capture(sim: Simulation) -> (History, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let history = sim.with_sink(sink.clone()).run();
    (history, sink)
}

fn num(e: &trace::Event, key: &str) -> Option<f64> {
    e.field(key).and_then(Value::as_f64)
}

#[test]
fn round_events_reach_the_sink_with_phase_breakdown() {
    let hyper = HyperParams::new(3, 2, 0.05, 8);
    let (history, sink) = capture(Simulation::new(
        small_fed(3, 14),
        mlp(14),
        Box::new(FedAvg::default()),
        SimConfig::new(hyper, 3, 5),
    ));
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
    let (history, sink) = capture(Simulation::new(
        small_fed(n, 28),
        mlp(28),
        Box::new(FedAvg::default()),
        config,
    ));
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

/// A memory sink that, at its run's first `round` event, waits until
/// the other run has reached its own, so both runs are mid-stream at
/// once.
struct Rendezvous {
    events: MemorySink,
    barrier: Arc<Barrier>,
    met: AtomicBool,
}

impl Sink for Rendezvous {
    fn record(&self, event: &trace::Event) {
        self.events.record(event);
        if event.kind == "round" && !self.met.swap(true, Ordering::Relaxed) {
            self.barrier.wait();
        }
    }
}

/// A FedAvg run and a TACO run at the same time, each with its own
/// sink: every `round` event lands in the sink of the run it
/// describes.
#[test]
fn concurrent_runs_keep_their_events_apart() {
    let (n, rounds) = (4, 4);
    let hyper = HyperParams::new(n, 3, 0.05, 8);
    let fedavg = Simulation::new(
        small_fed(n, 3),
        mlp(3),
        Box::new(FedAvg::default()),
        SimConfig::new(hyper, rounds, 11),
    );
    let taco = Simulation::new(
        small_fed(n, 4),
        mlp(4),
        Box::new(Taco::new(n, TacoConfig::paper_default(rounds, 3))),
        SimConfig::new(hyper, rounds, 12),
    );
    let barrier = Arc::new(Barrier::new(2));
    let run = |sim: Simulation| {
        let sink = Arc::new(Rendezvous {
            events: MemorySink::new(),
            barrier: barrier.clone(),
            met: AtomicBool::new(false),
        });
        let history = sim.with_sink(sink.clone()).run();
        (history, sink)
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run(fedavg));
        let b = s.spawn(|| run(taco));
        (a.join().unwrap(), b.join().unwrap())
    });
    for (history, sink) in [a, b] {
        let sink = &sink.events;
        let events = sink.events_of_kind("round");
        assert_eq!(events.len(), history.rounds.len(), "{}", history.algorithm);
        for (e, r) in events.iter().zip(&history.rounds) {
            assert_eq!(num(e, "round"), Some(r.round as f64));
            assert_eq!(
                e.field("algorithm").and_then(Value::as_str),
                Some(history.algorithm.as_str())
            );
            assert_eq!(num(e, "test_accuracy"), Some(r.test_accuracy));
        }
        // Beside them, one client_step span per participant per round
        // and nothing else.
        let steps: usize = history.rounds.iter().map(|r| r.participants.len()).sum();
        assert_eq!(sink.events_of_kind("span").len(), steps);
        assert_eq!(sink.len(), steps + history.rounds.len());
    }
}

/// The event stream of a run does not depend on the pool size: the
/// same `(kind, name, round, client)` sequence on one thread and on
/// four, with each round's `client_step` events in client order.
#[test]
fn event_order_is_the_same_on_any_pool() {
    let (n, seed) = (5, 41);
    let hyper = HyperParams::new(n, 3, 0.05, 8);
    let plan = FaultPlan::new()
        .with_dropouts(0.2)
        .with_corruption(0.2, 1e12)
        .with_max_delta_norm(1e4);
    let stream = |threads: usize| {
        let config = SimConfig::new(hyper, 4, seed).with_fault_plan(plan.clone());
        let sim = Simulation::new(small_fed(n, 9), mlp(9), Box::new(FedAvg::default()), config);
        let (_, sink) = pool::with_pool(&Pool::new(threads), || capture(sim));
        sink.events()
            .iter()
            .map(|e| {
                let name = e.field("name").and_then(Value::as_str).map(str::to_string);
                (e.kind.clone(), name, num(e, "round"), num(e, "client"))
            })
            .collect::<Vec<_>>()
    };
    let one = stream(1);
    assert_eq!(one, stream(4));
    let steps: Vec<_> = one.iter().filter(|(kind, ..)| kind == "span").collect();
    assert!(steps.len() > 4, "too few client steps to order");
    for pair in steps.windows(2) {
        let ((_, _, r0, c0), (_, _, r1, c1)) = (pair[0], pair[1]);
        assert!(r0 < r1 || (r0 == r1 && c0 < c1), "{pair:?}");
    }
}
