//! Shard-fold differential suite (see `taco_core::aggregate_planned`).
//!
//! The server calls the algorithm's `aggregate` once per round; the
//! default runs one order-fixed shard fold whose shard count it
//! derives from the model size and the pool. The fold's contract: at any shard count and any `TACO_THREADS`,
//! every deterministic field of a run is **bit-identical**. This suite
//! enforces it for every algorithm in `taco_core` over shards
//! {1, 3, 8} × threads {1, 4} — against the shards = 1 / threads = 1
//! run, against the committed golden fixtures, and under fault
//! injection and freeloading, where detection strikes must expel the
//! same clients.
//!
//! The shard count goes through the fold's argument:
//! [`common::fixed_shards`] wraps an algorithm so its aggregation folds
//! over exactly that many shards, however small the model.

mod common;

use common::{
    assert_values_close, check_against_golden, fixed_shards, golden_run, history_value, mlp,
    tabular_fed,
};
use taco::core::taco::TacoConfig;
use taco::core::{
    AggWeighting, FedAcg, FedAvg, FedDyn, FedNova, FedProx, FederatedAlgorithm, FoolsGold,
    HyperParams, Scaffold, Stem, Taco, TailoredProx, TailoredScaffold,
};
use taco::sim::freeloader::with_freeloaders;
use taco::sim::{FaultPlan, History, SimConfig, Simulation};
use taco::tensor::pool::{self, Pool};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const THREAD_COUNTS: [usize; 2] = [1, 4];

type AlgorithmMaker = fn() -> Box<dyn FederatedAlgorithm>;

/// Every algorithm in `taco_core`, configured for the golden run's
/// four clients: the eight planning ones run the shard fold; FedNova,
/// STEM and FedACG run their own `aggregate`.
fn algorithms() -> Vec<(&'static str, AlgorithmMaker)> {
    vec![
        ("FedAvg", || Box::new(FedAvg::new(AggWeighting::Uniform))),
        ("FedProx", || Box::new(FedProx::new(0.1))),
        ("FedNova", || Box::new(FedNova::default())),
        ("FedDyn", || Box::new(FedDyn::new(4, 0.01))),
        ("FoolsGold", || Box::new(FoolsGold::new())),
        ("Scaffold", || Box::new(Scaffold::new(4, 1.0))),
        ("STEM", || Box::new(Stem::new(0.5))),
        ("FedACG", || Box::new(FedAcg::new(0.001))),
        ("TACO", || {
            Box::new(Taco::new(4, TacoConfig::paper_default(8, 6)))
        }),
        ("FedProx+TACO", || Box::new(TailoredProx::new(4, 0.1))),
        ("Scaffold+TACO", || Box::new(TailoredScaffold::new(4))),
    ]
}

/// `f` on a fresh pool of `threads` workers.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    pool::with_pool(&Pool::new(threads), f)
}

#[test]
fn trajectories_are_bit_identical_across_the_shard_thread_matrix() {
    for (name, make) in algorithms() {
        let reference = on_pool(1, || golden_run(fixed_shards(make(), 1), false));
        let reference_value = history_value(&reference);
        // The wrapper is transparent: the server's own shard count
        // gives the same run.
        assert_values_close(
            &reference_value,
            &history_value(&on_pool(1, || golden_run(make(), false))),
            0.0,
            &format!("{name}.unwrapped"),
        );
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let got = on_pool(threads, || golden_run(fixed_shards(make(), shards), true));
                let label = format!("{name}.shards{shards}.t{threads}");
                assert_values_close(&reference_value, &history_value(&got), 0.0, &label);
            }
        }
    }
}

#[test]
fn sharded_runs_match_the_committed_golden_fixtures() {
    // Shard-count equivalence is not just internal consistency: a
    // multi-shard fold on a parallel pool must reproduce the committed
    // trajectories exactly.
    for threads in THREAD_COUNTS {
        let h = on_pool(threads, || {
            golden_run(
                fixed_shards(Box::new(FedAvg::new(AggWeighting::Uniform)), 8),
                false,
            )
        });
        check_against_golden("golden_fedavg.json", &h);
        let h = on_pool(threads, || {
            golden_run(
                fixed_shards(Box::new(Taco::new(4, TacoConfig::paper_default(8, 6))), 3),
                false,
            )
        });
        check_against_golden("golden_taco.json", &h);
    }
}

/// A faulted TACO run: corruption past the validation norm cap (so
/// uploads are quarantined and reported to the algorithm), plus
/// stragglers behind a synchronous deadline, with detection enabled so
/// quarantine strikes can expel clients.
fn faulted_run(shards: usize) -> History {
    let clients = 6;
    let fed = tabular_fed(clients, 13, 0.4);
    let hyper = HyperParams::new(clients, 6, 0.05, 16);
    let plan = FaultPlan::new()
        .with_dropouts(0.1)
        .with_corruption(0.2, 1e9)
        .with_max_delta_norm(1e4)
        .with_stragglers(0.2, 4.0)
        .with_deadline(12.0, 1.0);
    let config = SimConfig::new(hyper, 8, 13).with_fault_plan(plan);
    let alg = Taco::new(
        clients,
        TacoConfig::paper_default(8, 6).with_detection(0.6, 1),
    );
    let alg = fixed_shards(Box::new(alg), shards);
    Simulation::new(fed, mlp(13), alg, config).run()
}

/// A TACO run where the first two of six clients freeload (echo the
/// previous global update), with detection enabled so Eq. 10 strikes
/// can expel them.
fn freeloader_run(shards: usize) -> History {
    let clients = 6;
    let fed = tabular_fed(clients, 14, 0.4);
    let hyper = HyperParams::new(clients, 6, 0.05, 16);
    let config = SimConfig::new(hyper, 8, 14).with_behaviors(with_freeloaders(clients, 2));
    let alg = Taco::new(
        clients,
        TacoConfig::paper_default(8, 6).with_detection(0.6, 1),
    );
    let alg = fixed_shards(Box::new(alg), shards);
    Simulation::new(fed, mlp(14), alg, config).run()
}

#[test]
fn fault_injection_interacts_identically_across_shard_counts() {
    let faulted = on_pool(1, || faulted_run(1));
    assert!(
        faulted.rounds.iter().any(|r| r.updates_rejected > 0),
        "fault plan must reject uploads for this test to bite"
    );
    compare_across_shard_counts("faulted", &faulted, faulted_run);
    let freeloading = on_pool(1, || freeloader_run(1));
    assert!(
        !freeloading.expelled_clients.is_empty(),
        "detection must expel a client for this test to bite"
    );
    compare_across_shard_counts("freeloaders", &freeloading, freeloader_run);
}

/// Runs `run` at every shard × thread count and requires every field
/// the detector touches to match `reference` bit for bit.
fn compare_across_shard_counts(name: &str, reference: &History, run: fn(usize) -> History) {
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let got = on_pool(threads, || run(shards));
            let label = format!("{name}.shards{shards}.t{threads}");
            assert_values_close(&history_value(reference), &history_value(&got), 0.0, &label);
            // Fault accounting, suspicion and the strike/expulsion
            // sequence are not part of history_value; compare them
            // field by field.
            for (ra, rb) in reference.rounds.iter().zip(&got.rounds) {
                let r = ra.round;
                assert_eq!(
                    ra.faults_injected, rb.faults_injected,
                    "{label}: faults_injected @ round {r}"
                );
                assert_eq!(
                    ra.updates_rejected, rb.updates_rejected,
                    "{label}: updates_rejected @ round {r}"
                );
                assert_eq!(ra.suspected, rb.suspected, "{label}: suspected @ round {r}");
            }
            assert_eq!(
                reference.expelled_clients, got.expelled_clients,
                "{label}: expulsion sequence"
            );
        }
    }
}
