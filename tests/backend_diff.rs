//! Aggregation differential suite (see `taco_core::weighted_mean`).
//!
//! The server calls the algorithm's `aggregate` once per round; the
//! default runs one order-fixed fold split into fixed 2048-dimension
//! tiles, one pool task per tile, so the split depends on the model's
//! size only. The fold's contract: at any `TACO_THREADS`, every
//! deterministic field of a run is **bit-identical**. This suite
//! enforces it for every algorithm in `taco_core` over threads {1, 4}
//! — against the threads = 1 sequential run, against the committed
//! golden fixtures, under fault injection and freeloading, where
//! detection strikes must expel the same clients, and on a model wide
//! enough that the fold spans several tiles.

mod common;

use common::{assert_values_eq, check_against_golden, golden_run, history_value, mlp, tabular_fed};
use taco::core::taco::TacoConfig;
use taco::core::{
    AggWeighting, FedAcg, FedAvg, FedDyn, FedNova, FedProx, FederatedAlgorithm, FoolsGold,
    HyperParams, Scaffold, Stem, Taco, TailoredProx, TailoredScaffold,
};
use taco::nn::Mlp;
use taco::sim::freeloader::with_freeloaders;
use taco::sim::{FaultPlan, History, SimConfig, Simulation};
use taco::tensor::pool::{self, Pool};
use taco::tensor::Prng;

const THREAD_COUNTS: [usize; 2] = [1, 4];

type AlgorithmMaker = fn() -> Box<dyn FederatedAlgorithm>;

/// Every algorithm in `taco_core`, configured for the golden run's
/// four clients: the eight planning ones run the tiled fold; FedNova,
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
fn trajectories_are_bit_identical_across_thread_counts() {
    for (name, make) in algorithms() {
        let reference = history_value(&on_pool(1, || golden_run(make(), false)));
        for threads in THREAD_COUNTS {
            let got = on_pool(threads, || golden_run(make(), true));
            assert_values_eq(
                &reference,
                &history_value(&got),
                &format!("{name}.t{threads}"),
            );
        }
    }
}

#[test]
fn pooled_runs_match_the_committed_golden_fixtures() {
    // Thread-count equivalence is not just internal consistency: a run
    // with pooled client jobs on a parallel pool must reproduce the
    // committed trajectories exactly.
    for threads in THREAD_COUNTS {
        let h = on_pool(threads, || {
            golden_run(Box::new(FedAvg::new(AggWeighting::Uniform)), true)
        });
        check_against_golden("golden_fedavg.json", &h);
        let h = on_pool(threads, || {
            golden_run(
                Box::new(Taco::new(4, TacoConfig::paper_default(8, 6))),
                true,
            )
        });
        check_against_golden("golden_taco.json", &h);
    }
}

/// The golden workload on an 8.7k-parameter MLP: the fold spans five
/// 2048-dimension tiles, where the golden model fits in one.
fn wide_run(alg: Box<dyn FederatedAlgorithm>, parallel: bool) -> History {
    let clients = 4;
    let fed = tabular_fed(clients, 11, 0.3);
    let hyper = HyperParams::new(clients, 6, 0.05, 16);
    let mut config = SimConfig::new(hyper, 4, 11);
    config.parallel = parallel;
    let model = Box::new(Mlp::new(14, &[512], 2, &mut Prng::seed_from_u64(11)));
    Simulation::new(fed, model, alg, config).run()
}

#[test]
fn multi_tile_folds_are_bit_identical_across_thread_counts() {
    let algorithms: [(&str, AlgorithmMaker); 2] = [
        ("FedAvg", || Box::new(FedAvg::new(AggWeighting::Uniform))),
        ("TACO", || {
            Box::new(Taco::new(4, TacoConfig::paper_default(4, 6)))
        }),
    ];
    for (name, make) in algorithms {
        let reference = history_value(&on_pool(1, || wide_run(make(), false)));
        for threads in THREAD_COUNTS {
            for parallel in [false, true] {
                let got = on_pool(threads, || wide_run(make(), parallel));
                let label = format!("{name}.wide.t{threads}.parallel={parallel}");
                assert_values_eq(&reference, &history_value(&got), &label);
            }
        }
    }
}

/// A faulted TACO run: corruption past the validation norm cap (so
/// uploads are quarantined and reported to the algorithm), plus
/// stragglers behind a synchronous deadline, with detection enabled so
/// quarantine strikes can expel clients.
fn faulted_run() -> History {
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
    Simulation::new(fed, mlp(13), Box::new(alg), config).run()
}

/// A TACO run where the first two of six clients freeload (echo the
/// previous global update), with detection enabled so Eq. 10 strikes
/// can expel them.
fn freeloader_run() -> History {
    let clients = 6;
    let fed = tabular_fed(clients, 14, 0.4);
    let hyper = HyperParams::new(clients, 6, 0.05, 16);
    let config = SimConfig::new(hyper, 8, 14).with_behaviors(with_freeloaders(clients, 2));
    let alg = Taco::new(
        clients,
        TacoConfig::paper_default(8, 6).with_detection(0.6, 1),
    );
    Simulation::new(fed, mlp(14), Box::new(alg), config).run()
}

#[test]
fn fault_injection_interacts_identically_across_thread_counts() {
    let faulted = on_pool(1, faulted_run);
    assert!(
        faulted.rounds.iter().any(|r| r.updates_rejected > 0),
        "fault plan must reject uploads for this test to bite"
    );
    compare_across_thread_counts("faulted", &faulted, faulted_run);
    let freeloading = on_pool(1, freeloader_run);
    assert!(
        !freeloading.expelled_clients.is_empty(),
        "detection must expel a client for this test to bite"
    );
    compare_across_thread_counts("freeloaders", &freeloading, freeloader_run);
}

/// Runs `run` at every thread count and requires every field the
/// detector touches to match `reference` bit for bit.
fn compare_across_thread_counts(name: &str, reference: &History, run: fn() -> History) {
    for threads in THREAD_COUNTS {
        let got = on_pool(threads, run);
        let label = format!("{name}.t{threads}");
        assert_values_eq(&history_value(reference), &history_value(&got), &label);
        // Fault accounting, suspicion and the strike/expulsion
        // sequence are not part of history_value; compare them field
        // by field.
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
