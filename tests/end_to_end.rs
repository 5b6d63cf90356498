//! End-to-end integration tests spanning every crate: data generation →
//! partitioning → model training → FL algorithms → simulation →
//! metrics.

mod common;

use common::{assert_values_eq, check_against_golden, golden_run, history_value, mlp, tabular_fed};
use taco::core::taco::TacoConfig;
use taco::core::{
    AggWeighting, FedAcg, FedAvg, FedDyn, FedNova, FedProx, FederatedAlgorithm, FoolsGold,
    HyperParams, Scaffold, Stem, Taco, TailoredProx, TailoredScaffold,
};
use taco::data::{partition, vision, FederatedDataset};
use taco::nn::PaperCnn;
use taco::sim::{SimConfig, Simulation};
use taco::tensor::Prng;

fn all_algorithms(clients: usize) -> Vec<Box<dyn FederatedAlgorithm>> {
    vec![
        Box::new(FedAvg::new(AggWeighting::Uniform)),
        Box::new(FedProx::new(0.1)),
        Box::new(FoolsGold::new()),
        Box::new(Scaffold::new(clients, 1.0)),
        // STEM's small-alpha variance reduction diverges at this
        // scale's step sizes; 0.5 constant is the harness-scale tuning
        // (see EXPERIMENTS.md).
        Box::new(Stem::new(0.5).without_decay()),
        Box::new(FedAcg::new(0.001)),
        Box::new(Taco::new(clients, TacoConfig::paper_default(12, 10))),
    ]
}

#[test]
fn every_algorithm_learns_the_tabular_task() {
    let clients = 4;
    for alg in all_algorithms(clients) {
        let name = alg.name();
        let fed = tabular_fed(clients, 3, 0.5);
        let hyper = HyperParams::new(clients, 10, 0.05, 16);
        let config = SimConfig::new(hyper, 12, 5);
        let history = Simulation::new(fed, mlp(3), alg, config).run();
        assert!(
            history.best_accuracy() > 0.62,
            "{name} only reached {:.1}%",
            history.best_accuracy() * 100.0
        );
        assert!(
            history
                .rounds
                .iter()
                .all(|r| r.test_loss.is_finite() && r.train_loss.is_finite()),
            "{name} produced non-finite losses"
        );
    }
}

#[test]
fn taco_beats_fedavg_under_heavy_skew() {
    let clients = 6;
    // Strong label skew: Dir(0.1) on a binary task means most clients
    // see almost one class only.
    let run = |alg: Box<dyn FederatedAlgorithm>| {
        let fed = tabular_fed(clients, 9, 0.1);
        let hyper = HyperParams::new(clients, 10, 0.05, 16);
        let config = SimConfig::new(hyper, 12, 9);
        Simulation::new(fed, mlp(9), alg, config).run()
    };
    let fedavg = run(Box::<FedAvg>::default());
    let taco = run(Box::new(Taco::new(
        clients,
        TacoConfig::paper_default(12, 10),
    )));
    assert!(
        taco.final_accuracy() >= fedavg.final_accuracy() - 0.02,
        "TACO {:.3} should not trail FedAvg {:.3} under skew",
        taco.final_accuracy(),
        fedavg.final_accuracy()
    );
}

#[test]
fn cnn_federation_trains_end_to_end() {
    let clients = 3;
    let mut rng = Prng::seed_from_u64(2);
    let spec = vision::VisionSpec::mnist_like().with_sizes(240, 60);
    let data = vision::generate(&spec, &mut rng);
    let (shards, groups) = partition::synthetic_groups(data.train.labels(), clients, &mut rng);
    assert_eq!(groups.len(), clients);
    let fed = FederatedDataset::from_partition(data.train, data.test, &shards);
    let mut mrng = Prng::seed_from_u64(2);
    let model = PaperCnn::for_image(1, 28, 10, &mut mrng);
    let hyper = HyperParams::new(clients, 12, 0.03, 8);
    let config = SimConfig::new(hyper, 6, 2);
    let history = Simulation::new(
        fed,
        Box::new(model),
        Box::new(Taco::new(clients, TacoConfig::paper_default(6, 12))),
        config,
    )
    .run();
    assert!(
        history.best_accuracy() > 0.25,
        "CNN federation stuck at {:.1}%",
        history.best_accuracy() * 100.0
    );
}

#[test]
fn diverging_clients_are_quarantined_not_a_panic() {
    // At η_l = 1e3 local SGD overflows within its K steps. The step
    // itself never panics: the client uploads a non-finite Δ, the
    // server quarantines it and counts it, and the run records every
    // round — with no fault plan installed.
    let clients = 4;
    let rounds = 3;
    let mut rng = Prng::seed_from_u64(5);
    let spec = vision::VisionSpec::fmnist_like().with_sizes(240, 60);
    let data = vision::generate(&spec, &mut rng);
    let shards = partition::dirichlet(data.train.labels(), clients, 0.5, &mut rng);
    let fed = FederatedDataset::from_partition(data.train, data.test, &shards);
    let model = PaperCnn::for_image(1, 28, 10, &mut Prng::seed_from_u64(5));
    let hyper = HyperParams::new(clients, 4, 1e3, 8);
    let history = Simulation::new(
        fed,
        Box::new(model),
        Box::new(FedAvg::default()),
        SimConfig::new(hyper, rounds, 5),
    )
    .run();
    assert_eq!(history.rounds.len(), rounds);
    let rejected = history.total_updates_rejected();
    assert!(rejected > 0, "no diverging upload was quarantined");
    assert_eq!(rejected, history.fault_totals().quarantined);
}

#[test]
fn determinism_across_identical_runs() {
    let clients = 4;
    let make = || {
        let fed = tabular_fed(clients, 4, 0.5);
        let hyper = HyperParams::new(clients, 5, 0.05, 8);
        let config = SimConfig::new(hyper, 5, 77);
        Simulation::new(
            fed,
            mlp(4),
            Box::new(Taco::new(clients, TacoConfig::paper_default(5, 5))),
            config,
        )
        .run()
    };
    let a = make();
    let b = make();
    assert_eq!(a.accuracy_series(), b.accuracy_series());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.alphas, rb.alphas);
    }
}

#[test]
fn taco_alphas_stay_in_unit_interval_all_run() {
    let clients = 5;
    let fed = tabular_fed(clients, 6, 0.2);
    let hyper = HyperParams::new(clients, 6, 0.05, 8);
    let config = SimConfig::new(hyper, 8, 6);
    let history = Simulation::new(
        fed,
        mlp(6),
        Box::new(Taco::new(clients, TacoConfig::paper_default(8, 6))),
        config,
    )
    .run();
    for rec in &history.rounds {
        for &a in rec.alphas.as_ref().expect("alphas recorded") {
            assert!((0.0..=1.0).contains(&a), "alpha {a} out of range");
        }
    }
}

// ---------------------------------------------------------------------------
// Golden-trajectory regression: fixed-seed runs serialized round by
// round and compared exactly against checked-in fixtures (the harness
// lives in `tests/common/mod.rs`, shared with the thread differential
// suite in `backend_diff.rs`).
// Any unintended change to kernels, data generation, client
// scheduling, or aggregation shows up as a trajectory diff here.
// Regenerate after an *intended* change with
// `TACO_REGEN_GOLDEN=1 cargo test --test end_to_end golden`.

use taco::tensor::pool::{self, Pool};

#[test]
fn golden_trajectory_fedavg_matches_fixture() {
    let h = golden_run(Box::new(FedAvg::new(AggWeighting::Uniform)), false);
    check_against_golden("golden_fedavg.json", &h);
}

#[test]
fn golden_trajectory_taco_matches_fixture() {
    let h = golden_run(
        Box::new(Taco::new(4, TacoConfig::paper_default(8, 6))),
        false,
    );
    check_against_golden("golden_taco.json", &h);
}

#[test]
fn golden_trajectories_of_the_anchored_baselines_match_fixtures() {
    // The rules whose round-constant vectors are shared between
    // clients (the proximal anchors of FedProx, FedProx+TACO, FedACG
    // and FedDyn) or scaled in place (Scaffold+TACO's term) must
    // replay the trajectories recorded when every client owned a copy.
    let cases: Vec<(&str, Box<dyn FederatedAlgorithm>)> = vec![
        ("golden_fedprox.json", Box::new(FedProx::new(0.1))),
        (
            "golden_fedprox_taco.json",
            Box::new(TailoredProx::new(4, 0.1)),
        ),
        ("golden_fedacg.json", Box::new(FedAcg::new(0.01))),
        ("golden_feddyn.json", Box::new(FedDyn::new(4, 0.05))),
        (
            "golden_scaffold_taco.json",
            Box::new(TailoredScaffold::new(4)),
        ),
    ];
    for (fixture, algorithm) in cases {
        check_against_golden(fixture, &golden_run(algorithm, true));
    }
}

#[test]
fn golden_trajectories_of_the_stateful_servers_match_fixtures() {
    // Server steps that carry per-client or momentum state (control
    // variates, STEM's uploaded momenta, FedNova's τ-normalization,
    // FoolsGold's similarity history) must replay their recorded
    // trajectories whichever aggregation path runs them.
    let cases: Vec<(&str, Box<dyn FederatedAlgorithm>)> = vec![
        ("golden_scaffold.json", Box::new(Scaffold::new(4, 1.0))),
        ("golden_stem.json", Box::new(Stem::new(0.5))),
        ("golden_fednova.json", Box::<FedNova>::default()),
        ("golden_foolsgold.json", Box::new(FoolsGold::new())),
    ];
    for (fixture, algorithm) in cases {
        check_against_golden(fixture, &golden_run(algorithm, true));
    }
}

#[test]
fn golden_trajectory_is_thread_count_invariant() {
    // The same fixed-seed TACO run under a 1-thread and an 8-thread
    // pool, with client-parallel execution enabled, must match the
    // sequential fixture bit for bit: thread count is invisible to
    // training by the pool's deterministic partitioning contract.
    let p1 = Pool::new(1);
    let p8 = Pool::new(8);
    let make = || Box::new(Taco::new(4, TacoConfig::paper_default(8, 6)));
    let h1 = pool::with_pool(&p1, || golden_run(make(), true));
    let h8 = pool::with_pool(&p8, || golden_run(make(), true));
    assert_values_eq(&history_value(&h1), &history_value(&h8), "t1_vs_t8");
    check_against_golden("golden_taco.json", &h8);
}

#[test]
fn history_clones_and_compares() {
    let clients = 3;
    let fed = tabular_fed(clients, 8, 0.5);
    let hyper = HyperParams::new(clients, 4, 0.05, 8);
    let config = SimConfig::new(hyper, 3, 8);
    let history = Simulation::new(fed, mlp(8), Box::new(FedAvg::default()), config).run();
    let copy = history.clone();
    assert_eq!(copy, history);
    assert_eq!(copy.rounds.len(), 3);
}
