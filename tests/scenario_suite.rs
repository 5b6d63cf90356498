//! Scenario-suite integration tests: churn × expulsion interaction,
//! per-client state retirement under churn, bit-identity of attacked
//! runs across the thread × shard-count matrix, and proof that inert
//! adversary/churn/drift plans leave the committed golden fixtures
//! byte-identical.

mod common;

use common::{
    assert_values_close, check_against_golden, fixed_shards, golden_run_configured, history_value,
    mlp, tabular_fed,
};
use taco::core::taco::TacoConfig;
use taco::core::{AggWeighting, FedAvg, FoolsGold, HyperParams, Taco};
use taco::data::partition::DriftSchedule;
use taco::sim::{
    detection, AdversaryPlan, ChurnTrace, ClientBehavior, FaultPlan, History, SimConfig, Simulation,
};
use taco::tensor::pool::{self, Pool};

/// A TACO-expelled client whose churn trace has it depart and later
/// "rejoin" must stay expelled: the rejoin is never announced and the
/// client never re-enters the participant set.
#[test]
fn expelled_client_cannot_rejoin_through_churn() {
    let clients = 4;
    let hyper = HyperParams::new(clients, 4, 0.05, 16);
    // Corruption targeting client 0 blows past the norm cap every
    // round; the quarantine strikes expel it by round 2. κ = 0.9 keeps
    // the skewed-but-honest clients clear of alpha strikes.
    let plan = FaultPlan::new()
        .with_corruption(1.0, 1e12)
        .targeting(vec![0])
        .with_max_delta_norm(1e4);
    let taco = Taco::new(
        clients,
        TacoConfig::paper_default(10, 4).with_detection(0.9, 2),
    );
    let trace = ChurnTrace::new(clients).departs(0, 4).joins(0, 6);
    let config = SimConfig::new(hyper, 10, 17)
        .with_fault_plan(plan)
        .with_churn(trace);
    let history = Simulation::new(
        tabular_fed(clients, 27, 0.3),
        mlp(27),
        Box::new(taco),
        config,
    )
    .run();
    assert_eq!(history.rounds.len(), 10);
    assert_eq!(history.expelled_clients, vec![0]);
    let expelled_round = history
        .rounds
        .iter()
        .position(|r| r.expelled > 0)
        .expect("client 0 is expelled during the run");
    // From the expulsion on — through the departure at round 4 and the
    // attempted rejoin at round 6 — client 0 never participates again.
    for rec in &history.rounds[expelled_round + 1..] {
        assert!(
            !rec.participants.contains(&0),
            "expelled client resurfaced in round {}",
            rec.round
        );
    }
    // The survivors keep training to the end.
    assert_eq!(history.rounds[9].participants, vec![1, 2, 3]);
}

/// FoolsGold's per-client cosine histories are retired on departure
/// and re-materialized from scratch on rejoin, which the
/// `tracked_states` probe observes round by round.
#[test]
fn departed_clients_state_is_dropped_and_rebuilt() {
    let clients = 3;
    let hyper = HyperParams::new(clients, 3, 0.05, 16);
    let trace = ChurnTrace::new(clients).departs(2, 2).joins(2, 4);
    let config = SimConfig::new(hyper, 6, 23).with_churn(trace);
    let history = Simulation::new(
        tabular_fed(clients, 29, 0.3),
        mlp(29),
        Box::new(FoolsGold::new()),
        config,
    )
    .run();
    assert_eq!(history.rounds.len(), 6);
    // Rounds 0-1: all three uploaded, three histories held.
    assert_eq!(history.rounds[1].tracked_states, 3);
    // Rounds 2-3: client 2 departed, its history dropped.
    assert_eq!(history.rounds[2].tracked_states, 2);
    assert_eq!(history.rounds[3].tracked_states, 2);
    // Round 4: rejoined, history rebuilt from zero.
    assert_eq!(history.rounds[4].tracked_states, 3);
    assert_eq!(history.rounds[2].participants, vec![0, 1]);
    assert_eq!(history.rounds[4].participants, vec![0, 1, 2]);
}

/// A full-strength coalition sharing a seeded direction is exactly
/// the signature FoolsGold's pairwise cosine history catches: the
/// per-round curves complete detection with zero false positives.
#[test]
fn colluders_show_up_on_the_detection_curves() {
    let clients = 6;
    let behaviors =
        taco::sim::freeloader::with_behavior(clients, 2, ClientBehavior::Colluder { coalition: 0 });
    let hyper = HyperParams::new(clients, 4, 0.05, 16);
    let config = SimConfig::new(hyper, 8, 41)
        .with_behaviors(behaviors.clone())
        .with_adversary(AdversaryPlan::new().with_collusion_strength(1.0));
    let history = Simulation::new(
        tabular_fed(clients, 43, 0.3),
        mlp(43),
        Box::new(FoolsGold::new()),
        config,
    )
    .run();
    let curves = detection::curves(&history, &behaviors);
    assert_eq!(curves.per_round.len(), 8);
    let t = curves
        .time_to_detection
        .expect("full-strength coalition is detected");
    assert!(t <= 8, "detection completed at round {t}");
    let last = curves.final_score().expect("non-empty curves");
    assert_eq!(last.tpr, 1.0, "both colluders flagged by the final round");
    assert_eq!(last.fpr, 0.0, "no honest client flagged");
}

fn adversarial_history(parallel: bool, shards: usize) -> History {
    let clients = 4;
    let hyper = HyperParams::new(clients, 6, 0.05, 16);
    let mut config = SimConfig::new(hyper, 8, 11)
        .with_behaviors(vec![
            ClientBehavior::SignFlip,
            ClientBehavior::Colluder { coalition: 0 },
            ClientBehavior::Colluder { coalition: 0 },
            ClientBehavior::Honest,
        ])
        .with_adversary(AdversaryPlan::new().starting_at(2))
        .with_churn(ChurnTrace::new(clients).departs(3, 4).joins(3, 6))
        .with_drift(DriftSchedule::new(0.5, 0.2, 3, 8));
    config.parallel = parallel;
    Simulation::new(
        tabular_fed(clients, 11, 0.3),
        mlp(11),
        fixed_shards(
            Box::new(Taco::new(clients, TacoConfig::paper_default(8, 6))),
            shards,
        ),
        config,
    )
    .run()
}

/// An attacked, churning, drifting run is bit-identical across the
/// thread × shard-count matrix: attacks are applied to sorted updates
/// from per-client seeded streams, so neither the worker pool size nor
/// the aggregation's shard count may perturb a single bit.
#[test]
fn attacked_runs_are_bit_identical_across_threads_and_shard_counts() {
    let reference = pool::with_pool(&Pool::new(1), || adversarial_history(false, 1));
    let golden = history_value(&reference);
    assert!(
        reference.total_attacks_applied() > 0,
        "scenario applies no attacks; the matrix would prove nothing"
    );
    for &threads in &[1usize, 4] {
        for shards in [1usize, 3] {
            let got = pool::with_pool(&Pool::new(threads), || adversarial_history(true, shards));
            assert_eq!(
                got.total_attacks_applied(),
                reference.total_attacks_applied(),
                "attack count drifted (threads={threads}, shards={shards})"
            );
            assert_values_close(
                &golden,
                &history_value(&got),
                0.0,
                &format!("threads={threads}/shards={shards}"),
            );
        }
    }
}

/// Attaching inert plans — an empty adversary plan over all-honest
/// behaviours, a churn trace with no events, an inert drift schedule —
/// must leave the committed golden fixtures byte-identical at any
/// shard count.
#[test]
fn inert_plans_leave_the_goldens_untouched() {
    let inert = |c: SimConfig| {
        c.with_adversary(AdversaryPlan::new())
            .with_churn(ChurnTrace::new(4))
            .with_drift(DriftSchedule::inert())
    };
    for shards in [1usize, 3] {
        let h = golden_run_configured(
            fixed_shards(Box::new(FedAvg::new(AggWeighting::Uniform)), shards),
            true,
            inert,
        );
        check_against_golden("golden_fedavg.json", &h);
        let h = golden_run_configured(
            fixed_shards(
                Box::new(Taco::new(4, TacoConfig::paper_default(8, 6))),
                shards,
            ),
            true,
            inert,
        );
        check_against_golden("golden_taco.json", &h);
    }
}
