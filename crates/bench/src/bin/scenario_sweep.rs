//! Scenario sweep: the adversarial & churn scenario suite's detection
//! scoreboard.
//!
//! Runs the attack × churn × drift grid (sign-flip, boosted scaling,
//! colluding label-flip coalitions, client churn over freeloaders,
//! and time-varying `Dir(φ)` drift) over FedAvg, TACO, FoolsGold and
//! SCAFFOLD, scoring each algorithm's suspicion/expulsion output
//! against the ground-truth behaviour vector: per-round TPR/FPR
//! curves, time-to-detection, and final counts. Alongside the usual
//! CSV + run manifest it writes a scoreboard JSON
//! (`results/scenario_sweep_scoreboard.json`) with the per-round
//! curves.
//!
//! Not a paper table — an extension built on the paper's Table VIII
//! metric, probing how each aggregation rule behaves when the threat
//! model goes beyond lazy freeloaders.
//!
//! `TACO_SCENARIO_SMOKE=1` shrinks the grid to two scenarios × two
//! algorithms for CI smoke runs.

use std::io::Write as _;

use taco_bench::{banner, report, results_dir, run, workload, Scale, Workload};
use taco_core::taco::TacoConfig;
use taco_core::{AggWeighting, FedAvg, FederatedAlgorithm, FoolsGold, Scaffold, Taco};
use taco_data::partition::DriftSchedule;
use taco_sim::freeloader::{with_behavior, with_freeloaders};
use taco_sim::{detection, AdversaryPlan, ChurnTrace, ClientBehavior, FaultPlan, SimConfig};
use taco_trace::Value;

const CLIENTS: usize = 10;
const SEED: u64 = 97;

fn scenarios(w: &Workload) -> Vec<(&'static str, SimConfig)> {
    let rounds = w.rounds;
    let config = || w.config(SEED);
    vec![
        (
            "signflip",
            config()
                .with_behaviors(with_behavior(CLIENTS, 3, ClientBehavior::SignFlip))
                .with_adversary(AdversaryPlan::new()),
        ),
        (
            // Boosted updates blow past the server's norm cap, so each
            // round's quarantine feeds the strike machinery — the
            // validation-driven path to expulsion.
            "boost",
            config()
                .with_behaviors(with_behavior(CLIENTS, 3, ClientBehavior::Boost))
                .with_adversary(AdversaryPlan::new().with_boost_factor(1e5))
                .with_fault_plan(FaultPlan::new().with_max_delta_norm(1e3)),
        ),
        (
            // Full-strength collusion: the coalition uploads a shared
            // seeded direction, exactly the signature FoolsGold's
            // pairwise cosine history is built to catch.
            "collude",
            config()
                .with_behaviors(with_behavior(
                    CLIENTS,
                    4,
                    ClientBehavior::Colluder { coalition: 0 },
                ))
                .with_adversary(AdversaryPlan::new().with_collusion_strength(1.0)),
        ),
        (
            // Freeloaders under churn: an expelled freeloader's trace
            // has it "rejoin" (it must stay expelled), honest clients
            // come and go, and one arrives late.
            "churn",
            config()
                .with_behaviors(with_freeloaders(CLIENTS, 3))
                .with_churn(
                    ChurnTrace::new(CLIENTS)
                        .departs(0, rounds / 3)
                        .joins(0, rounds / 3 + 2)
                        .departs(5, 2)
                        .joins(5, rounds / 2)
                        .absent_until(9, rounds / 3),
                ),
        ),
        (
            // All-honest drift: φ decays 0.5 → 0.1 with periodic
            // re-partitioning. The scoreboard here is a pure FPR
            // probe — any flag is a false positive.
            "drift",
            config().with_drift(DriftSchedule::new(0.5, 0.1, (rounds / 4).max(1), rounds)),
        ),
    ]
}

type MakeAlgorithm = fn(usize, usize, usize) -> Box<dyn FederatedAlgorithm>;

fn algorithms() -> Vec<(&'static str, MakeAlgorithm)> {
    vec![
        ("FedAvg", |_, _, _| {
            Box::new(FedAvg::new(AggWeighting::Uniform))
        }),
        ("TACO", |clients, rounds, local_steps| {
            // λ = T/2 as in the fault sweep: adult's Dir(0.5) skew
            // makes honest alphas diverse enough that λ = T/5 racks up
            // false expulsions, confounding the scoreboard.
            Box::new(Taco::new(
                clients,
                TacoConfig::paper_default(rounds, local_steps)
                    .with_extrapolated_output(false)
                    .with_detection(0.6, (rounds / 2).max(1)),
            ))
        }),
        ("FoolsGold", |_, _, _| Box::new(FoolsGold::new())),
        ("Scaffold", |clients, _, _| {
            Box::new(Scaffold::new(clients, 1.0))
        }),
    ]
}

fn main() {
    let _manifest = banner(
        "scenario_sweep",
        "Scenario sweep: detection scoreboard under attacks, churn, and drift (adult)",
        "extends Table VIII: TPR/FPR and time-to-detection per algorithm across the threat grid",
    );
    let smoke = taco_trace::env::scenario_smoke();
    let scale = Scale::from_env();
    let w = workload("adult", CLIENTS, SEED, scale, None);
    let mut scenario_list = scenarios(&w);
    let mut algorithm_list = algorithms();
    if smoke {
        scenario_list.retain(|(name, _)| matches!(*name, "signflip" | "churn"));
        algorithm_list.retain(|(name, _)| matches!(*name, "TACO" | "FoolsGold"));
        println!("smoke grid: {} scenarios x {} algorithms\n", 2, 2);
    }
    let mut rows = Vec::new();
    let mut board_entries = Vec::new();
    for (scenario_name, config) in &scenario_list {
        // The config's behaviours are the scoreboard's ground truth.
        let behaviors = &config.behaviors;
        for (alg_name, make) in &algorithm_list {
            let history = run(
                &w,
                make(CLIENTS, w.rounds, w.hyper.local_steps),
                config.clone(),
            );
            let curves = detection::curves(&history, behaviors);
            let score = curves
                .final_score()
                .unwrap_or_else(|| detection::score(&[], behaviors, Some(&[false; CLIENTS])));
            rows.push(vec![
                (*scenario_name).to_string(),
                (*alg_name).to_string(),
                format!("{:.1}%", history.final_accuracy() * 100.0),
                format!("{:.0}%", score.tpr * 100.0),
                format!("{:.1}%", score.fpr * 100.0),
                format!("{}/{}", score.true_positives, score.malicious_total),
                format!("{}/{}", score.false_positives, score.benign_total),
                curves
                    .time_to_detection
                    .map_or_else(|| "-".to_string(), |t| t.to_string()),
                history.expelled_clients.len().to_string(),
                history.total_attacks_applied().to_string(),
                history.total_updates_rejected().to_string(),
            ]);
            let per_round: Vec<Value> = curves
                .per_round
                .iter()
                .zip(&history.rounds)
                .map(|(rd, rec)| {
                    Value::object(vec![
                        ("round".to_string(), Value::from(rd.round)),
                        ("tpr".to_string(), Value::from(rd.score.tpr)),
                        ("fpr".to_string(), Value::from(rd.score.fpr)),
                        (
                            "true_positives".to_string(),
                            Value::from(rd.score.true_positives),
                        ),
                        (
                            "false_positives".to_string(),
                            Value::from(rd.score.false_positives),
                        ),
                        ("suspected".to_string(), Value::from(rec.suspected.len())),
                        ("expelled".to_string(), Value::from(rec.expelled)),
                        (
                            "attacks_applied".to_string(),
                            Value::from(rec.attacks_applied),
                        ),
                    ])
                })
                .collect();
            board_entries.push(Value::object(vec![
                ("scenario".to_string(), Value::from(*scenario_name)),
                ("algorithm".to_string(), Value::from(*alg_name)),
                (
                    "final_accuracy".to_string(),
                    Value::from(history.final_accuracy()),
                ),
                ("tpr".to_string(), Value::from(score.tpr)),
                ("fpr".to_string(), Value::from(score.fpr)),
                (
                    "malicious_total".to_string(),
                    Value::from(score.malicious_total),
                ),
                ("benign_total".to_string(), Value::from(score.benign_total)),
                (
                    "time_to_detection".to_string(),
                    curves.time_to_detection.map_or(Value::Null, Value::from),
                ),
                (
                    "expelled".to_string(),
                    Value::from(history.expelled_clients.len()),
                ),
                (
                    "attacks_applied".to_string(),
                    Value::from(history.total_attacks_applied()),
                ),
                ("per_round".to_string(), Value::Array(per_round)),
            ]));
        }
    }
    report(
        "scenario_sweep",
        &[
            "scenario",
            "algorithm",
            "acc",
            "TPR",
            "FPR",
            "TP/mal",
            "FP/benign",
            "detect@",
            "expelled",
            "attacks",
            "rejected",
        ],
        &rows,
    );
    write_scoreboard(board_entries, smoke);
}

/// Writes `results/scenario_sweep_scoreboard.json`: the detection
/// scoreboard with per-round TPR/FPR curves, the artifact the CI smoke
/// job uploads.
fn write_scoreboard(entries: Vec<Value>, smoke: bool) {
    let board = Value::object(vec![
        ("experiment".to_string(), Value::from("scenario_sweep")),
        ("smoke".to_string(), Value::from(smoke)),
        (
            "unix_ms".to_string(),
            Value::from(taco_trace::event::unix_ms_now()),
        ),
        ("build".to_string(), taco_bench::build_info()),
        ("scoreboard".to_string(), Value::Array(entries)),
    ]);
    let dir = results_dir();
    let path = dir.join("scenario_sweep_scoreboard.json");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", board.to_json())
    };
    match write() {
        Ok(()) => println!("\nscoreboard: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
