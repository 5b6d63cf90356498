//! Fault sweep: accuracy of FedAvg vs TACO under injected client
//! faults (dropouts, corrupted uploads, stragglers behind a
//! synchronous deadline), all drawn deterministically from the run
//! seed by [`taco_sim::FaultPlan`].
//!
//! Not a paper table — an extension exercising the fault-injection
//! subsystem end to end: the server quarantines corrupted uploads
//! before aggregation and feeds the evidence to TACO's freeloader
//! detection, so learning should degrade gracefully rather than
//! diverge as fault rates climb.

use taco_bench::{banner, report, run, workload, Scale};
use taco_core::taco::TacoConfig;
use taco_core::{AggWeighting, FedAvg, FederatedAlgorithm, Taco};
use taco_sim::FaultPlan;

fn scenarios(local_steps: usize) -> Vec<(&'static str, FaultPlan)> {
    // The deadline compares simulated time: one second per step, a
    // budget of 2x the nominal round, so only 4x stragglers miss it.
    let deadline_secs = 2.0 * local_steps as f64;
    vec![
        ("baseline (no faults)", FaultPlan::new()),
        ("dropout 10%", FaultPlan::new().with_dropouts(0.1)),
        ("dropout 30%", FaultPlan::new().with_dropouts(0.3)),
        (
            "corrupt 10%",
            FaultPlan::new()
                .with_corruption(0.1, 1e9)
                .with_max_delta_norm(1e4),
        ),
        (
            "straggle 30% @4x + deadline",
            FaultPlan::new()
                .with_stragglers(0.3, 4.0)
                .with_deadline(deadline_secs, 1.0),
        ),
        (
            "mixed (drop 10%, corrupt 10%, straggle 10%)",
            FaultPlan::new()
                .with_dropouts(0.1)
                .with_corruption(0.1, 1e9)
                .with_max_delta_norm(1e4)
                .with_stragglers(0.1, 4.0)
                .with_deadline(deadline_secs, 1.0),
        ),
    ]
}

fn main() {
    let _manifest = banner(
        "fault_sweep",
        "Fault sweep: FedAvg vs TACO under injected client faults (adult)",
        "quarantine + detection keep degradation graceful as fault rates climb",
    );
    let scale = Scale::from_env();
    let clients = 10;
    let seed = 91;
    let w = workload("adult", clients, seed, scale, None);
    type MakeAlgorithm = fn(usize, usize, usize) -> Box<dyn FederatedAlgorithm>;
    let algorithms: Vec<(&str, MakeAlgorithm)> = vec![
        ("FedAvg", |_, _, _| {
            Box::new(FedAvg::new(AggWeighting::Uniform))
        }),
        ("TACO", |clients, rounds, local_steps| {
            // λ = T/2 (Table VIII's most tolerant column): adult's
            // Dir(0.5) skew makes honest alphas diverse enough that
            // the default λ = T/5 racks up false expulsions, which
            // would confound the fault sweep.
            Box::new(Taco::new(
                clients,
                TacoConfig::paper_default(rounds, local_steps)
                    .with_detection(0.6, (rounds / 2).max(1)),
            ))
        }),
    ];
    let mut rows = Vec::new();
    for (label, plan) in scenarios(w.hyper.local_steps) {
        let mut row = vec![label.to_string()];
        for (_, make) in &algorithms {
            let history = run(
                &w,
                make(clients, w.rounds, w.hyper.local_steps),
                w.config(seed).with_fault_plan(plan.clone()),
            );
            let totals = history.fault_totals();
            row.push(format!("{:.1}%", history.final_accuracy() * 100.0));
            row.push(history.total_faults_injected().to_string());
            row.push(history.total_updates_rejected().to_string());
            row.push(format!(
                "{}/{}/{}",
                totals.dropouts, totals.stragglers, totals.corruptions
            ));
            row.push(format!("{}/{}", totals.deadline_cuts, totals.quarantined));
        }
        rows.push(row);
    }
    report(
        "fault_sweep",
        &[
            "scenario",
            "FedAvg acc",
            "faults",
            "rejected",
            "drop/strag/corrupt",
            "cut/quarantine",
            "TACO acc",
            "faults",
            "rejected",
            "drop/strag/corrupt",
            "cut/quarantine",
        ],
        &rows,
    );
}
