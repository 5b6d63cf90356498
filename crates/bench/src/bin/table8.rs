//! Table VIII: sensitivity of the freeloader-detection thresholds
//! `κ` and `λ` (FMNIST-equivalent, 40% freeloaders).
//!
//! Paper's claim: a wide plateau (κ ∈ 0.5–0.8 with λ = T/5) gives
//! TPR 100% / FPR 0%; tiny κ inflates FPR, κ → 1 kills TPR.

use taco_bench::{banner, report, run, workload, Scale};
use taco_core::taco::TacoConfig;
use taco_core::Taco;
use taco_sim::detection;
use taco_sim::freeloader::with_freeloaders;

fn main() {
    let _manifest = banner(
        "table8",
        "Table VIII: sensitivity of detection thresholds (FMNIST, 40% freeloaders)",
        "kappa 0.5-0.8 with lambda=T/5: TPR 100%, FPR 0%; kappa=1.0: TPR 0%",
    );
    let scale = Scale::from_env();
    let clients = 10;
    let n_free = clients * 2 / 5;
    let behaviors = with_freeloaders(clients, n_free);
    let kappas = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let mut rows = Vec::new();
    let w = workload("fmnist", clients, 81, scale, None);
    let lambdas = [
        ("T/10", (w.rounds / 10).max(1)),
        ("T/5", (w.rounds / 5).max(1)),
        ("T/2", (w.rounds / 2).max(1)),
    ];
    for &kappa in &kappas {
        let mut row = vec![format!("{kappa:.1}")];
        for &(_, lambda) in &lambdas {
            let cfg = TacoConfig::paper_default(w.rounds, w.hyper.local_steps)
                .with_detection(kappa as f32, lambda);
            let alg = Box::new(Taco::new(clients, cfg));
            let history = run(&w, alg, w.config(81).with_behaviors(behaviors.clone()));
            let participated = history.participation_mask(behaviors.len());
            let score =
                detection::score(&history.expelled_clients, &behaviors, Some(&participated));
            row.push(format!("{:.0}%", score.tpr * 100.0));
            row.push(format!("{:.1}%", score.fpr * 100.0));
        }
        rows.push(row);
    }
    report(
        "table8",
        &[
            "kappa",
            "TPR (l=T/10)",
            "FPR (l=T/10)",
            "TPR (l=T/5)",
            "FPR (l=T/5)",
            "TPR (l=T/2)",
            "FPR (l=T/2)",
        ],
        &rows,
    );
}
