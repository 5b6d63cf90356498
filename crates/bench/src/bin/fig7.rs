//! Fig. 7: sensitivity of the maximum correction factor `γ` on
//! MNIST/FMNIST/CIFAR-10 equivalents.
//!
//! Paper's claim: accuracy improves with γ up to an optimum near 1/K,
//! then collapses (possible divergence) for too-large γ.

use taco_bench::{banner, report, run, workload, Scale};
use taco_core::taco::TacoConfig;
use taco_core::Taco;

fn main() {
    let _manifest = banner(
        "fig7",
        "Fig. 7: sensitivity of gamma",
        "optimum near gamma = 1/K; gamma too large can break convergence",
    );
    let mut scale = Scale::from_env();
    // The over-/under-correction crossover is governed by γ·K (a
    // correction of γ·Δ_t is applied K times per round); the paper
    // sweeps γ at K in the hundreds, so the harness raises K for this
    // experiment to span the same γ·K range.
    scale.local_steps = 30;
    scale.rounds = 12;
    let clients = 8;
    // The paper's candidate set {0, 0.001, 0.01, 0.1, 1.0}; γ = 0
    // disables the correction term entirely.
    let gammas = [0.0, 0.001, 0.01, 0.1, 1.0];
    let mut rows = Vec::new();
    for ds in ["mnist", "fmnist", "cifar10"] {
        let w = workload(ds, clients, 91, scale, None);
        let k_inv = 1.0 / w.hyper.local_steps as f32;
        for &gamma in &gammas {
            let base = TacoConfig::paper_default(w.rounds, w.hyper.local_steps);
            let cfg = if gamma == 0.0 {
                base.with_ablation(false, true)
            } else {
                base.with_gamma(gamma)
            };
            let alg = Box::new(Taco::new(clients, cfg));
            let history = run(&w, alg, w.config(91));
            rows.push(vec![
                ds.to_string(),
                format!("{gamma}"),
                if (gamma - k_inv).abs() < 1e-6 {
                    "1/K".into()
                } else {
                    String::new()
                },
                format!("{:.2}%", history.final_accuracy() * 100.0),
                if history.diverged(w.chance) {
                    "diverged".into()
                } else {
                    String::new()
                },
            ]);
        }
    }
    report(
        "fig7",
        &["dataset", "gamma", "note", "final acc", "status"],
        &rows,
    );
}
