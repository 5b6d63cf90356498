//! Ablation of the Eq. 7 design choices (DESIGN.md §5, beyond the
//! paper's Table VI): is the `max{cos, 0}` clamp needed, and does the
//! magnitude factor pull its weight?

use taco_bench::{banner, report, run, workload, Scale};
use taco_core::alpha::AlphaVariant;
use taco_core::taco::TacoConfig;
use taco_core::Taco;

fn main() {
    let _manifest = banner(
        "ablation_alpha",
        "Ablation: Eq. 7 design variants",
        "the full formula (clamped cosine x magnitude) should dominate its ablations",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let variants = [
        ("full (paper)", AlphaVariant::Full),
        ("signed cosine", AlphaVariant::SignedCosine),
        ("no magnitude", AlphaVariant::NoMagnitude),
        ("no direction", AlphaVariant::NoDirection),
    ];
    let mut rows = Vec::new();
    for ds in ["fmnist", "adult"] {
        let w = workload(ds, clients, 61, scale, None);
        for (label, variant) in variants {
            let cfg = TacoConfig::paper_default(w.rounds, w.hyper.local_steps)
                .with_alpha_variant(variant);
            let alg = Box::new(Taco::new(clients, cfg));
            let history = run(&w, alg, w.config(61));
            rows.push(vec![
                ds.to_string(),
                label.to_string(),
                format!("{:.2}%", history.final_accuracy() * 100.0),
                format!("{:.4}", history.instability()),
            ]);
        }
    }
    report(
        "ablation_alpha",
        &["dataset", "variant", "final acc", "instability"],
        &rows,
    );
}
