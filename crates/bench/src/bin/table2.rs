//! Table II: average `α_i^t` by client diversity group, with 40% of
//! clients replaced by freeloaders.
//!
//! Paper's claim: α grows with label diversity (A < B < C) and
//! freeloaders sit far above everyone (≈ 0.75–0.88), which is what
//! makes Eq. 10's threshold detection work.

use taco_bench::{banner, report, run, workload, Scale};
use taco_data::partition::DiversityGroup;
use taco_sim::ClientBehavior;
use taco_tensor::stats::MeanStd;

fn main() {
    let _manifest = banner(
        "table2",
        "Table II: average correction coefficient by client group",
        "Group A ~0.2 < Group B ~0.3 < Group C ~0.4 << freeloaders ~0.8",
    );
    let scale = Scale::from_env();
    let clients = 10;
    let n_free = clients * 2 / 5; // 40%, as in the paper (8 of 20)
    let mut rows = Vec::new();
    for ds in ["mnist", "fmnist", "svhn", "cifar10"] {
        let w = workload(ds, clients, 33, scale, None);
        let groups = w.groups.clone().expect("synthetic-group workload");
        // Spread freeloaders across the groups (stride placement) so
        // every group keeps honest members to average over.
        let mut behaviors = vec![ClientBehavior::Honest; clients];
        let stride = clients / n_free.max(1);
        let mut placed = 0;
        for i in (0..clients).step_by(stride.max(1)) {
            if placed < n_free {
                behaviors[i] = ClientBehavior::Freeloader;
                placed += 1;
            }
        }
        // Detection off: Table II observes freeloader alphas, it does
        // not expel them.
        let cfg = taco_core::taco::TacoConfig {
            detect_freeloaders: false,
            ..taco_core::taco::TacoConfig::paper_default(w.rounds, w.hyper.local_steps)
        };
        let alg = Box::new(taco_core::Taco::new(clients, cfg));
        let history = run(&w, alg, w.config(33).with_behaviors(behaviors.clone()));
        // Average alphas over the second half of training.
        let half = history.rounds.len() / 2;
        let mut per_bucket: [Vec<f64>; 4] = Default::default();
        for rec in &history.rounds[half..] {
            let alphas = rec.alphas.as_ref().expect("TACO records alphas");
            for (i, &a) in alphas.iter().enumerate() {
                let bucket = if behaviors[i] == ClientBehavior::Freeloader {
                    3
                } else {
                    match groups[i] {
                        DiversityGroup::A => 0,
                        DiversityGroup::B => 1,
                        DiversityGroup::C => 2,
                    }
                };
                per_bucket[bucket].push(a as f64);
            }
        }
        let labels = ["Group A", "Group B", "Group C", "Freeloaders"];
        for (label, vals) in labels.iter().zip(&per_bucket) {
            let ms = MeanStd::of(vals);
            rows.push(vec![
                ds.to_string(),
                label.to_string(),
                format!("{:.2}±{:.2}", ms.mean, ms.std),
            ]);
        }
    }
    report("table2", &["dataset", "group", "avg alpha"], &rows);
}
