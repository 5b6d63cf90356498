//! Table VI: ablation of the tailored correction (Eq. 8) and tailored
//! aggregation (Eq. 9) on FEMNIST and adult under different Dirichlet
//! skews.
//!
//! Paper's claim: both components help; the tailored *correction*
//! contributes more than the tailored aggregation; the ✗/✗ row equals
//! FedAvg.

use taco_bench::{banner, report, run, workload, PartitionKind, Scale};
use taco_core::taco::TacoConfig;
use taco_core::Taco;

fn main() {
    let _manifest = banner(
        "table6",
        "Table VI: ablation (tailored correction x tailored aggregation)",
        "correction contributes more than aggregation; both together are best",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let settings = [
        ("femnist", PartitionKind::Dirichlet(0.2)),
        ("femnist", PartitionKind::Dirichlet(0.5)),
        ("adult", PartitionKind::Dirichlet(0.1)),
        ("adult", PartitionKind::Dirichlet(0.5)),
    ];
    let toggles = [(false, false), (false, true), (true, false), (true, true)];
    let mut rows = Vec::new();
    for (corr, agg) in toggles {
        let mut row = vec![
            if corr { "yes" } else { "x" }.to_string(),
            if agg { "yes" } else { "x" }.to_string(),
        ];
        for (ds, part) in settings {
            let w = workload(ds, clients, 55, scale, Some(part));
            let cfg =
                TacoConfig::paper_default(w.rounds, w.hyper.local_steps).with_ablation(corr, agg);
            let alg = Box::new(Taco::new(clients, cfg));
            let history = run(&w, alg, w.config(55));
            row.push(format!("{:.2}%", history.final_accuracy() * 100.0));
        }
        rows.push(row);
    }
    report(
        "table6",
        &[
            "tailored corr.",
            "tailored agg.",
            "femnist Dir(0.2)",
            "femnist Dir(0.5)",
            "adult Dir(0.1)",
            "adult Dir(0.5)",
        ],
        &rows,
    );
}
