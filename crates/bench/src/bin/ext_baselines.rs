//! Extension bench (beyond the paper): the related-work baselines
//! FedNova and FedDyn next to the paper's seven algorithms, plus
//! partial participation — does TACO's lead survive settings the
//! paper did not evaluate?

use taco_bench::{algorithm_by_name, banner, report, run, workload, Scale};
use taco_core::{FedDyn, FedNova, FederatedAlgorithm};
use taco_sim::SimConfig;

fn main() {
    let _manifest = banner(
        "ext_baselines",
        "Extension: FedNova/FedDyn baselines + partial participation",
        "(not in the paper) TACO should stay competitive under both",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let mut rows = Vec::new();
    for ds in ["fmnist", "adult"] {
        let w = workload(ds, clients, 45, scale, None);
        let algs: Vec<Box<dyn FederatedAlgorithm>> = vec![
            algorithm_by_name("FedAvg", clients, w.rounds, w.hyper.local_steps),
            Box::new(FedNova::default()),
            Box::new(FedDyn::new(clients, 0.1)),
            algorithm_by_name("TACO", clients, w.rounds, w.hyper.local_steps),
        ];
        for alg in algs {
            let name = alg.name().to_string();
            // Full participation.
            let full = run(&w, alg, w.config(45));
            // Half participation needs a fresh algorithm instance.
            let alg2 = match name.as_str() {
                "FedNova" => Box::new(FedNova::default()) as Box<dyn FederatedAlgorithm>,
                "FedDyn" => Box::new(FedDyn::new(clients, 0.1)),
                other => algorithm_by_name(other, clients, w.rounds, w.hyper.local_steps),
            };
            let config = SimConfig::new(w.hyper, w.rounds, 45).with_participation(0.5);
            let half = run(&w, alg2, config);
            rows.push(vec![
                ds.to_string(),
                name,
                format!("{:.2}%", full.final_accuracy() * 100.0),
                format!("{:.2}%", half.final_accuracy() * 100.0),
            ]);
        }
    }
    report(
        "ext_baselines",
        &["dataset", "algorithm", "full part.", "50% part."],
        &rows,
    );
}
