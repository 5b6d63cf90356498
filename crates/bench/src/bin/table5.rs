//! Table V: round-to-accuracy performance of all algorithms across
//! six datasets (accuracy after `T` rounds + rounds to target).
//!
//! Paper's claim: TACO has the best final accuracy on all six datasets
//! (+2.76%–58.68%) and the fewest rounds to target on most; FedProx
//! and Scaffold fail to converge on SVHN.

use taco_bench::{
    algorithm_by_name, banner, format_rounds, report, run, workload, Scale, PAPER_ALGORITHMS,
};

fn main() {
    let _manifest = banner(
        "table5",
        "Table V: round-to-accuracy across datasets",
        "TACO best accuracy on all 6 datasets; FedProx/Scaffold diverge on SVHN; STEM strong per-round",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let seeds: u64 = taco_trace::env::seeds().unwrap_or(1);
    let datasets = [
        "adult",
        "fmnist",
        "svhn",
        "cifar10",
        "cifar100",
        "shakespeare",
    ];
    let mut rows = Vec::new();
    for ds in datasets {
        for name in PAPER_ALGORITHMS {
            let mut accs = Vec::new();
            let mut rounds_repr = String::new();
            for seed in 0..seeds {
                let w = workload(ds, clients, 100 + seed, scale, None);
                let alg = algorithm_by_name(name, clients, w.rounds, w.hyper.local_steps);
                let history = run(&w, alg, w.config(100 + seed));
                accs.push(history.final_accuracy() * 100.0);
                if seed == 0 {
                    rounds_repr = format_rounds(&history, w.target, w.rounds, w.chance);
                }
            }
            let ms = taco_tensor::stats::MeanStd::of(&accs);
            rows.push(vec![
                ds.to_string(),
                name.to_string(),
                format!("{:.2}±{:.2}", ms.mean, ms.std),
                rounds_repr,
            ]);
        }
        println!("[table5] finished {ds}");
    }
    report(
        "table5",
        &["dataset", "algorithm", "final acc %", "rounds to target"],
        &rows,
    );
}
