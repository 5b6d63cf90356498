//! Extension bench (beyond the paper): total time-to-accuracy across
//! network regimes. The paper measures compute-only time-to-accuracy
//! and argues round count matters when transmission dominates; this
//! bench quantifies the crossover by combining each algorithm's
//! measured compute series with the `CommModel`.

use taco_bench::{all_algorithms, banner, report, run, workload, Scale};
use taco_sim::comm::{time_to_accuracy_with_comm, CommModel};

fn main() {
    let _manifest = banner(
        "ext_comm_regimes",
        "Extension: time-to-accuracy across network regimes",
        "(not in the paper) fast-per-round algorithms win on fast links; few-round algorithms win on slow links",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let w = workload("fmnist", clients, 53, scale, None);
    let param_bytes = {
        let mut model = w.model.clone_model();
        model.param_count() * 4
    };
    let regimes: [(&str, Option<CommModel>); 3] = [
        ("compute only", None),
        ("broadband", Some(CommModel::edge_broadband())),
        ("cellular", Some(CommModel::cellular())),
    ];
    let mut rows = Vec::new();
    for alg in all_algorithms(clients, w.rounds, w.hyper.local_steps) {
        let name = alg.name().to_string();
        let history = run(&w, alg, w.config(53).sequential());
        let accs = history.accuracy_series();
        let secs = history.per_round_seconds();
        let mut row = vec![name];
        for (_, model) in &regimes {
            let comm = model
                .map(|m| m.round_seconds(param_bytes, param_bytes))
                .unwrap_or(0.0);
            let (t, reached) = time_to_accuracy_with_comm(&accs, &secs, comm, w.target);
            row.push(if reached {
                format!("{t:.1}s")
            } else {
                "-".to_string()
            });
        }
        rows.push(row);
    }
    report(
        "ext_comm_regimes",
        &["algorithm", "compute only", "broadband", "cellular"],
        &rows,
    );
}
