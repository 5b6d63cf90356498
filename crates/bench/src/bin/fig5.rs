//! Fig. 5: per-round local computation time distribution for each
//! algorithm (median across rounds, as the paper's orange bars).
//!
//! Paper's claim: every method except FoolsGold pays a per-round
//! compute premium over FedAvg, with STEM paying by far the most.

use taco_bench::{all_algorithms, banner, report, run, workload, Scale};
use taco_tensor::stats;

fn main() {
    let _manifest = banner(
        "fig5",
        "Fig. 5: local computation time per FL round (median over rounds)",
        "FoolsGold ≈ FedAvg < TACO < Scaffold < FedProx ≈ FedACG << STEM",
    );
    let mut scale = Scale::from_env();
    scale.rounds = 4;
    let clients = 4;
    let mut rows = Vec::new();
    for ds in ["fmnist", "svhn"] {
        let w = workload(ds, clients, 17, scale, None);
        for alg in all_algorithms(clients, w.rounds, w.hyper.local_steps) {
            let name = alg.name();
            let history = run(&w, alg, w.config(17).sequential());
            let per_round = history.per_round_seconds();
            // Round 0 runs without corrections for the stateful
            // algorithms; the distribution uses the steady-state rounds.
            let steady = &per_round[1..];
            rows.push(vec![
                ds.to_string(),
                name.to_string(),
                format!("{:.3}s", stats::median(steady)),
                format!("{:.3}s", stats::quantile(steady, 0.0)),
                format!("{:.3}s", stats::quantile(steady, 1.0)),
            ]);
        }
    }
    report(
        "fig5",
        &["dataset", "algorithm", "median", "min", "max"],
        &rows,
    );
}
