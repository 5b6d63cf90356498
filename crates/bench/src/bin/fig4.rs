//! Fig. 4: cumulative local training time required to reach the
//! target accuracy (FMNIST- and SVHN-equivalents).
//!
//! Paper's claim: TACO reduces client computation time to target by
//! 25.6%–62.7% vs FedAvg; STEM needs up to 80% *more* time despite
//! fewer rounds; FedProx/Scaffold time out or diverge on SVHN.

use taco_bench::{all_algorithms, banner, format_rounds, report, run, workload, Scale};

fn main() {
    let _manifest = banner(
        "fig4",
        "Fig. 4: cumulative client time to target accuracy",
        "TACO fastest (−25.6% to −62.7% vs FedAvg); STEM slowest despite good rounds; FedProx/Scaffold fail on SVHN",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let mut rows = Vec::new();
    for ds in ["fmnist", "svhn"] {
        let w = workload(ds, clients, 13, scale, None);
        let mut fedavg_time = None;
        for alg in all_algorithms(clients, w.rounds, w.hyper.local_steps) {
            let name = alg.name();
            let history = run(&w, alg, w.config(13).sequential());
            let t = history.time_to_accuracy(w.target);
            if name == "FedAvg" {
                fedavg_time = t;
            }
            let vs_fedavg = match (t, fedavg_time) {
                (Some(t), Some(f)) if f > 0.0 => format!("{:+.1}%", (t / f - 1.0) * 100.0),
                _ => "-".to_string(),
            };
            rows.push(vec![
                ds.to_string(),
                name.to_string(),
                format!("{:.0}%", w.target * 100.0),
                match t {
                    Some(t) => format!("{t:.1}s"),
                    None if history.diverged(w.chance) => "x (diverged)".to_string(),
                    None => "o (timeout)".to_string(),
                },
                format_rounds(&history, w.target, w.rounds, w.chance),
                vs_fedavg,
            ]);
        }
    }
    report(
        "fig4",
        &[
            "dataset",
            "algorithm",
            "target",
            "time to target",
            "rounds",
            "vs FedAvg",
        ],
        &rows,
    );
}
