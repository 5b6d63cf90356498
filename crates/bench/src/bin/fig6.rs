//! Fig. 6: performance gain from integrating TACO's tailored
//! coefficients into FedProx and SCAFFOLD.
//!
//! Paper's claim: replacing the uniform coefficients `ζ` / `α` with
//! the tailored `α_i^t` improves both baselines — client-specific
//! corrections matter beyond TACO itself.

use taco_bench::{algorithm_by_name, banner, report, run, workload, Scale};

fn main() {
    let _manifest = banner(
        "fig6",
        "Fig. 6: prior methods improved by TACO's tailored coefficients",
        "FedProx+TACO > FedProx and Scaffold+TACO > Scaffold on FMNIST and SVHN",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let mut rows = Vec::new();
    for ds in ["fmnist", "svhn"] {
        let w = workload(ds, clients, 29, scale, None);
        for pair in [("FedProx", "FedProx+TACO"), ("Scaffold", "Scaffold+TACO")] {
            let base = run(
                &w,
                algorithm_by_name(pair.0, clients, w.rounds, w.hyper.local_steps),
                w.config(29),
            );
            let tailored = run(
                &w,
                algorithm_by_name(pair.1, clients, w.rounds, w.hyper.local_steps),
                w.config(29),
            );
            rows.push(vec![
                ds.to_string(),
                pair.0.to_string(),
                format!("{:.2}%", base.final_accuracy() * 100.0),
                format!("{:.2}%", tailored.final_accuracy() * 100.0),
                format!(
                    "{:+.2}pp",
                    (tailored.final_accuracy() - base.final_accuracy()) * 100.0
                ),
            ]);
        }
    }
    report(
        "fig6",
        &[
            "dataset",
            "baseline",
            "uniform coeff.",
            "tailored coeff.",
            "gain",
        ],
        &rows,
    );
}
