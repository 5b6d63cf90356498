//! Fig. 2: round-to-accuracy (a, b) and time-to-accuracy (c, d)
//! re-evaluation on the FMNIST- and SVHN-equivalents.
//!
//! The paper's finding: most baselines do not beat FedAvg; FedProx and
//! Scaffold are less stable (over-correction), STEM wins on rounds but
//! loses on wall-clock. The binary prints both series per algorithm.

use taco_bench::{algorithm_by_name, banner, report, run, workload, Scale, PAPER_ALGORITHMS};

fn main() {
    let _manifest = banner(
        "fig2",
        "Fig. 2: round- and time-to-accuracy re-evaluation",
        "FedProx/Scaffold unstable or divergent; STEM good per round but slow per second; TACO best overall",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let seeds: u64 = taco_trace::env::seeds().unwrap_or(3);
    for ds in ["fmnist", "svhn"] {
        let mut acc_rows = Vec::new();
        let mut time_rows = Vec::new();
        let mut summary = Vec::new();
        for name in PAPER_ALGORITHMS {
            let mut finals = Vec::new();
            let mut instabilities = Vec::new();
            let mut times = Vec::new();
            for seed in 0..seeds {
                let w = workload(ds, clients, 21 + seed, scale, None);
                let alg = algorithm_by_name(name, clients, w.rounds, w.hyper.local_steps);
                let history = run(&w, alg, w.config(21 + seed).sequential());
                if seed == 0 {
                    for (r, acc) in history.accuracy_series().iter().enumerate() {
                        acc_rows.push(vec![
                            name.to_string(),
                            (r + 1).to_string(),
                            format!("{:.4}", acc),
                        ]);
                    }
                    for (t, acc) in history.accuracy_vs_time() {
                        time_rows.push(vec![
                            name.to_string(),
                            format!("{t:.3}"),
                            format!("{acc:.4}"),
                        ]);
                    }
                }
                finals.push(history.final_accuracy() * 100.0);
                instabilities.push(history.instability());
                times.push(history.total_time());
            }
            let ms = taco_tensor::stats::MeanStd::of(&finals);
            summary.push(vec![
                name.to_string(),
                format!("{:.2}±{:.2}%", ms.mean, ms.std),
                format!("{:.4}", taco_tensor::stats::mean(&instabilities)),
                format!("{:.1}s", taco_tensor::stats::mean(&times)),
            ]);
        }
        println!("--- {ds} ---");
        report(
            &format!("fig2_summary_{ds}"),
            &["algorithm", "final acc", "instability", "total client time"],
            &summary,
        );
        // Full series land in CSV only (they are plots in the paper).
        taco_bench::report_csv_only(
            &format!("fig2_round_to_acc_{ds}"),
            &["algorithm", "round", "accuracy"],
            &acc_rows,
        );
        taco_bench::report_csv_only(
            &format!("fig2_time_to_acc_{ds}"),
            &["algorithm", "cumulative_seconds", "accuracy"],
            &time_rows,
        );
        println!(
            "(series written to results/fig2_round_to_acc_{ds}.csv and results/fig2_time_to_acc_{ds}.csv)\n"
        );
    }
}
