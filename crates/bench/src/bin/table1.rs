//! Table I: client computation time per 100 local updates (CNN),
//! FMNIST- and SVHN-equivalents.
//!
//! The paper reports FedAvg ≈ 0.32 s (FMNIST) with overheads
//! +23.5% (FedProx), +7.7% (Scaffold), +40.9% (STEM), +24.2% (FedACG),
//! +0% (FoolsGold). Absolute times differ on our substrate; the
//! *overhead ordering* (FoolsGold ≈ 0 < Scaffold < FedProx ≈ FedACG <
//! STEM) is the reproduced claim.

use taco_bench::{all_algorithms, banner, report, run, workload, Scale};

fn main() {
    let _manifest = banner(
        "table1",
        "Table I: computation time per 100 local updates (CNN)",
        "FMNIST: FedAvg 0.323s; +23.5% FedProx, +7.7% Scaffold, +40.9% STEM, +24.2% FedACG, +0% FoolsGold",
    );
    let mut scale = Scale::from_env();
    // Three timing rounds; round 0 warms up state so later rounds use
    // each algorithm's real correction rule. More local steps than the
    // accuracy experiments smooth out timer noise.
    scale.rounds = 3;
    scale.local_steps = 30;
    let clients = 4;
    let mut rows = Vec::new();
    for ds in ["fmnist", "svhn"] {
        let w = workload(ds, clients, 7, scale, None);
        // Discarded warm-up so the first measured algorithm does not
        // pay cache-priming costs.
        let _ = run(
            &w,
            taco_bench::algorithm_by_name("FedAvg", clients, w.rounds, w.hyper.local_steps),
            w.config(7).sequential(),
        );
        let mut base = None;
        for alg in all_algorithms(clients, w.rounds, w.hyper.local_steps) {
            let name = alg.name();
            let history = run(&w, alg, w.config(7).sequential());
            // Mean per-client seconds in the corrected rounds, scaled
            // to 100 local updates.
            let steady = &history.rounds[1..];
            let per_client = steady.iter().map(|r| r.total_client_seconds).sum::<f64>()
                / (steady.len() as f64 * clients as f64);
            let per_100 = per_client * 100.0 / w.hyper.local_steps as f64;
            let overhead = match base {
                None => {
                    base = Some(per_100);
                    "+0.0%".to_string()
                }
                Some(b) => format!("{:+.1}%", (per_100 / b - 1.0) * 100.0),
            };
            rows.push(vec![
                ds.to_string(),
                name.to_string(),
                format!("{per_100:.3}s"),
                overhead,
            ]);
        }
    }
    report(
        "table1",
        &["dataset", "algorithm", "time/100 updates", "vs FedAvg"],
        &rows,
    );
}
