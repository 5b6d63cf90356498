//! Table III: capability matrix and per-round client compute time
//! (residual net on the CIFAR-100-equivalent).
//!
//! Paper's claim: only TACO has local correction + aggregation
//! correction + freeloader detection at *Low* overhead
//! (FedAvg 4.50s, TACO 4.81s, STEM 6.48s on ResNet18/CIFAR-100).

use taco_bench::{all_algorithms, banner, report, run, workload, Scale};
use taco_tensor::stats::MeanStd;

struct Caps {
    local: &'static str,
    agg: &'static str,
    detect: &'static str,
}

fn capabilities(name: &str) -> Caps {
    match name {
        "FedAvg" => Caps {
            local: "x",
            agg: "x",
            detect: "x",
        },
        "FedProx" => Caps {
            local: "yes",
            agg: "x",
            detect: "x",
        },
        "Scaffold" => Caps {
            local: "yes",
            agg: "x",
            detect: "x",
        },
        "FoolsGold" => Caps {
            local: "x",
            agg: "yes",
            detect: "x",
        },
        "STEM" => Caps {
            local: "yes",
            agg: "yes",
            detect: "x",
        },
        "FedACG" => Caps {
            local: "yes",
            agg: "yes",
            detect: "x",
        },
        "TACO" => Caps {
            local: "yes",
            agg: "yes",
            detect: "yes",
        },
        _ => Caps {
            local: "?",
            agg: "?",
            detect: "?",
        },
    }
}

fn main() {
    let _manifest = banner(
        "table3",
        "Table III: capability matrix + client time per round (residual net, CIFAR-100-equivalent)",
        "TACO is the only algorithm with all three capabilities at Low overhead; STEM is High",
    );
    let mut scale = Scale::from_env();
    scale.rounds = 3; // timing rounds
    let clients = 3;
    let w = workload("cifar100", clients, 5, scale, None);
    let mut rows = Vec::new();
    for alg in all_algorithms(clients, w.rounds, w.hyper.local_steps) {
        let name = alg.name();
        let caps = capabilities(name);
        let history = run(&w, alg, w.config(5).sequential());
        // Skip round 0 (uncorrected warm-up) in the timing average.
        let times: Vec<f64> = history.rounds[1..]
            .iter()
            .map(|r| r.total_client_seconds / clients as f64)
            .collect();
        let ms = MeanStd::of(&times);
        rows.push(vec![
            name.to_string(),
            caps.local.to_string(),
            caps.agg.to_string(),
            caps.detect.to_string(),
            format!("{:.2}±{:.2}s", ms.mean, ms.std),
        ]);
    }
    report(
        "table3",
        &[
            "algorithm",
            "local corr.",
            "agg. corr.",
            "freeloader det.",
            "client time/round",
        ],
        &rows,
    );
}
