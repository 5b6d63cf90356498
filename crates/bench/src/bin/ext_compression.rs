//! Extension bench (beyond the paper): accuracy-vs-bytes trade-off of
//! lossy upload compression under the non-IID group split, and its
//! interaction with TACO's α computation (compressed deltas change
//! both the cosine and the norms that feed Eq. 7).
//!
//! Bytes on the wire are *measured* from the encoded payloads (headers,
//! indices, levels, non-finite escapes), and the time-to-accuracy
//! columns charge the links asymmetrically: the compressed wire bytes
//! ride the uplink while the dense broadcast rides the downlink — on
//! `cellular()` (1 Mbit up / 5 Mbit down) that asymmetry is exactly
//! where upload compression pays.

use std::sync::Arc;

use taco_bench::{algorithm_by_name, banner, report, run, workload, Scale};
use taco_core::compress::{Compressor, NoCompression, Stochastic4Bit, TopK, Uniform8Bit};
use taco_sim::comm::{time_to_accuracy_with_comm, CommModel};

fn main() {
    let _manifest = banner(
        "ext_compression",
        "Extension: upload compression x algorithm",
        "(not in the paper) top-k/8-bit/4-bit uploads vs bytes and time-to-accuracy",
    );
    let scale = Scale::from_env();
    let clients = 8;
    let mut w = workload("fmnist", clients, 37, scale, None);
    let codecs: [(&str, Arc<dyn Compressor>); 5] = [
        ("none", Arc::new(NoCompression)),
        ("uniform-8bit", Arc::new(Uniform8Bit)),
        ("stochastic-4bit", Arc::new(Stochastic4Bit)),
        ("top-k 10%", Arc::new(TopK::new(0.1))),
        ("top-k 1%", Arc::new(TopK::new(0.01))),
    ];
    let dense_bytes = w.model.param_count() * 4;
    let mut rows = Vec::new();
    for alg_name in ["FedAvg", "TACO"] {
        for (label, codec) in &codecs {
            let alg = algorithm_by_name(alg_name, clients, w.rounds, w.hyper.local_steps);
            let config = w.config(37).with_compressor(codec.clone());
            let history = run(&w, alg, config);
            // Measured mean uplink bytes per client per round, from
            // the actual wire encodings.
            let uplink = history.total_upload_bytes() / (w.rounds * clients);
            let accs = history.accuracy_series();
            let secs = history.per_round_seconds();
            let tta = |link: CommModel| -> String {
                // Asymmetric legs: compressed uplink, dense downlink
                // (the server broadcast is never compressed here).
                let comm = link.round_seconds(uplink, dense_bytes);
                let (t, reached) = time_to_accuracy_with_comm(&accs, &secs, comm, w.target);
                if reached {
                    format!("{t:.1}s")
                } else {
                    "—".to_string()
                }
            };
            rows.push(vec![
                alg_name.to_string(),
                label.to_string(),
                format!("{:.2}%", history.final_accuracy() * 100.0),
                format!("{:.2} MB", history.total_upload_bytes() as f64 / 1e6),
                format!("{:.1} KB", uplink as f64 / 1e3),
                tta(CommModel::edge_broadband()),
                tta(CommModel::cellular()),
            ]);
        }
    }
    report(
        "ext_compression",
        &[
            "algorithm",
            "codec",
            "final acc",
            "uploaded",
            "wire/client/round",
            "t@target broadband",
            "t@target cellular",
        ],
        &rows,
    );
}
