//! Compute vs. communication: the paper evaluates time-to-accuracy on
//! compute alone and notes that when network transmission dominates,
//! round count is what matters. This example puts both on one axis
//! with the `CommModel`, and shows how 8-bit and top-k upload
//! compression shift the balance.
//!
//! Run with: `cargo run --release --example communication_tradeoff`
//!
//! Accuracy and bytes are deterministic; the times add measured
//! compute to the modelled link time, so they vary by host. On a
//! 2-core x86-64 host it printed:
//!
//! ```text
//! upload codec    final acc  MB uploaded  t@50% broadband   t@50% cellular
//! none                59.6%        6.42M             3.4s            13.9s
//! uniform-8bit        59.6%        1.61M             2.9s             7.5s
//! top-k               32.1%        0.64M      not reached      not reached
//!
//! uniform-8bit: 25% of the uncompressed bytes, final accuracy 59.6% vs 59.6%; t@50% 2.9s vs 3.4s on broadband, 7.5s vs 13.9s on cellular
//! top-k: 10% of the uncompressed bytes, final accuracy 32.1% vs 59.6%; t@50% not reached vs 3.4s on broadband, not reached vs 13.9s on cellular
//! ```

use std::sync::Arc;

use taco::core::compress::{Compressor, NoCompression, TopK, Uniform8Bit};
use taco::core::{FedAvg, HyperParams};
use taco::data::{partition, vision, FederatedDataset};
use taco::nn::{Model, PaperCnn};
use taco::sim::comm::{time_to_accuracy_with_comm, CommModel};
use taco::sim::{SimConfig, Simulation};
use taco::tensor::Prng;

fn main() {
    let seed = 31;
    let clients = 6;
    let rounds = 12;
    let target = 0.5;

    let mut rng = Prng::seed_from_u64(seed);
    let spec = vision::VisionSpec::fmnist_like().with_sizes(900, 240);
    let data = vision::generate(&spec, &mut rng);
    let (shards, _) = partition::synthetic_groups(data.train.labels(), clients, &mut rng);
    let fed = FederatedDataset::from_partition(data.train, data.test, &shards);
    let hyper = HyperParams::new(clients, 12, 0.03, 16);

    let mut model_rng = Prng::seed_from_u64(seed);
    let mut proto = PaperCnn::for_image(1, 28, 10, &mut model_rng);
    let params = proto.param_count();
    println!("model: {params} parameters\n");

    let codecs: Vec<Arc<dyn Compressor>> = vec![
        Arc::new(NoCompression),
        Arc::new(Uniform8Bit),
        Arc::new(TopK::new(0.05)),
    ];
    let links = [
        ("broadband", CommModel::edge_broadband()),
        ("cellular", CommModel::cellular()),
    ];
    let shown = |t: Option<f64>| t.map_or("not reached".to_string(), |t| format!("{t:.1}s"));
    let at = format!("t@{:.0}%", target * 100.0);
    println!(
        "{:<14} {:>10} {:>12} {:>16} {:>16}",
        "upload codec",
        "final acc",
        "MB uploaded",
        format!("{at} {}", links[0].0),
        format!("{at} {}", links[1].0)
    );
    // (codec, final accuracy, bytes uploaded, time to target per link)
    let mut rows = Vec::new();
    for codec in codecs {
        let name = codec.name();
        let config = SimConfig::new(hyper, rounds, seed).with_compressor(codec.clone());
        let history = Simulation::new(
            fed.clone(),
            proto.clone_model(),
            Box::new(FedAvg::default()),
            config,
        )
        .run();
        let acc = history.accuracy_series();
        let secs = history.per_round_seconds();
        let bytes = history.total_upload_bytes();
        // Measured mean uplink bytes per client per round — from the
        // actual wire encodings, not a formula over the dense length.
        let per_round_bytes = bytes / (rounds * clients);
        let times = links.map(|(_, link)| {
            let comm = link.round_seconds(per_round_bytes, params * 4);
            let (t, reached) = time_to_accuracy_with_comm(&acc, &secs, comm, target);
            reached.then_some(t)
        });
        println!(
            "{:<14} {:>9.1}% {:>11.2}M {:>16} {:>16}",
            name,
            history.final_accuracy() * 100.0,
            bytes as f64 / 1e6,
            shown(times[0]),
            shown(times[1]),
        );
        rows.push((name, history.final_accuracy(), bytes, times));
    }

    // Each compressed codec against the uncompressed first row, in the
    // table's own numbers.
    let (_, base_acc, base_bytes, base_times) = &rows[0];
    println!();
    for (name, acc, bytes, times) in &rows[1..] {
        println!(
            "{name}: {:.0}% of the uncompressed bytes, final accuracy {:.1}% vs {:.1}%; \
             {at} {} vs {} on {}, {} vs {} on {}",
            100.0 * *bytes as f64 / *base_bytes as f64,
            acc * 100.0,
            base_acc * 100.0,
            shown(times[0]),
            shown(base_times[0]),
            links[0].0,
            shown(times[1]),
            shown(base_times[1]),
            links[1].0,
        );
    }
}
