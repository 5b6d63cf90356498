//! Implementing your own federated algorithm against the
//! `FederatedAlgorithm` trait: a "trimmed mean" server that drops the
//! largest-norm update each round, running next to FedAvg and TACO on
//! the Shakespeare-equivalent LSTM task.
//!
//! Run with: `cargo run --release --example custom_algorithm`

use taco::core::taco::TacoConfig;
use taco::core::{
    ClientUpdate, FedAvg, FederatedAlgorithm, HyperParams, LocalRule, Taco, UploadStats,
    WeightedCombine,
};
use taco::data::text;
use taco::nn::CharLstm;
use taco::sim::{SimConfig, Simulation};
use taco::tensor::Prng;

/// Drops the client with the largest update norm, then averages the
/// rest — a toy robust-aggregation rule. Its server step is a weighted
/// mean (weight 0 for the dropped upload), so it only plans the
/// weights from the round's upload norms; the trait's default
/// `aggregate` runs the fold.
struct TrimmedMean;

impl FederatedAlgorithm for TrimmedMean {
    fn name(&self) -> &'static str {
        "TrimmedMean"
    }

    fn local_rule(&self, _client: usize, _global: &[f32]) -> LocalRule {
        LocalRule::PlainSgd
    }

    fn wants_upload_stats(&self) -> bool {
        true
    }

    fn plan_aggregation(
        &mut self,
        _global: &[f32],
        _updates: &[ClientUpdate],
        stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        let norms = &stats?.norms;
        let mut weights = vec![1.0; norms.len()];
        if norms.len() > 2 {
            let largest = (0..norms.len())
                .max_by(|&a, &b| norms[a].total_cmp(&norms[b]))
                .expect("non-empty updates");
            weights[largest] = 0.0;
        }
        Some(WeightedCombine {
            weights,
            pre_scale: None,
            step_scale: -hyper.eta_g / hyper.k_eta_l(),
        })
    }
}

fn main() {
    let seed = 23;
    let clients = 6;
    let rounds = 10;

    let mut rng = Prng::seed_from_u64(seed);
    let spec = text::TextSpec::shakespeare_like(clients).with_sizes(120, 300);
    let fed = text::generate(&spec, &mut rng);
    let hyper = HyperParams::new(clients, 15, 0.3, 16);

    let algorithms: Vec<Box<dyn FederatedAlgorithm>> = vec![
        Box::new(FedAvg::default()),
        Box::new(TrimmedMean),
        Box::new(Taco::new(clients, TacoConfig::paper_default(rounds, 15))),
    ];
    for alg in algorithms {
        let name = alg.name();
        let mut mrng = Prng::seed_from_u64(seed);
        let model = CharLstm::new(28, 12, 32, &mut mrng);
        let config = SimConfig::new(hyper, rounds, seed);
        let history = Simulation::new(fed.clone(), Box::new(model), alg, config).run();
        println!(
            "{name:>12}: final {:.1}%  best {:.1}%",
            history.final_accuracy() * 100.0,
            history.best_accuracy() * 100.0
        );
    }
}
