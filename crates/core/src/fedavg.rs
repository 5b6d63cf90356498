//! FedAvg (McMahan et al.) — the uncorrected baseline.

use crate::algorithm::{
    fedavg_plan, AggWeighting, FederatedAlgorithm, UploadStats, WeightedCombine,
};
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};

/// Vanilla federated averaging: plain local SGD, mean aggregation.
///
/// # Example
///
/// ```
/// use taco_core::{AggWeighting, FedAvg, FederatedAlgorithm};
///
/// let alg = FedAvg::new(AggWeighting::Uniform);
/// assert_eq!(alg.name(), "FedAvg");
/// ```
#[derive(Debug, Clone)]
pub struct FedAvg {
    weighting: AggWeighting,
}

impl FedAvg {
    /// Creates FedAvg with the given aggregation weighting.
    pub fn new(weighting: AggWeighting) -> Self {
        FedAvg { weighting }
    }
}

impl Default for FedAvg {
    fn default() -> Self {
        FedAvg::new(AggWeighting::Uniform)
    }
}

impl FederatedAlgorithm for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn local_rule(&self, _client: usize, _global: &[f32]) -> LocalRule {
        LocalRule::PlainSgd
    }

    fn plan_aggregation(
        &mut self,
        _global: &[f32],
        updates: &[ClientUpdate],
        _stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        Some(fedavg_plan(updates, hyper, self.weighting))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, delta: Vec<f32>) -> ClientUpdate {
        ClientUpdate {
            client,
            delta,
            num_samples: 1,
            final_v: None,
            mean_loss: 0.0,
            steps: 1,
            compute_seconds: 0.0,
        }
    }

    #[test]
    fn aggregation_is_model_mean_with_default_rates() {
        let mut alg = FedAvg::default();
        let hyper = HyperParams::new(2, 5, 0.2, 4);
        let next = alg.aggregate(
            &[0.0, 0.0],
            &[upd(0, vec![1.0, 0.0]), upd(1, vec![0.0, 1.0])],
            &hyper,
        );
        assert!((next[0] + 0.5).abs() < 1e-6);
        assert!((next[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn local_rule_is_plain_sgd() {
        let alg = FedAvg::default();
        assert_eq!(alg.local_rule(3, &[1.0]), LocalRule::PlainSgd);
        assert!(alg.expelled().is_empty());
        assert!(alg.alphas().is_none());
    }
}
