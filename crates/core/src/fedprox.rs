//! FedProx (Li et al.) — loss-function regularization.

use crate::algorithm::{
    fedavg_plan, AggWeighting, FederatedAlgorithm, UploadStats, WeightedCombine,
};
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use std::sync::Arc;

/// FedProx: each client minimizes
/// `f_i(w) + (ζ/2)‖w − w_t‖²` (Algorithm 1, line 4), which adds the
/// gradient term `ζ(w − w_t)` to every local step. The coefficient
/// `ζ` is **uniform across clients** — the over-correction mechanism
/// the paper analyzes (Section III-B).
#[derive(Debug, Clone)]
pub struct FedProx {
    zeta: f32,
    weighting: AggWeighting,
    /// This round's proximal anchor, shared by every client's rule:
    /// built in `begin_round`, dropped when the round aggregates.
    anchor: Option<Arc<[f32]>>,
}

impl FedProx {
    /// Creates FedProx with regularization strength `ζ` (the paper's
    /// default configuration uses `ζ = 0.1`).
    ///
    /// # Panics
    ///
    /// Panics if `zeta` is negative or not finite.
    pub fn new(zeta: f32) -> Self {
        assert!(
            zeta.is_finite() && zeta >= 0.0,
            "zeta must be non-negative and finite, got {zeta}"
        );
        FedProx {
            zeta,
            weighting: AggWeighting::Uniform,
            anchor: None,
        }
    }

    /// The regularization strength.
    pub fn zeta(&self) -> f32 {
        self.zeta
    }
}

impl FederatedAlgorithm for FedProx {
    fn name(&self) -> &'static str {
        "FedProx"
    }

    fn begin_round(&mut self, _round: usize, global: &[f32]) {
        self.anchor = Some(global.into());
    }

    fn local_rule(&self, _client: usize, global: &[f32]) -> LocalRule {
        LocalRule::Prox {
            lambda: self.zeta,
            anchor: crate::update::round_anchor(&self.anchor, global, || global.into()),
        }
    }

    fn plan_aggregation(
        &mut self,
        _global: &[f32],
        updates: &[ClientUpdate],
        _stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        self.anchor = None;
        Some(fedavg_plan(updates, hyper, self.weighting))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::testkit;

    #[test]
    fn rule_anchors_at_global() {
        let alg = FedProx::new(0.1);
        let rule = alg.local_rule(0, &[1.0, 2.0]);
        match rule {
            LocalRule::Prox { lambda, anchor } => {
                assert_eq!(lambda, 0.1);
                assert_eq!(*anchor, [1.0, 2.0]);
            }
            other => panic!("unexpected rule {other:?}"),
        }
    }

    #[test]
    fn planned_aggregate_matches_the_weighted_mean_bitwise() {
        let hyper = HyperParams::new(5, 4, 0.05, 8);
        let (global, updates) = testkit::random_round(5, 301, 3);
        let plan = fedavg_plan(&updates, &hyper, AggWeighting::Uniform);
        let want = testkit::reference_step(&global, &updates, &plan);
        assert_eq!(
            want,
            crate::FedAvg::new(AggWeighting::Uniform).aggregate(&global, &updates, &hyper)
        );
        let mut alg = FedProx::new(0.1);
        let got = testkit::planned(&mut alg, &global, &updates, &hyper);
        testkit::assert_bits_eq(&got, &want, "planned");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_zeta_panics() {
        let _ = FedProx::new(-1.0);
    }
}
