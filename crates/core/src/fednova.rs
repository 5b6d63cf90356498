//! FedNova (Wang et al.) — normalized averaging, an extra
//! aggregation-calibration baseline cited in the paper's related work.
//!
//! Under **system heterogeneity** clients complete different numbers
//! of local steps `τ_i` per round; naively averaging their `Δ_i`
//! implicitly weights fast clients more (their updates are larger),
//! which biases the global objective. FedNova divides each update by
//! its own step count before averaging and rescales by the effective
//! step count, removing the bias:
//!
//! ```text
//! Δ_{t+1} = τ_eff · Σ_i p_i · Δ_i / τ_i,    τ_eff = Σ_i p_i τ_i
//! ```
//!
//! With uniform `τ_i = K` this reduces exactly to FedAvg (tested
//! below), so it slots into every Table V-style comparison unchanged.

use crate::algorithm::{AggWeighting, FederatedAlgorithm};
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use taco_tensor::ops;

/// FedNova: plain local SGD with normalized aggregation.
///
/// FedNova keeps its own [`FederatedAlgorithm::aggregate`] instead of
/// a [`crate::WeightedCombine`] plan. Its fold accumulates
/// `p_i · Δ_i / τ_i` in `f64` and scales by `τ_eff` before rounding to
/// `f32`, while a plan's weights are `f32` and its scales apply after
/// the `f32` mean — the same value on paper, not the same bits.
#[derive(Debug, Clone)]
pub struct FedNova {
    weighting: AggWeighting,
}

impl FedNova {
    /// Creates FedNova with the given base weighting `p_i`.
    pub fn new(weighting: AggWeighting) -> Self {
        FedNova { weighting }
    }
}

impl Default for FedNova {
    fn default() -> Self {
        FedNova::new(AggWeighting::DataSize)
    }
}

impl FederatedAlgorithm for FedNova {
    fn name(&self) -> &'static str {
        "FedNova"
    }

    fn local_rule(&self, _client: usize, _global: &[f32]) -> LocalRule {
        LocalRule::PlainSgd
    }

    fn aggregate(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        hyper: &HyperParams,
    ) -> Vec<f32> {
        assert!(!updates.is_empty(), "aggregate with no updates");
        let weights: Vec<f64> = match self.weighting {
            AggWeighting::Uniform => vec![1.0 / updates.len() as f64; updates.len()],
            AggWeighting::DataSize => {
                let sizes: Vec<f64> = updates.iter().map(|u| u.num_samples as f64).collect();
                let total = ops::sum_f64(&sizes);
                sizes.iter().map(|s| s / total).collect()
            }
        };
        // τ_eff = Σ p_i τ_i; freeloaders report τ = 0 and are treated
        // as single-step contributors so division stays defined.
        let taus: Vec<f64> = updates.iter().map(|u| u.steps.max(1) as f64).collect();
        let tau_eff = ops::dot_f64(&weights, &taus);
        let dim = global.len();
        let mut normalized = vec![0.0f64; dim];
        for ((u, &p), &tau) in updates.iter().zip(&weights).zip(&taus) {
            for (n, &dj) in normalized.iter_mut().zip(&u.delta) {
                *n += p * dj as f64 / tau;
            }
        }
        // Aggregated gradient-scale update: τ_eff Σ p_i Δ_i/τ_i, then
        // the usual 1/η_l normalization (per-step deltas ≈ η_l·grad).
        let agg: Vec<f32> = normalized
            .iter()
            .map(|&x| (tau_eff * x / hyper.eta_l as f64) as f32)
            .collect();
        let mut next = global.to_vec();
        // η_g/K matches FedAvg's η_g/(K·η_l) scaling given agg is
        // already divided by η_l.
        ops::axpy(&mut next, -hyper.eta_g / hyper.local_steps as f32, &agg);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedavg::FedAvg;

    fn upd(client: usize, delta: Vec<f32>, n: usize, steps: usize) -> ClientUpdate {
        ClientUpdate {
            client,
            delta,
            num_samples: n,
            final_v: None,
            mean_loss: 0.0,
            steps,
            compute_seconds: 0.0,
        }
    }

    #[test]
    fn uniform_steps_reduce_to_fedavg() {
        let hyper = HyperParams::new(2, 10, 0.1, 4);
        let global = vec![1.0, -1.0];
        let updates = vec![upd(0, vec![0.2, 0.0], 5, 10), upd(1, vec![0.0, 0.4], 5, 10)];
        let mut nova = FedNova::new(AggWeighting::Uniform);
        let got = nova.aggregate(&global, &updates, &hyper);
        let want = FedAvg::new(AggWeighting::Uniform).aggregate(&global, &updates, &hyper);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn heterogeneous_steps_are_normalized() {
        // Client 0 ran 4x the steps of client 1 on the same data
        // gradient; its raw delta is 4x larger, but FedNova's
        // normalized update treats both directions equally.
        let hyper = HyperParams::new(2, 4, 1.0, 4);
        let global = vec![0.0];
        let updates = vec![upd(0, vec![4.0], 1, 4), upd(1, vec![1.0], 1, 1)];
        let mut nova = FedNova::new(AggWeighting::Uniform);
        let next = nova.aggregate(&global, &updates, &hyper);
        // Normalized per-step direction = 1.0 for both; τ_eff = 2.5;
        // agg = 2.5; step = η_g/K · 2.5 = 2.5.
        assert!((next[0] + 2.5).abs() < 1e-5, "got {}", next[0]);
        // FedAvg, by contrast, would average the raw deltas (2.5) and
        // scale by η_g/(K·η_l) = 1 → −2.5 as well here, but with
        // different *direction weighting* when deltas disagree:
        let updates2 = vec![upd(0, vec![4.0, 0.0], 1, 4), upd(1, vec![0.0, 1.0], 1, 1)];
        let mut nova2 = FedNova::new(AggWeighting::Uniform);
        let n2 = nova2.aggregate(&[0.0, 0.0], &updates2, &hyper);
        // FedNova: per-step dirs (1,0) and (0,1) → balanced components.
        assert!((n2[0] - n2[1]).abs() < 1e-5, "unbalanced: {n2:?}");
        let f2 = FedAvg::new(AggWeighting::Uniform).aggregate(&[0.0, 0.0], &updates2, &hyper);
        // FedAvg lets the fast client dominate 4:1.
        assert!(f2[0].abs() > 3.0 * f2[1].abs(), "fedavg not biased? {f2:?}");
    }

    #[test]
    fn zero_step_uploads_are_safe() {
        let hyper = HyperParams::new(2, 4, 0.5, 4);
        let updates = vec![upd(0, vec![1.0], 1, 0), upd(1, vec![1.0], 1, 4)];
        let mut nova = FedNova::default();
        let next = nova.aggregate(&[0.0], &updates, &hyper);
        assert!(next[0].is_finite());
    }
}
