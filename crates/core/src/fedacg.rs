//! FedACG (Kim et al.) — accelerated client gradient.

use crate::algorithm::FederatedAlgorithm;
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use std::sync::Arc;
use taco_tensor::ops;

/// The momentum decay `λ` of the cited FedACG work.
const MOMENTUM_DECAY: f32 = 0.85;

/// FedACG: the server maintains a global momentum `m_t`; every client
/// minimizes the look-ahead-regularized loss
/// `f_i(w) + (β/2)‖w − w_t − m_t‖²` (Algorithm 1, line 4), and the
/// server aggregates data-weighted with the momentum folded in
/// (line 10): `Δ_{t+1} = 1/(D·η_l) Σ D_i Δ_i + m_{t+1}/η_g`.
///
/// The paper's Algorithm 1 leaves `m_{t+1}` to the cited FedACG work;
/// per that work the momentum accumulates the aggregated update with a
/// decay factor `λ`: `m_{t+1} = λ·m_t − η_g·Δ̄_t` (parameter units,
/// pointing in the descent direction), and we use the cited
/// `λ = 0.85`. Both `β` and `λ` are **uniform across clients**, the
/// over-correction pattern the paper targets.
#[derive(Debug, Clone)]
pub struct FedAcg {
    beta: f32,
    /// Global momentum `m_t` in parameter units; empty until sized.
    momentum: Vec<f32>,
    /// This round's look-ahead anchor `w_t + m_t`, shared by every
    /// client's rule: built in `begin_round`, dropped when the round
    /// aggregates.
    anchor: Option<Arc<[f32]>>,
}

impl FedAcg {
    /// Creates FedACG with prox strength `β` (the paper's default
    /// configuration uses `β = 0.001`) and the cited momentum decay
    /// `λ = 0.85`.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative or not finite.
    pub fn new(beta: f32) -> Self {
        assert!(
            beta.is_finite() && beta >= 0.0,
            "beta must be non-negative and finite, got {beta}"
        );
        FedAcg {
            beta,
            momentum: Vec::new(),
            anchor: None,
        }
    }

    /// The current global momentum (diagnostics).
    pub fn momentum(&self) -> &[f32] {
        &self.momentum
    }

    fn ensure_dim(&mut self, dim: usize) {
        if self.momentum.len() != dim {
            self.momentum = vec![0.0; dim];
        }
    }

    /// The look-ahead anchor `w_t + m_t` (`w_t` before the momentum
    /// is sized).
    fn look_ahead(&self, global: &[f32]) -> Arc<[f32]> {
        if self.momentum.len() == global.len() {
            ops::add(global, &self.momentum).into()
        } else {
            global.into()
        }
    }
}

impl FederatedAlgorithm for FedAcg {
    fn name(&self) -> &'static str {
        "FedACG"
    }

    fn begin_round(&mut self, _round: usize, global: &[f32]) {
        self.ensure_dim(global.len());
        self.anchor = Some(self.look_ahead(global));
    }

    fn local_rule(&self, _client: usize, global: &[f32]) -> LocalRule {
        LocalRule::Prox {
            lambda: self.beta,
            anchor: crate::update::round_anchor(&self.anchor, global, || self.look_ahead(global)),
        }
    }

    fn aggregate(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        hyper: &HyperParams,
    ) -> Vec<f32> {
        assert!(!updates.is_empty(), "aggregate with no updates");
        self.ensure_dim(global.len());
        self.anchor = None;
        // Data-weighted mean of Δ_i, in gradient units.
        let weights: Vec<f32> = updates.iter().map(|u| u.num_samples as f32).collect();
        let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
        let mut agg = ops::weighted_mean(&deltas, &weights);
        ops::scale(&mut agg, 1.0 / hyper.k_eta_l());
        // Heavy-ball momentum in parameter units (the cited FedACG
        // update): m_{t+1} = λ·m_t − η_g·Δ̄_t, w_{t+1} = w_t + m_{t+1}.
        // This is Algorithm 1's line 10 with the momentum folded in
        // exactly once.
        for (m, &a) in self.momentum.iter_mut().zip(&agg) {
            *m = MOMENTUM_DECAY * *m - hyper.eta_g * a;
        }
        ops::add(global, &self.momentum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, delta: Vec<f32>, n: usize) -> ClientUpdate {
        ClientUpdate {
            client,
            delta,
            num_samples: n,
            final_v: None,
            mean_loss: 0.0,
            grad_evals: 0,
            steps: 1,
            compute_seconds: 0.0,
        }
    }

    #[test]
    fn anchor_includes_momentum_after_first_round() {
        let mut alg = FedAcg::new(0.001);
        let hyper = HyperParams::new(1, 1, 1.0, 1);
        alg.begin_round(0, &[0.0]);
        let _ = alg.aggregate(&[0.0], &[upd(0, vec![1.0], 1)], &hyper);
        let m = alg.momentum()[0];
        assert!(m != 0.0);
        match alg.local_rule(0, &[5.0]) {
            LocalRule::Prox { anchor, .. } => {
                assert!((anchor[0] - (5.0 + m)).abs() < 1e-6);
            }
            other => panic!("unexpected rule {other:?}"),
        }
    }

    #[test]
    fn momentum_accelerates_repeated_updates() {
        // The same delta every round should move the model further each
        // round as momentum builds.
        let mut alg = FedAcg::new(0.001);
        let hyper = HyperParams::new(1, 1, 1.0, 1);
        let mut w = vec![0.0f32];
        let mut last_step = 0.0f32;
        let mut increasing = true;
        for round in 0..4 {
            alg.begin_round(round, &w);
            let next = alg.aggregate(&w, &[upd(0, vec![1.0], 1)], &hyper);
            let step = (w[0] - next[0]).abs();
            if round > 0 && step <= last_step {
                increasing = false;
            }
            last_step = step;
            w = next;
        }
        assert!(increasing, "momentum failed to accelerate");
    }

    #[test]
    fn data_weighting_is_used() {
        let mut alg = FedAcg::new(0.0);
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[0.0]);
        let next = alg.aggregate(
            &[0.0],
            &[upd(0, vec![1.0], 9), upd(1, vec![0.0], 1)],
            &hyper,
        );
        // Weighted mean Δ̄ = 0.9; m₁ = −η_g·0.9 = −0.9; w = 0 − 0.9.
        assert!((next[0] + 0.9).abs() < 1e-5, "got {}", next[0]);
    }
}
