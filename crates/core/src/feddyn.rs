//! FedDyn (Acar et al.) — dynamic regularization, an extra
//! loss-regularization baseline cited in the paper's related work.
//!
//! Each client keeps a linear correction state `h_i` and minimizes the
//! dynamically-regularized objective
//!
//! ```text
//! f_i(w) − ⟨h_i^{t−1}, w⟩ + (α/2)‖w − w_t‖²
//! ```
//!
//! whose gradient contribution is `−h_i^{t−1} + α(w − w_t)`. After the
//! round the state absorbs the client's drift,
//! `h_i^t = h_i^{t−1} − α(w_i^t − w_t) = h_i^{t−1} + α·Δ_i^t`, so at a
//! stationary point the regularizer's gradient cancels the local
//! gradient exactly — FedDyn's fix for the objective inconsistency
//! FedProx suffers from. The server step here is the plain model mean
//! (the cited work's additional server-side `−h/α` shift is omitted;
//! the client-side dynamic regularizer is the mechanism that repairs
//! the fixed-point, and keeping the server identical to FedAvg makes
//! the comparison against the other baselines one-variable).
//!
//! Like FedProx and SCAFFOLD, the strength `α` is **uniform across
//! clients**, so FedDyn is another instance of the paper's
//! over-correction pattern and a natural extra baseline.

use crate::algorithm::{
    fedavg_plan, AggWeighting, FederatedAlgorithm, UploadStats, WeightedCombine,
};
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use std::sync::Arc;
use taco_tensor::ops;

/// FedDyn with uniform regularization strength `α`.
#[derive(Debug, Clone)]
pub struct FedDyn {
    alpha: f32,
    /// Per-client correction states `h_i` (lazily sized).
    h_clients: Vec<Vec<f32>>,
    /// This round's proximal anchor, shared by every client's rule:
    /// built in `begin_round`, dropped when the round aggregates.
    anchor: Option<Arc<[f32]>>,
}

impl FedDyn {
    /// Creates FedDyn for `num_clients` clients with strength `α`
    /// (the original work uses 0.01–0.1).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive/finite or `num_clients` is 0.
    pub fn new(num_clients: usize, alpha: f32) -> Self {
        assert!(num_clients > 0, "need at least one client");
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be positive and finite, got {alpha}"
        );
        FedDyn {
            alpha,
            h_clients: vec![Vec::new(); num_clients],
            anchor: None,
        }
    }

    /// The regularization strength.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Client `i`'s correction state (diagnostics).
    pub fn client_state(&self, i: usize) -> &[f32] {
        &self.h_clients[i]
    }

    fn ensure_dim(&mut self, dim: usize) {
        if self.h_clients[0].len() != dim {
            for h in &mut self.h_clients {
                *h = vec![0.0; dim];
            }
        }
    }
}

impl FederatedAlgorithm for FedDyn {
    fn name(&self) -> &'static str {
        "FedDyn"
    }

    fn begin_round(&mut self, _round: usize, global: &[f32]) {
        self.ensure_dim(global.len());
        self.anchor = Some(global.into());
    }

    fn local_rule(&self, client: usize, global: &[f32]) -> LocalRule {
        let term = if self.h_clients[client].len() == global.len() {
            ops::scaled(&self.h_clients[client], -1.0)
        } else {
            vec![0.0; global.len()]
        };
        LocalRule::ProxCorrection {
            lambda: self.alpha,
            anchor: crate::update::round_anchor(&self.anchor, global, || global.into()),
            term,
        }
    }

    fn plan_aggregation(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        _stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        self.ensure_dim(global.len());
        self.anchor = None;
        // h_i ← h_i + α·Δ_i  (Δ_i = w_t − w_i, i.e. −drift).
        for u in updates {
            let h = &mut self.h_clients[u.client];
            for (hj, &dj) in h.iter_mut().zip(&u.delta) {
                *hj += self.alpha * dj;
            }
        }
        // FedAvg server step (see module docs).
        Some(fedavg_plan(updates, hyper, AggWeighting::Uniform))
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
    fn first_round_has_zero_linear_term() {
        let mut alg = FedDyn::new(2, 0.1);
        alg.begin_round(0, &[0.0, 0.0]);
        match alg.local_rule(0, &[0.0, 0.0]) {
            LocalRule::ProxCorrection { lambda, term, .. } => {
                assert_eq!(lambda, 0.1);
                assert!(term.iter().all(|&t| t == 0.0));
            }
            other => panic!("unexpected rule {other:?}"),
        }
    }

    #[test]
    fn state_accumulates_drift() {
        let mut alg = FedDyn::new(2, 0.5);
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[0.0]);
        let _ = alg.aggregate(&[0.0], &[upd(0, vec![1.0]), upd(1, vec![-1.0])], &hyper);
        assert_eq!(alg.client_state(0), &[0.5]);
        assert_eq!(alg.client_state(1), &[-0.5]);
        // Symmetric drift: server h stays zero, update is the mean.
        alg.begin_round(1, &[0.0]);
        match alg.local_rule(0, &[0.0]) {
            LocalRule::ProxCorrection { term, .. } => assert_eq!(term, vec![-0.5]),
            other => panic!("unexpected rule {other:?}"),
        }
    }

    #[test]
    fn symmetric_clients_cancel_server_state() {
        let mut alg = FedDyn::new(2, 0.3);
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[1.0]);
        let next = alg.aggregate(&[1.0], &[upd(0, vec![0.2]), upd(1, vec![-0.2])], &hyper);
        // Mean delta zero, h zero → global unchanged.
        assert!((next[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_alpha_panics() {
        let _ = FedDyn::new(1, 0.0);
    }
}
