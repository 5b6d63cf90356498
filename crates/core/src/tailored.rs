//! Fig. 6 hybrids: FedProx and SCAFFOLD with their uniform correction
//! coefficients replaced by TACO's tailored `α_i^t`.
//!
//! The paper refines both baselines "by replacing their coefficients
//! `ζ` and `α` with our tailored correction coefficients `α_i^t`"
//! (Section V-B), showing that client-specific corrections help even
//! inside other algorithms' update rules. Concretely:
//!
//! - [`TailoredProx`]: client `i` uses proximal strength
//!   `ζ_i = ζ·(1−α_i^t)` — strongly drifting clients get a stronger
//!   pull toward the global model, well-aligned clients are left
//!   alone.
//! - [`TailoredScaffold`]: client `i` applies its control-variate
//!   shift with coefficient `(1−α_i^t)` instead of the uniform `α`.

use crate::algorithm::{
    fedavg_plan, AggWeighting, FederatedAlgorithm, UploadStats, WeightedCombine,
};
use crate::alpha::{self, AlphaVariant};
use crate::hyper::HyperParams;
use crate::scaffold::Scaffold;
use crate::update::{ClientUpdate, LocalRule};
use std::sync::Arc;

/// FedProx with tailored per-client proximal strengths (Fig. 6).
#[derive(Debug, Clone)]
pub struct TailoredProx {
    zeta: f32,
    alphas: Vec<f32>,
    /// This round's proximal anchor, shared by every client's rule:
    /// built in `begin_round`, dropped when the round aggregates.
    anchor: Option<Arc<[f32]>>,
}

impl TailoredProx {
    /// Creates the hybrid with base strength `ζ` for `num_clients`
    /// clients (initial `α_i^0` is [`alpha::INITIAL_ALPHA`], as in TACO).
    ///
    /// # Panics
    ///
    /// Panics if `zeta` is negative/not finite or `num_clients` is 0.
    pub fn new(num_clients: usize, zeta: f32) -> Self {
        assert!(num_clients > 0, "need at least one client");
        assert!(
            zeta.is_finite() && zeta >= 0.0,
            "zeta must be non-negative and finite, got {zeta}"
        );
        TailoredProx {
            zeta,
            alphas: vec![alpha::INITIAL_ALPHA; num_clients],
            anchor: None,
        }
    }
}

impl FederatedAlgorithm for TailoredProx {
    fn name(&self) -> &'static str {
        "FedProx+TACO"
    }

    fn begin_round(&mut self, _round: usize, global: &[f32]) {
        self.anchor = Some(global.into());
    }

    fn local_rule(&self, client: usize, global: &[f32]) -> LocalRule {
        LocalRule::Prox {
            lambda: self.zeta * (1.0 - self.alphas[client]),
            anchor: crate::update::round_anchor(&self.anchor, global, || global.into()),
        }
    }

    fn wants_upload_stats(&self) -> bool {
        true
    }

    fn plan_aggregation(
        &mut self,
        _global: &[f32],
        updates: &[ClientUpdate],
        stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        self.anchor = None;
        let stats = stats?;
        let new_alphas =
            alpha::coefficients_from_stats(&stats.norms, &stats.cosines, AlphaVariant::Full);
        for (u, &a) in updates.iter().zip(&new_alphas) {
            self.alphas[u.client] = a;
        }
        Some(fedavg_plan(updates, hyper, AggWeighting::Uniform))
    }

    fn alphas(&self) -> Option<&[f32]> {
        Some(&self.alphas)
    }
}

/// SCAFFOLD with tailored per-client correction coefficients (Fig. 6).
///
/// Wraps the plain [`Scaffold`] state machine but scales each client's
/// control-variate shift by `(1−α_i^t)` instead of the uniform `α`.
#[derive(Debug, Clone)]
pub struct TailoredScaffold {
    inner: Scaffold,
    alphas: Vec<f32>,
}

impl TailoredScaffold {
    /// Creates the hybrid for `num_clients` clients.
    ///
    /// # Panics
    ///
    /// Panics if `num_clients` is zero.
    pub fn new(num_clients: usize) -> Self {
        TailoredScaffold {
            // α = 1 inside; the tailored factor is applied on top.
            inner: Scaffold::new(num_clients, 1.0),
            alphas: vec![alpha::INITIAL_ALPHA; num_clients],
        }
    }
}

impl FederatedAlgorithm for TailoredScaffold {
    fn name(&self) -> &'static str {
        "Scaffold+TACO"
    }

    fn begin_round(&mut self, round: usize, global: &[f32]) {
        self.inner.begin_round(round, global);
    }

    fn local_rule(&self, client: usize, global: &[f32]) -> LocalRule {
        match self.inner.local_rule(client, global) {
            LocalRule::Correction { mut term } => {
                taco_tensor::ops::scale(&mut term, 1.0 - self.alphas[client]);
                LocalRule::Correction { term }
            }
            other => other,
        }
    }

    fn wants_upload_stats(&self) -> bool {
        true
    }

    fn plan_aggregation(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        let stats = stats?;
        let new_alphas =
            alpha::coefficients_from_stats(&stats.norms, &stats.cosines, AlphaVariant::Full);
        for (u, &a) in updates.iter().zip(&new_alphas) {
            self.alphas[u.client] = a;
        }
        self.inner.plan_aggregation(global, updates, None, hyper)
    }

    fn alphas(&self) -> Option<&[f32]> {
        Some(&self.alphas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::testkit;

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
    fn tailored_prox_strength_tracks_alpha() {
        let mut alg = TailoredProx::new(2, 0.1);
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        // Client 1 is the big, skewed one → smaller alpha → larger ζ_i.
        let _ = alg.aggregate(
            &[0.0, 0.0],
            &[upd(0, vec![1.0, 0.1]), upd(1, vec![0.2, 4.0])],
            &hyper,
        );
        let l0 = match alg.local_rule(0, &[0.0, 0.0]) {
            LocalRule::Prox { lambda, .. } => lambda,
            _ => unreachable!(),
        };
        let l1 = match alg.local_rule(1, &[0.0, 0.0]) {
            LocalRule::Prox { lambda, .. } => lambda,
            _ => unreachable!(),
        };
        assert!(
            l1 > l0,
            "skewed client should get stronger prox: {l0} vs {l1}"
        );
        assert!(l0 <= 0.1 && l1 <= 0.1, "strengths bounded by base zeta");
    }

    #[test]
    fn tailored_prox_plan_matches_the_weighted_mean_and_eq7_bitwise() {
        let hyper = HyperParams::new(5, 4, 0.05, 8);
        let (global, updates) = testkit::random_round(5, 301, 9);
        let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
        let want_alphas = alpha::correction_coefficients(&deltas);
        let plan = fedavg_plan(&updates, &hyper, AggWeighting::Uniform);
        let want = testkit::reference_step(&global, &updates, &plan);
        let mut alg = TailoredProx::new(5, 0.1);
        let got = testkit::planned(&mut alg, &global, &updates, &hyper);
        testkit::assert_bits_eq(&got, &want, "planned");
        testkit::assert_bits_eq(&alg.alphas, &want_alphas, "alphas");
    }

    #[test]
    fn tailored_scaffold_scales_correction() {
        let mut plain = Scaffold::new(2, 1.0);
        let mut tailored = TailoredScaffold::new(2);
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        let updates = vec![upd(0, vec![1.0, 0.0]), upd(1, vec![0.0, 1.0])];
        plain.begin_round(0, &[0.0, 0.0]);
        tailored.begin_round(0, &[0.0, 0.0]);
        let _ = plain.aggregate(&[0.0, 0.0], &updates, &hyper);
        let _ = tailored.aggregate(&[0.0, 0.0], &updates, &hyper);
        let np = match plain.local_rule(0, &[0.0, 0.0]) {
            LocalRule::Correction { term } => taco_tensor::ops::norm(&term),
            _ => unreachable!(),
        };
        let nt = match tailored.local_rule(0, &[0.0, 0.0]) {
            LocalRule::Correction { term } => taco_tensor::ops::norm(&term),
            _ => unreachable!(),
        };
        // (1 − α) < 1 ⇒ tailored correction is never larger.
        assert!(nt <= np + 1e-6, "tailored {nt} vs plain {np}");
        assert!(nt > 0.0);
    }

    #[test]
    fn names_match_figure_six() {
        assert_eq!(TailoredProx::new(1, 0.1).name(), "FedProx+TACO");
        assert_eq!(TailoredScaffold::new(1).name(), "Scaffold+TACO");
    }
}
