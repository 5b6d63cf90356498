//! SCAFFOLD (Karimireddy et al.) — control-variate correction.

use crate::algorithm::{
    fedavg_plan, AggWeighting, CostProfile, FederatedAlgorithm, UploadStats, WeightedCombine,
};
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use taco_tensor::ops;

/// SCAFFOLD: every local step adds the control-variate shift
/// `α(c_t − c_i^t)` (Algorithm 1, line 6), where
///
/// - `c_i^t = c_i^{t−1} − c_{t−1} + Δ_i^{t−1} / (K·η_l)` is client
///   `i`'s control variate, and
/// - `c_t = c_{t−1} + (1/N) Σ_i (c_i^t − c_i^{t−1})` is the server's.
///
/// The coefficient `α` is **uniform across clients** (the paper keeps
/// `α = 1`, the original work's setting) — over-correcting clients
/// whose drift is small, which is the instability Section III-B and
/// Fig. 2 attribute to SCAFFOLD.
#[derive(Debug, Clone)]
pub struct Scaffold {
    alpha: f32,
    /// Server control variate `c_t`; lazily sized on first round.
    c_global: Vec<f32>,
    /// Per-client control variates `c_i^t`.
    c_clients: Vec<Vec<f32>>,
    weighting: AggWeighting,
}

impl Scaffold {
    /// Creates SCAFFOLD for `num_clients` clients with coefficient
    /// `α` (the paper uses 1).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative/not finite or `num_clients` is 0.
    pub fn new(num_clients: usize, alpha: f32) -> Self {
        assert!(num_clients > 0, "need at least one client");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be non-negative and finite, got {alpha}"
        );
        Scaffold {
            alpha,
            c_global: Vec::new(),
            c_clients: vec![Vec::new(); num_clients],
            weighting: AggWeighting::Uniform,
        }
    }

    /// The uniform correction coefficient `α`.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Client `i`'s control variate (diagnostics). Empty until the
    /// client's first aggregated round materializes it (an
    /// unmaterialized variate is semantically zero).
    pub fn client_variate(&self, i: usize) -> &[f32] {
        &self.c_clients[i]
    }

    fn ensure_dim(&mut self, dim: usize) {
        if self.c_global.len() != dim {
            self.c_global = vec![0.0; dim];
            // Per-client variates are materialized lazily on each
            // client's first aggregated round (an empty vec reads as
            // zeros everywhere), so departed clients hold no memory.
            for c in &mut self.c_clients {
                c.clear();
            }
        }
    }
}

impl FederatedAlgorithm for Scaffold {
    fn name(&self) -> &'static str {
        "Scaffold"
    }

    fn begin_round(&mut self, _round: usize, global: &[f32]) {
        self.ensure_dim(global.len());
    }

    fn local_rule(&self, client: usize, global: &[f32]) -> LocalRule {
        if self.c_global.len() != global.len() {
            // First round before any aggregation: zero variates.
            return LocalRule::PlainSgd;
        }
        let ci = &self.c_clients[client];
        let term: Vec<f32> = if ci.len() == global.len() {
            self.c_global
                .iter()
                .zip(ci)
                .map(|(&c, &ci)| self.alpha * (c - ci))
                .collect()
        } else {
            // Unmaterialized variate (fresh or rejoining client):
            // c_i = 0, bit-identical to `α·(c − 0)`.
            self.c_global.iter().map(|&c| self.alpha * c).collect()
        };
        LocalRule::Correction { term }
    }

    fn plan_aggregation(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        _stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        self.ensure_dim(global.len());
        // Control-variate updates (paper's formulas, Section III-A).
        let mut mean_shift = vec![0.0f32; global.len()];
        let n = self.c_clients.len() as f32;
        for u in updates {
            if self.c_clients[u.client].len() != global.len() {
                // First aggregated round for this client (or its first
                // after rejoining): materialize the zero variate.
                self.c_clients[u.client] = vec![0.0; global.len()];
            }
            let old = self.c_clients[u.client].clone();
            let mut new = old.clone();
            // Each client's variate is normalized by its *own*
            // effective step count τ_i·η_l: under heterogeneous
            // `local_steps_per_client` the global K would mis-scale
            // every variate. Updates carrying no step count (e.g.
            // freeloader echoes) fall back to the configured K, which
            // also keeps homogeneous runs bit-identical.
            let tau = if u.steps > 0 {
                u.steps
            } else {
                hyper.local_steps
            };
            let tau_eta_l = tau as f32 * hyper.eta_l;
            for j in 0..new.len() {
                new[j] = old[j] - self.c_global[j] + u.delta[j] / tau_eta_l;
            }
            for j in 0..new.len() {
                mean_shift[j] += (new[j] - old[j]) / n;
            }
            self.c_clients[u.client] = new;
        }
        ops::axpy(&mut self.c_global, 1.0, &mean_shift);
        Some(fedavg_plan(updates, hyper, self.weighting))
    }

    fn client_departed(&mut self, client: usize) {
        // Retire the departed client's control variate; a later rejoin
        // rematerializes a fresh zero variate in `plan_aggregation`.
        if let Some(c) = self.c_clients.get_mut(client) {
            *c = Vec::new();
        }
    }

    fn tracked_client_states(&self) -> usize {
        self.c_clients.iter().filter(|c| !c.is_empty()).count()
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile {
            grads_per_step: 1,
            extra_vector_ops: 1, // add the (precomputed) correction term
        }
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
            grad_evals: 0,
            steps: 1,
            compute_seconds: 0.0,
        }
    }

    #[test]
    fn first_round_rule_is_plain_sgd() {
        let alg = Scaffold::new(2, 1.0);
        assert_eq!(alg.local_rule(0, &[0.0, 0.0]), LocalRule::PlainSgd);
    }

    #[test]
    fn variates_track_relative_drift() {
        let mut alg = Scaffold::new(2, 1.0);
        let hyper = HyperParams::new(2, 1, 1.0, 1); // K·η_l = 1
        alg.begin_round(0, &[0.0, 0.0]);
        let _ = alg.aggregate(
            &[0.0, 0.0],
            &[upd(0, vec![1.0, 0.0]), upd(1, vec![0.0, 1.0])],
            &hyper,
        );
        // c_i = Δ_i (c and c_i start at 0); c = mean = [0.5, 0.5].
        assert_eq!(alg.client_variate(0), &[1.0, 0.0]);
        assert_eq!(alg.client_variate(1), &[0.0, 1.0]);
        // The next round's correction for client 0 is c − c_0 =
        // [-0.5, 0.5]: pushes it toward the federation mean.
        alg.begin_round(1, &[0.0, 0.0]);
        match alg.local_rule(0, &[0.0, 0.0]) {
            LocalRule::Correction { term } => {
                assert!((term[0] + 0.5).abs() < 1e-6);
                assert!((term[1] - 0.5).abs() < 1e-6);
            }
            other => panic!("unexpected rule {other:?}"),
        }
    }

    #[test]
    fn identical_clients_get_zero_correction() {
        let mut alg = Scaffold::new(2, 1.0);
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[0.0]);
        let _ = alg.aggregate(&[0.0], &[upd(0, vec![0.7]), upd(1, vec![0.7])], &hyper);
        match alg.local_rule(0, &[0.0]) {
            LocalRule::Correction { term } => assert!(term[0].abs() < 1e-6),
            other => panic!("unexpected rule {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_steps_normalize_each_variate_by_its_own_tau() {
        // Four clients with τ_i = 2, 4, 8, 16 (the runner's
        // `with_local_steps(vec![2, 4, 8, 16])` heterogeneity) but a
        // global K = 10: each variate must divide by τ_i·η_l, not
        // K·η_l.
        let taus = [2usize, 4, 8, 16];
        let eta_l = 0.5f32;
        let mut alg = Scaffold::new(4, 1.0);
        let hyper = HyperParams::new(4, 10, eta_l, 1);
        alg.begin_round(0, &[0.0]);
        let updates: Vec<ClientUpdate> = taus
            .iter()
            .enumerate()
            .map(|(i, &tau)| {
                let mut u = upd(i, vec![1.0]);
                u.steps = tau;
                u
            })
            .collect();
        let _ = alg.aggregate(&[0.0], &updates, &hyper);
        // Hand-computed: starting from c_i = c = 0, the update rule is
        // c_i' = Δ_i / (τ_i·η_l) = 1 / (τ_i · 0.5) = 2/τ_i.
        for (i, &tau) in taus.iter().enumerate() {
            let expect = 2.0 / tau as f32;
            let got = alg.client_variate(i)[0];
            assert!(
                (got - expect).abs() < 1e-6,
                "client {i}: variate {got} vs hand-computed {expect}"
            );
        }
        // The server variate is the mean of the shifts:
        // c = (1 + 0.5 + 0.25 + 0.125) / 4 = 0.46875, so client 0's
        // next correction term is c − c_0 = 0.46875 − 1 = −0.53125.
        match alg.local_rule(0, &[0.0]) {
            LocalRule::Correction { term } => {
                assert!((term[0] + 0.53125).abs() < 1e-6, "term {}", term[0]);
            }
            other => panic!("unexpected rule {other:?}"),
        }
        let mut alg2 = Scaffold::new(1, 1.0);
        alg2.begin_round(0, &[0.0]);
        let mut u = upd(0, vec![1.0]);
        u.steps = 0; // no step count recorded: falls back to K = 10
        let _ = alg2.aggregate(&[0.0], &[u], &hyper);
        assert!((alg2.client_variate(0)[0] - 1.0 / (10.0 * eta_l)).abs() < 1e-6);
    }

    #[test]
    fn departed_variate_is_dropped_and_rejoin_starts_fresh() {
        let mut alg = Scaffold::new(3, 1.0);
        let hyper = HyperParams::new(3, 1, 1.0, 1);
        alg.begin_round(0, &[0.0, 0.0]);
        let _ = alg.aggregate(
            &[0.0, 0.0],
            &[
                upd(0, vec![1.0, 0.0]),
                upd(1, vec![0.0, 1.0]),
                upd(2, vec![0.5, 0.5]),
            ],
            &hyper,
        );
        assert_eq!(alg.tracked_client_states(), 3);
        alg.client_departed(1);
        assert_eq!(alg.tracked_client_states(), 2);
        assert!(alg.client_variate(1).is_empty(), "variate not retired");
        // A rejoining client's rule reads its variate as zero:
        // term = α·(c − 0) = α·c.
        alg.client_joined(1);
        let expect: Vec<f32> = alg.c_global.iter().map(|&c| 1.0 * c).collect();
        match alg.local_rule(1, &[0.0, 0.0]) {
            LocalRule::Correction { term } => assert_eq!(term, expect),
            other => panic!("unexpected rule {other:?}"),
        }
        // Its next aggregated round rematerializes a fresh variate.
        let _ = alg.aggregate(&[0.0, 0.0], &[upd(1, vec![0.2, 0.2])], &hyper);
        assert_eq!(alg.tracked_client_states(), 3);
    }

    #[test]
    fn lazy_variates_match_the_materialized_rule() {
        // A client that has never been aggregated gets the same
        // correction term whether its zero variate is materialized or
        // not (bit-identity of the lazy representation).
        let mut alg = Scaffold::new(2, 1.0);
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[0.0]);
        // Only client 0 participates; client 1's variate stays lazy.
        let _ = alg.aggregate(&[0.0], &[upd(0, vec![1.0])], &hyper);
        assert_eq!(alg.tracked_client_states(), 1);
        let lazy = match alg.local_rule(1, &[0.0]) {
            LocalRule::Correction { term } => term,
            other => panic!("unexpected rule {other:?}"),
        };
        // Materialize it by hand and recompute.
        alg.c_clients[1] = vec![0.0];
        let materialized = match alg.local_rule(1, &[0.0]) {
            LocalRule::Correction { term } => term,
            other => panic!("unexpected rule {other:?}"),
        };
        assert_eq!(lazy, materialized);
    }

    #[test]
    fn alpha_scales_the_term() {
        let mut a1 = Scaffold::new(2, 1.0);
        let mut a2 = Scaffold::new(2, 0.5);
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        for alg in [&mut a1, &mut a2] {
            alg.begin_round(0, &[0.0]);
            let _ = alg.aggregate(&[0.0], &[upd(0, vec![1.0]), upd(1, vec![0.0])], &hyper);
        }
        let t1 = match a1.local_rule(0, &[0.0]) {
            LocalRule::Correction { term } => term[0],
            _ => unreachable!(),
        };
        let t2 = match a2.local_rule(0, &[0.0]) {
            LocalRule::Correction { term } => term[0],
            _ => unreachable!(),
        };
        assert!((t1 - 2.0 * t2).abs() < 1e-6, "{t1} vs {t2}");
    }
}
