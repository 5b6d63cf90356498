//! STEM (Khanduri et al.) — stochastic two-sided momentum.

use crate::algorithm::FederatedAlgorithm;
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use taco_tensor::ops;

/// STEM: clients run the variance-reduced momentum recursion
/// `v_{i,k} = g_{i,k} + (1−α_t)(v_{i,k−1} − ∇f_i(w_{i,k−1}, ξ_{i,k}))`
/// (Algorithm 1, line 6), which requires **two gradient evaluations
/// per local step** — the compute overhead the paper measures in
/// Table I (+40.9% on FMNIST) and Figs. 4–5. The server adds the
/// uploaded final momenta into the aggregate (line 10):
/// `Δ_{t+1} = 1/(K·N·η_l) Σ (Δ_i + v_{i,K−1})`.
#[derive(Debug, Clone)]
pub struct Stem {
    alpha0: f32,
    decay: bool,
    current_alpha: f32,
}

impl Stem {
    /// Creates STEM with initial momentum coefficient `α_0` (the paper
    /// tunes `α_t ∈ {0.05, 0.1, 0.2}` and defaults to 0.2).
    ///
    /// # Panics
    ///
    /// Panics if `alpha0` is outside `[0, 1]`.
    pub fn new(alpha0: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha0),
            "alpha0 must be in [0, 1], got {alpha0}"
        );
        Stem {
            alpha0,
            decay: true,
            current_alpha: alpha0,
        }
    }

    /// Disables the `α_t = α_0 / (t+1)^{1/3}`-style decay (keeps
    /// `α_t = α_0` for every round).
    pub fn without_decay(mut self) -> Self {
        self.decay = false;
        self.current_alpha = self.alpha0;
        self
    }

    /// The coefficient in effect for the current round.
    pub fn current_alpha(&self) -> f32 {
        self.current_alpha
    }
}

impl FederatedAlgorithm for Stem {
    fn name(&self) -> &'static str {
        "STEM"
    }

    fn begin_round(&mut self, round: usize, _global: &[f32]) {
        self.current_alpha = if self.decay {
            // The STEM paper's step-size/momentum schedule decays as
            // t^{-1/3}; we keep α_t from collapsing entirely so late
            // rounds still average fresh gradients.
            (self.alpha0 / ((round + 1) as f32).powf(1.0 / 3.0)).max(0.01)
        } else {
            self.alpha0
        };
    }

    fn local_rule(&self, _client: usize, _global: &[f32]) -> LocalRule {
        LocalRule::StemMomentum {
            alpha: self.current_alpha,
        }
    }

    fn uploads_momentum(&self) -> bool {
        true
    }

    fn aggregate(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        hyper: &HyperParams,
    ) -> Vec<f32> {
        assert!(!updates.is_empty(), "aggregate with no updates");
        let dim = global.len();
        let mut acc = vec![0.0f64; dim];
        for u in updates {
            #[expect(
                clippy::expect_used,
                reason = "uploads_momentum() makes the runner record final_v for every STEM client; absence is a harness bug worth a loud panic"
            )]
            let v = u
                .final_v
                .as_ref()
                .expect("STEM update missing final momentum");
            for j in 0..dim {
                acc[j] += (u.delta[j] + v[j]) as f64;
            }
        }
        let scale = 1.0 / (hyper.k_eta_l() as f64 * updates.len() as f64);
        let agg: Vec<f32> = acc.iter().map(|&x| (x * scale) as f32).collect();
        let mut next = global.to_vec();
        ops::axpy(&mut next, -hyper.eta_g, &agg);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, delta: Vec<f32>, v: Vec<f32>) -> ClientUpdate {
        ClientUpdate {
            client,
            delta,
            num_samples: 1,
            final_v: Some(v),
            mean_loss: 0.0,
            steps: 1,
            compute_seconds: 0.0,
        }
    }

    #[test]
    fn alpha_decays_over_rounds() {
        let mut alg = Stem::new(0.2);
        alg.begin_round(0, &[]);
        let a0 = alg.current_alpha();
        alg.begin_round(7, &[]);
        let a7 = alg.current_alpha();
        assert!(a7 < a0, "alpha did not decay: {a0} -> {a7}");
        assert_eq!(a0, 0.2);
    }

    #[test]
    fn without_decay_keeps_alpha() {
        let mut alg = Stem::new(0.1).without_decay();
        alg.begin_round(50, &[]);
        assert_eq!(alg.current_alpha(), 0.1);
    }

    #[test]
    fn aggregate_adds_momenta() {
        let mut alg = Stem::new(0.2);
        // K·η_l = 1, η_g = 1.
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        let next = alg.aggregate(
            &[0.0],
            &[upd(0, vec![1.0], vec![0.5]), upd(1, vec![1.0], vec![-0.5])],
            &hyper,
        );
        // mean(Δ_i + v_i) = mean(1.5, 0.5) = 1.0.
        assert!((next[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "missing final momentum")]
    fn missing_momentum_panics() {
        let mut alg = Stem::new(0.2);
        let hyper = HyperParams::new(1, 1, 1.0, 1);
        let u = ClientUpdate {
            client: 0,
            delta: vec![1.0],
            num_samples: 1,
            final_v: None,
            mean_loss: 0.0,
            steps: 1,
            compute_seconds: 0.0,
        };
        let _ = alg.aggregate(&[0.0], &[u], &hyper);
    }
}
