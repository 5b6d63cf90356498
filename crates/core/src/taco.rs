//! TACO — Tailored Adaptive Correction (the paper's Algorithm 2).
//!
//! Per round `t`:
//!
//! 1. every client `i` runs `K` local SGD steps with the tailored
//!    correction `v = g + γ(1−α_i^t)Δ_t` (Eq. 8);
//! 2. the server computes the next coefficients `α_i^{t+1}` from the
//!    uploads' norms and cosines ([`crate::UploadStats`]) via Eq. 7
//!    ([`crate::alpha::coefficients_from_stats`]);
//! 3. the global gradient is the α-weighted aggregate
//!    `Δ_{t+1} = Σ α_i^{t+1} Δ_i^t / (K·η_l·Σ α_i^{t+1})` (Eq. 9) and
//!    `w_{t+1} = w_t − η_g Δ_{t+1}`;
//! 4. clients whose `α_i^{t+1} ≥ κ` collect a strike; after more than
//!    `λ` strikes they are expelled as suspected freeloaders (Eq. 10);
//! 5. after the last round, [`Taco::extrapolated`] gives the output
//!    model `z_T` (Eq. 15).
//!
//! TACO needs **no auxiliary uploads**: everything is computed from the
//! `Δ_i^t` the clients send anyway, which is why its per-round client
//! overhead in Table III is "Low".

use crate::algorithm::{FederatedAlgorithm, UploadStats, WeightedCombine};
use crate::alpha;
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use std::sync::Arc;
use taco_tensor::ops;

/// Configuration of [`Taco`] (Algorithm 2's inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TacoConfig {
    /// Maximum correction strength `γ ∈ (0, 1]` of Eq. 8. The paper's
    /// default is `γ = 1/K`.
    pub gamma: f32,
    /// Freeloader suspicion threshold `κ` (Eq. 10); default 0.6.
    pub kappa: f32,
    /// Strikes before expulsion `λ`; the paper's default is `T/5`.
    pub lambda: usize,
    /// Whether freeloader detection is active (Table VIII turns the
    /// thresholds; the accuracy experiments with all-benign clients
    /// leave it on). Benign clients do trip `κ = 0.6`: with all-honest
    /// federations the measured false-positive rate at the paper
    /// defaults runs from 8% (N = 16, K = 10) to 92% (N = 64, K = 1);
    /// see the freeloader-detector item in ROADMAP.md.
    pub detect_freeloaders: bool,
    /// Ablation toggle (Table VI): when `false`, the local correction
    /// term is dropped (clients run plain SGD).
    pub tailored_correction: bool,
    /// Ablation toggle (Table VI): when `false`, aggregation is the
    /// uniform mean instead of the α-weighted Eq. 9.
    pub tailored_aggregation: bool,
    /// Which variant of Eq. 7 computes the coefficients (the default
    /// is the paper's formula; alternatives back the `ablation_alpha`
    /// bench).
    pub alpha_variant: crate::alpha::AlphaVariant,
}

impl TacoConfig {
    /// The paper's default configuration for a run of `rounds` rounds
    /// with `local_steps` local updates per round:
    /// `γ = 1/K`, `κ = 0.6`, `λ = T/5`.
    pub fn paper_default(rounds: usize, local_steps: usize) -> Self {
        TacoConfig {
            gamma: 1.0 / local_steps.max(1) as f32,
            kappa: 0.6,
            lambda: (rounds / 5).max(1),
            detect_freeloaders: true,
            tailored_correction: true,
            tailored_aggregation: true,
            alpha_variant: crate::alpha::AlphaVariant::Full,
        }
    }

    /// Builder-style override of the Eq. 7 variant (ablations).
    pub fn with_alpha_variant(mut self, variant: crate::alpha::AlphaVariant) -> Self {
        self.alpha_variant = variant;
        self
    }

    /// Builder-style override of `γ`.
    pub fn with_gamma(mut self, gamma: f32) -> Self {
        self.gamma = gamma;
        self
    }

    /// Builder-style override of the detection thresholds.
    pub fn with_detection(mut self, kappa: f32, lambda: usize) -> Self {
        self.kappa = kappa;
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the Table VI ablation toggles.
    pub fn with_ablation(mut self, correction: bool, aggregation: bool) -> Self {
        self.tailored_correction = correction;
        self.tailored_aggregation = aggregation;
        self
    }
}

/// The TACO algorithm state.
#[derive(Debug, Clone)]
pub struct Taco {
    config: TacoConfig,
    /// `α_i^t` per client.
    alphas: Vec<f32>,
    /// Global gradient `Δ_t` (gradient units); zero before round 1.
    /// Every client's correction (Eq. 8) reads this one buffer.
    global_delta: Arc<[f32]>,
    /// Strike counters for Eq. 10.
    strikes: Vec<usize>,
    /// Expulsion flags.
    expelled: Vec<bool>,
    /// `w_{t−1}` for the `z_t` extrapolation (Eq. 15).
    prev_global: Vec<f32>,
    /// Round-average α history (diagnostics; Definition 2's α_t).
    avg_alpha_history: Vec<f32>,
}

impl Taco {
    /// Creates TACO for `num_clients` clients.
    ///
    /// # Panics
    ///
    /// Panics if `num_clients` is zero, `γ` is outside `(0, 1]` when
    /// correction is enabled, or `κ` is not in `(0, 1]`.
    pub fn new(num_clients: usize, config: TacoConfig) -> Self {
        assert!(num_clients > 0, "need at least one client");
        if config.tailored_correction {
            assert!(
                config.gamma > 0.0 && config.gamma <= 1.0,
                "gamma must be in (0, 1], got {}",
                config.gamma
            );
        }
        assert!(
            config.kappa > 0.0 && config.kappa <= 1.0,
            "kappa must be in (0, 1], got {}",
            config.kappa
        );
        Taco {
            config,
            alphas: vec![alpha::INITIAL_ALPHA; num_clients],
            global_delta: Arc::from([]),
            strikes: vec![0; num_clients],
            expelled: vec![false; num_clients],
            prev_global: Vec::new(),
            avg_alpha_history: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TacoConfig {
        &self.config
    }

    /// The round-average coefficients `α_t` recorded so far.
    pub fn avg_alpha_history(&self) -> &[f32] {
        &self.avg_alpha_history
    }

    /// Whether client `i` has been expelled.
    pub fn is_expelled(&self, i: usize) -> bool {
        self.expelled[i]
    }

    /// The paper's final model output `z_T` (Eq. 15) for the given
    /// global parameters — Algorithm 2's line 14, intended for one
    /// use after the last round. Rounds evaluate `w_t` itself: each
    /// round's `z_t` overshoots the current step by `(1 − α_t)`, which
    /// adds large evaluation-time variance.
    pub fn extrapolated(&self, global: &[f32]) -> Vec<f32> {
        if self.prev_global.len() != global.len() {
            return global.to_vec();
        }
        let avg = self
            .avg_alpha_history
            .last()
            .copied()
            .unwrap_or(alpha::INITIAL_ALPHA);
        alpha::extrapolated_output(global, &self.prev_global, avg)
    }

    /// Eq. 10: one strike for `client`; past `λ` strikes it is
    /// expelled.
    fn strike(&mut self, client: usize) {
        self.strikes[client] += 1;
        if self.strikes[client] > self.config.lambda {
            self.expelled[client] = true;
        }
    }
}

impl FederatedAlgorithm for Taco {
    fn name(&self) -> &'static str {
        "TACO"
    }

    fn begin_round(&mut self, _round: usize, global: &[f32]) {
        if self.global_delta.len() != global.len() {
            self.global_delta = vec![0.0; global.len()].into();
        }
        if self.prev_global.len() != global.len() {
            self.prev_global = global.to_vec();
        }
    }

    fn local_rule(&self, client: usize, _global: &[f32]) -> LocalRule {
        if !self.config.tailored_correction || self.global_delta.is_empty() {
            return LocalRule::PlainSgd;
        }
        LocalRule::ScaledCorrection {
            direction: Arc::clone(&self.global_delta),
            factor: self.config.gamma * (1.0 - self.alphas[client]),
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
        // Eq. 7: next-round coefficients from this round's uploads.
        let new_alphas =
            alpha::coefficients_from_stats(&stats.norms, &stats.cosines, self.config.alpha_variant);
        for (u, &a) in updates.iter().zip(&new_alphas) {
            self.alphas[u.client] = a;
        }
        // Eq. 10: strike clients at or above κ; expel past λ strikes.
        if self.config.detect_freeloaders {
            for (u, &a) in updates.iter().zip(&new_alphas) {
                if a >= self.config.kappa {
                    self.strike(u.client);
                }
            }
        }
        // Eq. 9 (or the uniform-mean ablation).
        let weights: Vec<f32> = if self.config.tailored_aggregation {
            // Clamp for the SignedCosine ablation, whose alphas may be
            // negative; Eq. 9's weights must stay non-negative.
            let clamped: Vec<f32> = new_alphas.iter().map(|a| a.max(0.0)).collect();
            let sum = ops::sum(&clamped);
            if sum > 1e-9 {
                clamped
            } else {
                // Degenerate round (all-zero alphas): fall back to the
                // uniform mean rather than dividing by zero.
                vec![1.0; updates.len()]
            }
        } else {
            vec![1.0; updates.len()]
        };
        self.avg_alpha_history
            .push(alpha::average_alpha(&new_alphas));
        self.prev_global = global.to_vec();
        Some(WeightedCombine {
            weights,
            pre_scale: Some(1.0 / hyper.k_eta_l()),
            step_scale: -hyper.eta_g,
        })
    }

    fn commit_aggregation(&mut self, _global: &[f32], combined: &[f32]) {
        // The post-scale aggregate is `Δ_{t+1}` — next round's
        // correction term (Eq. 8) reads it from here.
        self.global_delta = combined.into();
    }

    fn expelled(&self) -> Vec<usize> {
        self.expelled
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| i)
            .collect()
    }

    fn report_invalid_update(&mut self, client: usize) {
        // A quarantined upload is at least as suspicious as an echoed
        // one: it counts as an Eq. 10 strike toward expulsion.
        if self.config.detect_freeloaders && client < self.strikes.len() {
            self.strike(client);
        }
    }

    fn alphas(&self) -> Option<&[f32]> {
        Some(&self.alphas)
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

    fn cfg() -> TacoConfig {
        TacoConfig::paper_default(50, 10)
    }

    #[test]
    fn paper_default_values() {
        let c = TacoConfig::paper_default(100, 100);
        assert!((c.gamma - 0.01).abs() < 1e-7);
        assert_eq!(c.lambda, 20);
        assert_eq!(c.kappa, 0.6);
    }

    #[test]
    fn first_round_is_plain_sgd_then_corrected() {
        let mut alg = Taco::new(2, cfg());
        let hyper = HyperParams::new(2, 10, 0.1, 4);
        assert_eq!(alg.local_rule(0, &[0.0, 0.0]), LocalRule::PlainSgd);
        alg.begin_round(0, &[0.0, 0.0]);
        let _ = alg.aggregate(
            &[0.0, 0.0],
            &[upd(0, vec![1.0, 0.0]), upd(1, vec![0.8, 0.1])],
            &hyper,
        );
        match alg.local_rule(0, &[0.0, 0.0]) {
            LocalRule::ScaledCorrection { direction, factor } => {
                assert_eq!(direction.len(), 2);
                assert!(ops::norm(&direction) > 0.0);
                assert!(factor > 0.0);
            }
            other => panic!("unexpected rule {other:?}"),
        }
    }

    #[test]
    fn correction_factor_scales_with_one_minus_alpha() {
        let mut alg = Taco::new(2, cfg());
        let hyper = HyperParams::new(2, 10, 0.1, 4);
        alg.begin_round(0, &[0.0, 0.0]);
        // Client 1 is bigger and more skewed: smaller alpha, larger
        // correction factor.
        let _ = alg.aggregate(
            &[0.0, 0.0],
            &[upd(0, vec![1.0, 0.2]), upd(1, vec![0.3, 3.0])],
            &hyper,
        );
        let a = alg.alphas().unwrap();
        assert!(a[0] > a[1], "alphas {a:?}");
        let rule = |client| match alg.local_rule(client, &[0.0, 0.0]) {
            LocalRule::ScaledCorrection { direction, factor } => (direction, factor),
            other => panic!("unexpected rule {other:?}"),
        };
        let (d0, f0) = rule(0);
        let (d1, f1) = rule(1);
        // Both clients share the one Δ_t buffer; only the factor
        // γ(1−α_i) differs.
        assert!(Arc::ptr_eq(&d0, &d1));
        assert_eq!(f0, alg.config().gamma * (1.0 - a[0]));
        assert!(f1 > f0, "skewed client should get larger correction");
    }

    #[test]
    fn aggregation_prefers_high_alpha_clients() {
        let mut alg = Taco::new(4, cfg());
        let hyper = HyperParams::new(4, 1, 1.0, 1); // K·η_l = 1, η_g = 1
        alg.begin_round(0, &[0.0, 0.0]);
        // Three aligned clients, one orthogonal outlier with large
        // norm: the outlier's low alpha downweights it in Eq. 9.
        let next = alg.aggregate(
            &[0.0, 0.0],
            &[
                upd(0, vec![1.0, 0.05]),
                upd(1, vec![0.9, 0.0]),
                upd(2, vec![1.1, -0.05]),
                upd(3, vec![0.0, -2.0]),
            ],
            &hyper,
        );
        // The aggregate should move mostly along +x (the consensus),
        // much less along the outlier's −y.
        assert!(next[0] < -0.5, "consensus direction lost: {next:?}");
        assert!(next[1].abs() < next[0].abs(), "outlier dominated: {next:?}");
        // And strictly less outlier influence than a uniform mean
        // would have had (uniform mean y-component = −0.5).
        assert!(next[1] < 0.5, "no downweighting vs uniform: {next:?}");
    }

    #[test]
    fn uniform_aggregation_ablation_matches_mean() {
        let mut alg = Taco::new(2, cfg().with_ablation(true, false));
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[0.0]);
        let next = alg.aggregate(&[0.0], &[upd(0, vec![1.0]), upd(1, vec![0.0])], &hyper);
        assert!((next[0] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn no_correction_ablation_keeps_plain_sgd() {
        let mut alg = Taco::new(2, cfg().with_ablation(false, true));
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[0.0]);
        let _ = alg.aggregate(&[0.0], &[upd(0, vec![1.0]), upd(1, vec![0.5])], &hyper);
        assert_eq!(alg.local_rule(0, &[0.0]), LocalRule::PlainSgd);
    }

    #[test]
    fn freeloaders_accumulate_strikes_and_get_expelled() {
        let mut alg = Taco::new(3, cfg().with_detection(0.6, 2));
        let hyper = HyperParams::new(3, 1, 1.0, 1);
        let mut w = vec![0.0f32, 0.0];
        for round in 0..5 {
            alg.begin_round(round, &w);
            // Client 2 echoes the mean direction exactly with modest
            // norm → very high alpha; clients 0, 1 are skewed.
            let updates = vec![
                upd(0, vec![2.0, -0.4]),
                upd(1, vec![-0.4, 2.0]),
                upd(2, vec![0.5, 0.5]),
            ];
            w = alg.aggregate(&w, &updates, &hyper);
        }
        assert_eq!(alg.expelled(), vec![2]);
        assert!(!alg.is_expelled(0));
        assert!(!alg.is_expelled(1));
    }

    #[test]
    fn output_extrapolates_with_z() {
        let mut alg = Taco::new(2, cfg());
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[1.0]);
        let next = alg.aggregate(&[1.0], &[upd(0, vec![0.5]), upd(1, vec![0.5])], &hyper);
        // w moved 1.0 → 0.5; z = w + (1−α_t)(w − w_prev) continues the
        // motion (α_t < 1 here).
        let z = alg.extrapolated(&next);
        assert!(
            z[0] < next[0],
            "z should extrapolate: {} vs {}",
            z[0],
            next[0]
        );
        // The evaluated model is w itself; z_T is for end-of-training
        // use only.
        assert_eq!(alg.output_params(&next), next);
    }

    #[test]
    fn alpha_history_is_recorded() {
        let mut alg = Taco::new(2, cfg());
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        alg.begin_round(0, &[0.0]);
        let _ = alg.aggregate(&[0.0], &[upd(0, vec![1.0]), upd(1, vec![0.9])], &hyper);
        assert_eq!(alg.avg_alpha_history().len(), 1);
        let a = alg.avg_alpha_history()[0];
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn bad_gamma_panics() {
        let _ = Taco::new(1, cfg().with_gamma(1.5));
    }

    #[test]
    fn invalid_update_reports_accumulate_to_expulsion() {
        let mut alg = Taco::new(3, cfg().with_detection(0.6, 2));
        for _ in 0..2 {
            alg.report_invalid_update(1);
            assert!(alg.expelled().is_empty());
        }
        // Third strike passes λ = 2.
        alg.report_invalid_update(1);
        assert_eq!(alg.expelled(), vec![1]);
        // Out-of-range and detection-off reports are ignored.
        alg.report_invalid_update(99);
        let mut off = Taco::new(
            2,
            TacoConfig {
                detect_freeloaders: false,
                ..cfg().with_detection(0.6, 0)
            },
        );
        for _ in 0..5 {
            off.report_invalid_update(0);
        }
        assert!(off.expelled().is_empty());
    }
}
