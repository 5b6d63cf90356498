//! FoolsGold (Fung et al.) — aggregation calibration.

use crate::algorithm::{FederatedAlgorithm, UploadStats, WeightedCombine};
use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use taco_tensor::ops;

/// Pairwise cosine of two accumulated deltas at or above which both
/// clients are suspected.
const SUSPICION_THRESHOLD: f32 = 0.98;

/// Rounds a client must have been aggregated before it can be
/// suspected.
const MIN_OBSERVATIONS: usize = 3;

/// FoolsGold as restated by the paper (Algorithm 1, line 10): no local
/// correction, but aggregation weights
/// `ρ_i = cos(Δ_{t+1}, Δ_i)` — the similarity between each client's
/// accumulated gradient and the aggregated direction.
///
/// Since `Δ_{t+1}` is not available before aggregating, `ρ_i` is
/// computed against the unweighted mean of the round's uploads (the
/// same bootstrap the original FoolsGold uses for its reference
/// direction). Weights are floored at a small positive value so a
/// round where every client disagrees with the mean still aggregates.
///
/// Note on scaling: Algorithm 1's line 10 reads
/// `Δ_{t+1} = 1/(K·N·η_l) Σ ρ_i Δ_i / Σ ρ_i`, whose extra `1/N`
/// would shrink the update `N`-fold relative to every other algorithm
/// in the same table; consistent with the original FoolsGold (and with
/// the paper's own experiments, where FoolsGold tracks FedAvg closely)
/// we read the ρ-normalized sum as the weighted mean and scale by
/// `1/(K·η_l)`.
///
/// # Suspicion (the original FoolsGold's cosine history)
///
/// Alongside the per-round weights the algorithm accumulates each
/// client's summed delta across rounds (the original work's
/// "historical gradient"). Two clients whose *accumulated* directions
/// stay near-parallel — pairwise cosine at or above 0.98 once both
/// have been aggregated in at least 3 rounds — are flagged as a
/// suspected sybil/colluding pair via
/// [`FederatedAlgorithm::suspected`]. Honest non-IID clients descend
/// different local objectives, so their accumulated directions
/// decorrelate; a colluding coalition pushing one common direction
/// does not. Suspicion is pure diagnostics: it never changes the
/// aggregation weights, so trajectories are identical with or without
/// it.
#[derive(Debug, Clone, Default)]
pub struct FoolsGold {
    last_weights: Vec<f32>,
    /// Per-client accumulated deltas (the cosine history); empty until
    /// a client's first aggregated round.
    histories: Vec<Vec<f32>>,
    /// Rounds each client has been aggregated (gates suspicion).
    observations: Vec<usize>,
}

impl FoolsGold {
    /// Creates FoolsGold with no client history.
    pub fn new() -> Self {
        FoolsGold::default()
    }

    /// The aggregation weights used in the most recent round
    /// (diagnostics for tests and reports).
    pub fn last_weights(&self) -> &[f32] {
        &self.last_weights
    }

    fn ensure_client(&mut self, client: usize) {
        if client >= self.histories.len() {
            self.histories.resize_with(client + 1, Vec::new);
            self.observations.resize(client + 1, 0);
        }
    }
}

impl FederatedAlgorithm for FoolsGold {
    fn name(&self) -> &'static str {
        "FoolsGold"
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
        updates: &[ClientUpdate],
        stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        let stats = stats?;
        let weights: Vec<f32> = stats.cosines.iter().map(|c| c.max(1e-3)).collect();
        self.last_weights = weights.clone();
        // Accumulate the cosine history (suspicion diagnostics only —
        // the weights above are already fixed for this round).
        for u in updates {
            self.ensure_client(u.client);
            let hist = &mut self.histories[u.client];
            if hist.len() != u.delta.len() {
                *hist = vec![0.0; u.delta.len()];
            }
            ops::axpy(hist, 1.0, &u.delta);
            self.observations[u.client] += 1;
        }
        Some(WeightedCombine {
            weights,
            pre_scale: None,
            step_scale: -(hyper.eta_g / hyper.k_eta_l()),
        })
    }

    fn suspected(&self) -> Vec<usize> {
        // Pairwise cosine over accumulated histories, in fixed client
        // order; a pair at or above the threshold flags both members.
        let eligible: Vec<usize> = (0..self.histories.len())
            .filter(|&i| self.observations[i] >= MIN_OBSERVATIONS && !self.histories[i].is_empty())
            .collect();
        let norms: Vec<f32> = eligible
            .iter()
            .map(|&i| ops::norm(&self.histories[i]))
            .collect();
        let mut flagged = vec![false; self.histories.len()];
        for (a, &i) in eligible.iter().enumerate() {
            for (b, &j) in eligible.iter().enumerate().skip(a + 1) {
                if norms[a] <= 0.0 || norms[b] <= 0.0 {
                    continue;
                }
                let dot = ops::dot(&self.histories[i], &self.histories[j]);
                let cos = ops::cosine_from_dot(dot, norms[a], norms[b]);
                if cos >= SUSPICION_THRESHOLD {
                    flagged[i] = true;
                    flagged[j] = true;
                }
            }
        }
        flagged
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
            .collect()
    }

    fn tracked_client_states(&self) -> usize {
        self.histories.iter().filter(|h| !h.is_empty()).count()
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
            grad_evals: 0,
            steps: 1,
            compute_seconds: 0.0,
        }
    }

    #[test]
    fn outlier_gets_downweighted() {
        let mut alg = FoolsGold::new();
        let hyper = HyperParams::new(3, 1, 1.0, 1);
        let updates = vec![
            upd(0, vec![1.0, 1.0]),
            upd(1, vec![1.0, 0.9]),
            upd(2, vec![-1.0, -1.0]), // pulls against the federation
        ];
        let _ = alg.aggregate(&[0.0, 0.0], &updates, &hyper);
        let w = alg.last_weights();
        assert!(
            w[0] > w[2] && w[1] > w[2],
            "outlier not downweighted: {w:?}"
        );
        assert!(w[2] <= 1e-3 + f32::EPSILON);
    }

    #[test]
    fn colluding_pair_is_suspected_and_honest_clients_are_not() {
        let mut alg = FoolsGold::new();
        let hyper = HyperParams::new(6, 1, 1.0, 1);
        // Clients 0 and 1 push one shared direction every round (a
        // colluding coalition; accumulated cosine ≈ 0.9998); 2 and 3
        // push decorrelated directions. 4 and 5 stay close but not
        // parallel: their accumulated cosine is 1/√1.0625 ≈ 0.970,
        // just under the 0.98 threshold.
        let rounds: [[Vec<f32>; 6]; 3] = [
            [
                vec![1.0, 1.0, 0.0],
                vec![1.0, 1.05, 0.0],
                vec![0.5, -1.0, 0.3],
                vec![-0.8, 0.2, 1.0],
                vec![0.0, -1.0, 0.0],
                vec![0.0, -1.0, -0.25],
            ],
            [
                vec![1.0, 0.95, 0.0],
                vec![1.1, 1.0, 0.0],
                vec![-0.4, 0.9, -1.0],
                vec![1.0, -0.5, -0.2],
                vec![0.0, -1.0, 0.0],
                vec![0.0, -1.0, -0.25],
            ],
            [
                vec![0.9, 1.0, 0.0],
                vec![1.0, 1.0, 0.0],
                vec![0.7, 0.1, 0.9],
                vec![-0.2, 1.0, 0.4],
                vec![0.0, -1.0, 0.0],
                vec![0.0, -1.0, -0.25],
            ],
        ];
        for round in &rounds {
            let updates: Vec<ClientUpdate> = round
                .iter()
                .enumerate()
                .map(|(i, d)| upd(i, d.clone()))
                .collect();
            let _ = alg.aggregate(&[0.0, 0.0, 0.0], &updates, &hyper);
        }
        assert_eq!(alg.suspected(), vec![0, 1]);
    }

    #[test]
    fn suspicion_needs_minimum_observations() {
        // Identical deltas: cosine 1, above the threshold from the
        // first round, yet no flag before the third observation.
        let mut alg = FoolsGold::new();
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        for _ in 0..2 {
            let _ = alg.aggregate(
                &[0.0, 0.0],
                &[upd(0, vec![1.0, 1.0]), upd(1, vec![1.0, 1.0])],
                &hyper,
            );
        }
        assert!(alg.suspected().is_empty(), "flagged after only 2 rounds");
        let _ = alg.aggregate(
            &[0.0, 0.0],
            &[upd(0, vec![1.0, 1.0]), upd(1, vec![1.0, 1.0])],
            &hyper,
        );
        assert_eq!(alg.suspected(), vec![0, 1]);
    }

    #[test]
    fn suspicion_never_changes_aggregation() {
        // `seasoned` has aggregated the identical pair 0/1 for three
        // rounds and suspects it; `fresh` has no history. Both must
        // take the same step on the same round.
        let hyper = HyperParams::new(3, 1, 1.0, 1);
        let updates = vec![
            upd(0, vec![0.4, 0.6]),
            upd(1, vec![0.4, 0.6]),
            upd(2, vec![0.9, -0.2]),
        ];
        let mut seasoned = FoolsGold::new();
        for _ in 0..3 {
            let _ = seasoned.aggregate(&[1.0, 1.0], &updates, &hyper);
        }
        let mut fresh = FoolsGold::new();
        assert_eq!(seasoned.suspected(), vec![0, 1]);
        assert!(fresh.suspected().is_empty());
        let a = seasoned.aggregate(&[1.0, 1.0], &updates, &hyper);
        let b = fresh.aggregate(&[1.0, 1.0], &updates, &hyper);
        assert_eq!(a, b);
        testkit::assert_bits_eq(seasoned.last_weights(), fresh.last_weights(), "weights");
    }

    #[test]
    fn plan_matches_the_cosine_weighted_mean_bitwise() {
        let hyper = HyperParams::new(5, 4, 0.05, 8);
        let (global, mut updates) = testkit::random_round(5, 301, 4);
        // One client pulls against the federation: its weight floors.
        updates[2].delta = ops::scaled(&updates[4].delta, -0.5);
        let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
        let mean = ops::mean_of(&deltas);
        let weights: Vec<f32> = deltas
            .iter()
            .map(|d| ops::cosine_similarity(d, &mean).max(1e-3))
            .collect();
        assert_eq!(weights[2], 1e-3);
        let plan = WeightedCombine {
            weights: weights.clone(),
            pre_scale: None,
            step_scale: -(hyper.eta_g / hyper.k_eta_l()),
        };
        let want = testkit::reference_step(&global, &updates, &plan);
        let mut alg = FoolsGold::new();
        let got = testkit::planned(&mut alg, &global, &updates, &hyper);
        testkit::assert_bits_eq(&got, &want, "planned");
        testkit::assert_bits_eq(alg.last_weights(), &weights, "weights");
        assert_eq!(alg.tracked_client_states(), 5, "history updated");
        testkit::assert_bits_eq(&alg.histories[3], &updates[3].delta, "history");
    }

    #[test]
    fn agrees_with_mean_when_clients_agree() {
        let mut alg = FoolsGold::new();
        let hyper = HyperParams::new(2, 1, 1.0, 1);
        let updates = vec![upd(0, vec![0.5, 0.5]), upd(1, vec![0.5, 0.5])];
        let next = alg.aggregate(&[1.0, 1.0], &updates, &hyper);
        assert!((next[0] - 0.5).abs() < 1e-6);
        assert!((next[1] - 0.5).abs() < 1e-6);
    }
}
