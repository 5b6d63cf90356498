//! The client-side local update loop (Algorithm 1 lines 3–8 /
//! Algorithm 2 lines 3–7 of the paper).
//!
//! Every algorithm's local behaviour is expressed as a [`LocalRule`]
//! value interpreted by [`run_local_steps`], so the seven algorithms
//! share one loop and differ only in the effective gradient
//! `v_{i,k}` they apply at each step.

use std::sync::Arc;

use taco_data::Dataset;
use taco_nn::Model;
use taco_tensor::{ops, Prng};

/// The effective-gradient rule a client applies at each local step.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalRule {
    /// `v = g` — FedAvg, FoolsGold.
    PlainSgd,
    /// `v = g + lambda · (w − anchor)` — the gradient of an L2
    /// proximal term `(λ/2)‖w − anchor‖²`. FedProx uses
    /// `anchor = w_t`; FedACG uses `anchor = w_t + m_t`. The anchor
    /// is the same for every client of a round, so they share one
    /// buffer.
    Prox {
        /// Regularization strength (`ζ` in FedProx, `β` in FedACG).
        lambda: f32,
        /// Proximal anchor point.
        anchor: Arc<[f32]>,
    },
    /// `v = g + term` — a per-client correction vector held constant
    /// across the round. SCAFFOLD uses `term = α(c_t − c_i^t)`.
    Correction {
        /// The additive correction vector.
        term: Vec<f32>,
    },
    /// `v = g + factor · direction` — a round-constant direction
    /// shared by every client, scaled by a per-client factor. TACO
    /// uses `direction = Δ_t`, `factor = γ(1−α_i^t)` (Eq. 8). Applied
    /// as `v[j] += factor · direction[j]`, bit-identical to
    /// [`LocalRule::Correction`] with `term = factor · direction`:
    /// Rust does not contract `a·b + c` to a fused multiply-add, and
    /// `1·x` is exact.
    ScaledCorrection {
        /// The shared direction.
        direction: Arc<[f32]>,
        /// This client's scale on `direction`.
        factor: f32,
    },
    /// STEM's recursive two-gradient momentum:
    /// `v_{i,k} = g_{i,k} + (1−α)(v_{i,k−1} − ∇f_i(w_{i,k−1}, ξ_{i,k}))`.
    /// Costs **two** gradient evaluations per step, which is the
    /// source of STEM's Table I / Fig. 5 compute overhead.
    StemMomentum {
        /// The momentum mixing coefficient `α_t`.
        alpha: f32,
    },
    /// `v = g + lambda·(w − anchor) + term` — a proximal pull plus a
    /// constant linear correction, the shape of FedDyn's dynamic
    /// regularizer (`term = −h_i^{t−1}`).
    ProxCorrection {
        /// Proximal strength.
        lambda: f32,
        /// Proximal anchor point.
        anchor: Arc<[f32]>,
        /// Constant additive correction.
        term: Vec<f32>,
    },
}

impl LocalRule {
    /// Gradient evaluations per local step under this rule.
    pub fn grads_per_step(&self) -> usize {
        match self {
            LocalRule::StemMomentum { .. } => 2,
            _ => 1,
        }
    }
}

/// The round's shared anchor when one was built for `global`'s
/// dimension, else a fresh one from `build`. Algorithms build the
/// anchor once in `begin_round` and drop it when the round
/// aggregates, so every client of a round shares one buffer while a
/// rule asked for outside a round still gets a correct anchor.
pub(crate) fn round_anchor(
    anchor: &Option<Arc<[f32]>>,
    global: &[f32],
    build: impl FnOnce() -> Arc<[f32]>,
) -> Arc<[f32]> {
    match anchor {
        Some(a) if a.len() == global.len() => Arc::clone(a),
        _ => build(),
    }
}

/// The result of one client's `K` local steps.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalOutcome {
    /// Accumulated local gradient `Δ_i^t = w_{i,0} − w_{i,K}` (Eq. 5),
    /// in parameter units.
    pub delta: Vec<f32>,
    /// STEM's final momentum `v_{i,K−1}` (gradient units); `None` for
    /// other rules.
    pub final_v: Option<Vec<f32>>,
    /// Mean mini-batch loss over the `K` steps.
    pub mean_loss: f32,
    /// Total gradient evaluations performed (cost-model input).
    pub grad_evals: usize,
    /// The number of local SGD steps actually taken (`τ_i`; FedNova's
    /// normalized averaging divides by it under system heterogeneity).
    pub steps: usize,
}

/// What a client uploads to the parameter server after local training.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientUpdate {
    /// The uploading client's id.
    pub client: usize,
    /// Accumulated local gradient `Δ_i^t` (parameter units). Under an
    /// upload codec the server replaces it with the decoded lossy
    /// vector once the encoding passes its structure check.
    pub delta: Vec<f32>,
    /// Local dataset size `D_i` (for data-weighted aggregation).
    pub num_samples: usize,
    /// STEM's `v_{i,K−1}` when applicable.
    pub final_v: Option<Vec<f32>>,
    /// Mean local training loss this round.
    pub mean_loss: f32,
    /// Gradient evaluations spent this round.
    pub grad_evals: usize,
    /// Local SGD steps actually taken this round (`τ_i`).
    pub steps: usize,
    /// Measured local compute time in seconds (filled by the
    /// simulator; algorithms must not read it).
    pub compute_seconds: f64,
}

impl ClientUpdate {
    /// Builds an update from a client id, dataset size and local
    /// outcome.
    pub fn from_outcome(client: usize, num_samples: usize, outcome: LocalOutcome) -> Self {
        ClientUpdate {
            client,
            delta: outcome.delta,
            num_samples,
            final_v: outcome.final_v,
            mean_loss: outcome.mean_loss,
            grad_evals: outcome.grad_evals,
            steps: outcome.steps,
            compute_seconds: 0.0,
        }
    }
}

/// Runs `K` local mini-batch SGD steps under `rule` from the start
/// point `start` (`w_{i,0}`, the round's global parameters) and
/// returns the accumulated local gradient (Eq. 4–5 of the paper).
///
/// Each step first loads the iterate into the model, so a model
/// reused across clients needs no reset first. The function keeps one
/// iterate: each step forms `v_{i,k}` and takes the SGD step
/// `w += −η_l·v` in one pass per element, the same two rounded
/// operations as forming `v` and then running [`ops::axpy`]. After the
/// last step the iterate becomes the delta in place
/// (`Δ_j = start_j − w_j`). STEM keeps its previous iterate and
/// momentum as separate buffers, since its next step reads them.
///
/// The model's parameters after the call are unspecified.
///
/// # Panics
///
/// Panics if `steps`, `batch_size` are zero, the dataset is empty,
/// `start` or a rule vector's length differs from the model's
/// parameter count.
#[allow(clippy::too_many_arguments)]
pub fn run_local_steps(
    model: &mut dyn Model,
    start: &[f32],
    data: &Dataset,
    rule: &LocalRule,
    steps: usize,
    eta_l: f32,
    batch_size: usize,
    rng: &mut Prng,
) -> LocalOutcome {
    assert!(steps > 0, "need at least one local step");
    let dim = start.len();
    if let LocalRule::Prox { anchor, .. } = rule {
        assert_eq!(anchor.len(), dim, "prox anchor length mismatch");
    }
    if let LocalRule::Correction { term } = rule {
        assert_eq!(term.len(), dim, "correction term length mismatch");
    }
    if let LocalRule::ScaledCorrection { direction, .. } = rule {
        assert_eq!(direction.len(), dim, "correction direction length mismatch");
    }
    if let LocalRule::ProxCorrection { anchor, term, .. } = rule {
        assert_eq!(anchor.len(), dim, "prox anchor length mismatch");
        assert_eq!(term.len(), dim, "correction term length mismatch");
    }
    // `w_{i,k}`; overwritten in place with the delta at the end.
    let mut w = start.to_vec();
    let step = -eta_l;
    let mut loss_sum = 0.0f64;
    let mut grad_evals = 0usize;
    let mut prev_w: Vec<f32> = Vec::new();
    let mut prev_v: Vec<f32> = Vec::new();
    for k in 0..steps {
        model.set_params(&w);
        let batch = data.sample_batch(batch_size, rng);
        let (loss, g) = model.loss_and_grad(&batch);
        grad_evals += 1;
        loss_sum += loss as f64;
        match rule {
            LocalRule::PlainSgd => {
                for (w, &g) in w.iter_mut().zip(&g) {
                    *w += step * g;
                }
            }
            LocalRule::Prox { lambda, anchor } => {
                for ((w, &g), &a) in w.iter_mut().zip(&g).zip(anchor.iter()) {
                    let v = g + lambda * (*w - a);
                    *w += step * v;
                }
            }
            // `g + 1·t`: `1·t` is exact, so the product is dropped.
            LocalRule::Correction { term } => {
                for ((w, &g), &t) in w.iter_mut().zip(&g).zip(term) {
                    let v = g + t;
                    *w += step * v;
                }
            }
            LocalRule::ScaledCorrection { direction, factor } => {
                for ((w, &g), &d) in w.iter_mut().zip(&g).zip(direction.iter()) {
                    let v = g + factor * d;
                    *w += step * v;
                }
            }
            LocalRule::ProxCorrection {
                lambda,
                anchor,
                term,
            } => {
                for (((w, &g), &a), &t) in w.iter_mut().zip(&g).zip(anchor.iter()).zip(term) {
                    let v = g + (lambda * (*w - a) + t);
                    *w += step * v;
                }
            }
            LocalRule::StemMomentum { alpha } => {
                let mut v = g;
                if k > 0 {
                    // Second gradient: same batch, previous iterate.
                    model.set_params(&prev_w);
                    let (_, g_prev) = model.loss_and_grad(&batch);
                    grad_evals += 1;
                    for ((v, &pv), &gp) in v.iter_mut().zip(&prev_v).zip(&g_prev) {
                        *v += (1.0 - alpha) * (pv - gp);
                    }
                }
                prev_w.clone_from(&w);
                ops::axpy(&mut w, step, &v);
                prev_v = v;
            }
        }
    }
    for (w, &s) in w.iter_mut().zip(start) {
        *w = s - *w;
    }
    LocalOutcome {
        delta: w,
        final_v: matches!(rule, LocalRule::StemMomentum { .. }).then_some(prev_v),
        mean_loss: (loss_sum / steps as f64) as f32,
        grad_evals,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_nn::Mlp;

    fn fixture() -> (Mlp, Dataset, Prng) {
        let mut rng = Prng::seed_from_u64(3);
        let model = Mlp::new(4, &[6], 3, &mut rng);
        let n = 30;
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 3;
            for j in 0..4 {
                features.push(c as f32 - 1.0 + 0.3 * rng.normal_f32() + j as f32 * 0.0);
            }
            labels.push(c);
        }
        let data = Dataset::new(features, labels, &[4], 3);
        (model, data, rng)
    }

    /// [`run_local_steps`] from the model's current parameters.
    fn from_current(
        model: &mut dyn Model,
        data: &Dataset,
        rule: &LocalRule,
        steps: usize,
        eta_l: f32,
        batch_size: usize,
        rng: &mut Prng,
    ) -> LocalOutcome {
        let start = model.params();
        run_local_steps(model, &start, data, rule, steps, eta_l, batch_size, rng)
    }

    /// The loop before start-point steps, kept as the oracle: it reads
    /// the start from the model, forms `v` as its own vector, steps
    /// with [`ops::axpy`] and subtracts the final iterate from a copy
    /// of the start.
    fn reference_local_steps(
        model: &mut dyn Model,
        data: &Dataset,
        rule: &LocalRule,
        steps: usize,
        eta_l: f32,
        batch_size: usize,
        rng: &mut Prng,
    ) -> LocalOutcome {
        let mut w = model.params();
        let dim = w.len();
        let mut delta = w.clone();
        let mut loss_sum = 0.0f64;
        let mut grad_evals = 0usize;
        let mut prev_w: Vec<f32> = Vec::new();
        let mut prev_v: Vec<f32> = Vec::new();
        for k in 0..steps {
            let batch = data.sample_batch(batch_size, rng);
            let (loss, g) = model.loss_and_grad(&batch);
            grad_evals += 1;
            loss_sum += loss as f64;
            let v = match rule {
                LocalRule::PlainSgd => g,
                LocalRule::Prox { lambda, anchor } => {
                    let mut v = g;
                    for i in 0..dim {
                        v[i] += lambda * (w[i] - anchor[i]);
                    }
                    v
                }
                LocalRule::Correction { term } => {
                    let mut v = g;
                    ops::axpy(&mut v, 1.0, term);
                    v
                }
                LocalRule::ScaledCorrection { direction, factor } => {
                    let mut v = g;
                    ops::axpy(&mut v, *factor, direction);
                    v
                }
                LocalRule::ProxCorrection {
                    lambda,
                    anchor,
                    term,
                } => {
                    let mut v = g;
                    for i in 0..dim {
                        v[i] += lambda * (w[i] - anchor[i]) + term[i];
                    }
                    v
                }
                LocalRule::StemMomentum { alpha } => {
                    if k == 0 {
                        g
                    } else {
                        model.set_params(&prev_w);
                        let (_, g_prev) = model.loss_and_grad(&batch);
                        model.set_params(&w);
                        grad_evals += 1;
                        let mut v = g;
                        for i in 0..dim {
                            v[i] += (1.0 - alpha) * (prev_v[i] - g_prev[i]);
                        }
                        v
                    }
                }
            };
            if matches!(rule, LocalRule::StemMomentum { .. }) {
                prev_w = w.clone();
                prev_v = v.clone();
            }
            ops::axpy(&mut w, -eta_l, &v);
            model.set_params(&w);
        }
        for (d, &wk) in delta.iter_mut().zip(&w) {
            *d -= wk;
        }
        LocalOutcome {
            delta,
            final_v: if matches!(rule, LocalRule::StemMomentum { .. }) {
                Some(prev_v)
            } else {
                None
            },
            mean_loss: (loss_sum / steps as f64) as f32,
            grad_evals,
            steps,
        }
    }

    /// One rule of each kind, with vectors drawn for `dim` parameters
    /// around `start`.
    fn every_rule(start: &[f32], seed: u64) -> Vec<LocalRule> {
        let mut rng = Prng::seed_from_u64(seed);
        let mut draw = |scale: f32| -> Vec<f32> {
            (0..start.len()).map(|_| scale * rng.normal_f32()).collect()
        };
        let anchor: Arc<[f32]> = start
            .iter()
            .zip(draw(0.1))
            .map(|(s, n)| s + n)
            .collect::<Vec<_>>()
            .into();
        let term = draw(0.05);
        let direction: Arc<[f32]> = draw(0.2).into();
        vec![
            LocalRule::PlainSgd,
            LocalRule::Prox {
                lambda: 0.3,
                anchor: Arc::clone(&anchor),
            },
            LocalRule::Correction { term: term.clone() },
            LocalRule::ScaledCorrection {
                direction,
                factor: -0.7,
            },
            LocalRule::StemMomentum { alpha: 0.2 },
            LocalRule::ProxCorrection {
                lambda: 0.1,
                anchor,
                term,
            },
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs every rule for K ∈ {1, 3} through both loops on clones of
    /// `model` and compares the outcomes bitwise.
    fn assert_matches_reference(model: &dyn Model, data: &Dataset, what: &str) {
        let start = model.clone_model().params();
        for rule in every_rule(&start, 17) {
            for steps in [1, 3] {
                let case = format!("{what}, {rule:?}, K = {steps}");
                let mut oracle = model.clone_model();
                let want = reference_local_steps(
                    &mut *oracle,
                    data,
                    &rule,
                    steps,
                    0.05,
                    4,
                    &mut Prng::seed_from_u64(9),
                );
                // A model left elsewhere: the start point must not
                // depend on what the model held before.
                let mut reused = model.clone_model();
                let elsewhere = vec![0.25f32; start.len()];
                reused.set_params(&elsewhere);
                let got = run_local_steps(
                    &mut *reused,
                    &start,
                    data,
                    &rule,
                    steps,
                    0.05,
                    4,
                    &mut Prng::seed_from_u64(9),
                );
                assert_eq!(bits(&got.delta), bits(&want.delta), "delta, {case}");
                assert_eq!(
                    got.final_v.as_deref().map(bits),
                    want.final_v.as_deref().map(bits),
                    "final_v, {case}"
                );
                assert_eq!(
                    got.mean_loss.to_bits(),
                    want.mean_loss.to_bits(),
                    "loss, {case}"
                );
                assert_eq!(
                    (got.grad_evals, got.steps),
                    (want.grad_evals, want.steps),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn start_point_steps_match_the_reference_loop_bitwise() {
        let (mlp, data, _) = fixture();
        assert_matches_reference(&mlp, &data, "Mlp");
        let mut rng = Prng::seed_from_u64(21);
        let cnn = taco_nn::PaperCnn::new(1, 16, 3, 2, 8, &mut rng);
        let n = 12;
        let features = (0..n * 256).map(|_| rng.normal_f32()).collect();
        let labels = (0..n).map(|i| i % 3).collect();
        let images = Dataset::new(features, labels, &[1, 16, 16], 3);
        assert_matches_reference(&cnn, &images, "PaperCnn");
    }

    #[test]
    fn delta_is_w0_minus_wk() {
        let (mut model, data, rng) = fixture();
        let w0 = model.params();
        // The reference loop leaves its model at `w_K`.
        let mut oracle = model.clone_model();
        let rule = LocalRule::PlainSgd;
        let _ = reference_local_steps(&mut *oracle, &data, &rule, 5, 0.05, 4, &mut rng.clone());
        let out = from_current(&mut model, &data, &rule, 5, 0.05, 4, &mut rng.clone());
        let wk = oracle.params();
        for i in 0..w0.len() {
            assert!((out.delta[i] - (w0[i] - wk[i])).abs() < 1e-6);
        }
        assert_eq!(out.grad_evals, 5);
        assert!(out.final_v.is_none());
    }

    #[test]
    fn prox_pulls_toward_anchor() {
        let (mut model, data, mut rng) = fixture();
        let anchor = model.params();
        // A huge lambda should keep the iterate glued to the anchor.
        let out = from_current(
            &mut model,
            &data,
            &LocalRule::Prox {
                lambda: 1000.0,
                anchor: anchor.into(),
            },
            10,
            0.0005,
            4,
            &mut rng,
        );
        let free_drift = {
            let (mut m2, data, mut rng) = fixture();
            let o = from_current(
                &mut m2,
                &data,
                &LocalRule::PlainSgd,
                10,
                0.0005,
                4,
                &mut rng,
            );
            ops::norm(&o.delta)
        };
        assert!(
            ops::norm(&out.delta) < free_drift,
            "prox did not restrain drift"
        );
    }

    #[test]
    fn correction_term_steers_update() {
        let (mut model, data, mut rng) = fixture();
        let dim = model.param_count();
        // A large constant correction dominates the tiny gradient of a
        // 1-step run; Δ should align with it.
        let term = vec![10.0f32; dim];
        let out = from_current(
            &mut model,
            &data,
            &LocalRule::Correction { term: term.clone() },
            1,
            0.01,
            4,
            &mut rng,
        );
        let cos = ops::cosine_similarity(&out.delta, &term);
        assert!(cos > 0.99, "delta not aligned with correction: cos {cos}");
    }

    /// Every field of a [`LocalOutcome`] as raw bits, so signed zeros
    /// and NaN payloads compare exactly.
    fn outcome_bits(o: &LocalOutcome) -> (Vec<u32>, u32, usize, usize) {
        (
            o.delta.iter().map(|x| x.to_bits()).collect(),
            o.mean_loss.to_bits(),
            o.grad_evals,
            o.steps,
        )
    }

    #[test]
    fn scaled_correction_matches_the_materialized_term_bitwise() {
        let (mut model, _, _) = fixture();
        let dim = model.param_count();
        let mut drng = Prng::seed_from_u64(11);
        let mut direction: Vec<f32> = (0..dim).map(|_| drng.normal_f32()).collect();
        // Signed zeros in the direction: `factor · ±0` must keep the
        // same sign the materialized term would.
        direction[0] = 0.0;
        direction[1] = -0.0;
        let direction: Arc<[f32]> = direction.into();
        for factor in [0.37f32, -0.81, 0.0, -0.0, 1.0, -1.0, 1e-30] {
            let run = |rule: &LocalRule| {
                let (mut m, data, mut rng) = fixture();
                from_current(&mut m, &data, rule, 6, 0.05, 4, &mut rng)
            };
            let shared = run(&LocalRule::ScaledCorrection {
                direction: Arc::clone(&direction),
                factor,
            });
            let owned = run(&LocalRule::Correction {
                term: ops::scaled(&direction, factor),
            });
            assert_eq!(
                outcome_bits(&shared),
                outcome_bits(&owned),
                "factor {factor}"
            );
            assert!(shared.final_v.is_none());
        }
    }

    #[test]
    fn stem_costs_two_grads_per_step_after_first() {
        let (mut model, data, mut rng) = fixture();
        let out = from_current(
            &mut model,
            &data,
            &LocalRule::StemMomentum { alpha: 0.2 },
            5,
            0.05,
            4,
            &mut rng,
        );
        assert_eq!(out.grad_evals, 5 + 4);
        assert!(out.final_v.is_some());
        assert_eq!(out.final_v.as_ref().map(Vec::len), Some(out.delta.len()));
    }

    #[test]
    fn stem_with_alpha_one_matches_sgd() {
        // α = 1 kills the momentum term, so STEM degenerates to SGD
        // (same batches via the same seed).
        let (mut m1, data, mut r1) = fixture();
        let o1 = from_current(
            &mut m1,
            &data,
            &LocalRule::StemMomentum { alpha: 1.0 },
            4,
            0.05,
            4,
            &mut r1,
        );
        let (mut m2, data2, mut r2) = fixture();
        let o2 = from_current(&mut m2, &data2, &LocalRule::PlainSgd, 4, 0.05, 4, &mut r2);
        for (a, b) in o1.delta.iter().zip(&o2.delta) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (mut model, data, mut rng) = fixture();
        let eval = data.eval_batches(16);
        let (l0, _) = taco_nn::evaluate(&mut model, &eval);
        let start = model.params();
        let out = from_current(
            &mut model,
            &data,
            &LocalRule::PlainSgd,
            60,
            0.1,
            8,
            &mut rng,
        );
        let trained: Vec<f32> = start.iter().zip(&out.delta).map(|(s, d)| s - d).collect();
        model.set_params(&trained);
        let (l1, _) = taco_nn::evaluate(&mut model, &eval);
        assert!(l1 < l0, "local SGD failed to learn: {l0} -> {l1}");
    }

    #[test]
    fn grads_per_step_profile() {
        assert_eq!(LocalRule::PlainSgd.grads_per_step(), 1);
        assert_eq!(LocalRule::StemMomentum { alpha: 0.1 }.grads_per_step(), 2);
    }

    #[test]
    #[should_panic(expected = "anchor length mismatch")]
    fn bad_anchor_length_panics() {
        let (mut model, data, mut rng) = fixture();
        let _ = from_current(
            &mut model,
            &data,
            &LocalRule::Prox {
                lambda: 0.1,
                anchor: vec![0.0; 3].into(),
            },
            1,
            0.1,
            2,
            &mut rng,
        );
    }
}
