//! The server-side algorithm trait.

use crate::hyper::HyperParams;
use crate::update::{ClientUpdate, LocalRule};
use taco_tensor::{linalg, ops, pool};

/// How aggregation weights `p_i` are chosen in Eq. 6 when the
/// algorithm itself does not prescribe them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggWeighting {
    /// `p_i = 1/N`.
    Uniform,
    /// `p_i = D_i / D`.
    DataSize,
}

/// Server-side statistics of a round's accepted uploads, computed once
/// and shared between the coefficient math (Eq. 7) and any diagnostics.
///
/// The fields are defined *operationally* — each one names the exact
/// `taco_tensor::ops` arithmetic that produces it — so that
/// [`UploadStats::compute`] is bit-identical at any pool size.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadStats {
    /// The unweighted mean delta `Δ̄` — `taco_tensor::ops::mean_of`
    /// over the uploads' deltas in client order.
    pub mean_delta: Vec<f32>,
    /// Per-upload L2 norms `‖Δ_i‖` — `taco_tensor::ops::norm`, one
    /// whole-vector reduction per upload, in client order.
    pub norms: Vec<f32>,
    /// Per-upload cosines `cos(Δ_i, Δ̄)` —
    /// `taco_tensor::ops::cosine_similarity` against `mean_delta`.
    pub cosines: Vec<f32>,
}

/// Uploads whose norms and dot products with the mean one pass folds
/// together.
const STATS_GROUP: usize = 4;

impl UploadStats {
    /// Computes the statistics: the mean is a [`weighted_mean`] with
    /// unit weights; norms and cosines come from one pass per group of
    /// `STATS_GROUP` uploads, one pool task per group. Each upload's
    /// two reductions stay whole-vector ascending folds and no
    /// cross-client float fold runs in parallel, so the result is the
    /// same at any pool size.
    ///
    /// # Panics
    ///
    /// Panics if `updates` is empty or delta lengths are inconsistent.
    pub fn compute(updates: &[ClientUpdate]) -> Self {
        let ones = vec![1.0f32; updates.len()];
        let mean_delta = weighted_mean(updates, &ones);
        let mean_norm = ops::norm(&mean_delta);
        let mut scalars = vec![(0.0f32, 0.0f32); updates.len()];
        pool::for_each_chunk(&mut scalars, STATS_GROUP, |group, slots| {
            let first = group * STATS_GROUP;
            // A short last group re-reads its last upload and discards
            // the copies.
            let deltas = std::array::from_fn(|u| {
                updates[(first + u).min(updates.len() - 1)].delta.as_slice()
            });
            let (squares, dots) = squares_and_dots(deltas, &mean_delta);
            for ((slot, square), dot) in slots.iter_mut().zip(squares).zip(dots) {
                let norm = square.sqrt() as f32;
                *slot = (norm, ops::cosine_from_dot(dot as f32, norm, mean_norm));
            }
        });
        let (norms, cosines) = scalars.into_iter().unzip();
        UploadStats {
            mean_delta,
            norms,
            cosines,
        }
    }
}

/// `Σ x²` and `Σ x·m` of each delta against `mean`, as the ascending
/// `f64` folds of `ops::norm` and `ops::dot`: one pass over the
/// dimensions keeps 8 independent accumulator chains in flight.
fn squares_and_dots(
    deltas: [&[f32]; STATS_GROUP],
    mean: &[f32],
) -> ([f64; STATS_GROUP], [f64; STATS_GROUP]) {
    let deltas = deltas.map(|d| &d[..mean.len()]);
    let mut squares = [0.0f64; STATS_GROUP];
    let mut dots = [0.0f64; STATS_GROUP];
    for (i, &m) in mean.iter().enumerate() {
        let m = f64::from(m);
        for ((square, dot), d) in squares.iter_mut().zip(&mut dots).zip(deltas) {
            let x = f64::from(d[i]);
            *square += x * x;
            *dot += x * m;
        }
    }
    (squares, dots)
}

/// A declarative aggregation plan: how this round's deltas combine into
/// the gradient step. Produced by
/// [`FederatedAlgorithm::plan_aggregation`]; executed by
/// [`combine_weighted`].
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedCombine {
    /// Aggregation weights `p_i`, one per accepted upload in client
    /// order. Must sum to a positive finite value.
    pub weights: Vec<f32>,
    /// Optional in-place scale applied to the weighted mean *before*
    /// the step (TACO's `1 / (K·η_l)` normalization). `None` skips the
    /// pass entirely.
    pub pre_scale: Option<f32>,
    /// Coefficient of the final `w_{t+1} = w_t + step_scale · Δ` AXPY
    /// (negative for descent).
    pub step_scale: f32,
}

/// Dimensions per tile of the fold: its `f64` accumulators (16 KiB)
/// stay in L1 while every upload streams through them.
const FOLD_TILE: usize = 2048;

/// Uploads one pass of the fold adds into a tile.
const FOLD_GROUP: usize = 4;

/// `Σ_i w_i·Δ_i / Σ_i w_i` per dimension, rounded to `f32`: the
/// order-fixed fold behind every weighted combine.
///
/// The model's dimensions are split into tiles of `FOLD_TILE`, one
/// pool task per tile. Each task keeps the tile's `f64` accumulators on
/// its stack, adds the uploads into them `FOLD_GROUP` at a time **in
/// client order** ([`linalg::fold_weighted`]) with the widening
/// `acc += w as f64 · x as f64` of [`ops::weighted_mean`], and writes
/// the tile's mean straight out. Every dimension belongs to one tile
/// and starts its sum at zero, and the tiles depend only on the model's
/// size, so neither the partition nor the schedule reorders any sum:
/// the result is bit-identical to `ops::weighted_mean` over the deltas
/// at any pool size. Encoded uploads arrive here already decoded: the
/// fold only ever reads dense deltas.
///
/// # Panics
///
/// Panics if `updates` is empty, the weight count or delta lengths are
/// inconsistent, or the weights do not sum to a positive finite value.
pub fn weighted_mean(updates: &[ClientUpdate], weights: &[f32]) -> Vec<f32> {
    assert!(!updates.is_empty(), "weighted mean of no updates");
    assert_eq!(updates.len(), weights.len(), "weight count mismatch");
    let wide: Vec<f64> = weights.iter().map(|&w| f64::from(w)).collect();
    let total = ops::sum_f64(&wide);
    assert!(
        total.is_finite() && total > 0.0,
        "weights must sum to a positive finite value, got {total}"
    );
    let dim = updates[0].delta.len();
    assert!(
        updates.iter().all(|u| u.delta.len() == dim),
        "delta length mismatch"
    );
    let mut mean = vec![0.0f32; dim];
    pool::for_each_chunk(&mut mean, FOLD_TILE, |t, out| {
        let lo = t * FOLD_TILE;
        let delta = |u: usize| &updates[u].delta[lo..lo + out.len()];
        let mut tile = [0.0f64; FOLD_TILE];
        let acc = &mut tile[..out.len()];
        let mut first = 0;
        while first + FOLD_GROUP <= updates.len() {
            let xs: [&[f32]; FOLD_GROUP] = std::array::from_fn(|u| delta(first + u));
            linalg::fold_weighted(acc, xs, std::array::from_fn(|u| wide[first + u]));
            first += FOLD_GROUP;
        }
        for (u, &w) in wide.iter().enumerate().skip(first) {
            linalg::fold_weighted(acc, [delta(u)], [w]);
        }
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o = (a / total) as f32;
        }
    });
    mean
}

/// Executes a [`WeightedCombine`] plan: the [`weighted_mean`] →
/// optional pre-scale → AXPY step. Returns `(combined, next_global)`
/// where `combined` is the post-scale aggregate (what TACO stores as
/// `Δ_{t+1}`) and `next_global` the stepped parameters.
///
/// # Panics
///
/// Panics as [`weighted_mean`] does.
pub fn combine_weighted(
    global: &[f32],
    updates: &[ClientUpdate],
    plan: &WeightedCombine,
) -> (Vec<f32>, Vec<f32>) {
    let mut combined = weighted_mean(updates, &plan.weights);
    if let Some(s) = plan.pre_scale {
        ops::scale(&mut combined, s);
    }
    let mut next = global.to_vec();
    ops::axpy(&mut next, plan.step_scale, &combined);
    (combined, next)
}

/// The planned server step behind the default
/// [`FederatedAlgorithm::aggregate`]: [`UploadStats`] if the algorithm
/// wants them, then its [`FederatedAlgorithm::plan_aggregation`], the
/// [`combine_weighted`] fold, and
/// [`FederatedAlgorithm::commit_aggregation`]. Returns `None`, having
/// folded nothing, when the algorithm has no plan.
///
/// # Panics
///
/// Panics if `updates` is empty or the plan is invalid.
pub fn aggregate_planned<A: FederatedAlgorithm + ?Sized>(
    algorithm: &mut A,
    global: &[f32],
    updates: &[ClientUpdate],
    hyper: &HyperParams,
) -> Option<Vec<f32>> {
    let stats = algorithm
        .wants_upload_stats()
        .then(|| UploadStats::compute(updates));
    let plan = algorithm.plan_aggregation(global, updates, stats.as_ref(), hyper)?;
    let (combined, next) = combine_weighted(global, updates, &plan);
    algorithm.commit_aggregation(global, &combined);
    Some(next)
}

/// Static per-step compute profile of an algorithm: the arithmetic
/// behind the per-step overheads the paper describes. Table I,
/// Table III and Fig. 5 report *measured* times; nothing in the
/// workspace reads the profile, and the benchmark's timing decorator
/// only forwards it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Gradient evaluations per local step (2 for STEM).
    pub grads_per_step: usize,
    /// Parameter-length vector operations added per local step on top
    /// of the SGD update (prox pull, correction add, ...).
    pub extra_vector_ops: usize,
}

/// A federated-learning algorithm's server logic.
///
/// The simulation runtime drives one round as:
///
/// 1. [`FederatedAlgorithm::begin_round`] with the current global
///    parameters;
/// 2. [`FederatedAlgorithm::local_rule`] for every participating
///    client, with the same global parameters, whose result is
///    interpreted by [`crate::update::run_local_steps`] from those
///    global parameters on the client's shard (a round-constant vector
///    such as a proximal anchor can therefore be built once in
///    `begin_round` and shared);
/// 3. [`FederatedAlgorithm::aggregate`] with the round's accepted
///    uploads, once per round that has any.
///
/// Implementations hold whatever cross-round state they need (control
/// variates, momenta, correction coefficients). An algorithm whose
/// server step is `w_t + s·Σ p_i Δ_i / Σ p_i` implements
/// [`FederatedAlgorithm::plan_aggregation`], advancing its state there,
/// and keeps the default `aggregate`; one whose step has another shape
/// (FedNova's `f64` τ-fold, STEM's momentum fold, FedACG's server
/// momentum) overrides `aggregate` instead.
pub trait FederatedAlgorithm: Send {
    /// The algorithm's display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Called at the start of round `t` with the global parameters.
    /// Default: no-op.
    fn begin_round(&mut self, _round: usize, _global: &[f32]) {}

    /// The local-update rule client `client` must follow this round.
    fn local_rule(&self, client: usize, global: &[f32]) -> LocalRule;

    /// Aggregates the round's uploads and returns the next global
    /// parameter vector: the server's one aggregation entry point. The
    /// default runs [`aggregate_planned`].
    ///
    /// # Panics
    ///
    /// The default panics if `updates` is empty or the algorithm has
    /// no plan.
    fn aggregate(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        hyper: &HyperParams,
    ) -> Vec<f32> {
        assert!(!updates.is_empty(), "aggregate with no updates");
        aggregate_planned(self, global, updates, hyper)
            .unwrap_or_else(|| panic!("{} has no aggregation plan", self.name()))
    }

    /// Whether [`FederatedAlgorithm::plan_aggregation`] needs
    /// [`UploadStats`] for this algorithm (TACO's Eq. 7 coefficients
    /// do; FedAvg's data-size weights do not). [`aggregate_planned`]
    /// asks once per round and skips the statistics otherwise.
    fn wants_upload_stats(&self) -> bool {
        false
    }

    /// Decomposes this round's aggregation into a declarative
    /// [`WeightedCombine`] plan, advancing any cross-round state
    /// (coefficients, strikes, control variates, histories). The
    /// default `aggregate` executes the plan with [`combine_weighted`],
    /// then calls [`FederatedAlgorithm::commit_aggregation`] with the
    /// result.
    ///
    /// `stats` is `Some` iff [`FederatedAlgorithm::wants_upload_stats`]
    /// returned `true`. The default returns `None`: the algorithm has
    /// no plan and must override [`FederatedAlgorithm::aggregate`].
    fn plan_aggregation(
        &mut self,
        _global: &[f32],
        _updates: &[ClientUpdate],
        _stats: Option<&UploadStats>,
        _hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        None
    }

    /// Called after a planned combine has been executed, with the
    /// post-`pre_scale` aggregate (`combined`), so the algorithm can
    /// store it (TACO keeps it as `Δ_{t+1}` for next round's
    /// correction terms). Default: no-op.
    fn commit_aggregation(&mut self, _global: &[f32], _combined: &[f32]) {}

    /// The parameters to evaluate/report (TACO reports `z_t`, Eq. 15;
    /// everyone else reports `w_t`).
    fn output_params(&self, global: &[f32]) -> Vec<f32> {
        global.to_vec()
    }

    /// Clients expelled so far by freeloader detection (TACO only).
    fn expelled(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Clients the algorithm currently *suspects* of malicious
    /// behaviour, whether or not it has acted on the suspicion.
    /// Expulsion-based detectors (TACO's Eq. 10) suspect exactly the
    /// expelled set — the default; similarity-based detectors
    /// (FoolsGold's cosine history) can flag clients they merely
    /// downweight. The simulation records this set every round, which
    /// is what the detection scoreboard's TPR/FPR curves are built on.
    fn suspected(&self) -> Vec<usize> {
        self.expelled()
    }

    /// Lifecycle hook for a client joining the federation. The
    /// simulator never calls it; it is kept, as a no-op, only because
    /// fedbench's decorator forwards it, and goes in the next change
    /// to the benchmark.
    fn client_joined(&mut self, _client: usize) {}

    /// Lifecycle hook for a client leaving the federation; a no-op
    /// the simulator never calls, kept for the same reason as
    /// [`FederatedAlgorithm::client_joined`].
    fn client_departed(&mut self, _client: usize) {}

    /// Number of clients for which the algorithm currently holds
    /// materialized per-client *vector* state (SCAFFOLD control
    /// variates, FoolsGold delta histories), recorded every round.
    /// Algorithms with only O(1) scalar per-client state (TACO's
    /// α/strikes) report 0.
    fn tracked_client_states(&self) -> usize {
        0
    }

    /// Server-side evidence that `client` uploaded an invalid update
    /// (non-finite or norm-exploded delta) which was quarantined
    /// before aggregation. Detection-capable algorithms treat this
    /// like a freeloader strike; the default is a no-op.
    fn report_invalid_update(&mut self, _client: usize) {}

    /// The current per-client correction coefficients `α_i^t`, if the
    /// algorithm computes them (TACO and the tailored hybrids).
    fn alphas(&self) -> Option<&[f32]> {
        None
    }

    /// Whether clients must upload their final momentum buffer `v_i`
    /// alongside `Δ_i` (STEM-style algorithms). Lets the runner size
    /// freeloader payloads without probing `local_rule` before
    /// `begin_round` has seen the first round.
    fn uploads_momentum(&self) -> bool {
        false
    }

    /// The algorithm's static per-step compute profile.
    fn cost_profile(&self) -> CostProfile {
        CostProfile {
            grads_per_step: 1,
            extra_vector_ops: 0,
        }
    }
}

/// FedAvg's [`WeightedCombine`] plan,
/// `Δ_{t+1} = Σ p_i Δ_i / (K·η_l)` and `w_{t+1} = w_t − η_g Δ_{t+1}`
/// (Eq. 6 with the paper's normalization): `p_i` per the weighting
/// rule, no pre-scale, step `−(η_g / (K·η_l))`.
pub fn fedavg_plan(
    updates: &[ClientUpdate],
    hyper: &HyperParams,
    weighting: AggWeighting,
) -> WeightedCombine {
    let weights: Vec<f32> = match weighting {
        AggWeighting::Uniform => vec![1.0; updates.len()],
        AggWeighting::DataSize => updates.iter().map(|u| u.num_samples as f32).collect(),
    };
    WeightedCombine {
        weights,
        pre_scale: None,
        step_scale: -(hyper.eta_g / hyper.k_eta_l()),
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared fixtures for the planned-aggregation unit tests.

    use super::*;
    use taco_tensor::Prng;

    /// An upload of `delta` from `client`, one sample, one step.
    pub(crate) fn update(client: usize, delta: Vec<f32>) -> ClientUpdate {
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

    /// A random global vector and `n` random uploads of `dim` dims.
    pub(crate) fn random_round(n: usize, dim: usize, seed: u64) -> (Vec<f32>, Vec<ClientUpdate>) {
        let mut rng = Prng::seed_from_u64(seed);
        let global = (0..dim).map(|_| rng.normal_f32()).collect();
        let updates = (0..n)
            .map(|c| {
                let scale = 0.1 + c as f32;
                update(c, (0..dim).map(|_| rng.normal_f32() * scale).collect())
            })
            .collect();
        (global, updates)
    }

    /// The sequential reference for a plan: `ops::weighted_mean` →
    /// pre-scale → AXPY.
    pub(crate) fn reference_step(
        global: &[f32],
        updates: &[ClientUpdate],
        plan: &WeightedCombine,
    ) -> Vec<f32> {
        let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
        let mut combined = ops::weighted_mean(&deltas, &plan.weights);
        if let Some(s) = plan.pre_scale {
            ops::scale(&mut combined, s);
        }
        let mut next = global.to_vec();
        ops::axpy(&mut next, plan.step_scale, &combined);
        next
    }

    /// One [`aggregate_planned`] round.
    pub(crate) fn planned(
        algorithm: &mut dyn FederatedAlgorithm,
        global: &[f32],
        updates: &[ClientUpdate],
        hyper: &HyperParams,
    ) -> Vec<f32> {
        aggregate_planned(algorithm, global, updates, hyper).expect("the algorithm plans")
    }

    pub(crate) fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: dim {i}: {g} vs {w}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedavg::FedAvg;

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
    fn fedavg_with_default_eta_g_averages_models() {
        // With η_g = K·η_l, w' = w − mean(Δ_i), i.e. the average of the
        // client models (w − Δ_i).
        let hyper = HyperParams::new(2, 10, 0.1, 4);
        let global = vec![1.0, 1.0];
        let updates = vec![upd(0, vec![0.2, 0.0], 5), upd(1, vec![0.0, 0.4], 5)];
        let next = FedAvg::new(AggWeighting::Uniform).aggregate(&global, &updates, &hyper);
        assert!((next[0] - 0.9).abs() < 1e-6);
        assert!((next[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn data_weighting_prefers_large_clients() {
        let hyper = HyperParams::new(2, 1, 1.0, 4);
        let global = vec![0.0];
        let updates = vec![upd(0, vec![1.0], 9), upd(1, vec![0.0], 1)];
        let next = FedAvg::new(AggWeighting::DataSize).aggregate(&global, &updates, &hyper);
        assert!((next[0] + 0.9).abs() < 1e-6, "got {}", next[0]);
    }

    #[test]
    fn fold_matches_the_weighted_mean_at_any_thread_count() {
        use crate::compress::{codec_stream, Compressor, TopK, Uniform8Bit};
        let pools = [
            taco_tensor::pool::Pool::new(1),
            taco_tensor::pool::Pool::new(4),
        ];
        let weights = [0.3f32, 1.7, 0.01, 2.5, 0.9, 1.0, 0.05, 3.25, 0.6];
        // Every remainder of the upload group, and dimensions on both
        // sides of a tile and past three tiles, so tile boundaries
        // cross Q8/sparse runs.
        for n in 1..=weights.len() {
            for dim in [1001, FOLD_TILE - 1, FOLD_TILE + 1, 3 * FOLD_TILE + 5] {
                let (_, mut updates) = testkit::random_round(n, dim, 23 + n as u64);
                // Two uploads carry decoded lossy deltas, as under a codec.
                for (i, codec) in [(1, &Uniform8Bit as &dyn Compressor), (3, &TopK::new(0.1))] {
                    if let Some(u) = updates.get_mut(i) {
                        u.delta = codec.encode(&u.delta, &mut codec_stream(23, 0, i)).decode();
                    }
                }
                // Exactly cancelling first and last terms around small
                // ones: any reordering of these dimensions' sums shows.
                if n >= 3 {
                    let big = 2f32.powi(60);
                    for j in [0, dim / 2, dim - 1] {
                        updates[0].delta[j] = weights[n - 1] * big;
                        updates[n - 1].delta[j] = -weights[0] * big;
                    }
                }
                let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
                let want = taco_tensor::ops::weighted_mean(&deltas, &weights[..n]);
                for pool in &pools {
                    let got = taco_tensor::pool::with_pool(pool, || {
                        weighted_mean(&updates, &weights[..n])
                    });
                    let what = format!("{n} uploads, dim {dim}, t{}", pool.threads());
                    testkit::assert_bits_eq(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn upload_stats_match_their_sequential_definitions() {
        let pools = [
            taco_tensor::pool::Pool::new(1),
            taco_tensor::pool::Pool::new(4),
        ];
        // Every remainder of the 4-upload group, an odd dimension, and
        // an all-zero delta for the cosine's zero-norm branch.
        for n in 1..=9 {
            let (_, mut updates) = testkit::random_round(n, 261, 5 + n as u64);
            if n >= 3 {
                updates[2].delta.fill(0.0);
            }
            let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
            let mean = taco_tensor::ops::mean_of(&deltas);
            let norms: Vec<f32> = deltas.iter().map(|d| taco_tensor::ops::norm(d)).collect();
            let cosines: Vec<f32> = deltas
                .iter()
                .map(|d| taco_tensor::ops::cosine_similarity(d, &mean))
                .collect();
            for pool in &pools {
                let stats = taco_tensor::pool::with_pool(pool, || UploadStats::compute(&updates));
                let what = format!("{n} uploads, {} threads", pool.threads());
                testkit::assert_bits_eq(&stats.mean_delta, &mean, &format!("mean, {what}"));
                testkit::assert_bits_eq(&stats.norms, &norms, &format!("norms, {what}"));
                testkit::assert_bits_eq(&stats.cosines, &cosines, &format!("cosines, {what}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "has no aggregation plan")]
    fn default_aggregate_needs_a_plan() {
        struct Planless;
        impl FederatedAlgorithm for Planless {
            fn name(&self) -> &'static str {
                "planless"
            }
            fn local_rule(&self, _client: usize, _global: &[f32]) -> LocalRule {
                LocalRule::PlainSgd
            }
        }
        let hyper = HyperParams::new(1, 1, 1.0, 1);
        let _ = Planless.aggregate(&[0.0], &[upd(0, vec![1.0], 1)], &hyper);
    }

    #[test]
    #[should_panic(expected = "no updates")]
    fn empty_updates_panic() {
        let hyper = HyperParams::new(1, 1, 1.0, 1);
        let _ = FedAvg::default().aggregate(&[0.0], &[], &hyper);
    }
}
