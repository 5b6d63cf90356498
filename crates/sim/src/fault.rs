//! Deterministic fault injection for the simulation runtime.
//!
//! Real federated deployments never get the clean round the basic
//! simulator assumes: clients drop out mid-round, straggle past the
//! server's synchronous deadline, or upload corrupted payloads. A
//! [`FaultPlan`] injects exactly those failures, deterministically:
//! every fault is drawn from a per-`(round, client)` RNG derived from
//! the run seed (the same derivation the client training streams use),
//! so the same seed and plan produce bit-identical histories at any
//! thread count, parallel or sequential.
//!
//! Three client-side fault kinds ([`FaultKind`]):
//!
//! - **dropout** — the update never arrives (the client crashed or
//!   lost connectivity before uploading);
//! - **straggler** — the client finishes, but `factor`× slower. The
//!   measured `compute_seconds` is inflated for the timing metrics,
//!   and the *simulated* round time `τ_i · seconds_per_step · factor`
//!   is compared against the server's synchronous [`Deadline`]; late
//!   clients are cut from aggregation (their upload arrives after the
//!   server stopped listening, so it costs no accounted bytes);
//! - **corruption** — the payload is damaged on the wire (applied
//!   *after* upload compression): one element NaN- or ∞-poisoned, or
//!   the whole delta scaled by a huge factor.
//!
//! On the server side, every upload is checked before it reaches
//! aggregation, fault plan or not: a malformed encoding
//! ([`check_encoding`]) and any non-finite delta or momentum buffer
//! is quarantined. A plan's [`ValidationPolicy`] adds the norm cap:
//! any delta whose L2 norm exceeds `max_delta_norm`. Each quarantined
//! upload is counted and reported to the algorithm via
//! [`taco_core::FederatedAlgorithm::report_invalid_update`] as
//! freeloader-detection evidence (TACO turns repeated offenders into
//! strikes, Eq. 10).
//!
//! At most one fault is injected per `(round, client)` cell, with
//! priority dropout > corruption > straggler; the per-category draws
//! are consumed in a fixed order so a plan's dropout stream does not
//! shift when the corruption probability changes.

use taco_core::compress::EncodedDelta;
use taco_core::ClientUpdate;
use taco_tensor::{ops, Prng};

/// Salt mixed into the run seed so fault draws are independent of the
/// client training streams derived from the same `(round, client)`
/// cell.
const FAULT_SALT: u64 = 0xFA17;

/// Deterministic per-(round, client) RNG for fault draws — the same
/// derivation as the runner's client streams, salted.
fn fault_rng(seed: u64, round: usize, client: usize) -> Prng {
    let mixed = (seed ^ FAULT_SALT)
        ^ (round as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (client as u64).wrapping_mul(0xC2B2AE3D27D4EB4F);
    Prng::seed_from_u64(mixed)
}

/// How an upload is corrupted on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// One element of the delta becomes NaN — the smallest corruption
    /// a server-side validator must still catch.
    NanPoison,
    /// One element of the delta becomes `+∞`.
    InfPoison,
    /// The whole delta is scaled by `factor` (a norm explosion).
    Scale {
        /// The multiplicative blow-up factor.
        factor: f32,
    },
}

/// One injected fault for a `(round, client)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The update never arrives.
    Dropout,
    /// The client runs `factor`× slower than nominal.
    Straggler {
        /// Compute-time multiplier, `> 1`.
        factor: f64,
    },
    /// The upload arrives damaged.
    Corrupt(Corruption),
}

impl FaultKind {
    /// Short machine-readable label for trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Dropout => "dropout",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::Corrupt(Corruption::NanPoison) => "corrupt_nan",
            FaultKind::Corrupt(Corruption::InfPoison) => "corrupt_inf",
            FaultKind::Corrupt(Corruption::Scale { .. }) => "corrupt_scale",
        }
    }
}

/// The server's synchronous round deadline.
///
/// Measured wall-clock time is nondeterministic, so the deadline is
/// evaluated against *simulated* client time
/// `τ_i · seconds_per_step · straggler_factor` — deterministic given
/// the plan and the per-client step counts, which is what keeps
/// histories bit-identical under fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadline {
    /// The synchronous round budget, in simulated seconds.
    pub seconds: f64,
    /// Simulated seconds one unimpaired client spends per local step.
    pub seconds_per_step: f64,
}

impl Deadline {
    /// Simulated round time of a client that ran `steps` local steps
    /// under a straggler slowdown of `factor` (1.0 when unimpaired).
    pub fn simulated_seconds(&self, steps: usize, factor: f64) -> f64 {
        steps as f64 * self.seconds_per_step * factor
    }

    /// `true` when a client with the given steps/slowdown misses the
    /// deadline and is cut from aggregation.
    pub fn misses(&self, steps: usize, factor: f64) -> bool {
        self.simulated_seconds(steps, factor) > self.seconds
    }
}

/// Server-side update validation thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPolicy {
    /// Maximum accepted `‖Δ_i‖₂`; anything larger is quarantined.
    /// Non-finite values are always rejected, whatever the bound.
    pub max_delta_norm: f32,
}

impl Default for ValidationPolicy {
    fn default() -> Self {
        ValidationPolicy {
            max_delta_norm: 1e6,
        }
    }
}

/// Why the server quarantined an upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The delta (or momentum buffer) contains NaN/∞.
    NonFinite,
    /// `‖Δ_i‖₂` exceeds the policy's bound.
    NormExploded,
    /// The encoded payload is structurally invalid (out-of-range or
    /// unsorted indices, a ragged or truncated buffer, the wrong
    /// dimension) — rejected before it is decoded.
    MalformedEncoding,
}

impl RejectReason {
    /// Short machine-readable label for trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::NonFinite => "non_finite",
            RejectReason::NormExploded => "norm_exploded",
            RejectReason::MalformedEncoding => "malformed_encoding",
        }
    }
}

/// Structure-checks an upload's wire encoding before it is decoded: a
/// corrupted index, a ragged or truncated buffer, or a payload whose
/// dimension differs from the model's `dim` is
/// [`RejectReason::MalformedEncoding`], even when the decoded floats
/// would look plausible. The server runs this on every encoded upload,
/// with or without a fault plan.
pub fn check_encoding(enc: &EncodedDelta, dim: usize) -> Result<(), RejectReason> {
    if enc.dim() == dim && enc.check_integrity() {
        Ok(())
    } else {
        Err(RejectReason::MalformedEncoding)
    }
}

/// Rejects an upload whose delta or momentum buffer holds NaN/∞ as
/// [`RejectReason::NonFinite`]. The server runs this on every upload,
/// with or without a fault plan.
pub(crate) fn check_finite(update: &ClientUpdate) -> Result<(), RejectReason> {
    let finite =
        ops::all_finite(&update.delta) && update.final_v.as_deref().is_none_or(ops::all_finite);
    if finite {
        Ok(())
    } else {
        Err(RejectReason::NonFinite)
    }
}

impl ValidationPolicy {
    /// Validates one received (decoded) upload: finiteness of the delta
    /// and momentum buffer, then the norm cap. `Err` names the
    /// quarantine reason. The delta is read once, for its finiteness
    /// and its norm together; the norm has the bits of [`ops::norm`].
    pub fn validate(&self, update: &ClientUpdate) -> Result<(), RejectReason> {
        let (finite, squares) = finite_and_squares(&update.delta);
        if !finite || !update.final_v.as_deref().is_none_or(ops::all_finite) {
            return Err(RejectReason::NonFinite);
        }
        if squares.sqrt() as f32 > self.max_delta_norm {
            return Err(RejectReason::NormExploded);
        }
        Ok(())
    }
}

/// Whether every value is finite, and `Σ x²` as the ascending `f64`
/// fold of [`ops::norm`], in one pass.
fn finite_and_squares(xs: &[f32]) -> (bool, f64) {
    let mut finite = true;
    let mut squares = 0.0f64;
    for &x in xs {
        finite &= x.is_finite();
        squares += f64::from(x) * f64::from(x);
    }
    (finite, squares)
}

/// A deterministic, seeded fault-injection plan.
///
/// Built with the builder methods below; the all-[`FaultPlan::new`]
/// default injects nothing (but still validates uploads), so a noop
/// plan is trajectory-identical to running without one.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// First round in which faults fire (validation is always on).
    pub start_round: usize,
    /// Per-(round, client) dropout probability.
    pub dropout_prob: f64,
    /// Per-(round, client) corruption probability (evaluated after
    /// dropout).
    pub corrupt_prob: f64,
    /// Scale factor used by [`Corruption::Scale`] corruptions.
    pub corrupt_scale: f32,
    /// Per-(round, client) straggler probability (evaluated after
    /// corruption).
    pub straggler_prob: f64,
    /// Slowdown multiplier applied to stragglers.
    pub straggler_factor: f64,
    /// Optional synchronous server deadline.
    pub deadline: Option<Deadline>,
    /// Server-side quarantine thresholds.
    pub validation: ValidationPolicy,
    /// When set, only these clients ever fault (a targeted scenario:
    /// "client 3's uplink is bad"). `None` targets everyone.
    pub only_clients: Option<Vec<usize>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

fn assert_prob(p: f64, what: &str) {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "{what} must be a probability in [0, 1], got {p}"
    );
}

impl FaultPlan {
    /// A plan that injects nothing and validates with default
    /// thresholds.
    pub fn new() -> Self {
        FaultPlan {
            start_round: 0,
            dropout_prob: 0.0,
            corrupt_prob: 0.0,
            corrupt_scale: 1e9,
            straggler_prob: 0.0,
            straggler_factor: 4.0,
            deadline: None,
            validation: ValidationPolicy::default(),
            only_clients: None,
        }
    }

    /// Builder-style dropout probability.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not a probability.
    pub fn with_dropouts(mut self, prob: f64) -> Self {
        assert_prob(prob, "dropout_prob");
        self.dropout_prob = prob;
        self
    }

    /// Builder-style straggler probability and slowdown factor.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not a probability or `factor < 1`.
    pub fn with_stragglers(mut self, prob: f64, factor: f64) -> Self {
        assert_prob(prob, "straggler_prob");
        assert!(
            factor.is_finite() && factor >= 1.0,
            "straggler factor must be >= 1, got {factor}"
        );
        self.straggler_prob = prob;
        self.straggler_factor = factor;
        self
    }

    /// Builder-style corruption probability and scale blow-up factor.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not a probability or `scale` is not finite
    /// and positive.
    pub fn with_corruption(mut self, prob: f64, scale: f32) -> Self {
        assert_prob(prob, "corrupt_prob");
        assert!(
            scale.is_finite() && scale > 0.0,
            "corrupt scale must be positive and finite, got {scale}"
        );
        self.corrupt_prob = prob;
        self.corrupt_scale = scale;
        self
    }

    /// Builder-style synchronous deadline (simulated seconds; see
    /// [`Deadline`]).
    ///
    /// # Panics
    ///
    /// Panics if either quantity is not positive and finite.
    pub fn with_deadline(mut self, seconds: f64, seconds_per_step: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "deadline seconds must be positive and finite, got {seconds}"
        );
        assert!(
            seconds_per_step.is_finite() && seconds_per_step > 0.0,
            "seconds_per_step must be positive and finite, got {seconds_per_step}"
        );
        self.deadline = Some(Deadline {
            seconds,
            seconds_per_step,
        });
        self
    }

    /// Builder-style validation-threshold override.
    ///
    /// # Panics
    ///
    /// Panics if `max_delta_norm` is not positive and finite.
    pub fn with_max_delta_norm(mut self, max_delta_norm: f32) -> Self {
        assert!(
            max_delta_norm.is_finite() && max_delta_norm > 0.0,
            "max_delta_norm must be positive and finite, got {max_delta_norm}"
        );
        self.validation = ValidationPolicy { max_delta_norm };
        self
    }

    /// Builder-style fault activation round (validation stays always
    /// on).
    pub fn starting_at(mut self, round: usize) -> Self {
        self.start_round = round;
        self
    }

    /// Builder-style client targeting: faults only ever hit the given
    /// clients.
    pub fn targeting(mut self, clients: Vec<usize>) -> Self {
        self.only_clients = Some(clients);
        self
    }

    /// `true` when the plan can never inject a fault (it may still
    /// quarantine organically broken uploads).
    pub fn is_inert(&self) -> bool {
        self.dropout_prob == 0.0 && self.corrupt_prob == 0.0 && self.straggler_prob == 0.0
    }

    /// The fault (if any) this plan injects for `(round, client)`
    /// under run seed `seed`. Pure: depends only on the arguments and
    /// the plan, never on execution order, so parallel and sequential
    /// runs see identical faults.
    pub fn fault_for(&self, seed: u64, round: usize, client: usize) -> Option<FaultKind> {
        if round < self.start_round {
            return None;
        }
        if let Some(only) = &self.only_clients {
            if !only.contains(&client) {
                return None;
            }
        }
        if self.is_inert() {
            return None;
        }
        let mut rng = fault_rng(seed, round, client);
        // Fixed draw order (dropout, corruption kind, straggler) keeps
        // each category's stream stable when another's probability
        // changes.
        let u_drop = rng.uniform_f64();
        let u_corrupt = rng.uniform_f64();
        let kind_draw = rng.below(3);
        let u_straggle = rng.uniform_f64();
        if u_drop < self.dropout_prob {
            return Some(FaultKind::Dropout);
        }
        if u_corrupt < self.corrupt_prob {
            let corruption = match kind_draw {
                0 => Corruption::NanPoison,
                1 => Corruption::InfPoison,
                _ => Corruption::Scale {
                    factor: self.corrupt_scale,
                },
            };
            return Some(FaultKind::Corrupt(corruption));
        }
        if u_straggle < self.straggler_prob {
            return Some(FaultKind::Straggler {
                factor: self.straggler_factor,
            });
        }
        None
    }
}

/// Applies a wire corruption to an uploaded delta in place.
pub fn apply_corruption(delta: &mut [f32], corruption: Corruption) {
    if delta.is_empty() {
        return;
    }
    match corruption {
        Corruption::NanPoison => delta[0] = f32::NAN,
        Corruption::InfPoison => delta[0] = f32::INFINITY,
        Corruption::Scale { factor } => ops::scale(delta, factor),
    }
}

/// Applies a wire corruption to an *encoded* upload in place — the
/// damage lands on what actually travels (an index, a value slot, or
/// the scale header), not on the decoded f32s. The three corruption
/// kinds map onto format-appropriate damage so the existing fault draw
/// stream is reused unchanged:
///
/// - `NanPoison` poisons a payload value (sparse `values[0]`) or the
///   quantization `scale` header, so every dequantized coordinate goes
///   NaN.
/// - `InfPoison` breaks a sparse index (`u32::MAX` — caught as a
///   malformed encoding before decode is trusted) or sends the `min`
///   header to `+∞`.
/// - `Scale` multiplies the payload values / the `scale` header, the
///   encoded analogue of a norm explosion.
pub fn apply_corruption_encoded(enc: &mut EncodedDelta, corruption: Corruption) {
    match enc {
        EncodedDelta::Dense(v) => apply_corruption(v, corruption),
        EncodedDelta::Sparse {
            values, indices, ..
        } => {
            if values.is_empty() {
                // Nothing to damage in an empty payload: break the
                // structure instead (a length mismatch with an
                // out-of-range index), so an injected fault is always
                // observable and `rejected == injected` holds.
                indices.push(u32::MAX);
                values.push(f32::NAN);
                return;
            }
            match corruption {
                Corruption::NanPoison => values[0] = f32::NAN,
                Corruption::InfPoison => indices[0] = u32::MAX,
                Corruption::Scale { factor } => ops::scale(values, factor),
            }
        }
        EncodedDelta::Q8 { min, scale, .. } | EncodedDelta::Q4 { min, scale, .. } => {
            match corruption {
                Corruption::NanPoison => *scale = f32::NAN,
                Corruption::InfPoison => *min = f32::INFINITY,
                Corruption::Scale { factor } => {
                    if *scale == 0.0 {
                        // Constant or all-escape vectors quantize with
                        // scale 0 — multiplying it would be a no-op.
                        // Damage the offset header instead so the
                        // fault stays observable downstream.
                        *min = if *min == 0.0 { factor } else { *min * factor };
                    } else {
                        *scale *= factor;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(delta: Vec<f32>) -> ClientUpdate {
        ClientUpdate {
            client: 0,
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
    fn inert_plan_never_faults() {
        let plan = FaultPlan::new();
        assert!(plan.is_inert());
        for round in 0..20 {
            for client in 0..10 {
                assert_eq!(plan.fault_for(7, round, client), None);
            }
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new()
            .with_dropouts(0.3)
            .with_corruption(0.3, 1e6)
            .with_stragglers(0.3, 4.0);
        let a: Vec<_> = (0..50).map(|c| plan.fault_for(1, 3, c)).collect();
        let b: Vec<_> = (0..50).map(|c| plan.fault_for(1, 3, c)).collect();
        assert_eq!(a, b);
        let other: Vec<_> = (0..50).map(|c| plan.fault_for(2, 3, c)).collect();
        assert_ne!(a, other, "different seeds should draw different faults");
    }

    #[test]
    fn certain_dropout_wins_priority() {
        let plan = FaultPlan::new()
            .with_dropouts(1.0)
            .with_corruption(1.0, 1e6)
            .with_stragglers(1.0, 2.0);
        for c in 0..10 {
            assert_eq!(plan.fault_for(0, 0, c), Some(FaultKind::Dropout));
        }
    }

    #[test]
    fn category_streams_do_not_shift_with_other_probabilities() {
        // The straggler decision for a cell must not change when the
        // dropout probability changes from "never fires for this cell"
        // to zero.
        let base = FaultPlan::new().with_stragglers(0.5, 3.0);
        let with_drop = base.clone().with_dropouts(0.0);
        for c in 0..64 {
            assert_eq!(base.fault_for(9, 2, c), with_drop.fault_for(9, 2, c));
        }
    }

    #[test]
    fn start_round_gates_faults() {
        let plan = FaultPlan::new().with_dropouts(1.0).starting_at(5);
        assert_eq!(plan.fault_for(3, 4, 0), None);
        assert_eq!(plan.fault_for(3, 5, 0), Some(FaultKind::Dropout));
    }

    #[test]
    fn targeting_restricts_clients() {
        let plan = FaultPlan::new().with_dropouts(1.0).targeting(vec![2]);
        assert_eq!(plan.fault_for(0, 0, 0), None);
        assert_eq!(plan.fault_for(0, 0, 2), Some(FaultKind::Dropout));
    }

    #[test]
    fn validation_rejects_nan_inf_and_norm_explosions() {
        let policy = ValidationPolicy {
            max_delta_norm: 10.0,
        };
        assert_eq!(policy.validate(&upd(vec![1.0, 2.0])), Ok(()));
        assert_eq!(
            policy.validate(&upd(vec![1.0, f32::NAN])),
            Err(RejectReason::NonFinite)
        );
        assert_eq!(
            policy.validate(&upd(vec![f32::INFINITY, 0.0])),
            Err(RejectReason::NonFinite)
        );
        assert_eq!(
            policy.validate(&upd(vec![100.0, 0.0])),
            Err(RejectReason::NormExploded)
        );
        let mut with_v = upd(vec![1.0]);
        with_v.final_v = Some(vec![f32::NAN]);
        assert_eq!(policy.validate(&with_v), Err(RejectReason::NonFinite));
    }

    #[test]
    fn one_pass_validation_keeps_the_norm_bits_and_the_reject_precedence() {
        let mut rng = taco_tensor::Prng::seed_from_u64(4);
        let delta: Vec<f32> = (0..5000).map(|_| rng.normal_f32()).collect();
        let norm = ops::norm(&delta);
        // A cap at exactly `ops::norm` accepts; one ulp below rejects.
        let at = ValidationPolicy {
            max_delta_norm: norm,
        };
        let below = ValidationPolicy {
            max_delta_norm: f32::from_bits(norm.to_bits() - 1),
        };
        assert_eq!(at.validate(&upd(delta.clone())), Ok(()));
        assert_eq!(
            below.validate(&upd(delta.clone())),
            Err(RejectReason::NormExploded)
        );
        // A NaN delta is non-finite, even when its other values
        // explode the norm.
        let mut nan = delta.iter().map(|x| x * 1e30).collect::<Vec<_>>();
        nan[4321] = f32::NAN;
        assert_eq!(at.validate(&upd(nan)), Err(RejectReason::NonFinite));
        // So is a finite, norm-exploded delta with a non-finite final_v.
        let mut bad_v = upd(delta.iter().map(|x| x * 1e6).collect());
        let mut v = delta.clone();
        v[17] = f32::NEG_INFINITY;
        bad_v.final_v = Some(v);
        assert_eq!(at.validate(&bad_v), Err(RejectReason::NonFinite));
        bad_v.final_v = Some(delta);
        assert_eq!(at.validate(&bad_v), Err(RejectReason::NormExploded));
    }

    #[test]
    fn corruption_kinds_damage_the_delta() {
        let mut d = vec![1.0f32, 2.0];
        apply_corruption(&mut d, Corruption::NanPoison);
        assert!(d[0].is_nan() && d[1] == 2.0);
        let mut d = vec![1.0f32, 2.0];
        apply_corruption(&mut d, Corruption::InfPoison);
        assert!(d[0].is_infinite());
        let mut d = vec![1.0f32, 2.0];
        apply_corruption(&mut d, Corruption::Scale { factor: 100.0 });
        assert_eq!(d, vec![100.0, 200.0]);
        // Empty deltas are untouched rather than panicking.
        apply_corruption(&mut [], Corruption::NanPoison);
    }

    #[test]
    fn scale_corruption_lands_on_the_offset_for_constant_quantized_vectors() {
        // A constant vector quantizes with scale == 0; multiplying the
        // scale header would be a no-op, so the damage must land on
        // the `min` offset instead.
        let mut enc = EncodedDelta::Q8 {
            min: 2.0,
            scale: 0.0,
            levels: vec![0; 4],
            exceptions: Vec::new(),
        };
        apply_corruption_encoded(&mut enc, Corruption::Scale { factor: 1e6 });
        assert!(enc.decode().iter().all(|v| v.abs() >= 1e6));

        // All-zero vectors have min == 0 too: the factor itself
        // becomes the offset.
        let mut enc = EncodedDelta::Q8 {
            min: 0.0,
            scale: 0.0,
            levels: vec![0; 4],
            exceptions: Vec::new(),
        };
        apply_corruption_encoded(&mut enc, Corruption::Scale { factor: 1e6 });
        assert!(enc.decode().iter().all(|&v| v == 1e6));
    }

    #[test]
    fn empty_sparse_corruption_breaks_the_structure() {
        // An empty sparse payload has no value or index slot to
        // damage; an injected corruption must still be observable —
        // as a malformed encoding.
        for kind in [
            Corruption::NanPoison,
            Corruption::InfPoison,
            Corruption::Scale { factor: 1e6 },
        ] {
            let mut enc = EncodedDelta::Sparse {
                dim: 0,
                indices: Vec::new(),
                values: Vec::new(),
            };
            apply_corruption_encoded(&mut enc, kind);
            assert!(!enc.check_integrity());
        }
    }

    #[test]
    fn deadline_cuts_slow_clients_only() {
        let d = Deadline {
            seconds: 10.0,
            seconds_per_step: 1.0,
        };
        assert!(!d.misses(10, 1.0), "on-time client kept");
        assert!(d.misses(10, 2.0), "straggler cut");
        assert!(d.misses(11, 1.0), "too many steps cut");
        assert_eq!(d.simulated_seconds(5, 2.0), 10.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::Dropout.label(), "dropout");
        assert_eq!(FaultKind::Straggler { factor: 2.0 }.label(), "straggler");
        assert_eq!(
            FaultKind::Corrupt(Corruption::Scale { factor: 2.0 }).label(),
            "corrupt_scale"
        );
        assert_eq!(RejectReason::NonFinite.label(), "non_finite");
        assert_eq!(RejectReason::NormExploded.label(), "norm_exploded");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_panics() {
        let _ = FaultPlan::new().with_dropouts(1.5);
    }

    #[test]
    #[should_panic(expected = "straggler factor")]
    fn sub_unit_straggler_factor_panics() {
        let _ = FaultPlan::new().with_stragglers(0.5, 0.5);
    }
}
