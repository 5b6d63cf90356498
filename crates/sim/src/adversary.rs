//! Adaptive model-update attacks.
//!
//! Attackers run the *honest* local computation, then transform the
//! resulting `Δ_i` before it leaves the device — at the model-update
//! level, upstream of compression, wire corruption, and validation
//! (contrast [`crate::fault`], whose corruption damages the
//! post-compression payload in transit). The transform is a pure
//! function of `(plan, behaviour, run seed, round, Δ_i)`, applied in
//! client order by the runner before the server pipeline, so attacked
//! trajectories are bit-identical at any `TACO_THREADS` and any
//! aggregation shard count.
//!
//! Inertness: a plan attached to an all-honest behaviour vector never
//! transforms anything and consumes no randomness — trajectories are
//! byte-identical to a plan-free run (golden-tested).

use crate::freeloader::ClientBehavior;
use std::collections::BTreeMap;
use taco_tensor::{ops, Prng};

/// Salt folded into the run seed for coalition-direction derivation,
/// so attack randomness never aliases the training or fault streams.
const COALITION_SALT: u64 = 0xAD5E;

/// Knobs of the model-update attacks. The plan only *parameterizes*
/// the attacks; which clients attack (and how) is the behaviour
/// vector's job ([`crate::runner::SimConfig::with_behaviors`]), which
/// doubles as the detection scoreboard's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryPlan {
    /// First round the attacks activate (a sleeper phase lets
    /// detection baselines stabilize first). Default 0.
    pub start_round: usize,
    /// Sign-flip magnitude `s`: the upload becomes `−s·Δ_i`.
    /// Default 1.0 (norm-preserving, invisible to norm validation).
    pub sign_flip_scale: f32,
    /// Boost factor `b > 1`: the upload becomes `b·Δ_i`. Default 5.0.
    pub boost_factor: f32,
    /// Collusion blend `c ∈ [0, 1]`: the upload becomes
    /// `(1−c)·Δ_i + c·‖Δ_i‖·d̂`, where `d̂` is the coalition's shared
    /// seeded unit direction. At 1.0 the coalition uploads identical
    /// directions; at 0.0 colluders are honest. Default 0.9.
    pub collusion_strength: f32,
}

impl Default for AdversaryPlan {
    fn default() -> Self {
        AdversaryPlan {
            start_round: 0,
            sign_flip_scale: 1.0,
            boost_factor: 5.0,
            collusion_strength: 0.9,
        }
    }
}

impl AdversaryPlan {
    /// Creates the default plan.
    pub fn new() -> Self {
        AdversaryPlan::default()
    }

    /// Builder-style sleeper-phase override.
    pub fn starting_at(mut self, round: usize) -> Self {
        self.start_round = round;
        self
    }

    /// Builder-style sign-flip magnitude override.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_sign_flip_scale(mut self, scale: f32) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "sign-flip scale must be positive and finite, got {scale}"
        );
        self.sign_flip_scale = scale;
        self
    }

    /// Builder-style boost-factor override.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn with_boost_factor(mut self, factor: f32) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "boost factor must be positive and finite, got {factor}"
        );
        self.boost_factor = factor;
        self
    }

    /// Builder-style collusion-blend override.
    ///
    /// # Panics
    ///
    /// Panics if `strength` is outside `[0, 1]`.
    pub fn with_collusion_strength(mut self, strength: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&strength),
            "collusion strength must be in [0, 1], got {strength}"
        );
        self.collusion_strength = strength;
        self
    }

    /// Whether attacks are active at `round`.
    pub fn active(&self, round: usize) -> bool {
        round >= self.start_round
    }
}

/// The shared unit direction of a colluding coalition: a pure function
/// of `(run seed, coalition, dim)`, fixed across rounds. A fixed
/// direction is what gives FoolsGold's accumulated-cosine history a
/// real signal — the coalition's summed deltas stay near-parallel
/// while honest clients decorrelate.
pub fn coalition_direction(seed: u64, coalition: u16, dim: usize) -> Vec<f32> {
    let mixed = seed
        ^ COALITION_SALT.wrapping_mul(0x9E3779B97F4A7C15)
        ^ (coalition as u64 + 1).wrapping_mul(0xC2B2AE3D27D4EB4F);
    let mut rng = Prng::seed_from_u64(mixed);
    let mut dir: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
    let n = ops::norm(&dir);
    if n > 0.0 {
        ops::scale(&mut dir, 1.0 / n);
    } else if let Some(first) = dir.first_mut() {
        // Degenerate draw (practically unreachable): fall back to a
        // fixed axis so the direction is still a unit vector.
        *first = 1.0;
    }
    dir
}

/// Applies `behavior`'s attack to `delta` in place, if any. Returns
/// the stable attack label when a transform was applied (for trace
/// events and counters), `None` for honest clients, freeloaders
/// (whose echo payload is already forged upstream), and rounds before
/// [`AdversaryPlan::start_round`].
///
/// `directions` caches coalition directions per coalition id for the
/// run; entries are derived on first use via [`coalition_direction`].
pub(crate) fn apply(
    plan: &AdversaryPlan,
    behavior: ClientBehavior,
    seed: u64,
    round: usize,
    delta: &mut [f32],
    directions: &mut BTreeMap<u16, Vec<f32>>,
) -> Option<&'static str> {
    if !plan.active(round) {
        return None;
    }
    match behavior {
        ClientBehavior::Honest | ClientBehavior::Freeloader => None,
        ClientBehavior::SignFlip => {
            let s = plan.sign_flip_scale;
            for d in delta.iter_mut() {
                *d *= -s;
            }
            Some("sign_flip")
        }
        ClientBehavior::Boost => {
            ops::scale(delta, plan.boost_factor);
            Some("boost")
        }
        ClientBehavior::Colluder { coalition } => {
            let dir = directions
                .entry(coalition)
                .or_insert_with(|| coalition_direction(seed, coalition, delta.len()));
            let c = plan.collusion_strength;
            let nrm = ops::norm(delta);
            // `(1−c)·Δ + (c·‖Δ‖)·d̂`: roughly norm-preserving (bounded
            // by ‖Δ‖ via the triangle inequality), so it slips under
            // norm validation while steering toward the coalition's
            // common objective.
            for (d, &g) in delta.iter_mut().zip(dir.iter()) {
                *d = (1.0 - c) * *d + c * nrm * g;
            }
            Some("collude")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_to(
        plan: &AdversaryPlan,
        behavior: ClientBehavior,
        round: usize,
        delta: &mut [f32],
    ) -> Option<&'static str> {
        let mut dirs = BTreeMap::new();
        apply(plan, behavior, 7, round, delta, &mut dirs)
    }

    #[test]
    fn honest_and_freeloader_are_untouched() {
        let plan = AdversaryPlan::new();
        let mut d = vec![1.0, -2.0];
        assert_eq!(apply_to(&plan, ClientBehavior::Honest, 0, &mut d), None);
        assert_eq!(apply_to(&plan, ClientBehavior::Freeloader, 0, &mut d), None);
        assert_eq!(d, vec![1.0, -2.0]);
    }

    #[test]
    fn sign_flip_negates_and_preserves_norm() {
        let plan = AdversaryPlan::new();
        let mut d = vec![3.0, -4.0];
        assert_eq!(
            apply_to(&plan, ClientBehavior::SignFlip, 0, &mut d),
            Some("sign_flip")
        );
        assert_eq!(d, vec![-3.0, 4.0]);
    }

    #[test]
    fn boost_scales_by_the_factor() {
        let plan = AdversaryPlan::new().with_boost_factor(10.0);
        let mut d = vec![0.5, -0.5];
        assert_eq!(
            apply_to(&plan, ClientBehavior::Boost, 0, &mut d),
            Some("boost")
        );
        assert_eq!(d, vec![5.0, -5.0]);
    }

    #[test]
    fn sleeper_phase_delays_attacks() {
        let plan = AdversaryPlan::new().starting_at(3);
        let mut d = vec![1.0];
        assert_eq!(apply_to(&plan, ClientBehavior::SignFlip, 2, &mut d), None);
        assert_eq!(d, vec![1.0]);
        assert!(apply_to(&plan, ClientBehavior::SignFlip, 3, &mut d).is_some());
    }

    #[test]
    fn coalition_direction_is_unit_and_deterministic() {
        let a = coalition_direction(11, 0, 64);
        let b = coalition_direction(11, 0, 64);
        let other = coalition_direction(11, 1, 64);
        assert_eq!(a, b);
        assert_ne!(a, other, "coalitions share a direction");
        assert!((ops::norm(&a) - 1.0).abs() < 1e-5);
        assert!((ops::norm(&other) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn colluders_in_one_coalition_align() {
        let plan = AdversaryPlan::new().with_collusion_strength(1.0);
        let mut dirs = BTreeMap::new();
        let mut d1 = vec![1.0, 0.0, 0.0, 2.0];
        let mut d2 = vec![0.0, -1.0, 1.0, 0.0];
        let b = ClientBehavior::Colluder { coalition: 5 };
        assert_eq!(apply(&plan, b, 3, 0, &mut d1, &mut dirs), Some("collude"));
        assert_eq!(apply(&plan, b, 3, 0, &mut d2, &mut dirs), Some("collude"));
        let cos = ops::cosine_with_norms(&d1, &d2, ops::norm(&d1), ops::norm(&d2));
        assert!(cos > 0.999, "full-strength colluders diverge: cos {cos}");
    }

    #[test]
    fn collusion_roughly_preserves_norm() {
        let plan = AdversaryPlan::new().with_collusion_strength(0.9);
        let mut dirs = BTreeMap::new();
        let mut d = vec![0.6; 32];
        let before = ops::norm(&d);
        let b = ClientBehavior::Colluder { coalition: 0 };
        let _ = apply(&plan, b, 9, 0, &mut d, &mut dirs);
        let after = ops::norm(&d);
        assert!(
            after <= before * 1.2 && after >= before * 0.1,
            "collusion distorted norm {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "collusion strength")]
    fn bad_collusion_strength_panics() {
        let _ = AdversaryPlan::new().with_collusion_strength(1.5);
    }

    #[test]
    #[should_panic(expected = "boost factor")]
    fn bad_boost_factor_panics() {
        let _ = AdversaryPlan::new().with_boost_factor(0.0);
    }
}
