//! Randomized property tests on the paper's core invariants.
//!
//! The offline crate set has no proptest, so these drive the same
//! properties with seeded [`Prng`] case generators: every case is
//! deterministic and the failing seed is printed on assert.

use taco::core::alpha;
use taco::core::{ClientUpdate, FedAvg, FederatedAlgorithm, HyperParams};
use taco::data::partition;
use taco::tensor::{ops, Prng};

const CASES: u64 = 64;

fn update(client: usize, delta: Vec<f32>) -> ClientUpdate {
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

/// A small set of bounded, non-degenerate delta vectors of a shared
/// dimension.
fn delta_set(rng: &mut Prng) -> Vec<Vec<f32>> {
    let n = 2 + rng.below(4);
    let dim = 2 + rng.below(6);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.uniform_f32() * 20.0 - 10.0).collect())
        .collect()
}

/// Eq. 7's coefficients always live in [0, 1].
#[test]
fn alpha_in_unit_interval() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xA1F0 ^ case);
        let deltas = delta_set(&mut rng);
        let views: Vec<&[f32]> = deltas.iter().map(Vec::as_slice).collect();
        let alphas = alpha::correction_coefficients(&views);
        assert_eq!(alphas.len(), deltas.len());
        for a in alphas {
            assert!(
                (0.0..=1.0).contains(&a),
                "case {case}: alpha {a} out of range"
            );
        }
    }
}

/// Scaling every delta by the same positive factor leaves Eq. 7
/// unchanged (the coefficient is scale-free).
#[test]
fn alpha_is_scale_invariant() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5CA1E ^ case);
        let deltas = delta_set(&mut rng);
        let scale = 0.1 + rng.uniform_f32() * 9.9;
        let views: Vec<&[f32]> = deltas.iter().map(Vec::as_slice).collect();
        let base = alpha::correction_coefficients(&views);
        let scaled: Vec<Vec<f32>> = deltas
            .iter()
            .map(|d| d.iter().map(|x| x * scale).collect())
            .collect();
        let views2: Vec<&[f32]> = scaled.iter().map(Vec::as_slice).collect();
        let after = alpha::correction_coefficients(&views2);
        for (b, a) in base.iter().zip(&after) {
            assert!((b - a).abs() < 1e-3, "case {case}: {b} vs {a}");
        }
    }
}

/// The extrapolated output z_t (Eq. 15) is exact linear extrapolation:
/// alpha = 1 returns w_t, alpha = 0 doubles the step.
#[test]
fn extrapolation_endpoints() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xE87 ^ case);
        let n = 1 + rng.below(5);
        let w: Vec<f32> = (0..n).map(|_| rng.uniform_f32() * 10.0 - 5.0).collect();
        let step: Vec<f32> = (0..n).map(|_| rng.uniform_f32() * 2.0 - 1.0).collect();
        let prev: Vec<f32> = w.iter().zip(&step).map(|(a, b)| a - b).collect();
        let z1 = alpha::extrapolated_output(&w, &prev, 1.0);
        for (a, b) in z1.iter().zip(&w) {
            assert!((a - b).abs() < 1e-6, "case {case}");
        }
        let z0 = alpha::extrapolated_output(&w, &prev, 0.0);
        for ((z, wv), s) in z0.iter().zip(&w).zip(&step) {
            assert!((z - (wv + s)).abs() < 1e-5, "case {case}");
        }
    }
}

/// FedAvg aggregation is permutation-invariant in the client order.
#[test]
fn fedavg_is_permutation_invariant() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xFEDA ^ case);
        let deltas = delta_set(&mut rng);
        let dim = deltas[0].len();
        let global = vec![0.0f32; dim];
        let hyper = HyperParams::new(deltas.len(), 4, 0.1, 8);
        let updates: Vec<ClientUpdate> = deltas
            .iter()
            .enumerate()
            .map(|(i, d)| update(i, d.clone()))
            .collect();
        let mut alg1 = FedAvg::default();
        let next1 = alg1.aggregate(&global, &updates, &hyper);
        let mut shuffled = updates;
        rng.shuffle(&mut shuffled);
        let mut alg2 = FedAvg::default();
        let next2 = alg2.aggregate(&global, &shuffled, &hyper);
        for (a, b) in next1.iter().zip(&next2) {
            assert!((a - b).abs() < 1e-4, "case {case}: {a} vs {b}");
        }
    }
}

/// Partitioners conserve samples: every index appears exactly once.
#[test]
fn partitions_are_exact() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x9A87 ^ case);
        let n = 20 + rng.below(180);
        let classes = 2 + rng.below(9);
        let clients = 1 + rng.below(11);
        let phi = 0.05 + rng.uniform_f64() * 4.95;
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        for shards in [
            partition::dirichlet(&labels, clients, phi, &mut rng),
            partition::synthetic_groups(&labels, clients, &mut rng).0,
        ] {
            let mut seen = vec![false; n];
            for s in &shards {
                for &i in s {
                    assert!(!seen[i], "case {case}: duplicate sample {i}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "case {case}: lost a sample");
        }
    }
}

/// The weighted mean lies inside the convex hull coordinate-wise.
#[test]
fn weighted_mean_is_convex() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x3EA7 ^ case);
        let deltas = delta_set(&mut rng);
        let views: Vec<&[f32]> = deltas.iter().map(Vec::as_slice).collect();
        let weights: Vec<f32> = (0..deltas.len())
            .map(|_| rng.uniform_f32() + 0.01)
            .collect();
        let mean = ops::weighted_mean(&views, &weights);
        for j in 0..mean.len() {
            let lo = views.iter().map(|v| v[j]).fold(f32::INFINITY, f32::min);
            let hi = views.iter().map(|v| v[j]).fold(f32::NEG_INFINITY, f32::max);
            assert!(
                mean[j] >= lo - 1e-4 && mean[j] <= hi + 1e-4,
                "case {case}: coordinate {j} escaped the hull"
            );
        }
    }
}

/// Cosine similarity is symmetric and bounded.
#[test]
fn cosine_symmetric_bounded() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xC05 ^ case);
        let n = 1 + rng.below(31);
        let a: Vec<f32> = (0..n).map(|_| rng.uniform_f32() * 200.0 - 100.0).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.uniform_f32() * 200.0 - 100.0).collect();
        let ab = ops::cosine_similarity(&a, &b);
        let ba = ops::cosine_similarity(&b, &a);
        assert!((ab - ba).abs() < 1e-6, "case {case}");
        assert!((-1.0..=1.0).contains(&ab), "case {case}: cos {ab}");
    }
}
