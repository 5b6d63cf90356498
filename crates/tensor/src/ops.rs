//! Flat-vector numeric helpers.
//!
//! The federated-learning algorithms in `taco-core` treat model state
//! as flat `&[f32]` slices (parameter vectors, accumulated gradients
//! `Δ_i^t`, control variates, momenta). These free functions implement
//! the vector arithmetic those algorithms need — most importantly
//! [`cosine_similarity`], which is the direction term of TACO's
//! correction coefficient `α_i^t` (Eq. 7 of the paper).

/// Dot product of two equal-length slices.
///
/// Accumulates in `f64` for stability on long model vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
///
/// # Example
///
/// ```
/// assert_eq!(taco_tensor::ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as f64 * y as f64;
    }
    acc as f32
}

/// Euclidean (L2) norm of a slice.
pub fn norm(a: &[f32]) -> f32 {
    let mut acc = 0.0f64;
    for &x in a {
        acc += x as f64 * x as f64;
    }
    (acc.sqrt()) as f32
}

/// Cosine similarity between two slices.
///
/// Returns `0.0` when either vector has (near-)zero norm; this matches
/// how the paper's `α_i^t` treats a degenerate first round where
/// `Δ̄_t = 0`, and makes the value safe to feed into `max{·, 0}`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    cosine_from_dot(dot(a, b), norm(a), norm(b))
}

/// [`cosine_similarity`] from a dot product and both norms computed by
/// the caller.
///
/// Bit-identical to `cosine_similarity(a, b)` whenever
/// `dot == dot(a, b)`, `na == norm(a)` and `nb == norm(b)`: the
/// degenerate-norm guard, the widening `f64` division and the clamp are
/// the same arithmetic in the same order. Lets aggregation paths that
/// fold several reductions in one pass (e.g. upload statistics) skip
/// the separate passes.
pub fn cosine_from_dot(dot: f32, na: f32, nb: f32) -> f32 {
    let na = na as f64;
    let nb = nb as f64;
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    let cos = dot as f64 / (na * nb);
    cos.clamp(-1.0, 1.0) as f32
}

/// `y += alpha * x` (AXPY).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = alpha * y` in place.
pub fn scale(y: &mut [f32], alpha: f32) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// Element-wise `a - b` into a fresh vector.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Element-wise `a + b` into a fresh vector.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// `a * alpha` into a fresh vector.
pub fn scaled(a: &[f32], alpha: f32) -> Vec<f32> {
    a.iter().map(|&x| x * alpha).collect()
}

/// Weighted mean of several equal-length vectors.
///
/// `out[j] = Σ_i weights[i] · vectors[i][j] / Σ_i weights[i]`.
///
/// # Panics
///
/// Panics if `vectors` is empty, lengths are inconsistent, the weight
/// count differs from the vector count, or the weights sum to a
/// non-positive value.
pub fn weighted_mean(vectors: &[&[f32]], weights: &[f32]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "weighted_mean of no vectors");
    assert_eq!(vectors.len(), weights.len(), "weight count mismatch");
    let total: f64 = weights.iter().map(|&w| w as f64).sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "weights must sum to a positive finite value, got {total}"
    );
    let dim = vectors[0].len();
    let mut out = vec![0.0f64; dim];
    for (v, &w) in vectors.iter().zip(weights) {
        assert_eq!(v.len(), dim, "vector length mismatch in weighted_mean");
        for (o, &x) in out.iter_mut().zip(v.iter()) {
            *o += w as f64 * x as f64;
        }
    }
    out.into_iter().map(|x| (x / total) as f32).collect()
}

/// Unweighted mean of several equal-length vectors.
///
/// # Panics
///
/// Panics if `vectors` is empty or lengths are inconsistent.
pub fn mean_of(vectors: &[&[f32]]) -> Vec<f32> {
    let w = vec![1.0f32; vectors.len()];
    weighted_mean(vectors, &w)
}

/// Returns `true` if every element is finite. The test is branch-free
/// within fixed-size chunks so it vectorises (the server runs it on
/// every upload); a non-finite chunk still ends the scan.
pub fn all_finite(a: &[f32]) -> bool {
    a.chunks(1024)
        .all(|c| c.iter().fold(true, |ok, x| ok & x.is_finite()))
}

// --- Order-fixed reductions -------------------------------------------
//
// The aggregation paths in `taco-core` must reduce in a fixed
// left-to-right order so trajectories stay bit-identical across runs
// and thread counts. Ad-hoc `.sum()`/`.fold()` chains in core fail
// clippy (`disallowed-methods` in `crates/core/clippy.toml`, rule D6);
// these helpers are the blessed reduction points. They are plain
// sequential folds — bit-identical to `iter().sum()` today — and the
// contract is that they will *never* be parallelized or reassociated
// (no pairwise/Kahan rewrites) without a golden-trajectory
// regeneration.

/// Left-to-right sum of an `f32` slice. The reduction order is part of
/// the contract: element `0` first, element `len-1` last.
pub fn sum(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Left-to-right sum of an `f64` slice. See [`sum`] for the ordering
/// contract.
pub fn sum_f64(xs: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Left-to-right dot product of two equal-length `f64` slices
/// (`Σ aᵢ·bᵢ`, accumulated in index order).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_f64 length mismatch");
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm_pythagoras() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_parallel_and_orthogonal() {
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_from_dot_is_bit_identical_to_cosine_similarity() {
        let mut rng = crate::rng::Prng::seed_from_u64(3);
        let a: Vec<f32> = (0..257).map(|_| rng.normal_f32()).collect();
        let b: Vec<f32> = (0..257).map(|_| rng.normal_f32()).collect();
        let reference = cosine_similarity(&a, &b);
        let hoisted = cosine_from_dot(dot(&a, &b), norm(&a), norm(&b));
        assert_eq!(reference.to_bits(), hoisted.to_bits());
        // Degenerate-norm guard matches too.
        let z = vec![0.0f32; 257];
        assert_eq!(cosine_from_dot(dot(&z, &b), norm(&z), norm(&b)), 0.0);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_is_clamped() {
        // Large near-parallel vectors can produce cos slightly > 1.0 in
        // f32; the clamp keeps downstream max{cos, 0} well-defined.
        let a = vec![1e20f32; 4];
        let c = cosine_similarity(&a, &a);
        assert!(c <= 1.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut y = vec![1.0, 1.0];
        axpy(&mut y, 2.0, &[1.0, 2.0]);
        assert_eq!(y, vec![3.0, 5.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![1.5, 2.5]);
    }

    #[test]
    fn weighted_mean_is_convex_combination() {
        let a = [0.0, 0.0];
        let b = [1.0, 2.0];
        let m = weighted_mean(&[&a, &b], &[1.0, 3.0]);
        assert_eq!(m, vec![0.75, 1.5]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn weighted_mean_zero_weights_panics() {
        let a = [1.0];
        let _ = weighted_mean(&[&a], &[0.0]);
    }

    #[test]
    fn mean_of_vectors() {
        let a = [1.0, 3.0];
        let b = [3.0, 5.0];
        assert_eq!(mean_of(&[&a, &b]), vec![2.0, 4.0]);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, -2.0]));
        assert!(!all_finite(&[f32::NAN]));
        assert!(!all_finite(&[f32::INFINITY]));
        // One special value at chunk edges of a multi-chunk vector.
        let specials = [
            -0.0,
            f32::MAX,
            f32::MIN,
            1e-45,
            f32::NAN,
            -f32::NAN,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_0001),
        ];
        for s in specials {
            for at in [0, 1023, 1024, 2999] {
                let mut v = vec![0.5f32; 3000];
                v[at] = s;
                assert_eq!(all_finite(&v), s.is_finite(), "{s} at {at}");
            }
        }
        assert!(all_finite(&[]));
    }

    #[test]
    fn ordered_sums_match_iterator_sums_bitwise() {
        // The helpers replace `.iter().sum()` call sites in core; they
        // must be bit-identical or golden trajectories would drift.
        let xs: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() / 3.0).collect();
        assert_eq!(sum(&xs).to_bits(), xs.iter().sum::<f32>().to_bits());
        let ys: Vec<f64> = xs.iter().map(|&x| x as f64 * 1.1).collect();
        assert_eq!(sum_f64(&ys).to_bits(), ys.iter().sum::<f64>().to_bits());
        let ws: Vec<f64> = (0..100).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let manual: f64 = ws.iter().zip(&ys).map(|(a, b)| a * b).sum();
        assert_eq!(dot_f64(&ws, &ys).to_bits(), manual.to_bits());
    }
}
