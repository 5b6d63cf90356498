//! The tailored correction coefficient `α_i^t` (Eq. 7 of the paper).
//!
//! ```text
//! α_i^t = (1 − ‖Δ_i‖ / Σ_j ‖Δ_j‖) · max{ cos(Δ_i, Δ̄), 0 }
//! ```
//!
//! where `Δ̄ = Σ_j Δ_j / N` is the unweighted mean of the previous
//! round's accumulated local gradients. The first factor shrinks the
//! coefficient (⇒ grows the correction factor `1 − α_i^t`) for clients
//! with large local updates; the second shrinks it for clients whose
//! update direction disagrees with the federation — exactly the two
//! knobs Corollary 2 says the optimal correction factor must be
//! proportional to (`μ_i / c_i`).

use taco_tensor::ops;

/// The initial coefficient `α_i^0` every client starts from
/// (Algorithm 2).
pub const INITIAL_ALPHA: f32 = 0.1;

/// Design variants of Eq. 7, used by the `ablation_alpha` bench to
/// justify the two factors (DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlphaVariant {
    /// The paper's Eq. 7: magnitude factor × clamped cosine.
    #[default]
    Full,
    /// Signed cosine (no `max{·, 0}` clamp): opposed clients keep a
    /// negative coefficient instead of zero.
    SignedCosine,
    /// Uniform magnitude factor `1 − 1/N` (direction term only).
    NoMagnitude,
    /// Magnitude factor only (no direction term).
    NoDirection,
}

/// [`correction_coefficients`] generalized over [`AlphaVariant`].
///
/// For [`AlphaVariant::Full`] this is exactly Eq. 7. Outputs are
/// clamped to `[0, 1]` except for `SignedCosine`, whose range is
/// `[−1, 1]`.
///
/// # Panics
///
/// Panics if `deltas` is empty or lengths are inconsistent.
pub fn correction_coefficients_variant(deltas: &[&[f32]], variant: AlphaVariant) -> Vec<f32> {
    assert!(!deltas.is_empty(), "no deltas to compute alpha from");
    let dim = deltas[0].len();
    for d in deltas {
        assert_eq!(d.len(), dim, "delta length mismatch");
    }
    let mean = ops::mean_of(deltas);
    let norms: Vec<f32> = deltas.iter().map(|d| ops::norm(d)).collect();
    let cosines: Vec<f32> = deltas
        .iter()
        .map(|d| ops::cosine_similarity(d, &mean))
        .collect();
    coefficients_from_stats(&norms, &cosines, variant)
}

/// Eq. 7 from precomputed per-upload statistics: the norm `‖Δ_i‖` and
/// the cosine `cos(Δ_i, Δ̄)` of every delta against the unweighted
/// mean. This is the scalar half of
/// [`correction_coefficients_variant`] — planning algorithms that
/// already hold the statistics (e.g. [`crate::UploadStats`]) call it
/// directly, and both paths are bit-identical because each output
/// depends only on its own norm/cosine and the order-fixed `norm_sum`.
///
/// # Panics
///
/// Panics if `norms` is empty or the slices differ in length.
pub fn coefficients_from_stats(norms: &[f32], cosines: &[f32], variant: AlphaVariant) -> Vec<f32> {
    assert!(!norms.is_empty(), "no deltas to compute alpha from");
    assert_eq!(norms.len(), cosines.len(), "stats length mismatch");
    let norm_sum = ops::sum(norms);
    let n = norms.len() as f32;
    norms
        .iter()
        .zip(cosines)
        .map(|(&nm, &cos)| {
            let magnitude = match variant {
                AlphaVariant::NoMagnitude => 1.0 - 1.0 / n,
                _ if norm_sum > 1e-12 => (1.0 - nm / norm_sum).clamp(0.0, 1.0),
                _ => 0.0,
            };
            let direction = match variant {
                AlphaVariant::SignedCosine => cos,
                AlphaVariant::NoDirection => 1.0,
                _ => cos.max(0.0),
            };
            magnitude * direction
        })
        .collect()
}

/// Computes `α_i^{t+1}` for every uploading client from the round's
/// accumulated local gradients.
///
/// Returns one coefficient per input delta, each in `[0, 1]`.
///
/// Degenerate cases follow the paper's initialization logic: if all
/// deltas (or the mean) are zero — which only happens before any real
/// training step — every coefficient is `0`, which the caller should
/// have replaced by the [`INITIAL_ALPHA`] initialization anyway.
///
/// # Panics
///
/// Panics if `deltas` is empty or lengths are inconsistent.
pub fn correction_coefficients(deltas: &[&[f32]]) -> Vec<f32> {
    correction_coefficients_variant(deltas, AlphaVariant::Full)
}

/// The round-average coefficient `α_t = Σ_i α_i^t / N` (Definition 2).
pub fn average_alpha(alphas: &[f32]) -> f32 {
    if alphas.is_empty() {
        0.0
    } else {
        ops::sum(alphas) / alphas.len() as f32
    }
}

/// The paper's model-output extrapolation (Eq. 15):
/// `z_t = w_t + (1 − α_t)(w_t − w_{t−1})`.
///
/// # Panics
///
/// Panics if the two parameter vectors differ in length.
pub fn extrapolated_output(w_t: &[f32], w_prev: &[f32], avg_alpha: f32) -> Vec<f32> {
    assert_eq!(w_t.len(), w_prev.len(), "parameter length mismatch");
    let c = 1.0 - avg_alpha;
    w_t.iter()
        .zip(w_prev)
        .map(|(&wt, &wp)| wt + c * (wt - wp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphas_are_in_unit_interval() {
        let d1 = vec![1.0f32, 0.5, -0.2];
        let d2 = vec![0.8f32, 0.6, 0.0];
        let d3 = vec![-0.5f32, 2.0, 1.0];
        let a = correction_coefficients(&[&d1, &d2, &d3]);
        assert_eq!(a.len(), 3);
        for &x in &a {
            assert!((0.0..=1.0).contains(&x), "alpha {x} out of range");
        }
    }

    #[test]
    fn opposed_client_gets_zero_alpha() {
        // A client pointing against the mean has negative cosine,
        // clamped to zero. (Kept small enough not to flip the mean
        // itself — with Eq. 7 a huge opposing client would drag the
        // reference direction along with it.)
        let with = vec![1.0f32, 1.0];
        let with2 = vec![1.0f32, 0.9];
        let against = vec![-0.5f32, -0.5];
        let a = correction_coefficients(&[&with, &with2, &against]);
        assert_eq!(a[2], 0.0);
        assert!(a[0] > 0.0 && a[1] > 0.0);
    }

    #[test]
    fn larger_magnitude_means_smaller_alpha() {
        // Two clients perfectly aligned with the mean; the bigger one
        // gets the smaller alpha (Fig. 3-Right).
        let small = vec![1.0f32, 0.0];
        let big = vec![10.0f32, 0.0];
        let a = correction_coefficients(&[&small, &big]);
        assert!(a[0] > a[1], "big client should have smaller alpha: {a:?}");
    }

    #[test]
    fn lower_cosine_means_smaller_alpha() {
        // Equal magnitudes, different angles to the mean (Fig. 3-Left).
        let aligned = vec![1.0f32, 0.1];
        let skewed = vec![0.1f32, 1.0];
        let third = vec![1.0f32, 0.0];
        let a = correction_coefficients(&[&aligned, &skewed, &third]);
        assert!(
            a[0] > a[1],
            "aligned client should have larger alpha: {a:?}"
        );
    }

    #[test]
    fn freeloader_style_upload_gets_high_alpha() {
        // A freeloader echoes the (previous) global direction, so its
        // delta is nearly the mean direction with moderate magnitude —
        // its alpha should exceed every honest, skewed client's
        // (Table II's detection premise).
        let mean_dir = [1.0f32, 1.0, 1.0, 1.0];
        let honest1: Vec<f32> = vec![2.5, 0.5, 0.2, 0.1];
        let honest2: Vec<f32> = vec![0.1, 2.0, 0.4, 0.2];
        let honest3: Vec<f32> = vec![0.3, 0.2, 2.2, 0.6];
        let freeloader: Vec<f32> = mean_dir.iter().map(|x| x * 0.9).collect();
        let a = correction_coefficients(&[&honest1, &honest2, &honest3, &freeloader]);
        let fl = a[3];
        for (i, &h) in a[..3].iter().enumerate() {
            assert!(fl > h, "freeloader alpha {fl} not above honest {i} ({h})");
        }
    }

    #[test]
    fn zero_deltas_give_zero_alphas() {
        let z = vec![0.0f32; 4];
        let a = correction_coefficients(&[&z, &z]);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn average_alpha_and_extrapolation() {
        assert_eq!(average_alpha(&[]), 0.0);
        assert!((average_alpha(&[0.2, 0.4]) - 0.3).abs() < 1e-6);
        // With α_t = 1, z_t = w_t (the paper's consistency remark).
        let z = extrapolated_output(&[2.0, 3.0], &[1.0, 1.0], 1.0);
        assert_eq!(z, vec![2.0, 3.0]);
        // With α_t = 0, full extrapolation.
        let z = extrapolated_output(&[2.0, 3.0], &[1.0, 1.0], 0.0);
        assert_eq!(z, vec![3.0, 5.0]);
    }
}
