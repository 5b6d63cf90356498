//! Element-wise activations.
//!
//! Every ReLU in this crate runs through [`relu`] on the forward pass
//! and [`relu_mask`] on the backward pass, so all networks agree on
//! edge cases: a NaN pre-activation stays NaN (it is not a negative
//! number) and passes no gradient back.

/// In-place ReLU: sets every negative value to zero and keeps NaN.
///
/// With `train` set it returns the mask of strictly positive inputs,
/// which [`relu_mask`] applies on the backward pass; without it the
/// mask is empty, so no backward pass may follow.
pub fn relu(x: &mut [f32], train: bool) -> Vec<bool> {
    let mask = if train {
        x.iter().map(|&v| v > 0.0).collect()
    } else {
        Vec::new()
    };
    for v in x.iter_mut() {
        // A select, not a conditional store, so the loop vectorizes.
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
    mask
}

/// ReLU backward pass, in place: zeroes the gradient wherever the
/// forward input of [`relu`] was not positive.
///
/// # Panics
///
/// Panics if `mask` is not the length of `grad`, e.g. because the
/// forward pass ran without `train`.
pub fn relu_mask(grad: &mut [f32], mask: &[bool]) {
    assert_eq!(
        grad.len(),
        mask.len(),
        "ReLU mask length mismatch (was the forward pass run with train set?)"
    );
    for (g, &m) in grad.iter_mut().zip(mask) {
        if !m {
            *g = 0.0;
        }
    }
}

/// Numerically-stable sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut x = vec![-1.0, 0.0, 2.0, f32::NAN];
        let mask = relu(&mut x, true);
        assert_eq!(&x[..3], &[0.0, 0.0, 2.0]);
        assert!(x[3].is_nan(), "NaN must not be clipped to zero");
        let mut g = vec![5.0; 4];
        relu_mask(&mut g, &mask);
        assert_eq!(g, [0.0, 0.0, 5.0, 0.0]);
        let mut y = vec![-1.0, 3.0];
        assert!(relu(&mut y, false).is_empty());
        assert_eq!(y, [0.0, 3.0]);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(50.0) > 0.999);
        assert!(sigmoid(-50.0) < 0.001);
        // Stability at extreme inputs.
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(1000.0).is_finite());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mask_from_an_inference_pass_panics() {
        let mask = relu(&mut [1.0, -1.0], false);
        relu_mask(&mut [1.0, 1.0], &mask);
    }
}
