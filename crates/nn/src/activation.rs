//! Element-wise activation layers.

use taco_tensor::Tensor;

/// ReLU activation with cached mask for the backward pass.
///
/// Stateless apart from the cache, so one instance can be reused across
/// forward/backward pairs but not interleaved.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// Forward pass: `max(x, 0)` element-wise.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.mask = x.data().iter().map(|&v| v > 0.0).collect();
        x.map(|v| v.max(0.0))
    }

    /// Inference forward pass, in place: the values of
    /// [`Relu::forward`] with no mask kept, so no backward may follow.
    pub fn infer_in_place(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = v.max(0.0);
        }
    }

    /// In-place flat-slice variant used by the CNN/ResNet inner loops.
    pub fn forward_flat(&mut self, x: &mut [f32]) {
        self.mask = x.iter().map(|&v| v > 0.0).collect();
        for v in x.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Backward pass: zeroes gradients where the input was negative.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched length.
    pub fn backward(&self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "Relu::backward length mismatch (was forward called?)"
        );
        let data = grad_out
            .data()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape().clone())
    }

    /// Flat-slice variant of [`Relu::backward`], in place.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the last forward call.
    pub fn backward_flat(&self, grad: &mut [f32]) {
        assert_eq!(
            grad.len(),
            self.mask.len(),
            "Relu::backward_flat length mismatch"
        );
        for (g, &m) in grad.iter_mut().zip(&self.mask) {
            if !m {
                *g = 0.0;
            }
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

/// Hyperbolic tangent (thin wrapper for symmetry with [`sigmoid`]).
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]);
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::from_vec(vec![5.0, 5.0, 5.0], [3]));
        assert_eq!(g.data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn relu_flat_matches_tensor_path() {
        let mut r1 = Relu::new();
        let mut r2 = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 3.0, -0.5, 1.0], [4]);
        let y = r1.forward(&x);
        let mut flat = x.data().to_vec();
        r2.forward_flat(&mut flat);
        assert_eq!(y.data(), &flat[..]);
        let mut g = vec![1.0; 4];
        r2.backward_flat(&mut g);
        let gt = r1.backward(&Tensor::full([4], 1.0));
        assert_eq!(gt.data(), &g[..]);
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
    fn backward_without_forward_panics() {
        let r = Relu::new();
        let _ = r.backward(&Tensor::zeros([2]));
    }
}
