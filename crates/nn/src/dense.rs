//! Fully-connected (dense) layer.

use crate::params::{HasParams, ParamBlock};
use taco_tensor::{linalg, Prng, Tensor};

/// A fully-connected layer `y = x · Wᵀ + b`.
///
/// Weights are `[out, in]`, inputs `[batch, in]`, outputs
/// `[batch, out]`. A training forward pass caches the input for the
/// backward pass; an inference pass caches nothing. Gradients
/// accumulate into the layer's [`ParamBlock`]s, the weight gradient
/// straight into its buffer. A first layer calls
/// [`Dense::backward_weights`], which skips the input gradient.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: ParamBlock,
    bias: ParamBlock,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform initialization
    /// (`U(-√(1/in), √(1/in))`), the PyTorch default the paper's models
    /// would have used.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Prng) -> Self {
        let limit = (1.0 / in_features as f32).sqrt();
        Dense {
            weight: ParamBlock::new(Tensor::rand_uniform(
                [out_features, in_features],
                limit,
                rng,
            )),
            bias: ParamBlock::new(Tensor::rand_uniform([out_features], limit, rng)),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Forward pass. With `train` set it caches the input for
    /// [`Dense::backward`]; without it the cache is dropped, so no
    /// backward pass may follow.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[batch, in_features]`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.dims().len(), 2, "dense input must be 2-D");
        assert_eq!(
            x.dims()[1],
            self.in_features(),
            "dense input width mismatch"
        );
        let mut y = linalg::matmul_nt(x, &self.weight.value);
        let (b, out) = (x.dims()[0], self.out_features());
        let bias = self.bias.value.data();
        for i in 0..b {
            let row = &mut y.data_mut()[i * out..(i + 1) * out];
            for (v, &bj) in row.iter_mut().zip(bias) {
                *v += bj;
            }
        }
        self.cached_input = train.then(|| x.clone());
        y
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// input gradient.
    ///
    /// # Panics
    ///
    /// Panics if no training [`Dense::forward`] came first.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_weights(grad_out);
        // dX = g · W.
        linalg::matmul(grad_out, &self.weight.value)
    }

    /// Weights-only backward pass: accumulates the same weight/bias
    /// gradients as [`Dense::backward`] but computes no input gradient.
    /// A model's first layer calls it, since nothing reads the gradient
    /// with respect to the data.
    ///
    /// # Panics
    ///
    /// Panics if no training [`Dense::forward`] came first.
    pub fn backward_weights(&mut self, grad_out: &Tensor) {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: backward before forward is a caller bug the message names"
        )]
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        // dW += gᵀ · x, dB += column sums of g.
        linalg::matmul_tn_acc(grad_out, x, &mut self.weight.grad);
        let (b, out) = (grad_out.dims()[0], self.out_features());
        for j in 0..out {
            let mut s = 0.0;
            for i in 0..b {
                s += grad_out.data()[i * out + j];
            }
            self.bias.grad.data_mut()[j] += s;
        }
    }

    /// Whether a forward pass left its input cached.
    #[cfg(test)]
    pub(crate) fn has_cached_input(&self) -> bool {
        self.cached_input.is_some()
    }
}

impl HasParams for Dense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{flatten_grads, flatten_params, param_count, unflatten_params};

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Prng::seed_from_u64(1);
        let mut d = Dense::new(3, 2, &mut rng);
        // Zero the weights, keep bias, so output equals bias.
        let n = param_count(&mut d);
        let mut p = vec![0.0f32; n];
        p[6] = 0.5;
        p[7] = -0.5;
        unflatten_params(&mut d, &p);
        let y = d.forward(&Tensor::zeros([4, 3]), false);
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(y.row(2), &[0.5, -0.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Prng::seed_from_u64(2);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn([2, 4], 1.0, &mut rng);
        // Loss = sum of outputs.
        let y = d.forward(&x, true);
        let gin = d.backward(&Tensor::full(y.shape().clone(), 1.0));
        let analytic = flatten_grads(&mut d);
        let base = flatten_params(&mut d);
        let eps = 1e-3f32;
        for i in 0..base.len() {
            let mut p = base.clone();
            p[i] += eps;
            unflatten_params(&mut d, &p);
            let up = d.forward(&x, false).sum();
            p[i] -= 2.0 * eps;
            unflatten_params(&mut d, &p);
            let dn = d.forward(&x, false).sum();
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 1e-2,
                "param {i}: fd {fd} vs {}",
                analytic[i]
            );
        }
        // Input gradient: each input sees the column sums of W.
        unflatten_params(&mut d, &base);
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp.data_mut()[r * 4 + c] += eps;
                let up = d.forward(&xp, false).sum();
                xp.data_mut()[r * 4 + c] -= 2.0 * eps;
                let dn = d.forward(&xp, false).sum();
                let fd = (up - dn) / (2.0 * eps);
                assert!((fd - gin.at(&[r, c])).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = Prng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::randn([1, 2], 1.0, &mut rng);
        let g = Tensor::full([1, 2], 1.0);
        d.forward(&x, true);
        d.backward(&g);
        let once = flatten_grads(&mut d);
        d.forward(&x, true);
        d.backward(&g);
        let twice = flatten_grads(&mut d);
        for (a, b) in once.iter().zip(&twice) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn weights_only_backward_matches_the_full_backward_bitwise() {
        let mut rng = Prng::seed_from_u64(5);
        let mut full = Dense::new(7, 5, &mut rng);
        let mut weights_only = full.clone();
        for _ in 0..2 {
            let x = Tensor::randn([3, 7], 1.0, &mut rng);
            let g = Tensor::randn([3, 5], 1.0, &mut rng);
            full.forward(&x, true);
            assert_eq!(full.backward(&g).dims(), &[3, 7]);
            weights_only.forward(&x, true);
            weights_only.backward_weights(&g);
        }
        let want = flatten_grads(&mut full);
        let got = flatten_grads(&mut weights_only);
        assert!(want.iter().any(|&g| g != 0.0));
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let mut rng = Prng::seed_from_u64(4);
        let mut d = Dense::new(2, 2, &mut rng);
        let _ = d.backward(&Tensor::zeros([1, 2]));
    }
}
