//! A single 2-D convolution layer applied per sample.

use crate::params::{HasParams, ParamBlock};
use taco_tensor::conv::{conv2d_forward, conv2d_input_grad, conv2d_weight_grad, Conv2dSpec};
use taco_tensor::{Prng, Tensor};

/// One convolutional layer (weights `[out_ch, in_ch·k·k]`) applied to
/// NCHW samples one at a time, caching each sample's `im2col` matrix
/// for the backward pass.
///
/// The owning model drives the per-sample loop: call
/// [`ConvLayer::begin_batch`], then `forward_sample` for each sample in
/// order, then `backward_sample` with matching indices — or, for a
/// first layer, `backward_sample_weights`, which skips the input
/// gradient. An inference pass caches nothing.
#[derive(Debug, Clone)]
pub struct ConvLayer {
    weight: ParamBlock,
    bias: ParamBlock,
    spec: Conv2dSpec,
    cols: Vec<Tensor>,
}

impl ConvLayer {
    /// Creates the layer with Kaiming-uniform initialization.
    pub fn new(spec: Conv2dSpec, rng: &mut Prng) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        let limit = (1.0 / fan_in as f32).sqrt();
        ConvLayer {
            weight: ParamBlock::new(Tensor::rand_uniform(
                [spec.out_channels, fan_in],
                limit,
                rng,
            )),
            bias: ParamBlock::new(Tensor::rand_uniform([spec.out_channels], limit, rng)),
            spec,
            cols: Vec::new(),
        }
    }

    /// The layer's geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Clears per-sample caches; call once before each batch.
    pub fn begin_batch(&mut self) {
        self.cols.clear();
    }

    /// Convolves one `[in_ch, h, w]` sample. With `train` set it caches
    /// the sample's patch matrix for the backward pass; without it the
    /// matrix is dropped.
    pub fn forward_sample(&mut self, input: &[f32], h: usize, w: usize, train: bool) -> Vec<f32> {
        let (out, cols) = conv2d_forward(
            input,
            h,
            w,
            &self.weight.value,
            self.bias.value.data(),
            &self.spec,
        );
        if train {
            self.cols.push(cols);
        }
        out
    }

    /// Backward pass for forward sample `idx`; accumulates weight/bias
    /// gradients ([`conv2d_weight_grad`]) and returns the input gradient
    /// ([`conv2d_input_grad`]). Each index may be used once per batch
    /// (the cached patch matrix is consumed).
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not forwarded with `train` set this batch.
    pub fn backward_sample(
        &mut self,
        idx: usize,
        grad_out: &[f32],
        h: usize,
        w: usize,
    ) -> Vec<f32> {
        self.backward_sample_weights(idx, grad_out, h, w);
        conv2d_input_grad(grad_out, h, w, &self.weight.value, &self.spec)
    }

    /// Weights-only backward pass for forward sample `idx`: accumulates
    /// the same weight/bias gradients as [`ConvLayer::backward_sample`]
    /// but skips [`conv2d_input_grad`]. A model's first layer calls it,
    /// since nothing reads the gradient with respect to the data.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not forwarded with `train` set this batch.
    pub fn backward_sample_weights(&mut self, idx: usize, grad_out: &[f32], h: usize, w: usize) {
        let cols = std::mem::take(&mut self.cols[idx]);
        conv2d_weight_grad(
            grad_out,
            h,
            w,
            &cols,
            &self.spec,
            &mut self.weight.grad,
            self.bias.grad.data_mut(),
        );
    }
}

impl HasParams for ConvLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{flatten_grads, param_count};

    #[test]
    fn forward_backward_shapes() {
        let mut rng = Prng::seed_from_u64(1);
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut layer = ConvLayer::new(spec, &mut rng);
        assert_eq!(param_count(&mut layer), 3 * 2 * 9 + 3);
        layer.begin_batch();
        let x = vec![0.5f32; 2 * 4 * 4];
        let y = layer.forward_sample(&x, 4, 4, true);
        assert_eq!(y.len(), 3 * 4 * 4);
        let gin = layer.backward_sample(0, &vec![1.0; y.len()], 4, 4);
        assert_eq!(gin.len(), x.len());
        assert!(flatten_grads(&mut layer).iter().any(|&g| g != 0.0));
    }

    #[test]
    fn weights_only_backward_matches_the_full_backward_bitwise() {
        let mut rng = Prng::seed_from_u64(2);
        let spec = Conv2dSpec {
            in_channels: 3,
            out_channels: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let (h, w) = (9, 7);
        let mut full = ConvLayer::new(spec, &mut rng);
        let mut weights_only = full.clone();
        let xs: Vec<Vec<f32>> = (0..2)
            .map(|_| Tensor::randn([3 * h * w], 1.0, &mut rng).data().to_vec())
            .collect();
        let (oh, ow) = spec.output_hw(h, w);
        let gs: Vec<Vec<f32>> = (0..2)
            .map(|_| Tensor::randn([4 * oh * ow], 1.0, &mut rng).data().to_vec())
            .collect();
        for layer in [&mut full, &mut weights_only] {
            layer.begin_batch();
            for x in &xs {
                layer.forward_sample(x, h, w, true);
            }
        }
        for (i, g) in gs.iter().enumerate() {
            assert_eq!(full.backward_sample(i, g, h, w).len(), 3 * h * w);
            weights_only.backward_sample_weights(i, g, h, w);
        }
        let want = flatten_grads(&mut full);
        let got = flatten_grads(&mut weights_only);
        assert!(want.iter().any(|&g| g != 0.0));
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
