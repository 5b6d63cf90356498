//! A residual CNN with GroupNorm, standing in for the paper's ResNet18.
//!
//! ResNet18 at full CIFAR scale is far beyond what a CPU-only
//! reproduction can train inside the experiment budget, but the paper
//! only relies on two properties of the architecture: it is a deep
//! residual network (skip connections, staged downsampling) and it is
//! markedly more expensive per local update than the plain CNN (which
//! drives the Table III / Fig. 5 overhead comparisons). `TinyResNet`
//! preserves both: a conv stem plus three residual stages with
//! GroupNorm and a global-average-pool head — the same optimization
//! structure at laptop scale. See DESIGN.md §3.

use crate::batch::Batch;
use crate::conv_layer::ConvLayer;
use crate::dense::Dense;
use crate::loss::{count_correct, softmax_cross_entropy};
use crate::model::Model;
use crate::norm::GroupNorm;
use crate::params::{self, HasParams, ParamBlock};
use taco_tensor::conv::{global_avg_pool, global_avg_pool_backward, Conv2dSpec};
use taco_tensor::{Prng, Tensor};

/// One pre-activation residual block:
/// `out = ReLU( GN2(conv2(ReLU(GN1(conv1(x))))) + skip(x) )`
/// where `skip` is the identity (same shape) or a strided 1×1
/// convolution (downsampling blocks).
#[derive(Clone)]
struct ResBlock {
    conv1: ConvLayer,
    gn1: GroupNorm,
    conv2: ConvLayer,
    gn2: GroupNorm,
    skip: Option<ConvLayer>,
    in_side: usize,
    out_side: usize,
    // Per-sample caches.
    relu1_masks: Vec<Vec<bool>>,
    out_masks: Vec<Vec<bool>>,
}

impl ResBlock {
    fn new(
        in_channels: usize,
        out_channels: usize,
        in_side: usize,
        stride: usize,
        groups: usize,
        rng: &mut Prng,
    ) -> Self {
        let conv1 = ConvLayer::new(
            Conv2dSpec {
                in_channels,
                out_channels,
                kernel: 3,
                stride,
                padding: 1,
            },
            rng,
        );
        let out_side = (in_side + 2 - 3) / stride + 1;
        let conv2 = ConvLayer::new(
            Conv2dSpec {
                in_channels: out_channels,
                out_channels,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            rng,
        );
        let skip = if stride != 1 || in_channels != out_channels {
            Some(ConvLayer::new(
                Conv2dSpec {
                    in_channels,
                    out_channels,
                    kernel: 1,
                    stride,
                    padding: 0,
                },
                rng,
            ))
        } else {
            None
        };
        ResBlock {
            conv1,
            gn1: GroupNorm::new(out_channels, groups),
            conv2,
            gn2: GroupNorm::new(out_channels, groups),
            skip,
            in_side,
            out_side,
            relu1_masks: Vec::new(),
            out_masks: Vec::new(),
        }
    }

    fn begin_batch(&mut self) {
        self.conv1.begin_batch();
        self.conv2.begin_batch();
        if let Some(s) = &mut self.skip {
            s.begin_batch();
        }
        self.gn1.reset_cache();
        self.gn2.reset_cache();
        self.relu1_masks.clear();
        self.out_masks.clear();
    }

    fn forward_sample(&mut self, x: &[f32]) -> Vec<f32> {
        let side = self.in_side;
        let mut a = self.conv1.forward_sample(x, side, side);
        self.gn1.forward_sample(&mut a);
        let mask1: Vec<bool> = a.iter().map(|&v| v > 0.0).collect();
        for v in &mut a {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let mut b = self.conv2.forward_sample(&a, self.out_side, self.out_side);
        self.gn2.forward_sample(&mut b);
        let shortcut = match &mut self.skip {
            Some(s) => s.forward_sample(x, side, side),
            None => x.to_vec(),
        };
        for (bv, sv) in b.iter_mut().zip(&shortcut) {
            *bv += sv;
        }
        let mask_out: Vec<bool> = b.iter().map(|&v| v > 0.0).collect();
        for v in &mut b {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        self.relu1_masks.push(mask1);
        self.out_masks.push(mask_out);
        b
    }

    fn backward_sample(&mut self, idx: usize, grad_out: &[f32]) -> Vec<f32> {
        let mut g = grad_out.to_vec();
        for (v, &m) in g.iter_mut().zip(&self.out_masks[idx]) {
            if !m {
                *v = 0.0;
            }
        }
        // Branch gradient through GN2, conv2, ReLU1, GN1, conv1.
        let mut gb = g.clone();
        self.gn2.backward_sample(idx, &mut gb);
        let mut ga = self
            .conv2
            .backward_sample(idx, &gb, self.out_side, self.out_side);
        for (v, &m) in ga.iter_mut().zip(&self.relu1_masks[idx]) {
            if !m {
                *v = 0.0;
            }
        }
        self.gn1.backward_sample(idx, &mut ga);
        let gx_branch = self
            .conv1
            .backward_sample(idx, &ga, self.in_side, self.in_side);
        // Shortcut gradient.
        let gx_skip = match &mut self.skip {
            Some(s) => s.backward_sample(idx, &g, self.in_side, self.in_side),
            None => g,
        };
        gx_branch.iter().zip(&gx_skip).map(|(a, b)| a + b).collect()
    }
}

impl HasParams for ResBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        self.conv1.visit_params(f);
        self.gn1.visit_params(f);
        self.conv2.visit_params(f);
        self.gn2.visit_params(f);
        if let Some(s) = &mut self.skip {
            s.visit_params(f);
        }
    }
}

/// A small residual network: conv stem, three residual stages with
/// doubling widths and spatial downsampling, global average pooling,
/// and a linear classifier head.
#[derive(Clone)]
pub struct TinyResNet {
    stem: ConvLayer,
    stem_gn: GroupNorm,
    blocks: Vec<ResBlock>,
    head: Dense,
    side: usize,
    classes: usize,
    stem_masks: Vec<Vec<bool>>,
    final_side: usize,
    final_channels: usize,
}

impl TinyResNet {
    /// Creates the network for square `side × side` inputs.
    ///
    /// `width` is the stem channel count; stages use `width`,
    /// `2·width`, `4·width` channels. `side` must be divisible by 4
    /// (two stride-2 stages).
    ///
    /// # Panics
    ///
    /// Panics if `side % 4 != 0` or `width < 4`.
    pub fn new(channels: usize, side: usize, classes: usize, width: usize, rng: &mut Prng) -> Self {
        assert_eq!(side % 4, 0, "side must be divisible by 4, got {side}");
        assert!(width >= 4, "width must be at least 4, got {width}");
        let groups = 2;
        let stem = ConvLayer::new(
            Conv2dSpec {
                in_channels: channels,
                out_channels: width,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            rng,
        );
        let blocks = vec![
            ResBlock::new(width, width, side, 1, groups, rng),
            ResBlock::new(width, 2 * width, side, 2, groups, rng),
            ResBlock::new(2 * width, 4 * width, side / 2, 2, groups, rng),
        ];
        let final_side = side / 4;
        let final_channels = 4 * width;
        TinyResNet {
            stem,
            stem_gn: GroupNorm::new(width, groups),
            blocks,
            head: Dense::new(final_channels, classes, rng),
            side,
            classes,
            stem_masks: Vec::new(),
            final_side,
            final_channels,
        }
    }

    /// The default configuration used by the CIFAR-100-equivalent
    /// experiments (width 8).
    pub fn for_image(channels: usize, side: usize, classes: usize, rng: &mut Prng) -> Self {
        TinyResNet::new(channels, side, classes, 8, rng)
    }

    /// Output class count.
    pub fn classes(&self) -> usize {
        self.classes
    }

    fn forward_logits(&mut self, batch: &Batch) -> Tensor {
        let b = batch.len();
        self.stem.begin_batch();
        self.stem_gn.reset_cache();
        self.stem_masks.clear();
        for blk in &mut self.blocks {
            blk.begin_batch();
        }
        let hw = self.final_side * self.final_side;
        let mut pooled = Tensor::zeros([b, self.final_channels]);
        for i in 0..b {
            let x = batch.sample(i);
            let mut a = self.stem.forward_sample(x, self.side, self.side);
            self.stem_gn.forward_sample(&mut a);
            let mask: Vec<bool> = a.iter().map(|&v| v > 0.0).collect();
            for v in &mut a {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            self.stem_masks.push(mask);
            let mut h = a;
            for blk in &mut self.blocks {
                h = blk.forward_sample(&h);
            }
            let p = global_avg_pool(&h, self.final_channels, hw);
            pooled.row_mut(i).copy_from_slice(&p);
        }
        self.head.forward(&pooled)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let gpool = self.head.backward(grad_logits);
        let b = gpool.dims()[0];
        let hw = self.final_side * self.final_side;
        for i in 0..b {
            let mut g = global_avg_pool_backward(gpool.row(i), self.final_channels, hw);
            for bi in (0..self.blocks.len()).rev() {
                g = self.blocks[bi].backward_sample(i, &g);
            }
            for (v, &m) in g.iter_mut().zip(&self.stem_masks[i]) {
                if !m {
                    *v = 0.0;
                }
            }
            self.stem_gn.backward_sample(i, &mut g);
            // Nothing reads the gradient with respect to the image.
            self.stem
                .backward_sample_weights(i, &g, self.side, self.side);
        }
    }
}

impl HasParams for TinyResNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        self.stem.visit_params(f);
        self.stem_gn.visit_params(f);
        for blk in &mut self.blocks {
            blk.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

impl Model for TinyResNet {
    fn param_count(&mut self) -> usize {
        params::param_count(self)
    }

    fn params(&mut self) -> Vec<f32> {
        params::flatten_params(self)
    }

    fn set_params(&mut self, p: &[f32]) {
        params::unflatten_params(self, p);
    }

    fn loss_and_grad(&mut self, batch: &Batch) -> (f32, Vec<f32>) {
        params::zero_grads(self);
        let fwd = taco_trace::quiet_span!("nn.forward");
        let logits = self.forward_logits(batch);
        fwd.finish();
        let (loss, grad_logits) = softmax_cross_entropy(&logits, batch.targets());
        let bwd = taco_trace::quiet_span!("nn.backward");
        self.backward(&grad_logits);
        bwd.finish();
        (loss, params::flatten_grads(self))
    }

    fn loss_and_accuracy(&mut self, batch: &Batch) -> (f32, f32) {
        let logits = self.forward_logits(batch);
        let (loss, _) = softmax_cross_entropy(&logits, batch.targets());
        let acc = count_correct(&logits, batch.targets()) as f32 / batch.len() as f32;
        (loss, acc)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (TinyResNet, Batch) {
        let mut rng = Prng::seed_from_u64(11);
        let m = TinyResNet::new(1, 8, 4, 4, &mut rng);
        let x = Tensor::randn([2, 1, 8, 8], 1.0, &mut rng);
        (m, Batch::new(x, vec![1, 3]))
    }

    #[test]
    fn forward_shapes() {
        let (mut m, batch) = tiny();
        let logits = m.forward_logits(&batch);
        assert_eq!(logits.dims(), &[2, 4]);
    }

    #[test]
    fn param_roundtrip() {
        let (mut m, _) = tiny();
        let p = m.params();
        assert_eq!(p.len(), m.param_count());
        let shifted: Vec<f32> = p.iter().map(|x| x * 0.9 + 0.01).collect();
        m.set_params(&shifted);
        assert_eq!(m.params(), shifted);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (mut m, batch) = tiny();
        let (_, grad) = m.loss_and_grad(&batch);
        let base = m.params();
        let eps = 1e-2f32;
        let n = base.len();
        for &i in &[0, n / 5, n / 3, n / 2, 4 * n / 5, n - 1] {
            let mut p = base.clone();
            p[i] += eps;
            m.set_params(&p);
            let (up, _) = m.loss_and_accuracy(&batch);
            p[i] -= 2.0 * eps;
            m.set_params(&p);
            let (dn, _) = m.loss_and_accuracy(&batch);
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 3e-2,
                "param {i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn sgd_reduces_loss() {
        let (mut m, batch) = tiny();
        let (l0, _) = m.loss_and_accuracy(&batch);
        for _ in 0..20 {
            let (_, g) = m.loss_and_grad(&batch);
            let mut p = m.params();
            taco_tensor::ops::axpy(&mut p, -0.3, &g);
            m.set_params(&p);
        }
        let (l1, _) = m.loss_and_accuracy(&batch);
        assert!(l1 < l0, "loss did not drop: {l0} -> {l1}");
    }

    #[test]
    fn clone_model_preserves_params() {
        let (mut m, _) = tiny();
        let mut c = m.clone_model();
        assert_eq!(c.params(), m.params());
    }
}
