//! The paper's image CNN: two 5×5 convolutions and three
//! fully-connected layers with ReLU activations (Table IV cites the
//! CNN of Li et al., "Federated learning on non-IID data silos").

use crate::activation::{relu, relu_mask};
use crate::batch::Batch;
use crate::conv_layer::ConvLayer;
use crate::dense::Dense;
use crate::model::Network;
use crate::params::{HasParams, ParamBlock};
use taco_tensor::conv::{maxpool2d_backward, maxpool2d_forward, Conv2dSpec};
use taco_tensor::{Prng, Tensor};

/// The paper's CNN: `conv(5×5) → ReLU → maxpool(2) → conv(5×5) → ReLU →
/// maxpool(2) → fc → ReLU → fc → ReLU → fc`.
///
/// Works on square inputs with any channel count; see
/// [`PaperCnn::for_image`] for the constructor used by the experiment
/// harness.
#[derive(Clone)]
pub struct PaperCnn {
    conv1: ConvLayer,
    conv2: ConvLayer,
    fc1: Dense,
    fc2: Dense,
    fc3: Dense,
    image: ImageGeom,
    classes: usize,
    // Activation caches of the last training pass: the FC head's ReLU
    // masks and each sample's trunk masks and pool indices.
    fc1_mask: Vec<bool>,
    fc2_mask: Vec<bool>,
    sample_caches: Vec<SampleCache>,
}

#[derive(Debug, Clone, Copy)]
struct ImageGeom {
    side: usize,
    c1_out: usize,
    c1_side: usize,
    p1_side: usize,
    c2_out: usize,
    c2_side: usize,
    p2_side: usize,
}

#[derive(Clone)]
struct SampleCache {
    relu1_mask: Vec<bool>,
    pool1_arg: Vec<usize>,
    relu2_mask: Vec<bool>,
    pool2_arg: Vec<usize>,
}

impl PaperCnn {
    /// Creates the CNN for square `side × side` images with `channels`
    /// input channels and `classes` output classes, using `filters`
    /// feature maps in the first conv (doubled in the second) and
    /// `hidden` units in the first FC layer (halved in the second).
    ///
    /// # Panics
    ///
    /// Panics if the image is too small for two 5×5 convs + 2×2 pools
    /// (side must be at least 16).
    pub fn new(
        channels: usize,
        side: usize,
        classes: usize,
        filters: usize,
        hidden: usize,
        rng: &mut Prng,
    ) -> Self {
        assert!(side >= 16, "PaperCnn needs side >= 16, got {side}");
        let c1_spec = Conv2dSpec {
            in_channels: channels,
            out_channels: filters,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        let c1_side = side - 4;
        let p1_side = c1_side / 2;
        let c2_spec = Conv2dSpec {
            in_channels: filters,
            out_channels: filters * 2,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        let c2_side = p1_side - 4;
        let p2_side = c2_side / 2;
        let flat = filters * 2 * p2_side * p2_side;
        let image = ImageGeom {
            side,
            c1_out: filters,
            c1_side,
            p1_side,
            c2_out: filters * 2,
            c2_side,
            p2_side,
        };
        PaperCnn {
            conv1: ConvLayer::new(c1_spec, rng),
            conv2: ConvLayer::new(c2_spec, rng),
            fc1: Dense::new(flat, hidden, rng),
            fc2: Dense::new(hidden, hidden / 2, rng),
            fc3: Dense::new(hidden / 2, classes, rng),
            image,
            classes,
            fc1_mask: Vec::new(),
            fc2_mask: Vec::new(),
            sample_caches: Vec::new(),
        }
    }

    /// Convenience constructor with the default widths used by the
    /// experiment harness (8 filters, 64 hidden units).
    pub fn for_image(channels: usize, side: usize, classes: usize, rng: &mut Prng) -> Self {
        PaperCnn::new(channels, side, classes, 8, 64, rng)
    }

    /// Output class count.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Runs the convolutional trunk for every sample and returns the
    /// flattened features `[batch, flat]`. With `train` set it keeps
    /// what the backward pass reads: each conv's patch matrices and
    /// each sample's ReLU masks and pool indices. Without it nothing is
    /// kept, so an evaluation leaves no cache behind.
    fn forward_trunk(&mut self, batch: &Batch, train: bool) -> Tensor {
        let g = self.image;
        let b = batch.len();
        let flat = g.c2_out * g.p2_side * g.p2_side;
        self.sample_caches.clear();
        self.conv1.begin_batch();
        self.conv2.begin_batch();
        let mut features = Tensor::zeros([b, flat]);
        for i in 0..b {
            let x = batch.sample(i);
            let mut a1 = self.conv1.forward_sample(x, g.side, g.side, train);
            let relu1_mask = relu(&mut a1, train);
            let (p1, pool1_arg) = maxpool2d_forward(&a1, g.c1_out, g.c1_side, g.c1_side, 2, 2);
            let mut a2 = self.conv2.forward_sample(&p1, g.p1_side, g.p1_side, train);
            let relu2_mask = relu(&mut a2, train);
            let (p2, pool2_arg) = maxpool2d_forward(&a2, g.c2_out, g.c2_side, g.c2_side, 2, 2);
            features.row_mut(i).copy_from_slice(&p2);
            if train {
                self.sample_caches.push(SampleCache {
                    relu1_mask,
                    pool1_arg,
                    relu2_mask,
                    pool2_arg,
                });
            }
        }
        features
    }
}

impl HasParams for PaperCnn {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        self.conv1.visit_params(f);
        self.conv2.visit_params(f);
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
        self.fc3.visit_params(f);
    }
}

impl Network for PaperCnn {
    fn logits(&mut self, batch: &Batch, train: bool) -> Tensor {
        let features = self.forward_trunk(batch, train);
        let mut h1 = self.fc1.forward(&features, train);
        self.fc1_mask = relu(h1.data_mut(), train);
        let mut h2 = self.fc2.forward(&h1, train);
        self.fc2_mask = relu(h2.data_mut(), train);
        self.fc3.forward(&h2, train)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let g = self.image;
        let mut gr = self.fc3.backward(grad_logits);
        relu_mask(gr.data_mut(), &self.fc2_mask);
        let mut gr = self.fc2.backward(&gr);
        relu_mask(gr.data_mut(), &self.fc1_mask);
        let gfeat = self.fc1.backward(&gr);
        let b = gfeat.dims()[0];
        for i in 0..b {
            let cache = &self.sample_caches[i];
            // Unpool 2.
            let a2_len = g.c2_out * g.c2_side * g.c2_side;
            let mut ga2 = maxpool2d_backward(gfeat.row(i), &cache.pool2_arg, g.c2_out, a2_len);
            relu_mask(&mut ga2, &cache.relu2_mask);
            let gp1 = self.conv2.backward_sample(i, &ga2, g.p1_side, g.p1_side);
            // Unpool 1.
            let a1_len = g.c1_out * g.c1_side * g.c1_side;
            let mut ga1 = maxpool2d_backward(&gp1, &cache.pool1_arg, g.c1_out, a1_len);
            relu_mask(&mut ga1, &cache.relu1_mask);
            // Nothing reads the gradient with respect to the image.
            self.conv1.backward_sample_weights(i, &ga1, g.side, g.side);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    fn tiny() -> (PaperCnn, Batch) {
        let mut rng = Prng::seed_from_u64(5);
        let m = PaperCnn::new(1, 16, 3, 2, 8, &mut rng);
        let x = Tensor::randn([2, 1, 16, 16], 1.0, &mut rng);
        (m, Batch::new(x, vec![0, 2]))
    }

    #[test]
    fn forward_shapes() {
        let (mut m, batch) = tiny();
        let logits = m.logits(&batch, true);
        assert_eq!(logits.dims(), &[2, 3]);
    }

    #[test]
    fn param_roundtrip() {
        let (mut m, _) = tiny();
        let p = m.params();
        assert_eq!(p.len(), m.param_count());
        let shifted: Vec<f32> = p.iter().map(|x| x + 0.5).collect();
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
        // One coordinate from each layer region.
        for &i in &[0, 30, n / 4, n / 2, 3 * n / 4, n - 1] {
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
    fn evaluation_leaves_no_state_behind() {
        let (mut fresh, batch) = tiny();
        let mut evaluated = fresh.clone();
        let other = Batch::new(
            Tensor::randn([3, 1, 16, 16], 1.0, &mut Prng::seed_from_u64(8)),
            vec![1, 0, 2],
        );
        evaluated.loss_and_accuracy(&other);
        assert!(evaluated.sample_caches.is_empty());
        let (want_loss, want) = fresh.loss_and_grad(&batch);
        let (got_loss, got) = evaluated.loss_and_grad(&batch);
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(got_loss.to_bits(), want_loss.to_bits());
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn sgd_reduces_loss() {
        let (mut m, batch) = tiny();
        let (l0, _) = m.loss_and_accuracy(&batch);
        for _ in 0..30 {
            let (_, g) = m.loss_and_grad(&batch);
            let mut p = m.params();
            taco_tensor::ops::axpy(&mut p, -0.2, &g);
            m.set_params(&p);
        }
        let (l1, _) = m.loss_and_accuracy(&batch);
        assert!(l1 < l0, "loss did not drop: {l0} -> {l1}");
    }

    #[test]
    fn for_image_28x28_works() {
        let mut rng = Prng::seed_from_u64(6);
        let mut m = PaperCnn::for_image(1, 28, 10, &mut rng);
        let x = Tensor::randn([1, 1, 28, 28], 1.0, &mut rng);
        let b = Batch::new(x, vec![7]);
        let (loss, grad) = m.loss_and_grad(&b);
        assert!(loss.is_finite());
        assert!(taco_tensor::ops::all_finite(&grad));
    }

    #[test]
    #[should_panic(expected = "side >= 16")]
    fn too_small_image_panics() {
        let mut rng = Prng::seed_from_u64(7);
        let _ = PaperCnn::new(1, 10, 2, 2, 8, &mut rng);
    }
}
