//! The paper's tabular MLP (hidden layers 32-16-8 on `adult`).

use crate::activation::{relu, relu_mask};
use crate::batch::Batch;
use crate::dense::Dense;
use crate::model::Network;
use crate::params::{HasParams, ParamBlock};
use taco_tensor::{Prng, Tensor};

/// A multi-layer perceptron with ReLU activations.
///
/// The paper's `adult` model uses hidden layers `(32, 16, 8)`; see
/// [`Mlp::paper_adult`]. Any hidden-layer list is supported.
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// One ReLU mask per hidden layer from the last training pass.
    masks: Vec<Vec<bool>>,
    in_features: usize,
    classes: usize,
}

impl Mlp {
    /// Creates an MLP `in → hidden[0] → ... → classes`.
    ///
    /// # Panics
    ///
    /// Panics if `in_features` or `classes` is zero.
    pub fn new(in_features: usize, hidden: &[usize], classes: usize, rng: &mut Prng) -> Self {
        assert!(in_features > 0 && classes > 0, "degenerate MLP shape");
        let mut layers = Vec::new();
        let mut prev = in_features;
        for &h in hidden {
            layers.push(Dense::new(prev, h, rng));
            prev = h;
        }
        layers.push(Dense::new(prev, classes, rng));
        Mlp {
            layers,
            masks: vec![Vec::new(); hidden.len()],
            in_features,
            classes,
        }
    }

    /// The paper's three-hidden-layer (32, 16, 8) MLP.
    pub fn paper_adult(in_features: usize, classes: usize, rng: &mut Prng) -> Self {
        Mlp::new(in_features, &[32, 16, 8], classes, rng)
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output class count.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

impl HasParams for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

impl Network for Mlp {
    fn logits(&mut self, batch: &Batch, train: bool) -> Tensor {
        let mut h = self.layers[0].forward(batch.inputs(), train);
        for i in 1..self.layers.len() {
            self.masks[i - 1] = relu(h.data_mut(), train);
            h = self.layers[i].forward(&h, train);
        }
        h
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let mut g: Option<Tensor> = None;
        for i in (1..self.layers.len()).rev() {
            let mut gi = self.layers[i].backward(g.as_ref().unwrap_or(grad_logits));
            relu_mask(gi.data_mut(), &self.masks[i - 1]);
            g = Some(gi);
        }
        // Nothing reads the gradient with respect to the features.
        self.layers[0].backward_weights(g.as_ref().unwrap_or(grad_logits));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|g| g.to_bits()).collect()
    }

    fn tiny() -> (Mlp, Batch) {
        let mut rng = Prng::seed_from_u64(7);
        let m = Mlp::new(3, &[5, 4], 2, &mut rng);
        let x = Tensor::randn([4, 3], 1.0, &mut rng);
        (m, Batch::new(x, vec![0, 1, 1, 0]))
    }

    #[test]
    fn param_roundtrip() {
        let (mut m, _) = tiny();
        let p = m.params();
        assert_eq!(p.len(), m.param_count());
        let doubled: Vec<f32> = p.iter().map(|x| x * 2.0).collect();
        m.set_params(&doubled);
        assert_eq!(m.params(), doubled);
    }

    #[test]
    fn paper_adult_shape() {
        let mut rng = Prng::seed_from_u64(1);
        let mut m = Mlp::paper_adult(14, 2, &mut rng);
        // 14*32+32 + 32*16+16 + 16*8+8 + 8*2+2 = 480+528+136+18
        assert_eq!(m.param_count(), 480 + 528 + 136 + 18);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (mut m, batch) = tiny();
        let (_, grad) = m.loss_and_grad(&batch);
        let base = m.params();
        let eps = 1e-2f32;
        // Spot-check a spread of parameter coordinates.
        let n = base.len();
        for &i in &[0, n / 3, n / 2, 2 * n / 3, n - 1] {
            let mut p = base.clone();
            p[i] += eps;
            m.set_params(&p);
            let (up, _) = m.loss_and_accuracy(&batch);
            p[i] -= 2.0 * eps;
            m.set_params(&p);
            let (dn, _) = m.loss_and_accuracy(&batch);
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 2e-2,
                "param {i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn evaluation_keeps_no_cache_and_matches_the_training_forward_bitwise() {
        let mut rng = Prng::seed_from_u64(12);
        let mut fresh = Mlp::new(6, &[9, 7], 4, &mut rng);
        let x = Tensor::randn([16, 6], 1.0, &mut rng);
        let batch = Batch::new(x, (0..16).map(|i| i % 4).collect());
        let mut evaluated = fresh.clone();
        let logits = evaluated.logits(&batch, false);
        assert!(evaluated.layers.iter().all(|l| !l.has_cached_input()));
        let want = fresh.clone().logits(&batch, true);
        assert_eq!(bits(logits.data()), bits(want.data()));
        // An evaluated model trains exactly like a fresh one.
        let (want_loss, want) = fresh.loss_and_grad(&batch);
        let (got_loss, got) = evaluated.loss_and_grad(&batch);
        assert_eq!(got_loss.to_bits(), want_loss.to_bits());
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn a_nan_hidden_weight_reaches_the_loss() {
        let (mut m, batch) = tiny();
        let mut p = m.params();
        // The first weight of the first hidden layer.
        p[0] = f32::NAN;
        m.set_params(&p);
        let (loss, _) = m.loss_and_grad(&batch);
        assert!(!loss.is_finite(), "training loss {loss}");
        let (loss, _) = m.loss_and_accuracy(&batch);
        assert!(!loss.is_finite(), "evaluation loss {loss}");
    }

    #[test]
    fn sgd_reduces_loss() {
        let (mut m, batch) = tiny();
        let (l0, _) = m.loss_and_accuracy(&batch);
        for _ in 0..50 {
            let (_, g) = m.loss_and_grad(&batch);
            let mut p = m.params();
            taco_tensor::ops::axpy(&mut p, -0.5, &g);
            m.set_params(&p);
        }
        let (l1, _) = m.loss_and_accuracy(&batch);
        assert!(l1 < l0 * 0.5, "loss did not drop: {l0} -> {l1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = Prng::seed_from_u64(9);
        let mut r2 = Prng::seed_from_u64(9);
        let mut a = Mlp::new(4, &[6], 3, &mut r1);
        let mut b = Mlp::new(4, &[6], 3, &mut r2);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn clone_model_is_independent() {
        let (mut m, batch) = tiny();
        let mut c = m.clone_model();
        assert_eq!(c.params(), m.params());
        let zeros = vec![0.0; c.param_count()];
        c.set_params(&zeros);
        assert_ne!(c.params(), m.params());
        let (_, acc) = c.loss_and_accuracy(&batch);
        assert!(acc >= 0.0);
    }
}
