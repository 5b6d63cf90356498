//! The `Model` trait: the contract between neural networks and the
//! federated-learning algorithms.

use crate::batch::Batch;

/// A trainable model exposed as a flat parameter vector.
///
/// This is the entire interface `taco-core`'s FL algorithms see. An
/// algorithm reads the current parameters, asks for a mini-batch
/// gradient, applies its own (algorithm-specific) update rule to the
/// flat vector and writes the result back.
///
/// Implementations must be deterministic: the same parameters and the
/// same batch always yield the same loss and gradient. They must also
/// be `Send + Sync` plain data (no interior mutability), so the
/// simulator can clone a shared prototype from worker threads.
pub trait Model: Send + Sync {
    /// Number of scalar parameters.
    ///
    /// Takes `&mut self` because parameter traversal reuses the same
    /// mutable visitor the backward pass uses; no state is changed.
    fn param_count(&mut self) -> usize;

    /// Current parameters, flattened in a fixed layout.
    ///
    /// Takes `&mut self` for the same reason as [`Model::param_count`];
    /// no state is changed.
    fn params(&mut self) -> Vec<f32>;

    /// Overwrites the parameters from a flat vector.
    ///
    /// The parameters fully determine the model's behaviour: no hidden
    /// state (activation caches, gradient accumulators, recurrent
    /// state) survives `set_params` into later calls. A model that
    /// already trained one client and was reset with `set_params(g)`
    /// therefore computes bit-identical results to a fresh
    /// [`Model::clone_model`] reset with `set_params(g)`, which lets
    /// the simulator reuse one model for many clients.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.param_count()`.
    fn set_params(&mut self, params: &[f32]);

    /// Computes the mean mini-batch loss and its gradient with respect
    /// to the parameters, flattened in the same layout as
    /// [`Model::params`].
    fn loss_and_grad(&mut self, batch: &Batch) -> (f32, Vec<f32>);

    /// Computes loss and classification accuracy on a batch without
    /// touching gradients.
    fn loss_and_accuracy(&mut self, batch: &Batch) -> (f32, f32);

    /// Creates a fresh boxed clone of this model (same architecture and
    /// parameters). Used by the simulator to hand each pool task its
    /// own instance, which then serves that task's clients in turn.
    fn clone_model(&self) -> Box<dyn Model>;
}

impl Model for Box<dyn Model> {
    fn param_count(&mut self) -> usize {
        (**self).param_count()
    }

    fn params(&mut self) -> Vec<f32> {
        (**self).params()
    }

    fn set_params(&mut self, params: &[f32]) {
        (**self).set_params(params)
    }

    fn loss_and_grad(&mut self, batch: &Batch) -> (f32, Vec<f32>) {
        (**self).loss_and_grad(batch)
    }

    fn loss_and_accuracy(&mut self, batch: &Batch) -> (f32, f32) {
        (**self).loss_and_accuracy(batch)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        (**self).clone_model()
    }
}

/// Evaluates a model over a list of batches, returning `(mean loss,
/// accuracy)` weighted by batch size.
///
/// Returns `(0.0, 0.0)` for an empty batch list.
pub fn evaluate(model: &mut dyn Model, batches: &[Batch]) -> (f32, f32) {
    let mut total = 0usize;
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    for b in batches {
        let (loss, acc) = model.loss_and_accuracy(b);
        loss_sum += loss as f64 * b.len() as f64;
        acc_sum += acc as f64 * b.len() as f64;
        total += b.len();
    }
    if total == 0 {
        (0.0, 0.0)
    } else {
        (
            (loss_sum / total as f64) as f32,
            (acc_sum / total as f64) as f32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use taco_tensor::{Prng, Tensor};

    #[test]
    fn evaluate_weights_by_batch_size() {
        let mut rng = Prng::seed_from_u64(1);
        let mut m = Mlp::new(2, &[4], 2, &mut rng);
        let b1 = Batch::new(Tensor::zeros([1, 2]), vec![0]);
        let b3 = Batch::new(Tensor::zeros([3, 2]), vec![0, 0, 0]);
        let (l1, _) = m.loss_and_accuracy(&b1);
        let (l, _) = evaluate(&mut m, &[b1, b3]);
        // All-zero inputs: every sample has identical loss.
        assert!((l - l1).abs() < 1e-6);
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let mut rng = Prng::seed_from_u64(2);
        let mut m = Mlp::new(2, &[4], 2, &mut rng);
        assert_eq!(evaluate(&mut m, &[]), (0.0, 0.0));
    }
}
