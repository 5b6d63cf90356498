//! The `Model` trait: the contract between neural networks and the
//! federated-learning algorithms.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::batch::Batch;
use taco_tensor::pool;

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
/// The batches run on the worker pool ([`taco_tensor::pool`]): `model`
/// and one [`Model::clone_model`] per further pool thread each claim
/// whole batches, and the clones are dropped on return. The per-batch
/// `(loss, accuracy)` pairs are folded in batch order, so the result is
/// bit-identical at any thread count.
///
/// Returns `(0.0, 0.0)` for an empty batch list.
pub fn evaluate(model: &mut dyn Model, batches: &[Batch]) -> (f32, f32) {
    let threads = pool::threads().min(batches.len());
    let mut scores = vec![(0.0f32, 0.0f32); batches.len()];
    if threads <= 1 || pool::on_worker_thread() {
        for (score, b) in scores.iter_mut().zip(batches) {
            *score = model.loss_and_accuracy(b);
        }
    } else {
        let mut helpers: Vec<Box<dyn Model>> = (1..threads).map(|_| model.clone_model()).collect();
        // Each lane is a model and the `(batch index, score)` pairs it
        // produced.
        type Lane<'a, 'm> = (&'a mut (dyn Model + 'm), Vec<(usize, (f32, f32))>);
        let mut lanes: Vec<Lane> = std::iter::once(model)
            .chain(helpers.iter_mut().map(|m| &mut **m))
            .map(|m| (m, Vec::new()))
            .collect();
        // The claim counter publishes nothing: scores travel back
        // through each lane's own list, which the pool hands over on
        // completion.
        let next = AtomicUsize::new(0);
        pool::for_each_chunk(&mut lanes, 1, |_, lane| {
            let (model, done) = &mut lane[0];
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(b) = batches.get(i) else { break };
                done.push((i, model.loss_and_accuracy(b)));
            }
        });
        for (i, score) in lanes.into_iter().flat_map(|(_, done)| done) {
            scores[i] = score;
        }
    }
    let mut total = 0usize;
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    for (b, &(loss, acc)) in batches.iter().zip(&scores) {
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
    fn pooled_evaluation_matches_the_serial_fold_bitwise() {
        let mut rng = Prng::seed_from_u64(3);
        let proto = crate::PaperCnn::new(1, 16, 3, 2, 8, &mut rng);
        // Full batches of 4 and a short last batch of 3.
        let all: Vec<Batch> = (0..5)
            .map(|i| {
                let n = if i == 4 { 3 } else { 4 };
                let x = Tensor::randn([n, 1, 16, 16], 1.0, &mut rng);
                Batch::new(x, (0..n).map(|_| rng.below(3)).collect())
            })
            .collect();
        let pools: Vec<_> = (1..=3).map(taco_tensor::pool::Pool::new).collect();
        for count in 1..=all.len() {
            let mut batches = all[..count - 1].to_vec();
            batches.push(all[4].clone());
            let mut serial = proto.clone_model();
            let (mut total, mut loss_sum, mut acc_sum) = (0usize, 0.0f64, 0.0f64);
            for b in &batches {
                let (loss, acc) = serial.loss_and_accuracy(b);
                loss_sum += loss as f64 * b.len() as f64;
                acc_sum += acc as f64 * b.len() as f64;
                total += b.len();
            }
            let want = (
                (loss_sum / total as f64) as f32,
                (acc_sum / total as f64) as f32,
            );
            for pool in &pools {
                let mut model = proto.clone_model();
                let got = taco_tensor::pool::with_pool(pool, || evaluate(&mut *model, &batches));
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "{count} batches on {} threads",
                    pool.threads()
                );
            }
        }
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let mut rng = Prng::seed_from_u64(2);
        let mut m = Mlp::new(2, &[4], 2, &mut rng);
        assert_eq!(evaluate(&mut m, &[]), (0.0, 0.0));
    }
}
