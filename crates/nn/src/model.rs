//! The `Model` trait, the contract between neural networks and the
//! federated-learning algorithms, and the `Network` trait each network
//! implements to get it.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::batch::Batch;
use crate::loss::{count_correct, softmax_cross_entropy};
use crate::params::{self, HasParams};
use taco_tensor::{pool, Tensor};

/// A trainable model exposed as a flat parameter vector.
///
/// This is the entire interface `taco-core`'s FL algorithms see. An
/// algorithm reads the current parameters, asks for a mini-batch
/// gradient, applies its own (algorithm-specific) update rule to the
/// flat vector and writes the result back.
///
/// Every [`Network`] is a `Model` through one generic implementation,
/// which owns the flat-vector plumbing, the softmax cross-entropy loss
/// and the evaluation; a network supplies only its logits and its
/// backward pass.
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
    /// parameters). Used by [`map_with_models`] to give each pool lane
    /// its own instance, which then serves that lane's items in turn.
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

/// A classifier network: what a model supplies to become a [`Model`].
///
/// The network owns its layers' [`ParamBlock`](crate::ParamBlock)s
/// (visited through [`HasParams`]) and computes its logits and their
/// backward pass; the generic `Model` implementation does the rest.
/// Its layout of the flat parameter vector is the visiting order of
/// [`HasParams::visit_params`].
pub trait Network: HasParams + Clone + Send + Sync + 'static {
    /// The `[batch, classes]` logits of `batch`. With `train` set the
    /// network keeps what [`Network::backward`] reads; without it no
    /// backward pass may follow, and the network need not keep anything.
    fn logits(&mut self, batch: &Batch, train: bool) -> Tensor;

    /// Backpropagates the loss gradient with respect to the logits of
    /// the last `logits(batch, true)` call, accumulating into the
    /// parameter blocks' gradients.
    fn backward(&mut self, grad_logits: &Tensor);
}

impl<N: Network> Model for N {
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
        let logits = self.logits(batch, true);
        fwd.finish();
        let (loss, grad_logits) = softmax_cross_entropy(&logits, batch.targets());
        let bwd = taco_trace::quiet_span!("nn.backward");
        self.backward(&grad_logits);
        bwd.finish();
        (loss, params::flatten_grads(self))
    }

    fn loss_and_accuracy(&mut self, batch: &Batch) -> (f32, f32) {
        let logits = self.logits(batch, false);
        let (loss, _) = softmax_cross_entropy(&logits, batch.targets());
        let acc = count_correct(&logits, batch.targets()) as f32 / batch.len() as f32;
        (loss, acc)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// Maps `f(model, item)` over `items` on the worker pool
/// ([`taco_tensor::pool`]), one model per lane, and returns the results
/// in item order.
///
/// `model` serves lane 0 and one [`Model::clone_model`] serves each
/// further pool thread; the clones are dropped on return. Each lane
/// claims items one at a time from a shared counter, so the threads
/// stay busy until the last item finishes. Runs inline on `model` when
/// the pool has one thread, there is one item, or the caller is itself
/// a pool worker. Which lane runs an item is scheduling-dependent, so
/// `f` must give the same result on any model of the same
/// architecture, whatever it ran before (e.g. by loading its
/// parameters first, see [`Model::set_params`]).
pub fn map_with_models<T, R, F>(model: &mut dyn Model, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut dyn Model, &T) -> R + Sync,
{
    let width = pool::threads().min(items.len());
    if width <= 1 || pool::on_worker_thread() {
        return items.iter().map(|item| f(&mut *model, item)).collect();
    }
    let mut clones: Vec<Box<dyn Model>> = (1..width).map(|_| model.clone_model()).collect();
    // Each lane is a model and the `(item index, result)` pairs it
    // produced.
    type Lane<'a, 'm, R> = (&'a mut (dyn Model + 'm), Vec<(usize, R)>);
    let mut lanes: Vec<Lane<R>> = std::iter::once(model)
        .chain(clones.iter_mut().map(|m| &mut **m))
        .map(|m| (m, Vec::new()))
        .collect();
    // The claim counter publishes nothing: results travel back through
    // each lane's own list, which the pool hands over on completion.
    let next = AtomicUsize::new(0);
    pool::for_each_chunk(&mut lanes, 1, |_, lane| {
        let (model, done) = &mut lane[0];
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(&mut **model, item)));
        }
    });
    let mut done: Vec<(usize, R)> = lanes.into_iter().flat_map(|(_, done)| done).collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Evaluates a model over a list of batches, returning `(mean loss,
/// accuracy)` weighted by batch size.
///
/// The batches run through [`map_with_models`]: `model` and one clone
/// per further pool thread each claim whole batches. The per-batch
/// `(loss, accuracy)` pairs are folded in batch order, so the result is
/// bit-identical at any thread count.
///
/// Returns `(0.0, 0.0)` for an empty batch list.
pub fn evaluate(model: &mut dyn Model, batches: &[Batch]) -> (f32, f32) {
    let scores = map_with_models(model, batches, |m, b| m.loss_and_accuracy(b));
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

    /// A parameter-free model that counts how often it was cloned.
    struct CloneCounter(std::sync::Arc<AtomicUsize>);

    impl Model for CloneCounter {
        fn param_count(&mut self) -> usize {
            0
        }
        fn params(&mut self) -> Vec<f32> {
            Vec::new()
        }
        fn set_params(&mut self, _params: &[f32]) {}
        fn loss_and_grad(&mut self, _batch: &Batch) -> (f32, Vec<f32>) {
            (0.0, Vec::new())
        }
        fn loss_and_accuracy(&mut self, _batch: &Batch) -> (f32, f32) {
            (0.0, 0.0)
        }
        fn clone_model(&self) -> Box<dyn Model> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Box::new(CloneCounter(std::sync::Arc::clone(&self.0)))
        }
    }

    #[test]
    fn pooled_map_returns_item_order_with_one_model_per_lane() {
        // 12 items split evenly over 1, 2 or 3 lanes.
        let items: Vec<usize> = (0..12).collect();
        for threads in 1..=3 {
            let pool = taco_tensor::pool::Pool::new(threads);
            let clones = std::sync::Arc::new(AtomicUsize::new(0));
            let mut model = CloneCounter(std::sync::Arc::clone(&clones));
            // Every lane holds one item at the barrier before any moves
            // on, so each lane's items interleave with the others'.
            let barrier = std::sync::Barrier::new(threads);
            let got = taco_tensor::pool::with_pool(&pool, || {
                map_with_models(&mut model, &items, |_, &i| {
                    barrier.wait();
                    3 * i + 1
                })
            });
            let want: Vec<usize> = items.iter().map(|&i| 3 * i + 1).collect();
            assert_eq!(got, want, "{threads} threads");
            assert_eq!(
                clones.load(Ordering::Relaxed),
                threads - 1,
                "{threads} threads: one clone per further lane"
            );
        }
    }

    /// FNV-1a over the bits of a run of floats.
    fn fnv1a(values: impl IntoIterator<Item = f32>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            h ^= u64::from(v.to_bits());
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The `(loss_and_grad, loss_and_accuracy)` digests of one model on
    /// one batch: a training step, then an evaluation of the same model.
    fn digests(model: &mut dyn Model, batch: &Batch) -> (u64, u64) {
        let (loss, grad) = model.loss_and_grad(batch);
        let (eval_loss, acc) = model.loss_and_accuracy(batch);
        (
            fnv1a(std::iter::once(loss).chain(grad)),
            fnv1a([eval_loss, acc]),
        )
    }

    /// Every network's loss, gradient and evaluation bits on a
    /// fixed-seed batch. A refactor of the layers or of the glue
    /// between them must leave these digests unchanged.
    #[test]
    fn network_bits_are_pinned() {
        let mut got = Vec::new();
        let mut rng = Prng::seed_from_u64(41);
        let mut mlp = Mlp::new(6, &[9, 7], 4, &mut rng);
        let x = Tensor::randn([16, 6], 1.0, &mut rng);
        got.push(digests(
            &mut mlp,
            &Batch::new(x, (0..16).map(|i| i % 4).collect()),
        ));
        let mut cnn = crate::PaperCnn::new(1, 16, 3, 2, 8, &mut rng);
        let x = Tensor::randn([3, 1, 16, 16], 1.0, &mut rng);
        got.push(digests(&mut cnn, &Batch::new(x, vec![2, 0, 1])));
        let mut resnet = crate::TinyResNet::new(1, 8, 4, 4, &mut rng);
        let x = Tensor::randn([2, 1, 8, 8], 1.0, &mut rng);
        got.push(digests(&mut resnet, &Batch::new(x, vec![1, 3])));
        // The LSTM's gradient digest dates from before its backward pass
        // dropped the last-step `dh` product and the per-step row copies.
        let mut rng = Prng::seed_from_u64(29);
        let mut lstm = crate::CharLstm::new(11, 6, 9, &mut rng);
        let (bsz, seq) = (5, 7);
        let ids: Vec<f32> = (0..bsz * seq).map(|_| rng.below(11) as f32).collect();
        let targets: Vec<usize> = (0..bsz).map(|_| rng.below(11)).collect();
        let batch = Batch::new(Tensor::from_vec(ids, [bsz, seq]), targets);
        got.push(digests(&mut lstm, &batch));
        let hex: Vec<_> = got
            .iter()
            .map(|(g, e)| format!("({g:#018x}, {e:#018x})"))
            .collect();
        assert_eq!(
            got,
            [
                (0x34c4_d8f7_86c7_dfc5, 0xc977_a9b9_36ff_2460),
                (0xffa4_06c0_d5b0_8dea, 0x5a0e_952e_371e_04a0),
                (0xc2b9_f587_3071_2788, 0x5c8f_d021_fe18_28a9),
                (0x8812_0773_9599_6e58, 0xd4cd_551c_8d40_57eb),
            ],
            "mlp, cnn, resnet, lstm digests: {hex:?}"
        );
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let mut rng = Prng::seed_from_u64(2);
        let mut m = Mlp::new(2, &[4], 2, &mut rng);
        assert_eq!(evaluate(&mut m, &[]), (0.0, 0.0));
    }
}
