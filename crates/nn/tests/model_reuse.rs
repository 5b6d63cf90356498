//! The `Model::set_params` contract the simulator's client pool relies
//! on: a model's parameters fully determine its behaviour. A model
//! that already trained one client and was then reset with
//! `set_params(g)` must compute bit-identical losses and gradients to
//! a fresh `clone_model()` + `set_params(g)`.

use taco_nn::{Batch, CharLstm, Mlp, Model, PaperCnn, TinyResNet};
use taco_tensor::{ops, Prng, Tensor};

/// Trains `reused` for a few SGD steps on `train` (leaving caches,
/// gradient accumulators and parameters from that client behind),
/// resets it to `global`, and checks it against a fresh clone of
/// `prototype` reset to the same parameters, on `probe` batches.
fn check_reuse(prototype: &dyn Model, train: &[Batch], probe: &[Batch]) {
    let global = prototype.clone_model().params();
    let mut reused = prototype.clone_model();
    for batch in train {
        let (_, g) = reused.loss_and_grad(batch);
        let mut w = reused.params();
        ops::axpy(&mut w, -0.1, &g);
        reused.set_params(&w);
    }
    assert_ne!(reused.params(), global, "training did not move the model");
    reused.set_params(&global);
    let mut fresh = prototype.clone_model();
    fresh.set_params(&global);
    for batch in probe {
        let (lr, gr) = reused.loss_and_grad(batch);
        let (lf, gf) = fresh.loss_and_grad(batch);
        assert_eq!(lr.to_bits(), lf.to_bits(), "loss differs after reuse");
        let bits = |g: &[f32]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gr), bits(&gf), "gradient differs after reuse");
    }
}

/// `n` image batches of `batch` samples each, `[batch, c, side, side]`.
fn image_batches(
    n: usize,
    batch: usize,
    c: usize,
    side: usize,
    classes: usize,
    rng: &mut Prng,
) -> Vec<Batch> {
    (0..n)
        .map(|_| {
            let x = Tensor::randn([batch, c, side, side], 1.0, rng);
            Batch::new(x, (0..batch).map(|_| rng.below(classes)).collect())
        })
        .collect()
}

#[test]
fn reused_mlp_matches_a_fresh_clone() {
    let mut rng = Prng::seed_from_u64(21);
    let m = Mlp::new(6, &[10, 5], 4, &mut rng);
    let mut batches = |n: usize, b: usize| -> Vec<Batch> {
        (0..n)
            .map(|_| {
                let x = Tensor::randn([b, 6], 1.0, &mut rng);
                Batch::new(x, (0..b).map(|i| i % 4).collect())
            })
            .collect()
    };
    // Different batch sizes for training and probing: cached
    // activations of the wrong shape must not leak through.
    let train = batches(3, 5);
    let probe = batches(2, 3);
    check_reuse(&m, &train, &probe);
}

#[test]
fn reused_paper_cnn_matches_a_fresh_clone() {
    let mut rng = Prng::seed_from_u64(22);
    let m = PaperCnn::new(1, 16, 3, 2, 8, &mut rng);
    let train = image_batches(2, 3, 1, 16, 3, &mut rng);
    let probe = image_batches(2, 2, 1, 16, 3, &mut rng);
    check_reuse(&m, &train, &probe);
}

#[test]
fn reused_tiny_resnet_matches_a_fresh_clone() {
    let mut rng = Prng::seed_from_u64(23);
    let m = TinyResNet::new(1, 8, 3, 4, &mut rng);
    let train = image_batches(2, 3, 1, 8, 3, &mut rng);
    let probe = image_batches(2, 2, 1, 8, 3, &mut rng);
    check_reuse(&m, &train, &probe);
}

#[test]
fn reused_char_lstm_matches_a_fresh_clone() {
    let mut rng = Prng::seed_from_u64(24);
    let m = CharLstm::new(8, 5, 6, &mut rng);
    let mut batches = |n: usize, b: usize, seq: usize| -> Vec<Batch> {
        (0..n)
            .map(|_| {
                let ids = (0..b * seq).map(|_| rng.below(8) as f32).collect();
                let x = Tensor::from_vec(ids, [b, seq]);
                Batch::new(x, (0..b).map(|_| rng.below(8)).collect())
            })
            .collect()
    };
    // A longer training sequence than the probe: per-step caches from
    // the first client must not survive into the second.
    let train = batches(3, 2, 5);
    let probe = batches(2, 3, 3);
    check_reuse(&m, &train, &probe);
}
