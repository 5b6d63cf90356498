//! Character-level LSTM for the Shakespeare-equivalent next-symbol
//! prediction task.
//!
//! Architecture: symbol embedding → single LSTM layer unrolled over the
//! input sequence → linear projection of the final hidden state to
//! next-symbol logits. This mirrors the LEAF Shakespeare model the
//! paper uses (embedding + LSTM + dense head) at reproduction scale.

use crate::batch::Batch;
use crate::model::Network;
use crate::params::{HasParams, ParamBlock};
use taco_tensor::{linalg, Prng, Tensor};

/// Numerically-stable sigmoid on a slice, in place.
fn sigmoid_inplace(xs: &mut [f32]) {
    for x in xs {
        *x = crate::activation::sigmoid(*x);
    }
}

/// Per-timestep cache for backpropagation through time.
#[derive(Clone)]
struct StepCache {
    /// Gate activations `[b, 4H]` in (i, f, g, o) order, post-nonlinearity.
    gates: Tensor,
    /// Cell state entering the step, `[b, H]`.
    c_prev: Tensor,
    /// Cell state leaving the step, `[b, H]`.
    c: Tensor,
    /// Hidden state entering the step, `[b, H]`.
    h_prev: Tensor,
    /// Embedded inputs for the step, `[b, E]`.
    x: Tensor,
    /// Symbol ids for the step (for embedding gradients).
    ids: Vec<usize>,
}

/// A single-layer character LSTM with an embedding table and a linear
/// output head.
///
/// Inputs are `[batch, seq_len]` symbol ids stored as `f32`; the target
/// is the symbol following the sequence.
#[derive(Clone)]
pub struct CharLstm {
    embed: ParamBlock,
    wx: ParamBlock,
    wh: ParamBlock,
    b: ParamBlock,
    w_out: ParamBlock,
    b_out: ParamBlock,
    vocab: usize,
    embed_dim: usize,
    hidden: usize,
    /// One cache per timestep of the last training pass.
    steps: Vec<StepCache>,
}

impl CharLstm {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(vocab: usize, embed_dim: usize, hidden: usize, rng: &mut Prng) -> Self {
        assert!(
            vocab > 0 && embed_dim > 0 && hidden > 0,
            "degenerate LSTM shape"
        );
        let lim_e = (1.0 / embed_dim as f32).sqrt();
        let lim_h = (1.0 / hidden as f32).sqrt();
        CharLstm {
            embed: ParamBlock::new(Tensor::rand_uniform([vocab, embed_dim], lim_e, rng)),
            wx: ParamBlock::new(Tensor::rand_uniform([4 * hidden, embed_dim], lim_e, rng)),
            wh: ParamBlock::new(Tensor::rand_uniform([4 * hidden, hidden], lim_h, rng)),
            b: ParamBlock::new(Tensor::zeros([4 * hidden])),
            w_out: ParamBlock::new(Tensor::rand_uniform([vocab, hidden], lim_h, rng)),
            b_out: ParamBlock::new(Tensor::zeros([vocab])),
            vocab,
            embed_dim,
            hidden,
            steps: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Looks up embeddings for one timestep's ids: `[b, E]`.
    fn embed_step(&self, ids: &[usize]) -> Tensor {
        let e = self.embed_dim;
        let mut out = Tensor::zeros([ids.len(), e]);
        for (i, &id) in ids.iter().enumerate() {
            assert!(
                id < self.vocab,
                "symbol id {id} out of vocab {}",
                self.vocab
            );
            out.row_mut(i)
                .copy_from_slice(&self.embed.value.data()[id * e..(id + 1) * e]);
        }
        out
    }

    /// Full forward pass; returns the final logits and, when `train`
    /// is set, one BPTT cache per timestep (none otherwise).
    fn forward(&self, batch: &Batch, train: bool) -> (Tensor, Vec<StepCache>) {
        let bsz = batch.len();
        let seq = batch.sample_len();
        let hid = self.hidden;
        let mut h = Tensor::zeros([bsz, hid]);
        let mut c = Tensor::zeros([bsz, hid]);
        let mut caches = Vec::with_capacity(if train { seq } else { 0 });
        for t in 0..seq {
            let ids: Vec<usize> = (0..bsz)
                .map(|i| batch.sample(i)[t].round() as usize)
                .collect();
            let x = self.embed_step(&ids);
            // Pre-activations: [b, 4H]
            let mut gates = linalg::matmul_nt(&x, &self.wx.value);
            let hh = linalg::matmul_nt(&h, &self.wh.value);
            gates += &hh;
            for i in 0..bsz {
                let row = gates.row_mut(i);
                for (j, v) in row.iter_mut().enumerate() {
                    *v += self.b.value.data()[j];
                }
            }
            // Nonlinearities per gate block (i, f, g, o). The states
            // entering the step are kept only for backpropagation.
            let prev = train.then(|| (c.clone(), h.clone()));
            for i in 0..bsz {
                let row = gates.row_mut(i);
                let (ii, rest) = row.split_at_mut(hid);
                let (ff, rest) = rest.split_at_mut(hid);
                let (gg, oo) = rest.split_at_mut(hid);
                sigmoid_inplace(ii);
                sigmoid_inplace(ff);
                for v in gg.iter_mut() {
                    *v = v.tanh();
                }
                sigmoid_inplace(oo);
                let crow = c.row_mut(i);
                for j in 0..hid {
                    crow[j] = ff[j] * crow[j] + ii[j] * gg[j];
                }
                let hrow = h.row_mut(i);
                for j in 0..hid {
                    hrow[j] = oo[j] * crow[j].tanh();
                }
            }
            if let Some((c_prev, h_prev)) = prev {
                caches.push(StepCache {
                    gates,
                    c_prev,
                    c: c.clone(),
                    h_prev,
                    x,
                    ids,
                });
            }
        }
        // Output head on the final hidden state.
        let mut logits = linalg::matmul_nt(&h, &self.w_out.value);
        for i in 0..bsz {
            let row = logits.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v += self.b_out.value.data()[j];
            }
        }
        (logits, caches)
    }

    /// Backpropagation through time given the loss gradient w.r.t. the
    /// final logits.
    fn backward_through_time(&mut self, grad_logits: &Tensor, caches: &[StepCache]) {
        let bsz = grad_logits.dims()[0];
        let hid = self.hidden;
        let last_h = {
            // Reconstruct final h from the last cache (o * tanh(c)).
            // taco-check: allow(unwrap, forward pushes one cache per timestep and seq_len ≥ 1; an empty cache list is a caller bug named by the message)
            let cache = caches.last().expect("empty sequence");
            let mut h = Tensor::zeros([bsz, hid]);
            for i in 0..bsz {
                let gates = cache.gates.row(i);
                let crow = cache.c.row(i);
                let hrow = h.row_mut(i);
                for j in 0..hid {
                    hrow[j] = gates[3 * hid + j] * crow[j].tanh();
                }
            }
            h
        };
        // Head gradients.
        let dwout = linalg::matmul_tn(grad_logits, &last_h);
        self.w_out.grad += &dwout;
        for j in 0..self.vocab {
            let mut s = 0.0;
            for i in 0..bsz {
                s += grad_logits.data()[i * self.vocab + j];
            }
            self.b_out.grad.data_mut()[j] += s;
        }
        let mut dh = linalg::matmul(grad_logits, &self.w_out.value);
        let mut dc = Tensor::zeros([bsz, hid]);
        // Walk timesteps in reverse.
        for (step, cache) in caches.iter().enumerate().rev() {
            // Gate pre-activation gradients [b, 4H].
            let mut da = Tensor::zeros([bsz, 4 * hid]);
            for i in 0..bsz {
                let gates = cache.gates.row(i);
                let crow = cache.c.row(i);
                let cprev = cache.c_prev.row(i);
                let dhrow = dh.row(i);
                let dcrow = dc.row_mut(i);
                let darow = da.row_mut(i);
                for j in 0..hid {
                    let ii = gates[j];
                    let ff = gates[hid + j];
                    let gg = gates[2 * hid + j];
                    let oo = gates[3 * hid + j];
                    let tc = crow[j].tanh();
                    let dxo = dhrow[j] * tc;
                    let dcj = dcrow[j] + dhrow[j] * oo * (1.0 - tc * tc);
                    darow[j] = dcj * gg * ii * (1.0 - ii);
                    darow[hid + j] = dcj * cprev[j] * ff * (1.0 - ff);
                    darow[2 * hid + j] = dcj * ii * (1.0 - gg * gg);
                    darow[3 * hid + j] = dxo * oo * (1.0 - oo);
                    // Cell gradient flowing to the previous step.
                    dcrow[j] = dcj * ff;
                }
            }
            // Parameter gradients.
            let dwx = linalg::matmul_tn(&da, &cache.x);
            self.wx.grad += &dwx;
            let dwh = linalg::matmul_tn(&da, &cache.h_prev);
            self.wh.grad += &dwh;
            for j in 0..4 * hid {
                let mut s = 0.0;
                for i in 0..bsz {
                    s += da.data()[i * 4 * hid + j];
                }
                self.b.grad.data_mut()[j] += s;
            }
            // Input gradients → embedding rows.
            let dx = linalg::matmul(&da, &self.wx.value);
            let e = self.embed_dim;
            for (i, &id) in cache.ids.iter().enumerate() {
                let ge = &mut self.embed.grad.data_mut()[id * e..(id + 1) * e];
                for (gj, &dj) in ge.iter_mut().zip(dx.row(i)) {
                    *gj += dj;
                }
            }
            // Hidden gradient flowing to the previous step; the state
            // before step 0 is a constant zero, so nothing reads it.
            if step > 0 {
                dh = linalg::matmul(&da, &self.wh.value);
            }
        }
    }
}

impl HasParams for CharLstm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.embed);
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.b);
        f(&mut self.w_out);
        f(&mut self.b_out);
    }
}

impl Network for CharLstm {
    fn logits(&mut self, batch: &Batch, train: bool) -> Tensor {
        let (logits, steps) = self.forward(batch, train);
        self.steps = steps;
        logits
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let steps = std::mem::take(&mut self.steps);
        self.backward_through_time(grad_logits, &steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    fn tiny() -> (CharLstm, Batch) {
        let mut rng = Prng::seed_from_u64(13);
        let m = CharLstm::new(6, 4, 5, &mut rng);
        // Two sequences of length 3.
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [2, 3]);
        (m, Batch::new(x, vec![3, 0]))
    }

    #[test]
    fn forward_shapes() {
        let (m, batch) = tiny();
        let (logits, caches) = m.forward(&batch, true);
        assert_eq!(logits.dims(), &[2, 6]);
        assert_eq!(caches.len(), 3);
        // Evaluation builds no step caches and computes the same bits.
        let (eval_logits, eval_caches) = m.forward(&batch, false);
        assert!(eval_caches.is_empty());
        assert_eq!(eval_logits, logits);
    }

    #[test]
    fn param_roundtrip() {
        let (mut m, _) = tiny();
        let p = m.params();
        assert_eq!(p.len(), m.param_count());
        let shifted: Vec<f32> = p.iter().map(|x| x - 0.25).collect();
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
        for &i in &[0, n / 6, n / 3, n / 2, 2 * n / 3, 5 * n / 6, n - 1] {
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
    fn sgd_learns_constant_mapping() {
        // Every sequence maps to target symbol 2; the model should fit it.
        let mut rng = Prng::seed_from_u64(17);
        let mut m = CharLstm::new(5, 3, 6, &mut rng);
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 0.0], [2, 3]);
        let batch = Batch::new(x, vec![2, 2]);
        let (l0, _) = m.loss_and_accuracy(&batch);
        for _ in 0..120 {
            let (_, g) = m.loss_and_grad(&batch);
            let mut p = m.params();
            taco_tensor::ops::axpy(&mut p, -0.5, &g);
            m.set_params(&p);
        }
        let (l1, acc) = m.loss_and_accuracy(&batch);
        assert!(l1 < l0 * 0.2, "loss did not drop enough: {l0} -> {l1}");
        assert_eq!(acc, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn out_of_vocab_id_panics() {
        let (m, _) = tiny();
        let x = Tensor::from_vec(vec![9.0], [1, 1]);
        let batch = Batch::new(x, vec![0]);
        let _ = m.forward(&batch, false);
    }
}
