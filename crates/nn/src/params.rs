//! Flat parameter-vector plumbing.
//!
//! Federated-learning algorithms exchange model state as flat `f32`
//! vectors. Every layer in this crate stores its parameters and
//! gradient accumulators as [`ParamBlock`]s and exposes them through
//! [`HasParams::visit_params`]; the helpers here flatten and restore
//! whole models through that single hook.

use taco_tensor::Tensor;

/// One parameter tensor together with its gradient accumulator.
///
/// The gradient has the same shape as the value and is accumulated by
/// the layer's backward pass until [`ParamBlock::zero_grad`] is called.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBlock {
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl ParamBlock {
    /// Creates a block from an initial value, with a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        ParamBlock { value, grad }
    }

    /// Number of scalar parameters in the block.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if the block holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Resets the gradient accumulator to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad.data_mut() {
            *g = 0.0;
        }
    }
}

/// Implemented by every layer and model that owns parameters.
pub trait HasParams {
    /// Calls `f` on each parameter block in a fixed, deterministic
    /// order. The order defines the layout of the flat vectors used by
    /// [`flatten_params`] and friends, so it must never depend on
    /// runtime state.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock));
}

/// Total number of scalar parameters.
pub fn param_count(target: &mut dyn HasParams) -> usize {
    let mut n = 0;
    target.visit_params(&mut |b| n += b.len());
    n
}

/// Flattens all parameter values into one vector, allocated once at
/// its final length.
pub fn flatten_params(target: &mut dyn HasParams) -> Vec<f32> {
    let mut out = Vec::with_capacity(param_count(target));
    target.visit_params(&mut |b| out.extend_from_slice(b.value.data()));
    out
}

/// Flattens all accumulated gradients into one vector, allocated once
/// at its final length.
pub fn flatten_grads(target: &mut dyn HasParams) -> Vec<f32> {
    let mut out = Vec::with_capacity(param_count(target));
    target.visit_params(&mut |b| out.extend_from_slice(b.grad.data()));
    out
}

/// Writes a flat vector back into the parameter blocks.
///
/// # Panics
///
/// Panics if `flat.len()` differs from the model's parameter count.
pub fn unflatten_params(target: &mut dyn HasParams, flat: &[f32]) {
    let mut offset = 0;
    target.visit_params(&mut |b| {
        let n = b.len();
        assert!(
            offset + n <= flat.len(),
            "flat parameter vector too short: need more than {} values",
            flat.len()
        );
        b.value
            .data_mut()
            .copy_from_slice(&flat[offset..offset + n]);
        offset += n;
    });
    assert_eq!(
        offset,
        flat.len(),
        "flat parameter vector too long: expected {offset} values, got {}",
        flat.len()
    );
}

/// Zeroes every gradient accumulator.
pub fn zero_grads(target: &mut dyn HasParams) {
    target.visit_params(&mut |b| b.zero_grad());
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoBlocks {
        a: ParamBlock,
        b: ParamBlock,
    }

    impl HasParams for TwoBlocks {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    fn fixture() -> TwoBlocks {
        TwoBlocks {
            a: ParamBlock::new(Tensor::from_vec(vec![1.0, 2.0], [2])),
            b: ParamBlock::new(Tensor::from_vec(vec![3.0, 4.0, 5.0], [3])),
        }
    }

    #[test]
    fn count_and_flatten() {
        let mut t = fixture();
        assert_eq!(param_count(&mut t), 5);
        assert_eq!(flatten_params(&mut t), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn unflatten_roundtrip() {
        let mut t = fixture();
        let new = vec![9.0, 8.0, 7.0, 6.0, 5.0];
        unflatten_params(&mut t, &new);
        assert_eq!(flatten_params(&mut t), new);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn unflatten_too_long_panics() {
        let mut t = fixture();
        unflatten_params(&mut t, &[0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unflatten_too_short_panics() {
        let mut t = fixture();
        unflatten_params(&mut t, &[0.0; 3]);
    }

    #[test]
    fn zero_grads_clears_accumulators() {
        let mut t = fixture();
        t.a.grad.data_mut()[0] = 3.0;
        zero_grads(&mut t);
        assert_eq!(flatten_grads(&mut t), vec![0.0; 5]);
    }
}
