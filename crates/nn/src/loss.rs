//! Softmax cross-entropy loss.

use taco_tensor::Tensor;

/// Computes mean softmax cross-entropy loss over a batch of logits and
/// the gradient with respect to the logits.
///
/// `logits` is `[batch, classes]`; `targets` holds one class index per
/// row. Returns `(loss, grad_logits)` where the gradient is already
/// divided by the batch size (so the model's flat gradient is the
/// gradient of the *mean* loss, matching Eq. 3 of the paper).
///
/// # Panics
///
/// Panics if shapes disagree or a target index is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().ndim(), 2, "logits must be 2-D");
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(b, targets.len(), "target count mismatch");
    let mut grad = Tensor::zeros(logits.shape().clone());
    let mut loss = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        let row = logits.row(i);
        assert!(t < c, "target {t} out of range for {c} classes");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f64;
        for &x in row {
            denom += ((x - max) as f64).exp();
        }
        let log_denom = denom.ln();
        loss += log_denom - (row[t] - max) as f64;
        let grow = grad.row_mut(i);
        for (j, &x) in row.iter().enumerate() {
            let p = (((x - max) as f64).exp() / denom) as f32;
            grow[j] = (p - if j == t { 1.0 } else { 0.0 }) / b as f32;
        }
    }
    ((loss / b as f64) as f32, grad)
}

/// Counts correct argmax predictions.
pub fn count_correct(logits: &Tensor, targets: &[usize]) -> usize {
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    let mut correct = 0;
    for (i, &t) in targets.iter().enumerate().take(b) {
        let row = &logits.data()[i * c..(i + 1) * c];
        let mut best = 0;
        for (j, &x) in row.iter().enumerate() {
            if x > row[best] {
                best = j;
            }
        }
        if best == t {
            correct += 1;
        }
    }
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_tensor::Prng;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros([2, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_loss_near_zero() {
        let mut logits = Tensor::zeros([1, 3]);
        logits.set(&[0, 1], 50.0);
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = Prng::seed_from_u64(1);
        let logits = Tensor::randn([3, 5], 2.0, &mut rng);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 2, 4]);
        for i in 0..3 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Prng::seed_from_u64(2);
        let logits = Tensor::randn([2, 3], 1.0, &mut rng);
        let targets = [1usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut p = logits.clone();
            p.data_mut()[i] += eps;
            let (up, _) = softmax_cross_entropy(&p, &targets);
            p.data_mut()[i] -= 2.0 * eps;
            let (dn, _) = softmax_cross_entropy(&p, &targets);
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (fd - grad.data()[i]).abs() < 1e-3,
                "logit {i}: fd {fd} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn extreme_logits_are_stable() {
        let logits = Tensor::from_vec(vec![1000.0, -1000.0], [1, 2]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn count_correct_counts() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0, 9.0, 1.0], [2, 3]);
        assert_eq!(count_correct(&logits, &[2, 1]), 2);
        assert_eq!(count_correct(&logits, &[0, 1]), 1);
    }
}
