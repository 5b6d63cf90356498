//! Group normalization.
//!
//! `TinyResNet` uses GroupNorm rather than BatchNorm: it is
//! batch-size-independent, which matters in federated learning where
//! clients train on small, skewed mini-batches (BatchNorm's running
//! statistics are themselves a known source of client drift, which
//! would confound the over-correction effect the paper studies).

use crate::params::{HasParams, ParamBlock};
use taco_tensor::Tensor;

const EPS: f32 = 1e-5;

/// Group normalization over `[channels, spatial]` feature maps with a
/// learnable per-channel affine transform.
#[derive(Debug, Clone)]
pub struct GroupNorm {
    gamma: ParamBlock,
    beta: ParamBlock,
    groups: usize,
    channels: usize,
    // Per-sample caches from the last forward pass.
    cache: Vec<SampleCache>,
}

#[derive(Debug, Clone)]
struct SampleCache {
    normalized: Vec<f32>,
    inv_std: Vec<f32>,
}

impl GroupNorm {
    /// Creates a GroupNorm layer.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is not divisible by `groups`.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert_eq!(
            channels % groups,
            0,
            "channels {channels} not divisible by groups {groups}"
        );
        GroupNorm {
            gamma: ParamBlock::new(Tensor::full([channels], 1.0)),
            beta: ParamBlock::new(Tensor::zeros([channels])),
            groups,
            channels,
            cache: Vec::new(),
        }
    }

    /// Clears cached activations (start of a new forward pass).
    pub fn reset_cache(&mut self) {
        self.cache.clear();
    }

    /// Normalizes one sample's `[channels, hw]` feature map in place.
    /// With `train` set it appends the sample's cache entry for
    /// [`GroupNorm::backward_sample`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of the channel count.
    pub fn forward_sample(&mut self, x: &mut [f32], train: bool) {
        assert_eq!(x.len() % self.channels, 0, "feature map size mismatch");
        let hw = x.len() / self.channels;
        let group_ch = self.channels / self.groups;
        let group_len = group_ch * hw;
        let mut normalized = vec![0.0f32; x.len()];
        let mut inv_std = vec![0.0f32; self.groups];
        for g in 0..self.groups {
            let span = &x[g * group_len..(g + 1) * group_len];
            let mean = span.iter().sum::<f32>() / group_len as f32;
            let var = span.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / group_len as f32;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std[g] = istd;
            for (i, &v) in span.iter().enumerate() {
                normalized[g * group_len + i] = (v - mean) * istd;
            }
        }
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        for c in 0..self.channels {
            for s in 0..hw {
                let i = c * hw + s;
                x[i] = gamma[c] * normalized[i] + beta[c];
            }
        }
        if train {
            self.cache.push(SampleCache {
                normalized,
                inv_std,
            });
        }
    }

    /// Backward pass for sample `idx` (in forward order): transforms
    /// `grad` (gradient w.r.t. the layer output) into the gradient
    /// w.r.t. the layer input, in place, and accumulates γ/β gradients.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has no cache entry or sizes mismatch.
    pub fn backward_sample(&mut self, idx: usize, grad: &mut [f32]) {
        let cache = &self.cache[idx];
        assert_eq!(grad.len(), cache.normalized.len(), "gradient size mismatch");
        let hw = grad.len() / self.channels;
        let group_ch = self.channels / self.groups;
        let group_len = group_ch * hw;
        let gamma = self.gamma.value.data().to_vec();
        // Accumulate per-channel affine gradients.
        {
            let ggamma = self.gamma.grad.data_mut();
            for c in 0..self.channels {
                let mut s = 0.0;
                for sp in 0..hw {
                    s += grad[c * hw + sp] * cache.normalized[c * hw + sp];
                }
                ggamma[c] += s;
            }
        }
        {
            let gbeta = self.beta.grad.data_mut();
            for c in 0..self.channels {
                gbeta[c] += grad[c * hw..(c + 1) * hw].iter().sum::<f32>();
            }
        }
        // Gradient w.r.t. normalized values.
        let mut gnorm = vec![0.0f32; grad.len()];
        for c in 0..self.channels {
            for sp in 0..hw {
                gnorm[c * hw + sp] = grad[c * hw + sp] * gamma[c];
            }
        }
        // Within-group whitening backward.
        for g in 0..self.groups {
            let lo = g * group_len;
            let hi = lo + group_len;
            let gn = &gnorm[lo..hi];
            let xn = &cache.normalized[lo..hi];
            let mean_g = gn.iter().sum::<f32>() / group_len as f32;
            let mean_gx = gn.iter().zip(xn).map(|(a, b)| a * b).sum::<f32>() / group_len as f32;
            let istd = cache.inv_std[g];
            for i in 0..group_len {
                grad[lo + i] = istd * (gn[i] - mean_g - xn[i] * mean_gx);
            }
        }
    }
}

impl HasParams for GroupNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_tensor::Prng;

    #[test]
    fn forward_normalizes_groups() {
        let mut gn = GroupNorm::new(4, 2);
        let mut rng = Prng::seed_from_u64(1);
        let mut x: Vec<f32> = (0..4 * 9).map(|_| rng.normal_f32() * 3.0 + 1.0).collect();
        gn.forward_sample(&mut x, true);
        // After the identity affine (γ=1, β=0) each group has ~zero
        // mean and ~unit variance.
        for g in 0..2 {
            let span = &x[g * 18..(g + 1) * 18];
            let mean = span.iter().sum::<f32>() / 18.0;
            let var = span.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 18.0;
            assert!(mean.abs() < 1e-4, "group {g} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "group {g} var {var}");
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let channels = 4;
        let hw = 3;
        let mut rng = Prng::seed_from_u64(2);
        let x0: Vec<f32> = (0..channels * hw).map(|_| rng.normal_f32()).collect();
        // Random (fixed) downstream gradient for a general test.
        let gout: Vec<f32> = (0..channels * hw).map(|_| rng.normal_f32()).collect();
        let loss = |gn: &mut GroupNorm, x: &[f32]| -> f32 {
            gn.reset_cache();
            let mut y = x.to_vec();
            gn.forward_sample(&mut y, true);
            y.iter().zip(&gout).map(|(a, b)| a * b).sum()
        };
        let mut gn = GroupNorm::new(channels, 2);
        // Non-trivial affine parameters.
        gn.gamma
            .value
            .data_mut()
            .copy_from_slice(&[1.5, 0.5, 2.0, 1.0]);
        gn.beta
            .value
            .data_mut()
            .copy_from_slice(&[0.1, -0.2, 0.0, 0.3]);
        let _ = loss(&mut gn, &x0);
        let mut grad = gout.clone();
        gn.backward_sample(0, &mut grad);

        let eps = 1e-2f32;
        for i in 0..x0.len() {
            let mut p = x0.clone();
            p[i] += eps;
            let up = loss(&mut gn, &p);
            p[i] -= 2.0 * eps;
            let dn = loss(&mut gn, &p);
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 2e-2,
                "input {i}: fd {fd} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn affine_param_gradients_match_finite_differences() {
        let channels = 2;
        let hw = 4;
        let mut rng = Prng::seed_from_u64(3);
        let x0: Vec<f32> = (0..channels * hw).map(|_| rng.normal_f32()).collect();
        let mut gn = GroupNorm::new(channels, 1);
        gn.reset_cache();
        let mut y = x0.clone();
        gn.forward_sample(&mut y, true);
        let mut grad = vec![1.0f32; x0.len()];
        gn.backward_sample(0, &mut grad);
        let ggamma = gn.gamma.grad.data().to_vec();
        let eps = 1e-3f32;
        #[allow(
            clippy::needless_range_loop,
            reason = "c indexes three parallel structures"
        )]
        for c in 0..channels {
            let mut up_gn = gn.clone();
            up_gn.gamma.value.data_mut()[c] += eps;
            up_gn.reset_cache();
            let mut yu = x0.clone();
            up_gn.forward_sample(&mut yu, true);
            let mut dn_gn = gn.clone();
            dn_gn.gamma.value.data_mut()[c] -= eps;
            dn_gn.reset_cache();
            let mut yd = x0.clone();
            dn_gn.forward_sample(&mut yd, true);
            let fd = (yu.iter().sum::<f32>() - yd.iter().sum::<f32>()) / (2.0 * eps);
            assert!(
                (fd - ggamma[c]).abs() < 1e-2,
                "gamma {c}: {fd} vs {}",
                ggamma[c]
            );
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_group_count_panics() {
        let _ = GroupNorm::new(6, 4);
    }
}
