//! Shared hyper-parameters of the federated training loop.

/// The hyper-parameters every algorithm shares (Section V-A of the
/// paper): client count `N`, local steps `K`, local and global learning
/// rates `η_l`, `η_g`, and the mini-batch size `s`.
///
/// The paper's default is `η_g = K · η_l`, which
/// [`HyperParams::new`] applies; the fields are public for a caller
/// that needs another value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperParams {
    /// Number of clients `N` (full participation).
    pub num_clients: usize,
    /// Local update steps per round `K`.
    pub local_steps: usize,
    /// Local learning rate `η_l`.
    pub eta_l: f32,
    /// Global learning rate `η_g`.
    pub eta_g: f32,
    /// Mini-batch size `s`.
    pub batch_size: usize,
}

impl HyperParams {
    /// Creates hyper-parameters with the paper's default
    /// `η_g = K · η_l`.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `eta_l` is not positive/finite.
    pub fn new(num_clients: usize, local_steps: usize, eta_l: f32, batch_size: usize) -> Self {
        assert!(num_clients > 0, "need at least one client");
        assert!(local_steps > 0, "need at least one local step");
        assert!(batch_size > 0, "need a positive batch size");
        assert!(
            eta_l.is_finite() && eta_l > 0.0,
            "eta_l must be positive and finite, got {eta_l}"
        );
        HyperParams {
            num_clients,
            local_steps,
            eta_l,
            eta_g: local_steps as f32 * eta_l,
            batch_size,
        }
    }

    /// The product `K · η_l` — the normalizer the paper's aggregation
    /// rules divide by to convert accumulated parameter-space deltas
    /// into gradient-scale updates.
    pub fn k_eta_l(&self) -> f32 {
        self.local_steps as f32 * self.eta_l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_eta_g_is_k_eta_l() {
        let h = HyperParams::new(20, 100, 0.01, 64);
        assert!((h.eta_g - 1.0).abs() < 1e-6);
        assert!((h.k_eta_l() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_panics() {
        let _ = HyperParams::new(1, 1, 0.1, 0);
    }
}
