//! Deterministic pseudo-random number generation and samplers.
//!
//! Federated-learning experiments must be exactly reproducible across
//! runs and across thread schedules, so every stochastic component in
//! the workspace draws from a [`Prng`] seeded from an explicit `u64`.
//! The generator is xoshiro256++ (public domain algorithm by Blackman
//! and Vigna) seeded through SplitMix64.
//!
//! The sampler set covers what the paper needs: uniform and normal
//! variates for initialization and synthetic data, gamma variates
//! (Marsaglia–Tsang) to build the Dirichlet label-skew partitioner, and
//! categorical sampling for mini-batch and Markov-chain text generation.

/// Deterministic xoshiro256++ pseudo-random number generator.
///
/// # Example
///
/// ```
/// use taco_tensor::Prng;
///
/// let mut rng = Prng::seed_from_u64(42);
/// let x = rng.uniform_f32();
/// assert!((0.0..1.0).contains(&x));
///
/// // Same seed, same stream.
/// let mut rng2 = Prng::seed_from_u64(42);
/// assert_eq!(x, rng2.uniform_f32());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four words of xoshiro state are expanded from the seed with
    /// SplitMix64, which guarantees a well-mixed state even for small
    /// consecutive seeds (0, 1, 2, ...).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        Prng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// The generator of one `(round, client)` cell of a run seeded with
    /// `seed`.
    ///
    /// Pure in its arguments, so a cell's draws never depend on thread
    /// scheduling. Streams that must not correlate (client training,
    /// participation, faults, codec rounding) each pass the run seed
    /// XORed with their own named salt.
    pub fn for_cell(seed: u64, round: usize, client: usize) -> Self {
        Prng::seed_from_u64(
            seed ^ (round as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (client as u64).wrapping_mul(0xC2B2AE3D27D4EB4F),
        )
    }

    /// Derives an independent child generator.
    ///
    /// Used to hand every simulated client its own stream so that the
    /// order in which clients execute (or the number of worker threads)
    /// cannot change the results.
    pub fn split(&mut self, tag: u64) -> Prng {
        let a = self.next_u64();
        Prng::seed_from_u64(a ^ tag.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform variate in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` variate in `[0, 1)`.
    pub fn uniform_f32(&mut self) -> f32 {
        self.uniform_f64() as f32
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method; unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is undefined");
        let bound = bound as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as usize;
            }
            // Rejection zone for exact uniformity.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Returns a standard normal variate (Box–Muller, f64 precision).
    pub fn normal_f64(&mut self) -> f64 {
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Returns a standard normal `f32` variate.
    pub fn normal_f32(&mut self) -> f32 {
        self.normal_f64() as f32
    }

    /// Returns a gamma variate with shape `alpha > 0` and unit scale.
    ///
    /// Implements Marsaglia–Tsang squeeze for `alpha >= 1` and the
    /// standard boosting transform for `alpha < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not finite and positive.
    pub fn gamma(&mut self, alpha: f64) -> f64 {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "gamma shape must be finite and positive, got {alpha}"
        );
        if alpha < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
            let u: f64 = self.uniform_f64().max(f64::MIN_POSITIVE);
            return self.gamma(alpha + 1.0) * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal_f64();
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = self.uniform_f64();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }

    /// Returns a sample from `Dirichlet(alpha · 1_k)`.
    ///
    /// This is the symmetric Dirichlet used by the paper's `Dir(φ)`
    /// label-skew partitioner. The output sums to 1 (up to floating
    /// point) and has `k` components.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `alpha <= 0`.
    pub fn dirichlet(&mut self, alpha: f64, k: usize) -> Vec<f64> {
        assert!(k > 0, "dirichlet needs at least one component");
        let mut draws: Vec<f64> = (0..k).map(|_| self.gamma(alpha)).collect();
        let sum: f64 = draws.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            // Numerically degenerate draw (can happen for tiny alpha):
            // fall back to a one-hot split, which is the alpha → 0 limit.
            let hot = self.below(k);
            return (0..k).map(|i| if i == hot { 1.0 } else { 0.0 }).collect();
        }
        for d in &mut draws {
            *d /= sum;
        }
        draws
    }

    /// Samples an index from an unnormalized weight vector.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "categorical needs weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "categorical weights must sum to a positive finite value"
        );
        let mut u = self.uniform_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            u -= w;
            if u < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `n` distinct indices from `0..pool` (floyd-style when
    /// dense, shuffle otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `n > pool`.
    pub fn sample_indices(&mut self, pool: usize, n: usize) -> Vec<usize> {
        assert!(n <= pool, "cannot sample {n} from pool of {pool}");
        let mut all: Vec<usize> = (0..pool).collect();
        self.shuffle(&mut all);
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Prng::seed_from_u64(123);
        let mut b = Prng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        let mut parent = Prng::seed_from_u64(9);
        let mut c1 = parent.split(0);
        let mut c2 = parent.split(1);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = Prng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Prng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.uniform_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Prng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = Prng::seed_from_u64(21);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = Prng::seed_from_u64(31);
        for &alpha in &[0.3, 1.0, 2.5, 10.0] {
            let n = 30_000;
            let mean: f64 = (0..n).map(|_| rng.gamma(alpha)).sum::<f64>() / n as f64;
            assert!(
                (mean - alpha).abs() < 0.1 * alpha.max(1.0),
                "alpha {alpha} mean {mean}"
            );
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = Prng::seed_from_u64(41);
        for &alpha in &[0.1, 0.5, 5.0] {
            let p = rng.dirichlet(alpha, 10);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn small_alpha_dirichlet_is_peaky() {
        let mut rng = Prng::seed_from_u64(43);
        // Dir(0.05) draws should concentrate mass on few classes.
        let mut max_sum = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let p = rng.dirichlet(0.05, 10);
            max_sum += p.iter().cloned().fold(0.0, f64::max);
        }
        assert!(
            max_sum / trials as f64 > 0.7,
            "avg max {}",
            max_sum / trials as f64
        );
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = Prng::seed_from_u64(51);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.categorical(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Prng::seed_from_u64(61);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Prng::seed_from_u64(71);
        let s = rng.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 30);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Prng::seed_from_u64(0).below(0);
    }
}
