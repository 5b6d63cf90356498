//! Dense tensor and linear-algebra substrate for the TACO reproduction.
//!
//! This crate is the mathematical foundation every other crate in the
//! workspace builds on. It provides:
//!
//! - [`Tensor`]: a dense, row-major, `f32` n-dimensional array with the
//!   element-wise and reduction operations needed for neural-network
//!   training.
//! - [`linalg`]: cache-blocked, register-tiled matrix multiplication
//!   (plain / transposed variants) with runtime AVX dispatch and
//!   bit-exact naive reference kernels for differential testing.
//! - [`conv`]: `im2col`-based 2-D convolution and max-pooling
//!   forward/backward kernels.
//! - [`pool`]: a persistent worker pool (`TACO_THREADS`) that the
//!   matmul/conv kernels and the simulation's client loop share;
//!   partitioning is size-independent so results are bit-identical at
//!   any thread count.
//! - [`ops`]: flat-vector helpers (`dot`, `norm`, `cosine_similarity`,
//!   `axpy`, ...) used pervasively by the federated-learning algorithms,
//!   which treat model parameters as flat `&[f32]` slices.
//! - [`rng`]: a deterministic xoshiro256++ PRNG with normal, gamma,
//!   Dirichlet and categorical samplers (the offline `rand` crate does
//!   not ship `rand_distr`, so the distributions needed by the paper's
//!   Dirichlet partitioner are implemented here).
//! - [`stats`]: small summary-statistics helpers used by the metrics
//!   pipeline.
//!
//! # Example
//!
//! ```
//! use taco_tensor::{Tensor, linalg};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = linalg::matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(missing_docs)]

pub mod conv;
mod ktrace;
pub mod linalg;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod stats;
mod tensor;

pub use rng::Prng;
pub use shape::Shape;
pub use tensor::Tensor;
