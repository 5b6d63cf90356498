//! Facade crate re-exporting the TACO reproduction public API.
//!
//! See the individual crates for details:
//! - [`taco_tensor`] — dense tensor math substrate
//! - [`taco_nn`] — neural networks with manual backprop
//! - [`taco_data`] — synthetic federated datasets and partitioners
//! - [`taco_core`] — FL algorithms (TACO + six baselines)
//! - [`taco_sim`] — federated simulation runtime
//! - [`taco_trace`] — structured tracing and metrics, including the
//!   metrics snapshot that `taco-bench`'s run manifests embed

pub use taco_core as core;
pub use taco_data as data;
pub use taco_nn as nn;
pub use taco_sim as sim;
pub use taco_tensor as tensor;
pub use taco_trace as trace;
