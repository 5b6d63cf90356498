//! Synthetic federated datasets and non-IID partitioners.
//!
//! The paper evaluates on eight datasets (Table IV). None of them can
//! be bundled offline, so this crate generates **synthetic equivalents
//! with matching shape and difficulty ordering** (the substitution
//! argument is in DESIGN.md §3: over-correction is driven by
//! label-distribution skew across clients, which the partitioners
//! below reproduce exactly, not by pixel statistics):
//!
//! - [`vision`] — class-prototype image generators standing in for
//!   MNIST, FMNIST, FEMNIST, SVHN, CIFAR-10 and CIFAR-100.
//! - [`tabular`] — a mixture-of-Gaussians binary task standing in for
//!   `adult`.
//! - [`text`] — per-client Markov-chain symbol streams standing in for
//!   the LEAF Shakespeare next-character task (naturally non-IID, like
//!   LEAF's per-role split).
//! - [`partition`] — the paper's partitioners: `Dir(φ)` label skew,
//!   the synthetic Group A/B/C label-diversity split (Table II), and
//!   IID.
//! - [`federated`] — a partitioned dataset bundle: one training shard
//!   per client plus a shared test set.
//!
//! # Example
//!
//! ```
//! use taco_data::{partition, vision, federated::FederatedDataset};
//! use taco_tensor::Prng;
//!
//! let mut rng = Prng::seed_from_u64(1);
//! let spec = vision::VisionSpec::mnist_like().with_sizes(200, 50);
//! let data = vision::generate(&spec, &mut rng);
//! let shards = partition::dirichlet(data.train.labels(), 4, 0.5, &mut rng);
//! let fed = FederatedDataset::from_partition(data.train, data.test, &shards);
//! assert_eq!(fed.num_clients(), 4);
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dataset;
pub mod federated;
pub mod partition;
pub mod tabular;
pub mod text;
pub mod vision;

pub use dataset::{Dataset, TrainTest};
pub use federated::FederatedDataset;
