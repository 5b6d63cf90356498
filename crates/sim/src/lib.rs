//! Federated-learning simulation runtime.
//!
//! Drives a parameter-server round loop (Section II of the paper) over
//! any [`taco_core::FederatedAlgorithm`]:
//!
//! - [`runner`] — the [`runner::Simulation`] round loop with optional
//!   parallel client execution (on the `taco_tensor::pool` workers)
//!   and deterministic per-client RNG streams, so results are
//!   independent of thread scheduling. Each round is planned (private
//!   `plan` module: expulsion filtering, participation and fault draws),
//!   executed (`client`), uploaded (`server`), aggregated by the
//!   algorithm's [`taco_core::FederatedAlgorithm::aggregate`], and
//!   recorded.
//! - [`freeloader`] — ground-truth client behaviours: honest clients
//!   train; lazy freeloaders (Section IV-A) re-upload the previous
//!   global update.
//! - [`metrics`] — per-round records and the paper's two efficiency
//!   metrics: round-to-accuracy and time-to-accuracy (cumulative
//!   slowest-client compute time, Figs. 2 and 4).
//! - [`fault`] — deterministic, seeded fault injection (dropouts,
//!   stragglers with a synchronous server deadline, wire corruption)
//!   plus server-side update validation/quarantine.
//! - [`detection`] — the detection scoreboard: participation-aware
//!   TPR/FPR scoring (Table VIII) and per-round detection curves with
//!   time-to-detection.
//! - [`comm`] — a communication-time model for studying the paper's
//!   network-dominant regime (Section V-A's discussion).
//!
//! # Example
//!
//! ```no_run
//! use taco_core::{AggWeighting, FedAvg, HyperParams};
//! use taco_data::{partition, vision, FederatedDataset};
//! use taco_nn::Mlp;
//! use taco_sim::runner::{SimConfig, Simulation};
//! use taco_tensor::Prng;
//!
//! let mut rng = Prng::seed_from_u64(7);
//! let spec = vision::VisionSpec::mnist_like().with_sizes(400, 100);
//! let data = vision::generate(&spec, &mut rng);
//! let shards = partition::dirichlet(data.train.labels(), 4, 0.5, &mut rng);
//! let fed = FederatedDataset::from_partition(data.train, data.test, &shards);
//! let model = Mlp::new(784, &[32], 10, &mut rng);
//! let hyper = HyperParams::new(4, 10, 0.01, 32);
//! let config = SimConfig::new(hyper, 5, 7);
//! let history = Simulation::new(fed, Box::new(model), Box::new(FedAvg::default()), config).run();
//! println!("final accuracy {:.1}%", history.final_accuracy() * 100.0);
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod client;
pub mod comm;
pub mod detection;
pub mod fault;
pub mod freeloader;
pub mod metrics;
pub mod phase;
mod plan;
pub mod runner;
mod server;

pub use fault::{Corruption, Deadline, FaultKind, FaultPlan, RejectReason, ValidationPolicy};
pub use freeloader::ClientBehavior;
pub use metrics::{FaultTotals, History, RoundRecord};
pub use runner::{SimConfig, Simulation};
