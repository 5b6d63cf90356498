//! TACO and baseline federated-learning algorithms.
//!
//! This crate is the paper's primary contribution plus every baseline
//! it compares against, all implemented against the same two
//! abstractions:
//!
//! - [`update::run_local_steps`] executes the **client side** of
//!   Algorithm 1/2 — `K` mini-batch SGD steps whose effective gradient
//!   `v_{i,k}` is described by a [`update::LocalRule`] value. Every
//!   algorithm's local behaviour (FedProx's proximal pull, SCAFFOLD's
//!   control-variate shift, STEM's two-gradient momentum recursion,
//!   TACO's `γ(1−α_i^t)Δ_t` correction) is *data*, not code, which
//!   keeps the seven algorithms directly comparable and independently
//!   testable.
//! - [`algorithm::FederatedAlgorithm`] is the **server side**: build
//!   each client's rule for the round, aggregate the uploaded
//!   accumulated gradients `Δ_i^t`, and advance the global model.
//!
//! Implemented algorithms:
//!
//! | Module | Paper reference |
//! |---|---|
//! | [`fedavg`] | McMahan et al. (baseline) |
//! | [`fednova`] | normalized averaging (related-work baseline, §VI) |
//! | [`feddyn`] | dynamic regularization (related-work baseline, §VI) |
//! | [`fedprox`] | loss-regularization correction |
//! | [`foolsgold`] | aggregation calibration |
//! | [`scaffold`] | control-variate momentum correction |
//! | [`stem`] | two-sided momentum |
//! | [`fedacg`] | momentum + regularization (SOTA baseline) |
//! | [`taco`] | **the paper's contribution** (Algorithm 2) |
//! | [`tailored`] | Fig. 6 hybrids: FedProx/SCAFFOLD with TACO's tailored coefficients |
//!
//! The tailored correction coefficient `α_i^t` of Eq. 7 lives in
//! [`alpha`], shared by [`taco`] and [`tailored`].

#![deny(missing_docs)]

pub mod algorithm;
pub mod alpha;
pub mod compress;
pub mod fedacg;
pub mod fedavg;
pub mod feddyn;
pub mod fednova;
pub mod fedprox;
pub mod foolsgold;
pub mod hyper;
pub mod scaffold;
pub mod stem;
pub mod taco;
pub mod tailored;
pub mod update;

pub use algorithm::{
    aggregate_planned, combine_weighted, weighted_mean, AggWeighting, CostProfile,
    FederatedAlgorithm, UploadStats, WeightedCombine,
};
pub use fedacg::FedAcg;
pub use fedavg::FedAvg;
pub use feddyn::FedDyn;
pub use fednova::FedNova;
pub use fedprox::FedProx;
pub use foolsgold::FoolsGold;
pub use hyper::HyperParams;
pub use scaffold::Scaffold;
pub use stem::Stem;
pub use taco::Taco;
pub use tailored::{TailoredProx, TailoredScaffold};
pub use update::{ClientUpdate, LocalOutcome, LocalRule};
