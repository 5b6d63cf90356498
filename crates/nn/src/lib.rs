//! Neural networks with manual backpropagation for the TACO reproduction.
//!
//! The paper trains four model families (Table IV): an MLP with hidden
//! layers 32-16-8 on tabular data, a CNN with two 5×5 convolutions and
//! three fully-connected layers on image data, ResNet18 on CIFAR-100,
//! and an LSTM on the Shakespeare next-character task. This crate
//! rebuilds all four from scratch on top of [`taco_tensor`]:
//!
//! - [`Mlp`] — the paper's 32-16-8 tabular model.
//! - [`PaperCnn`] — the 2×(5×5 conv) + 3×FC image model.
//! - [`TinyResNet`] — a residual CNN with GroupNorm standing in for
//!   ResNet18 at laptop scale (see DESIGN.md §3 for the substitution
//!   argument).
//! - [`CharLstm`] — an embedding + LSTM + projection next-symbol model.
//!
//! Every network is a [`Model`], whose contract is exactly what a
//! federated-learning algorithm needs: read/write the parameters as a
//! **flat `Vec<f32>`** and compute a mini-batch loss gradient as a flat
//! vector. A network implements only [`Network`]: its logits, which
//! keep backward caches only when training, and their backward pass
//! into its [`ParamBlock`]s. One generic implementation turns every
//! `Network` into a `Model`: the flat-vector plumbing, the softmax
//! cross-entropy loss, evaluation (the same forward pass, not
//! training) and cloning are written once. No autograd tape exists;
//! each layer implements its forward and backward pass explicitly and
//! is verified against finite differences in its unit tests.
//!
//! # Example
//!
//! ```
//! use taco_nn::{Batch, Mlp, Model};
//! use taco_tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::seed_from_u64(0);
//! let mut model = Mlp::new(4, &[8], 3, &mut rng);
//! let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
//! let batch = Batch::new(x, vec![0, 2]);
//! let (loss, grad) = model.loss_and_grad(&batch);
//! assert!(loss > 0.0);
//! assert_eq!(grad.len(), model.param_count());
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod activation;
pub mod batch;
pub mod cnn;
pub mod conv_layer;
pub mod dense;
pub mod loss;
pub mod lstm;
pub mod mlp;
pub mod model;
pub mod norm;
pub mod params;
pub mod resnet;

pub use batch::Batch;
pub use cnn::PaperCnn;
pub use lstm::CharLstm;
pub use mlp::Mlp;
pub use model::{evaluate, map_with_models, Model, Network};
pub use params::ParamBlock;
pub use resnet::TinyResNet;
