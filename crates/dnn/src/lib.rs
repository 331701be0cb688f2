//! # forms-dnn
//!
//! A from-scratch CPU deep-learning substrate for the FORMS (ISCA 2021)
//! reproduction.
//!
//! The paper trains its models with PyTorch on an 8-GPU server; nothing of
//! that ecosystem exists in offline Rust, so this crate provides the pieces
//! the ADMM optimization framework and the accelerator simulator need:
//!
//! - [`Layer`] — conv / linear / pooling / normalization / activation layers
//!   with full backpropagation,
//! - [`Network`] — a composable feed-forward network (with residual blocks
//!   for the ResNet family),
//! - [`Sgd`] — the optimizer (momentum and decoupled weight decay),
//! - [`softmax_cross_entropy`] — the classification loss,
//! - [`models`] — a model zoo with scaled-down LeNet-5 / VGG-16 /
//!   ResNet-18/50 topologies,
//! - [`data`] — synthetic image-classification datasets standing in for
//!   MNIST / CIFAR-10 / CIFAR-100 / ImageNet (see `DESIGN.md` §2 for the
//!   substitution rationale).
//!
//! # Example
//!
//! ```
//! use forms_dnn::{Layer, Network};
//! use forms_tensor::Tensor;
//! use forms_rng::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(vec![
//!     Layer::flatten(),
//!     Layer::linear(&mut rng, 8, 4),
//!     Layer::relu(),
//!     Layer::linear(&mut rng, 4, 2),
//! ]);
//! let x = Tensor::ones(&[1, 8]);
//! let y = net.forward(&x);
//! assert_eq!(y.dims(), &[1, 2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod data;
mod layer;
mod loss;
pub mod models;
mod network;
mod optim;
mod param;
mod train;

pub use layer::{
    AvgPool2d, BatchNorm2d, Conv2d, Layer, Linear, MaxPool2d, ResidualBlock, WeightLayerMut,
};
pub use loss::{accuracy, softmax, softmax_cross_entropy, top_k_accuracy, LossOutput};
pub use network::Network;
pub use optim::Sgd;
pub use param::Param;
pub use train::{evaluate, evaluate_topk, train_epoch, TrainConfig, TrainReport};
