//! # forms-workloads
//!
//! Workload generation for the FORMS (ISCA 2021) reproduction: the
//! activation distributions, layer-shape catalogs and EIC measurements that
//! feed the evaluation benches (Figs. 8, 13, 14).
//!
//! The serving benches additionally draw open-loop request streams from
//! here: [`poisson_arrivals`] generates Poisson-process arrival times and
//! [`synth_request`] sizes activation payloads for a catalog layer shape.
//!
//! The paper measures effective input cycles on real CONV-layer
//! activations. Here those come from two sources: [`ActivationModel`]
//! synthesizes post-ReLU-shaped distributions (most values small — paper
//! ref. \[58\]), and [`capture_weight_layer_inputs`] records the genuine
//! activations feeding every conv/linear layer of a trained
//! `forms-dnn` network.
//!
//! # Example
//!
//! ```
//! use forms_workloads::ActivationModel;
//! use forms_rng::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let codes = ActivationModel::half_normal(0.1).sample_codes(&mut rng, 1024, 16);
//! // Post-ReLU activations are small: most codes have leading zeros.
//! let avg_bits: f64 =
//!     codes.iter().map(|&c| (32 - c.leading_zeros()) as f64).sum::<f64>() / 1024.0;
//! assert!(avg_bits < 16.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod activations;
mod capture;
mod shapes;
mod trace;

pub use activations::ActivationModel;
pub use capture::capture_weight_layer_inputs;
pub use shapes::{
    lenet5_mnist, resnet18_cifar, resnet18_imagenet, resnet50_imagenet, vgg16_cifar, LayerShape,
};
pub use trace::{poisson_arrivals, synth_request, TraceSpec};
