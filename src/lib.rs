//! # forms
//!
//! Umbrella crate for the FORMS (ISCA 2021) reproduction: *Fine-grained
//! Polarized ReRAM-based In-situ Computation for Mixed-signal DNN
//! Accelerator*.
//!
//! This crate simply re-exports the workspace crates under one roof so
//! examples and downstream users can depend on a single crate:
//!
//! - [`rng`] — deterministic in-tree PRNG and sampling distributions
//! - [`tensor`] — dense tensors, fixed-point formats, conv lowering
//! - [`dnn`] — layers, backprop, SGD, model zoo, synthetic datasets
//! - [`admm`] — ADMM-regularized pruning / polarization / quantization
//! - [`exec`] — the shared crossbar execution core (engine trait +
//!   executor); `exec::Executor<arch::MappedLayer>` and
//!   `exec::Executor<baselines::IsaacLayer>` map and run whole networks
//! - [`reram`] — behavioural ReRAM crossbar and converter simulation
//! - [`arch`] — the FORMS accelerator (mapping, zero-skipping, pipeline)
//! - [`baselines`] — ISAAC / PUMA / DaDianNao comparators
//! - [`hwmodel`] — component-level area/power/energy models
//! - [`workloads`] — activation generators, EIC statistics, request traces
//! - [`serve`] — batched multi-replica inference serving (queues,
//!   deadlines, telemetry, open-loop load generation)
//! - [`net`] — TCP front-end for the serving layer (binary wire
//!   protocol, blocking loopback/LAN server, pipelined client)
//!
//! # Example
//!
//! ```
//! use forms::tensor::Tensor;
//!
//! let t = Tensor::ones(&[2, 2]);
//! assert_eq!(t.sum(), 4.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use forms_admm as admm;
pub use forms_arch as arch;
pub use forms_baselines as baselines;
pub use forms_dnn as dnn;
pub use forms_exec as exec;
pub use forms_hwmodel as hwmodel;
pub use forms_net as net;
pub use forms_reram as reram;
pub use forms_rng as rng;
pub use forms_serve as serve;
pub use forms_tensor as tensor;
pub use forms_workloads as workloads;
