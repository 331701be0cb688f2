//! # forms-exec
//!
//! The shared crossbar execution core of the FORMS reproduction.
//!
//! The paper's headline results are *comparative* — FORMS vs. ISAAC on the
//! same networks — so both executors must be apples-to-apples. This crate
//! owns the single generic inference engine they share:
//!
//! - [`CrossbarEngine`] — what a per-layer analog backend must provide:
//!   mapping a weight matrix onto crossbars, one required kernel
//!   (`matmul_into`, a batch of MVMs on quantized input codes; batch 1 is
//!   a one-column call), and its cost record.
//! - [`Executor`] — the mapped network: recursive layer walk,
//!   im2col/conv geometry, activation quantization, optional row
//!   permutations, the per-layer counter record, serial and
//!   scoped-thread parallel batch execution, dataset evaluation.
//! - [`InferenceSession`] — the one execution context: borrows an
//!   executor immutably, lowers each weight layer of a batch into one
//!   `matmul_into` call, and keeps its network clone and scratch buffers
//!   warm across independent batches. `Executor::forward` is one session,
//!   `Executor::forward_parallel` one per worker, and replica workers in
//!   `forms-serve` hold one each.
//! - [`PrecisionPlan`] / [`LayerPrecision`] — per-layer mixed-precision
//!   quantization plans: the executor specializes its engine configuration
//!   and activation quantization per weight layer from the plan; a
//!   uniform plan at the configuration's own widths is exactly
//!   `Executor::map_network`.
//! - [`ExecError`] — the workspace-level mapping/execution error type.
//!
//! A network is mapped and run one way: `Executor<forms_arch::MappedLayer>`
//! for the polarized FORMS engine, `Executor<forms_baselines::IsaacLayer>`
//! for the offset-encoded ISAAC engine. The activation width is the
//! engine configuration's own input width, or per layer from a
//! [`PrecisionPlan`].
//!
//! # Example
//!
//! A backend only implements the per-layer encoding; everything
//! network-level comes from the executor:
//!
//! ```
//! use forms_exec::{CrossbarEngine, ExecError, Merge};
//! use forms_tensor::Tensor;
//!
//! #[derive(Clone, Copy, Debug, Default)]
//! struct Count(u64);
//! impl Merge for Count {
//!     fn merge(&mut self, other: Self) {
//!         self.0 += other.0;
//!     }
//! }
//!
//! #[derive(Clone, Debug)]
//! struct Digital(Tensor);
//! impl CrossbarEngine for Digital {
//!     type Config = u32;
//!     type Stats = Count;
//!     // Reusable buffer for one column's dequantized inputs.
//!     type Scratch = Vec<f32>;
//!     fn map_matrix(m: &Tensor, _: &u32) -> Result<Self, ExecError> {
//!         Ok(Self(m.clone()))
//!     }
//!     fn output_len(&self) -> usize {
//!         self.0.dims()[1]
//!     }
//!     fn matmul_into(
//!         &self,
//!         codes: &[u32],
//!         scales: &[f32],
//!         scratch: &mut Vec<f32>,
//!         outs: &mut [f32],
//!     ) -> Count {
//!         let (rows, cols) = (self.0.dims()[0], self.0.dims()[1]);
//!         for ((col, out), &scale) in codes
//!             .chunks_exact(rows)
//!             .zip(outs.chunks_exact_mut(cols))
//!             .zip(scales)
//!         {
//!             scratch.clear();
//!             scratch.extend(col.iter().map(|&c| c as f32 * scale));
//!             out.copy_from_slice(&self.0.transpose().matvec(scratch));
//!         }
//!         Count(scales.len() as u64)
//!     }
//!     fn crossbar_count(&self) -> usize {
//!         1
//!     }
//!     fn mean_input_cycles(_: &Count) -> Option<f64> {
//!         None
//!     }
//!     fn max_input_cycles(bits: &u32) -> f64 {
//!         f64::from(*bits)
//!     }
//!     fn precision_of(bits: &u32) -> forms_exec::LayerPrecision {
//!         forms_exec::LayerPrecision::new(32, *bits)
//!     }
//!     fn with_precision(_: &u32, p: forms_exec::LayerPrecision) -> u32 {
//!         p.input_bits
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod executor;
mod precision;

pub use engine::{CrossbarEngine, FaultableEngine, LayerPerf, Merge};
pub use executor::{Executor, InferenceSession};
pub use precision::{LayerPrecision, PrecisionPlan};
// The mapping error, the health counters and the fault-campaign types are
// part of the engine API surface (`CrossbarEngine`, `FaultableEngine`);
// re-export them so downstream crates (serve, bench) need not depend on
// `forms-reram` directly.
pub use forms_reram::{EngineHealth, ExecError, FaultCampaign, FaultReport};
