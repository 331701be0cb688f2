//! # forms-arch
//!
//! The FORMS accelerator architecture (paper §IV) — the primary
//! contribution of the reproduction:
//!
//! - [`effective_bits`] / [`fragment_eic`] / [`ShiftRegisterBank`] — the
//!   zero-skipping logic and effective-input-cycle math (§IV-B, Figs. 7–9),
//! - [`MappedLayer`] — the polarized magnitude-only crossbar mapping with
//!   the 1R sign indicator (§IV-A, Fig. 5), executing bit-serial
//!   mixed-signal matrix-vector products,
//! - [`Executor`] (re-exported from `forms-exec`) — whole-network mapping
//!   and end-to-end inference: `Executor<MappedLayer>` runs a polarized
//!   network through the analog path,
//! - [`Pipeline`] — the 22/26-stage execution pipeline (Fig. 12),
//! - [`FpsModel`] — the frame-processing-rate model behind Figs. 13–14.
//!
//! # Example
//!
//! ```
//! use forms_arch::{fragment_eic, ShiftRegisterBank};
//!
//! // Paper Fig. 7: the fragment needs 7 effective input cycles.
//! let inputs = [0b101101u32, 0b1001011];
//! assert_eq!(fragment_eic(&inputs), 7);
//! assert_eq!(ShiftRegisterBank::load(&inputs).drain().len(), 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod mapping;
mod perf;
mod pipeline;
mod zero_skip;

pub use forms_exec::{CrossbarEngine, ExecError, Executor, LayerPrecision, Merge, PrecisionPlan};
pub use forms_reram::MATMUL_TILE;
pub use mapping::{FormsActivity, MappedLayer, MappingConfig, MvmStats};
pub use perf::{FpsModel, LayerPerf};
pub use pipeline::{Pipeline, PipelineOp, PipelineStage};
pub use zero_skip::{effective_bits, eic_stats, fragment_eic, EicStats, ShiftRegisterBank};
