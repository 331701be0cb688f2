//! # forms-reram
//!
//! Behavioural ReRAM crossbar simulation for the FORMS (ISCA 2021)
//! reproduction.
//!
//! The paper evaluates on modelled hardware (VTEAM device model, NVSIM
//! arrays). This crate is the Rust stand-in at the same behavioural level:
//!
//! - [`CellSpec`] — multi-bit conductance cells with a linear
//!   code-to-conductance map,
//! - [`Crossbar`] — an analog array computing column currents
//!   `i = Gᵀ·v` over arbitrary row windows (fragments),
//! - [`BitSlicer`] — weight-magnitude bit-slicing across
//!   `weight_bits / cell_bits` cells,
//! - [`Adc`] — the column ADC's transfer function with saturation,
//! - [`CrossbarGrid`] — one compacted, bit-sliced weight matrix on a
//!   row-major grid of crossbars, shared by both crossbar engines:
//!   compaction, integer-clamped quantization, programming of each
//!   design's stored codes, read-back, the output ceiling, fault injection
//!   with its [`EngineHealth`] counters, and the weight-stationary code
//!   matrix the sweep reads (folded once, on first use); mapping failures
//!   are one [`ExecError`],
//! - [`matmul_sweep`] — the one batched MVM sweep of both crossbar
//!   engines: tiles of bit-serial input planes over sub-arrays, an integer
//!   path over the cached codes (partial sums in `i32` or `i64`,
//!   [`PartialSum`]) and an f64 fallback, with the per-design sub-array
//!   height, planes paid and digital step supplied by a [`SweepEngine`]
//!   and all working memory in one reusable [`SweepScratch`],
//! - [`LogNormalVariation`] / [`StuckAtFault`] — the device non-idealities
//!   behind the paper's Table VI.
//!
//! With ideal devices and sufficient ADC resolution the analog pipeline
//! reproduces integer dot products *exactly*; the property tests pin that
//! down, and the variation experiments then perturb away from it.
//!
//! # Example
//!
//! ```
//! use forms_reram::{Adc, CellSpec, Crossbar};
//!
//! let spec = CellSpec::new(2, 1.0, 61.0);
//! let mut xbar = Crossbar::new(4, 4, spec);
//! xbar.program_codes(&[3, 0, 1, 2, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
//! let currents = xbar.column_currents(&[1.0, 0.0, 1.0, 0.0], 0..4);
//! // Column 0 sees cells with codes 3 and 1 active: 3 + 1 = 4 units.
//! let adc = Adc::for_fragment(4, &spec);
//! assert_eq!(adc.convert(currents[0]), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitslice;
mod converters;
mod crossbar;
mod error;
mod faults;
mod grid;
mod irdrop;
mod noise;
mod packing;
mod sweep;
mod variation;
mod window;

pub use bitslice::BitSlicer;
pub use converters::Adc;
pub use crossbar::{CellSpec, Crossbar};
pub use error::ExecError;
pub use faults::{FaultCampaign, FaultReport};
pub use grid::{CrossbarGrid, EngineHealth, GridShape};
pub use irdrop::IrDropModel;
pub use noise::CurrentNoise;
pub use packing::{for_each_set_bit, pack_tile_bit_planes, plane_is_zero, plane_ones, plane_words};
pub use sweep::{matmul_sweep, SweepEngine, SweepScratch, MATMUL_TILE};
pub use variation::{LogNormalVariation, StuckAtFault, StuckAtKind};
pub use window::{partial_sums_fit_i32, PartialSum};
