//! # forms-baselines
//!
//! Baseline accelerator models the FORMS paper compares against.
//!
//! The principal comparator is **ISAAC** (paper ref. \[18\]), which handles
//! signed weights by *offset encoding*: every `b`-bit two's-complement
//! weight is biased by `2^(b-1)` so all stored values are non-negative, and
//! the result is corrected by counting the `1`s in each input bit plane and
//! subtracting `count × 2^(b-1)` — the overhead FORMS' polarization
//! eliminates. [`IsaacLayer`] implements that mechanism functionally on the
//! same `forms_reram::CrossbarGrid` the FORMS mapping stores its weights
//! on — one compaction, programming, read-back and fault path — so the two
//! designs are compared apples-to-apples and differ only in their weight
//! encoding.
//!
//! [`SplitLayer`] implements the other prior approach (PRIME-style
//! positive/negative crossbar pairs). PUMA and the other published
//! comparators are constants in `forms_hwmodel::published_comparators`.
//!
//! # Example
//!
//! ```
//! use forms_baselines::{CrossbarEngine, IsaacConfig, IsaacLayer};
//! use forms_tensor::Tensor;
//!
//! // Signed weights — no polarization required.
//! let w = Tensor::from_vec(vec![0.5, -0.25, -1.0, 0.75], &[2, 2]);
//! let config = IsaacConfig {
//!     input_bits: 8,
//!     ..IsaacConfig::paper()
//! };
//! let layer = IsaacLayer::map(&w, config).expect("signed weights map directly");
//! let (y, _) = layer.matvec(&[3, 1], 1.0);
//! let reference = layer.dequantized_matrix().transpose().matvec(&[3.0, 1.0]);
//! assert!((y[0] - reference[0]).abs() < 1e-4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accelerator;
mod isaac;
mod split;

pub use accelerator::{IsaacActivity, IsaacConfig};
pub use forms_exec::{CrossbarEngine, ExecError};
pub use isaac::{IsaacLayer, IsaacStats};
pub use split::SplitLayer;
