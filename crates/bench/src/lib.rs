//! # forms-bench
//!
//! The experiment-regeneration harness for the FORMS (ISCA 2021)
//! reproduction: one binary per table and figure of the paper's evaluation
//! (see `DESIGN.md` §4 for the index), plus std-only timing benches over
//! the simulator kernels and the paper's design-choice ablations (run them
//! with `cargo bench -p forms-bench --features bench`).
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p forms-bench --bin repro
//! ```
//!
//! or a single experiment, e.g. `cargo run --release -p forms-bench --bin
//! table5`. Each experiment prints the paper's rows next to the measured
//! values and appends machine-readable results to `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod faults;
pub mod mvm;
pub mod net;
pub mod quant;
pub mod report;
pub mod suite;
pub mod timing;

pub use forms_serve::json;
