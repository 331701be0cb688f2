//! # forms-bench
//!
//! The experiment-regeneration harness for the FORMS (ISCA 2021)
//! reproduction: one module per table and figure of the paper's evaluation
//! (see `DESIGN.md` §4 for the index) and one `repro` binary that runs
//! them, plus the throughput suites (`mvm`, `quant`, `faults`, `net`) that
//! write and validate the `BENCH_*.json` files at the repository root.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p forms-bench --bin repro
//! ```
//!
//! or a subset by name, e.g. `cargo run --release -p forms-bench --bin repro
//! -- table5 fig13` (the names are the modules of [`experiments`]). Each
//! experiment prints the paper's rows next to the measured values and
//! writes machine-readable results to `results/`.

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
