//! Fault-tolerance suite — writes and validates `BENCH_faults.json`.
//!
//! Usage: `cargo run --release -p forms-bench --bin faults [-- --smoke]`.
//! `--smoke` runs a seconds-scale variant with the same code paths and
//! JSON schema; CI uses it to catch fault-model and degradation-layer
//! regressions. The binary re-reads the file it wrote, parses it with
//! `forms_bench::json::parse` and checks it with
//! `forms_bench::faults::validate` — including the FORMS-vs-ISAAC
//! degradation comparison — exiting non-zero on any mismatch.

use std::process::ExitCode;

use forms_bench::faults::{run, validate, FaultsBenchSpec};
use forms_bench::report::write_validated;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = if smoke {
        FaultsBenchSpec::smoke()
    } else {
        FaultsBenchSpec::full()
    };
    eprintln!(
        "faults suite ({} mode): {} — stuck-at sweep at rates {:?}",
        spec.mode, spec.layer_label, spec.rates
    );
    let report = run(&spec);

    if let Some((forms, isaac)) = report.forms_vs_isaac() {
        println!("mean top-1 agreement across the sweep: FORMS {forms:.3} vs ISAAC {isaac:.3}");
    }

    write_validated("BENCH_faults.json", &report.to_json(), validate)
}
