//! Mixed-precision quantization suite — writes and validates
//! `BENCH_quant.json`.
//!
//! Usage: `cargo run --release -p forms-bench --bin quant [-- --smoke]`.
//! `--smoke` (or `FORMS_BENCH_FAST=1` for the timing batches alone) runs a
//! seconds-scale variant with the same code paths and JSON schema; CI uses
//! it to pin the precision-plan payoff (mixed plans must spend strictly
//! fewer input cycles per MVM than uniform on both designs). The binary
//! re-reads the file it wrote and validates it with
//! `forms_bench::json::parse` + `forms_bench::quant::validate`, exiting
//! non-zero on any mismatch.

use std::process::ExitCode;

use forms_bench::quant::{run, validate, QuantBenchSpec};
use forms_bench::report::write_validated;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = if smoke {
        QuantBenchSpec::smoke()
    } else {
        QuantBenchSpec::full()
    };
    eprintln!(
        "quant suite ({} mode): {} — trains and measures, so expect it to take a while",
        spec.mode, spec.workload_label
    );
    let report = run(&spec);

    println!(
        "baseline accuracy {:.3}, tolerance {:.2}: {}/{} layers tolerant, mixed plan {}",
        report.baseline_accuracy,
        report.tolerance,
        report.tolerant_layers,
        report.weight_layers,
        report.mixed_plan.summary()
    );
    for r in &report.results {
        println!(
            "{:>5} {:<8} {:>12.0} MVMs/s  {:>6.2} cycles/MVM  {:>5.1}% top-1 agreement  {:>8.1} pJ/MVM",
            r.design,
            r.plan,
            r.mvms_per_s,
            r.input_cycles_per_mvm,
            r.top1_agreement * 100.0,
            r.energy_pj_per_mvm
        );
    }
    for design in ["FORMS", "ISAAC"] {
        if let Some(ratio) = report.cycle_ratio(design) {
            println!("{design} mixed/uniform input-cycle ratio: {ratio:.2}");
        }
    }

    write_validated("BENCH_quant.json", &report.to_json(), validate)
}
