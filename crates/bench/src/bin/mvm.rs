//! MVM hot-path throughput suite — writes and validates `BENCH_mvm.json`.
//!
//! Usage: `cargo run --release -p forms-bench --bin mvm [-- --smoke] [--batch N,M]`.
//! `--smoke` (or `FORMS_BENCH_FAST=1` for the timing batches alone) runs a
//! seconds-scale variant with the same code paths and JSON schema; CI uses
//! it to catch hot-path and schema regressions. `--batch` overrides the
//! batched-matmul kernel sweep with a fixed comma-separated list of batch
//! sizes (each at least 1), so CI runs are reproducible; batch 1 is
//! always measured, because both kernel gates compare against it. The binary
//! re-reads the file it wrote and validates it with
//! `forms_bench::json::parse` + `forms_bench::mvm::validate`, exiting
//! non-zero on any mismatch or performance-gate violation.

use std::path::Path;
use std::process::ExitCode;

use forms_bench::json::parse;
use forms_bench::mvm::{run, validate, MvmBenchSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut spec = if smoke {
        MvmBenchSpec::smoke()
    } else {
        MvmBenchSpec::full()
    };
    let mut sweep = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg != "--batch" {
            continue;
        }
        let Some(list) = it.next() else {
            eprintln!("--batch needs a comma-separated list of batch sizes");
            return ExitCode::FAILURE;
        };
        for part in list.split(',') {
            match part.trim().parse::<usize>() {
                Ok(b) if b >= 1 => sweep.push(b),
                _ => {
                    eprintln!("--batch sizes must be integers of at least 1, got {part:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if !sweep.is_empty() {
        sweep.push(1);
        sweep.sort_unstable();
        sweep.dedup();
        spec.batch_sweep = sweep;
    }
    eprintln!(
        "mvm suite ({} mode): {} — this measures, so expect it to take a while",
        spec.mode, spec.layer_label
    );
    let report = run(&spec);

    for k in &report.kernels {
        println!(
            "{:>5} {:<9} (batch {:>2}) {:>12.0} MVMs/s ({:.0} ns/MVM)",
            k.design, k.kernel, k.batch, k.mvms_per_s, k.ns_per_mvm
        );
    }
    for design in ["FORMS", "ISAAC"] {
        if let Some(s) = report.batch1_over_reference(design) {
            println!("{design} batch-1/reference speedup: {s:.2}x");
        }
        if let Some(s) = report.largest_batch_over_batch1(design) {
            println!("{design} largest-batch/batch-1 speedup: {s:.2}x");
        }
        if let Some(s) = report.parallel_over_batched(design) {
            println!("{design} parallel/batched images ratio: {s:.2}x");
        }
    }
    for r in &report.images {
        println!(
            "{:>5} {:<8} ({} worker{}) {:>9.1} images/s",
            r.design,
            r.exec,
            r.workers,
            if r.workers == 1 { "" } else { "s" },
            r.images_per_s
        );
    }

    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mvm.json"));
    let doc = report.to_json();
    if let Err(err) = std::fs::write(path, doc.pretty() + "\n") {
        eprintln!("could not write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }

    // Self-check: read the file back through the parser and validate its
    // schema, so a malformed BENCH_mvm.json fails the run (and CI).
    let written = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("could not re-read {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let reparsed = match parse(&written) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("BENCH_mvm.json is not valid JSON: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = validate(&reparsed) {
        eprintln!("BENCH_mvm.json is malformed: {err}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} (validated)", path.display());
    ExitCode::SUCCESS
}
