//! Fault-tolerance suite — writes and validates `BENCH_faults.json`.
//!
//! Usage: `cargo run --release -p forms-bench --bin faults [-- --smoke]`.
//! `--smoke` runs a seconds-scale variant with the same code paths and
//! JSON schema; CI uses it to catch fault-model and degradation-layer
//! regressions. The binary re-reads the file it wrote, parses it with
//! `forms_bench::json::parse` and checks it with
//! `forms_bench::faults::validate` — including the FORMS-vs-ISAAC
//! degradation comparison — exiting non-zero on any mismatch.

use std::path::Path;
use std::process::ExitCode;

use forms_bench::faults::{run, validate, FaultsBenchSpec};
use forms_bench::json::parse;

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

    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_faults.json"
    ));
    let doc = report.to_json();
    if let Err(err) = std::fs::write(path, doc.pretty() + "\n") {
        eprintln!("could not write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }

    // Self-check: read the file back through the parser and validate the
    // schema and the degradation comparison, so a
    // malformed or regressed BENCH_faults.json fails the run (and CI).
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
            eprintln!("BENCH_faults.json is not valid JSON: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = validate(&reparsed) {
        eprintln!("BENCH_faults.json is malformed: {err}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} (validated)", path.display());
    ExitCode::SUCCESS
}
