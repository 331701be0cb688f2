//! Serving suite — writes and validates `BENCH_net.json`.
//!
//! Usage: `cargo run --release -p forms-bench --bin net [-- --smoke]`.
//! `--smoke` runs a seconds-scale variant with the same code paths and
//! JSON schema; CI uses it to catch front-end and schema regressions over
//! real loopback sockets. The binary re-reads the file it wrote, parses
//! it with `forms_bench::json::parse` and checks it with
//! `forms_bench::net::validate` — including the replica-scaling floor,
//! the loopback/in-process throughput floor and the storm's
//! zero-corruption, rebuild and quarantine gates — exiting non-zero on
//! any mismatch.

use std::path::Path;
use std::process::ExitCode;

use forms_bench::json::parse;
use forms_bench::net::{loopback_floor, run, scaling_floor, validate, NetBenchSpec};

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = if smoke {
        NetBenchSpec::smoke()
    } else {
        NetBenchSpec::full()
    };
    eprintln!(
        "net suite ({} mode): {} at {} req/s offered over loopback TCP — \
         this replays timed request traces, so expect it to take a while",
        spec.mode, spec.layer_label, spec.rate_rps
    );
    let report = run(&spec);

    for design in ["FORMS", "ISAAC"] {
        if let Some(s) = report.scaling(design) {
            println!(
                "{design} in-process throughput scaling 1 -> {} replicas: {s:.2}x (floor {})",
                spec.replicas.iter().max().unwrap_or(&1),
                scaling_floor(spec.mode)
            );
        }
    }
    println!(
        "worst loopback/in-process goodput ratio across the sweep: {:.2}x (floor {})",
        report.worst_ratio(),
        loopback_floor(spec.mode)
    );

    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json"));
    let doc = report.to_json();
    if let Err(err) = std::fs::write(path, doc.pretty() + "\n") {
        eprintln!("could not write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }

    // Self-check: read the file back through the parser and validate its
    // schema, throughput floors, and storm integrity gates, so a malformed
    // or regressed BENCH_net.json fails the run (and CI).
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
            eprintln!("BENCH_net.json is not valid JSON: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = validate(&reparsed) {
        eprintln!("BENCH_net.json is malformed: {err}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} (validated)", path.display());
    ExitCode::SUCCESS
}
