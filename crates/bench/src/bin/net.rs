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

use std::process::ExitCode;

use forms_bench::net::{loopback_floor, run, scaling_floor, validate, NetBenchSpec};
use forms_bench::report::write_validated;

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

    if let Some(s) = report.scaling() {
        println!(
            "in-process throughput scaling 1 -> {} replicas: {s:.2}x (floor {})",
            spec.replicas.iter().max().unwrap_or(&1),
            scaling_floor(spec.mode)
        );
    }
    println!(
        "worst loopback/in-process goodput ratio across the sweep: {:.2}x (floor {})",
        report.worst_ratio(),
        loopback_floor(spec.mode)
    );

    write_validated("BENCH_net.json", &report.to_json(), validate)
}
