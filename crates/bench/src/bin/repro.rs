//! Regenerates the experiments of the evaluation section and saves them
//! under `results/` (DESIGN.md §4 maps each to the paper).
//!
//! Usage: `cargo run --release -p forms-bench --bin repro [-- <name>...]`,
//! e.g. `repro table1 fig6`. Names are the modules of
//! `forms_bench::experiments`, run in the order given; with none, all 13
//! run. An unknown name exits non-zero before anything runs, and a result
//! that cannot be saved exits non-zero after the rest have run.

use std::path::Path;
use std::process::ExitCode;

use forms_bench::experiments::{find, Runner, EXPERIMENTS};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let runners: Vec<Runner> = if names.is_empty() {
        EXPERIMENTS.iter().map(|&(_, run)| run).collect()
    } else {
        match names.iter().map(|n| find(n).ok_or(n)).collect() {
            Ok(runners) => runners,
            Err(name) => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "unknown experiment {name:?}; valid names: {}",
                    valid.join(" ")
                );
                return ExitCode::FAILURE;
            }
        }
    };

    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let mut status = ExitCode::SUCCESS;
    let mut count = 0;
    for run in runners {
        for e in run() {
            e.print();
            if let Err(err) = e.save_json(dir) {
                eprintln!("could not save {}: {err}", e.id);
                status = ExitCode::FAILURE;
            }
            count += 1;
        }
    }
    println!(
        "{count} experiments regenerated; JSON written to {}/",
        dir.display()
    );
    status
}
