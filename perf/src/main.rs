//! `perf` — the repository's benchmark. See `perf/README.md`.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1   one run
//! perf manifest                                           print BENCHMARK.json
//! perf aa [--sets 2] [--runs 5]                           same code, interleaved sets: does it repeat?
//! perf compare BASE.json[,..] CHANGE.json[,..]            the rule for later PRs
//! ```
//!
//! Exit codes: 0 success; 1 `aa` found the benchmark unsteady or
//! `compare` found a regression; 2 bad usage or a failed run.

mod aa;
mod alloc;
mod calib;
mod compare;
mod layers;
mod manifest;
mod probes;
mod proc;
mod report;
mod results;
mod run;
mod sink;
mod spans;
mod stats;
mod units;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perf --workload NAME --seed N --seconds S --trace 0|1\n\
                     \x20      perf manifest\n\
                     \x20      perf aa [--sets 2] [--runs 5]\n\
                     \x20      perf compare BASE.json[,..] CHANGE.json[,..]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => match manifest::validate().as_slice() {
            [] => {
                print!("{}", manifest::benchmark_json());
                Ok(true)
            }
            breaches => Err(format!("the tables break the driver's contract: {breaches:#?}")),
        },
        Some("aa") => aa::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(flag) if flag.starts_with("--") => run::main(&args).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}
