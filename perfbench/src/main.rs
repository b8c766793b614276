//! `perfbench` — end-to-end and per-layer benchmark of the P-Grid
//! deployment.
//!
//! ```text
//! perfbench --workload lookup|build|cluster --seed N --seconds S --trace 0|1
//!           [--work-dir DIR] [--cluster-exe PATH]
//! ```
//!
//! `--trace 0` runs the workload untraced and ends with the end-to-end
//! metrics as one JSON line; `--trace 1` also runs the traced pass and
//! ends with the per-layer metrics.  The process exits non-zero when an
//! output check fails.  `perfbench/run.py` builds the program and this
//! binary, records the host fingerprint, and calls it.

mod calib;
mod cluster;
mod layers;
mod loopback;
mod report;
mod single;
mod tap;

use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload lookup|build|cluster --seed N --seconds S --trace 0|1 \
         [--work-dir DIR] [--cluster-exe PATH]"
    );
    ExitCode::from(2)
}

fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = option(&args, "--workload") else {
        return usage("--workload is required");
    };
    let Some(seed) = option(&args, "--seed").and_then(|v| v.parse::<u64>().ok()) else {
        return usage("--seed takes an unsigned integer");
    };
    let Some(seconds) = option(&args, "--seconds").and_then(|v| v.parse::<u64>().ok()) else {
        return usage("--seconds takes a whole number of seconds");
    };
    let traced = match option(&args, "--trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(other) => return usage(&format!("--trace takes 0 or 1, not {other}")),
    };
    let work_dir = PathBuf::from(option(&args, "--work-dir").unwrap_or(".bench_build/perfbench"));
    let outcome = match workload {
        "lookup" => single::run(single::Kind::Lookup, seed, seconds, traced),
        "build" => single::run(single::Kind::Build, seed, seconds, traced),
        "cluster" => {
            let Some(exe) = option(&args, "--cluster-exe") else {
                return usage("the cluster workload needs --cluster-exe");
            };
            cluster::run(seed, seconds, &work_dir, &PathBuf::from(exe))
        }
        other => return usage(&format!("unknown workload {other}")),
    };
    if report::print(workload, traced, &outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
