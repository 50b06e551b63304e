//! `vphi-benchmark` — see `README.md`.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and ends with the result line.
//! * `run [--seed n] [--seconds s] [--quick]` runs every workload, traced
//!   and untraced, each in a child process.
//! * `self-check [--seed n] [--seconds s]` runs the untraced suite twice
//!   and fails if any end-to-end metric moved by more than its bound.
//! * `emit-spec` prints `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use vphi_benchmark::runner::{run_workload, RunArgs};
use vphi_benchmark::{report, spec, suite};

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        Some(text) => text.parse().map_err(|_| format!("bad value for {flag}: {text:?}")),
        None => Ok(default),
    }
}

fn real_main(args: &[String]) -> Result<bool, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let seed = parsed(args, "--seed", 1u64)?;
    let seconds = parsed(args, "--seconds", if quick { 1.0 } else { spec::RUN_SECONDS as f64 })?;
    if let Some(workload) = flag_value(args, "--workload") {
        let run = RunArgs {
            workload: workload.to_string(),
            seed,
            seconds,
            trace: parsed(args, "--trace", 0u8)? != 0,
            quick,
            corrupt_check: flag_value(args, "--corrupt-check")
                .map(|t| t.parse().map_err(|_| format!("bad value for --corrupt-check: {t:?}")))
                .transpose()?,
            out_dir: PathBuf::from(parsed(args, "--out-dir", "benchmark/out".to_string())?),
        };
        let (pinning, outcome) = run_workload(&run)?;
        report::print_table(&run, &pinning, &outcome);
        println!("{}", report::result_line(&outcome));
        // A failed op, a leak or an off anchor still prints its result line,
        // then fails the process.
        return Ok(outcome.correct);
    }
    match args.first().map(String::as_str) {
        Some("run") => suite::run_suite(seed, seconds, quick),
        Some("self-check") => suite::self_check(seed, seconds, quick),
        Some("emit-spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => Err("usage: vphi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run [--seed n] [--seconds s] [--quick] | self-check | emit-spec"
            .into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("vphi-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
