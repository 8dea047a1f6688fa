//! The repository benchmark. Runs one workload and prints its metrics, its
//! deterministic counters and its job tally as tab-separated records for
//! `run.py`, which builds this binary, guards the counters across runs and
//! prints the final JSON line.
//!
//! Usage: `perfbench --workload <resynth|choice_map|serve> --seed <n>
//! --seconds <s> --trace <0|1> [--trace-out <file>]`

mod choice_map;
mod common;
mod probes;
mod report;
mod resynth;
mod serve;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "resynth" => resynth::run,
        "choice_map" => choice_map::run,
        "serve" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut tracer = trace::Tracer::new();
    run(
        args.seed,
        args.seconds,
        args.traced,
        &mut report,
        &mut tracer,
    );
    if args.traced {
        probes::zero_missing_counts(&mut report);
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
                report.error(format!("cannot write the trace to {path}: {e}"));
            }
        }
        report.print(PER_LAYER);
    } else {
        report.print(END_TO_END);
    }
    ExitCode::SUCCESS
}
