//! End-to-end benchmark of the glitchlock flows.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `lock-flow` — parse `.bench` → GK insertion → overhead → Sec. VI SAT
//!   attack on the attack view, over the 21 Table I/II cells.
//! * `dip-loop` — 120 XOR/MUX/SARLock contrast attacks run to convergence,
//!   each recovered key checked functionally.
//! * `corruptibility` — `corruption_scores` in `Both` mode on 56 s27
//!   cells.
//! * `oracle-serve` — a closed loop of bulk and single-pattern oracle
//!   requests on two connections against a `glitchlock-serve` daemon
//!   running in a child process.
//!
//! Every run does whole passes over a seed-derived op list after one
//! warm-up pass, checks every output, and prints one JSON object as its
//! last line: end-to-end metrics with `--trace 0`, per-layer metrics
//! (self time per op, counts, ratios, unattributed time and tracing
//! overhead) with `--trace 1`. Compute workloads run on one thread.

mod corrupt;
mod diploop;
mod lockflow;
mod runner;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// The four workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["lock-flow", "dip-loop", "corruptibility", "oracle-serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::DAEMON_ARG) {
        return serve::daemon_main();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "lock-flow" => runner::drive(
            lockflow::LockFlow::setup,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "dip-loop" => runner::drive(diploop::DipLoop::setup, args.seed, args.seconds, args.trace),
        "corruptibility" => {
            runner::drive(corrupt::Corrupt::setup, args.seed, args.seconds, args.trace)
        }
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    match result {
        Ok(report) => {
            if args.trace {
                let path = std::path::Path::new(".bench_build")
                    .join(format!("perfbench-trace-{}.jsonl", args.workload));
                if let Err(e) = report.tracer.write_jsonl(&path) {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "perfbench: {} spans written to {}",
                    report.tracer.len(),
                    path.display()
                );
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
