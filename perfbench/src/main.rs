//! End-to-end and per-layer benchmark of the FlashMem simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan_cold|serve_steady|serve_chaos|decode_steady> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from `--seed`, sets up (graph build and
//! cold compiles), then repeats its timed phase for `--seconds` and prints
//! every metric by name, unit and better direction, followed by one JSON
//! result line. `--trace 0` reports the end-to-end metrics with tracing
//! off; `--trace 1` is the second, traced run of the same seed: it records
//! host-time spans around the calls into each layer, reports the per-layer
//! metrics and writes the spans as Chrome trace-event JSON to
//! `.bench_out/<workload>-<seed>.trace.json`. See `perfbench/README.md`.

mod clock;
mod decode;
mod layers;
mod phase;
mod plan_cold;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use flashmem_gpu_sim::error::SimResult;

use report::Measured;
use spans::{SpanLog, SpanSet};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["plan_cold", "serve_steady", "serve_chaos", "decode_steady"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Write the span log as Chrome trace-event JSON.
fn write_trace(args: &Args, log: &SpanLog) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!(
        ".bench_out/{}-{}.trace.json",
        args.workload, args.seed
    ));
    std::fs::create_dir_all(".bench_out")?;
    let json = SpanSet::new(log.spans()).chrome_trace(&format!("perfbench {}", args.workload));
    std::fs::write(&path, json)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let log = SpanLog::new();
    let (measured, whole): (SimResult<Measured>, _) =
        clock::measure(|| match (args.workload.as_str(), args.trace) {
            ("plan_cold", false) => plan_cold::run(&args),
            ("plan_cold", true) => plan_cold::run_traced(&args, &log),
            ("serve_steady", false) => serve::run(&args, serve::Kind::Steady),
            ("serve_steady", true) => serve::run_traced(&args, serve::Kind::Steady, &log),
            ("serve_chaos", false) => serve::run(&args, serve::Kind::Chaos),
            ("serve_chaos", true) => serve::run_traced(&args, serve::Kind::Chaos, &log),
            ("decode_steady", false) => decode::run(&args),
            (_, _) => decode::run_traced(&args, &log),
        });
    let mut measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        match write_trace(&args, &log) {
            Ok(path) => measured.note(format!("spans written to {}", path.display())),
            Err(e) => {
                eprintln!("perfbench: cannot write the span trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host: pool_width={} nproc={nproc} steal_share={:.4} wall_s={:.1}",
        layers::POOL_WIDTH,
        whole.steal_share,
        whole.wall_s
    );
    for note in &measured.notes {
        println!("# {note}");
    }
    for problem in measured.checks.problems() {
        println!("# CHECK FAILED: {problem}");
    }
    let (json, lines) = report::result_line(&measured, args.trace);
    for line in lines {
        println!("{line}");
    }
    println!("{json}");
    ExitCode::SUCCESS
}
