//! Regenerates every table and figure of the paper's evaluation — plus the
//! serving sweep — in one run, and writes machine-readable JSON results next
//! to the text tables.
//!
//! Usage: `cargo run --release -p flashmem-bench --bin all [-- --quick] [--threads N] [--json-dir DIR]`
//! JSON goes to `target/bench-json/` by default; every run of this binary
//! emits it so results can be diffed across PRs.
//!
//! The independent experiments run **concurrently** on the process-wide
//! thread pool (width from `--threads N`, else `FLASHMEM_THREADS`,
//! else the machine), and each experiment's internal sweep runs serially
//! inside its job (nested pool calls are inline by design — the outer
//! fan-out already owns the hardware). Output is printed in the fixed
//! paper order regardless of completion order, and every JSON document
//! carries `elapsed_ms`/`threads` telemetry; `--threads 1` reproduces the
//! serial run byte for byte (modulo those two telemetry fields).

use std::path::PathBuf;
use std::time::Instant;

use flashmem_bench::experiments::*;
use flashmem_bench::{configure_pool_from_args, plan_cache_stats, with_timing, write_json, Json};

/// One experiment's rendered output, reassembled in submission order.
struct Output {
    /// JSON file stem for the experiments that emit machine-readable cells.
    json_name: Option<&'static str>,
    text: String,
    json: Option<Json>,
    elapsed_ms: f64,
}

/// Wrap an experiment without JSON output as a pool job.
fn job<T: std::fmt::Display>(
    quick: bool,
    run: impl FnOnce(bool) -> T + Send + 'static,
) -> Box<dyn FnOnce() -> Output + Send> {
    Box::new(move || {
        let start = Instant::now();
        let result = run(quick);
        Output {
            json_name: None,
            text: result.to_string(),
            json: None,
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    })
}

/// Wrap a JSON-emitting experiment as a pool job.
fn json_job<T: std::fmt::Display>(
    quick: bool,
    name: &'static str,
    run: impl FnOnce(bool) -> T + Send + 'static,
    to_json: impl FnOnce(&T) -> Json + Send + 'static,
) -> Box<dyn FnOnce() -> Output + Send> {
    Box::new(move || {
        let start = Instant::now();
        let result = run(quick);
        Output {
            json_name: Some(name),
            text: result.to_string(),
            json: Some(to_json(&result)),
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_dir: PathBuf = match args.iter().position(|a| a == "--json-dir") {
        Some(i) => match args.get(i + 1) {
            Some(dir) => PathBuf::from(dir),
            None => {
                eprintln!("error: --json-dir requires a directory argument");
                std::process::exit(2);
            }
        },
        None => PathBuf::from("target/bench-json"),
    };
    let pool = configure_pool_from_args(&args);

    // The paper's presentation order; results are printed in exactly this
    // order no matter which experiment finishes first.
    let jobs: Vec<Box<dyn FnOnce() -> Output + Send>> = vec![
        job(quick, table1::run),
        job(quick, fig2::run),
        json_job(quick, "table4", table4::run, table4::Table4::to_json),
        job(quick, fig4::run),
        job(quick, table6::run),
        json_job(quick, "table7", table7::run, table7::Table7::to_json),
        json_job(quick, "table8", table8::run, table8::Table8::to_json),
        json_job(quick, "fig6", fig6::run, fig6::Fig6::to_json),
        job(quick, fig7::run),
        job(quick, fig8::run),
        job(quick, fig9::run),
        job(quick, table9::run),
        json_job(quick, "fig10", fig10::run, fig10::Fig10::to_json),
        json_job(quick, "serve", serve::run, serve::ServeBench::to_json),
    ];

    let start = Instant::now();
    let outputs = pool.parallel_map(jobs, |job| job());
    let total_ms = start.elapsed().as_secs_f64() * 1e3;

    for output in &outputs {
        println!("{}\n", output.text);
    }
    for output in &outputs {
        if let (Some(name), Some(json)) = (output.json_name, output.json.clone()) {
            let path = json_dir.join(format!("{name}.json"));
            let doc = with_timing(json, output.elapsed_ms, pool.threads());
            write_json(&path, &doc).expect("write bench JSON");
            println!("wrote {}", path.display());
        }
    }

    let busy_ms: f64 = outputs.iter().map(|o| o.elapsed_ms).sum();
    println!(
        "\nwall clock: {total_ms:.0} ms on {} pool thread{} ({busy_ms:.0} ms of experiment time)",
        pool.threads(),
        if pool.threads() == 1 { "" } else { "s" }
    );
    println!("shared plan cache: {}", plan_cache_stats());
}
