//! The fleet-scale serving benchmark: ramp a flash-crowd workload over
//! 8 → 64 → 256 → 1024 simulated devices, stepping the fleet once on the
//! exact serial loop (`--threads 1` reference) and once fanned out on the
//! thread pool, and report per-device step wall-clock, fleet-parallel
//! speedup and byte-identity of the two reports.
//!
//! Usage: `cargo run --release -p flashmem-bench --bin fleet_scale [-- --quick] [--threads N] [--json PATH] [--trace-out PATH]`
//! `--quick` runs the small 8 → 32 ramp (CI's fleet-scale smoke step);
//! `--threads 1` pins the "parallel" run to the serial path too, which is
//! what the CI determinism diff compares against. `--trace-out PATH`
//! re-runs the smallest ramp cell with event tracing enabled and writes a
//! Chrome trace; the file is byte-identical at every `--threads` width.

use flashmem_bench::experiments::fleet_scale;

fn main() {
    flashmem_bench::run_bin_with_json_and_trace(
        fleet_scale::run,
        fleet_scale::FleetScale::to_json,
        fleet_scale::traced_showcase,
    );
}
