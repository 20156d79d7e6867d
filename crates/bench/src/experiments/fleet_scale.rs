//! Fleet-scale serving benchmark — beyond the paper: how far one
//! `ServeEngine::run` can ramp a simulated device fleet now that independent
//! device timelines advance concurrently on the thread pool.
//!
//! Each cell serves a flash-crowd workload (tight bursts of arrivals, two
//! requests per device) on a fleet of 8 → 64 → 256 → 1024 devices, **twice**:
//! once pinned to a width-1 pool (the exact serial loop, the byte-identity
//! reference) and once on the process-wide pool. The cell records both wall
//! clocks, the fleet-parallel speedup, the per-device step wall-clock, and
//! whether the two `ServeReport`s were byte-identical — which they must be,
//! by the placement → parallel stepping → ordered merge design.
//!
//! This experiment is intentionally **not** part of `bin/all`: there it
//! would run inside a pool worker, the nested fleet fan-out would go inline,
//! and the measured "speedup" would be a tautological 1×. Run it standalone:
//!
//! `cargo run --release -p flashmem-bench --bin fleet_scale [-- --quick] [--threads N] [--json PATH]`

use std::sync::Arc;
use std::time::Instant;

use flashmem_core::pool::{self, ThreadPool};
use flashmem_core::{ArtifactCache, FlashMemConfig};
use flashmem_graph::{ModelSpec, ModelZoo};
use flashmem_serve::{
    ArrivalPattern, FleetTrace, ServeEngine, ServeReport, TraceConfig, WorkloadSpec,
};

use crate::experiments::serve::serving_fleet;
use crate::fmt_ms;
use crate::json::Json;
use crate::table::TextTable;

/// One fleet-size cell of the ramp.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScaleCell {
    /// Devices in the fleet.
    pub fleet: usize,
    /// Requests submitted (two per device, flash-crowd arrivals).
    pub requests: usize,
    /// Requests completed.
    pub completed: usize,
    /// Simulated fleet makespan (ms).
    pub makespan_ms: f64,
    /// Median end-to-end latency (ms, simulated); `None` (JSON `null`) when
    /// no request completed.
    pub p50_ms: Option<f64>,
    /// 99th-percentile latency (ms, simulated); `None` when no request
    /// completed.
    pub p99_ms: Option<f64>,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// True when the parallel report was byte-identical to the serial one
    /// (always expected; recorded so CI can grep for regressions).
    pub identical: bool,
    /// Wall-clock of the width-1 (serial) fleet run, in ms.
    pub serial_ms: f64,
    /// Wall-clock of the pool-parallel fleet run, in ms.
    pub parallel_ms: f64,
    /// Fleet-parallel speedup: `serial_ms / parallel_ms`.
    pub speedup: f64,
    /// Mean wall-clock spent stepping one device timeline in the parallel
    /// run: `parallel_ms / fleet`.
    pub per_device_step_ms: f64,
}

/// The fleet-scale ramp result.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScale {
    /// Pool width the parallel runs used.
    pub threads: usize,
    /// One cell per fleet size, ascending.
    pub cells: Vec<FleetScaleCell>,
}

fn fleet_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![8, 32]
    } else {
        vec![8, 64, 256, 1024]
    }
}

fn models(quick: bool) -> Vec<ModelSpec> {
    if quick {
        vec![ModelZoo::vit()]
    } else {
        vec![ModelZoo::gptneo_small(), ModelZoo::vit()]
    }
}

/// A flash crowd: arrivals land in tight bursts far faster than one device
/// drains, so every timeline has real queueing to schedule through.
fn flash_crowd(fleet: usize, models: &[ModelSpec]) -> Vec<flashmem_serve::ServeRequest> {
    WorkloadSpec {
        pattern: ArrivalPattern::Bursty {
            burst_size: 16,
            gap_ms: 400.0,
        },
        requests: 2 * fleet,
        tenants: 4,
        priority_levels: 3,
        seed: 0xF1EE_5CA1 + fleet as u64,
    }
    .generate(models)
}

/// One timed fleet run on `pool` with a fresh engine and plan cache (fresh so
/// the serial and parallel runs see identical cache-counter telemetry).
fn timed_run(
    pool: &ThreadPool,
    fleet: usize,
    requests: &[flashmem_serve::ServeRequest],
) -> (ServeReport, f64) {
    let engine = ServeEngine::new(serving_fleet(fleet), FlashMemConfig::memory_priority())
        .with_cache(Arc::new(ArtifactCache::new()))
        .with_tenant_slo("tenant-0", 1_500.0)
        .with_tenant_slo("tenant-1", 4_000.0);
    let start = Instant::now();
    let report = engine.run_on(pool, requests).expect("fleet-scale run");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// Run the ramp with parallel cells on the process-wide [`pool::global`].
pub fn run(quick: bool) -> FleetScale {
    run_on(pool::global(), quick)
}

/// The smallest ramp cell re-run with event tracing enabled — the
/// [`FleetTrace`] behind the fleet-scale binary's `--trace-out` flag. The
/// flash crowd places two requests on every device (round-robin), so each
/// of the 8 device processes records events; simulated-time stamps keep
/// the export byte-identical at every pool width.
pub fn traced_showcase(quick: bool) -> FleetTrace {
    let models = models(quick);
    let fleet = fleet_sizes(quick)[0];
    let requests = flash_crowd(fleet, &models);
    let engine = ServeEngine::new(serving_fleet(fleet), FlashMemConfig::memory_priority())
        .with_cache(Arc::new(ArtifactCache::new()))
        .with_tenant_slo("tenant-0", 1_500.0)
        .with_tenant_slo("tenant-1", 4_000.0)
        .with_trace(TraceConfig::enabled());
    let report = engine.run(&requests).expect("traced fleet-scale run");
    report.trace.expect("tracing was enabled")
}

/// [`run`] with an explicit pool for the parallel runs. The ramp itself is
/// sequential on purpose — the fleet fan-out *inside* each run is the thing
/// being measured, and it only parallelizes at top level (nested pool calls
/// run inline).
pub fn run_on(pool: &ThreadPool, quick: bool) -> FleetScale {
    let models = models(quick);
    let serial_pool = ThreadPool::with_threads(1);
    let cells = fleet_sizes(quick)
        .into_iter()
        .map(|fleet| {
            let requests = flash_crowd(fleet, &models);
            let (serial, serial_ms) = timed_run(&serial_pool, fleet, &requests);
            let (parallel, parallel_ms) = timed_run(pool, fleet, &requests);
            let identical = format!("{serial:?}") == format!("{parallel:?}");
            FleetScaleCell {
                fleet,
                requests: requests.len(),
                completed: serial.completed(),
                makespan_ms: serial.makespan_ms(),
                p50_ms: serial.latency.map(|l| l.p50_ms),
                p99_ms: serial.latency.map(|l| l.p99_ms),
                throughput_rps: serial.throughput_rps,
                identical,
                serial_ms,
                parallel_ms,
                speedup: if parallel_ms > 0.0 {
                    serial_ms / parallel_ms
                } else {
                    1.0
                },
                per_device_step_ms: parallel_ms / fleet as f64,
            }
        })
        .collect();
    FleetScale {
        threads: pool.threads(),
        cells,
    }
}

impl FleetScale {
    /// Machine-readable per-cell metrics. The `serial_ms` / `parallel_ms` /
    /// `speedup` / `per_device_step_ms` fields are wall-clock telemetry and
    /// therefore schedule-dependent; `scripts/diff-bench-json.sh` strips them
    /// (alongside `elapsed_ms`/`threads`) before demanding byte-identity.
    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::obj()
                    .field("fleet", c.fleet)
                    .field("requests", c.requests)
                    .field("completed", c.completed)
                    .field("makespan_ms", c.makespan_ms)
                    .field("p50_ms", c.p50_ms)
                    .field("p99_ms", c.p99_ms)
                    .field("throughput_rps", c.throughput_rps)
                    .field("identical_to_serial", c.identical)
                    .field("serial_ms", c.serial_ms)
                    .field("parallel_ms", c.parallel_ms)
                    .field("speedup", c.speedup)
                    .field("per_device_step_ms", c.per_device_step_ms)
            })
            .collect();
        Json::obj()
            .field("experiment", "fleet_scale")
            .field("cells", Json::Arr(cells))
    }
}

impl std::fmt::Display for FleetScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fleet-scale ramp under flash-crowd arrivals ({} pool thread{}; wall clocks in ms)",
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        )?;
        let mut t = TextTable::new(&[
            "Fleet",
            "Done",
            "Makespan",
            "p50",
            "p99",
            "Req/s",
            "Serial",
            "Parallel",
            "Speedup",
            "ms/device",
            "Identical",
        ]);
        for c in &self.cells {
            t.row(&[
                format!("{}", c.fleet),
                format!("{}/{}", c.completed, c.requests),
                format!("{:.0}", c.makespan_ms),
                fmt_ms(c.p50_ms),
                fmt_ms(c.p99_ms),
                format!("{:.2}", c.throughput_rps),
                format!("{:.0}", c.serial_ms),
                format!("{:.0}", c.parallel_ms),
                format!("{:.2}×", c.speedup),
                format!("{:.2}", c.per_device_step_ms),
                format!("{}", c.identical),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ramp_completes_and_parallel_matches_serial() {
        let bench = run_on(&ThreadPool::with_threads(4), true);
        assert_eq!(bench.cells.len(), 2);
        for cell in &bench.cells {
            assert_eq!(cell.requests, 2 * cell.fleet);
            assert_eq!(cell.completed, cell.requests, "{cell:?}");
            assert!(cell.identical, "parallel fleet diverged: {cell:?}");
            assert!(cell.makespan_ms > 0.0);
            assert!(cell.throughput_rps > 0.0);
            assert!(cell.serial_ms > 0.0 && cell.parallel_ms > 0.0);
            assert!(cell.per_device_step_ms <= cell.parallel_ms);
        }
        // The ramp ascends.
        assert!(bench.cells[0].fleet < bench.cells[1].fleet);
    }

    #[test]
    fn traced_showcase_covers_the_whole_fleet() {
        let trace = traced_showcase(true);
        assert_eq!(trace.processes.len(), 8);
        for process in &trace.processes {
            assert!(
                !process.events.is_empty(),
                "{} recorded nothing",
                process.name
            );
        }
    }

    #[test]
    fn json_carries_the_per_device_wall_clock_fields() {
        let bench = run_on(&ThreadPool::with_threads(2), true);
        let json = bench.to_json().pretty();
        assert!(json.contains("\"experiment\": \"fleet_scale\""));
        assert!(json.contains("\"fleet\": 8"));
        assert!(json.contains("\"serial_ms\""));
        assert!(json.contains("\"parallel_ms\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"per_device_step_ms\""));
        assert!(json.contains("\"identical_to_serial\": true"));
    }
}
