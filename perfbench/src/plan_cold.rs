//! `plan_cold`: a cold FlashMem compile (memory-priority preset) plus one
//! solo run for every cell of {GPTN-S, ViT, ResNet-50, DepthAnything-S,
//! Whisper-M} × {OnePlus 12, Pixel 8}, each with a fresh plan cache — the
//! paper-table path. Nearly all of its host time is the LC-OPG solve.
//!
//! The seed draws each phone's kernel-launch overhead within ±5% of its
//! spec (unit-to-unit variation), so seeds give different but comparable
//! inputs. Cells reach the pool longest compile first, alternating phones,
//! so both workers get an even share whatever the seed.

use flashmem_core::cache::{ArtifactCache, Fnv1a};
use flashmem_core::engine::InferenceEngine;
use flashmem_core::pool::ThreadPool;
use flashmem_core::{CompiledModel, FlashMem};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::{DeviceSpec, SplitMix64};
use flashmem_graph::{ModelSpec, ModelZoo, WeightInventory};

use crate::clock::{self, Reference};
use crate::layers::{self, spanned, PlanTotals, Tracing, POOL_WIDTH};
use crate::report::Measured;
use crate::spans::{SpanLog, SpanSet};
use crate::{phase, stats, Args};

/// Set-up is milliseconds of graph building, so it is sampled
/// `SETUP_SAMPLES` times, each sample building the five graphs
/// `BUILDS_PER_SAMPLE` times over on the pool.
const SETUP_SAMPLES: usize = 9;
const BUILDS_PER_SAMPLE: usize = 40;
/// Timed repetitions of the whole cell sweep, at least.
const MIN_REPS: usize = 3;

/// The five models, longest compile first.
const MODELS: [fn() -> ModelSpec; 5] = [
    ModelZoo::whisper_medium,
    ModelZoo::vit,
    ModelZoo::gptneo_small,
    ModelZoo::depth_anything_small,
    ModelZoo::resnet50,
];

fn build_models() -> Vec<ModelSpec> {
    MODELS.iter().map(|build| build()).collect()
}

fn devices(seed: u64) -> Vec<DeviceSpec> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x00C0_1D00);
    [DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()]
        .into_iter()
        .map(|d| {
            let jitter = 0.95 + 0.1 * rng.gen_f64();
            let overhead = d.kernel_launch_overhead_ms * jitter;
            d.with_launch_overhead_ms(overhead)
        })
        .collect()
}

/// Every (model, device) cell, model-major: the pool deals jobs round
/// robin, so each phone's cells land on one worker.
fn cells<'a>(
    models: &'a [ModelSpec],
    devices: &'a [DeviceSpec],
) -> Vec<(&'a ModelSpec, &'a DeviceSpec)> {
    models
        .iter()
        .flat_map(|m| devices.iter().map(move |d| (m, d)))
        .collect()
}

/// One cell's result.
struct Cell {
    label: String,
    compiled: CompiledModel,
    cache_hit: bool,
    plan_valid: Result<(), String>,
    latency_ms: f64,
    peak_mb: f64,
}

fn run_cell(
    model: &ModelSpec,
    device: &DeviceSpec,
    tracing: Option<Tracing<'_>>,
) -> SimResult<Cell> {
    let cache = ArtifactCache::new();
    let (artifact, cache_hit) = layers::compile(&cache, model, device, tracing)?;
    let engine = FlashMem::new(device.clone()).with_config(layers::config());
    let report = spanned(tracing, "exec.solo", || {
        engine.execute(model, &artifact, device)
    })?;
    let compiled = artifact
        .as_streaming()
        .cloned()
        .expect("FlashMem compiles streaming artifacts");
    let config = layers::config();
    let inventory = WeightInventory::with_chunk_size(model.graph(), config.chunk_bytes);
    let plan_valid = compiled
        .plan
        .validate(&inventory, Some(config.m_peak_bytes + config.chunk_bytes))
        .map_err(|e| format!("{e:?}"));
    Ok(Cell {
        label: format!("{}@{}", model.abbr, device.name),
        compiled,
        cache_hit,
        plan_valid,
        latency_ms: report.integrated_latency_ms,
        peak_mb: report.peak_memory_mb,
    })
}

fn sweep(
    pool: &ThreadPool,
    cells: &[(&ModelSpec, &DeviceSpec)],
    tracing: Option<Tracing<'_>>,
) -> SimResult<Vec<Cell>> {
    pool.try_parallel_map(cells.to_vec(), |(model, device)| {
        run_cell(model, device, tracing)
    })
}

/// Check every cell; returns a fingerprint of the simulated results.
fn check(cells: &[Cell], measured: &mut Measured) -> u64 {
    let mut digest = Fnv1a::new();
    for c in cells {
        let ok = !c.cache_hit
            && c.plan_valid.is_ok()
            && c.latency_ms.is_finite()
            && c.latency_ms > 0.0
            && c.peak_mb > 0.0;
        measured.checks.item(ok, || {
            format!(
                "cell {}: cold={} plan={:?} latency={} peak={}",
                c.label, !c.cache_hit, c.plan_valid, c.latency_ms, c.peak_mb
            )
        });
        digest = digest
            .write_f64(c.latency_ms)
            .write_f64(c.peak_mb)
            .write_u64(c.compiled.plan.streamed_bytes());
    }
    digest.finish()
}

/// Reference seconds per build of the five graphs (median over samples),
/// and the graphs and phones the timed phase uses.
fn build_setup(
    seed: u64,
    pool: &ThreadPool,
    reference: &Reference,
) -> (Vec<ModelSpec>, Vec<DeviceSpec>, f64) {
    let per_build: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let jobs: Vec<usize> = (0..BUILDS_PER_SAMPLE * MODELS.len()).collect();
            // Each graph is dropped once built, so a sample holds at most
            // one graph per worker.
            let ((), timing) = reference.time(|| {
                pool.parallel_map(jobs, |i| drop(MODELS[i % MODELS.len()]()));
            });
            timing.scaled_s() / BUILDS_PER_SAMPLE as f64
        })
        .collect();
    let setup_s = stats::median(&per_build).expect("set-up ran");
    (build_models(), devices(seed), setup_s)
}

fn dev_metrics(cells: &[Cell], measured: &mut Measured) {
    let latencies: Vec<f64> = cells.iter().map(|c| c.latency_ms).collect();
    let peaks: Vec<f64> = cells.iter().map(|c| c.peak_mb).collect();
    measured.set("dev_p50_ms", stats::median(&latencies).unwrap_or(0.0));
    measured.set(
        "dev_lat_geomean_ms",
        stats::geomean(&latencies).unwrap_or(0.0),
    );
    measured.set("dev_peak_mem_mb", stats::geomean(&peaks).unwrap_or(0.0));
    let totals = PlanTotals::of(cells.iter().map(|c| &c.compiled));
    measured.note(format!(
        "{} cells, {} LC-OPG windows, {} fallbacks, {} deadline plans (Feasible only because a solver window hit its wall clock)",
        cells.len(),
        totals.windows,
        totals.fallbacks,
        totals.deadline_plans
    ));
}

pub fn run(args: &Args) -> SimResult<Measured> {
    let mut measured = Measured::default();
    let reference = Reference::new();
    let pool = ThreadPool::with_threads(POOL_WIDTH);
    let (models, devices, setup_s) = build_setup(args.seed, &pool, &reference);
    measured.set("setup_s", setup_s);
    let cells = cells(&models, &devices);
    phase::timed(
        args.seconds,
        MIN_REPS,
        cells.len() as f64,
        &reference,
        &mut measured,
        || sweep(&pool, &cells, None),
        |cells: &Vec<Cell>, measured| check(cells, measured),
        |cells: &Vec<Cell>, measured| dev_metrics(cells, measured),
    )?;
    Ok(measured)
}

pub fn run_traced(args: &Args, log: &SpanLog) -> SimResult<Measured> {
    let mut measured = Measured::default();
    let setup = log.open("setup", None, None);
    let models: Vec<ModelSpec> = MODELS
        .iter()
        .map(|build| log.scope("graph.build", Some(setup), None, |_| build()))
        .collect();
    let devices = devices(args.seed);
    log.close(setup);
    let cells = cells(&models, &devices);
    let wide = ThreadPool::with_threads(POOL_WIDTH);
    let serial = ThreadPool::with_threads(1);

    // A warm-up sweep (the reference results), the untraced timed phase as
    // the end-to-end run measures it, then the traced one at widths 1 and 2.
    let reference = check(&sweep(&wide, &cells, None)?, &mut measured);
    let (untraced, u2) = clock::measure(|| sweep(&wide, &cells, None));
    let mut fingerprints = vec![check(&untraced?, &mut measured)];
    let root1 = log.open("timed.w1", None, None);
    let tracing = Tracing { log, parent: root1 };
    let (one, w1) = clock::measure(|| sweep(&serial, &cells, Some(tracing)));
    log.close(root1);
    let one = one?;
    fingerprints.push(check(&one, &mut measured));
    let root2 = log.open("timed.w2", None, None);
    let tracing = Tracing { log, parent: root2 };
    let (two, w2) = clock::measure(|| sweep(&wide, &cells, Some(tracing)));
    log.close(root2);
    fingerprints.push(check(&two?, &mut measured));
    if fingerprints.iter().any(|f| *f != reference) {
        measured.note(
            "DEFECT: the simulated results differ between the untraced run and pool widths 1 and 2"
                .into(),
        );
    }

    let set = SpanSet::new(log.spans());
    layers::compile_layers(
        &set,
        setup,
        root1,
        one.iter().map(|c| &c.compiled),
        &mut measured,
    );
    measured.set("exec.solo_ms", set.total_ms(root1, "exec.solo"));
    measured.set("cache.misses", cells.len() as f64);
    measured.set("pool.speedup", w1.host_s() / w2.host_s());
    measured.set(
        "bench.trace_overhead_pct",
        100.0 * (w2.host_s() / u2.host_s() - 1.0),
    );
    measured.note(format!(
        "timed phase (host ms): untraced {:.1} at width 2; traced {:.1} at width 1, {:.1} at width 2",
        u2.host_s() * 1e3,
        w1.host_s() * 1e3,
        w2.host_s() * 1e3
    ));
    measured.note(format!(
        "width-1 self time by layer (ms): {:?}",
        set.self_by_layer(root1)
    ));
    Ok(measured)
}
