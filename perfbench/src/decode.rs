//! `decode_steady`: `DecodeEngine` continuous batching (max batch 8) of
//! GPTN-S requests with long outputs on OnePlus 12 + Pixel 8 — the only
//! workload that runs the per-token step loop and the KV tracker. Host
//! memory grows with every token, so the timed phase is several bounded
//! runs rather than one huge one.

use std::collections::BTreeMap;
use std::sync::Arc;

use flashmem_core::cache::ArtifactCache;
use flashmem_core::pool::ThreadPool;
use flashmem_gpu_sim::decode::replay_stream;
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::{DecodeStepPlan, DeviceSpec, KvCache};
use flashmem_graph::{ModelSpec, ModelZoo};
use flashmem_serve::server::lower_artifact;
use flashmem_serve::{
    ArrivalPattern, BatchConfig, DecodeEngine, DecodeWorkloadSpec, ServeReport, ServeRequest,
    TraceConfig, TraceKind,
};

use crate::clock::Reference;
use crate::layers::{self, Tracing, POOL_WIDTH};
use crate::report::Measured;
use crate::serve::{self, check_outcomes, Setup};
use crate::spans::{SpanLog, SpanSet};
use crate::{phase, stats, Args};

/// Timed repetitions of the whole run, at least.
const MIN_REPS: usize = 5;
const REQUESTS: usize = 1000;
const MAX_BATCH: usize = 8;
const PROMPT_TOKENS: (u32, u32) = (16, 64);
const OUTPUT_TOKENS: (u32, u32) = (128, 192);
/// Mean Poisson gap: batches stay part-full and the backlog bounded.
const MEAN_GAP_MS: f64 = 6000.0;

fn fleet() -> Vec<DeviceSpec> {
    vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()]
}

fn engine(cache: Arc<ArtifactCache>) -> DecodeEngine {
    DecodeEngine::new(fleet(), layers::config())
        .with_batching(BatchConfig {
            max_batch: MAX_BATCH,
            ..BatchConfig::default()
        })
        .with_cache(cache)
}

fn step_model(model: &ModelSpec) -> &ModelSpec {
    &model.decode().expect("GPTN-S is autoregressive").step
}

/// Graph build, a cold compile of the prefill and step plans for both
/// phones through a fresh cache, and request generation.
fn setup(seed: u64, pool: &ThreadPool, tracing: Option<Tracing<'_>>) -> SimResult<Setup> {
    serve::set_up(
        &[ModelZoo::gptneo_small],
        &fleet(),
        |m| vec![m, step_model(m)],
        |models| {
            DecodeWorkloadSpec {
                pattern: ArrivalPattern::Poisson {
                    mean_interval_ms: MEAN_GAP_MS,
                },
                requests: REQUESTS,
                tenants: 4,
                prompt_tokens: PROMPT_TOKENS,
                output_tokens: OUTPUT_TOKENS,
                seed,
            }
            .generate(models)
        },
        pool,
        tracing,
    )
}

/// Disposition and token-conservation checks; returns a fingerprint of
/// the simulated outcomes.
fn check(report: &ServeReport, requests: &[ServeRequest], measured: &mut Measured) -> u64 {
    let mut digest = check_outcomes(report, requests, measured);
    for (o, r) in report
        .outcomes
        .iter()
        .zip(requests)
        .filter(|(o, _)| o.succeeded())
    {
        let asked = r.decode.expect("decode requests carry token counts");
        let conserved = o.decode.as_ref().is_some_and(|d| {
            d.prompt_tokens == asked.prompt_tokens
                && d.output_tokens == asked.output_tokens
                && d.itl_ms.len() + 1 == asked.output_tokens as usize
        });
        measured.checks.item(conserved, || {
            format!(
                "request {}: asked {asked:?}, emitted {:?}",
                o.seq,
                o.decode
                    .as_ref()
                    .map(|d| (d.prompt_tokens, d.output_tokens, d.itl_ms.len()))
            )
        });
        if let Some(d) = &o.decode {
            digest = digest.write_f64(d.ttft_ms).write_u64(d.max_batch as u64);
        }
    }
    digest.finish()
}

fn describe(report: &ServeReport, measured: &mut Measured) {
    serve::dev_metrics(report, measured);
    let (ttft, itl) = token_latencies(report);
    let show = |xs: &[f64]| {
        format!(
            "p50 {:.3} ms, {}",
            stats::median(xs).unwrap_or(0.0),
            stats::tail(xs).map_or("no tail".into(), |t| format!(
                "p{} {:.3} ms of {} samples",
                t.pct, t.value, t.samples
            ))
        )
    };
    measured.note(format!(
        "simulated: {} tokens at {:.2} tok/s; TTFT {}; ITL {}",
        report.decode_tokens,
        report.tokens_per_s,
        show(&ttft),
        show(&itl)
    ));
}

fn token_latencies(report: &ServeReport) -> (Vec<f64>, Vec<f64>) {
    let decodes = || {
        report
            .outcomes
            .iter()
            .filter(|o| o.succeeded())
            .filter_map(|o| o.decode.as_ref())
    };
    (
        decodes().map(|d| d.ttft_ms).collect(),
        decodes().flat_map(|d| d.itl_ms.iter().copied()).collect(),
    )
}

pub fn run(args: &Args) -> SimResult<Measured> {
    let mut measured = Measured::default();
    let pool = ThreadPool::with_threads(POOL_WIDTH);
    let reference = Reference::new();
    let setup = serve::measured_setup(&reference, &mut measured, || setup(args.seed, &pool, None))?;
    let engine = engine(Arc::clone(&setup.cache));
    let requests = &setup.requests;
    phase::timed(
        args.seconds,
        MIN_REPS,
        requests.len() as f64,
        &reference,
        &mut measured,
        || engine.run_on(&pool, requests),
        |report, measured| check(report, requests, measured),
        describe,
    )?;
    Ok(measured)
}

/// Mean decode-step batch over the recorded `DecodeStep` spans (named
/// `step <model> ×<batch>`), and how many steps it averaged.
fn mean_batch(report: &ServeReport) -> (f64, usize) {
    let batches: Vec<f64> = report
        .trace
        .iter()
        .flat_map(|t| &t.processes)
        .flat_map(|p| &p.events)
        .filter(|e| e.kind == TraceKind::DecodeStep)
        .filter_map(|e| e.name.rsplit('×').next()?.trim().parse::<f64>().ok())
        .collect();
    (
        batches.iter().sum::<f64>() / batches.len().max(1) as f64,
        batches.len(),
    )
}

/// KV in use at each device's peak over the KV reserved at join by the
/// requests resident at that instant, summed over devices. Rebuilt from
/// the outcomes: a request reserves `prompt + output − 1` tokens from its
/// join (prefill start) to its last token, holds its prompt from its first
/// token and one more token at each later token.
fn kv_used_ratio(report: &ServeReport, fleet: usize) -> f64 {
    let mut events: Vec<Vec<(f64, i64, i64)>> = vec![Vec::new(); fleet];
    for o in report.outcomes.iter().filter(|o| o.succeeded()) {
        let Some(d) = &o.decode else { continue };
        let context = i64::from(d.prompt_tokens + d.output_tokens - 1);
        let device = &mut events[o.device_index];
        device.push((o.start_ms, 0, context));
        let mut t = o.arrival_ms + d.ttft_ms;
        device.push((t, i64::from(d.prompt_tokens), 0));
        for gap in &d.itl_ms {
            t += gap;
            device.push((t, 1, 0));
        }
        device.push((o.completion_ms, -context, -context));
    }
    let (mut used_at_peak, mut reserved_at_peak) = (0i64, 0i64);
    for mut device in events {
        // Growth before release at one instant, as the step loop does.
        device.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let (mut used, mut reserved, mut peak) = (0i64, 0i64, (0i64, 0i64));
        for (_, du, dr) in device {
            used += du;
            reserved += dr;
            if used > peak.0 {
                peak = (used, reserved);
            }
        }
        used_at_peak += peak.0;
        reserved_at_peak += peak.1;
    }
    used_at_peak as f64 / reserved_at_peak.max(1) as f64
}

pub fn run_traced(args: &Args, log: &SpanLog) -> SimResult<Measured> {
    let mut measured = Measured::default();
    let wide = ThreadPool::with_threads(POOL_WIDTH);
    let setup_span = log.open("setup", None, None);
    let tracing = Tracing {
        log,
        parent: setup_span,
    };
    let setup = setup(args.seed, &wide, Some(tracing))?;
    log.close(setup_span);
    let engine = engine(Arc::clone(&setup.cache));
    let recording = self::engine(Arc::clone(&setup.cache))
        .with_trace(TraceConfig::enabled().with_events_per_device(1 << 20));
    let requests = &setup.requests;
    let phase::Traced {
        untraced,
        report,
        w1,
        recorded,
    } = phase::traced(
        log,
        "decode.run_on",
        "decode.rss_growth_mb",
        &setup.cache,
        &mut measured,
        |pool| engine.run_on(pool, requests),
        |pool| recording.run_on(pool, requests),
        |report, measured| check(report, requests, measured),
    )?;
    let (batch, steps) = mean_batch(&recorded);
    drop(recorded);

    // Replay, per phone: the plan lookups and lowerings, one prefill, one
    // step replay per batch width, and every completed request's KV growth.
    let model = &setup.models[0];
    let kv_bytes_per_token = model
        .decode()
        .expect("GPTN-S is autoregressive")
        .kv_bytes_per_token;
    let replay = log.open("replay", None, None);
    let (mut commands, mut kv_tokens) = (0usize, 0u64);
    for (index, device) in fleet().iter().enumerate() {
        let sim = layers::simulator(device);
        let mut streams = Vec::new();
        for plan in [model, step_model(model)] {
            let (artifact, _) = log.scope("cache.lookup", Some(replay), None, |_| {
                layers::compile(&setup.cache, plan, device, None)
            })?;
            let stream = log.scope("lower", Some(replay), None, |_| {
                lower_artifact(&artifact, plan, device, &layers::config())
            });
            commands += stream.len();
            streams.push(stream);
        }
        let step_plan = DecodeStepPlan::new(streams.pop().expect("step stream"))?;
        let prefill = streams.pop().expect("prefill stream");
        let mut tracker = MemoryTracker::for_device(device);
        log.scope("decode.prefill_replay", Some(replay), None, |_| {
            replay_stream(&prefill, &sim, &mut tracker, 0.0)
        })?;
        for batch in 1..=MAX_BATCH {
            log.scope("decode.step_replay", Some(replay), None, |_| {
                step_plan.replay(&sim, &mut tracker, batch, 0.0)
            })?;
        }
        for o in report
            .outcomes
            .iter()
            .filter(|o| o.succeeded() && o.device_index == index)
        {
            let Some(d) = &o.decode else { continue };
            log.scope("decode.kv_grow", Some(replay), Some(o.seq), |_| {
                let mut kv = KvCache::new(kv_bytes_per_token);
                let label = format!("kv seq{}", o.seq);
                kv.grow(&mut tracker, u64::from(d.prompt_tokens), &label, 0.0)?;
                for _ in 1..d.output_tokens {
                    kv.grow(&mut tracker, 1, &label, 0.0)?;
                }
                kv.release(&mut tracker, 0.0)
            })?;
            kv_tokens += u64::from(d.prompt_tokens + d.output_tokens - 1);
        }
    }
    log.close(replay);

    let set = SpanSet::new(log.spans());
    let ms = |layer: &str| set.total_ms(replay, layer);
    let run_ms = w1.wall_s * 1e3;
    let replayed_ms = set.total_ms(replay, "cache.lookup")
        + ms("lower")
        + ms("decode.prefill_replay")
        + ms("decode.step_replay")
        + ms("decode.kv_grow");
    let tokens = report.decode_tokens.max(1) as f64;
    let devices = fleet().len();
    let lowerings = (2 * devices) as f64;
    layers::compile_layers(&set, setup_span, setup_span, &setup.compiled, &mut measured);
    measured.set("cache.hit_us", ms("cache.lookup") * 1e3 / lowerings);
    measured.set("lower.us_per_req", ms("lower") * 1e3 / lowerings);
    measured.set("lower.cmds_per_req", commands as f64 / lowerings);
    measured.set("decode.run_ms", run_ms);
    measured.set(
        "decode.step_replay_us",
        ms("decode.step_replay") * 1e3 / (MAX_BATCH * devices) as f64,
    );
    measured.set(
        "decode.kv_grow_ns",
        ms("decode.kv_grow") * 1e6 / kv_tokens.max(1) as f64,
    );
    measured.set(
        "decode.self_ns_per_token",
        (run_ms - replayed_ms) * 1e6 / tokens,
    );
    measured.set("decode.sim_tok_per_s", tokens / untraced.host_s());
    measured.set("decode.batch_fill", batch / MAX_BATCH as f64);
    measured.set("decode.kv_used_ratio", kv_used_ratio(&report, devices));
    let (ttft, itl) = token_latencies(&report);
    let tail = |xs: &[f64]| stats::tail(xs).map_or(0.0, |t| t.value);
    measured.set("dev.tail_ms", tail(&serve::completed_latencies(&report)));
    measured.set(
        "dev.slo_attainment",
        stats::attainment(&report.outcomes).unwrap_or(1.0),
    );
    measured.set("dev.ttft_p50_ms", stats::median(&ttft).unwrap_or(0.0));
    measured.set("dev.ttft_tail_ms", tail(&ttft));
    measured.set("dev.itl_p50_ms", stats::median(&itl).unwrap_or(0.0));
    measured.set("dev.itl_tail_ms", tail(&itl));
    measured.set("dev.tok_per_s", report.tokens_per_s);
    let share = |ms: f64| format!("{:.1}%", 100.0 * ms / run_ms);
    let by_layer: BTreeMap<&str, String> = [
        ("step replay", share(ms("decode.step_replay"))),
        ("kv growth", share(ms("decode.kv_grow"))),
        (
            "lookup, lowering and prefill",
            share(ms("cache.lookup") + ms("lower") + ms("decode.prefill_replay")),
        ),
        ("decode self", share(run_ms - replayed_ms)),
    ]
    .into_iter()
    .collect();
    measured.note(format!(
        "mean decode batch {batch:.3} over {steps} recorded steps; width-1 run ({run_ms:.1} ms) attributed: {by_layer:?}"
    ));
    Ok(measured)
}
