//! The phases the workloads share: a set-up measured as the median of
//! several, an untraced timed phase of checked repetitions, and the traced
//! run's four passes over one serving engine.

use std::time::Instant;

use flashmem_core::cache::ArtifactCache;
use flashmem_core::pool::ThreadPool;
use flashmem_gpu_sim::error::SimResult;
use flashmem_serve::{chrome_trace, ServeReport};

use crate::clock::{self, Reference, Span, Timing};
use crate::layers::POOL_WIDTH;
use crate::report::Measured;
use crate::spans::SpanLog;
use crate::stats;

/// Set up `reps` times from scratch and report the median reference
/// seconds as `setup_s`; returns the last set-up.
pub fn setup<S>(
    reps: usize,
    reference: &Reference,
    measured: &mut Measured,
    mut setup: impl FnMut() -> SimResult<S>,
) -> SimResult<S> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (done, timing) = reference.time(&mut setup);
        last = Some(done?);
        times.push(timing.scaled_s());
    }
    measured.set(
        "setup_s",
        stats::median(&times).expect("set up at least once"),
    );
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    measured.note(format!("set-up reference seconds [{}]", shown.join(" ")));
    Ok(last.expect("set up at least once"))
}

/// The untraced timed phase. One warm-up repetition is described (the
/// `dev_*` metrics come from it) and its fingerprint kept; then repetitions
/// run until `seconds` have passed, at least `min_reps` times, each checked
/// and compared with the warm-up. Reports the median `work` per reference
/// second as `sim_req_per_s`, and `peak_rss_mb`.
#[allow(clippy::too_many_arguments)]
pub fn timed<R>(
    seconds: f64,
    min_reps: usize,
    work: f64,
    reference: &Reference,
    measured: &mut Measured,
    mut run: impl FnMut() -> SimResult<R>,
    mut check: impl FnMut(&R, &mut Measured) -> u64,
    describe: impl FnOnce(&R, &mut Measured),
) -> SimResult<()> {
    let warm = run()?;
    let expected = check(&warm, measured);
    describe(&warm, measured);
    drop(warm);

    let started = Instant::now();
    let mut times: Vec<Timing> = Vec::new();
    let mut defects = 0;
    while times.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let (result, timing) = reference.time(&mut run);
        times.push(timing);
        if check(&result?, measured) != expected {
            defects += 1;
        }
    }
    if defects > 0 {
        measured.note(format!(
            "DEFECT: {defects} of {} repetitions simulated different results for the same inputs",
            times.len()
        ));
    }
    let rate = |secs: fn(&Timing) -> f64| {
        let rates: Vec<f64> = times.iter().map(|t| work / secs(t)).collect();
        stats::median(&rates).expect("timed at least once")
    };
    let scaled = rate(Timing::scaled_s);
    measured.set("sim_req_per_s", scaled);
    measured.set("peak_rss_mb", stats::self_status_mb("VmHWM"));
    let list = |f: fn(&Timing) -> f64| {
        let values: Vec<String> = times.iter().map(|t| format!("{:.3}", f(t))).collect();
        values.join(" ")
    };
    measured.note(format!(
        "timed {} repetitions: median {scaled:.3} per reference second, {:.3} per host second, {:.3} per wall second; wall seconds [{}]; steal shares [{}]; reference rounds (s) [{}]",
        times.len(),
        rate(|t| t.span.host_s()),
        rate(|t| t.span.wall_s),
        list(|t| t.span.wall_s),
        list(|t| t.span.steal_share),
        list(|t| t.reference_s),
    ));
    Ok(())
}

/// What the traced run's passes over one serving engine leave behind.
pub struct Traced {
    /// Host clocks of the untraced width-2 run.
    pub untraced: Span,
    /// The width-1 run, which the replay attributes.
    pub report: ServeReport,
    /// Its host clocks.
    pub w1: Span,
    /// The run with the engine's event recorder on.
    pub recorded: ServeReport,
}

/// The traced run's timed phase over one serving engine: a warm-up whose
/// outcomes are the reference, untraced at width 2, under a span (`name`)
/// at widths 1 and 2, and once more with the engine's own event recorder
/// (`record`). Every report must match the reference. Reports the pool
/// speed-up, the tracing overheads, the recorder's event counts, the plan
/// cache's counters and the RSS growth (`rss_metric`) over the width-1 run.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    log: &SpanLog,
    name: &str,
    rss_metric: &'static str,
    cache: &ArtifactCache,
    measured: &mut Measured,
    run: impl Fn(&ThreadPool) -> SimResult<ServeReport>,
    record: impl Fn(&ThreadPool) -> SimResult<ServeReport>,
    mut check: impl FnMut(&ServeReport, &mut Measured) -> u64,
) -> SimResult<Traced> {
    let wide = ThreadPool::with_threads(POOL_WIDTH);
    let serial = ThreadPool::with_threads(1);
    let reference = check(&run(&wide)?, measured);
    let (untraced, u2) = clock::measure(|| run(&wide));
    let mut digests = vec![check(&untraced?, measured)];

    let cache_before = cache.stats();
    let rss_before = stats::self_status_mb("VmRSS");
    let (report, w1) =
        clock::measure(|| log.scope(&format!("{name} w1"), None, None, |_| run(&serial)));
    let report = report?;
    measured.set(rss_metric, stats::self_status_mb("VmRSS") - rss_before);
    let cache_after = cache.stats();
    measured.set("cache.hits", (cache_after.hits - cache_before.hits) as f64);
    measured.set(
        "cache.misses",
        (cache_after.misses - cache_before.misses) as f64,
    );
    digests.push(check(&report, measured));

    let (wide_report, w2) =
        clock::measure(|| log.scope(&format!("{name} w2"), None, None, |_| run(&wide)));
    digests.push(check(&wide_report?, measured));
    let (recorded, e2) = clock::measure(|| record(&wide));
    let recorded = recorded?;
    digests.push(check(&recorded, measured));
    if digests.iter().any(|d| *d != reference) {
        measured.note("DEFECT: simulated outcomes differ between the untraced run, pool widths 1 and 2, and the recorded run".into());
    }

    let trace = recorded
        .trace
        .as_ref()
        .expect("the recording engine traces");
    let exported = log.scope("trace.export", None, None, |_| chrome_trace(trace));
    measured.set("trace.events", trace.total_events() as f64);
    measured.set("trace.dropped", trace.dropped_events() as f64);
    measured.set("pool.speedup", w1.host_s() / w2.host_s());
    measured.set(
        "bench.trace_overhead_pct",
        100.0 * (w2.host_s() / u2.host_s() - 1.0),
    );
    measured.set(
        "trace.record_overhead_pct",
        100.0 * (e2.host_s() / u2.host_s() - 1.0),
    );
    measured.note(format!(
        "timed phase (host ms): untraced {:.1} at width 2; spanned {:.1} at width 1, {:.1} at width 2; recorder on {:.1}, its Chrome export {} bytes",
        u2.host_s() * 1e3,
        w1.host_s() * 1e3,
        w2.host_s() * 1e3,
        e2.host_s() * 1e3,
        exported.len()
    ));
    Ok(Traced {
        untraced: u2,
        report,
        w1,
        recorded,
    })
}
