//! The benchmark's own arithmetic: medians, the tail-percentile rule, SLO
//! attainment with rejects and failures counted as misses, interval unions
//! for span self time, and the `/proc` parsers behind the host metrics.

use flashmem_serve::RequestOutcome;

/// Median of `values` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Geometric mean of positive values; `None` when empty or when any value
/// is not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// A tail percentile chosen by the reporting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (for example 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of the ladder p99.99 / p99.9 / p99 / p90 / p50
/// that has at least ten samples beyond it (nearest rank), with the sample
/// count; `None` when even the median has fewer than ten beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        // Nearest rank, with a guard against 99.9 / 100 * n landing just
        // above an integer.
        let rank = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            pct,
            value: sorted[rank - 1],
            samples: n,
        })
    })
}

/// SLO attainment over every submitted request that carries a deadline:
/// met only when it completed within the deadline, so rejected and failed
/// requests count as misses (unlike `SloSummary::attainment`, which leaves
/// rejects out). `None` when no request carries a deadline.
pub fn attainment(outcomes: &[RequestOutcome]) -> Option<f64> {
    let mut tracked = 0usize;
    let mut met = 0usize;
    for o in outcomes {
        if let Some(deadline) = o.deadline_ms {
            tracked += 1;
            if o.succeeded() && o.latency_ms <= deadline + 1e-9 {
                met += 1;
            }
        }
    }
    (tracked > 0).then(|| met as f64 / tracked as f64)
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of a span `[start, end]`: its duration minus the part of it
/// its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(children, start, end)
}

/// A `kB` field (`VmHWM`, `VmRSS`, ...) of a `/proc/<pid>/status` text, in
/// MiB.
pub fn status_field_mb(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb / 1024.0)
    })
}

/// This process's `field` from `/proc/self/status`, in MiB (0 where the
/// file is unavailable).
pub fn self_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field_mb(&s, field))
        .unwrap_or(0.0)
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of a `/proc/stat`
/// text (total counts user through steal, leaving out the guest columns
/// that are already part of user time).
pub fn cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// The host's current `(steal, total)` jiffies, if `/proc/stat` is readable.
pub fn host_steal() -> Option<(u64, u64)> {
    cpu_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_gpu_sim::SimError;
    use flashmem_serve::{PhaseBreakdown, RejectCause};

    fn outcome(deadline: Option<f64>, latency: f64) -> RequestOutcome {
        RequestOutcome {
            seq: 0,
            model: "m".into(),
            tenant: "t".into(),
            priority: 0,
            device: "d".into(),
            device_index: 0,
            arrival_ms: 0.0,
            start_ms: 0.0,
            completion_ms: latency,
            queue_wait_ms: 0.0,
            latency_ms: latency,
            deadline_ms: deadline,
            admission_laxity_ms: None,
            resident_estimate_bytes: 0,
            preemptions: 0,
            suspended_ms: 0.0,
            resume_penalty_ms: 0.0,
            cache_hit: true,
            peak_memory_mb: 0.0,
            phases: PhaseBreakdown::attribute(latency, 0.0, 0.0, 0.0, &[], &[]),
            rejected: None,
            stolen_from: None,
            error: None,
            failure: None,
            retries: 0,
            failed_over: false,
            report: None,
            decode: None,
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 1000 samples: p99 (rank 990) has exactly ten beyond it, p99.9 one.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 (rank 990) has only nine beyond it, so p90.
        let t = tail(&values[..999]).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (90.0, 900.0, 999));
        // 10 000 samples: p99.9 (rank 9990) has ten beyond it.
        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&values).unwrap().pct, 99.9);
        // Order does not matter; 20 samples support only the median.
        let mut values: Vec<f64> = (1..=20).map(f64::from).collect();
        values.reverse();
        assert_eq!(tail(&values).unwrap().value, 10.0);
        assert_eq!(tail(&values[..19]), None);
    }

    #[test]
    fn attainment_counts_rejects_and_failures_as_misses() {
        let met = outcome(Some(100.0), 50.0);
        let late = outcome(Some(100.0), 150.0);
        let mut rejected = outcome(Some(100.0), 0.0);
        rejected.rejected = Some(RejectCause::QueueFull);
        let mut failed = outcome(Some(100.0), 10.0);
        failed.error = Some(SimError::InvalidParameter {
            message: "injected".into(),
        });
        let untracked = outcome(None, 10.0);
        let all = [met, late, rejected, failed, untracked];
        assert_eq!(attainment(&all), Some(0.25));
        assert_eq!(attainment(&all[4..]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Overlapping children [10,30] and [20,40] cover 30; a child
        // sticking out of the parent is clipped to it.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)]), 70);
        assert_eq!(self_time(0, 100, &[(90, 150), (10, 20)]), 80);
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(50, 60, &[(0, 40), (70, 80)]), 10);
        assert_eq!(self_time(0, 100, &[(0, 100), (30, 40)]), 0);
    }

    #[test]
    fn vmhwm_parser_reads_kilobytes_as_mebibytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  409600 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(status_field_mb(status, "VmHWM"), Some(20.0));
        assert_eq!(status_field_mb(status, "VmRSS"), Some(10.0));
        assert_eq!(status_field_mb(status, "VmSwap"), None);
        assert_eq!(status_field_mb("VmHWM:\tgarbage kB\n", "VmHWM"), None);
    }

    #[test]
    fn steal_share_comes_from_the_cpu_line() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(cpu_steal(stat), Some((35, 1000)));
        assert_eq!(cpu_steal("intr 1 2 3\n"), None);
    }
}
