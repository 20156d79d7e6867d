//! Time-stamped memory usage traces and execution event logs.
//!
//! Traces are the raw material behind the paper's Figure 6 (memory usage over
//! time under multi-model workloads) and the Peak / Avg. columns of Tables 1
//! and 8.

use serde::{Deserialize, Serialize};

use crate::engine::CommandId;

/// One sample of total memory usage at a simulated timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySample {
    /// Simulated time in milliseconds.
    pub time_ms: f64,
    /// Total live bytes at that time.
    pub bytes: u64,
}

/// A step-function trace of memory usage over simulated time.
///
/// Samples are recorded at every allocation/free; the value holds until the
/// next sample. Every statistic — the sample count, the clamp count, the
/// peak and the time-weighted average — is a running value that
/// [`record`](Self::record) updates in O(1), bit-identical to a rescan of
/// the samples. A trace built with [`new`](Self::new) also keeps the
/// samples themselves (the series behind Figure 6); one built with
/// [`without_series`](Self::without_series) keeps only the statistics, so
/// its memory does not grow with the run it records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryTrace {
    /// The recorded samples, when the trace keeps its series.
    series: Option<Vec<MemorySample>>,
    len: usize,
    clamped: u64,
    peak: u64,
    /// Timestamp of the first sample.
    first_ms: f64,
    /// The latest sample, after clamping.
    last: MemorySample,
    /// `Σ bytes·dt` over consecutive samples, summed in record order.
    weighted: f64,
}

impl Default for MemoryTrace {
    fn default() -> Self {
        MemoryTrace::new()
    }
}

impl MemoryTrace {
    /// Create an empty trace that keeps its series.
    pub fn new() -> Self {
        MemoryTrace::empty(true)
    }

    /// Create an empty trace that keeps only its running statistics: its
    /// [`samples`](Self::samples) stay empty however much it records.
    pub fn without_series() -> Self {
        MemoryTrace {
            series: None,
            len: 0,
            clamped: 0,
            peak: 0,
            first_ms: 0.0,
            last: MemorySample {
                time_ms: 0.0,
                bytes: 0,
            },
            weighted: 0.0,
        }
    }

    /// An empty trace that keeps its series when `keep_series` is set.
    pub(crate) fn empty(keep_series: bool) -> Self {
        MemoryTrace {
            series: keep_series.then(Vec::new),
            ..MemoryTrace::without_series()
        }
    }

    /// True if the trace keeps its samples, not just their statistics.
    pub fn keeps_series(&self) -> bool {
        self.series.is_some()
    }

    /// Record that total usage is `bytes` from `time_ms` onwards.
    ///
    /// Out-of-order timestamps are clamped to the latest recorded time so the
    /// trace stays monotone (the simulator's event clock never goes backwards,
    /// but callers composing traces may replay slightly stale events — tiny
    /// reorderings across concurrent streams are an accepted modelling
    /// artifact). Clamps are no longer silent: each one increments the
    /// [`clamped`](Self::clamped) counter. Non-finite timestamps are a caller
    /// bug and trip a debug assertion.
    pub fn record(&mut self, time_ms: f64, bytes: u64) {
        debug_assert!(
            time_ms.is_finite(),
            "memory trace timestamps must be finite, got {time_ms}"
        );
        let time_ms = if self.len == 0 {
            self.first_ms = time_ms;
            time_ms
        } else {
            let last = self.last;
            let t = if time_ms < last.time_ms {
                self.clamped += 1;
                last.time_ms
            } else {
                time_ms
            };
            self.weighted += last.bytes as f64 * (t - last.time_ms);
            t
        };
        self.last = MemorySample { time_ms, bytes };
        self.len += 1;
        self.peak = self.peak.max(bytes);
        if let Some(series) = &mut self.series {
            series.push(self.last);
        }
    }

    /// Number of samples whose timestamps arrived out of order and were
    /// clamped forward to keep the trace monotone.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Number of samples recorded, kept or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The recorded samples in chronological order; empty for a trace that
    /// keeps no series.
    pub fn samples(&self) -> &[MemorySample] {
        self.series.as_deref().unwrap_or(&[])
    }

    /// Maximum usage seen, in bytes (0 for an empty trace).
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Time-weighted average usage in bytes over the sampled interval. If the
    /// trace has fewer than two samples the last (or zero) value is returned.
    pub fn average_bytes(&self) -> f64 {
        match self.len {
            0 => 0.0,
            1 => self.last.bytes as f64,
            _ => {
                let span = self.last.time_ms - self.first_ms;
                if span <= 0.0 {
                    return self.last.bytes as f64;
                }
                self.weighted / span
            }
        }
    }

    /// Resample the kept series at `points` evenly spaced instants between
    /// the first and last timestamps — convenient for plotting Figure 6-style
    /// curves with a fixed number of points. Empty without a series.
    pub fn resample(&self, points: usize) -> Vec<MemorySample> {
        let samples = self.samples();
        if samples.is_empty() || points == 0 {
            return Vec::new();
        }
        let start = samples[0].time_ms;
        let end = samples[samples.len() - 1].time_ms;
        let mut out = Vec::with_capacity(points);
        for i in 0..points {
            let t = if points == 1 {
                start
            } else {
                start + (end - start) * i as f64 / (points - 1) as f64
            };
            out.push(MemorySample {
                time_ms: t,
                bytes: self.value_at(t),
            });
        }
        out
    }

    /// Value of the step function at time `t` (last kept sample at or before
    /// `t`; 0 without a series).
    pub fn value_at(&self, t: f64) -> u64 {
        let mut value = 0;
        for s in self.samples() {
            if s.time_ms <= t {
                value = s.bytes;
            } else {
                break;
            }
        }
        value
    }

    /// Append another trace, shifting its timestamps by `offset_ms`. Used to
    /// stitch per-model traces into one multi-model timeline, so `other`
    /// must keep its series (a debug assertion checks it). The source
    /// trace's clamp count carries over: a sample that was clamped while
    /// `other` was recorded stays an out-of-order event after stitching, on
    /// top of any clamping the stitch itself performs at the seam.
    pub fn append_shifted(&mut self, other: &MemoryTrace, offset_ms: f64) {
        debug_assert!(
            other.keeps_series() || other.is_empty(),
            "stitching needs the source trace's samples"
        );
        self.clamped += other.clamped;
        for s in other.samples() {
            self.record(s.time_ms + offset_ms, s.bytes);
        }
    }
}

/// The kind of activity an execution event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A data transfer between memory tiers.
    Transfer,
    /// A compute kernel execution.
    Kernel,
    /// A layout transformation (unified → texture repack).
    Transform,
    /// Framework bookkeeping (graph parsing, allocation, warm-up).
    Overhead,
}

/// One completed activity on the simulated timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionEvent {
    /// Index of the command that produced the event in its
    /// [`CommandStream`](crate::engine::CommandStream); the command carries
    /// the kernel or weight name.
    pub command: CommandId,
    /// Activity kind.
    pub kind: EventKind,
    /// Start time in milliseconds.
    pub start_ms: f64,
    /// End time in milliseconds.
    pub end_ms: f64,
    /// Bytes moved (transfers/transforms) or read+written (kernels).
    pub bytes: u64,
}

impl ExecutionEvent {
    /// Duration of the event in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end_ms - self.start_ms).max(0.0)
    }
}

/// A full execution timeline: every event plus derived busy-time statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    events: Vec<ExecutionEvent>,
}

impl Timeline {
    /// Create an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Add an event.
    pub fn push(&mut self, event: ExecutionEvent) {
        self.events.push(event);
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[ExecutionEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the timeline holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Latest end time across all events (total makespan), in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.events.iter().map(|e| e.end_ms).fold(0.0, f64::max)
    }

    /// Total busy time of events of `kind` (sum of durations; overlapping
    /// events are counted separately because they run on distinct engines).
    pub fn busy_ms(&self, kind: EventKind) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.duration_ms())
            .sum()
    }

    /// Union length of the intervals of events of `kind` — i.e. wall-clock
    /// time during which at least one such event was active.
    pub fn active_ms(&self, kind: EventKind) -> f64 {
        let mut intervals: Vec<(f64, f64)> = self
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.start_ms, e.end_ms))
            .collect();
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut total = 0.0;
        let mut current: Option<(f64, f64)> = None;
        for (s, e) in intervals {
            match current {
                None => current = Some((s, e)),
                Some((cs, ce)) => {
                    if s <= ce {
                        current = Some((cs, ce.max(e)));
                    } else {
                        total += ce - cs;
                        current = Some((s, e));
                    }
                }
            }
        }
        if let Some((cs, ce)) = current {
            total += ce - cs;
        }
        total
    }

    /// Fraction of the makespan during which compute and transfer activity
    /// overlap — a direct measure of how well loading is hidden behind
    /// execution (the paper's central mechanism). Transforms count as
    /// transfers, and each (kernel, transfer) pair adds its common time.
    ///
    /// Transfers are sorted by start, with a running maximum of their ends,
    /// so each kernel visits only the transfers that start before it ends
    /// and after the last point where every earlier transfer has ended. Its
    /// overlaps are added in the original transfer order, which keeps the
    /// sum bit-identical to adding every pair in event order. Event times
    /// are finite, as the engine records them.
    pub fn overlap_fraction(&self) -> f64 {
        let makespan = self.makespan_ms();
        if makespan <= 0.0 {
            return 0.0;
        }
        // (start, end, index in event order) of every transfer, by start.
        let mut transfers: Vec<(f64, f64, usize)> = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Transfer | EventKind::Transform))
            .enumerate()
            .map(|(index, e)| (e.start_ms, e.end_ms, index))
            .collect();
        transfers.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        // reach[j]: the latest end among transfers[..=j].
        let reach: Vec<f64> = transfers
            .iter()
            .scan(f64::NEG_INFINITY, |latest, t| {
                *latest = latest.max(t.1);
                Some(*latest)
            })
            .collect();

        let mut overlap = 0.0;
        let mut pieces: Vec<(usize, f64)> = Vec::new();
        for kernel in self.events.iter().filter(|e| e.kind == EventKind::Kernel) {
            let (cs, ce) = (kernel.start_ms, kernel.end_ms);
            let started = transfers.partition_point(|t| t.0 < ce);
            pieces.clear();
            for j in (0..started).rev() {
                if reach[j] <= cs {
                    break;
                }
                let (ts, te, index) = transfers[j];
                let s = cs.max(ts);
                let e = ce.min(te);
                if e > s {
                    pieces.push((index, e - s));
                }
            }
            pieces.sort_unstable_by_key(|piece| piece.0);
            for &(_, piece) in &pieces {
                overlap += piece;
            }
        }
        (overlap / makespan).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_statistics() {
        let t = MemoryTrace::new();
        assert_eq!(t.peak_bytes(), 0);
        assert_eq!(t.average_bytes(), 0.0);
        assert!(t.is_empty());
        assert!(t.resample(10).is_empty());
    }

    #[test]
    fn single_sample_average_is_value() {
        let mut t = MemoryTrace::new();
        t.record(0.0, 42);
        assert_eq!(t.average_bytes(), 42.0);
        assert_eq!(t.peak_bytes(), 42);
    }

    #[test]
    fn step_function_average() {
        let mut t = MemoryTrace::new();
        t.record(0.0, 100);
        t.record(50.0, 300);
        t.record(100.0, 300);
        // 100 for the first half, 300 for the second half → 200 average.
        assert!((t.average_bytes() - 200.0).abs() < 1e-9);
        assert_eq!(t.peak_bytes(), 300);
    }

    #[test]
    fn out_of_order_timestamps_are_clamped() {
        let mut t = MemoryTrace::new();
        t.record(10.0, 1);
        t.record(5.0, 2);
        assert_eq!(t.samples()[1].time_ms, 10.0);
    }

    #[test]
    fn clamped_counter_tracks_out_of_order_samples() {
        let mut t = MemoryTrace::new();
        assert_eq!(t.clamped(), 0);
        t.record(10.0, 1);
        t.record(5.0, 2); // clamped to 10
        t.record(10.0, 3); // equal timestamps are in order, not clamped
        t.record(8.0, 4); // clamped to 10
        t.record(12.0, 5);
        assert_eq!(t.clamped(), 2);
        // Every surviving timestamp is monotone.
        assert!(t.samples().windows(2).all(|w| w[0].time_ms <= w[1].time_ms));
    }

    #[test]
    fn append_shifted_propagates_the_source_clamp_count() {
        let mut src = MemoryTrace::new();
        src.record(10.0, 1);
        src.record(5.0, 2); // clamped inside the source trace
        assert_eq!(src.clamped(), 1);

        let mut dst = MemoryTrace::new();
        dst.record(0.0, 7);
        dst.record(100.0, 0);
        dst.append_shifted(&src, 50.0);
        // One clamp inherited from the source, plus two at the seam: both
        // shifted samples (50+10 and 50+10) land before dst's last
        // timestamp of 100 and are clamped forward by record().
        assert_eq!(dst.clamped(), 3);
        assert!(dst
            .samples()
            .windows(2)
            .all(|w| w[0].time_ms <= w[1].time_ms));

        // A clean stitch inherits nothing and clamps nothing.
        let mut clean = MemoryTrace::new();
        clean.record(0.0, 3);
        let mut tail = MemoryTrace::new();
        tail.record(0.0, 4);
        clean.append_shifted(&tail, 10.0);
        assert_eq!(clean.clamped(), 0);
    }

    #[test]
    fn peak_is_maximum_over_all_samples() {
        let mut t = MemoryTrace::new();
        for (time, bytes) in [(0.0, 10), (1.0, 500), (2.0, 120), (3.0, 499)] {
            t.record(time, bytes);
        }
        assert_eq!(t.peak_bytes(), 500);
    }

    /// The trace as it was before its statistics ran: every sample kept,
    /// and each statistic a rescan of them.
    #[derive(Default)]
    struct Rescan {
        samples: Vec<MemorySample>,
        clamped: u64,
    }

    impl Rescan {
        fn record(&mut self, time_ms: f64, bytes: u64) {
            let t = match self.samples.last() {
                Some(last) if time_ms < last.time_ms => {
                    self.clamped += 1;
                    last.time_ms
                }
                _ => time_ms,
            };
            self.samples.push(MemorySample { time_ms: t, bytes });
        }

        fn append_shifted(&mut self, other: &Rescan, offset_ms: f64) {
            self.clamped += other.clamped;
            for s in &other.samples {
                self.record(s.time_ms + offset_ms, s.bytes);
            }
        }

        fn peak(&self) -> u64 {
            self.samples.iter().map(|s| s.bytes).max().unwrap_or(0)
        }

        fn average(&self) -> f64 {
            match self.samples.len() {
                0 => 0.0,
                1 => self.samples[0].bytes as f64,
                n => {
                    let span = self.samples[n - 1].time_ms - self.samples[0].time_ms;
                    if span <= 0.0 {
                        return self.samples[n - 1].bytes as f64;
                    }
                    let mut weighted = 0.0;
                    for pair in self.samples.windows(2) {
                        let dt = pair[1].time_ms - pair[0].time_ms;
                        weighted += pair[0].bytes as f64 * dt;
                    }
                    weighted / span
                }
            }
        }
    }

    /// `t` keeps the reference's samples and reports its rescans bit for
    /// bit.
    fn assert_rescans(t: &MemoryTrace, reference: &Rescan) {
        assert!(t.keeps_series());
        assert_eq!(t.samples(), reference.samples.as_slice());
        assert_eq!(t.len(), reference.samples.len());
        assert_eq!(t.clamped(), reference.clamped);
        assert_eq!(t.peak_bytes(), reference.peak());
        assert_eq!(t.average_bytes().to_bits(), reference.average().to_bits());
    }

    #[test]
    fn running_peak_matches_a_rescan_after_records_and_stitches() {
        assert_eq!(MemoryTrace::new().peak_bytes(), 0);
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0x9EA4);
        for _ in 0..50 {
            // The same calls go to a trace with a series, one without and
            // the reference.
            let mut t = MemoryTrace::new();
            let mut bare = MemoryTrace::without_series();
            let mut reference = Rescan::default();
            for _ in 0..rng.gen_range_inclusive(0, 40) {
                // Random times often run backwards, so clamping runs too.
                let time = rng.gen_f64() * 100.0;
                if rng.gen_range_inclusive(0, 3) == 0 {
                    let mut other = MemoryTrace::new();
                    let mut other_reference = Rescan::default();
                    for _ in 0..rng.gen_range_inclusive(0, 5) {
                        let (time, bytes) =
                            (rng.gen_f64() * 10.0, rng.gen_range_inclusive(0, 1 << 20));
                        other.record(time, bytes);
                        other_reference.record(time, bytes);
                    }
                    assert_rescans(&other, &other_reference);
                    t.append_shifted(&other, time);
                    bare.append_shifted(&other, time);
                    reference.append_shifted(&other_reference, time);
                } else {
                    let bytes = rng.gen_range_inclusive(0, 1 << 20);
                    t.record(time, bytes);
                    bare.record(time, bytes);
                    reference.record(time, bytes);
                }
                assert_rescans(&t, &reference);
                // Without a series: the same statistics, no samples.
                assert!(!bare.keeps_series() && bare.samples().is_empty());
                assert_eq!(bare.len(), t.len());
                assert_eq!(bare.clamped(), t.clamped());
                assert_eq!(bare.peak_bytes(), t.peak_bytes());
                assert_eq!(bare.average_bytes().to_bits(), t.average_bytes().to_bits());
            }
        }
    }

    #[test]
    fn time_weighted_average_with_uneven_intervals() {
        let mut t = MemoryTrace::new();
        t.record(0.0, 100); // holds for 10 ms
        t.record(10.0, 400); // holds for 30 ms
        t.record(40.0, 0);
        // (100·10 + 400·30) / 40 = 325.
        assert!((t.average_bytes() - 325.0).abs() < 1e-9);
    }

    #[test]
    fn value_at_and_resample() {
        let mut t = MemoryTrace::new();
        t.record(0.0, 10);
        t.record(10.0, 20);
        t.record(20.0, 0);
        assert_eq!(t.value_at(-1.0), 0);
        assert_eq!(t.value_at(5.0), 10);
        assert_eq!(t.value_at(15.0), 20);
        assert_eq!(t.value_at(25.0), 0);
        let r = t.resample(3);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].bytes, 10);
        assert_eq!(r[1].bytes, 20);
        assert_eq!(r[2].bytes, 0);
    }

    #[test]
    fn append_shifted_stitches_traces() {
        let mut a = MemoryTrace::new();
        a.record(0.0, 5);
        a.record(10.0, 0);
        let mut b = MemoryTrace::new();
        b.record(0.0, 7);
        a.append_shifted(&b, 10.0);
        assert_eq!(a.value_at(12.0), 7);
    }

    #[test]
    fn timeline_busy_and_makespan() {
        let mut tl = Timeline::new();
        tl.push(ExecutionEvent {
            command: 0,
            kind: EventKind::Transfer,
            start_ms: 0.0,
            end_ms: 10.0,
            bytes: 100,
        });
        tl.push(ExecutionEvent {
            command: 1,
            kind: EventKind::Kernel,
            start_ms: 5.0,
            end_ms: 15.0,
            bytes: 50,
        });
        assert_eq!(tl.makespan_ms(), 15.0);
        assert_eq!(tl.busy_ms(EventKind::Transfer), 10.0);
        assert_eq!(tl.busy_ms(EventKind::Kernel), 10.0);
        // 5 ms of overlap over a 15 ms makespan.
        assert!((tl.overlap_fraction() - 5.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn active_ms_merges_overlapping_intervals() {
        let mut tl = Timeline::new();
        for (s, e) in [(0.0, 10.0), (5.0, 12.0), (20.0, 25.0)] {
            tl.push(ExecutionEvent {
                command: 0,
                kind: EventKind::Transfer,
                start_ms: s,
                end_ms: e,
                bytes: 1,
            });
        }
        assert!((tl.active_ms(EventKind::Transfer) - 17.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline() {
        let tl = Timeline::new();
        assert!(tl.is_empty());
        assert_eq!(tl.makespan_ms(), 0.0);
        assert_eq!(tl.overlap_fraction(), 0.0);
    }
}
