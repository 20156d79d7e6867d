//! Deterministic, sim-clock-stamped event tracing for the FlashMem stack.
//!
//! The serving layer records what every layer of the simulator did — plan
//! cache probes and compiles in `core`, per-command queue stepping in
//! `gpu-sim`, request lifecycles in `serve` — as spans and instants in a
//! [`TraceRecorder`]. The design follows the repo's determinism discipline:
//!
//! - **Sim-clock timestamps.** Events are stamped with simulated
//!   milliseconds, never wall clocks, so a trace is a pure function of the
//!   workload and fleet.
//! - **Per-device buffers, ordered merge.** Each `DeviceJob` fills its own
//!   recorder single-threaded inside `run_device`; the engine merges the
//!   buffers at the same commit point that merges `RequestOutcome`s. A
//!   `--threads 4` trace is therefore byte-identical to `--threads 1` by
//!   construction.
//! - **One branch when disabled.** Recording is off by default behind
//!   [`TraceConfig`]; every record call checks `enabled` before touching
//!   or allocating anything.
//! - **Bounded memory.** Each recorder is a ring buffer (default 64k
//!   events); overflow drops the *oldest* events and counts them in
//!   [`TraceRecorder::dropped`], surfaced in the export header so
//!   1024-device ramps cannot OOM the tracer.
//!
//! Two consumers sit on top: [`chrome_trace`] renders a merged
//! [`FleetTrace`] as Chrome trace-event JSON (viewable in Perfetto /
//! `chrome://tracing`, devices as processes, queues and requests as
//! threads), and [`PhaseBreakdown`] attributes one request's end-to-end
//! latency to queue / compile / transfer / compute / suspended phases.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::VecDeque;

mod trace_export;

pub use trace_export::chrome_trace;

/// Default ring-buffer capacity per device recorder.
pub const DEFAULT_EVENTS_PER_DEVICE: usize = 65_536;

/// Tracing configuration carried by the engine. Off by default so hot
/// paths pay exactly one branch per record call when disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether recording is on. When `false`, every record call is a
    /// single branch and no event storage is ever allocated.
    pub enabled: bool,
    /// Ring-buffer capacity per device recorder; the oldest events are
    /// dropped (and counted) past this bound.
    pub events_per_device: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl TraceConfig {
    /// The default: recording off.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            events_per_device: DEFAULT_EVENTS_PER_DEVICE,
        }
    }

    /// Recording on with the default per-device ring capacity.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// Override the per-device ring capacity (clamped to at least 1).
    pub fn with_events_per_device(mut self, cap: usize) -> Self {
        self.events_per_device = cap.max(1);
        self
    }
}

/// What an event describes. The kind maps to the `cat` field of the
/// Chrome trace export and lets consumers filter one layer's events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// One simulated device command occupying a hardware queue (gpu-sim).
    Command,
    /// A request waiting between arrival and admission (serve).
    QueueWait,
    /// A request actively executing on its device (serve).
    Running,
    /// A plan compile / LC-OPG solve (core).
    Compile,
    /// Artifact-cache hit at admission (core).
    CacheHit,
    /// Artifact-cache miss at admission (core).
    CacheMiss,
    /// Request admitted to a device slot, tagged with its laxity (serve).
    Admit,
    /// Request preempted: suspended and evicted by the policy (serve).
    Preempt,
    /// A request sitting suspended off-device (serve).
    Suspended,
    /// Resume penalty: reloading evicted state before restart (gpu-sim).
    Resume,
    /// Request completed (serve).
    Complete,
    /// Request completed past its deadline, tagged with the miss cause.
    SloMiss,
    /// Request failed admission or execution (serve).
    Fail,
    /// Request shed by overload control (admission reject or queue-full),
    /// tagged with the typed cause (serve).
    Reject,
    /// Queued request re-placed from a backed-up shard onto this device by
    /// the steal planner (serve).
    Steal,
    /// Full-graph prefill pass for a generative request (serve).
    Prefill,
    /// One batched decode step emitting one token per in-flight request
    /// (serve).
    DecodeStep,
    /// A request joining the continuous batch at a step boundary (serve).
    BatchJoin,
    /// A request leaving the continuous batch at a step boundary (serve).
    BatchLeave,
    /// An injected fault fired on this device (device loss, transient
    /// kernel fault or spurious OOM spike), tagged with its kind (serve).
    Fault,
    /// A faulted request re-enqueued on the same device with simulated-time
    /// backoff, consuming one unit of its retry budget (serve).
    Retry,
    /// A request re-placed from a failed or quarantined device onto this
    /// surviving device by the recovery planner (serve).
    Failover,
    /// This device quarantined by health tracking after crossing the fault
    /// threshold — it receives no placements until probed (serve).
    Quarantine,
    /// A probe placement sent to a quarantined device to test reinstatement
    /// (serve).
    Probe,
}

impl TraceKind {
    /// Category label used for the Chrome trace `cat` field.
    pub fn category(self) -> &'static str {
        match self {
            TraceKind::Command => "gpu",
            TraceKind::Compile | TraceKind::CacheHit | TraceKind::CacheMiss => "compile",
            TraceKind::QueueWait
            | TraceKind::Running
            | TraceKind::Admit
            | TraceKind::Preempt
            | TraceKind::Suspended
            | TraceKind::Resume
            | TraceKind::Complete
            | TraceKind::SloMiss
            | TraceKind::Fail
            | TraceKind::Reject
            | TraceKind::Steal
            | TraceKind::Prefill
            | TraceKind::DecodeStep
            | TraceKind::BatchJoin
            | TraceKind::BatchLeave
            | TraceKind::Fault
            | TraceKind::Retry
            | TraceKind::Failover
            | TraceKind::Quarantine
            | TraceKind::Probe => "serve",
        }
    }
}

/// Which "thread" lane of a device "process" an event lands on in the
/// Chrome trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLane {
    /// The device's DMA/transfer hardware queue.
    TransferQueue,
    /// The device's compute hardware queue.
    ComputeQueue,
    /// Host-side work (compiles, cache probes) on this device's driver.
    Host,
    /// One request's lifecycle lane, keyed by its global sequence number.
    Request(usize),
}

impl TraceLane {
    /// Stable Chrome-trace thread id for this lane. Queue and host lanes
    /// take small fixed ids; request lanes start at 16.
    pub fn tid(self) -> u64 {
        match self {
            TraceLane::TransferQueue => 0,
            TraceLane::ComputeQueue => 1,
            TraceLane::Host => 2,
            TraceLane::Request(seq) => 16 + seq as u64,
        }
    }

    /// Human-readable lane name for the Chrome trace `thread_name`.
    pub fn label(self) -> String {
        match self {
            TraceLane::TransferQueue => "transfer queue".to_string(),
            TraceLane::ComputeQueue => "compute queue".to_string(),
            TraceLane::Host => "host".to_string(),
            TraceLane::Request(seq) => format!("req {seq}"),
        }
    }
}

/// One recorded span or instant. `dur_ms == 0` renders as an instant
/// event; anything longer renders as a begin/end pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Per-recorder monotonic sequence number. Survives ring-buffer
    /// drops, so merge order stays stable even after overflow.
    pub seq: u64,
    /// Simulated start time in milliseconds (global fleet clock).
    pub start_ms: f64,
    /// Simulated duration in milliseconds; 0 for instants.
    pub dur_ms: f64,
    /// What the event describes.
    pub kind: TraceKind,
    /// Which lane it lands on.
    pub lane: TraceLane,
    /// Display label (model abbr, command label, miss cause, ...).
    pub name: String,
    /// Bytes moved/resident where meaningful, else 0.
    pub bytes: u64,
}

/// A bounded, per-device event recorder. Filled single-threaded inside
/// one `DeviceJob`; never shared across threads while recording.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    config: TraceConfig,
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder honouring `config`. Allocates nothing when disabled.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            events: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Whether this recorder stores anything. Callers building expensive
    /// labels should branch on this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() >= self.config.events_per_device {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Record a span `[start_ms, end_ms]`. A no-op when disabled; the
    /// `name` string is only materialised on the enabled path.
    #[inline]
    pub fn span(
        &mut self,
        kind: TraceKind,
        lane: TraceLane,
        name: &str,
        start_ms: f64,
        end_ms: f64,
    ) {
        self.span_bytes(kind, lane, name, start_ms, end_ms, 0);
    }

    /// [`TraceRecorder::span`] carrying a byte count (traffic or
    /// resident bytes, depending on `kind`).
    #[inline]
    pub fn span_bytes(
        &mut self,
        kind: TraceKind,
        lane: TraceLane,
        name: &str,
        start_ms: f64,
        end_ms: f64,
        bytes: u64,
    ) {
        if !self.config.enabled {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push(TraceEvent {
            seq,
            start_ms,
            dur_ms: (end_ms - start_ms).max(0.0),
            kind,
            lane,
            name: name.to_string(),
            bytes,
        });
    }

    /// Record a zero-duration instant at `time_ms`.
    #[inline]
    pub fn instant(&mut self, kind: TraceKind, lane: TraceLane, name: &str, time_ms: f64) {
        self.span_bytes(kind, lane, name, time_ms, time_ms, 0);
    }

    /// [`TraceRecorder::instant`] carrying a byte count.
    #[inline]
    pub fn instant_bytes(
        &mut self,
        kind: TraceKind,
        lane: TraceLane,
        name: &str,
        time_ms: f64,
        bytes: u64,
    ) {
        self.span_bytes(kind, lane, name, time_ms, time_ms, bytes);
    }

    /// Events currently buffered (after any ring drops).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped by the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append every event of `other` to this recorder, renumbering the
    /// absorbed events so recorder sequence numbers stay strictly
    /// increasing in merge order. This is how a device's master recorder
    /// accumulates the per-round buffers of a multi-round recovery run:
    /// round *k+1*'s events sort after round *k*'s at equal timestamps,
    /// exactly like a single recorder that had recorded both rounds.
    /// Absorbed drop counts carry over; the ring bound still applies.
    pub fn absorb(&mut self, other: TraceRecorder) {
        if !self.config.enabled {
            return;
        }
        self.dropped += other.dropped;
        for mut event in other.events {
            event.seq = self.next_seq;
            self.next_seq += 1;
            self.push(event);
        }
    }

    /// Seal the recorder into one device's share of a [`FleetTrace`].
    pub fn into_process_trace(self, name: &str) -> ProcessTrace {
        ProcessTrace {
            name: name.to_string(),
            events: self.events.into(),
            dropped: self.dropped,
        }
    }
}

/// One device's sealed event buffer — a "process" in the Chrome export.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessTrace {
    /// Display name (device name + index).
    pub name: String,
    /// Events in record order (recorder `seq` ascending).
    pub events: Vec<TraceEvent>,
    /// Events the ring buffer dropped while recording.
    pub dropped: u64,
}

/// The merged, deterministic trace of one fleet run: one
/// [`ProcessTrace`] per device, in fleet order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTrace {
    /// Per-device traces, indexed by device position in the fleet.
    pub processes: Vec<ProcessTrace>,
}

impl FleetTrace {
    /// Total events buffered across the fleet.
    pub fn total_events(&self) -> usize {
        self.processes.iter().map(|p| p.events.len()).sum()
    }

    /// Total events dropped by ring buffers across the fleet.
    pub fn dropped_events(&self) -> u64 {
        self.processes.iter().map(|p| p.dropped).sum()
    }

    /// All events merged into one deterministic stream, sorted by
    /// `(start_ms, device index, recorder seq)` — the trace analogue of
    /// the engine's ordered-merge commit point. Returns
    /// `(device_index, event)` pairs.
    pub fn merged(&self) -> Vec<(usize, &TraceEvent)> {
        let mut all: Vec<(usize, &TraceEvent)> = self
            .processes
            .iter()
            .enumerate()
            .flat_map(|(idx, p)| p.events.iter().map(move |e| (idx, e)))
            .collect();
        all.sort_by(|(pa, ea), (pb, eb)| {
            ea.start_ms
                .total_cmp(&eb.start_ms)
                .then_with(|| pa.cmp(pb))
                .then_with(|| ea.seq.cmp(&eb.seq))
        });
        all
    }
}

/// Where one request's end-to-end latency went, in simulated
/// milliseconds. The phases plus [`PhaseBreakdown::stall_ms`] sum to the
/// request's latency *exactly* (stall is defined as the residual).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Arrival → admission wait.
    pub queue_ms: f64,
    /// Plan compile / LC-OPG solve time on the admission path.
    pub compile_ms: f64,
    /// Time with a transfer-queue command in flight and no concurrent
    /// compute (exposed, non-overlapped transfer).
    pub transfer_ms: f64,
    /// Time with a compute-queue command in flight.
    pub compute_ms: f64,
    /// Time suspended off-device plus resume/reload penalties.
    pub suspended_ms: f64,
    /// Residual: latency minus all attributed phases. Captures
    /// queue-clock stalls between commands; may be slightly negative
    /// when a command issues before the nominal admission instant.
    pub stall_ms: f64,
}

impl PhaseBreakdown {
    /// Sum of all phases — equals the request's end-to-end latency by
    /// construction.
    pub fn total_ms(&self) -> f64 {
        self.queue_ms
            + self.compile_ms
            + self.transfer_ms
            + self.compute_ms
            + self.suspended_ms
            + self.stall_ms
    }

    /// Attribute `latency_ms` across phases. `transfer` and `compute`
    /// are the request's own command intervals (each list non-overlapping
    /// within itself, as produced by one hardware queue); transfer time
    /// hidden under concurrent compute is credited to compute. Each list's
    /// union is swept once and reused by the overlap, with the values
    /// [`interval_union_ms`] and [`interval_overlap_ms`] give.
    pub fn attribute(
        latency_ms: f64,
        queue_ms: f64,
        compile_ms: f64,
        suspended_ms: f64,
        transfer: &[(f64, f64)],
        compute: &[(f64, f64)],
    ) -> Self {
        let (transfer, compute) = (in_start_order(transfer), in_start_order(compute));
        let compute_ms = sweep_ms(&compute);
        let transfer_union = sweep_ms(&transfer);
        let transfer_ms =
            transfer_union - merged_overlap_ms(&transfer, &compute, transfer_union, compute_ms);
        let stall_ms = latency_ms - queue_ms - compile_ms - suspended_ms - transfer_ms - compute_ms;
        Self {
            queue_ms,
            compile_ms,
            transfer_ms,
            compute_ms,
            suspended_ms,
            stall_ms,
        }
    }
}

/// Total length covered by a set of intervals, merging overlaps. Empty
/// and reversed intervals cover nothing. A list already in start order is
/// swept in place; any other is sorted on a copy.
pub fn interval_union_ms(intervals: &[(f64, f64)]) -> f64 {
    sweep_ms(&in_start_order(intervals))
}

/// Total length where intervals from `a` and `b` overlap each other.
pub fn interval_overlap_ms(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (a, b) = (in_start_order(a), in_start_order(b));
    merged_overlap_ms(&a, &b, sweep_ms(&a), sweep_ms(&b))
}

/// Whether an interval covers any time: empty, reversed and NaN-bounded
/// ones do not.
fn covers(&(start, end): &(f64, f64)) -> bool {
    end > start
}

/// `intervals` with their covering members in start order, as a stable
/// sort by start leaves them: the list itself when they already are (a
/// request's intervals on one queue always are, except across a
/// failover), else a sorted copy of those members.
fn in_start_order(intervals: &[(f64, f64)]) -> Cow<'_, [(f64, f64)]> {
    let mut starts = intervals.iter().filter(|i| covers(i)).map(|i| i.0);
    let sorted = starts.next().is_none_or(|first| {
        starts
            .try_fold(first, |prev, start| {
                prev.total_cmp(&start).is_le().then_some(start)
            })
            .is_some()
    });
    if sorted {
        return Cow::Borrowed(intervals);
    }
    let mut copy: Vec<(f64, f64)> = intervals.iter().copied().filter(covers).collect();
    copy.sort_by(|a, b| a.0.total_cmp(&b.0));
    Cow::Owned(copy)
}

/// The length the covering members of `sorted`, in start order, cover.
fn sweep_ms(sorted: &[(f64, f64)]) -> f64 {
    sweep_merged_ms(sorted.iter().copied().filter(covers))
}

/// The length covering intervals arriving in start order cover, merging
/// overlaps.
fn sweep_merged_ms(sorted: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut total = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (s, e) in sorted {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The overlap of `a` and `b`, each in start order with union `union_a`
/// and `union_b`: union(a) + union(b) − union(a ∪ b), since each list is
/// merged internally first. a ∪ b is the stable merge of the two, `a`
/// first on ties: the sequence a stable sort of `a` then `b` gives, so
/// every sum is the one sorting the concatenation gave.
fn merged_overlap_ms(a: &[(f64, f64)], b: &[(f64, f64)], union_a: f64, union_b: f64) -> f64 {
    let mut a = a.iter().copied().filter(covers).peekable();
    let mut b = b.iter().copied().filter(covers).peekable();
    let merged = std::iter::from_fn(|| match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y.0.total_cmp(&x.0).is_lt() => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    });
    union_a + union_b - sweep_merged_ms(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = TraceRecorder::new(TraceConfig::disabled());
        rec.span(TraceKind::Command, TraceLane::ComputeQueue, "k", 0.0, 5.0);
        rec.instant(TraceKind::Complete, TraceLane::Request(0), "done", 5.0);
        assert!(!rec.enabled());
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut rec = TraceRecorder::new(TraceConfig::enabled().with_events_per_device(3));
        for i in 0..5 {
            rec.instant(
                TraceKind::Command,
                TraceLane::ComputeQueue,
                &format!("k{i}"),
                i as f64,
            );
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let proc = rec.into_process_trace("dev");
        assert_eq!(proc.dropped, 2);
        // Oldest were dropped: survivors are k2, k3, k4 with their
        // original sequence numbers intact.
        let names: Vec<&str> = proc.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["k2", "k3", "k4"]);
        assert_eq!(proc.events[0].seq, 2);
    }

    #[test]
    fn merged_stream_orders_by_time_then_device_then_seq() {
        let mut a = TraceRecorder::new(TraceConfig::enabled());
        let mut b = TraceRecorder::new(TraceConfig::enabled());
        a.instant(TraceKind::Admit, TraceLane::Request(0), "a1", 10.0);
        a.instant(TraceKind::Admit, TraceLane::Request(1), "a2", 5.0);
        b.instant(TraceKind::Admit, TraceLane::Request(2), "b1", 5.0);
        let fleet = FleetTrace {
            processes: vec![a.into_process_trace("d0"), b.into_process_trace("d1")],
        };
        let names: Vec<&str> = fleet
            .merged()
            .iter()
            .map(|(_, e)| e.name.as_str())
            .collect();
        // At t=5 device 0 sorts before device 1; t=10 comes last.
        assert_eq!(names, vec!["a2", "b1", "a1"]);
        assert_eq!(fleet.total_events(), 3);
        assert_eq!(fleet.dropped_events(), 0);
    }

    #[test]
    fn absorb_renumbers_and_carries_drops() {
        let mut master = TraceRecorder::new(TraceConfig::enabled());
        master.instant(TraceKind::Admit, TraceLane::Request(0), "r0", 1.0);
        let mut round = TraceRecorder::new(TraceConfig::enabled().with_events_per_device(1));
        round.instant(TraceKind::Fault, TraceLane::Request(1), "f1", 1.0);
        round.instant(TraceKind::Retry, TraceLane::Request(1), "r1", 2.0);
        assert_eq!(round.dropped(), 1);
        master.absorb(round);
        assert_eq!(master.len(), 2);
        assert_eq!(master.dropped(), 1);
        let proc = master.into_process_trace("d");
        // Absorbed events are renumbered after the master's own.
        assert_eq!(proc.events[0].seq, 0);
        assert_eq!(proc.events[1].seq, 1);
        assert_eq!(proc.events[1].name, "r1");
        assert_eq!(proc.events[1].kind, TraceKind::Retry);
    }

    #[test]
    fn absorb_into_disabled_recorder_is_a_no_op() {
        let mut master = TraceRecorder::new(TraceConfig::disabled());
        let mut round = TraceRecorder::new(TraceConfig::enabled());
        round.instant(TraceKind::Probe, TraceLane::Host, "p", 0.0);
        master.absorb(round);
        assert!(master.is_empty());
    }

    #[test]
    fn recovery_kinds_are_serve_category() {
        for kind in [
            TraceKind::Fault,
            TraceKind::Retry,
            TraceKind::Failover,
            TraceKind::Quarantine,
            TraceKind::Probe,
        ] {
            assert_eq!(kind.category(), "serve");
        }
    }

    #[test]
    fn spans_clamp_negative_durations() {
        let mut rec = TraceRecorder::new(TraceConfig::enabled());
        rec.span(TraceKind::Running, TraceLane::Request(0), "r", 10.0, 8.0);
        let proc = rec.into_process_trace("d");
        assert_eq!(proc.events[0].dur_ms, 0.0);
    }

    #[test]
    fn interval_union_merges_overlaps() {
        assert_eq!(interval_union_ms(&[]), 0.0);
        assert_eq!(interval_union_ms(&[(0.0, 2.0), (1.0, 3.0)]), 3.0);
        assert_eq!(interval_union_ms(&[(5.0, 6.0), (0.0, 1.0)]), 2.0);
        // Empty / inverted intervals contribute nothing.
        assert_eq!(interval_union_ms(&[(2.0, 2.0), (3.0, 1.0)]), 0.0);
    }

    #[test]
    fn interval_overlap_counts_shared_time() {
        let a = [(0.0, 4.0)];
        let b = [(2.0, 6.0)];
        assert_eq!(interval_overlap_ms(&a, &b), 2.0);
        assert_eq!(interval_overlap_ms(&a, &[]), 0.0);
    }

    #[test]
    fn phase_breakdown_sums_to_latency() {
        let transfer = [(0.0, 10.0), (20.0, 25.0)];
        let compute = [(5.0, 18.0)];
        let phases = PhaseBreakdown::attribute(60.0, 12.0, 3.0, 7.0, &transfer, &compute);
        assert!((phases.total_ms() - 60.0).abs() < 1e-9, "{phases:?}");
        assert_eq!(phases.compute_ms, 13.0);
        // 15ms of transfer, 5 of which hide under compute.
        assert_eq!(phases.transfer_ms, 10.0);
        assert_eq!(phases.queue_ms, 12.0);
        assert_eq!(phases.compile_ms, 3.0);
        assert_eq!(phases.suspended_ms, 7.0);
    }

    #[test]
    fn config_clamps_capacity() {
        let cfg = TraceConfig::enabled().with_events_per_device(0);
        assert_eq!(cfg.events_per_device, 1);
        assert_eq!(TraceConfig::default(), TraceConfig::disabled());
        assert_eq!(
            TraceConfig::disabled().events_per_device,
            DEFAULT_EVENTS_PER_DEVICE
        );
    }
}
