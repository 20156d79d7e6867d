//! Host-time spans recorded by the benchmark around calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the log was
//! created), the span that caused it, the request it belongs to (if any) and
//! the thread that recorded it. Spans stay in memory and are written out
//! once, as Chrome trace-event JSON, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<usize>,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first space, so
    /// `compile ViT@Pixel 8` counts towards `compile`.
    pub fn layer(&self) -> &str {
        self.name.split(' ').next().unwrap_or_default()
    }
}

/// A small per-thread number for the `tid` of the trace.
fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// An in-memory span log shared by every thread of the traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

const POISONED: &str = "span log poisoned by a panicking recorder";

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&self, name: &str, parent: Option<SpanId>, request: Option<usize>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect(POISONED);
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            thread: thread_number(),
        });
        spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect(POISONED)[id].end_ns = end_ns;
    }

    /// Run `f` inside a span; `f` receives the span's id to parent children.
    pub fn scope<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: Option<usize>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let result = f(id);
        self.close(id);
        result
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect(POISONED).clone()
    }
}

/// Aggregates over a snapshot of spans.
pub struct SpanSet {
    spans: Vec<Span>,
    children: Vec<Vec<SpanId>>,
}

impl SpanSet {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (id, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        SpanSet { spans, children }
    }

    /// Duration minus the union of the span's children.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let children: Vec<(u64, u64)> = self.children[id]
            .iter()
            .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
            .collect();
        stats::self_time(span.start_ns, span.end_ns, &children)
    }

    /// Spans of layer `name` that descend from `root`.
    pub fn named_under(&self, root: SpanId, name: &str) -> Vec<SpanId> {
        let mut found = Vec::new();
        let mut stack = self.children[root].clone();
        while let Some(id) = stack.pop() {
            if self.spans[id].layer() == name {
                found.push(id);
            }
            stack.extend(&self.children[id]);
        }
        found
    }

    /// Summed duration of the spans of layer `name` under `root`, in ms.
    pub fn total_ms(&self, root: SpanId, name: &str) -> f64 {
        self.named_under(root, name)
            .iter()
            .map(|&id| self.spans[id].dur_ns())
            .sum::<u64>() as f64
            / 1e6
    }

    /// Self time per layer over `root` and everything under it, in ms,
    /// sorted by layer. The values sum to `root`'s duration when children
    /// nest inside their parents on one thread.
    pub fn self_by_layer(&self, root: SpanId) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            *totals
                .entry(self.spans[id].layer().to_string())
                .or_insert(0.0) += self.self_ns(id) as f64 / 1e6;
            stack.extend(&self.children[id]);
        }
        totals
    }

    /// Chrome trace-event JSON ("X" complete events, microsecond
    /// timestamps, one `tid` per recording thread), as Perfetto opens it.
    /// Span ids, parents and request ids ride along in `args`.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape(process)
        );
        for (id, span) in self.spans.iter().enumerate() {
            let mut args = format!("\"id\":{id}");
            if let Some(parent) = span.parent {
                let _ = write!(args, ",\"parent\":{parent}");
            }
            if let Some(request) = span.request {
                let _ = write!(args, ",\"request\":{request}");
            }
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
                escape(&span.name),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.thread
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let set = SpanSet::new(vec![
            span("run", 0, 1_000, None),
            span("lower", 100, 400, Some(0)),
            span("step", 300, 600, Some(0)),
            span("inner ViT", 350, 380, Some(2)),
        ]);
        assert_eq!(set.self_ns(0), 500);
        assert_eq!(set.self_ns(2), 270);
        // Overlapping siblings are covered once in the parent but each in
        // full in its own self time, so the sum (1100 ns) exceeds the root.
        let total: f64 = set.self_by_layer(0).values().sum();
        assert!((total - 0.0011).abs() < 1e-12);
        assert_eq!(set.named_under(0, "inner"), vec![3]);
        assert!((set.total_ms(0, "lower") - 0.0003).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_one_complete_event_per_span() {
        let log = SpanLog::new();
        log.scope("setup", None, None, |root| {
            log.scope("compile \"ViT\"", Some(root), Some(7), |_| {});
        });
        let json = SpanSet::new(log.spans()).chrome_trace("perfbench");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("compile \\\"ViT\\\""));
        assert!(json.contains("\"parent\":0,\"request\":7"));
    }
}
