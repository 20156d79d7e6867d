//! The unit of admission: one tenant's inference request.
//!
//! A [`ServeRequest`] is everything the scheduler knows about a piece of
//! work before compiling it: which model to run, who is asking (the tenant,
//! which drives memory caps, affinity sharding and per-tenant SLOs), how
//! urgent it is (the priority, which drives admission order and preemption),
//! when it arrives, and — optionally — the latency budget it must meet for
//! its service-level objective to count as attained.
//!
//! # Request disposition
//!
//! Every submitted request ends in **exactly one** terminal disposition,
//! and the three cause taxonomies partition the non-completed ones —
//! nothing is ever silently lost:
//!
//! | Disposition | Marker on [`RequestOutcome`](crate::RequestOutcome) | Cause type | Counted in |
//! |---|---|---|---|
//! | **Completed** | `rejected: None`, `error: None` | — | `ServeReport::completed()` |
//! | **Rejected** (shed by overload control, never accepted) | `rejected: Some(_)`, `error: None` | [`RejectCause`]: deadline-unmeetable, queue-full | `ServeReport::rejected()` / [`ShedBreakdown`](crate::ShedBreakdown) |
//! | **Failed** (accepted, then died) | `rejected: None`, `error: Some(_)`, `failure: Some(_)` | [`FailureCause`]: device-lost, kernel-fault, oom-spike, out-of-memory, execution | `ServeReport::failed()` |
//!
//! The partitions `accepted + rejected == submitted` and
//! `completed + failed == accepted` hold by construction and are
//! debug-asserted at every report commit point
//! ([`ServeReport::assert_disposition`](crate::ServeReport::assert_disposition)).
//!
//! Orthogonally, [`MissCause`](crate::MissCause) classifies why a
//! deadline-carrying **accepted** request missed its SLO (queueing,
//! execution, preemption, or failure) — a *failed* request with a deadline
//! is both `FailureCause`-typed and a `MissCause::Failed` SLO miss, while
//! a *rejected* one is excluded from SLO accounting entirely (it was never
//! accepted into the pipeline).

use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::{FaultKind, SimError};
use flashmem_graph::ModelSpec;

/// Why overload control shed a request instead of queueing it forever.
///
/// Every rejected request carries exactly one cause in its
/// [`RequestOutcome`](crate::RequestOutcome); nothing is ever silently
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectCause {
    /// Admission control proved the deadline unmeetable before queueing:
    /// even the uncontended predicted service time on the *best* device of
    /// the fleet exceeds the request's latency budget, so its laxity is
    /// negative on every shard it could possibly run on.
    DeadlineUnmeetable,
    /// The placed device's bounded queue was full at the request's arrival
    /// instant, so it was shed instead of growing the queue without bound.
    QueueFull,
}

impl RejectCause {
    /// Short stable label used in trace events and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            RejectCause::DeadlineUnmeetable => "deadline-unmeetable",
            RejectCause::QueueFull => "queue-full",
        }
    }
}

impl std::fmt::Display for RejectCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why an **accepted** request failed instead of completing — the typed
/// counterpart of [`RejectCause`] for work that died *after* admission (see
/// the request-disposition table in the [module docs](self)).
///
/// Every failed outcome carries exactly one cause, derived from its
/// [`SimError`] by [`FailureCause::from_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// The device serving the request was lost (injected
    /// [`FaultKind::DeviceLoss`]) and no failover target survived — or
    /// failover was disabled.
    DeviceLost,
    /// An injected transient kernel fault killed the request's final
    /// attempt (its retry budget, possibly zero, was exhausted).
    KernelFault,
    /// An injected spurious OOM spike killed the request's final attempt.
    OomSpike,
    /// A *real* capacity failure: the model's working set genuinely did not
    /// fit (pool exhaustion, a tenant cap smaller than the model, an
    /// unrecoverable resume).
    OutOfMemory,
    /// Any other execution error (invalid stream, bad parameter, ...).
    Execution,
}

impl FailureCause {
    /// Short stable label used in trace events and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            FailureCause::DeviceLost => "device-lost",
            FailureCause::KernelFault => "kernel-fault",
            FailureCause::OomSpike => "oom-spike",
            FailureCause::OutOfMemory => "out-of-memory",
            FailureCause::Execution => "execution",
        }
    }

    /// Classify the terminal error of a failed request.
    pub fn from_error(error: &SimError) -> Self {
        match error {
            SimError::Fault { kind, .. } => match kind {
                FaultKind::DeviceLoss => FailureCause::DeviceLost,
                FaultKind::TransientKernel => FailureCause::KernelFault,
                FaultKind::OomSpike => FailureCause::OomSpike,
            },
            SimError::OutOfMemory { .. } => FailureCause::OutOfMemory,
            _ => FailureCause::Execution,
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Token counts of a generative request served through the decode path:
/// how long the prompt is (the prefill pass) and how many tokens to
/// generate (one per decode step after the prefill's first token).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeParams {
    /// Prompt tokens processed by the prefill pass (clamped to at least 1).
    pub prompt_tokens: u32,
    /// Tokens to generate (clamped to at least 1 — the prefill pass itself
    /// emits the first token).
    pub output_tokens: u32,
}

impl DecodeParams {
    /// Total context tokens this request will hold at its peak:
    /// the prompt plus every generated token except the last (which is
    /// emitted but never fed back). Saturates at 0 for zero counts, which
    /// [`DecodeEngine`](crate::DecodeEngine) rejects at entry.
    pub fn max_context_tokens(self) -> u64 {
        (u64::from(self.prompt_tokens) + u64::from(self.output_tokens)).saturating_sub(1)
    }
}

/// One inference request submitted to a [`ServeEngine`](crate::ServeEngine).
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The model to run.
    pub model: ModelSpec,
    /// Tenant identity (per-tenant memory caps, affinity sharding key and
    /// per-tenant SLO lookup).
    pub tenant: String,
    /// Scheduling priority — higher values are more urgent. Under a
    /// preemptive policy a higher-priority arrival can suspend a running
    /// lower-priority inference.
    pub priority: u8,
    /// Simulated arrival time in milliseconds. A request can never execute
    /// (or occupy queue time) before it arrives.
    pub arrival_ms: f64,
    /// Optional SLO deadline as a *relative* latency budget in milliseconds:
    /// the request meets its SLO iff it completes within `deadline_ms` of
    /// `arrival_ms`. When `None`, the engine falls back to the tenant's
    /// default deadline (see
    /// [`ServeEngine::with_tenant_slo`](crate::ServeEngine::with_tenant_slo)),
    /// and if neither is set the request is excluded from SLO accounting.
    pub deadline_ms: Option<f64>,
    /// Prompt/output token counts for generative requests served by the
    /// continuous-batching decode engine
    /// ([`DecodeEngine`](crate::DecodeEngine)). `None` for one-shot
    /// requests; the model must carry a
    /// [`DecodeSpec`](flashmem_graph::models::DecodeSpec) when this is set.
    pub decode: Option<DecodeParams>,
}

impl ServeRequest {
    /// A priority-0 request from `tenant` arriving at time zero with no
    /// deadline.
    pub fn new(model: ModelSpec, tenant: impl Into<String>) -> Self {
        ServeRequest {
            model,
            tenant: tenant.into(),
            priority: 0,
            arrival_ms: 0.0,
            deadline_ms: None,
            decode: None,
        }
    }

    /// Mark this as a generative request with the given prompt/output token
    /// counts (builder style; both clamped to at least 1).
    pub fn with_decode_tokens(mut self, prompt_tokens: u32, output_tokens: u32) -> Self {
        self.decode = Some(DecodeParams {
            prompt_tokens: prompt_tokens.max(1),
            output_tokens: output_tokens.max(1),
        });
        self
    }

    /// Set the priority (builder style).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Set the arrival time (builder style, clamped to non-negative; a NaN
    /// is kept, and the run rejects it).
    pub fn with_arrival_ms(mut self, arrival_ms: f64) -> Self {
        self.arrival_ms = clamp_non_negative(arrival_ms);
        self
    }

    /// Set the relative SLO deadline (builder style, clamped to
    /// non-negative; a NaN is kept, and the run rejects it).
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(clamp_non_negative(deadline_ms));
        self
    }

    /// The request's own absolute deadline on the simulated clock
    /// (`arrival + deadline`), if it carries one. This only covers the
    /// request-level budget: tenant-default SLOs
    /// ([`ServeEngine::with_tenant_slo`](crate::ServeEngine::with_tenant_slo))
    /// are folded in by the engine, which feeds the resulting absolute
    /// instant to the deadline-aware policies.
    pub fn absolute_deadline_ms(&self) -> Option<f64> {
        self.deadline_ms.map(|d| self.arrival_ms + d)
    }
}

/// Clamp a negative time to 0 but keep a NaN for the entry checks to
/// reject: `f64::max` returns its non-NaN operand, so `ms.max(0.0)` alone
/// would turn a NaN into 0.
pub(crate) fn clamp_non_negative(ms: f64) -> f64 {
    if ms.is_nan() {
        ms
    } else {
        ms.max(0.0)
    }
}

/// Reject a submission holding a non-finite arrival time or a NaN or
/// negative deadline, whether set on the public fields or, for a NaN,
/// passed through a builder. Both engines order work by arrival and admit
/// from the arrived prefix, which needs real times, and a NaN deadline
/// would silently count as a missed SLO.
///
/// # Errors
///
/// [`SimError::InvalidParameter`] naming the first offending request.
pub(crate) fn check_arrivals(requests: &[ServeRequest]) -> SimResult<()> {
    for (seq, request) in requests.iter().enumerate() {
        let abbr = &request.model.abbr;
        if !request.arrival_ms.is_finite() {
            return Err(SimError::InvalidParameter {
                message: format!(
                    "request {seq} for {abbr} arrives at {} ms; arrival times must be finite",
                    request.arrival_ms
                ),
            });
        }
        if let Some(deadline) = request.deadline_ms.filter(|d| d.is_nan() || *d < 0.0) {
            return Err(SimError::InvalidParameter {
                message: format!(
                    "request {seq} for {abbr} has a {deadline} ms deadline; deadlines must be \
                     non-negative numbers"
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    #[test]
    fn builder_defaults_and_clamps() {
        let r = ServeRequest::new(ModelZoo::vit(), "app-a");
        assert_eq!(r.priority, 0);
        assert_eq!(r.arrival_ms, 0.0);
        assert_eq!(r.deadline_ms, None);
        let r = r.with_priority(3).with_arrival_ms(-5.0);
        assert_eq!(r.priority, 3);
        assert_eq!(r.arrival_ms, 0.0);
    }

    #[test]
    fn deadline_is_clamped_non_negative() {
        let r = ServeRequest::new(ModelZoo::vit(), "a").with_deadline_ms(-1.0);
        assert_eq!(r.deadline_ms, Some(0.0));
        let r = r.with_deadline_ms(500.0);
        assert_eq!(r.deadline_ms, Some(500.0));
    }

    #[test]
    fn decode_tokens_clamp_and_context_math() {
        let r = ServeRequest::new(ModelZoo::gptneo_small(), "a").with_decode_tokens(0, 0);
        let d = r.decode.unwrap();
        assert_eq!(d.prompt_tokens, 1);
        assert_eq!(d.output_tokens, 1);
        assert_eq!(d.max_context_tokens(), 1);
        let d = DecodeParams {
            prompt_tokens: 16,
            output_tokens: 8,
        };
        assert_eq!(d.max_context_tokens(), 23);
        let d = DecodeParams {
            prompt_tokens: 0,
            output_tokens: 0,
        };
        assert_eq!(d.max_context_tokens(), 0);
    }

    #[test]
    fn failure_causes_classify_errors() {
        assert_eq!(
            FailureCause::from_error(&SimError::Fault {
                kind: FaultKind::DeviceLoss,
                at_ms: 10.0,
            }),
            FailureCause::DeviceLost
        );
        assert_eq!(
            FailureCause::from_error(&SimError::Fault {
                kind: FaultKind::TransientKernel,
                at_ms: 10.0,
            }),
            FailureCause::KernelFault
        );
        assert_eq!(
            FailureCause::from_error(&SimError::Fault {
                kind: FaultKind::OomSpike,
                at_ms: 10.0,
            }),
            FailureCause::OomSpike
        );
        assert_eq!(
            FailureCause::from_error(&SimError::OutOfMemory {
                pool: "unified".into(),
                requested: 2,
                available: 1,
                capacity: 1,
            }),
            FailureCause::OutOfMemory
        );
        assert_eq!(
            FailureCause::from_error(&SimError::InvalidParameter {
                message: "x".into(),
            }),
            FailureCause::Execution
        );
        assert_eq!(FailureCause::DeviceLost.label(), "device-lost");
        assert_eq!(FailureCause::KernelFault.to_string(), "kernel-fault");
    }

    #[test]
    fn absolute_deadline_is_arrival_plus_budget() {
        let r = ServeRequest::new(ModelZoo::vit(), "a");
        assert_eq!(r.absolute_deadline_ms(), None);
        let r = r.with_arrival_ms(250.0).with_deadline_ms(500.0);
        assert_eq!(r.absolute_deadline_ms(), Some(750.0));
    }
}
