//! FIFO multi-model execution (Section 2.2 / Figure 6), as a special case of
//! the serving scheduler.
//!
//! AI-powered mobile apps chain several distinct DNNs (detector → depth →
//! generator, or ASR → translation → image generation). Holding every model
//! resident is infeasible; naive FIFO execution re-pays the full load +
//! layout-transform cost on every invocation. [`MultiModelRunner`] executes a
//! FIFO queue of models under a global memory cap: each model is compiled
//! once (through the plan cache), executed with its streaming plan, and its
//! weights are evicted before the next model starts, producing the stitched
//! memory-over-time trace that Figure 6 plots.
//!
//! Through PR 1 this lived in `flashmem-core` as a bespoke loop; it now
//! delegates to [`ServeEngine`] under the FIFO policy, whose exclusive mode
//! performs the identical float arithmetic — the reports are byte-for-byte
//! equal to the legacy implementation (proven in `tests/scheduler.rs`).

use flashmem_core::FlashMemConfig;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::{DeviceSpec, SimError};
use flashmem_graph::ModelSpec;
use serde::{Deserialize, Serialize};

use crate::request::ServeRequest;
use crate::server::ServeEngine;

/// One model invocation inside a FIFO workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationResult {
    /// Model abbreviation.
    pub model: String,
    /// Queue position of this invocation.
    pub sequence: usize,
    /// Integrated latency of the invocation in milliseconds.
    pub latency_ms: f64,
    /// Peak memory during the invocation in MB.
    pub peak_memory_mb: f64,
}

/// Aggregate result of a FIFO multi-model run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiModelReport {
    /// Per-invocation results in execution order.
    pub invocations: Vec<InvocationResult>,
    /// Total wall-clock time of the whole queue in milliseconds.
    pub total_latency_ms: f64,
    /// Peak memory across the whole workload in MB.
    pub peak_memory_mb: f64,
    /// Time-weighted average memory across the workload in MB.
    pub average_memory_mb: f64,
    /// The stitched memory trace over the whole workload (Figure 6's curve).
    pub memory_trace: MemoryTrace,
}

impl MultiModelReport {
    /// Number of model invocations executed.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// True if nothing was executed.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }
}

/// Executes a FIFO queue of models under a global memory cap.
#[derive(Debug, Clone)]
pub struct MultiModelRunner {
    device: DeviceSpec,
    config: FlashMemConfig,
    memory_cap_bytes: Option<u64>,
}

impl MultiModelRunner {
    /// Create a runner for `device` using `config` for every model.
    pub fn new(device: DeviceSpec, config: FlashMemConfig) -> Self {
        MultiModelRunner {
            device,
            config,
            memory_cap_bytes: None,
        }
    }

    /// Impose a manual memory cap (the paper uses 1.5 GB in Figure 6).
    pub fn with_memory_cap_bytes(mut self, bytes: u64) -> Self {
        self.memory_cap_bytes = Some(bytes);
        self
    }

    /// Run `iterations` rounds over the FIFO `queue` of models by delegating
    /// to the serving scheduler under the FIFO policy (one in-flight
    /// inference, eviction between invocations). The engine keeps its
    /// memory series, and the stitched trace moves into the report.
    ///
    /// # Errors
    ///
    /// Returns the first simulator error (typically out-of-memory when the
    /// cap is too small for a preloading configuration), like the legacy
    /// implementation.
    pub fn run_fifo(
        &self,
        queue: &[ModelSpec],
        iterations: usize,
    ) -> Result<MultiModelReport, SimError> {
        let device = match self.memory_cap_bytes {
            Some(cap) => self.device.clone().with_app_budget_bytes(cap),
            None => self.device.clone(),
        };
        let requests: Vec<ServeRequest> = (0..iterations)
            .flat_map(|_| queue.iter())
            .map(|model| ServeRequest::new(model.clone(), "fifo"))
            .collect();
        let engine = ServeEngine::new(vec![device], self.config.clone()).with_memory_series();
        let mut serve_report = engine.run(&requests)?;

        let mut invocations = Vec::with_capacity(serve_report.outcomes.len());
        let mut clock_ms = 0.0;
        let mut peak_mb: f64 = 0.0;
        let mut weighted_mem = 0.0;
        for (sequence, outcome) in serve_report.outcomes.iter().enumerate() {
            if let Some(error) = &outcome.error {
                return Err(error.clone());
            }
            let report = outcome
                .report
                .as_ref()
                .expect("exclusive FIFO outcomes carry full reports");
            invocations.push(InvocationResult {
                model: outcome.model.clone(),
                sequence,
                latency_ms: report.integrated_latency_ms,
                peak_memory_mb: report.peak_memory_mb,
            });
            weighted_mem += report.average_memory_mb * report.integrated_latency_ms;
            clock_ms += report.integrated_latency_ms;
            peak_mb = peak_mb.max(report.peak_memory_mb);
        }

        Ok(MultiModelReport {
            invocations,
            total_latency_ms: clock_ms,
            peak_memory_mb: peak_mb,
            average_memory_mb: if clock_ms > 0.0 {
                weighted_mem / clock_ms
            } else {
                0.0
            },
            memory_trace: serve_report.devices[0]
                .memory_trace
                .take()
                .expect("the runner keeps the memory series"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    fn small_queue() -> Vec<ModelSpec> {
        vec![ModelZoo::gptneo_small(), ModelZoo::vit()]
    }

    #[test]
    fn fifo_run_executes_every_invocation() {
        let runner =
            MultiModelRunner::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let report = runner.run_fifo(&small_queue(), 2).unwrap();
        assert_eq!(report.len(), 4);
        assert!(report.total_latency_ms > 0.0);
        assert!(report.peak_memory_mb > 0.0);
        assert!(!report.memory_trace.is_empty());
        // Invocation latencies sum to the total.
        let sum: f64 = report.invocations.iter().map(|i| i.latency_ms).sum();
        assert!((sum - report.total_latency_ms).abs() < 1e-6);
    }

    #[test]
    fn memory_cap_is_respected_by_streaming_plans() {
        let cap = 1_536u64 * 1024 * 1024; // the paper's 1.5 GB constraint
        let runner =
            MultiModelRunner::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority())
                .with_memory_cap_bytes(cap);
        let report = runner.run_fifo(&small_queue(), 1).unwrap();
        assert!(report.peak_memory_mb <= cap as f64 / (1024.0 * 1024.0) + 1.0);
    }

    #[test]
    fn eviction_returns_memory_to_zero_between_models() {
        let runner =
            MultiModelRunner::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let report = runner.run_fifo(&small_queue(), 1).unwrap();
        // The stitched trace must hit zero at least twice (after each model).
        let zeros = report
            .memory_trace
            .samples()
            .iter()
            .filter(|s| s.bytes == 0)
            .count();
        assert!(zeros >= 2, "only {zeros} zero samples");
    }

    #[test]
    fn empty_queue_produces_empty_report() {
        let runner =
            MultiModelRunner::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let report = runner.run_fifo(&[], 3).unwrap();
        assert!(report.is_empty());
        assert_eq!(report.total_latency_ms, 0.0);
    }

    #[test]
    fn weights_are_evicted_before_the_next_model_starts() {
        let queue = small_queue();
        let iterations = 2;
        let runner =
            MultiModelRunner::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let report = runner.run_fifo(&queue, iterations).unwrap();

        // Each invocation holds memory while it runs…
        for invocation in &report.invocations {
            assert!(
                invocation.peak_memory_mb > 0.0,
                "invocation {} held no memory",
                invocation.sequence
            );
        }

        // …and at every invocation boundary the stitched trace records an
        // eviction to zero at (or marginally after — trace clamping moves
        // frees forward, never backward) that invocation's end, before the
        // next invocation's window opens: FIFO eviction order.
        let samples = report.memory_trace.samples();
        let mut boundary_ms = 0.0;
        for invocation in &report.invocations {
            boundary_ms += invocation.latency_ms;
            // Within 1% (+1 ms) of the boundary — tight enough that the zero
            // belongs to this boundary, not the next model's own mid-run dips.
            let window_end = boundary_ms * 1.01 + 1.0;
            let evicted = samples.iter().any(|s| {
                s.bytes == 0 && s.time_ms >= boundary_ms - 1e-6 && s.time_ms <= window_end
            });
            assert!(
                evicted,
                "invocation {} was not evicted to zero near its end at {boundary_ms} ms",
                invocation.sequence
            );
        }

        // The trace clock never runs backwards.
        for pair in samples.windows(2) {
            assert!(
                pair[1].time_ms >= pair[0].time_ms - 1e-9,
                "trace out of order"
            );
        }
    }

    #[test]
    fn stitched_trace_never_exceeds_the_figure_6_cap() {
        let cap = 1_536u64 * 1024 * 1024; // the paper's 1.5 GB constraint
        let runner =
            MultiModelRunner::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority())
                .with_memory_cap_bytes(cap);
        let report = runner.run_fifo(&small_queue(), 2).unwrap();
        // Every sample of the stitched trace — not just the reported peak —
        // stays under the cap.
        for sample in report.memory_trace.samples() {
            assert!(
                sample.bytes <= cap,
                "trace sample at {} ms holds {} bytes, above the {} byte cap",
                sample.time_ms,
                sample.bytes,
                cap
            );
        }
        assert!(report.peak_memory_mb <= cap as f64 / (1024.0 * 1024.0) + 1e-6);
    }

    #[test]
    fn average_memory_is_below_peak() {
        let runner =
            MultiModelRunner::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let report = runner.run_fifo(&small_queue(), 1).unwrap();
        assert!(report.average_memory_mb <= report.peak_memory_mb);
    }
}
