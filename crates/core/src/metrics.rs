//! Execution reports.
//!
//! Every run — FlashMem or a baseline framework — is summarised by an
//! [`ExecutionReport`] holding the quantities the paper's tables compare:
//! initialization latency, execution latency, integrated latency, peak and
//! average memory, power and energy, plus the memory trace needed for
//! Figure 6-style plots.

use flashmem_gpu_sim::engine::ExecutionOutcome;
use flashmem_gpu_sim::trace::{EventKind, MemoryTrace};
use serde::{Deserialize, Serialize};

/// Summary of one inference run on the simulated device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Name of the framework that produced the run (e.g. `"FlashMem"`).
    pub framework: String,
    /// Name of the model executed.
    pub model: String,
    /// Initialization latency in milliseconds (weight preload + transform).
    /// Zero-ish for FlashMem, whose loading is folded into execution.
    pub init_latency_ms: f64,
    /// Execution latency in milliseconds (kernel time after initialization).
    pub exec_latency_ms: f64,
    /// Integrated latency (init + exec) — the headline column of Table 7.
    pub integrated_latency_ms: f64,
    /// Busy time of disk/memory transfers over the whole run in milliseconds
    /// (the "Load" phase of Table 1).
    pub load_busy_ms: f64,
    /// Busy time of layout-transformation work in milliseconds (the "Trans."
    /// phase of Table 1).
    pub transform_busy_ms: f64,
    /// Busy time of compute kernels in milliseconds (the "Infer" phase of
    /// Table 1).
    pub kernel_busy_ms: f64,
    /// Peak memory footprint in MB.
    pub peak_memory_mb: f64,
    /// Time-weighted average memory footprint in MB — the Table 8 metric.
    pub average_memory_mb: f64,
    /// Average power draw in watts (Table 9).
    pub average_power_w: f64,
    /// Energy per inference in joules (Table 9).
    pub energy_j: f64,
    /// Fraction of the makespan during which transfers overlapped compute.
    pub overlap_fraction: f64,
    /// Fraction of weight bytes streamed during execution (vs preloaded).
    pub streamed_weight_fraction: f64,
    /// The memory usage trace over the run; it carries its samples when the
    /// run's tracker kept them (always for a solo run, and for a serve
    /// request only when the engine keeps its memory series).
    pub memory_trace: MemoryTrace,
}

impl ExecutionReport {
    /// Build a report from a simulator outcome, moving its memory trace.
    pub fn from_outcome(
        framework: &str,
        model: &str,
        outcome: ExecutionOutcome,
        streamed_weight_fraction: f64,
    ) -> Self {
        ExecutionReport {
            framework: framework.to_string(),
            model: model.to_string(),
            init_latency_ms: outcome.init_time_ms,
            exec_latency_ms: outcome.exec_time_ms,
            integrated_latency_ms: outcome.total_time_ms,
            load_busy_ms: outcome.timeline.busy_ms(EventKind::Transfer),
            transform_busy_ms: outcome.timeline.busy_ms(EventKind::Transform),
            kernel_busy_ms: outcome.timeline.busy_ms(EventKind::Kernel),
            peak_memory_mb: outcome.peak_memory_mib(),
            average_memory_mb: outcome.average_memory_mib(),
            average_power_w: outcome.energy.average_power_w,
            energy_j: outcome.energy.energy_j,
            overlap_fraction: outcome.timeline.overlap_fraction(),
            streamed_weight_fraction: streamed_weight_fraction.clamp(0.0, 1.0),
            memory_trace: outcome.memory_trace,
        }
    }

    /// Speedup of this run over `other` on integrated latency.
    pub fn speedup_over(&self, other: &ExecutionReport) -> f64 {
        if self.integrated_latency_ms <= 0.0 {
            return f64::INFINITY;
        }
        other.integrated_latency_ms / self.integrated_latency_ms
    }

    /// Memory-reduction factor of this run over `other` on average memory.
    pub fn memory_reduction_over(&self, other: &ExecutionReport) -> f64 {
        if self.average_memory_mb <= 0.0 {
            return f64::INFINITY;
        }
        other.average_memory_mb / self.average_memory_mb
    }
}

impl std::fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {}: integrated {:.0} ms (init {:.0} + exec {:.0}), peak {:.0} MB, avg {:.0} MB, {:.1} J",
            self.framework,
            self.model,
            self.integrated_latency_ms,
            self.init_latency_ms,
            self.exec_latency_ms,
            self.peak_memory_mb,
            self.average_memory_mb,
            self.energy_j
        )
    }
}

/// Geometric mean of a slice of positive ratios — used for the "Geo-Mean"
/// rows of Tables 7 and 8. Returns 1.0 for an empty slice and ignores
/// non-finite or non-positive entries.
pub fn geo_mean(ratios: &[f64]) -> f64 {
    let valid: Vec<f64> = ratios
        .iter()
        .copied()
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    if valid.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = valid.iter().map(|r| r.ln()).sum();
    (log_sum / valid.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(framework: &str, integrated: f64, avg_mem: f64) -> ExecutionReport {
        ExecutionReport {
            framework: framework.to_string(),
            model: "m".to_string(),
            init_latency_ms: integrated * 0.6,
            exec_latency_ms: integrated * 0.4,
            integrated_latency_ms: integrated,
            load_busy_ms: integrated * 0.3,
            transform_busy_ms: integrated * 0.3,
            kernel_busy_ms: integrated * 0.4,
            peak_memory_mb: avg_mem * 1.5,
            average_memory_mb: avg_mem,
            average_power_w: 5.0,
            energy_j: 5.0 * integrated / 1000.0,
            overlap_fraction: 0.0,
            streamed_weight_fraction: 0.0,
            memory_trace: MemoryTrace::new(),
        }
    }

    #[test]
    fn speedup_and_memory_reduction() {
        let ours = report("FlashMem", 500.0, 100.0);
        let baseline = report("MNN", 4000.0, 600.0);
        assert!((ours.speedup_over(&baseline) - 8.0).abs() < 1e-9);
        assert!((ours.memory_reduction_over(&baseline) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn geo_mean_basics() {
        assert_eq!(geo_mean(&[]), 1.0);
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        // Non-finite and non-positive entries are ignored.
        assert!((geo_mean(&[2.0, 8.0, f64::INFINITY, 0.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_framework_and_latency() {
        let r = report("FlashMem", 1234.0, 256.0);
        let text = r.to_string();
        assert!(text.contains("FlashMem"));
        assert!(text.contains("1234"));
    }

    #[test]
    fn zero_latency_speedup_is_infinite() {
        let zero = report("x", 0.0, 0.0);
        let other = report("y", 10.0, 10.0);
        assert!(zero.speedup_over(&other).is_infinite());
        assert!(zero.memory_reduction_over(&other).is_infinite());
    }
}
