//! FlashMem runtime configuration.
//!
//! The knobs mirror the hyper-parameters discussed in Section 3.2 of the
//! paper: the in-flight transformation budget `M_peak`, the preload/distance
//! balance `λ`, the distance penalty `μ`, the chunk size `S`, the fusion
//! capacity-gain threshold `α`, and the ablation switches used by the
//! breakdown study (Figure 7).

use serde::{Deserialize, Serialize};

/// Number of bytes in one mebibyte.
const MIB: u64 = 1024 * 1024;

/// Configuration of the FlashMem planner and executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashMemConfig {
    /// `M_peak`: upper bound on in-flight streamed-weight memory (bytes in
    /// unified + texture memory awaiting consumption) during execution.
    /// The paper's memory-priority default is 500 MB.
    pub m_peak_bytes: u64,
    /// `λ ∈ [0, 1]`: weight of the preload-set size in the objective. Values
    /// close to 1 penalise preloading aggressively (memory priority).
    pub lambda: f64,
    /// `μ`: penalty per layer of loading distance (early loading raises
    /// residency, so larger `μ` pushes loads later).
    pub mu: f64,
    /// Chunk size `S` in bytes for weight slicing.
    pub chunk_bytes: u64,
    /// `α`: required relative capacity gain for adaptive fusion to split a
    /// fused kernel (`C_v1 + C_v2 ≥ (1 + α) · C_fused`).
    pub alpha: f64,
    /// Rolling-window length (in kernels) the incremental scheduler considers
    /// when placing a weight's chunks before its consumer.
    pub window: usize,
    /// Weight names that must be preloaded regardless of the planner's choice
    /// (the explicit `|W|` list mentioned in Section 5.4).
    pub explicit_preload: Vec<String>,
    /// Enable the OPG planner (disable to fall back to full preloading —
    /// ablation baseline).
    pub enable_opg: bool,
    /// Enable adaptive fusion (Section 4.3).
    pub enable_adaptive_fusion: bool,
    /// Enable branch-free pipelined kernel rewriting (Section 4.4).
    pub enable_kernel_rewriting: bool,
}

impl Default for FlashMemConfig {
    fn default() -> Self {
        Self::balanced()
    }
}

impl FlashMemConfig {
    /// The memory-priority preset from the paper: `M_peak` = 500 MB, `λ` ≈ 0.9.
    pub fn memory_priority() -> Self {
        FlashMemConfig {
            m_peak_bytes: 500 * MIB,
            lambda: 0.9,
            mu: 1.0,
            // 256 KiB chunks: fine-grained enough that the 20% capacity of a
            // typical MatMul kernel still admits at least one chunk.
            chunk_bytes: 256 * 1024,
            alpha: 0.25,
            window: 32,
            explicit_preload: Vec::new(),
            enable_opg: true,
            enable_adaptive_fusion: true,
            enable_kernel_rewriting: true,
        }
    }

    /// The latency-priority preset: a large `M_peak` and small `λ` so the
    /// planner may preload aggressively and shrink per-kernel streaming work.
    pub fn latency_priority() -> Self {
        FlashMemConfig {
            m_peak_bytes: 1_536 * MIB,
            lambda: 0.3,
            mu: 0.2,
            ..Self::memory_priority()
        }
    }

    /// A balanced preset between the two extremes.
    pub fn balanced() -> Self {
        FlashMemConfig {
            m_peak_bytes: 900 * MIB,
            lambda: 0.7,
            mu: 0.5,
            ..Self::memory_priority()
        }
    }

    /// Set `M_peak` in bytes (builder style).
    pub fn with_m_peak_bytes(mut self, bytes: u64) -> Self {
        self.m_peak_bytes = bytes;
        self
    }

    /// Set `M_peak` in mebibytes (builder style).
    pub fn with_m_peak_mib(self, mib: u64) -> Self {
        self.with_m_peak_bytes(mib * MIB)
    }

    /// Set `λ`, clamped to `[0, 1]`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda.clamp(0.0, 1.0);
        self
    }

    /// Set `μ` (non-negative).
    pub fn with_mu(mut self, mu: f64) -> Self {
        self.mu = mu.max(0.0);
        self
    }

    /// Set the chunk size `S` (at least 4 KiB to keep chunk counts sane).
    pub fn with_chunk_bytes(mut self, bytes: u64) -> Self {
        self.chunk_bytes = bytes.max(4 * 1024);
        self
    }

    /// Set the fusion capacity-gain threshold `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha.max(0.0);
        self
    }

    /// Set the rolling-window length.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Add a weight name to the explicit preload list.
    pub fn with_explicit_preload(mut self, name: &str) -> Self {
        self.explicit_preload.push(name.to_string());
        self
    }

    /// Toggle the OPG planner.
    pub fn with_opg(mut self, enabled: bool) -> Self {
        self.enable_opg = enabled;
        self
    }

    /// Toggle adaptive fusion.
    pub fn with_adaptive_fusion(mut self, enabled: bool) -> Self {
        self.enable_adaptive_fusion = enabled;
        self
    }

    /// Toggle kernel rewriting.
    pub fn with_kernel_rewriting(mut self, enabled: bool) -> Self {
        self.enable_kernel_rewriting = enabled;
        self
    }

    /// `M_peak` in MiB.
    pub fn m_peak_mib(&self) -> f64 {
        self.m_peak_bytes as f64 / MIB as f64
    }

    /// A stable fingerprint over every field that influences compilation —
    /// the configuration part of [`ArtifactCache`](crate::cache::ArtifactCache)
    /// keys.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::cache::Fnv1a::new()
            .write_u64(self.m_peak_bytes)
            .write_f64(self.lambda)
            .write_f64(self.mu)
            .write_u64(self.chunk_bytes)
            .write_f64(self.alpha)
            .write_u64(self.window as u64)
            .write_u64(u64::from(self.enable_opg))
            .write_u64(u64::from(self.enable_adaptive_fusion))
            .write_u64(u64::from(self.enable_kernel_rewriting));
        for name in &self.explicit_preload {
            h = h.write_str(name);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_priority_matches_paper_defaults() {
        let c = FlashMemConfig::memory_priority();
        assert_eq!(c.m_peak_bytes, 500 * MIB);
        assert!((c.lambda - 0.9).abs() < 1e-12);
        assert!(c.enable_opg && c.enable_adaptive_fusion && c.enable_kernel_rewriting);
    }

    #[test]
    fn latency_priority_preloads_more() {
        let mem = FlashMemConfig::memory_priority();
        let lat = FlashMemConfig::latency_priority();
        assert!(lat.m_peak_bytes > mem.m_peak_bytes);
        assert!(lat.lambda < mem.lambda);
    }

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let base = FlashMemConfig::memory_priority();
        assert_eq!(
            base.fingerprint(),
            FlashMemConfig::memory_priority().fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            FlashMemConfig::latency_priority().fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            base.clone().with_kernel_rewriting(false).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            base.clone().with_explicit_preload("w0").fingerprint()
        );
    }

    #[test]
    fn builder_clamps_values() {
        let c = FlashMemConfig::balanced()
            .with_lambda(3.0)
            .with_mu(-1.0)
            .with_chunk_bytes(1)
            .with_window(0)
            .with_alpha(-2.0);
        assert_eq!(c.lambda, 1.0);
        assert_eq!(c.mu, 0.0);
        assert_eq!(c.chunk_bytes, 4 * 1024);
        assert_eq!(c.window, 1);
        assert_eq!(c.alpha, 0.0);
    }

    #[test]
    fn explicit_preload_accumulates() {
        let c = FlashMemConfig::default()
            .with_explicit_preload("wte.weight")
            .with_explicit_preload("lm_head.weight");
        assert_eq!(c.explicit_preload.len(), 2);
    }

    #[test]
    fn m_peak_mib_round_trip() {
        let c = FlashMemConfig::default().with_m_peak_mib(512);
        assert_eq!(c.m_peak_mib(), 512.0);
    }

    #[test]
    fn default_is_balanced() {
        assert_eq!(FlashMemConfig::default(), FlashMemConfig::balanced());
    }
}
