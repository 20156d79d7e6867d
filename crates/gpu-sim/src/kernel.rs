//! GPU kernel descriptors and the per-kernel latency cost model.
//!
//! A kernel is characterised by its arithmetic work (FLOPs), the bytes it
//! reads and writes, its launch geometry (global/local work sizes, mirroring
//! the GWS/LWS features used by the paper's XGBoost profiler in Figure 4) and
//! a coarse *category* that determines how well it tolerates concurrent data
//! loading (Table 5).

use serde::{Deserialize, Serialize};

use crate::cache::{AccessPattern, TextureCacheModel};
use crate::device::DeviceSpec;
use crate::texture::{Texture2p5dLayout, WeightLayout};

/// Coarse operator category from Table 5 of the paper.
///
/// The category determines memory-bandwidth pressure, load-capacity tolerance
/// and computational intensity, and therefore how much extra weight streaming
/// can be overlapped with the kernel (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelCategory {
    /// Element-wise operators (ReLU, Add, Mul, ...): memory-bound, simple
    /// arithmetic, tolerate very large concurrent loads (300% threshold).
    Elemental,
    /// Structured-reuse operators (Conv, MatMul): compute-bound with loop
    /// tiling, tolerate moderate concurrent loads (20% threshold).
    Reusable,
    /// Hierarchical operators (Softmax, LayerNorm): multi-pass reductions with
    /// synchronisation, tolerate essentially no concurrent loads (0%).
    Hierarchical,
}

impl KernelCategory {
    /// The fraction of the kernel's own input volume that can be additionally
    /// streamed while staying under a ~20-30% latency penalty — the
    /// "load-capacity tolerance" of Table 5 / Section 4.2.
    pub fn load_tolerance_ratio(&self) -> f64 {
        match self {
            KernelCategory::Elemental => 3.00,
            KernelCategory::Reusable => 0.20,
            KernelCategory::Hierarchical => 0.00,
        }
    }

    /// Sensitivity coefficient of latency to concurrent data loading: latency
    /// multiplier ≈ 1 + sensitivity × (extra bytes / own bytes). Calibrated so
    /// that the Figure 2 curves are reproduced: Softmax/LayerNorm blow up
    /// quickly, element-wise ops absorb several times their input, MatMul sits
    /// in between but has large absolute latency.
    pub fn overlap_sensitivity(&self) -> f64 {
        match self {
            KernelCategory::Elemental => 0.05,
            KernelCategory::Reusable => 0.22,
            KernelCategory::Hierarchical => 1.10,
        }
    }

    /// Short lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelCategory::Elemental => "elemental",
            KernelCategory::Reusable => "reusable",
            KernelCategory::Hierarchical => "hierarchical",
        }
    }
}

impl std::fmt::Display for KernelCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Global / local work-group geometry of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LaunchDims {
    /// Global work size per dimension.
    pub gws: [u64; 3],
    /// Local work size per dimension.
    pub lws: [u64; 3],
}

impl LaunchDims {
    /// Create launch dimensions; zero entries are promoted to one.
    pub fn new(gws: [u64; 3], lws: [u64; 3]) -> Self {
        let fix = |d: [u64; 3]| [d[0].max(1), d[1].max(1), d[2].max(1)];
        LaunchDims {
            gws: fix(gws),
            lws: fix(lws),
        }
    }

    /// Total number of work items.
    pub fn global_items(&self) -> u64 {
        self.gws.iter().product()
    }

    /// Work items per work group.
    pub fn local_items(&self) -> u64 {
        self.lws.iter().product()
    }

    /// Number of work groups dispatched.
    pub fn work_groups(&self) -> u64 {
        self.global_items().div_ceil(self.local_items().max(1))
    }

    /// Occupancy proxy in `(0, 1]`: how well the local size fills a wave/warp
    /// of 64 lanes.
    pub fn occupancy(&self) -> f64 {
        let lanes = 64.0;
        let local = self.local_items() as f64;
        let waves = (local / lanes).ceil();
        (local / (waves * lanes)).clamp(0.05, 1.0)
    }
}

impl Default for LaunchDims {
    fn default() -> Self {
        LaunchDims::new([1024, 1, 1], [64, 1, 1])
    }
}

/// Description of one GPU kernel to be simulated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Kernel name (usually `<op>_<layer index>`).
    pub name: String,
    /// Operator category (drives the overlap-interference model).
    pub category: KernelCategory,
    /// Arithmetic work in floating-point operations.
    pub flops: f64,
    /// Bytes read by the kernel (weights + activations).
    pub bytes_in: u64,
    /// Bytes written by the kernel.
    pub bytes_out: u64,
    /// Launch geometry.
    pub launch: LaunchDims,
    /// Layout of the weights this kernel reads.
    pub weight_layout: WeightLayout,
    /// Access pattern used when reading weights.
    pub access_pattern: AccessPattern,
    /// True if the kernel executes in FP16 (the paper's default precision).
    pub fp16: bool,
    /// Whether the kernel was rewritten with the branch-free pipelined
    /// template of Section 4.4. Pipelined kernels hide part of their own
    /// memory latency and absorb streamed loads more gracefully.
    pub pipelined: bool,
    /// Extra warp-divergence penalty factor in `[0, 1)`; non-zero for naive
    /// interleaved kernels that guard loads with per-thread conditionals.
    pub divergence_penalty: f64,
}

impl KernelDesc {
    /// Create a kernel descriptor with sensible defaults (FP16, optimized 2.5D
    /// weights, streaming access, not pipelined).
    pub fn new(
        name: &str,
        category: KernelCategory,
        flops: f64,
        bytes_in: u64,
        bytes_out: u64,
    ) -> Self {
        KernelDesc {
            name: name.to_string(),
            category,
            flops: flops.max(0.0),
            bytes_in,
            bytes_out,
            launch: LaunchDims::default(),
            weight_layout: WeightLayout::Texture2p5dOptimized,
            access_pattern: AccessPattern::RowStreaming,
            fp16: true,
            pipelined: false,
            divergence_penalty: 0.0,
        }
    }

    /// Set the launch geometry.
    pub fn with_launch(mut self, launch: LaunchDims) -> Self {
        self.launch = launch;
        self
    }

    /// Set the weight layout.
    pub fn with_weight_layout(mut self, layout: WeightLayout) -> Self {
        self.weight_layout = layout;
        self
    }

    /// Set the access pattern.
    pub fn with_access_pattern(mut self, pattern: AccessPattern) -> Self {
        self.access_pattern = pattern;
        self
    }

    /// Mark the kernel as using the branch-free pipelined template.
    pub fn pipelined(mut self, enabled: bool) -> Self {
        self.pipelined = enabled;
        if enabled {
            self.divergence_penalty = 0.0;
        }
        self
    }

    /// Set a warp-divergence penalty (naive interleaving).
    pub fn with_divergence_penalty(mut self, penalty: f64) -> Self {
        self.divergence_penalty = penalty.clamp(0.0, 0.95);
        self
    }

    /// Select FP16 (true) or FP32 (false) execution.
    pub fn with_fp16(mut self, fp16: bool) -> Self {
        self.fp16 = fp16;
        self
    }

    /// Total bytes moved by the kernel.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// Arithmetic intensity in FLOPs per byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0 {
            f64::INFINITY
        } else {
            self.flops / b as f64
        }
    }
}

/// The kernel latency cost model for a specific device.
///
/// Latency is a roofline-style maximum of compute time and memory time, scaled
/// by occupancy, divergence and pipeline factors, plus the device's fixed
/// launch overhead. Concurrent streamed loads inflate latency according to the
/// kernel category's sensitivity (Figure 2).
#[derive(Debug, Clone)]
pub struct KernelCostModel {
    device: DeviceSpec,
    cache: TextureCacheModel,
}

impl KernelCostModel {
    /// Build a cost model for `device` with the default texture-cache model.
    pub fn new(device: DeviceSpec) -> Self {
        KernelCostModel {
            device,
            cache: TextureCacheModel::default(),
        }
    }

    /// Build a cost model with a custom texture-cache model.
    pub fn with_cache(device: DeviceSpec, cache: TextureCacheModel) -> Self {
        KernelCostModel { device, cache }
    }

    /// The device this model targets.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Baseline latency of the kernel in milliseconds with **no** concurrent
    /// streaming.
    pub fn latency_ms(&self, kernel: &KernelDesc) -> f64 {
        self.latency_with_extra_load_ms(kernel, 0)
    }

    /// Latency of the kernel in milliseconds while `extra_load_bytes` of
    /// weight data are being streamed/transformed concurrently by the same
    /// SMs (the pipelined-loading interference model).
    pub fn latency_with_extra_load_ms(&self, kernel: &KernelDesc, extra_load_bytes: u64) -> f64 {
        self.roofline(kernel).latency_ms(extra_load_bytes)
    }

    /// Price the part of `kernel`'s latency that does not depend on the
    /// extra load: its compute and memory phases.
    fn roofline(&self, kernel: &KernelDesc) -> Roofline {
        let flops = self.device.flops_for(kernel.fp16);
        let occupancy = kernel.launch.occupancy();
        // Compute phase: ideal FLOP time degraded by occupancy and divergence.
        let compute_ms = if kernel.flops > 0.0 {
            (kernel.flops / (flops * occupancy.max(0.05))) * 1e3
                / (1.0 - kernel.divergence_penalty).max(0.05)
        } else {
            0.0
        };

        // Memory phase: weight/activation reads through the texture hierarchy,
        // writes to unified memory.
        let layout = Texture2p5dLayout::for_elements(
            (kernel.bytes_in / if kernel.fp16 { 2 } else { 4 }).max(1),
            if kernel.fp16 { 2 } else { 4 },
        );
        let read_bw = self.cache.effective_read_bandwidth(
            &layout,
            kernel.weight_layout,
            kernel.access_pattern,
            self.device.texture_bw,
            self.device.texture_cache_bw,
        );
        let write_bw = self.device.unified_bw;
        let memory_ms =
            (kernel.bytes_in as f64 / read_bw + kernel.bytes_out as f64 / write_bw) * 1e3;

        // Roofline with partial overlap: pipelined kernels overlap compute and
        // memory almost perfectly; naive kernels only partially.
        let overlap = if kernel.pipelined { 0.95 } else { 0.60 };
        let serial = compute_ms + memory_ms;
        let parallel = compute_ms.max(memory_ms);
        let mut sensitivity = kernel.category.overlap_sensitivity();
        if kernel.pipelined {
            // The branch-free pipelined template hides a good part of the
            // extra traffic behind arithmetic.
            sensitivity *= 0.55;
        }
        Roofline {
            base_ms: overlap * parallel + (1.0 - overlap) * serial,
            hidden_ms: (parallel - memory_ms).max(0.0),
            own_bytes: kernel.total_bytes().max(1) as f64,
            sensitivity,
            texture_bw: self.device.texture_bw,
            launch_overhead_ms: self.device.kernel_launch_overhead_ms,
        }
    }

    /// Relative latency increase caused by streaming `extra_load_bytes`
    /// concurrently, as a fraction (0.2 == 20% slower). This is the quantity
    /// plotted on Figure 2's thresholds.
    pub fn overlap_penalty(&self, kernel: &KernelDesc, extra_load_bytes: u64) -> f64 {
        self.roofline(kernel).penalty(extra_load_bytes)
    }

    /// Maximum number of extra bytes that can be streamed during this kernel
    /// while keeping the latency penalty below `max_penalty` (e.g. 0.2 for the
    /// 20% threshold). Found by bisection on the monotone penalty function;
    /// the kernel's roofline is priced once for all probes.
    pub fn max_extra_load_bytes(&self, kernel: &KernelDesc, max_penalty: f64) -> u64 {
        if max_penalty <= 0.0 {
            return 0;
        }
        let roofline = self.roofline(kernel);
        let mut lo = 0u64;
        let mut hi = kernel.total_bytes().max(1) * 16;
        if roofline.penalty(hi) <= max_penalty {
            return hi;
        }
        while hi - lo > 1024 {
            let mid = lo + (hi - lo) / 2;
            if roofline.penalty(mid) <= max_penalty {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The extra-load-independent terms of one kernel's latency, so that a
/// probe of another extra load evaluates only the interference term.
#[derive(Debug, Clone, Copy)]
struct Roofline {
    /// Latency of the compute and memory phases, without launch overhead.
    base_ms: f64,
    /// Compute time that can hide streamed bytes.
    hidden_ms: f64,
    /// The kernel's own traffic, at least one byte.
    own_bytes: f64,
    /// Slowdown per unit of extra load relative to the kernel's own traffic.
    sensitivity: f64,
    texture_bw: f64,
    launch_overhead_ms: f64,
}

impl Roofline {
    fn latency_ms(&self, extra_load_bytes: u64) -> f64 {
        let mut base = self.base_ms;
        // Interference from concurrently streamed weight chunks.
        if extra_load_bytes > 0 {
            let ratio = extra_load_bytes as f64 / self.own_bytes;
            base *= 1.0 + self.sensitivity * ratio;
            // The streamed bytes also have to physically move UM→TM; charge the
            // part that cannot be hidden behind compute.
            let stream_ms = extra_load_bytes as f64 / self.texture_bw * 1e3;
            base += (stream_ms - self.hidden_ms).max(0.0) * 0.15;
        }
        base + self.launch_overhead_ms
    }

    fn penalty(&self, extra_load_bytes: u64) -> f64 {
        let base = self.latency_ms(0);
        if base <= 0.0 {
            return 0.0;
        }
        self.latency_ms(extra_load_bytes) / base - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> KernelCostModel {
        KernelCostModel::new(DeviceSpec::oneplus_12())
    }

    fn matmul() -> KernelDesc {
        // 1024x1024x1024 GEMM in fp16: 2 GFLOP, 4 MiB in, 2 MiB out.
        KernelDesc::new(
            "matmul",
            KernelCategory::Reusable,
            2.0 * 1024.0 * 1024.0 * 1024.0,
            6 << 20,
            2 << 20,
        )
        .with_launch(LaunchDims::new([1024, 1024, 1], [8, 8, 1]))
    }

    fn layernorm() -> KernelDesc {
        KernelDesc::new(
            "layernorm",
            KernelCategory::Hierarchical,
            6.0e6,
            2 << 20,
            2 << 20,
        )
        .with_launch(LaunchDims::new([1024, 1, 1], [32, 1, 1]))
    }

    fn relu() -> KernelDesc {
        KernelDesc::new("relu", KernelCategory::Elemental, 1.0e6, 4 << 20, 4 << 20)
            .with_launch(LaunchDims::new([1 << 20, 1, 1], [64, 1, 1]))
    }

    #[test]
    fn latency_positive_and_includes_launch_overhead() {
        let m = model();
        for k in [matmul(), layernorm(), relu()] {
            let t = m.latency_ms(&k);
            assert!(t >= m.device().kernel_launch_overhead_ms, "{}: {t}", k.name);
        }
    }

    #[test]
    fn matmul_slowest_relu_fast() {
        let m = model();
        assert!(m.latency_ms(&matmul()) > m.latency_ms(&relu()));
    }

    #[test]
    fn extra_load_monotonically_increases_latency() {
        let m = model();
        let k = matmul();
        let mut prev = m.latency_ms(&k);
        for extra in [1u64 << 20, 4 << 20, 16 << 20, 64 << 20] {
            let t = m.latency_with_extra_load_ms(&k, extra);
            assert!(t >= prev, "latency should not decrease with load");
            prev = t;
        }
    }

    #[test]
    fn hierarchical_ops_most_sensitive_to_overlap() {
        // Figure 2: at equal *relative* extra volume, Softmax/LayerNorm blow up
        // far faster than element-wise or MatMul kernels.
        let m = model();
        let ln = layernorm();
        let rl = relu();
        let mm = matmul();
        let penalty = |k: &KernelDesc| m.overlap_penalty(k, k.total_bytes());
        assert!(penalty(&ln) > penalty(&mm));
        assert!(penalty(&mm) > penalty(&rl));
    }

    #[test]
    fn elemental_tolerates_300_percent() {
        // Figure 2 / Section 4.2: element-wise kernels have tiny baseline
        // latency, so even streaming 3x their own input adds only a small
        // *absolute* amount of time — which is why the paper grants them a
        // 300% load-capacity threshold.
        let m = model();
        let k = relu();
        let increase = m.latency_with_extra_load_ms(&k, 3 * k.total_bytes()) - m.latency_ms(&k);
        assert!(increase < 0.3, "absolute increase {increase} ms");
    }

    #[test]
    fn hierarchical_exceeds_threshold_immediately() {
        let m = model();
        let k = layernorm();
        let p = m.overlap_penalty(&k, k.total_bytes() / 2);
        assert!(p > 0.3, "penalty {p}");
    }

    #[test]
    fn pipelined_kernels_absorb_more_load() {
        let m = model();
        let naive = matmul();
        let piped = matmul().pipelined(true);
        let extra = 2 * naive.total_bytes();
        assert!(
            m.overlap_penalty(&piped, extra) < m.overlap_penalty(&naive, extra),
            "pipelined kernel should hide streamed loads better"
        );
    }

    #[test]
    fn divergence_penalty_slows_kernel() {
        let m = model();
        let clean = matmul();
        let diverged = matmul().with_divergence_penalty(0.4);
        assert!(m.latency_ms(&diverged) > m.latency_ms(&clean));
    }

    #[test]
    fn linear_buffer_layout_is_much_slower_for_memory_bound_ops() {
        // A read-heavy memory-bound kernel (weights dominate traffic) suffers
        // badly when weights sit in a flat unified-memory buffer instead of a
        // 2.5D texture — the mechanism behind ExecuTorch's slowdowns.
        let m = model();
        let read_heavy = KernelDesc::new(
            "gather",
            KernelCategory::Elemental,
            1.0e6,
            16 << 20,
            1 << 20,
        )
        .with_launch(LaunchDims::new([1 << 20, 1, 1], [64, 1, 1]));
        let lin = read_heavy
            .clone()
            .with_weight_layout(WeightLayout::LinearBuffer);
        let ratio = m.latency_ms(&lin) / m.latency_ms(&read_heavy);
        assert!(ratio > 1.5, "ratio {ratio}");
    }

    #[test]
    fn max_extra_load_respects_threshold() {
        let m = model();
        let k = matmul();
        let cap = m.max_extra_load_bytes(&k, 0.20);
        assert!(cap > 0);
        let p = m.overlap_penalty(&k, cap);
        assert!(p <= 0.21, "penalty at cap {p}");
        assert_eq!(m.max_extra_load_bytes(&k, 0.0), 0);
    }

    #[test]
    fn capacity_ordering_matches_table_5() {
        // Elemental tolerance > reusable > hierarchical, per own-volume ratio.
        let m = model();
        let cap_ratio =
            |k: &KernelDesc| m.max_extra_load_bytes(k, 0.25) as f64 / k.total_bytes() as f64;
        assert!(cap_ratio(&relu()) > cap_ratio(&matmul()));
        assert!(cap_ratio(&matmul()) > cap_ratio(&layernorm()));
    }

    #[test]
    fn occupancy_and_work_groups() {
        let d = LaunchDims::new([100, 1, 1], [0, 1, 1]);
        assert_eq!(d.local_items(), 1);
        assert_eq!(d.work_groups(), 100);
        let full = LaunchDims::new([1024, 1, 1], [64, 1, 1]);
        assert!((full.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fp32_slower_than_fp16_for_compute_bound() {
        let m = model();
        let k16 = matmul();
        let k32 = matmul().with_fp16(false);
        assert!(m.latency_ms(&k32) > m.latency_ms(&k16));
    }

    #[test]
    fn arithmetic_intensity() {
        let k = matmul();
        assert!(k.arithmetic_intensity() > 100.0);
        let zero = KernelDesc::new("z", KernelCategory::Elemental, 1.0, 0, 0);
        assert!(zero.arithmetic_intensity().is_infinite());
    }
}
