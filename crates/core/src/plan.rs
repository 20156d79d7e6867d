//! The overlap plan: the output of OPG / LC-OPG.
//!
//! An [`OverlapPlan`] records, for every weight of the model,
//!
//! * whether it belongs to the preload set `W` (loaded and transformed before
//!   execution starts),
//! * otherwise, at which kernel its disk → unified-memory load is issued
//!   (`z_w`) and how many of its chunks are transformed into texture memory at
//!   each kernel preceding its consumer (`x_{w,ℓ}`),
//!
//! plus enough aggregate accessors for the executor and for validation of the
//! paper's constraints (C0 completeness, C1 precedence, C2 peak memory).

use flashmem_graph::{NodeId, WeightInventory};
use serde::{Deserialize, Serialize};

/// Chunks of one weight transformed during one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkAssignment {
    /// The node owning the weight (its consumer).
    pub weight: NodeId,
    /// Number of chunks transformed at this kernel.
    pub chunks: u64,
    /// Bytes those chunks represent.
    pub bytes: u64,
}

/// Per-weight scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightSchedule {
    /// The node owning the weight.
    pub weight: NodeId,
    /// Index (in the kernel/fusion-group execution order) of the kernel that
    /// consumes this weight (`i_w`).
    pub consumer_kernel: usize,
    /// Kernel index at which the disk → unified-memory load is issued
    /// (`z_w`). For preloaded weights this is 0 by convention.
    pub disk_load_kernel: usize,
    /// True if the weight is a member of the preload set `W`.
    pub preloaded: bool,
    /// Total size of the weight in bytes.
    pub bytes: u64,
}

impl WeightSchedule {
    /// Loading distance `i_w − z_w` (0 for preloaded weights).
    pub fn loading_distance(&self) -> usize {
        if self.preloaded {
            0
        } else {
            self.consumer_kernel.saturating_sub(self.disk_load_kernel)
        }
    }
}

/// Violations detected by [`OverlapPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A streamed weight's chunk assignments do not cover the weight (C0).
    IncompleteAllocation {
        /// The offending weight.
        weight: NodeId,
        /// Chunks assigned across kernels.
        assigned: u64,
        /// Chunks required to cover the weight.
        required: u64,
    },
    /// Chunks were assigned at or after the consuming kernel (C1).
    LateAssignment {
        /// The offending weight.
        weight: NodeId,
        /// The kernel index of the too-late assignment.
        kernel: usize,
    },
    /// Chunks were assigned before the weight's disk load was issued.
    AssignmentBeforeLoad {
        /// The offending weight.
        weight: NodeId,
        /// The kernel index of the premature assignment.
        kernel: usize,
    },
    /// The plan's in-flight streamed memory exceeds the configured budget (C2).
    PeakExceeded {
        /// Kernel index at which the violation occurs.
        kernel: usize,
        /// In-flight bytes at that kernel.
        inflight: u64,
        /// The configured `M_peak`.
        budget: u64,
    },
    /// The plan does not mention a weight present in the inventory.
    MissingWeight {
        /// The weight absent from the plan.
        weight: NodeId,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::IncompleteAllocation {
                weight,
                assigned,
                required,
            } => write!(
                f,
                "weight {weight} has {assigned} of {required} chunks scheduled"
            ),
            PlanError::LateAssignment { weight, kernel } => {
                write!(f, "weight {weight} has chunks scheduled at kernel {kernel}, not before its consumer")
            }
            PlanError::AssignmentBeforeLoad { weight, kernel } => {
                write!(
                    f,
                    "weight {weight} transforms chunks at kernel {kernel} before its disk load"
                )
            }
            PlanError::PeakExceeded {
                kernel,
                inflight,
                budget,
            } => write!(
                f,
                "in-flight streamed memory {inflight} exceeds budget {budget} at kernel {kernel}"
            ),
            PlanError::MissingWeight { weight } => {
                write!(f, "weight {weight} is missing from the plan")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The complete overlap plan for one model on one device configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlapPlan {
    chunk_bytes: u64,
    num_kernels: usize,
    weights: Vec<WeightSchedule>,
    per_kernel: Vec<Vec<ChunkAssignment>>,
}

impl OverlapPlan {
    /// Create an empty plan for `num_kernels` kernels with chunk size
    /// `chunk_bytes`.
    pub fn new(num_kernels: usize, chunk_bytes: u64) -> Self {
        OverlapPlan {
            chunk_bytes: chunk_bytes.max(1),
            num_kernels,
            weights: Vec::new(),
            per_kernel: vec![Vec::new(); num_kernels],
        }
    }

    /// A plan that preloads every weight — what a conventional framework does,
    /// and FlashMem's fallback when OPG is disabled.
    pub fn full_preload(
        num_kernels: usize,
        chunk_bytes: u64,
        inventory: &WeightInventory,
        consumer_kernel_of: impl Fn(NodeId) -> usize,
    ) -> Self {
        let mut plan = OverlapPlan::new(num_kernels, chunk_bytes);
        for w in inventory.weights() {
            plan.add_preload(w.consumer, consumer_kernel_of(w.consumer), w.bytes);
        }
        plan
    }

    /// Chunk size `S` used by this plan.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Number of kernels the plan covers.
    pub fn num_kernels(&self) -> usize {
        self.num_kernels
    }

    /// Per-weight schedules.
    pub fn weights(&self) -> &[WeightSchedule] {
        &self.weights
    }

    /// The schedule of a specific weight.
    pub fn schedule_for(&self, weight: NodeId) -> Option<&WeightSchedule> {
        self.weights.iter().find(|w| w.weight == weight)
    }

    /// Record that `weight` (consumed by kernel `consumer_kernel`, `bytes`
    /// large) is preloaded before execution.
    pub fn add_preload(&mut self, weight: NodeId, consumer_kernel: usize, bytes: u64) {
        self.weights.push(WeightSchedule {
            weight,
            consumer_kernel,
            disk_load_kernel: 0,
            preloaded: true,
            bytes,
        });
    }

    /// Record a streamed weight: disk load issued at `disk_load_kernel`, with
    /// `assignments` giving `(kernel index, chunks)` pairs for transformation.
    pub fn add_streamed(
        &mut self,
        weight: NodeId,
        consumer_kernel: usize,
        disk_load_kernel: usize,
        bytes: u64,
        assignments: &[(usize, u64)],
    ) {
        self.weights.push(WeightSchedule {
            weight,
            consumer_kernel,
            disk_load_kernel,
            preloaded: false,
            bytes,
        });
        let mut remaining = bytes;
        // The final chunk of a weight may be short; attribute bytes
        // proportionally, giving the remainder to the last assignment.
        let last_kernel = assignments
            .iter()
            .filter(|(_, c)| *c > 0)
            .map(|(k, _)| *k)
            .max();
        for (kernel, chunks) in assignments {
            if *chunks == 0 {
                continue;
            }
            let bytes_here = if Some(*kernel) == last_kernel {
                remaining
            } else {
                (self.chunk_bytes * chunks).min(remaining)
            };
            remaining -= bytes_here.min(remaining);
            if let Some(slot) = self.per_kernel.get_mut(*kernel) {
                slot.push(ChunkAssignment {
                    weight,
                    chunks: *chunks,
                    bytes: bytes_here,
                });
            }
        }
    }

    /// Chunk assignments transformed during kernel `kernel`.
    pub fn assignments_at(&self, kernel: usize) -> &[ChunkAssignment] {
        self.per_kernel
            .get(kernel)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Extra bytes streamed during kernel `kernel` (the kernel's
    /// `extra_load_bytes` in the simulator).
    pub fn extra_load_bytes_at(&self, kernel: usize) -> u64 {
        self.assignments_at(kernel).iter().map(|a| a.bytes).sum()
    }

    /// Total bytes of preloaded weights (`|W|` in bytes).
    pub fn preload_bytes(&self) -> u64 {
        self.weights
            .iter()
            .filter(|w| w.preloaded)
            .map(|w| w.bytes)
            .sum()
    }

    /// Total bytes of streamed weights.
    pub fn streamed_bytes(&self) -> u64 {
        self.weights
            .iter()
            .filter(|w| !w.preloaded)
            .map(|w| w.bytes)
            .sum()
    }

    /// Total weight bytes covered by the plan.
    pub fn total_weight_bytes(&self) -> u64 {
        self.weights.iter().map(|w| w.bytes).sum()
    }

    /// Fraction of weight bytes that are streamed rather than preloaded —
    /// the "overlap of an average of 49.3% of the weights" statistic of
    /// Section 5.4.
    pub fn streamed_fraction(&self) -> f64 {
        let total = self.total_weight_bytes();
        if total == 0 {
            return 0.0;
        }
        self.streamed_bytes() as f64 / total as f64
    }

    /// Number of preloaded weights.
    pub fn preload_count(&self) -> usize {
        self.weights.iter().filter(|w| w.preloaded).count()
    }

    /// Mean loading distance over streamed weights.
    pub fn mean_loading_distance(&self) -> f64 {
        let streamed: Vec<&WeightSchedule> = self.weights.iter().filter(|w| !w.preloaded).collect();
        if streamed.is_empty() {
            return 0.0;
        }
        streamed
            .iter()
            .map(|w| w.loading_distance() as f64)
            .sum::<f64>()
            / streamed.len() as f64
    }

    /// In-flight streamed-weight bytes at each kernel: bytes already
    /// transformed (or being transformed) but not yet consumed. This is the
    /// quantity constrained by `M_peak` (C2).
    pub fn inflight_profile(&self) -> Vec<u64> {
        // Difference-array sweep: each assignment occupies memory from its
        // transform kernel (inclusive) until the weight's consumer kernel
        // (exclusive).
        let consumer_of: std::collections::HashMap<NodeId, usize> = self
            .weights
            .iter()
            .map(|w| (w.weight, w.consumer_kernel))
            .collect();
        let mut delta = vec![0i64; self.num_kernels + 1];
        for (kernel, assignments) in self.per_kernel.iter().enumerate() {
            for a in assignments {
                let Some(&consumer) = consumer_of.get(&a.weight) else {
                    continue;
                };
                if kernel >= consumer {
                    continue;
                }
                delta[kernel] += a.bytes as i64;
                delta[consumer.min(self.num_kernels)] -= a.bytes as i64;
            }
        }
        let mut profile = vec![0u64; self.num_kernels];
        let mut running = 0i64;
        for (idx, slot) in profile.iter_mut().enumerate() {
            running += delta[idx];
            *slot = running.max(0) as u64;
        }
        profile
    }

    /// Maximum in-flight streamed bytes across kernels.
    pub fn peak_inflight_bytes(&self) -> u64 {
        self.inflight_profile().into_iter().max().unwrap_or(0)
    }

    /// Validate the plan against the weight inventory and the mapping from
    /// weight-consumer nodes to kernel indices.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`PlanError`]:
    /// completeness (C0), precedence (C1), load-before-transform ordering and
    /// the `M_peak` budget (C2) when `m_peak` is provided.
    pub fn validate(
        &self,
        inventory: &WeightInventory,
        m_peak: Option<u64>,
    ) -> Result<(), PlanError> {
        for info in inventory.weights() {
            let Some(schedule) = self.schedule_for(info.consumer) else {
                return Err(PlanError::MissingWeight {
                    weight: info.consumer,
                });
            };
            if schedule.preloaded {
                continue;
            }
            let required = info.chunk_count(self.chunk_bytes);
            let mut assigned = 0u64;
            for kernel in 0..self.num_kernels {
                for a in self.assignments_at(kernel) {
                    if a.weight != info.consumer {
                        continue;
                    }
                    if kernel >= schedule.consumer_kernel {
                        return Err(PlanError::LateAssignment {
                            weight: info.consumer,
                            kernel,
                        });
                    }
                    if kernel < schedule.disk_load_kernel {
                        return Err(PlanError::AssignmentBeforeLoad {
                            weight: info.consumer,
                            kernel,
                        });
                    }
                    assigned += a.chunks;
                }
            }
            if assigned < required {
                return Err(PlanError::IncompleteAllocation {
                    weight: info.consumer,
                    assigned,
                    required,
                });
            }
        }
        if let Some(budget) = m_peak {
            let profile = self.inflight_profile();
            for (kernel, inflight) in profile.iter().enumerate() {
                if *inflight > budget {
                    return Err(PlanError::PeakExceeded {
                        kernel,
                        inflight: *inflight,
                        budget,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::{GraphBuilder, OpKind};

    fn inventory() -> (flashmem_graph::Graph, WeightInventory) {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[64, 512]);
        let m1 = b.matmul("fc1", x, 512);
        let g = b.unary("gelu", OpKind::GeLU, m1);
        let m2 = b.matmul("fc2", g, 512);
        b.softmax("sm", m2);
        let graph = b.build();
        let inv = WeightInventory::with_chunk_size(&graph, 64 * 1024);
        (graph, inv)
    }

    #[test]
    fn full_preload_plan_validates_and_streams_nothing() {
        let (graph, inv) = inventory();
        let plan = OverlapPlan::full_preload(graph.len(), inv.chunk_bytes(), &inv, |n| n.0);
        plan.validate(&inv, Some(0)).unwrap();
        assert_eq!(plan.streamed_bytes(), 0);
        assert_eq!(plan.streamed_fraction(), 0.0);
        assert_eq!(plan.preload_bytes(), inv.total_bytes());
        assert_eq!(plan.peak_inflight_bytes(), 0);
    }

    #[test]
    fn streamed_plan_accounting() {
        let (graph, inv) = inventory();
        let fc2 = &inv.weights()[1];
        let chunks = fc2.chunk_count(inv.chunk_bytes());
        let mut plan = OverlapPlan::new(graph.len(), inv.chunk_bytes());
        // Preload fc1; stream fc2 across kernels 1 and 2 (consumer is node 3).
        plan.add_preload(inv.weights()[0].consumer, 1, inv.weights()[0].bytes);
        plan.add_streamed(
            fc2.consumer,
            3,
            1,
            fc2.bytes,
            &[(1, chunks / 2), (2, chunks - chunks / 2)],
        );
        plan.validate(&inv, None).unwrap();
        assert_eq!(plan.streamed_bytes(), fc2.bytes);
        assert_eq!(
            plan.extra_load_bytes_at(1) + plan.extra_load_bytes_at(2),
            fc2.bytes
        );
        assert!(plan.streamed_fraction() > 0.0 && plan.streamed_fraction() < 1.0);
        assert_eq!(
            plan.schedule_for(fc2.consumer).unwrap().loading_distance(),
            2
        );
        // In-flight peaks at the full weight right before kernel 3.
        assert_eq!(plan.peak_inflight_bytes(), fc2.bytes);
    }

    #[test]
    fn incomplete_allocation_detected() {
        let (graph, inv) = inventory();
        let fc1 = &inv.weights()[0];
        let mut plan = OverlapPlan::new(graph.len(), inv.chunk_bytes());
        plan.add_streamed(fc1.consumer, 1, 0, fc1.bytes, &[(0, 1)]);
        // fc2 missing entirely → MissingWeight reported first for fc2? The
        // iteration follows inventory order, so fc1's incompleteness comes
        // first.
        let err = plan.validate(&inv, None).unwrap_err();
        assert!(matches!(err, PlanError::IncompleteAllocation { .. }));
    }

    #[test]
    fn late_assignment_detected() {
        let (graph, inv) = inventory();
        let fc1 = &inv.weights()[0];
        let chunks = fc1.chunk_count(inv.chunk_bytes());
        let mut plan = OverlapPlan::new(graph.len(), inv.chunk_bytes());
        plan.add_streamed(fc1.consumer, 1, 0, fc1.bytes, &[(2, chunks)]);
        plan.add_preload(inv.weights()[1].consumer, 3, inv.weights()[1].bytes);
        let err = plan.validate(&inv, None).unwrap_err();
        assert!(matches!(err, PlanError::LateAssignment { .. }));
    }

    #[test]
    fn assignment_before_disk_load_detected() {
        let (graph, inv) = inventory();
        let fc2 = &inv.weights()[1];
        let chunks = fc2.chunk_count(inv.chunk_bytes());
        let mut plan = OverlapPlan::new(graph.len(), inv.chunk_bytes());
        plan.add_preload(inv.weights()[0].consumer, 1, inv.weights()[0].bytes);
        plan.add_streamed(fc2.consumer, 3, 2, fc2.bytes, &[(1, chunks)]);
        let err = plan.validate(&inv, None).unwrap_err();
        assert!(matches!(err, PlanError::AssignmentBeforeLoad { .. }));
    }

    #[test]
    fn missing_weight_detected() {
        let (graph, inv) = inventory();
        let plan = OverlapPlan::new(graph.len(), inv.chunk_bytes());
        let err = plan.validate(&inv, None).unwrap_err();
        assert!(matches!(err, PlanError::MissingWeight { .. }));
    }

    #[test]
    fn peak_budget_violation_detected() {
        let (graph, inv) = inventory();
        let fc1 = &inv.weights()[0];
        let fc2 = &inv.weights()[1];
        let mut plan = OverlapPlan::new(graph.len(), inv.chunk_bytes());
        plan.add_streamed(
            fc1.consumer,
            1,
            0,
            fc1.bytes,
            &[(0, fc1.chunk_count(inv.chunk_bytes()))],
        );
        plan.add_streamed(
            fc2.consumer,
            3,
            0,
            fc2.bytes,
            &[(0, fc2.chunk_count(inv.chunk_bytes()))],
        );
        // Both weights in flight at kernel 0 → exceeds a 1-byte budget.
        let err = plan.validate(&inv, Some(1)).unwrap_err();
        assert!(matches!(err, PlanError::PeakExceeded { .. }));
        // A generous budget passes.
        plan.validate(&inv, Some(inv.total_bytes())).unwrap();
    }

    #[test]
    fn mean_loading_distance() {
        let (graph, inv) = inventory();
        let fc1 = &inv.weights()[0];
        let fc2 = &inv.weights()[1];
        let mut plan = OverlapPlan::new(graph.len(), inv.chunk_bytes());
        plan.add_streamed(
            fc1.consumer,
            1,
            0,
            fc1.bytes,
            &[(0, fc1.chunk_count(inv.chunk_bytes()))],
        );
        plan.add_streamed(
            fc2.consumer,
            3,
            1,
            fc2.bytes,
            &[(2, fc2.chunk_count(inv.chunk_bytes()))],
        );
        assert!((plan.mean_loading_distance() - 1.5).abs() < 1e-9);
    }
}
