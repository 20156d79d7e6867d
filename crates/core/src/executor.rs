//! The streaming executor: turning a graph + fusion plan + overlap plan into
//! a simulator command stream (the "Online Execution" half of Figure 3).
//!
//! * Preloaded weights (`W`) are loaded from disk, transformed into 2.5D
//!   texture memory by dedicated data-loading kernels *before* the first
//!   compute kernel, and stay resident for the whole run.
//! * Streamed weights have their disk → unified-memory load issued on the
//!   transfer queue at `z_w`, their chunks folded into earlier kernels as
//!   `extra_load_bytes` (the pipelined loading of Section 4.4), and their
//!   memory released right after the consuming kernel — which is where
//!   FlashMem's memory savings come from.

use flashmem_gpu_sim::bandwidth::MemoryTier;
use flashmem_gpu_sim::engine::{
    Command, CommandId, CommandStream, GpuSimulator, QueueKind, SimConfig,
};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{FusionPlan, Graph, NodeId};
use flashmem_profiler::{kernel_for_group, LoweringOptions};

use crate::kernel_rewrite::KernelRewriter;
use crate::plan::OverlapPlan;

/// Fixed memory overhead charged for the framework runtime itself (graph
/// metadata, command buffers, JIT caches). Calibrated against the smallest
/// footprints reported in Table 8 (ResNet-class models sit near 80–150 MB on
/// every framework even though their weights are ~50 MB).
pub const RUNTIME_OVERHEAD_BYTES: u64 = 48 * 1024 * 1024;

/// The streaming executor.
#[derive(Debug, Clone)]
pub struct StreamingExecutor {
    device: DeviceSpec,
    options: LoweringOptions,
    runtime_overhead_bytes: u64,
    activation_slots: u64,
    embedded_transforms: bool,
}

/// Fixed cost (in milliseconds) of launching a dedicated layout-transform
/// kernel for a streamed chunk group when transforms are *not* embedded into
/// the consuming kernels (i.e. without Section 4.4's kernel rewriting).
const SEPARATE_TRANSFORM_OVERHEAD_MS: f64 = 0.35;

impl StreamingExecutor {
    /// Create an executor for `device` with the given kernel lowering options.
    pub fn new(device: DeviceSpec, options: LoweringOptions) -> Self {
        StreamingExecutor {
            device,
            options,
            runtime_overhead_bytes: RUNTIME_OVERHEAD_BYTES,
            activation_slots: 2,
            embedded_transforms: true,
        }
    }

    /// The executor a configuration implies: kernels lowered as
    /// [`KernelRewriter::for_kernel_rewriting`] says and, with rewriting on,
    /// streamed-chunk transformations embedded into the rewritten kernels.
    /// Without rewriting this is the executor the naive overlap strawmen
    /// share.
    pub fn for_kernel_rewriting(device: DeviceSpec, enabled: bool) -> Self {
        let options = KernelRewriter::for_kernel_rewriting(enabled).lowering_options();
        StreamingExecutor::new(device, options).with_embedded_transforms(enabled)
    }

    /// Override the fixed runtime overhead (useful for calibration tests).
    pub fn with_runtime_overhead(mut self, bytes: u64) -> Self {
        self.runtime_overhead_bytes = bytes;
        self
    }

    /// Choose whether streamed-chunk transformations are embedded into the
    /// consuming kernels (the branch-free pipelined templates of Section 4.4,
    /// default) or issued as dedicated transform kernels on the compute queue
    /// (what naive streaming without kernel rewriting has to do).
    pub fn with_embedded_transforms(mut self, embedded: bool) -> Self {
        self.embedded_transforms = embedded;
        self
    }

    /// The device this executor targets.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Compile the execution into a simulator command stream.
    ///
    /// Only transfer, transform and kernel commands carry labels, the names
    /// their trace spans show; alloc, free and barrier commands carry none.
    pub fn compile(&self, graph: &Graph, fusion: &FusionPlan, plan: &OverlapPlan) -> CommandStream {
        let mut stream = CommandStream::new();
        let transform_factor = self
            .options
            .weight_layout
            .transform_traffic_factor()
            .max(1.0);
        // A dedicated transform kernel pays a fixed launch/sync cost on top
        // of the data traversal, charged as extra bytes.
        let overhead_bytes =
            (SEPARATE_TRANSFORM_OVERHEAD_MS * 1e-3 * self.device.texture_bw) as u64;

        // Framework runtime overhead + activation working set, held for the
        // whole run.
        stream.push(Command::alloc(
            MemoryTier::UnifiedMemory,
            self.runtime_overhead_bytes,
            [],
        ));
        let activation_bytes = graph.max_activation_bytes() * self.activation_slots;
        stream.push(Command::alloc(
            MemoryTier::UnifiedMemory,
            activation_bytes.max(1),
            [],
        ));

        // ------------------------------------------------------------------
        // Initialization: preload set W.
        // ------------------------------------------------------------------
        let mut init_barrier_deps = Vec::new();
        for schedule in plan.weights().iter().filter(|w| w.preloaded) {
            let name = weight_label(graph, schedule.weight);
            let um = stream.push(Command::alloc(
                MemoryTier::UnifiedMemory,
                schedule.bytes,
                [],
            ));
            let load = stream.push(Command::transfer(
                format!("{name}.load"),
                schedule.bytes,
                MemoryTier::Disk,
                MemoryTier::UnifiedMemory,
                [um],
            ));
            let tm = stream.push(Command::alloc(
                MemoryTier::TextureMemory,
                schedule.bytes,
                [load],
            ));
            // Preloaded weights are transformed by dedicated data-loading
            // kernels before execution.
            let transform = stream.push(Command::transform(
                format!("{name}.transform"),
                schedule.bytes + overhead_bytes,
                transform_factor,
                QueueKind::Compute,
                [tm],
            ));
            // The unified-memory staging copy is dropped once the texture copy
            // exists; the texture copy persists for the whole run.
            init_barrier_deps.push(stream.push(Command::free(um, [transform])));
        }
        let init_done = stream.push(Command::barrier(init_barrier_deps));

        // ------------------------------------------------------------------
        // Streamed weights: disk loads on the transfer queue.
        // ------------------------------------------------------------------
        // Per-node lookups, indexed by `NodeId`: every chunk assignment names
        // a weight with a schedule, and every fusion group a graph node.
        let slots = plan
            .weights()
            .iter()
            .map(|w| w.weight.0 + 1)
            .fold(graph.len(), usize::max);
        // The consumer kernel of each weight's first schedule.
        let mut consumer_of: Vec<Option<usize>> = vec![None; slots];
        for schedule in plan.weights().iter().rev() {
            consumer_of[schedule.weight.0] = Some(schedule.consumer_kernel);
        }
        // The disk load and unified-memory staging allocation of each
        // streamed weight, and its label stem when repacks need one.
        let mut load_of: Vec<Option<CommandId>> = vec![None; slots];
        let mut um_of: Vec<Option<CommandId>> = vec![None; slots];
        let mut stem_of: Vec<Option<String>> = vec![None; slots];
        let mut streamed: Vec<&crate::plan::WeightSchedule> =
            plan.weights().iter().filter(|w| !w.preloaded).collect();
        // Issue loads in the order their windows open so the transfer queue
        // works ahead of compute exactly as the plan intends.
        streamed.sort_by_key(|w| (w.disk_load_kernel, w.consumer_kernel));

        // We interleave: walk kernels in order; before each kernel, issue the
        // disk loads whose z_w equals this kernel index, then the kernel
        // itself with its extra streamed bytes.
        let mut load_cursor = 0usize;
        let mut previous = init_done;
        // Texture chunks to free once their consumer kernel has run, by
        // consumer; chunks whose consumer never runs after them are freed
        // after the last kernel, in allocation order.
        let mut frees_after: Vec<Vec<CommandId>> = vec![Vec::new(); fusion.len()];
        let mut orphans: Vec<CommandId> = Vec::new();

        for (kernel_idx, group) in fusion.groups().iter().enumerate() {
            // Disk loads scheduled to start at this kernel (`z_w`): both the
            // staging allocation and the transfer wait for execution to reach
            // the scheduled kernel, so memory occupancy and prefetch depth
            // track the plan rather than racing ahead at initialization time.
            while load_cursor < streamed.len()
                && streamed[load_cursor].disk_load_kernel <= kernel_idx
            {
                let schedule = streamed[load_cursor];
                let weight = schedule.weight.0;
                let name = weight_label(graph, schedule.weight);
                let um = stream.push(Command::alloc(
                    MemoryTier::UnifiedMemory,
                    schedule.bytes,
                    [previous],
                ));
                load_of[weight] = Some(stream.push(Command::transfer(
                    format!("{name}.stream_load"),
                    schedule.bytes,
                    MemoryTier::Disk,
                    MemoryTier::UnifiedMemory,
                    [um],
                )));
                um_of[weight] = Some(um);
                if !self.embedded_transforms {
                    stem_of[weight] = Some(name);
                }
                load_cursor += 1;
            }

            // Texture allocations for chunks transformed during this kernel.
            let extra_bytes = if self.embedded_transforms {
                plan.extra_load_bytes_at(kernel_idx)
            } else {
                0
            };
            let mut deps = vec![previous];
            for assignment in plan.assignments_at(kernel_idx) {
                let weight = assignment.weight.0;
                let tm = stream.push(Command::alloc(
                    MemoryTier::TextureMemory,
                    assignment.bytes,
                    [],
                ));
                if !self.embedded_transforms {
                    // Dedicated repack kernel on the compute queue: pays the
                    // data traversal plus a fixed launch/sync overhead and
                    // serialises with the real kernels (no rewriting). It
                    // waits for the weight's load. An embedded chunk
                    // transform needs only the *prefix* of the weight that
                    // has already arrived in unified memory; the plan's C1
                    // constraint guarantees the load was issued at or before
                    // this kernel, so a rewritten kernel is not blocked on
                    // the full transfer. Only dedicated repack kernels and
                    // the final consumer synchronise with it.
                    let chunk_deps: Vec<CommandId> =
                        load_of[weight].into_iter().chain([previous]).collect();
                    let name = stem_of[weight]
                        .get_or_insert_with(|| weight_label(graph, assignment.weight));
                    let transform = stream.push(Command::transform(
                        format!("{name}.repack@{kernel_idx}"),
                        assignment.bytes + overhead_bytes,
                        transform_factor,
                        QueueKind::Compute,
                        chunk_deps,
                    ));
                    deps.push(transform);
                }
                match consumer_of[weight].unwrap_or(kernel_idx) {
                    consumer if consumer >= kernel_idx && consumer < fusion.len() => {
                        frees_after[consumer].push(tm);
                    }
                    _ => orphans.push(tm),
                }
            }

            // Weights consumed by this kernel must have finished loading.
            deps.extend(group.nodes.iter().filter_map(|node| load_of[node.0]));

            let kernel = kernel_for_group(graph, group, &self.options);
            let cmd = stream.push(Command::kernel(
                kernel.name.clone(),
                kernel,
                extra_bytes,
                deps,
            ));
            previous = cmd;

            // Release texture chunks whose consumer just ran, and the
            // unified-memory staging copies of weights consumed by this
            // kernel.
            for tm in std::mem::take(&mut frees_after[kernel_idx]) {
                stream.push(Command::free(tm, [cmd]));
            }
            for um in group.nodes.iter().filter_map(|node| um_of[node.0]) {
                stream.push(Command::free(um, [cmd]));
            }
        }

        // Safety net: release anything whose consumer never ran (should not
        // happen for valid plans, but keeps the accounting clean).
        for tm in orphans {
            stream.push(Command::free(tm, [previous]));
        }

        stream
    }

    /// Execute the compiled stream on a fresh simulator.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, most importantly out-of-memory conditions
    /// on constrained devices.
    pub fn execute(
        &self,
        graph: &Graph,
        fusion: &FusionPlan,
        plan: &OverlapPlan,
    ) -> SimResult<flashmem_gpu_sim::engine::ExecutionOutcome> {
        let stream = self.compile(graph, fusion, plan);
        let mut sim = GpuSimulator::new(self.device.clone(), SimConfig::default());
        sim.execute(stream)
    }

    /// Execute against an existing memory tracker (multi-model scenarios).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn execute_with_tracker(
        &self,
        graph: &Graph,
        fusion: &FusionPlan,
        plan: &OverlapPlan,
        tracker: &mut MemoryTracker,
    ) -> SimResult<flashmem_gpu_sim::engine::ExecutionOutcome> {
        let stream = self.compile(graph, fusion, plan);
        let mut sim = GpuSimulator::new(self.device.clone(), SimConfig::default());
        sim.execute_with_tracker(stream, tracker)
    }
}

fn weight_label(graph: &Graph, node: NodeId) -> String {
    graph
        .node(node)
        .map(|n| format!("{}.weight", n.name))
        .unwrap_or_else(|| format!("weight_{}", node.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlashMemConfig;
    use crate::lc_opg::{LcOpgSolver, PlannerMode};
    use flashmem_graph::{ModelZoo, WeightInventory};

    fn plan_for(graph: &Graph, mode: PlannerMode) -> (FusionPlan, OverlapPlan) {
        let config = FlashMemConfig::memory_priority();
        let fusion = FusionPlan::default_fusion(graph);
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), config).with_mode(mode);
        let capacities = flashmem_profiler::CapacityProfiler::new(DeviceSpec::oneplus_12())
            .with_options(LoweringOptions::flashmem())
            .capacities(graph, &fusion);
        let (plan, _) = solver.plan_with(graph, &fusion, &capacities);
        (fusion, plan)
    }

    #[test]
    fn compiled_stream_validates() {
        let graph = ModelZoo::gptneo_small().build();
        let (fusion, plan) = plan_for(&graph, PlannerMode::Hybrid);
        let exec = StreamingExecutor::new(DeviceSpec::oneplus_12(), LoweringOptions::flashmem());
        let stream = exec.compile(&graph, &fusion, &plan);
        stream.validate().unwrap();
        assert!(stream.len() > fusion.len());
    }

    #[test]
    fn streamed_execution_uses_less_memory_than_full_preload() {
        let graph = ModelZoo::vit().build();
        let exec = StreamingExecutor::new(DeviceSpec::oneplus_12(), LoweringOptions::flashmem());

        let (fusion_s, plan_s) = plan_for(&graph, PlannerMode::Hybrid);
        let streamed = exec.execute(&graph, &fusion_s, &plan_s).unwrap();

        let (fusion_p, plan_p) = plan_for(&graph, PlannerMode::FullPreload);
        let preloaded = exec.execute(&graph, &fusion_p, &plan_p).unwrap();

        assert!(
            streamed.average_memory_bytes < preloaded.average_memory_bytes,
            "streamed {} vs preloaded {}",
            streamed.average_memory_bytes,
            preloaded.average_memory_bytes
        );
        assert!(streamed.peak_memory_bytes <= preloaded.peak_memory_bytes);
    }

    #[test]
    fn streamed_execution_is_faster_than_full_preload_integrated() {
        // FlashMem's headline claim: integrated (init + exec) latency drops
        // because loading overlaps execution instead of preceding it.
        let graph = ModelZoo::vit().build();
        let exec = StreamingExecutor::new(DeviceSpec::oneplus_12(), LoweringOptions::flashmem());
        let (fusion_s, plan_s) = plan_for(&graph, PlannerMode::Hybrid);
        let (fusion_p, plan_p) = plan_for(&graph, PlannerMode::FullPreload);
        let streamed = exec.execute(&graph, &fusion_s, &plan_s).unwrap();
        let preloaded = exec.execute(&graph, &fusion_p, &plan_p).unwrap();
        assert!(
            streamed.total_time_ms < preloaded.total_time_ms,
            "streamed {} vs preloaded {}",
            streamed.total_time_ms,
            preloaded.total_time_ms
        );
    }

    #[test]
    fn execution_overlaps_transfers_with_compute() {
        // GPT-Neo-S is disk-bound end to end, so the informative metric is how
        // much of the *compute* time is hidden under concurrent transfers, not
        // the overlap relative to the (transfer-dominated) makespan.
        use flashmem_gpu_sim::trace::EventKind;
        let graph = ModelZoo::gptneo_small().build();
        let (fusion, plan) = plan_for(&graph, PlannerMode::Hybrid);
        let exec = StreamingExecutor::new(DeviceSpec::oneplus_12(), LoweringOptions::flashmem());
        let outcome = exec.execute(&graph, &fusion, &plan).unwrap();
        let overlap_ms = outcome.timeline.overlap_fraction() * outcome.timeline.makespan_ms();
        let kernel_active_ms = outcome.timeline.active_ms(EventKind::Kernel);
        assert!(kernel_active_ms > 0.0);
        assert!(
            overlap_ms / kernel_active_ms > 0.3,
            "only {:.1}% of compute time overlaps transfers",
            100.0 * overlap_ms / kernel_active_ms
        );
    }

    #[test]
    fn plan_validates_against_inventory_before_execution() {
        let graph = ModelZoo::gptneo_small().build();
        let config = FlashMemConfig::memory_priority();
        let (_, plan) = plan_for(&graph, PlannerMode::Hybrid);
        let inventory = WeightInventory::with_chunk_size(&graph, config.chunk_bytes);
        plan.validate(&inventory, None).unwrap();
    }

    #[test]
    fn oom_reported_for_huge_model_on_small_device_under_preload() {
        // GPTN-2.7B fully preloaded (≈5.5 GB of weights) cannot fit the
        // Xiaomi Mi 6's app budget — the "no framework supports it" case.
        let graph = ModelZoo::gptneo_2_7b().build();
        let (fusion, plan) = plan_for(&graph, PlannerMode::FullPreload);
        let exec = StreamingExecutor::new(
            DeviceSpec::xiaomi_mi_6(),
            LoweringOptions::texture_framework(),
        );
        let result = exec.execute(&graph, &fusion, &plan);
        assert!(result.is_err(), "expected OOM, got {result:?}");
    }

    #[test]
    fn streaming_lets_the_same_model_fit_the_small_device() {
        let graph = ModelZoo::gptneo_2_7b().build();
        let (fusion, plan) = plan_for(&graph, PlannerMode::Hybrid);
        let exec = StreamingExecutor::new(DeviceSpec::xiaomi_mi_6(), LoweringOptions::flashmem());
        let result = exec.execute(&graph, &fusion, &plan);
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn chunks_whose_consumer_never_runs_are_freed_last_in_allocation_order() {
        use flashmem_gpu_sim::engine::CommandKind;
        use flashmem_graph::GraphBuilder;

        let mut b = GraphBuilder::new("orphans");
        let mut x = b.input("x", &[64, 256]);
        let mut weights = Vec::new();
        for i in 0..4 {
            x = b.matmul(&format!("fc{i}"), x, 256);
            weights.push(x);
        }
        let graph = b.build();
        let fusion = FusionPlan::unfused(&graph);
        let kernels = fusion.len();
        // Each weight streams one chunk at kernel `at`, and its consumer
        // never runs after that: it lies past the last kernel or before `at`.
        let mut plan = OverlapPlan::new(kernels, 64 * 1024);
        for (weight, (consumer, at)) in
            weights
                .into_iter()
                .zip([(kernels + 3, 1), (0, 2), (kernels, 3), (1, 4)])
        {
            plan.add_streamed(weight, consumer, 0, 64 * 1024, &[(at, 1)]);
        }
        let exec = StreamingExecutor::new(DeviceSpec::oneplus_12(), LoweringOptions::flashmem());
        let stream = exec.compile(&graph, &fusion, &plan);
        let commands = stream.commands();

        let chunks: Vec<CommandId> = (0..commands.len())
            .filter(|&id| {
                matches!(
                    commands[id].kind,
                    CommandKind::Alloc {
                        tier: MemoryTier::TextureMemory,
                        ..
                    }
                )
            })
            .collect();
        let last_kernel = commands
            .iter()
            .rposition(|c| matches!(c.kind, CommandKind::Kernel { .. }))
            .unwrap();
        let tail: Vec<(CommandId, Vec<CommandId>)> = commands[commands.len() - chunks.len()..]
            .iter()
            .map(|c| match c.kind {
                CommandKind::Free { alloc } => (alloc, c.deps.clone()),
                ref other => panic!("expected a free, got {other:?}"),
            })
            .collect();
        let expected: Vec<(CommandId, Vec<CommandId>)> =
            chunks.iter().map(|&tm| (tm, vec![last_kernel])).collect();
        assert_eq!(chunks.len(), 4);
        assert_eq!(tail, expected);
        for _ in 0..20 {
            assert_eq!(exec.compile(&graph, &fusion, &plan), stream);
        }
    }
}
