//! The discrete-event execution engine.
//!
//! Modern mobile GPUs (Adreno, Mali) expose independent command queues for
//! compute and for copy/DMA work, which is what lets FlashMem overlap weight
//! streaming with kernel execution. The engine models exactly that: a
//! [`CommandStream`] of allocation, transfer, transform and kernel commands
//! with explicit dependencies is scheduled onto two engine timelines
//! (transfer + compute); memory effects are applied at command completion and
//! recorded in a [`MemoryTracker`].

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bandwidth::{BandwidthModel, MemoryTier};
use crate::device::DeviceSpec;
use crate::energy::{EnergyReport, PowerModel};
use crate::error::{SimError, SimResult};
use crate::kernel::{KernelCostModel, KernelDesc};
use crate::memory::{AllocationId, MemoryTracker};
use crate::trace::{EventKind, ExecutionEvent, MemoryTrace, Timeline};

/// Identifier of a command inside a [`CommandStream`] (its index).
pub type CommandId = usize;

/// Which hardware queue a command executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueKind {
    /// The DMA / copy engine queue.
    Transfer,
    /// The compute (SM) queue.
    Compute,
    /// Host-side bookkeeping; executes instantaneously once dependencies are
    /// met (allocations, frees, barriers).
    Host,
}

/// One operation in a command stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommandKind {
    /// Reserve `bytes` in `tier`.
    Alloc {
        /// Memory tier to allocate in.
        tier: MemoryTier,
        /// Bytes to reserve.
        bytes: u64,
    },
    /// Release the allocation made by a previous `Alloc` command.
    Free {
        /// The id of the `Alloc` command whose allocation should be released.
        alloc: CommandId,
    },
    /// Move `bytes` from one tier to another on the transfer queue.
    Transfer {
        /// Bytes to move.
        bytes: u64,
        /// Source tier.
        from: MemoryTier,
        /// Destination tier.
        to: MemoryTier,
    },
    /// Layout-transform `bytes` (unified → 2.5D texture repack). The traffic
    /// factor expresses how many times the data is traversed (see
    /// [`WeightLayout::transform_traffic_factor`](crate::texture::WeightLayout)).
    Transform {
        /// Logical bytes being transformed.
        bytes: u64,
        /// Data traversals required by the transformation.
        traffic_factor: f64,
        /// Which queue performs the transformation. Preloading frameworks run
        /// dedicated transform kernels on the compute queue; FlashMem folds the
        /// work into the consuming kernels.
        queue: QueueKind,
    },
    /// Execute a compute kernel, optionally streaming `extra_load_bytes` of
    /// weight data concurrently (pipelined loading).
    Kernel {
        /// The kernel to execute.
        desc: KernelDesc,
        /// Bytes of weight data streamed during the kernel.
        extra_load_bytes: u64,
    },
    /// A pure synchronisation point (no cost, host queue).
    Barrier,
}

/// A command plus its scheduling metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Command {
    /// Human readable label (kernel or weight name) of a transfer, transform
    /// or kernel command: the name of its trace span. Alloc, free and barrier
    /// commands occupy no queue, so no span shows them, and carry none.
    pub label: String,
    /// The operation.
    pub kind: CommandKind,
    /// Commands that must complete before this one starts.
    pub deps: Vec<CommandId>,
}

impl Command {
    /// Convenience constructor for an allocation command.
    pub fn alloc(tier: MemoryTier, bytes: u64, deps: impl Into<Vec<CommandId>>) -> Self {
        Command {
            label: String::new(),
            kind: CommandKind::Alloc { tier, bytes },
            deps: deps.into(),
        }
    }

    /// Convenience constructor for a free command.
    pub fn free(alloc: CommandId, deps: impl Into<Vec<CommandId>>) -> Self {
        Command {
            label: String::new(),
            kind: CommandKind::Free { alloc },
            deps: deps.into(),
        }
    }

    /// Convenience constructor for a transfer command.
    pub fn transfer(
        label: impl Into<String>,
        bytes: u64,
        from: MemoryTier,
        to: MemoryTier,
        deps: impl Into<Vec<CommandId>>,
    ) -> Self {
        Command {
            label: label.into(),
            kind: CommandKind::Transfer { bytes, from, to },
            deps: deps.into(),
        }
    }

    /// Convenience constructor for a layout transformation command.
    pub fn transform(
        label: impl Into<String>,
        bytes: u64,
        traffic_factor: f64,
        queue: QueueKind,
        deps: impl Into<Vec<CommandId>>,
    ) -> Self {
        Command {
            label: label.into(),
            kind: CommandKind::Transform {
                bytes,
                traffic_factor,
                queue,
            },
            deps: deps.into(),
        }
    }

    /// Convenience constructor for a kernel command.
    pub fn kernel(
        label: impl Into<String>,
        desc: KernelDesc,
        extra_load_bytes: u64,
        deps: impl Into<Vec<CommandId>>,
    ) -> Self {
        Command {
            label: label.into(),
            kind: CommandKind::Kernel {
                desc,
                extra_load_bytes,
            },
            deps: deps.into(),
        }
    }

    /// Convenience constructor for a barrier.
    pub fn barrier(deps: impl Into<Vec<CommandId>>) -> Self {
        Command {
            label: String::new(),
            kind: CommandKind::Barrier,
            deps: deps.into(),
        }
    }

    /// The queue this command runs on.
    pub fn queue(&self) -> QueueKind {
        match &self.kind {
            CommandKind::Alloc { .. } | CommandKind::Free { .. } | CommandKind::Barrier => {
                QueueKind::Host
            }
            CommandKind::Transfer { .. } => QueueKind::Transfer,
            CommandKind::Transform { queue, .. } => *queue,
            CommandKind::Kernel { .. } => QueueKind::Compute,
        }
    }
}

/// An ordered list of commands forming one execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CommandStream {
    commands: Vec<Command>,
    /// The first command with a dependency that does not point backwards,
    /// recorded by [`push`](Self::push): every command before it is valid,
    /// so [`validate`](Self::validate) only rescans this one.
    first_forward: Option<CommandId>,
}

impl CommandStream {
    /// Create an empty stream.
    pub fn new() -> Self {
        CommandStream::default()
    }

    /// Append a command, returning its id for use in later dependencies.
    pub fn push(&mut self, command: Command) -> CommandId {
        let id = self.commands.len();
        if self.first_forward.is_none() && command.deps.iter().any(|&dep| dep >= id) {
            self.first_forward = Some(id);
        }
        self.commands.push(command);
        id
    }

    /// The commands in issue order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// True if the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Validate dependency references (existence and acyclicity under the
    /// "dependencies must precede the command" rule). [`push`](Self::push)
    /// records the first command that breaks the rule, so a valid stream
    /// validates in O(1) and an invalid one rescans that command only,
    /// returning the error a scan of every command would find first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDependency`] or [`SimError::DependencyCycle`].
    pub fn validate(&self) -> SimResult<()> {
        let Some(idx) = self.first_forward else {
            return Ok(());
        };
        for &dep in &self.commands[idx].deps {
            if dep >= self.commands.len() {
                return Err(SimError::UnknownDependency {
                    command: idx,
                    dependency: dep,
                });
            }
            if dep >= idx {
                // Forward or self dependencies cannot be satisfied by the
                // in-order queues and indicate a cycle in the producer.
                return Err(SimError::DependencyCycle { command: idx });
            }
        }
        Ok(())
    }
}

/// Simulator configuration knobs. Whether a run keeps its memory series is
/// a property of its [`MemoryTracker`] ([`MemoryTracker::with_series`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Charge the per-transfer DMA setup cost (on by default).
    pub charge_transfer_setup: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            charge_transfer_setup: true,
        }
    }
}

/// The result of executing a command stream.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// Total simulated wall-clock time (makespan) in milliseconds.
    pub total_time_ms: f64,
    /// Wall-clock time spent before the first kernel became ready to run —
    /// the "initialization" phase reported separately by preloading
    /// frameworks in Table 7.
    pub init_time_ms: f64,
    /// Makespan minus initialization: the execution phase.
    pub exec_time_ms: f64,
    /// Peak total memory footprint in bytes.
    pub peak_memory_bytes: u64,
    /// Time-weighted average memory footprint in bytes.
    pub average_memory_bytes: f64,
    /// Per-event timeline.
    pub timeline: Timeline,
    /// Memory usage trace over time: the running tracker's, handed over,
    /// so it carries a series exactly when that tracker kept one.
    pub memory_trace: MemoryTrace,
    /// Power/energy summary.
    pub energy: EnergyReport,
}

impl ExecutionOutcome {
    /// Peak memory in MiB.
    pub fn peak_memory_mib(&self) -> f64 {
        self.peak_memory_bytes as f64 / crate::MIB
    }

    /// Average memory in MiB.
    pub fn average_memory_mib(&self) -> f64 {
        self.average_memory_bytes / crate::MIB
    }
}

/// Availability clocks for a device's hardware queues, shared by every
/// command stream being stepped onto that device.
///
/// The monolithic [`GpuSimulator::execute`] keeps these clocks internally;
/// multi-tenant serving steps *several* [`StreamStepper`]s against one shared
/// `QueueClocks`, which is exactly how concurrent inferences contend for the
/// GPU's transfer and compute queues.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueClocks {
    transfer_free_ms: f64,
    compute_free_ms: f64,
}

impl QueueClocks {
    /// Clocks with both queues free at time zero.
    pub fn new() -> Self {
        QueueClocks::default()
    }

    /// Earliest time the given queue can accept new work. The host queue is
    /// always free (bookkeeping commands are instantaneous).
    pub fn ready_ms(&self, queue: QueueKind) -> f64 {
        match queue {
            QueueKind::Transfer => self.transfer_free_ms,
            QueueKind::Compute => self.compute_free_ms,
            QueueKind::Host => 0.0,
        }
    }

    /// Mark `queue` busy until `until_ms`. No-op for the host queue.
    pub fn occupy(&mut self, queue: QueueKind, until_ms: f64) {
        match queue {
            QueueKind::Transfer => self.transfer_free_ms = until_ms,
            QueueKind::Compute => self.compute_free_ms = until_ms,
            QueueKind::Host => {}
        }
    }

    /// Latest busy-until time across both queues.
    pub fn horizon_ms(&self) -> f64 {
        self.transfer_free_ms.max(self.compute_free_ms)
    }

    /// Reset both queues to free-at-zero (used when a device goes idle and
    /// its timeline is re-based onto a new epoch).
    pub fn reset(&mut self) {
        *self = QueueClocks::default();
    }
}

/// The scheduling record of one executed command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEvent {
    /// Index of the command inside its stream.
    pub command: CommandId,
    /// Queue the command ran on.
    pub queue: QueueKind,
    /// Start time in (stream-local) milliseconds.
    pub start_ms: f64,
    /// End time in (stream-local) milliseconds.
    pub end_ms: f64,
    /// Bytes the command moved: transfers, transforms and kernels carry
    /// their byte count, bookkeeping commands (alloc, free, barrier) 0.
    pub bytes: u64,
}

impl StepEvent {
    /// Duration of the command in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end_ms - self.start_ms).max(0.0)
    }
}

/// Incremental, one-command-at-a-time execution of a [`CommandStream`].
///
/// This is the queue-stepping hook behind `flashmem-serve`: where
/// [`GpuSimulator::execute_with_tracker`] drains a whole stream in one call,
/// a stepper advances a *single* command per [`step`](Self::step) against
/// caller-owned [`QueueClocks`], so an event loop can interleave many
/// in-flight inferences onto one device's transfer/compute queues at
/// per-command granularity. The monolithic executor is itself implemented on
/// top of the stepper, so stepping a stream to completion against fresh
/// clocks is *bit-for-bit* identical to `execute_with_tracker`.
///
/// The stream is held behind an [`Arc`] and only read, so any number of
/// steppers can replay one lowered stream: a serving device lowers each plan
/// once and every request admitted with it steps the same commands.
///
/// A step does O(1) bookkeeping beyond its own command's dependencies:
/// the next command's dependency-ready time is cached when the stepper
/// reaches it (dependencies point backwards, so it cannot change), live
/// allocations sit in a dense per-command slot table, and the resident
/// bytes and the makespan are running values. A stepper built
/// [`with_prices`](Self::with_prices) reads each command's duration from a
/// table priced once per stream instead of pricing it as it runs.
#[derive(Debug, Clone)]
pub struct StreamStepper {
    stream: Arc<CommandStream>,
    /// Per-command durations from [`GpuSimulator::price`], if shared.
    prices: Option<Arc<[f64]>>,
    next: usize,
    /// When every dependency of command `next` has finished.
    next_ready_ms: f64,
    finish: Vec<f64>,
    /// Latest finish so far: the stream-local makespan.
    makespan_ms: f64,
    /// The live allocation of each `Alloc` command, by command id
    /// (16 bytes a command).
    allocs: Vec<Option<(MemoryTier, AllocationId)>>,
    /// Bytes of the live allocations, `(unified, texture)`.
    resident: (u64, u64),
    timeline: Timeline,
    first_kernel_start: Option<f64>,
    floor_ms: f64,
}

impl StreamStepper {
    /// Wrap a validated stream for stepping: an owned [`CommandStream`], or
    /// an `Arc` shared with other steppers.
    ///
    /// # Errors
    ///
    /// Propagates [`CommandStream::validate`] errors.
    pub fn new(stream: impl Into<Arc<CommandStream>>) -> SimResult<Self> {
        let stream = stream.into();
        stream.validate()?;
        let len = stream.len();
        let mut stepper = StreamStepper {
            stream,
            prices: None,
            next: 0,
            next_ready_ms: 0.0,
            finish: vec![0.0; len],
            makespan_ms: 0.0,
            allocs: vec![None; len],
            resident: (0, 0),
            timeline: Timeline::new(),
            first_kernel_start: None,
            floor_ms: 0.0,
        };
        stepper.next_ready_ms = stepper.deps_ready_ms(0);
        Ok(stepper)
    }

    /// When every dependency of command `idx` has finished (0 for a command
    /// without dependencies or past the end). Exact once every command
    /// before `idx` has run.
    fn deps_ready_ms(&self, idx: CommandId) -> f64 {
        self.stream.commands().get(idx).map_or(0.0, |cmd| {
            cmd.deps
                .iter()
                .map(|&d| self.finish[d])
                .fold(0.0_f64, f64::max)
        })
    }

    /// Read each command's duration from `prices`, the table
    /// [`GpuSimulator::price`] gave for this stream, instead of calling
    /// [`GpuSimulator::command_ms`] at every step. Any number of steppers
    /// can share one table. It must come from a simulator configured like
    /// the one passed to [`step`](Self::step); stepping is then
    /// bit-identical to stepping without it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when the table does not have
    /// one entry per command.
    pub fn with_prices(mut self, prices: Arc<[f64]>) -> SimResult<Self> {
        if prices.len() != self.stream.len() {
            return Err(SimError::InvalidParameter {
                message: format!(
                    "a price table of {} entries for a stream of {} commands",
                    prices.len(),
                    self.stream.len()
                ),
            });
        }
        self.prices = Some(prices);
        Ok(self)
    }

    /// Forbid any command of this stream from starting before `floor_ms`
    /// (stream-local time). Serving uses this so a request admitted onto a
    /// partially idle queue cannot execute before its own arrival.
    pub fn with_floor_ms(mut self, floor_ms: f64) -> Self {
        self.floor_ms = floor_ms.max(0.0);
        self
    }

    /// The stream being stepped.
    pub fn stream(&self) -> &CommandStream {
        &self.stream
    }

    /// True once every command has executed.
    pub fn is_done(&self) -> bool {
        self.next >= self.stream.len()
    }

    /// Number of commands not yet executed.
    pub fn remaining(&self) -> usize {
        self.stream.len() - self.next
    }

    /// Queue of the next pending command.
    pub fn peek_queue(&self) -> Option<QueueKind> {
        self.stream.commands().get(self.next).map(Command::queue)
    }

    /// Earliest (stream-local) start time of the next pending command under
    /// the given queue clocks, or `None` when the stream is done.
    pub fn peek_start_ms(&self, clocks: &QueueClocks) -> Option<f64> {
        let cmd = self.stream.commands().get(self.next)?;
        Some(
            self.next_ready_ms
                .max(clocks.ready_ms(cmd.queue()))
                .max(self.floor_ms),
        )
    }

    /// Execute the next command against `clocks` and `tracker`, returning its
    /// scheduling record (or `None` when the stream is already done). Memory
    /// effects are recorded at `time_base_ms + start` so several steppers can
    /// share one tracker whose clock runs ahead of their stream-local time.
    /// The command's duration comes from the stepper's price table, if it
    /// has one, and from [`GpuSimulator::command_ms`] otherwise.
    ///
    /// # Errors
    ///
    /// Propagates pricing errors and tracker errors — most importantly
    /// out-of-memory.
    pub fn step(
        &mut self,
        sim: &GpuSimulator,
        clocks: &mut QueueClocks,
        tracker: &mut MemoryTracker,
        time_base_ms: f64,
    ) -> SimResult<Option<StepEvent>> {
        let idx = self.next;
        let Some(cmd) = self.stream.commands().get(idx) else {
            return Ok(None);
        };
        let queue = cmd.queue();
        let start = self
            .next_ready_ms
            .max(clocks.ready_ms(queue))
            .max(self.floor_ms);

        let duration = match &self.prices {
            Some(prices) => prices[idx],
            None => sim.command_ms(cmd)?,
        };
        let (bytes, event_kind) = match &cmd.kind {
            CommandKind::Alloc { tier, bytes } => {
                let id = tracker.allocate(*tier, *bytes, time_base_ms + start)?;
                self.allocs[idx] = Some((*tier, id));
                *tier_bytes(&mut self.resident, *tier) += bytes;
                (0, None)
            }
            CommandKind::Free { alloc } => {
                let (tier, id) = self.allocs.get_mut(*alloc).and_then(Option::take).ok_or(
                    SimError::UnknownDependency {
                        command: idx,
                        dependency: *alloc,
                    },
                )?;
                let freed = tracker.free(tier, id, time_base_ms + start)?;
                *tier_bytes(&mut self.resident, tier) -= freed;
                (0, None)
            }
            CommandKind::Barrier => (0, None),
            CommandKind::Transfer { bytes, .. } => (*bytes, Some(EventKind::Transfer)),
            CommandKind::Transform { bytes, .. } => (*bytes, Some(EventKind::Transform)),
            CommandKind::Kernel {
                desc,
                extra_load_bytes,
            } => {
                if self.first_kernel_start.is_none() {
                    self.first_kernel_start = Some(start);
                }
                (
                    desc.total_bytes() + extra_load_bytes,
                    Some(EventKind::Kernel),
                )
            }
        };

        let end = start + duration;
        self.finish[idx] = end;
        self.makespan_ms = self.makespan_ms.max(end);
        self.next += 1;
        self.next_ready_ms = self.deps_ready_ms(self.next);
        if queue != QueueKind::Host {
            clocks.occupy(queue, end);
        }
        if let Some(kind) = event_kind {
            self.timeline.push(ExecutionEvent {
                command: idx,
                kind,
                start_ms: start,
                end_ms: end,
                bytes,
            });
        }
        Ok(Some(StepEvent {
            command: idx,
            queue,
            start_ms: start,
            end_ms: end,
            bytes,
        }))
    }

    /// The per-event timeline accumulated so far (stream-local times).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Stream-local time at which the first kernel started, if any ran yet.
    pub fn first_kernel_start_ms(&self) -> Option<f64> {
        self.first_kernel_start
    }

    /// Stream-local completion time: the latest command finish (every
    /// timeline event ends at its command's finish).
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }

    /// The allocations this stream holds, in command order: the allocating
    /// command, its tier and its tracker handle.
    pub fn live_allocations(
        &self,
    ) -> impl Iterator<Item = (CommandId, MemoryTier, AllocationId)> + '_ {
        self.allocs
            .iter()
            .enumerate()
            .filter_map(|(command, slot)| slot.map(|(tier, id)| (command, tier, id)))
    }

    /// Empty the slot table in command order, freeing each live allocation
    /// in `tracker` at `now_ms` and passing its command, tier and freed
    /// bytes to `each`.
    fn free_live(
        &mut self,
        tracker: &mut MemoryTracker,
        now_ms: f64,
        mut each: impl FnMut(CommandId, MemoryTier, u64),
    ) -> SimResult<()> {
        for (command, slot) in self.allocs.iter_mut().enumerate() {
            if let Some((tier, id)) = slot.take() {
                each(command, tier, tracker.free(tier, id, now_ms)?);
            }
        }
        self.resident = (0, 0);
        Ok(())
    }

    /// Free every allocation this stream still holds (model eviction at the
    /// end of a served request), at absolute tracker time `now_ms`.
    ///
    /// # Errors
    ///
    /// Propagates tracker errors on stale handles (a stepper bug, not a
    /// modelled outcome).
    pub fn release_remaining(
        &mut self,
        tracker: &mut MemoryTracker,
        now_ms: f64,
    ) -> SimResult<u64> {
        let mut freed = 0;
        self.free_live(tracker, now_ms, |_, _, bytes| freed += bytes)?;
        Ok(freed)
    }

    /// Suspend at the current command boundary, keeping the stream's
    /// allocations resident. `now_ms` is the stream-local suspension time
    /// (recorded for accounting; resuming via [`Suspension::resume`] does not
    /// depend on it). Commands already issued keep their finish times — a
    /// kernel that was dispatched before the suspension still completes.
    pub fn suspend(self, clocks: &QueueClocks, now_ms: f64) -> Suspension {
        Suspension {
            stepper: self,
            clocks: *clocks,
            suspended_at_ms: now_ms,
            evicted: Vec::new(),
        }
    }

    /// Suspend and release every allocation the stream still holds back to
    /// `tracker` (recorded at `time_base_ms + now_ms`, like
    /// [`step`](Self::step)'s memory effects) — what a preempting scheduler
    /// does to free the device for a higher-priority inference. The released
    /// set is remembered inside the [`Suspension`] so
    /// [`Suspension::resume_into`] can re-acquire the identical residency.
    ///
    /// # Errors
    ///
    /// Propagates tracker errors on stale handles (a stepper bug, not a
    /// modelled outcome).
    pub fn suspend_evicting(
        mut self,
        clocks: &QueueClocks,
        tracker: &mut MemoryTracker,
        now_ms: f64,
        time_base_ms: f64,
    ) -> SimResult<Suspension> {
        let mut evicted = Vec::new();
        self.free_live(tracker, time_base_ms + now_ms, |command, tier, bytes| {
            evicted.push(EvictedAllocation {
                command,
                tier,
                bytes,
            });
        })?;
        Ok(Suspension {
            stepper: self,
            clocks: *clocks,
            suspended_at_ms: now_ms,
            evicted,
        })
    }

    /// Bytes this stream currently holds in the tracker, split as
    /// `(unified, texture)` — what an evicting suspension would release.
    /// A running value: O(1) at any command boundary.
    pub fn resident_split(&self) -> (u64, u64) {
        self.resident
    }

    /// Finalize a fully stepped stream into the same [`ExecutionOutcome`]
    /// the monolithic executor produces: samples the tracker at the makespan
    /// and summarises timeline, memory and energy. The tracker's trace moves
    /// into the outcome without a copy
    /// ([`MemoryTracker::take_trace`]), and the tracker starts an empty one.
    pub fn finish(self, sim: &GpuSimulator, tracker: &mut MemoryTracker) -> ExecutionOutcome {
        let total = self.makespan_ms();
        tracker.sample(total);
        let init = self.first_kernel_start.unwrap_or(total);
        let energy = sim.power.report(&self.timeline);
        ExecutionOutcome {
            total_time_ms: total,
            init_time_ms: init,
            exec_time_ms: (total - init).max(0.0),
            peak_memory_bytes: tracker.peak_bytes(),
            average_memory_bytes: tracker.average_bytes(),
            timeline: self.timeline,
            memory_trace: tracker.take_trace(),
            energy,
        }
    }
}

/// The entry of a `(unified, texture)` byte pair that `tier` counts in:
/// texture memory's, or unified memory's for every other tier.
fn tier_bytes(split: &mut (u64, u64), tier: MemoryTier) -> &mut u64 {
    match tier {
        MemoryTier::TextureMemory => &mut split.1,
        _ => &mut split.0,
    }
}

/// What resuming a preempted stream costs.
///
/// When the serving layer suspends an inference to make room for a
/// higher-priority one, the suspended stream's resident weights are usually
/// evicted (see [`StreamStepper::suspend_evicting`]). Getting them resident
/// again is not free on real hardware: unified-memory pages must be re-read
/// from disk and texture-backed weights re-packed into the 2.5D layout. This
/// knob controls how much of that work is charged when the stream resumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionCost {
    /// Fixed per-resume overhead in milliseconds (command-buffer rebuild,
    /// context re-setup). Negative values are treated as zero.
    pub fixed_ms: f64,
    /// Charge re-loading the evicted bytes: disk → unified memory for
    /// everything, plus a unified → texture repack for the texture-resident
    /// part. When `false`, eviction is modelled as free to undo (the
    /// optimistic lower bound).
    pub reload_evicted: bool,
}

impl PreemptionCost {
    /// Resuming is free: no fixed overhead, no re-residency traffic.
    pub fn free() -> Self {
        PreemptionCost {
            fixed_ms: 0.0,
            reload_evicted: false,
        }
    }

    /// Charge full re-residency of the evicted bytes (the realistic default).
    pub fn reload() -> Self {
        PreemptionCost {
            fixed_ms: 0.0,
            reload_evicted: true,
        }
    }

    /// Add a fixed per-resume overhead (builder style).
    pub fn with_fixed_ms(mut self, fixed_ms: f64) -> Self {
        self.fixed_ms = fixed_ms;
        self
    }

    /// Milliseconds charged for resuming a stream that had
    /// `unified_bytes` + `texture_bytes` resident when it was suspended.
    ///
    /// # Errors
    ///
    /// Propagates bandwidth-model errors (none for the tiers used here).
    pub fn penalty_ms(
        &self,
        sim: &GpuSimulator,
        unified_bytes: u64,
        texture_bytes: u64,
    ) -> SimResult<f64> {
        let mut penalty = self.fixed_ms.max(0.0);
        if self.reload_evicted {
            let reload = unified_bytes + texture_bytes;
            if reload > 0 {
                penalty += sim.bandwidth.transfer_time_ms(
                    reload,
                    MemoryTier::Disk,
                    MemoryTier::UnifiedMemory,
                )?;
            }
            if texture_bytes > 0 {
                penalty += sim.bandwidth.transfer_time_ms(
                    texture_bytes,
                    MemoryTier::UnifiedMemory,
                    MemoryTier::TextureMemory,
                )?;
            }
        }
        Ok(penalty)
    }
}

/// One allocation released by an evicting suspension, remembered so the
/// resume path can re-acquire the identical residency.
#[derive(Debug, Clone, PartialEq)]
struct EvictedAllocation {
    command: CommandId,
    tier: MemoryTier,
    bytes: u64,
}

/// A checkpoint of a partially executed [`CommandStream`].
///
/// A [`StreamStepper`] advances one command per [`step`](StreamStepper::step),
/// so every boundary between commands is a natural yield point. `Suspension`
/// freezes the stepper there — queue clocks, per-command finish times (the
/// in-flight transfers/kernels that were already issued), the accumulated
/// timeline, and the resident-memory state — so the stream can be set aside
/// and deterministically resumed later.
///
/// Two flavours:
///
/// * [`StreamStepper::suspend`] keeps the stream's allocations resident.
///   Resuming via [`Suspension::resume`] restores the captured clocks and is
///   *bit-for-bit* identical to never having suspended at all (the oracle in
///   `crates/serve/tests/preemption.rs` proves this on full
///   `ExecutionReport`s).
/// * [`StreamStepper::suspend_evicting`] additionally releases every live
///   allocation back to the tracker (what a preempting scheduler does to free
///   the device). Resuming via [`Suspension::resume_into`] re-acquires the
///   identical residency and charges a configurable [`PreemptionCost`].
#[derive(Debug, Clone)]
pub struct Suspension {
    stepper: StreamStepper,
    clocks: QueueClocks,
    suspended_at_ms: f64,
    evicted: Vec<EvictedAllocation>,
}

impl Suspension {
    /// The queue clocks captured at suspension time.
    pub fn clocks(&self) -> QueueClocks {
        self.clocks
    }

    /// Stream-local time at which the stream was suspended.
    pub fn suspended_at_ms(&self) -> f64 {
        self.suspended_at_ms
    }

    /// Number of commands that had not yet executed when suspended.
    pub fn remaining(&self) -> usize {
        self.stepper.remaining()
    }

    /// Bytes released by an evicting suspension, split as
    /// `(unified, texture)`. Both zero for a memory-resident suspension.
    pub fn evicted_split(&self) -> (u64, u64) {
        let mut split = (0, 0);
        for alloc in &self.evicted {
            *tier_bytes(&mut split, alloc.tier) += alloc.bytes;
        }
        split
    }

    /// Total bytes released by an evicting suspension.
    pub fn evicted_bytes(&self) -> u64 {
        let (u, t) = self.evicted_split();
        u + t
    }

    /// True when `tracker` currently has room to re-acquire the evicted
    /// residency — the admission check a scheduler performs before calling
    /// [`resume_into`](Self::resume_into).
    pub fn can_resume(&self, tracker: &MemoryTracker) -> bool {
        let (unified, texture) = self.evicted_split();
        unified <= tracker.unified().available()
            && texture <= tracker.texture().available()
            && unified + texture <= tracker.budget().saturating_sub(tracker.total_in_use())
    }

    /// Undo the suspension exactly: the stepper and the captured queue clocks
    /// come back untouched, so stepping onward is bit-for-bit identical to an
    /// uninterrupted run. Only valid for memory-resident suspensions; an
    /// evicted one must go through [`resume_into`](Self::resume_into).
    pub fn resume(self) -> (StreamStepper, QueueClocks) {
        (self.stepper, self.clocks)
    }

    /// Resume onto live scheduler state: re-acquire any evicted residency
    /// from `tracker` (recorded at `time_base_ms + resume_at_ms`, like
    /// [`StreamStepper::step`]'s memory effects) and forbid the stream from
    /// issuing commands before `resume_at_ms` plus the re-residency penalty
    /// charged by `cost`. Returns the resumed stepper and the penalty in
    /// milliseconds.
    ///
    /// The caller supplies the clocks to step against (usually the shared,
    /// since-advanced ones — the snapshot's clocks are for
    /// [`resume`](Self::resume)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the evicted residency no longer
    /// fits; the tracker is left unchanged in that case (all partial
    /// re-allocations are rolled back), so the suspension can be retried
    /// later — check [`can_resume`](Self::can_resume) first to avoid the
    /// round-trip.
    pub fn resume_into(
        self,
        sim: &GpuSimulator,
        tracker: &mut MemoryTracker,
        resume_at_ms: f64,
        time_base_ms: f64,
        cost: &PreemptionCost,
    ) -> SimResult<(StreamStepper, f64)> {
        let (unified, texture) = self.evicted_split();
        let mut stepper = self.stepper;
        let penalty = cost.penalty_ms(sim, unified, texture)?;
        let now = time_base_ms + resume_at_ms;
        let mut acquired: Vec<(MemoryTier, AllocationId)> = Vec::new();
        for alloc in &self.evicted {
            match tracker.allocate(alloc.tier, alloc.bytes, now) {
                Ok(id) => {
                    stepper.allocs[alloc.command] = Some((alloc.tier, id));
                    *tier_bytes(&mut stepper.resident, alloc.tier) += alloc.bytes;
                    acquired.push((alloc.tier, id));
                }
                Err(error) => {
                    for (tier, id) in acquired {
                        tracker.free(tier, id, now)?;
                    }
                    return Err(error);
                }
            }
        }
        stepper.floor_ms = stepper
            .floor_ms
            .max(self.suspended_at_ms)
            .max(resume_at_ms + penalty);
        Ok((stepper, penalty))
    }
}

/// The discrete-event mobile GPU simulator.
#[derive(Debug, Clone)]
pub struct GpuSimulator {
    device: DeviceSpec,
    config: SimConfig,
    bandwidth: BandwidthModel,
    cost: KernelCostModel,
    power: PowerModel,
}

impl GpuSimulator {
    /// Create a simulator for `device` with `config`.
    pub fn new(device: DeviceSpec, config: SimConfig) -> Self {
        GpuSimulator {
            bandwidth: BandwidthModel::new(device.clone()),
            cost: KernelCostModel::new(device.clone()),
            power: PowerModel::new(device.clone()),
            device,
            config,
        }
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The kernel cost model (shared with planners that need latency
    /// estimates before execution).
    pub fn cost_model(&self) -> &KernelCostModel {
        &self.cost
    }

    /// The bandwidth model.
    pub fn bandwidth_model(&self) -> &BandwidthModel {
        &self.bandwidth
    }

    /// Simulated duration of `cmd` in milliseconds, 0 for host bookkeeping
    /// (alloc, free, barrier): the one pricing function. A transfer pays
    /// the DMA setup only when [`SimConfig::charge_transfer_setup`] is set.
    ///
    /// # Errors
    ///
    /// Propagates bandwidth-model errors for a transfer between tiers with
    /// no modelled path.
    pub fn command_ms(&self, cmd: &Command) -> SimResult<f64> {
        Ok(match &cmd.kind {
            CommandKind::Alloc { .. } | CommandKind::Free { .. } | CommandKind::Barrier => 0.0,
            CommandKind::Transfer { bytes, from, to } => {
                let t = self.bandwidth.transfer_time_ms(*bytes, *from, *to)?;
                if self.config.charge_transfer_setup {
                    t
                } else {
                    (t - self.bandwidth.transfer_setup_ms).max(0.0)
                }
            }
            CommandKind::Transform {
                bytes,
                traffic_factor,
                ..
            } => {
                let traffic = (*bytes as f64 * traffic_factor.max(0.0)) as u64;
                if traffic == 0 {
                    0.0
                } else {
                    self.bandwidth.transfer_time_ms(
                        traffic,
                        MemoryTier::UnifiedMemory,
                        MemoryTier::TextureMemory,
                    )?
                }
            }
            CommandKind::Kernel {
                desc,
                extra_load_bytes,
            } => self
                .cost
                .latency_with_extra_load_ms(desc, *extra_load_bytes),
        })
    }

    /// Every command's [`command_ms`](Self::command_ms), in stream order:
    /// the table a [`StreamStepper::with_prices`] reads, so a stream
    /// stepped many times on this simulator is priced once.
    ///
    /// # Errors
    ///
    /// The first command's pricing error.
    pub fn price(&self, stream: &CommandStream) -> SimResult<Arc<[f64]>> {
        stream
            .commands()
            .iter()
            .map(|cmd| self.command_ms(cmd))
            .collect()
    }

    /// Execute a command stream with a fresh memory tracker sized for the
    /// device, whose memory trace, series included, moves into the outcome.
    /// Takes an owned [`CommandStream`] or an `Arc` shared with other runs.
    ///
    /// # Errors
    ///
    /// Propagates stream validation errors and out-of-memory conditions.
    pub fn execute(
        &mut self,
        stream: impl Into<Arc<CommandStream>>,
    ) -> SimResult<ExecutionOutcome> {
        self.execute_with_tracker(stream, &mut MemoryTracker::for_device(&self.device))
    }

    /// Execute a command stream against a caller-provided memory tracker
    /// (used by multi-model scenarios that keep memory across executions).
    /// The tracker's trace moves into the outcome, as in
    /// [`StreamStepper::finish`]; its live allocations stay.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownDependency`] / [`SimError::DependencyCycle`] when
    ///   the stream is malformed.
    /// * [`SimError::OutOfMemory`] when an allocation exceeds the device or
    ///   budget capacity — this is a *modelled* outcome (e.g. GPTN-1.3B on the
    ///   Xiaomi Mi 6), not a simulator bug.
    pub fn execute_with_tracker(
        &mut self,
        stream: impl Into<Arc<CommandStream>>,
        tracker: &mut MemoryTracker,
    ) -> SimResult<ExecutionOutcome> {
        Ok(self.run_alone(stream, tracker)?.finish(self, tracker))
    }

    /// Step a stream to its end on idle queues.
    fn run_alone(
        &self,
        stream: impl Into<Arc<CommandStream>>,
        tracker: &mut MemoryTracker,
    ) -> SimResult<StreamStepper> {
        let mut stepper = StreamStepper::new(stream)?;
        let mut clocks = QueueClocks::new();
        while !stepper.is_done() {
            stepper.step(self, &mut clocks, tracker, 0.0)?;
        }
        Ok(stepper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelCategory, LaunchDims};

    fn simulator() -> GpuSimulator {
        GpuSimulator::new(DeviceSpec::oneplus_12(), SimConfig::default())
    }

    fn small_kernel(name: &str) -> KernelDesc {
        KernelDesc::new(name, KernelCategory::Reusable, 1.0e9, 8 << 20, 4 << 20)
            .with_launch(LaunchDims::new([512, 512, 1], [8, 8, 1]))
    }

    #[test]
    fn empty_stream_is_free() {
        let mut sim = simulator();
        let out = sim.execute(CommandStream::new()).unwrap();
        assert_eq!(out.total_time_ms, 0.0);
        assert_eq!(out.peak_memory_bytes, 0);
    }

    #[test]
    fn sequential_dependencies_serialize() {
        let mut sim = simulator();
        let mut s = CommandStream::new();
        let a = s.push(Command::transfer(
            "load",
            100 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [],
        ));
        s.push(Command::kernel("k", small_kernel("k"), 0, [a]));
        let out = sim.execute(s).unwrap();
        let events = out.timeline.events();
        assert_eq!(events.len(), 2);
        assert!(events[1].start_ms >= events[0].end_ms);
        assert!(out.init_time_ms > 0.0);
    }

    #[test]
    fn independent_queues_overlap() {
        let mut sim = simulator();
        // Transfer and kernel with no dependency: they should overlap.
        let mut s = CommandStream::new();
        s.push(Command::transfer(
            "load_next",
            200 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [],
        ));
        s.push(Command::kernel("k", small_kernel("k"), 0, []));
        let out = sim.execute(s).unwrap();
        assert!(out.timeline.overlap_fraction() > 0.0);
        // Makespan is shorter than the serial sum.
        let serial: f64 = out.timeline.events().iter().map(|e| e.duration_ms()).sum();
        assert!(out.total_time_ms < serial);
    }

    #[test]
    fn same_queue_commands_serialize_even_without_deps() {
        let mut sim = simulator();
        let mut s = CommandStream::new();
        s.push(Command::transfer(
            "t0",
            50 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [],
        ));
        s.push(Command::transfer(
            "t1",
            50 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [],
        ));
        let out = sim.execute(s).unwrap();
        let e = out.timeline.events();
        assert!(e[1].start_ms >= e[0].end_ms);
    }

    #[test]
    fn allocation_lifecycle_tracked() {
        let mut sim = simulator();
        let mut s = CommandStream::new();
        let a = s.push(Command::alloc(MemoryTier::UnifiedMemory, 100 << 20, []));
        let t = s.push(Command::transfer(
            "load",
            100 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [a],
        ));
        let f = s.push(Command::free(a, [t]));
        // A second, weight-free phase after the release: the average footprint
        // over the whole run must now sit below the peak.
        s.push(Command::transfer(
            "load_next_model",
            100 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [f],
        ));
        let out = sim.execute(s).unwrap();
        assert_eq!(out.peak_memory_bytes, 100 << 20);
        assert!(out.average_memory_bytes < out.peak_memory_bytes as f64);
    }

    #[test]
    fn oom_is_reported() {
        let device = DeviceSpec::xiaomi_mi_6();
        let mut sim = GpuSimulator::new(device.clone(), SimConfig::default());
        let mut s = CommandStream::new();
        s.push(Command::alloc(
            MemoryTier::UnifiedMemory,
            device.app_budget_bytes + 1,
            [],
        ));
        assert!(matches!(sim.execute(s), Err(SimError::OutOfMemory { .. })));
    }

    #[test]
    fn invalid_dependency_rejected() {
        let mut sim = simulator();
        let mut s = CommandStream::new();
        s.push(Command::barrier([5]));
        assert!(matches!(
            sim.execute(s),
            Err(SimError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn forward_dependency_is_a_cycle() {
        let mut s = CommandStream::new();
        s.push(Command::barrier([0]));
        assert!(matches!(
            s.validate(),
            Err(SimError::DependencyCycle { .. })
        ));
    }

    #[test]
    fn transform_charged_on_requested_queue() {
        let mut sim = simulator();
        let mut s = CommandStream::new();
        s.push(Command::transform(
            "repack",
            64 << 20,
            3.0,
            QueueKind::Compute,
            [],
        ));
        s.push(Command::kernel("k", small_kernel("k"), 0, []));
        let out = sim.execute(s).unwrap();
        // Both occupy the compute queue, so they serialize.
        let e = out.timeline.events();
        assert!(e[1].start_ms >= e[0].end_ms);
    }

    #[test]
    fn extra_load_bytes_slow_the_kernel_down() {
        let mut sim = simulator();
        let k = small_kernel("k");
        let mut plain = CommandStream::new();
        plain.push(Command::kernel("k", k.clone(), 0, []));
        let mut loaded = CommandStream::new();
        loaded.push(Command::kernel("k", k, 64 << 20, []));
        let a = sim.execute(plain).unwrap().total_time_ms;
        let b = sim.execute(loaded).unwrap().total_time_ms;
        assert!(b > a);
    }

    fn streaming_like_stream() -> CommandStream {
        // Alloc → load → kernel chains with an independent prefetch, shaped
        // like the streaming executor's output.
        let mut s = CommandStream::new();
        let a0 = s.push(Command::alloc(MemoryTier::UnifiedMemory, 64 << 20, []));
        let l0 = s.push(Command::transfer(
            "w0.load",
            64 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [a0],
        ));
        let k0 = s.push(Command::kernel("k0", small_kernel("k0"), 8 << 20, [l0]));
        let a1 = s.push(Command::alloc(MemoryTier::UnifiedMemory, 32 << 20, []));
        let l1 = s.push(Command::transfer(
            "w1.load",
            32 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [a1],
        ));
        let k1 = s.push(Command::kernel("k1", small_kernel("k1"), 0, [k0, l1]));
        s.push(Command::free(a0, [k1]));
        s.push(Command::free(a1, [k1]));
        s
    }

    #[test]
    fn stepping_to_completion_matches_monolithic_execution() {
        let stream = streaming_like_stream();
        let mut sim = simulator();
        let expected = sim.execute(stream.clone()).unwrap();

        let sim2 = simulator();
        let mut tracker = MemoryTracker::for_device(sim2.device());
        let mut stepper = StreamStepper::new(stream).unwrap();
        let mut clocks = QueueClocks::new();
        while !stepper.is_done() {
            stepper.step(&sim2, &mut clocks, &mut tracker, 0.0).unwrap();
        }
        let stepped = stepper.finish(&sim2, &mut tracker);

        assert_eq!(stepped.total_time_ms, expected.total_time_ms);
        assert_eq!(stepped.init_time_ms, expected.init_time_ms);
        assert_eq!(stepped.peak_memory_bytes, expected.peak_memory_bytes);
        assert_eq!(stepped.average_memory_bytes, expected.average_memory_bytes);
        assert_eq!(stepped.timeline.events(), expected.timeline.events());
        assert_eq!(
            stepped.memory_trace.samples(),
            expected.memory_trace.samples()
        );
    }

    #[test]
    fn a_price_table_steps_like_per_command_pricing() {
        let mut s = streaming_like_stream();
        s.push(Command::transform(
            "repack",
            16 << 20,
            2.0,
            QueueKind::Compute,
            [],
        ));
        let stream = Arc::new(s);
        for charge_transfer_setup in [true, false] {
            let sim = GpuSimulator::new(
                DeviceSpec::oneplus_12(),
                SimConfig {
                    charge_transfer_setup,
                },
            );
            let prices = sim.price(&stream).unwrap();
            assert_eq!(prices.len(), stream.len());
            let run = |stepper: StreamStepper| {
                let mut tracker = MemoryTracker::for_device(sim.device());
                let mut clocks = QueueClocks::new();
                let mut stepper = stepper;
                let mut events = Vec::new();
                while let Some(e) = stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap() {
                    events.push((e.command, e.start_ms.to_bits(), e.end_ms.to_bits(), e.bytes));
                }
                (events, stepper.makespan_ms().to_bits())
            };
            let unpriced = run(StreamStepper::new(Arc::clone(&stream)).unwrap());
            let priced = StreamStepper::new(Arc::clone(&stream))
                .unwrap()
                .with_prices(prices)
                .unwrap();
            assert_eq!(run(priced), unpriced);
        }
        let short: Arc<[f64]> = Arc::from(vec![0.0; 2]);
        assert!(matches!(
            StreamStepper::new(stream).unwrap().with_prices(short),
            Err(SimError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn two_steppers_contend_for_shared_queue_clocks() {
        let sim = simulator();
        let mut tracker = MemoryTracker::for_device(sim.device());
        let mut clocks = QueueClocks::new();
        let mut a = StreamStepper::new(streaming_like_stream()).unwrap();
        let mut b = StreamStepper::new(streaming_like_stream()).unwrap();

        // Alternate fairly: always advance the stepper whose next command can
        // start earliest (ties favour `a`), exactly like the serve loop.
        while !a.is_done() || !b.is_done() {
            let sa = a.peek_start_ms(&clocks).unwrap_or(f64::INFINITY);
            let sb = b.peek_start_ms(&clocks).unwrap_or(f64::INFINITY);
            if sa <= sb {
                a.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
            } else {
                b.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
            }
        }

        // Interleaved makespan must beat running the two streams back to back
        // (the whole point of sharing the dual queues), yet neither stream
        // can finish faster than it would alone.
        let mut solo_sim = simulator();
        let solo = solo_sim.execute(streaming_like_stream()).unwrap();
        let shared_makespan = a.makespan_ms().max(b.makespan_ms());
        assert!(shared_makespan < 2.0 * solo.total_time_ms);
        assert!(a.makespan_ms() >= solo.total_time_ms - 1e-9);
        assert!(b.makespan_ms() >= solo.total_time_ms - 1e-9);
    }

    /// Step `a` and `b` to completion on shared clocks and one tracker,
    /// always advancing the stepper whose next command can start earliest
    /// (ties favour `a`), like the serve loop. Returns the tracker and which
    /// stepper each step advanced (`true` for `a`). Checks along the way
    /// that every timeline event names the command whose step produced it.
    fn interleave(a: &mut StreamStepper, b: &mut StreamStepper) -> (MemoryTracker, Vec<bool>) {
        let sim = simulator();
        let mut tracker = MemoryTracker::for_device(sim.device());
        let mut clocks = QueueClocks::new();
        let mut order = Vec::new();
        while !a.is_done() || !b.is_done() {
            let sa = a.peek_start_ms(&clocks).unwrap_or(f64::INFINITY);
            let sb = b.peek_start_ms(&clocks).unwrap_or(f64::INFINITY);
            order.push(sa <= sb);
            let stepper = if sa <= sb { &mut *a } else { &mut *b };
            let before = stepper.timeline().len();
            let step = stepper
                .step(&sim, &mut clocks, &mut tracker, 0.0)
                .unwrap()
                .unwrap();
            if let Some(event) = stepper.timeline().events().get(before) {
                assert_eq!(event.command, step.command);
                assert_eq!((event.start_ms, event.end_ms), (step.start_ms, step.end_ms));
                let kind = match stepper.stream().commands()[event.command].kind {
                    CommandKind::Transfer { .. } => EventKind::Transfer,
                    CommandKind::Transform { .. } => EventKind::Transform,
                    CommandKind::Kernel { .. } => EventKind::Kernel,
                    _ => panic!("bookkeeping command {} pushed an event", event.command),
                };
                assert_eq!(event.kind, kind);
            }
        }
        (tracker, order)
    }

    #[test]
    fn steppers_sharing_one_stream_match_steppers_over_clones() {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let events = |stepper: &StreamStepper| {
            stepper
                .timeline()
                .events()
                .iter()
                .map(|e| {
                    (
                        e.command,
                        e.kind,
                        e.start_ms.to_bits(),
                        e.end_ms.to_bits(),
                        e.bytes,
                    )
                })
                .collect::<Vec<_>>()
        };
        let samples = |tracker: &MemoryTracker| {
            tracker
                .trace()
                .samples()
                .iter()
                .map(|s| (s.time_ms.to_bits(), s.bytes))
                .collect::<Vec<_>>()
        };

        let stream = Arc::new(streaming_like_stream());
        let mut a = StreamStepper::new(Arc::clone(&stream)).unwrap();
        let mut b = StreamStepper::new(Arc::clone(&stream))
            .unwrap()
            .with_floor_ms(3.0);
        assert!(std::ptr::eq(a.stream(), b.stream()));
        assert_eq!(Arc::strong_count(&stream), 3);
        let (shared_tracker, shared_order) = interleave(&mut a, &mut b);

        let mut a_owned = StreamStepper::new(streaming_like_stream()).unwrap();
        let mut b_owned = StreamStepper::new(streaming_like_stream())
            .unwrap()
            .with_floor_ms(3.0);
        let (owned_tracker, owned_order) = interleave(&mut a_owned, &mut b_owned);

        // The two streams really interleave: `b` steps before `a` is done.
        let a_done_at = shared_order.iter().rposition(|&is_a| is_a).unwrap();
        assert!(
            shared_order[..a_done_at].contains(&false),
            "{shared_order:?}"
        );
        assert_eq!(shared_order, owned_order);
        for (shared, owned) in [(&a, &a_owned), (&b, &b_owned)] {
            assert_eq!(bits(&shared.finish), bits(&owned.finish));
            assert_eq!(events(shared), events(owned));
            assert!(!shared.timeline().is_empty());
        }
        assert_eq!(samples(&shared_tracker), samples(&owned_tracker));
        // Both steppers still read the one shared stream, unmodified.
        assert!(std::ptr::eq(a.stream(), &*stream) && std::ptr::eq(b.stream(), &*stream));
        assert_eq!(*stream, streaming_like_stream());
    }

    #[test]
    fn floor_delays_every_command() {
        let sim = simulator();
        let mut tracker = MemoryTracker::for_device(sim.device());
        let mut clocks = QueueClocks::new();
        let mut s = CommandStream::new();
        s.push(Command::kernel("k", small_kernel("k"), 0, []));
        let mut stepper = StreamStepper::new(s).unwrap().with_floor_ms(25.0);
        let ev = stepper
            .step(&sim, &mut clocks, &mut tracker, 0.0)
            .unwrap()
            .unwrap();
        assert_eq!(ev.start_ms, 25.0);
    }

    #[test]
    fn release_remaining_frees_leftover_allocations() {
        let sim = simulator();
        let mut tracker = MemoryTracker::for_device(sim.device());
        let mut clocks = QueueClocks::new();
        let mut s = CommandStream::new();
        s.push(Command::alloc(MemoryTier::TextureMemory, 10 << 20, []));
        s.push(Command::kernel("k", small_kernel("k"), 0, []));
        let mut stepper = StreamStepper::new(s).unwrap();
        while !stepper.is_done() {
            stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
        }
        assert_eq!(tracker.total_in_use(), 10 << 20);
        let freed = stepper.release_remaining(&mut tracker, 50.0).unwrap();
        assert_eq!(freed, 10 << 20);
        assert_eq!(tracker.total_in_use(), 0);
    }

    #[test]
    fn suspend_resume_is_bit_identical_at_every_boundary() {
        let stream = streaming_like_stream();
        let mut sim = simulator();
        let expected = sim.execute(stream.clone()).unwrap();

        for suspend_at in 0..stream.len() {
            let sim = simulator();
            let mut tracker = MemoryTracker::for_device(sim.device());
            let mut stepper = StreamStepper::new(stream.clone()).unwrap();
            let mut clocks = QueueClocks::new();
            for _ in 0..suspend_at {
                stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
            }
            let suspension = stepper.suspend(&clocks, clocks.horizon_ms());
            assert_eq!(suspension.remaining(), stream.len() - suspend_at);
            assert_eq!(suspension.evicted_bytes(), 0);
            let (mut stepper, mut clocks) = suspension.resume();
            while !stepper.is_done() {
                stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
            }
            let resumed = stepper.finish(&sim, &mut tracker);
            assert_eq!(resumed.total_time_ms, expected.total_time_ms);
            assert_eq!(resumed.init_time_ms, expected.init_time_ms);
            assert_eq!(resumed.peak_memory_bytes, expected.peak_memory_bytes);
            assert_eq!(resumed.average_memory_bytes, expected.average_memory_bytes);
            assert_eq!(resumed.timeline.events(), expected.timeline.events());
            assert_eq!(
                resumed.memory_trace.samples(),
                expected.memory_trace.samples()
            );
        }
    }

    #[test]
    fn evicting_suspension_releases_and_reacquires_residency() {
        let sim = simulator();
        let mut tracker = MemoryTracker::for_device(sim.device());
        let mut clocks = QueueClocks::new();
        let mut stepper = StreamStepper::new(streaming_like_stream()).unwrap();
        // Execute alloc + load (commands 0-1), so 64 MiB is resident.
        stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
        stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
        assert_eq!(tracker.total_in_use(), 64 << 20);
        let (unified, texture) = stepper.resident_split();
        assert_eq!((unified, texture), (64 << 20, 0));

        let now = clocks.horizon_ms();
        let suspension = stepper
            .suspend_evicting(&clocks, &mut tracker, now, 0.0)
            .unwrap();
        assert_eq!(tracker.total_in_use(), 0);
        assert_eq!(suspension.evicted_bytes(), 64 << 20);
        assert!(suspension.can_resume(&tracker));

        let (mut stepper, penalty) = suspension
            .resume_into(
                &sim,
                &mut tracker,
                now + 100.0,
                0.0,
                &PreemptionCost::free(),
            )
            .unwrap();
        assert_eq!(penalty, 0.0);
        assert_eq!(tracker.total_in_use(), 64 << 20);
        // The stream completes; the Free commands find their re-acquired
        // allocations (no lost handles).
        while !stepper.is_done() {
            stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
        }
        assert_eq!(tracker.total_in_use(), 0);
    }

    #[test]
    fn resume_penalty_charges_reload_and_delays_the_stream() {
        let sim = simulator();
        let mut tracker = MemoryTracker::for_device(sim.device());
        let mut clocks = QueueClocks::new();
        let mut stepper = StreamStepper::new(streaming_like_stream()).unwrap();
        stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
        stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
        let now = clocks.horizon_ms();
        let suspension = stepper
            .suspend_evicting(&clocks, &mut tracker, now, 0.0)
            .unwrap();
        let cost = PreemptionCost::reload().with_fixed_ms(2.0);
        let (mut stepper, penalty) = suspension
            .resume_into(&sim, &mut tracker, now, 0.0, &cost)
            .unwrap();
        // 64 MiB back through disk → unified is far from free.
        assert!(penalty > 2.0, "penalty {penalty}");
        let event = stepper
            .step(&sim, &mut clocks, &mut tracker, 0.0)
            .unwrap()
            .unwrap();
        assert!(event.start_ms >= now + penalty - 1e-9);
    }

    #[test]
    fn resume_into_rolls_back_on_oom() {
        let sim = simulator();
        let mut tracker = MemoryTracker::for_device(sim.device());
        let mut clocks = QueueClocks::new();
        let mut stepper = StreamStepper::new(streaming_like_stream()).unwrap();
        stepper.step(&sim, &mut clocks, &mut tracker, 0.0).unwrap();
        let suspension = stepper
            .suspend_evicting(&clocks, &mut tracker, 0.0, 0.0)
            .unwrap();
        // Fill the budget so the 64 MiB re-acquisition cannot fit.
        let hog_bytes = tracker.budget() - (32 << 20);
        let hog = tracker
            .allocate(MemoryTier::UnifiedMemory, hog_bytes, 0.0)
            .unwrap();
        assert!(!suspension.can_resume(&tracker));
        let err = suspension
            .resume_into(&sim, &mut tracker, 0.0, 0.0, &PreemptionCost::free())
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        // Rollback: only the hog remains.
        assert_eq!(tracker.total_in_use(), hog_bytes);
        tracker.free(MemoryTier::UnifiedMemory, hog, 0.0).unwrap();
    }

    #[test]
    fn energy_report_produced() {
        let mut sim = simulator();
        let mut s = CommandStream::new();
        s.push(Command::kernel("k", small_kernel("k"), 0, []));
        let out = sim.execute(s).unwrap();
        assert!(out.energy.energy_j > 0.0);
        assert!(out.energy.average_power_w > sim.device().idle_power_w);
    }
}
