//! Autoregressive decode on the simulated memory hierarchy.
//!
//! Generative models split inference into a *prefill* pass (the full prompt
//! through the whole graph, compiled and lowered exactly like a one-shot
//! request) followed by N *decode steps*, each pushing a single token through
//! the layers against a resident KV cache. This module models the step side:
//!
//! - [`DecodeStepPlan`] wraps the lowered single-token command stream and can
//!   derive a *batched* variant of it: per-step weight traffic is shared by
//!   every sequence in the batch, so only kernel compute and activation
//!   output scale with batch size. That asymmetry is the whole point of
//!   continuous batching on an IO-bound hierarchy — step latency grows far
//!   slower than batch size until compute catches up with the memory phase.
//! - [`KvCache`] charges per-token KV residency against the caller's
//!   [`MemoryTracker`], one allocation per context token, so KV bytes grow
//!   monotonically over a request's lifetime and are released in one sweep
//!   when it leaves.
//!
//! The step loop that drives them, with each request's token counts and
//! token instants, is the serving layer's continuous-batching engine.

use crate::bandwidth::MemoryTier;
use crate::engine::{
    CommandKind, CommandStream, GpuSimulator, QueueClocks, QueueKind, StreamStepper,
};
use crate::error::SimResult;
use crate::memory::{AllocationId, MemoryTracker};

/// Aggregate cost of replaying one (possibly batched) decode step or prefill
/// stream against idle queues.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepCost {
    /// Wall-clock makespan of the replay in milliseconds.
    pub makespan_ms: f64,
    /// Milliseconds with a transfer-queue command in flight.
    pub transfer_busy_ms: f64,
    /// Milliseconds with a compute-queue command in flight.
    pub compute_busy_ms: f64,
}

/// A compiled decode-step plan: the lowered command stream of the
/// single-token step graph, replayed once per generated token.
#[derive(Debug, Clone)]
pub struct DecodeStepPlan {
    base: CommandStream,
}

impl DecodeStepPlan {
    /// Wrap a validated single-token step stream.
    ///
    /// # Errors
    ///
    /// Propagates stream validation errors (dangling dependencies etc.).
    pub fn new(base: CommandStream) -> SimResult<Self> {
        base.validate()?;
        Ok(DecodeStepPlan { base })
    }

    /// The unbatched (batch = 1) step stream.
    pub fn base(&self) -> &CommandStream {
        &self.base
    }

    /// The step stream with `batch` sequences sharing it. Kernel compute
    /// (`flops`) and activation output (`bytes_out`) scale with the batch;
    /// kernel input traffic, weight transfers, transforms and allocations do
    /// not — at sequence length 1 they are dominated by weights, which are
    /// loaded once per step and reused by every sequence in the batch.
    /// `batched(1)` is the base stream unchanged.
    pub fn batched(&self, batch: usize) -> CommandStream {
        let batch = batch.max(1);
        if batch == 1 {
            return self.base.clone();
        }
        let mut stream = CommandStream::new();
        for cmd in self.base.commands() {
            let mut cmd = cmd.clone();
            if let CommandKind::Kernel { desc, .. } = &mut cmd.kind {
                desc.flops *= batch as f64;
                desc.bytes_out = desc.bytes_out.saturating_mul(batch as u64);
            }
            stream.push(cmd);
        }
        stream
    }

    /// Replay the `batch`-wide step stream against idle queues, charging
    /// transient allocations to `tracker` at `now_ms` and releasing them at
    /// the end of the step. Returns the step's aggregate cost.
    ///
    /// # Errors
    ///
    /// Propagates tracker errors — most importantly out-of-memory when the
    /// step's transients no longer fit next to the resident KV cache.
    pub fn replay(
        &self,
        sim: &GpuSimulator,
        tracker: &mut MemoryTracker,
        batch: usize,
        now_ms: f64,
    ) -> SimResult<StepCost> {
        replay_stream(&self.batched(batch), sim, tracker, now_ms)
    }
}

/// Replay any lowered stream against idle queues at absolute time `now_ms`,
/// releasing whatever it leaves allocated once it drains. Used for prefill
/// passes and decode steps alike.
///
/// # Errors
///
/// Propagates stream validation and tracker errors.
pub fn replay_stream(
    stream: &CommandStream,
    sim: &GpuSimulator,
    tracker: &mut MemoryTracker,
    now_ms: f64,
) -> SimResult<StepCost> {
    let mut stepper = StreamStepper::new(stream.clone())?;
    let mut clocks = QueueClocks::new();
    let mut cost = StepCost::default();
    while !stepper.is_done() {
        let Some(ev) = stepper.step(sim, &mut clocks, tracker, now_ms)? else {
            break;
        };
        match ev.queue {
            QueueKind::Transfer => cost.transfer_busy_ms += ev.duration_ms(),
            QueueKind::Compute => cost.compute_busy_ms += ev.duration_ms(),
            QueueKind::Host => {}
        }
    }
    cost.makespan_ms = stepper.makespan_ms();
    stepper.release_remaining(tracker, now_ms + cost.makespan_ms)?;
    Ok(cost)
}

/// Per-request KV-cache residency: one tracker allocation per context token
/// in unified memory, so the resident byte count grows monotonically until
/// [`release`](KvCache::release).
#[derive(Debug)]
pub struct KvCache {
    bytes_per_token: u64,
    chunks: Vec<AllocationId>,
}

impl KvCache {
    /// An empty cache charging `bytes_per_token` per context token.
    pub fn new(bytes_per_token: u64) -> Self {
        KvCache {
            bytes_per_token,
            chunks: Vec::new(),
        }
    }

    /// Bytes appended per context token.
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// Context tokens currently resident.
    pub fn tokens(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Resident KV bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.tokens() * self.bytes_per_token
    }

    /// Append `tokens` context tokens, charging each against `tracker` at
    /// `now_ms`. Returns the bytes added. `_label` is ignored: allocations
    /// carry no label.
    ///
    /// # Errors
    ///
    /// Propagates out-of-memory from the tracker; allocations made before
    /// the failing one stay charged (the caller releases on teardown).
    pub fn grow(
        &mut self,
        tracker: &mut MemoryTracker,
        tokens: u64,
        _label: &str,
        now_ms: f64,
    ) -> SimResult<u64> {
        for _ in 0..tokens {
            let id = tracker.allocate(MemoryTier::UnifiedMemory, self.bytes_per_token, now_ms)?;
            self.chunks.push(id);
        }
        Ok(tokens * self.bytes_per_token)
    }

    /// Release every resident token, returning the bytes freed.
    ///
    /// # Errors
    ///
    /// Propagates tracker errors on stale handles (a session bug, not a
    /// modelled outcome).
    pub fn release(&mut self, tracker: &mut MemoryTracker, now_ms: f64) -> SimResult<u64> {
        let mut freed = 0;
        for id in self.chunks.drain(..) {
            freed += tracker.free(MemoryTier::UnifiedMemory, id, now_ms)?;
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::engine::{Command, SimConfig};
    use crate::kernel::{KernelCategory, KernelDesc};

    fn step_stream() -> CommandStream {
        // A memory-bound step: stream 48 MiB of weights, then a kernel whose
        // memory phase dwarfs its compute phase (the seq-1 regime).
        let mut s = CommandStream::new();
        let w = s.push(Command::transfer(
            "weights",
            48 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [],
        ));
        let k = KernelDesc::new("step", KernelCategory::Reusable, 5.0e7, 48 << 20, 1 << 16);
        s.push(Command::kernel("mm", k, 0, [w]));
        s
    }

    fn harness() -> (GpuSimulator, MemoryTracker) {
        let device = DeviceSpec::oneplus_12();
        let tracker = MemoryTracker::for_device(&device);
        (GpuSimulator::new(device, SimConfig::default()), tracker)
    }

    #[test]
    fn batched_stream_scales_kernels_only() {
        let plan = DecodeStepPlan::new(step_stream()).unwrap();
        let b4 = plan.batched(4);
        for (base, batched) in plan.base().commands().iter().zip(b4.commands()) {
            match (&base.kind, &batched.kind) {
                (CommandKind::Kernel { desc: a, .. }, CommandKind::Kernel { desc: b, .. }) => {
                    assert_eq!(b.flops, 4.0 * a.flops);
                    assert_eq!(b.bytes_out, 4 * a.bytes_out);
                    assert_eq!(b.bytes_in, a.bytes_in);
                }
                (
                    CommandKind::Transfer { bytes: a, .. },
                    CommandKind::Transfer { bytes: b, .. },
                ) => {
                    assert_eq!(a, b);
                }
                _ => {}
            }
        }
        assert_eq!(
            plan.batched(1).commands().len(),
            plan.base().commands().len()
        );
    }

    #[test]
    fn batched_step_amortizes_weight_traffic() {
        let plan = DecodeStepPlan::new(step_stream()).unwrap();
        let (sim, mut tracker) = harness();
        let one = plan.replay(&sim, &mut tracker, 1, 0.0).unwrap();
        let eight = plan.replay(&sim, &mut tracker, 8, 0.0).unwrap();
        // Eight sequences per step must cost far less than eight serial steps.
        assert!(eight.makespan_ms > one.makespan_ms);
        assert!(
            eight.makespan_ms < 4.0 * one.makespan_ms,
            "batched step {} vs serial {}",
            eight.makespan_ms,
            8.0 * one.makespan_ms
        );
    }

    #[test]
    fn kv_cache_grows_monotonically_and_releases_fully() {
        let (_, mut tracker) = harness();
        let mut kv = KvCache::new(4096);
        let mut last = 0;
        for step in 0..10 {
            kv.grow(&mut tracker, 1, "kv", step as f64).unwrap();
            assert!(kv.resident_bytes() > last);
            last = kv.resident_bytes();
        }
        assert_eq!(kv.tokens(), 10);
        assert_eq!(tracker.total_in_use(), 10 * 4096);
        let freed = kv.release(&mut tracker, 11.0).unwrap();
        assert_eq!(freed, 10 * 4096);
        assert_eq!(tracker.total_in_use(), 0);
    }
}
