//! Memory pools and the cross-pool memory tracker.
//!
//! The paper's evaluation reports two memory quantities per run (Tables 1
//! and 8): **peak** memory and **average** memory over the execution timeline.
//! [`MemoryPool`] tracks live allocations inside a single tier (unified or
//! texture memory); [`MemoryTracker`] aggregates the pools and records a
//! time-stamped usage trace that keeps both statistics as running values,
//! and the series itself when the tracker is built to keep it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::bandwidth::MemoryTier;
use crate::error::{SimError, SimResult};
use crate::trace::MemoryTrace;

/// Handle to a live allocation inside a [`MemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AllocationId(pub u64);

/// Hashes a pool's allocation ids with one multiply by an odd constant.
/// The ids are sequential, so the products spread over every bucket
/// without SipHash's rounds. Nothing reads the map's iteration order.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Ids arrive through `write_u64`; any other key folds in bytewise.
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A single memory pool (one tier of the hierarchy) with capacity accounting.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    name: String,
    tier: MemoryTier,
    capacity: u64,
    in_use: u64,
    high_water: u64,
    next_id: u64,
    live: HashMap<u64, Allocation, BuildHasherDefault<IdHasher>>,
}

/// Metadata retained for every live allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Bytes occupied by the allocation.
    pub bytes: u64,
}

impl MemoryPool {
    /// Create a pool named `name` for `tier` with `capacity` bytes.
    pub fn new(name: &str, tier: MemoryTier, capacity: u64) -> Self {
        MemoryPool {
            name: name.to_string(),
            tier,
            capacity,
            in_use: 0,
            high_water: 0,
            next_id: 1,
            live: HashMap::default(),
        }
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tier this pool models.
    pub fn tier(&self) -> MemoryTier {
        self.tier
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.in_use)
    }

    /// Highest occupancy ever observed, in bytes.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Allocate `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the allocation would exceed the
    /// pool capacity. The pool is left unchanged in that case.
    pub fn allocate(&mut self, bytes: u64) -> SimResult<AllocationId> {
        if self.in_use.saturating_add(bytes) > self.capacity {
            return Err(SimError::OutOfMemory {
                pool: self.name.clone(),
                requested: bytes,
                available: self.available(),
                capacity: self.capacity,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.in_use += bytes;
        self.high_water = self.high_water.max(self.in_use);
        self.live.insert(id, Allocation { bytes });
        Ok(AllocationId(id))
    }

    /// Free a previous allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownAllocation`] if the handle is stale.
    pub fn free(&mut self, id: AllocationId) -> SimResult<u64> {
        match self.live.remove(&id.0) {
            Some(alloc) => {
                self.in_use -= alloc.bytes;
                Ok(alloc.bytes)
            }
            None => Err(SimError::UnknownAllocation { id: id.0 }),
        }
    }

    /// Look up a live allocation.
    pub fn get(&self, id: AllocationId) -> Option<&Allocation> {
        self.live.get(&id.0)
    }

    /// Free every live allocation (used when a model is evicted wholesale in
    /// multi-DNN FIFO execution).
    pub fn clear(&mut self) {
        self.live.clear();
        self.in_use = 0;
    }

    /// Iterate over live allocations in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (AllocationId, &Allocation)> {
        self.live.iter().map(|(k, v)| (AllocationId(*k), v))
    }
}

/// Aggregated memory accounting across the unified- and texture-memory pools,
/// with a time-stamped usage trace.
///
/// The *total footprint* at any instant is the sum of bytes live in all pools;
/// peak and average are computed over the recorded trace, matching how the
/// paper reports "Peak" and "Avg." memory in Table 1 and "Average Memory" in
/// Table 8. The trace keeps its series unless the tracker is built
/// [`with_series(false)`](Self::with_series), which a long serving run uses
/// so its memory does not grow with the work it simulates.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    unified: MemoryPool,
    texture: MemoryPool,
    trace: MemoryTrace,
    budget: u64,
    /// Largest footprint recorded since [`take_recent_peak`](Self::take_recent_peak)
    /// last ran.
    recent_peak: u64,
}

impl MemoryTracker {
    /// Create a tracker with per-tier capacities and an overall app budget
    /// (exceeding the budget is an OOM even if the individual pools fit).
    pub fn new(unified_capacity: u64, texture_capacity: u64, budget: u64) -> Self {
        MemoryTracker {
            unified: MemoryPool::new("unified", MemoryTier::UnifiedMemory, unified_capacity),
            texture: MemoryPool::new("texture", MemoryTier::TextureMemory, texture_capacity),
            trace: MemoryTrace::new(),
            budget,
            recent_peak: 0,
        }
    }

    /// Keep the usage trace's series (`true`, the default) or only its
    /// running statistics (builder style). Either way the peak, the
    /// average and every other statistic stay exact.
    pub fn with_series(mut self, keep: bool) -> Self {
        self.trace = MemoryTrace::empty(keep);
        self
    }

    /// Build a tracker from a device spec, using the device's app budget.
    pub fn for_device(device: &crate::device::DeviceSpec) -> Self {
        Self::new(
            device.app_budget_bytes,
            device.texture_budget_bytes,
            device.app_budget_bytes,
        )
    }

    /// The unified-memory pool.
    pub fn unified(&self) -> &MemoryPool {
        &self.unified
    }

    /// The texture-memory pool.
    pub fn texture(&self) -> &MemoryPool {
        &self.texture
    }

    /// Total bytes currently live across both pools.
    pub fn total_in_use(&self) -> u64 {
        self.unified.in_use() + self.texture.in_use()
    }

    /// The overall app budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Allocate in the pool backing `tier` at simulated time `now_ms`.
    ///
    /// # Errors
    ///
    /// * [`SimError::OutOfMemory`] if the pool or the overall budget would be
    ///   exceeded.
    /// * [`SimError::InvalidParameter`] for tiers that are not allocatable
    ///   (disk, texture cache, SM registers).
    pub fn allocate(
        &mut self,
        tier: MemoryTier,
        bytes: u64,
        now_ms: f64,
    ) -> SimResult<AllocationId> {
        if self.total_in_use().saturating_add(bytes) > self.budget {
            return Err(SimError::OutOfMemory {
                pool: "app budget".to_string(),
                requested: bytes,
                available: self.budget.saturating_sub(self.total_in_use()),
                capacity: self.budget,
            });
        }
        let id = match tier {
            MemoryTier::UnifiedMemory => self.unified.allocate(bytes)?,
            MemoryTier::TextureMemory => self.texture.allocate(bytes)?,
            other => {
                return Err(SimError::InvalidParameter {
                    message: format!("cannot allocate in tier `{other}`"),
                })
            }
        };
        self.record(now_ms);
        Ok(id)
    }

    /// Free an allocation previously made in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownAllocation`] for stale handles and
    /// [`SimError::InvalidParameter`] for non-allocatable tiers.
    pub fn free(&mut self, tier: MemoryTier, id: AllocationId, now_ms: f64) -> SimResult<u64> {
        let bytes = match tier {
            MemoryTier::UnifiedMemory => self.unified.free(id)?,
            MemoryTier::TextureMemory => self.texture.free(id)?,
            other => {
                return Err(SimError::InvalidParameter {
                    message: format!("cannot free in tier `{other}`"),
                })
            }
        };
        self.record(now_ms);
        Ok(bytes)
    }

    /// Record the current occupancy without changing it (useful to extend the
    /// trace to the end of an execution).
    pub fn sample(&mut self, now_ms: f64) {
        self.record(now_ms);
    }

    /// Record the current occupancy into the trace and the recent peak.
    fn record(&mut self, now_ms: f64) {
        let total = self.total_in_use();
        self.trace.record(now_ms, total);
        self.recent_peak = self.recent_peak.max(total);
    }

    /// The largest footprint recorded since the previous call (or since the
    /// tracker was built), 0 if nothing was recorded since; the next window
    /// starts empty. A caller that folds this into every live request at
    /// each request boundary gets each request's peak over its own lifetime
    /// without keeping the series.
    pub fn take_recent_peak(&mut self) -> u64 {
        std::mem::take(&mut self.recent_peak)
    }

    /// Peak total footprint observed so far, in bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.trace.peak_bytes()
    }

    /// Time-weighted average footprint in bytes.
    pub fn average_bytes(&self) -> f64 {
        self.trace.average_bytes()
    }

    /// The usage trace (for Figure 6-style plots when it keeps its series).
    pub fn trace(&self) -> &MemoryTrace {
        &self.trace
    }

    /// Consume the tracker and keep only its usage trace, without copying
    /// the samples.
    pub fn into_trace(self) -> MemoryTrace {
        self.trace
    }

    /// Hand over the trace accumulated so far, without copying its samples,
    /// and start an empty one that keeps a series exactly when it did. Live
    /// allocations and capacity state stay.
    pub fn take_trace(&mut self) -> MemoryTrace {
        let fresh = MemoryTrace::empty(self.trace.keeps_series());
        std::mem::replace(&mut self.trace, fresh)
    }

    /// Discard the trace accumulated so far while keeping live allocations
    /// and capacity state.
    ///
    /// Multi-run scenarios call this between executions so each run's
    /// outcome carries only its own trace segment in run-local time —
    /// without it, `trace()` keeps the previous run's samples and
    /// [`MemoryTrace::record`]'s monotonic-time clamping pushes the new
    /// run's (smaller) local timestamps forward onto the old run's end.
    pub fn reset_trace(&mut self) {
        self.take_trace();
    }

    /// Drop every live allocation in both pools (model eviction).
    pub fn evict_all(&mut self, now_ms: f64) {
        self.unified.clear();
        self.texture.clear();
        self.record(now_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn allocate_and_free_round_trip() {
        let mut pool = MemoryPool::new("unified", MemoryTier::UnifiedMemory, 100 * MB);
        let a = pool.allocate(10 * MB).unwrap();
        let b = pool.allocate(20 * MB).unwrap();
        assert_eq!(pool.in_use(), 30 * MB);
        assert_eq!(pool.live_count(), 2);
        assert_eq!(pool.free(a).unwrap(), 10 * MB);
        assert_eq!(pool.in_use(), 20 * MB);
        assert_eq!(pool.get(b).unwrap().bytes, 20 * MB);
        assert_eq!(pool.high_water(), 30 * MB);
    }

    #[test]
    fn sequential_ids_hash_to_distinct_buckets() {
        // Any 2^k consecutive ids differ in their hashes' low k bits, so a
        // table of 2^k buckets takes them without a collision.
        let mut buckets = std::collections::HashSet::new();
        for id in 1..=1024 {
            let mut hasher = IdHasher::default();
            hasher.write_u64(id);
            assert!(buckets.insert(hasher.finish() & 1023), "id {id}");
        }
    }

    #[test]
    fn oom_when_over_capacity() {
        let mut pool = MemoryPool::new("texture", MemoryTier::TextureMemory, 10 * MB);
        pool.allocate(8 * MB).unwrap();
        let err = pool.allocate(4 * MB).unwrap_err();
        match err {
            SimError::OutOfMemory {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, 4 * MB);
                assert_eq!(available, 2 * MB);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Failed allocation must not change occupancy.
        assert_eq!(pool.in_use(), 8 * MB);
    }

    #[test]
    fn double_free_is_detected() {
        let mut pool = MemoryPool::new("u", MemoryTier::UnifiedMemory, MB);
        let a = pool.allocate(1).unwrap();
        pool.free(a).unwrap();
        assert!(matches!(
            pool.free(a),
            Err(SimError::UnknownAllocation { .. })
        ));
    }

    #[test]
    fn tracker_budget_enforced_across_pools() {
        let mut t = MemoryTracker::new(100 * MB, 100 * MB, 120 * MB);
        t.allocate(MemoryTier::UnifiedMemory, 80 * MB, 0.0).unwrap();
        t.allocate(MemoryTier::TextureMemory, 30 * MB, 1.0).unwrap();
        // Both pools individually have room, but the app budget is exhausted.
        let err = t
            .allocate(MemoryTier::TextureMemory, 20 * MB, 2.0)
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn tracker_peak_and_average() {
        let mut t = MemoryTracker::new(100 * MB, 100 * MB, 200 * MB);
        let a = t.allocate(MemoryTier::UnifiedMemory, 50 * MB, 0.0).unwrap();
        t.sample(10.0);
        t.free(MemoryTier::UnifiedMemory, a, 10.0).unwrap();
        t.sample(20.0);
        assert_eq!(t.peak_bytes(), 50 * MB);
        // 50 MB for the first half of the timeline, 0 for the second half.
        let avg = t.average_bytes();
        assert!(avg > 20.0 * MB as f64 && avg < 30.0 * MB as f64, "{avg}");
    }

    #[test]
    fn cannot_allocate_in_disk_tier() {
        let mut t = MemoryTracker::new(MB, MB, MB);
        assert!(matches!(
            t.allocate(MemoryTier::Disk, 1, 0.0),
            Err(SimError::InvalidParameter { .. })
        ));
        assert!(matches!(
            t.free(MemoryTier::Disk, AllocationId(1), 0.0),
            Err(SimError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn evict_all_resets_usage() {
        let mut t = MemoryTracker::new(100 * MB, 100 * MB, 200 * MB);
        t.allocate(MemoryTier::UnifiedMemory, 10 * MB, 0.0).unwrap();
        t.allocate(MemoryTier::TextureMemory, 10 * MB, 0.0).unwrap();
        t.evict_all(5.0);
        assert_eq!(t.total_in_use(), 0);
        assert_eq!(t.peak_bytes(), 20 * MB);
    }

    #[test]
    fn for_device_uses_app_budget() {
        let device = crate::device::DeviceSpec::xiaomi_mi_6();
        let t = MemoryTracker::for_device(&device);
        assert_eq!(t.budget(), device.app_budget_bytes);
    }
}
