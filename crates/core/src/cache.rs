//! The keyed compilation-artifact cache.
//!
//! FlashMem's offline stage — adaptive fusion, capacity profiling and the
//! LC-OPG solve — is by far the most expensive part of `compile`, and both
//! the benchmark matrix and a multi-tenant server ask for the *same*
//! (engine, model, device) combination over and over. [`ArtifactCache`] sits
//! in front of [`InferenceEngine::compile`] and memoises the
//! [`CompiledArtifact`] under a fingerprint of the engine configuration, the
//! model and the device, with hit/miss counters that experiment drivers
//! surface in their reports. Each artifact is held behind an `Arc` that
//! [`ArtifactCache::compile_shared`] hands out on every lookup;
//! [`ArtifactCache::compile`] clones it for callers that need ownership.
//!
//! Compilation is deterministic, so a cached artifact is byte-identical to a
//! cold compile; the cache changes *when* planning work happens, never what
//! executes.
//!
//! The cache is built for concurrent use by the
//! [`pool`](crate::pool)-parallel sweeps: entries live in [`SHARD_COUNT`]
//! independently locked shards (threads compiling *different* keys contend
//! only when their keys collide on a shard), and each shard tracks **per-key
//! in-flight compiles** — when N threads race on one uncompiled key, exactly
//! one runs the LC-OPG solve while the others block on a condvar and then
//! read the finished artifact. That keeps the hit/miss counters exact and
//! schedule-independent: for any interleaving, a key's first successful
//! compile is the one miss and every other lookup is a hit, the same totals
//! a serial run produces.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::ModelSpec;

use crate::engine::{CompiledArtifact, InferenceEngine};
use crate::metrics::ExecutionReport;

/// 64-bit FNV-1a, the workspace's stand-in for a hasher with a stable,
/// documented output (we key a cache with it, so stability across runs and
/// platforms matters more than speed).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Fold raw bytes into the state.
    pub fn write(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Fold a string (length-prefixed so `"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn write_str(self, s: &str) -> Self {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// Fold a `u64`.
    pub fn write_u64(self, v: u64) -> Self {
        self.write(&v.to_le_bytes())
    }

    /// Fold an `f64` by bit pattern.
    pub fn write_f64(self, v: f64) -> Self {
        self.write_u64(v.to_bits())
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Fingerprint of the device parameters that influence compilation.
fn device_fingerprint(device: &DeviceSpec) -> u64 {
    Fnv1a::new()
        .write_str(&device.name)
        .write_str(&device.gpu)
        .write_u64(device.ram_bytes)
        .write_u64(device.app_budget_bytes)
        .write_u64(device.texture_budget_bytes)
        .write_f64(device.disk_bw)
        .write_f64(device.unified_bw)
        .write_f64(device.texture_bw)
        .write_f64(device.texture_cache_bw)
        .write_f64(device.fp16_flops)
        .write_f64(device.fp32_flops)
        .write_u64(u64::from(device.num_sms))
        .write_f64(device.kernel_launch_overhead_ms)
        .finish()
}

/// Fingerprint of the model identity (name, abbreviation and graph shape).
fn model_fingerprint(model: &ModelSpec) -> u64 {
    let graph = model.graph();
    Fnv1a::new()
        .write_str(&model.name)
        .write_str(&model.abbr)
        .write_str(graph.name())
        .write_u64(graph.len() as u64)
        .finish()
}

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Distinct artifacts currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.0}% hit rate, {} entries)",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries
        )
    }
}

/// Number of independently locked shards. A power of two so shard selection
/// is a mask over the (well-mixed) FNV key; 16 keeps lock contention
/// negligible for any realistic pool width while costing nothing when the
/// cache is used serially.
pub const SHARD_COUNT: usize = 16;

const POISONED: &str = "artifact cache poisoned";

/// Rendezvous for threads waiting on another thread's in-flight compile of
/// the same key.
#[derive(Debug, Default)]
struct InFlightCompile {
    done: Mutex<bool>,
    finished: Condvar,
}

impl InFlightCompile {
    fn finish(&self) {
        *self.done.lock().expect(POISONED) = true;
        self.finished.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect(POISONED);
        while !*done {
            done = self.finished.wait(done).expect(POISONED);
        }
    }
}

/// One shard entry: a finished artifact, or a marker that some thread is
/// compiling this key right now.
#[derive(Debug)]
enum Slot {
    Ready(Arc<CompiledArtifact>),
    InFlight(Arc<InFlightCompile>),
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Slot>,
    hits: u64,
    misses: u64,
}

/// Removes a key's in-flight marker (and wakes its waiters) if the owning
/// compile unwinds, so a panicking engine cannot strand waiters forever.
struct FlightGuard<'a> {
    shard: &'a Mutex<Shard>,
    key: u64,
    flight: Arc<InFlightCompile>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut shard = self.shard.lock().expect(POISONED);
        // Only remove *our* marker: `clear()` may have dropped it already
        // and another thread may have started a fresh compile since.
        if let Some(Slot::InFlight(current)) = shard.map.get(&self.key) {
            if Arc::ptr_eq(current, &self.flight) {
                shard.map.remove(&self.key);
            }
        }
        drop(shard);
        self.flight.finish();
    }
}

/// A thread-safe artifact cache keyed by engine × model × device fingerprint.
///
/// The engine part of the key combines [`InferenceEngine::name`] (which
/// already distinguishes configuration variants in every registry the
/// workspace builds) with [`InferenceEngine::cache_salt`], a fingerprint of
/// the engine's configuration, so two engines that happen to share a display
/// name but differ in configuration can never alias.
///
/// The cache is `Sync` by lock sharding (see the [module docs](self)):
/// concurrent compiles of the same key collapse onto one LC-OPG solve, so a
/// pool-parallel sweep does exactly the set of solves its serial twin does.
#[derive(Debug)]
pub struct ArtifactCache {
    shards: Box<[Mutex<Shard>]>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache::default()
    }

    fn shard_for(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key as usize) & (SHARD_COUNT - 1)]
    }

    /// The cache key for an (engine, model, device) combination.
    pub fn key_for(engine: &dyn InferenceEngine, model: &ModelSpec, device: &DeviceSpec) -> u64 {
        Fnv1a::new()
            .write_str(engine.kind().name())
            .write_str(&engine.name())
            .write_u64(engine.cache_salt())
            .write_u64(model_fingerprint(model))
            .write_u64(device_fingerprint(device))
            .finish()
    }

    /// Probe whether `key` (from [`Self::key_for`]) already holds a finished
    /// artifact, without counting a hit and without blocking on an in-flight
    /// compile. This is the "was the plan warm?" snapshot the serving layer
    /// takes in its sequential prologue before fanning a fleet out, so
    /// per-request `cache_hit` telemetry stays schedule-independent instead
    /// of recording which worker happened to win an intra-run compile race.
    pub fn is_warm(&self, key: u64) -> bool {
        let shard = self.shard_for(key).lock().expect(POISONED);
        matches!(shard.map.get(&key), Some(Slot::Ready(_)))
    }

    /// Compile through the cache: returns the shared artifact plus `true`
    /// when it was served from the cache, `false` on a cold compile. Every
    /// lookup of a key hands out the same `Arc`, so a warm hit copies no
    /// plan.
    ///
    /// When another thread is already compiling the same key, this blocks on
    /// its in-flight marker and then returns the finished artifact as a hit
    /// — never a second LC-OPG solve for the same key.
    ///
    /// # Errors
    ///
    /// Propagates [`InferenceEngine::compile`] errors; failures are not
    /// cached (a thread waiting on a compile that fails retries the lookup
    /// and surfaces its own error).
    pub fn compile_shared(
        &self,
        engine: &dyn InferenceEngine,
        model: &ModelSpec,
        device: &DeviceSpec,
    ) -> SimResult<(Arc<CompiledArtifact>, bool)> {
        let key = Self::key_for(engine, model, device);
        let shard = self.shard_for(key);
        let flight = loop {
            let waiter = {
                let mut shard = shard.lock().expect(POISONED);
                match shard.map.get(&key) {
                    Some(Slot::Ready(artifact)) => {
                        let artifact = Arc::clone(artifact);
                        shard.hits += 1;
                        return Ok((artifact, true));
                    }
                    Some(Slot::InFlight(flight)) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(InFlightCompile::default());
                        shard.map.insert(key, Slot::InFlight(Arc::clone(&flight)));
                        break flight;
                    }
                }
            };
            // Another thread owns this key's compile: park until it finishes,
            // then re-probe. On success the slot is `Ready` (counted as a
            // hit, exactly as a serial second lookup would be); on failure
            // the slot is gone and this thread takes the compile over.
            waiter.wait();
        };
        // This thread owns the compile for `key`. Solve outside the shard
        // lock: LC-OPG is the expensive part and other threads must be able
        // to hit unrelated keys meanwhile.
        let mut guard = FlightGuard {
            shard,
            key,
            flight,
            armed: true,
        };
        let artifact = Arc::new(engine.compile(model, device)?); // guard cleans up on Err/panic
        {
            let mut shard = shard.lock().expect(POISONED);
            shard.misses += 1;
            shard.map.insert(key, Slot::Ready(Arc::clone(&artifact)));
            guard.armed = false;
        }
        guard.flight.finish();
        Ok((artifact, false))
    }

    /// [`Self::compile_shared`] for callers that need an owned artifact:
    /// the same lookup and counters, plus one deep clone of the plan.
    ///
    /// # Errors
    ///
    /// As [`Self::compile_shared`].
    pub fn compile(
        &self,
        engine: &dyn InferenceEngine,
        model: &ModelSpec,
        device: &DeviceSpec,
    ) -> SimResult<(CompiledArtifact, bool)> {
        self.compile_shared(engine, model, device)
            .map(|(artifact, hit)| (CompiledArtifact::clone(&artifact), hit))
    }

    /// Counter snapshot, summed over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock().expect(POISONED);
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.entries += shard
                .map
                .values()
                .filter(|slot| matches!(slot, Slot::Ready(_)))
                .count();
        }
        stats
    }

    /// Number of cached artifacts (in-flight compiles are not counted).
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every finished artifact and reset the counters. In-flight
    /// markers are left in place so racing compiles complete cleanly.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect(POISONED);
            shard
                .map
                .retain(|_, slot| matches!(slot, Slot::InFlight(_)));
            shard.hits = 0;
            shard.misses = 0;
        }
    }
}

/// Run `engine` on `model`/`device`, compiling through `cache`.
///
/// # Errors
///
/// Propagates compile and execution errors.
pub fn run_cached(
    cache: &ArtifactCache,
    engine: &dyn InferenceEngine,
    model: &ModelSpec,
    device: &DeviceSpec,
) -> SimResult<ExecutionReport> {
    let (artifact, _) = cache.compile_shared(engine, model, device)?;
    engine.execute(model, &artifact, device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlashMemConfig;
    use crate::engine::FlashMemVariant;
    use flashmem_graph::ModelZoo;

    fn engine() -> FlashMemVariant {
        FlashMemVariant::new("FlashMem", FlashMemConfig::memory_priority())
    }

    #[test]
    fn second_compile_hits_and_returns_an_identical_artifact() {
        let cache = ArtifactCache::new();
        let model = ModelZoo::gptneo_small();
        let device = DeviceSpec::oneplus_12();
        let engine = engine();
        let (cold, hit0) = cache.compile_shared(&engine, &model, &device).unwrap();
        let (warm, hit1) = cache.compile_shared(&engine, &model, &device).unwrap();
        assert!(!hit0);
        assert!(hit1);
        // Every lookup of a key shares the one cached artifact.
        assert!(Arc::ptr_eq(&cold, &warm));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // The owned lookup is the same lookup plus a deep copy: it counts a
        // hit, and the copy is equal and replays identically.
        let (owned, hit2) = cache.compile(&engine, &model, &device).unwrap();
        assert!(hit2);
        assert_eq!(format!("{owned:?}"), format!("{cold:?}"));
        let a = engine.execute(&model, &cold, &device).unwrap();
        let b = engine.execute(&model, &owned, &device).unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn is_warm_probes_without_counting_a_hit() {
        let cache = ArtifactCache::new();
        let model = ModelZoo::gptneo_small();
        let device = DeviceSpec::oneplus_12();
        let engine = engine();
        let key = ArtifactCache::key_for(&engine, &model, &device);
        assert!(!cache.is_warm(key));
        cache.compile(&engine, &model, &device).unwrap();
        assert!(cache.is_warm(key));
        // Probing is telemetry-neutral: the compile above is still the only
        // counted event.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    #[test]
    fn keys_distinguish_model_device_and_config() {
        let model_a = ModelZoo::gptneo_small();
        let model_b = ModelZoo::vit();
        let dev_a = DeviceSpec::oneplus_12();
        let dev_b = DeviceSpec::xiaomi_mi_6();
        let capped = dev_a.clone().with_app_budget_bytes(1 << 30);
        let e1 = engine();
        let e2 = FlashMemVariant::new("FlashMem", FlashMemConfig::latency_priority());
        let base = ArtifactCache::key_for(&e1, &model_a, &dev_a);
        assert_ne!(base, ArtifactCache::key_for(&e1, &model_b, &dev_a));
        assert_ne!(base, ArtifactCache::key_for(&e1, &model_a, &dev_b));
        assert_ne!(base, ArtifactCache::key_for(&e1, &model_a, &capped));
        // Same display name, different configuration: the salt must split them.
        assert_ne!(base, ArtifactCache::key_for(&e2, &model_a, &dev_a));
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let cache = ArtifactCache::new();
        let model = ModelZoo::gptneo_small();
        let device = DeviceSpec::oneplus_12();
        cache.compile(&engine(), &model, &device).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
