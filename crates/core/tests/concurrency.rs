//! Concurrency oracles for the sharded [`ArtifactCache`] and the [`ThreadPool`].
//!
//! The bar the parallel sweeps are held to: N threads racing on one
//! uncompiled key must run **exactly one** compile (no double LC-OPG solve,
//! hit/miss counters exact for any interleaving), and a pool-parallel sweep
//! must be byte-identical to its serial twin.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use flashmem_core::cache::ArtifactCache;
use flashmem_core::engine::{CompiledArtifact, FlashMemVariant, FrameworkKind, InferenceEngine};
use flashmem_core::pool::ThreadPool;
use flashmem_core::{ExecutionReport, FlashMemConfig};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{ModelSpec, ModelZoo};

/// An engine decorator that counts compiles and stretches each one out, so
/// racing threads genuinely overlap inside `compile` unless the cache's
/// in-flight deduplication collapses them.
struct CountingEngine {
    inner: FlashMemVariant,
    compiles: AtomicUsize,
    delay: Duration,
}

impl CountingEngine {
    fn new(delay: Duration) -> Self {
        CountingEngine {
            inner: FlashMemVariant::new("FlashMem", FlashMemConfig::memory_priority()),
            compiles: AtomicUsize::new(0),
            delay,
        }
    }

    fn compiles(&self) -> usize {
        self.compiles.load(Ordering::SeqCst)
    }
}

impl InferenceEngine for CountingEngine {
    fn kind(&self) -> FrameworkKind {
        self.inner.kind()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn cache_salt(&self) -> u64 {
        self.inner.cache_salt()
    }

    fn compile(&self, model: &ModelSpec, device: &DeviceSpec) -> SimResult<CompiledArtifact> {
        self.compiles.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner.compile(model, device)
    }

    fn execute(
        &self,
        model: &ModelSpec,
        artifact: &CompiledArtifact,
        device: &DeviceSpec,
    ) -> SimResult<ExecutionReport> {
        self.inner.execute(model, artifact, device)
    }
}

#[test]
fn n_threads_on_one_key_compile_exactly_once_with_exact_counters() {
    const THREADS: usize = 8;
    let cache = Arc::new(ArtifactCache::new());
    let engine = Arc::new(CountingEngine::new(Duration::from_millis(30)));
    let model = ModelZoo::gptneo_small();
    let device = DeviceSpec::oneplus_12();
    // A barrier (not the pool) so all eight lookups are provably in flight
    // at once: whoever wins the race solves, the rest must block and reuse.
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let cache = Arc::clone(&cache);
        let engine = Arc::clone(&engine);
        let barrier = Arc::clone(&barrier);
        let model = model.clone();
        let device = device.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            cache
                .compile_shared(engine.as_ref(), &model, &device)
                .expect("compile succeeds")
        }));
    }
    let results: Vec<(Arc<CompiledArtifact>, bool)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Exactly one LC-OPG solve ran; the other seven threads waited on the
    // in-flight marker and were served the finished artifact as hits.
    assert_eq!(engine.compiles(), 1, "the same key was solved twice");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, (THREADS - 1) as u64);
    assert_eq!(stats.entries, 1);
    assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
    // Every thread holds the one artifact the winner compiled.
    assert!(results.iter().all(|(a, _)| Arc::ptr_eq(a, &results[0].0)));
}

#[test]
fn distinct_keys_compile_independently_under_the_pool() {
    let cache = Arc::new(ArtifactCache::new());
    let engine = CountingEngine::new(Duration::from_millis(1));
    let device = DeviceSpec::oneplus_12();
    let models = [
        ModelZoo::gptneo_small(),
        ModelZoo::resnet50(),
        ModelZoo::vit(),
    ];
    let pool = ThreadPool::with_threads(4);
    // Each model looked up three times concurrently: 3 solves total.
    let lookups: Vec<ModelSpec> = (0..9).map(|i| models[i % 3].clone()).collect();
    let hits = pool.parallel_map(lookups, |model| {
        let (_, hit) = cache
            .compile(&engine, &model, &device)
            .expect("compile succeeds");
        hit
    });
    assert_eq!(engine.compiles(), 3);
    let stats = cache.stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, 6);
    assert_eq!(stats.entries, 3);
    assert_eq!(hits.iter().filter(|hit| !**hit).count(), 3);
}

#[test]
fn pool_cache_stress_matches_serial_counters_and_artifacts() {
    // A seeded stress mix of repeated keys through a wide pool: totals must
    // equal the serial run's (first touch = miss, everything else = hit),
    // independent of interleaving.
    let models = [ModelZoo::gptneo_small(), ModelZoo::vit()];
    let devices = [DeviceSpec::oneplus_12(), DeviceSpec::xiaomi_mi_6()];
    let mut mix: Vec<(usize, usize)> = Vec::new();
    let mut state = 0x5EED_5EEDu64;
    for _ in 0..24 {
        // SplitMix64 step, inlined: deterministic lookup order.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        mix.push(((z as usize) % 2, ((z >> 8) as usize) % 2));
    }

    let run = |threads: usize| {
        let cache = ArtifactCache::new();
        let engine = CountingEngine::new(Duration::from_millis(2));
        let pool = ThreadPool::with_threads(threads);
        let fractions = pool.parallel_map(mix.clone(), |(m, d)| {
            let (artifact, _) = cache
                .compile(&engine, &models[m], &devices[d])
                .expect("compile succeeds");
            artifact.streamed_fraction()
        });
        (cache.stats(), engine.compiles(), fractions)
    };

    let (serial_stats, serial_compiles, serial_fractions) = run(1);
    let (parallel_stats, parallel_compiles, parallel_fractions) = run(6);
    assert_eq!(serial_stats, parallel_stats);
    assert_eq!(serial_compiles, parallel_compiles);
    // Deterministic compilation + order-stable pool: identical outputs.
    assert_eq!(serial_fractions, parallel_fractions);
}
