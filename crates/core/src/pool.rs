//! A std-only thread pool for embarrassingly parallel sweeps.
//!
//! Everything above the deterministic simulator — the benchmark matrix, the
//! serving sweep, the scheduler fuzz harness — is a pile of independent
//! (compile, execute) jobs that used to run on one OS thread, so wall-clock
//! time bounded how many scenarios a CI run could afford. This pool fans
//! those jobs out across OS threads with nothing but `std`: no tokio, no
//! rayon, no crossbeam.
//!
//! Every caller hands over a complete batch, so the pool is one ordered,
//! self-scheduling map:
//!
//! * **Scoped join** — jobs may borrow the caller's data (engine registries,
//!   model slices, device specs), so execution happens inside
//!   [`std::thread::scope`]: every worker is joined before
//!   [`ThreadPool::parallel_map`] returns and borrows never outlive the call.
//! * **Self-scheduling** — a width-`n` map over `len` items spawns
//!   `min(n, len) − 1` workers. The caller runs job 0 first, so that job
//!   allocates from the caller's own heap rather than a fresh thread's
//!   malloc arena; then every thread claims the next unclaimed index from
//!   one shared counter until none is left. A slow job delays only the
//!   thread running it.
//! * **Deterministic results** — each job's result lands in its index's
//!   slot, so the output order is the input order no matter how the jobs
//!   interleave. Combined with the deterministic simulator this is what
//!   keeps parallel bench JSON byte-identical to serial runs.
//!   [`ThreadPool::try_parallel_map`] extends the same guarantee to fallible
//!   jobs (the serve fleet's per-device timelines): every job completes, then
//!   the first failure *by index* is the one propagated, and a panicking job
//!   is caught and re-raised on the caller.
//! * **Serial bisection path** — a pool of width 1 (`--threads 1`,
//!   `FLASHMEM_THREADS=1`) does not spawn a single thread: jobs run inline on
//!   the caller thread in input order, the exact code path the serial
//!   harness always took.
//! * **No nested fan-out** — a pool call made *from inside a pool job*
//!   (e.g. `run_matrix` invoked by a `bin/all` experiment job) runs inline
//!   serially rather than spawning `threads²` workers; the outer fan-out
//!   already owns the hardware.
//!
//! The process-wide pool used by the bench harness and the fuzz harness is
//! [`global`]; its width comes from the `FLASHMEM_THREADS` environment
//! variable when set (the bench binaries also accept `--threads N` and call
//! [`configure_global`] before first use), falling back to
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding the [`global`] pool's worker count.
pub const THREADS_ENV: &str = "FLASHMEM_THREADS";

const POISONED: &str = "thread pool lock poisoned";

std::thread_local! {
    /// Set while a thread runs pool jobs, so nested pool calls run inline
    /// instead of spawning `threads²` threads.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_worker() -> bool {
    IN_WORKER.with(std::cell::Cell::get)
}

/// Marks the current thread as running pool jobs until dropped. The caller
/// thread leaves that mode again even when one of its jobs panics.
struct WorkerMode;

impl WorkerMode {
    fn enter() -> Self {
        IN_WORKER.with(|flag| flag.set(true));
        WorkerMode
    }
}

impl Drop for WorkerMode {
    fn drop(&mut self) {
        IN_WORKER.with(|flag| flag.set(false));
    }
}

/// A fixed-width thread pool. See the [module docs](self) for the design.
///
/// The pool itself holds no threads: a call spawns its workers inside
/// [`std::thread::scope`] so jobs can borrow caller data, the calling
/// thread works beside them, and every worker is joined before the call
/// returns.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool as wide as the environment allows: `FLASHMEM_THREADS` when set
    /// to a positive integer, else [`std::thread::available_parallelism`].
    pub fn new() -> Self {
        ThreadPool {
            threads: default_threads(),
        }
    }

    /// A pool with exactly `threads` workers (clamped to at least 1).
    /// Width 1 never spawns a thread.
    pub fn with_threads(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The pool's worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items` on the pool, returning results in input order.
    ///
    /// Width 1, a single item, or a nested call takes the exact serial path:
    /// `items.into_iter().map(f).collect()` on the caller thread. A
    /// heterogeneous batch is a `Vec` of boxed closures mapped with
    /// `|job| job()`.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let width = self.threads.min(items.len());
        if width <= 1 || in_worker() {
            return items.into_iter().map(f).collect();
        }
        let inputs: Vec<Mutex<Option<T>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let outputs: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
        // The caller runs job 0; every thread then claims from index 1 on.
        // `Relaxed` suffices: the counter only hands out distinct indices,
        // while the slot mutexes and the scope's join publish the data.
        let next = AtomicUsize::new(1);
        let run = |i: usize| {
            let item = inputs[i]
                .lock()
                .expect(POISONED)
                .take()
                .expect("each index is claimed once");
            let result = f(item);
            *outputs[i].lock().expect(POISONED) = Some(result);
        };
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= inputs.len() {
                return;
            }
            run(i);
        };
        std::thread::scope(|scope| {
            for _ in 1..width {
                scope.spawn(|| {
                    let _worker = WorkerMode::enter();
                    drain();
                });
            }
            let _worker = WorkerMode::enter();
            run(0);
            drain();
        });
        outputs
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(POISONED)
                    .expect("pool job completed")
            })
            .collect()
    }

    /// Map a *fallible* `f` over `items` on the pool, returning all results
    /// in input order or the first failure **by index**.
    ///
    /// Every job runs to completion before failures are examined (the jobs
    /// are independent; there is no cancellation), so which error surfaces is
    /// a function of the inputs alone, never of how the jobs interleaved —
    /// the property that keeps a parallel serve fleet's error behaviour
    /// byte-identical to `--threads 1`.
    ///
    /// Panic-safe: a job that panics is caught on its thread (its siblings
    /// still run) and re-raised on the caller thread. Panics and `Err`s share
    /// one deterministic ordering: the earliest failing index wins, whichever
    /// kind it is.
    pub fn try_parallel_map<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(T) -> Result<R, E> + Sync,
    {
        let attempts = self.parallel_map(items, |item| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
        });
        let mut results = Vec::with_capacity(attempts.len());
        for attempt in attempts {
            match attempt {
                Ok(Ok(value)) => results.push(value),
                Ok(Err(error)) => return Err(error),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        Ok(results)
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::new()
    }
}

/// The default worker count: `FLASHMEM_THREADS` when set to a positive
/// integer, else [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_threads() -> usize {
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(threads) = value.trim().parse::<usize>() {
            if threads >= 1 {
                return threads;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool every sweep fans out on (the bench harness, the
/// serve sweep, `bin/all`, the fuzz harness).
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(ThreadPool::new)
}

/// Pin the [`global`] pool's width (the `--threads N` flag calls this before
/// any sweep runs). First call wins: if the global pool was already used at
/// a different width, that width is kept and returned — with a warning on
/// stderr, so a `--threads` flag that lost the race is observable instead of
/// silently becoming a no-op.
pub fn configure_global(threads: usize) -> &'static ThreadPool {
    let pool = GLOBAL.get_or_init(|| ThreadPool::with_threads(threads));
    if pool.threads() != threads.max(1) {
        eprintln!(
            "warning: thread pool already pinned to width {} before configure_global({threads}); \
             keeping {}",
            pool.threads(),
            pool.threads()
        );
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn parallel_map_preserves_input_order() {
        let pool = ThreadPool::with_threads(4);
        let items: Vec<usize> = (0..64).collect();
        // Invert per-item cost so late items finish first under any fair
        // schedule: order must still come out by index.
        let out = pool.parallel_map(items, |i| {
            std::thread::sleep(Duration::from_micros(((64 - i) * 20) as u64));
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn width_one_runs_inline_on_the_caller_thread_in_order() {
        let pool = ThreadPool::with_threads(1);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        pool.parallel_map((0..8).collect::<Vec<_>>(), |i| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
        });
        // Inline execution == input order: the serial bisection path.
        assert_eq!(*seen.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_actually_run_on_multiple_threads() {
        let pool = ThreadPool::with_threads(4);
        let distinct = Mutex::new(std::collections::HashSet::new());
        pool.parallel_map((0..32).collect::<Vec<_>>(), |_| {
            std::thread::sleep(Duration::from_millis(2));
            distinct.lock().unwrap().insert(std::thread::current().id());
        });
        // All four workers should have participated given 32 × 2 ms of work.
        assert!(distinct.lock().unwrap().len() > 1);
    }

    #[test]
    fn the_caller_works_as_a_worker_and_leaves_worker_mode_after() {
        let pool = ThreadPool::with_threads(2);
        let caller = std::thread::current().id();
        // Each job waits for the other, so both run at once: job 0 on the
        // caller (so it allocates from the caller's heap), job 1 on the
        // spawned worker.
        let barrier = std::sync::Barrier::new(2);
        let on_caller = pool.parallel_map(vec![0, 1], |_| {
            barrier.wait();
            std::thread::current().id() == caller
        });
        assert_eq!(on_caller, vec![true, false]);
        assert!(!in_worker());
    }

    #[test]
    fn a_panicking_job_leaves_the_caller_out_of_worker_mode() {
        let pool = ThreadPool::with_threads(2);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_map(vec![0, 1], |i| {
                if i == 0 {
                    panic!("job 0 exploded on the caller");
                }
                i
            })
        }));
        assert!(attempt.is_err());
        assert!(!in_worker());
    }

    #[test]
    fn nested_pool_calls_run_inline_instead_of_fanning_out() {
        let outer = ThreadPool::with_threads(4);
        let nested_inline = AtomicUsize::new(0);
        outer.parallel_map((0..4).collect::<Vec<_>>(), |_| {
            let inner = ThreadPool::with_threads(4);
            let caller = std::thread::current().id();
            let out = inner.parallel_map((0..4).collect::<Vec<_>>(), |i| {
                if std::thread::current().id() == caller {
                    nested_inline.fetch_add(1, Ordering::Relaxed);
                }
                i
            });
            assert_eq!(out, vec![0, 1, 2, 3]);
        });
        // Every nested job ran inline on its outer worker.
        assert_eq!(nested_inline.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn try_parallel_map_collects_results_in_order_on_success() {
        let pool = ThreadPool::with_threads(4);
        let out: Result<Vec<usize>, String> =
            pool.try_parallel_map((0..16).collect::<Vec<_>>(), |i| Ok(i * 3));
        assert_eq!(out.unwrap(), (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn try_parallel_map_propagates_the_first_error_by_submission_index() {
        let pool = ThreadPool::with_threads(4);
        // Index 9 fails *fast*, index 2 fails *slow*: under any schedule the
        // index-9 error is available first, but index 2 must still win.
        let out: Result<Vec<usize>, String> =
            pool.try_parallel_map((0..16).collect::<Vec<_>>(), |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(20));
                    Err(format!("job {i} failed"))
                } else if i == 9 {
                    Err(format!("job {i} failed"))
                } else {
                    Ok(i)
                }
            });
        assert_eq!(out.unwrap_err(), "job 2 failed");
    }

    #[test]
    fn try_parallel_map_reraises_a_panicking_job_instead_of_hanging() {
        let pool = ThreadPool::with_threads(4);
        let completed = AtomicUsize::new(0);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.try_parallel_map::<_, usize, String, _>((0..8).collect::<Vec<_>>(), |i| {
                if i == 3 {
                    panic!("job {i} exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                Ok(i)
            })
        }));
        let payload = attempt.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic payload is the formatted message");
        assert_eq!(message, "job 3 exploded");
        // Every sibling job still ran to completion: nothing was stranded.
        assert_eq!(completed.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn boxed_jobs_keep_submission_order_for_heterogeneous_work() {
        let pool = ThreadPool::with_threads(4);
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(5));
                "slow".to_string()
            }),
            Box::new(|| "fast".to_string()),
            Box::new(|| format!("{}", 6 * 7)),
        ];
        assert_eq!(
            pool.parallel_map(jobs, |job| job()),
            vec!["slow", "fast", "42"]
        );
    }

    #[test]
    fn borrowed_data_flows_into_jobs_and_back() {
        let pool = ThreadPool::with_threads(2);
        let words = ["alpha".to_string(), "beta".to_string()];
        let lens = pool.parallel_map(words.iter().collect::<Vec<_>>(), |w| w.len());
        assert_eq!(lens, vec![5, 4]);
    }

    #[test]
    fn default_width_is_at_least_one() {
        assert!(ThreadPool::new().threads() >= 1);
        assert_eq!(ThreadPool::with_threads(0).threads(), 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn global_pool_is_stable_across_calls() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }
}
