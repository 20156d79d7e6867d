//! A std-only work-stealing thread pool for embarrassingly parallel sweeps.
//!
//! Everything above the deterministic simulator — the benchmark matrix, the
//! serving sweep, the scheduler fuzz harness — is a pile of independent
//! (compile, execute) jobs that used to run on one OS thread, so wall-clock
//! time bounded how many scenarios a CI run could afford. This pool fans
//! those jobs out across OS threads with nothing but `std`: no tokio, no
//! rayon, no crossbeam.
//!
//! Design, in the order the constraints forced it:
//!
//! * **Scoped join** — jobs may borrow the caller's data (engine registries,
//!   model slices, device specs), so execution happens inside
//!   [`std::thread::scope`]: every worker is joined before [`ThreadPool::scope`]
//!   returns and borrows never outlive the call.
//! * **Work stealing via sharded `Mutex<VecDeque>`** — each worker owns one
//!   shard of the job queue; submission round-robins across shards, a worker
//!   pops its own shard from the front and, when empty, steals from the
//!   *back* of the other shards, so contention stays on distinct locks until
//!   the queues drain.
//! * **Condvar parking** — a worker that finds every shard empty while the
//!   scope is still submitting parks on a [`Condvar`] instead of spinning;
//!   each submission wakes one parked worker, and closing the scope wakes
//!   them all for the final drain.
//! * **Deterministic results** — [`ThreadPool::parallel_map`] and
//!   [`ThreadPool::run_jobs`] write each job's result into its
//!   submission-index slot, so the output order is the input order no matter
//!   how the jobs interleave. Combined with the deterministic simulator this
//!   is what keeps parallel bench JSON byte-identical to serial runs.
//!   [`ThreadPool::try_parallel_map`] extends the same guarantee to fallible
//!   jobs (the serve fleet's per-device timelines): every job completes, then
//!   the first failure *by submission index* is the one propagated, and a
//!   panicking job is caught and re-raised instead of hanging the scope.
//! * **Serial bisection path** — a pool of width 1 (`--threads 1`,
//!   `FLASHMEM_THREADS=1`) does not spawn a single thread: jobs run inline on
//!   the caller thread in submission order, the exact code path the serial
//!   harness always took.
//! * **No nested fan-out** — a pool call made *from inside a pool worker*
//!   (e.g. `run_matrix` invoked by a `bin/all` experiment job) runs inline
//!   serially rather than spawning `threads²` workers; the outer fan-out
//!   already owns the hardware.
//!
//! The process-wide pool used by the bench harness and the fuzz harness is
//! [`global`]; its width comes from the `FLASHMEM_THREADS` environment
//! variable when set (the bench binaries also accept `--threads N` and call
//! [`configure_global`] before first use), falling back to
//! [`std::thread::available_parallelism`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Environment variable overriding the [`global`] pool's worker count.
pub const THREADS_ENV: &str = "FLASHMEM_THREADS";

const POISONED: &str = "thread pool lock poisoned";

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

std::thread_local! {
    /// Set inside pool workers so nested pool calls run inline instead of
    /// spawning `threads²` threads (or deadlocking a future persistent pool).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_worker() -> bool {
    IN_WORKER.with(std::cell::Cell::get)
}

/// Shared state of one [`ThreadPool::scope`] region.
struct ScopeState<'env> {
    /// One job shard per worker: owner pops the front, thieves pop the back.
    shards: Box<[Mutex<VecDeque<Job<'env>>>]>,
    /// `true` while the scope closure may still submit jobs. Workers park on
    /// [`Self::parked`] only while this is `true`; once it flips, an empty
    /// sweep over the shards means the region is drained.
    open: Mutex<bool>,
    parked: Condvar,
    /// Round-robin submission cursor.
    cursor: AtomicUsize,
}

impl<'env> ScopeState<'env> {
    fn new(workers: usize) -> Self {
        ScopeState {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            open: Mutex::new(true),
            parked: Condvar::new(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Pop a job: own shard first (front), then steal from the back of the
    /// others, scanning outward from `home` so thieves spread over victims.
    fn grab(&self, home: usize) -> Option<Job<'env>> {
        if let Some(job) = self.shards[home].lock().expect(POISONED).pop_front() {
            return Some(job);
        }
        let n = self.shards.len();
        for offset in 1..n {
            let victim = (home + offset) % n;
            if let Some(job) = self.shards[victim].lock().expect(POISONED).pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn any_queued(&self) -> bool {
        self.shards
            .iter()
            .any(|shard| !shard.lock().expect(POISONED).is_empty())
    }

    /// Flip the region closed and wake every parked worker for the final
    /// drain. Called when the scope closure returns — or unwinds, via
    /// [`CloseOnDrop`], so a panicking submitter cannot strand parked
    /// workers inside [`std::thread::scope`]'s join.
    fn close(&self) {
        let mut open = self.open.lock().expect(POISONED);
        *open = false;
        self.parked.notify_all();
    }

    fn worker(&self, home: usize) {
        IN_WORKER.with(|flag| flag.set(true));
        loop {
            if let Some(job) = self.grab(home) {
                job();
                continue;
            }
            // Nothing grabbable: park until a submission or the close signal.
            // The predicate re-check happens under `open`'s lock, and every
            // submitter takes that lock after pushing, so a wakeup can never
            // be missed between the failed grab and the wait.
            let mut open = self.open.lock().expect(POISONED);
            loop {
                if self.any_queued() {
                    break;
                }
                if !*open {
                    return;
                }
                open = self.parked.wait(open).expect(POISONED);
            }
        }
    }
}

/// Clears the calling thread's worker flag once it has worked a region's
/// first shard, even if one of those jobs panics.
struct LeaveWorker;

impl Drop for LeaveWorker {
    fn drop(&mut self) {
        IN_WORKER.with(|flag| flag.set(false));
    }
}

/// Guard that closes a scope region even if the submitting closure panics.
struct CloseOnDrop<'scope, 'env>(&'scope ScopeState<'env>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Handle for submitting jobs into a [`ThreadPool::scope`] region.
///
/// Jobs may borrow anything that outlives the `scope` call (`'env`); every
/// job is guaranteed to have finished when `scope` returns.
pub struct Scope<'scope, 'env> {
    state: Option<&'scope ScopeState<'env>>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submit a job.
    ///
    /// On a width-1 (or nested) pool this runs the job *immediately, inline,
    /// on the caller thread* — the exact serial code path — so submission
    /// order is execution order under `--threads 1`.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        let Some(state) = self.state else {
            job();
            return;
        };
        let shard = state.cursor.fetch_add(1, Ordering::Relaxed) % state.shards.len();
        state.shards[shard]
            .lock()
            .expect(POISONED)
            .push_back(Box::new(job));
        // Wake one parked worker. Taking the `open` lock orders this wakeup
        // after any worker's empty-shard re-check, so the push above is
        // always visible to whoever wakes.
        let open = state.open.lock().expect(POISONED);
        state.parked.notify_one();
        drop(open);
    }
}

/// A fixed-width work-stealing thread pool. See the [module docs](self) for
/// the design.
///
/// The pool itself holds no threads: a width-`n` [`scope`](Self::scope)
/// region spawns `n − 1` workers inside [`std::thread::scope`] so jobs can
/// borrow caller data, and the calling thread works as the `n`-th once the
/// scope closure has submitted its jobs. Every worker is joined before the
/// region returns.
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
    /// Width 1 never spawns a thread: see [`Scope::spawn`].
    pub fn with_threads(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The pool's worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` with a [`Scope`] handle for submitting jobs; returns only
    /// after every submitted job has finished. Jobs may borrow anything the
    /// caller can borrow.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        self.scope_with(self.threads, f)
    }

    /// [`scope`](Self::scope) with the worker count capped at `width` — used
    /// by the batch helpers so a 2-job batch on a 16-wide pool runs on 2
    /// threads, not 16.
    fn scope_with<'env, R>(&self, width: usize, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let width = width.clamp(1, self.threads);
        if width == 1 || in_worker() {
            return f(&Scope { state: None });
        }
        let state = ScopeState::new(width);
        std::thread::scope(|s| {
            for home in 1..width {
                let state = &state;
                s.spawn(move || state.worker(home));
            }
            let guard = CloseOnDrop(&state);
            let result = f(&Scope {
                state: Some(guard.0),
            });
            // Close + notify, then work shard 0 on the caller: one thread
            // fewer to spawn per region, and its jobs allocate from the
            // caller's own heap instead of a fresh thread's malloc arena.
            drop(guard);
            let _leave = LeaveWorker;
            state.worker(0);
            result
        })
    }

    /// Map `f` over `items` on the pool, returning results in input order.
    ///
    /// Width 1 (or a nested call) takes the exact serial path:
    /// `items.into_iter().map(f).collect()` on the caller thread.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.threads == 1 || in_worker() || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let f = &f;
        self.scope_with(items.len(), |scope| {
            for (slot, item) in slots.iter().zip(items) {
                scope.spawn(move || {
                    *slot.lock().expect(POISONED) = Some(f(item));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(POISONED)
                    .expect("pool job completed")
            })
            .collect()
    }

    /// Map a *fallible* `f` over `items` on the pool, returning all results
    /// in input order or the first failure **by submission index**.
    ///
    /// Every job runs to completion before failures are examined (the jobs
    /// are independent; there is no cancellation), so which error surfaces is
    /// a function of the inputs alone, never of how the jobs interleaved —
    /// the property that keeps a parallel serve fleet's error behaviour
    /// byte-identical to `--threads 1`.
    ///
    /// Panic-safe: a job that panics is caught on its worker (it cannot hang
    /// the scope or strand parked siblings) and re-raised on the caller
    /// thread. Panics and `Err`s share one deterministic ordering: the
    /// earliest failing submission index wins, whichever kind it is.
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

    /// Run a batch of heterogeneous jobs, returning results in submission
    /// order. Width 1 (or a nested call) runs them inline in order.
    pub fn run_jobs<'env, R: Send>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'env>>,
    ) -> Vec<R> {
        if self.threads == 1 || in_worker() || jobs.len() <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        self.scope_with(jobs.len(), |scope| {
            for (slot, job) in slots.iter().zip(jobs) {
                scope.spawn(move || {
                    *slot.lock().expect(POISONED) = Some(job());
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(POISONED)
                    .expect("pool job completed")
            })
            .collect()
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
        pool.scope(|scope| {
            for i in 0..8 {
                let seen = &seen;
                scope.spawn(move || {
                    assert_eq!(std::thread::current().id(), caller);
                    seen.lock().unwrap().push(i);
                });
            }
        });
        // Inline execution == submission order: the serial bisection path.
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
        // Each job waits for the other, so both run at once: one on the
        // spawned worker, one on the caller.
        let barrier = std::sync::Barrier::new(2);
        let on_caller = pool.parallel_map(vec![0, 1], |_| {
            barrier.wait();
            std::thread::current().id() == caller
        });
        assert_eq!(on_caller.iter().filter(|c| **c).count(), 1);
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
    fn workers_park_and_wake_for_trickled_submissions() {
        let pool = ThreadPool::with_threads(3);
        let done = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..9 {
                // Trickle jobs in slowly enough that workers drain the shards
                // and park between submissions: the condvar path must wake
                // them for each new job.
                std::thread::sleep(Duration::from_millis(2));
                let done = &done;
                scope.spawn(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 9);
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
    fn run_jobs_preserves_submission_order_for_heterogeneous_work() {
        let pool = ThreadPool::with_threads(4);
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(5));
                "slow".to_string()
            }),
            Box::new(|| "fast".to_string()),
            Box::new(|| format!("{}", 6 * 7)),
        ];
        assert_eq!(pool.run_jobs(jobs), vec!["slow", "fast", "42"]);
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
