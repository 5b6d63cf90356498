//! A persistent, std-only worker pool for data-parallel kernels.
//!
//! Every heavy kernel in this crate ([`crate::linalg`], [`crate::conv`])
//! splits its output into **fixed-size chunks** and executes the chunks
//! on this pool. Two properties make the parallelism safe to use inside
//! a deterministic simulation:
//!
//! 1. **Size-independent partitioning.** Chunk boundaries are a
//!    function of the problem shape only — never of the worker count —
//!    and each chunk is computed by exactly the same code as the
//!    sequential path. Results are therefore *bit-identical* for any
//!    `TACO_THREADS` setting, including 1.
//! 2. **No oversubscription.** Worker threads mark themselves with a
//!    thread-local flag; any kernel invoked *from* a worker (e.g. a
//!    matmul inside a per-client training step that is itself running
//!    on the pool) executes inline instead of re-dispatching. The
//!    simulation's client loop and the tensor kernels share one pool.
//!
//! # Sizing
//!
//! The global pool holds `TACO_THREADS` compute threads (the caller
//! participates, so `TACO_THREADS = N` spawns `N − 1` workers).
//! When the variable is unset or invalid the pool falls back to
//! [`std::thread::available_parallelism`]. `TACO_THREADS=1` disables
//! the pool entirely — every kernel runs inline on the caller.
//!
//! # Scheduling
//!
//! Work is claimed from a shared atomic index, so *which* thread runs a
//! chunk is scheduling-dependent — but chunks write disjoint output
//! ranges selected by chunk index, so the result is not. The caller
//! always participates in the claim loop; helper jobs that have not
//! started by the time the caller drains the index are cancelled. A
//! dispatch therefore never waits on unrelated work that happens to sit
//! in the queue (important when client jobs and kernels share the
//! pool), and a dispatch from a saturated pool degrades to an inline
//! loop rather than deadlocking.
//!
//! # Panics
//!
//! A panic in a task, on a helper or on the caller, does not escape
//! early: the dispatch still cancels the helpers that never started
//! and waits for the ones that did, then re-raises the caller's own
//! panic, or else the first helper's. Workers survive a panicking task.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on configured threads (defensive clamp for typos like
/// `TACO_THREADS=1000000`).
const MAX_THREADS: usize = 512;

type Job = Box<dyn FnOnce() + Send>;

/// What a panicking task unwound with.
type Payload = Box<dyn Any + Send>;

struct Queued {
    batch: u64,
    job: Job,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Queued>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
}

thread_local! {
    /// True on pool worker threads: kernels called from a worker run
    /// inline instead of re-dispatching (no nested parallelism).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread pool override installed by [`with_pool`].
    static OVERRIDE: Cell<Option<NonNull<Pool>>> = const { Cell::new(None) };
}

/// Returns `true` when called from one of the pool's worker threads.
pub fn on_worker_thread() -> bool {
    IN_WORKER.with(Cell::get)
}

/// A pool of persistent worker threads executing chunked kernels.
///
/// Most code should use the free functions ([`for_each_chunk`],
/// [`threads`]) which route to the process-global pool (or a
/// [`with_pool`] override); constructing `Pool`s directly is meant for
/// tests and benchmarks that compare worker counts in one process.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    next_batch: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// Creates a pool with `threads` total compute threads (the caller
    /// counts as one, so `threads − 1` workers are spawned). `0` is
    /// treated as `1`.
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool is the one place that starts threads"
    )]
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("taco-pool-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
            next_batch: AtomicU64::new(0),
        }
    }

    /// Total compute threads (workers + the participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(tasks − 1)`, distributing indices across
    /// the pool. Blocks until every index has been executed. Falls back
    /// to an inline loop when the pool has one thread, there is one
    /// task, or the caller is itself a pool worker.
    ///
    /// Indices are claimed from a shared counter: execution *order* and
    /// *placement* are scheduling-dependent, so `f` must only perform
    /// work whose result is independent of both (disjoint writes keyed
    /// by index).
    ///
    /// # Panics
    ///
    /// If `f` panics, re-raises that panic once every started helper
    /// has finished: the caller's own panic if it had one, else the
    /// first helper's.
    pub fn for_each_index<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        if self.threads <= 1 || tasks == 1 || on_worker_thread() {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let ctx = DispatchCtx {
            next: AtomicUsize::new(0),
            tasks,
            run: &f,
        };
        let completion = Arc::new(Completion::default());
        // Helpers beyond `tasks − 1` could never claim anything.
        let helpers = (self.threads - 1).min(tasks - 1);
        let batch = self.next_batch.fetch_add(1, Ordering::Relaxed);
        // SAFETY (lifetime erasure): the raw context pointer handed to
        // helper jobs is only dereferenced by jobs of this batch, and
        // this function does not return until every such job has either
        // been cancelled (removed from the queue before starting) or
        // has finished its claim loop — `ctx` outlives all uses. That
        // holds when `f` panics too: a helper catches its own unwind
        // and signals completion anyway, and the caller's claim loop
        // runs under `catch_unwind`, so neither side can unwind past
        // the cancel-and-wait below while a helper still holds the
        // pointer. The completion signal lives behind an `Arc` each
        // helper holds, so a helper may still touch it after this
        // function returned.
        let raw = RawCtx(&ctx as *const DispatchCtx<'_, F> as usize);
        {
            let mut st = lock(&self.shared.state);
            for _ in 0..helpers {
                let raw = RawCtx(raw.0);
                let completion = Arc::clone(&completion);
                st.jobs.push_back(Queued {
                    batch,
                    job: Box::new(move || {
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                            // SAFETY: per the lifetime-erasure argument
                            // above, `ctx` outlives every job queued for
                            // this batch until it signals completion.
                            unsafe { helper_entry::<F>(raw) }
                        }));
                        completion.signal(outcome.err());
                    }),
                });
            }
        }
        self.shared.available.notify_all();
        // The caller claims chunks too: dispatch makes progress even if
        // every worker is busy with unrelated jobs.
        let caller = panic::catch_unwind(AssertUnwindSafe(|| ctx.claim_loop()));
        // Cancel helpers that never started; wait for the ones that did.
        let removed = {
            let mut st = lock(&self.shared.state);
            let before = st.jobs.len();
            st.jobs.retain(|q| q.batch != batch);
            before - st.jobs.len()
        };
        let helper_panic = completion.wait_for(helpers - removed);
        if let Err(payload) = caller {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements
    /// (the last may be shorter) and runs `f(chunk_index, chunk)` for
    /// each on the pool. The chunk partition depends only on
    /// `data.len()` and `chunk_len`, never on the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let len = data.len();
        let chunks = len.div_ceil(chunk_len);
        let base = SendPtr(data.as_mut_ptr());
        self.for_each_index(chunks, move |i| {
            let start = i * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: each index is claimed exactly once and maps to a
            // disjoint sub-range of `data`, which outlives the dispatch.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(i, chunk);
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

struct DispatchCtx<'a, F> {
    next: AtomicUsize,
    tasks: usize,
    run: &'a F,
}

/// How many of a dispatch's helpers have finished their claim loop,
/// and the first panic one of them unwound with.
///
/// Shared through an `Arc` rather than kept in the caller's
/// [`DispatchCtx`]: a helper signals and notifies after the caller may
/// already have seen the final count and returned, so the signal must
/// not live on the caller's stack frame.
#[derive(Default)]
struct Completion {
    state: Mutex<Finished>,
    changed: Condvar,
}

#[derive(Default)]
struct Finished {
    helpers: usize,
    panic: Option<Payload>,
}

impl Completion {
    /// Counts one finished helper, keeping the first panic payload.
    fn signal(&self, panic: Option<Payload>) {
        let mut st = lock(&self.state);
        st.helpers += 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        drop(st);
        self.changed.notify_all();
    }

    /// Blocks until `helpers` helpers have signalled, then returns the
    /// first panic payload among them.
    fn wait_for(&self, helpers: usize) -> Option<Payload> {
        let mut st = lock(&self.state);
        while st.helpers < helpers {
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.panic.take()
    }
}

impl<F: Fn(usize) + Sync> DispatchCtx<'_, F> {
    fn claim_loop(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            (self.run)(i);
        }
    }
}

/// Type-erased pointer to a [`DispatchCtx`] living on a dispatching
/// caller's stack. See the safety comment in [`Pool::for_each_index`].
#[derive(Clone, Copy)]
struct RawCtx(usize);

/// # Safety
///
/// `raw` must point at a live `DispatchCtx<F>` with the same `F` —
/// guaranteed by [`Pool::for_each_index`], which queues helpers only
/// for its own batch and does not return until each has been cancelled
/// or has signalled that this call returned.
unsafe fn helper_entry<F: Fn(usize) + Sync>(raw: RawCtx) {
    // SAFETY: per the function contract, `raw` points at a live
    // `DispatchCtx<F>` for the whole call.
    let ctx = unsafe { &*(raw.0 as *const DispatchCtx<'_, F>) };
    ctx.claim_loop();
}

/// Raw pointer wrapper asserting cross-thread use is sound because all
/// accesses derived from it are disjoint (see call sites).
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

impl<T> SendPtr<T> {
    /// Accessor taking `self` so closures capture the whole wrapper
    /// (2021 disjoint capture would otherwise grab the bare `*mut T`,
    /// which is not `Sync`).
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: asserted at each construction site — every thread touches a
// disjoint index range behind the pointer.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: no two threads touch the same index.
unsafe impl<T: Send> Sync for SendPtr<T> {}

fn worker_main(shared: &Shared) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(q) = st.jobs.pop_front() {
                    break q.job;
                }
                if st.shutdown {
                    return;
                }
                st = shared
                    .available
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        job();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Configured thread count: `TACO_THREADS` if set to a positive
/// integer, else [`std::thread::available_parallelism`], else 1. The
/// variable is read through the [`taco_trace::env`] registry (which
/// also owns the invalid-value warning).
pub fn threads_from_env() -> usize {
    if let Some(n) = taco_trace::env::threads() {
        return n.min(MAX_THREADS);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The process-global pool, created on first use from
/// [`threads_from_env`].
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(threads_from_env()))
}

/// Runs `f` with `pool` installed as the current thread's dispatch
/// target: every kernel called (transitively) on this thread inside `f`
/// uses `pool` instead of the global one. Used by tests and benchmarks
/// to compare worker counts within one process.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<NonNull<Pool>>);
    impl Drop for Reset {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(Some(NonNull::from(pool))));
    let _reset = Reset(prev);
    f()
}

fn dispatch<R>(f: impl FnOnce(&Pool) -> R) -> R {
    match OVERRIDE.with(Cell::get) {
        // SAFETY: the pointer was installed by a `with_pool` frame on
        // this same thread which is still on the stack (it resets the
        // cell on exit), so the referenced pool is alive.
        Some(p) => f(unsafe { p.as_ref() }),
        None => f(global()),
    }
}

/// Compute threads of the current dispatch target (override or global).
pub fn threads() -> usize {
    dispatch(Pool::threads)
}

/// [`Pool::for_each_chunk`] on the current dispatch target.
pub fn for_each_chunk<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    dispatch(|p| p.for_each_chunk(data, chunk_len, f));
}

/// [`Pool::for_each_index`] on the current dispatch target.
pub fn for_each_index<F: Fn(usize) + Sync>(tasks: usize, f: F) {
    dispatch(|p| p.for_each_index(tasks, f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    #[test]
    fn inline_when_single_threaded() {
        let pool = Pool::new(1);
        let hits = AtomicU32::new(0);
        pool.for_each_index(5, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn chunks_cover_data_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let mut data = vec![0u32; 1003];
            pool.for_each_chunk(&mut data, 64, |i, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x += (i * 64 + off) as u32 + 1;
                }
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, i as u32 + 1, "threads={threads}");
            }
        }
    }

    #[test]
    fn chunk_partition_is_thread_count_independent() {
        let record = |threads: usize| {
            let pool = Pool::new(threads);
            let mut data = vec![0usize; 257];
            pool.for_each_chunk(&mut data, 32, |i, chunk| {
                let len = chunk.len();
                for x in chunk.iter_mut() {
                    *x = i + 100 * len;
                }
            });
            data
        };
        assert_eq!(record(1), record(4));
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = Pool::new(4);
        let hits = AtomicU32::new(0);
        pool.for_each_index(8, |_| {
            // Nested dispatch from (possibly) a worker thread.
            pool.for_each_index(8, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let small = Pool::new(1);
        let big = Pool::new(3);
        let outer = threads();
        with_pool(&big, || {
            assert_eq!(threads(), 3);
            with_pool(&small, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn pool_drops_cleanly_with_queued_work_done() {
        let pool = Pool::new(3);
        let mut data = vec![0u8; 100];
        pool.for_each_chunk(&mut data, 10, |_, c| c.fill(1));
        drop(pool);
        assert!(data.iter().all(|&x| x == 1));
    }

    /// `dispatch` on a fresh two-thread pool, run on its own thread so
    /// a hang fails the test instead of stalling it; returns whether
    /// the dispatch unwound, and with which message.
    #[expect(
        clippy::disallowed_methods,
        reason = "a thread outside the pool bounds a hang in the pool"
    )]
    fn dispatch_bounded(dispatch: fn(&Pool)) -> Result<(), String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let pool = Pool::new(2);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| dispatch(&pool)));
            let _ = tx.send(outcome.map_err(|p| {
                p.downcast_ref::<&str>()
                    .map_or_else(String::new, |m| (*m).to_string())
            }));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("dispatch hung after a task panicked");
        runner.join().expect("dispatch thread");
        outcome
    }

    #[test]
    fn a_helper_panic_reaches_the_caller() {
        let outcome = dispatch_bounded(|pool| {
            // The barrier holds the caller inside task 0 until the
            // helper has claimed task 1, so the helper is the one that
            // panics.
            let both = std::sync::Barrier::new(2);
            pool.for_each_index(2, |_| {
                both.wait();
                if on_worker_thread() {
                    panic!("helper task failed");
                }
            });
        });
        assert_eq!(outcome, Err("helper task failed".to_string()));
        // The worker survived its task's panic: the pool still runs.
        let pool = Pool::new(2);
        let hits = AtomicU32::new(0);
        pool.for_each_index(4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_caller_panic_returns_after_the_started_helpers_finish() {
        // A static, so the helper's late store touches no memory of
        // the dispatching frame.
        static HELPER_DONE: AtomicBool = AtomicBool::new(false);
        let outcome = dispatch_bounded(|pool| {
            let both = std::sync::Barrier::new(2);
            let dispatched = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.for_each_index(2, |_| {
                    both.wait();
                    if on_worker_thread() {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        HELPER_DONE.store(true, Ordering::SeqCst);
                    } else {
                        panic!("caller task failed");
                    }
                });
            }));
            assert!(
                HELPER_DONE.load(Ordering::SeqCst),
                "dispatch returned while a helper was still running"
            );
            if let Err(payload) = dispatched {
                panic::resume_unwind(payload);
            }
        });
        assert_eq!(outcome, Err("caller task failed".to_string()));
    }

    #[test]
    fn env_parse_clamps_and_defaults() {
        // Can't mutate the process environment safely in tests; only
        // check the fallback is sane.
        assert!(threads_from_env() >= 1);
    }
}
