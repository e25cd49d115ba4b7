//! Persistent, process-wide worker pool for the row-parallel kernels.
//!
//! Before this module, every parallel kernel invocation spawned fresh OS
//! threads through `std::thread::scope` — roughly 10µs of spawn + join
//! cost per call, paid hundreds of times per solve in the thin-`k`
//! regime. The pool replaces that with long-lived workers parked on a
//! condvar (a futex wait on Linux) that wake, claim tasks from a shared
//! queue, and park again.
//!
//! Design rules, in the same guarantee discipline as the blocked
//! reductions (`parallel.rs`):
//!
//! * **Determinism is the caller's property.** The pool only distributes
//!   task *indices*; which thread runs which task is unspecified. The
//!   kernels in `parallel.rs` keep their bit-identical results because
//!   chunk boundaries and the block-ordered partial fold are computed by
//!   the caller, exactly as in the scoped-thread paths they replace.
//! * **Callers participate.** `run_tasks` claims tasks on the calling
//!   thread too, so a job always completes even with zero free workers —
//!   and nested dispatch (a pooled kernel issued from inside a pooled
//!   shard sweep) cannot deadlock: the innermost caller drains its own
//!   job by itself in the worst case.
//! * **Steady state allocates nothing.** Jobs live on the caller's
//!   stack; the queue is a `VecDeque` that keeps its capacity; reduction
//!   scratch comes from a reusable buffer stack ([`with_scratch`]).
//!   Workers are spawned lazily, once.
//!
//! One environment knob: `TGS_THREADS` sets the worker-thread budget
//! (clamped to `1..=HARD_THREAD_CAP`); default
//! `available_parallelism()`. `1` bypasses the pool entirely (pure
//! sequential dispatch). Workers are not pinned to cores: the OS
//! scheduler places them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::parallel::HARD_THREAD_CAP;

// ---------------------------------------------------------------------------
// Thread-budget resolution (TGS_THREADS + runtime override)
// ---------------------------------------------------------------------------

/// Process-wide runtime override; `0` means "no override". Benches use
/// this to sweep thread counts within one process (the env var is read
/// once), the same way `set_parallel_work_threshold` sweeps dispatch.
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `TGS_THREADS` / detected parallelism; `0` means "not yet read".
static ENV_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Effective thread budget: the runtime override if set, else
/// `TGS_THREADS`, else `available_parallelism()` — always clamped to
/// `1..=HARD_THREAD_CAP`. A budget of `1` disables pooled dispatch.
pub fn pool_threads() -> usize {
    let ov = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if ov != 0 {
        return ov;
    }
    let cached = ENV_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let resolved = std::env::var("TGS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(detected_parallelism)
        .min(HARD_THREAD_CAP);
    ENV_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the thread budget process-wide (clamped to
/// `1..=HARD_THREAD_CAP`); `None` restores the `TGS_THREADS` /
/// detected default. Returns the previous override. Process-global like
/// [`crate::parallel::set_parallel_work_threshold`] — concurrent callers
/// see each other's setting, which is safe because every kernel built on
/// the pool is bit-identical at every thread count.
pub fn set_pool_threads_override(threads: Option<usize>) -> Option<usize> {
    let raw = threads.map_or(0, |n| n.clamp(1, HARD_THREAD_CAP));
    let prev = THREADS_OVERRIDE.swap(raw, Ordering::Relaxed);
    (prev != 0).then_some(prev)
}

fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A scatter-gather job, owned by the caller's stack frame for the
/// duration of one [`run_tasks`] call. Workers only touch it while it is
/// reachable from the queue (under the queue lock) or while running a
/// task they claimed, up to releasing the `pending` lock after counting
/// it finished — and the caller cannot return before it has taken that
/// lock and read zero, and unlinked the job from the queue, so no worker
/// ever observes a dangling job.
struct Job {
    /// Lifetime-erased task body; valid for the lifetime of the
    /// `run_tasks` call that owns this job.
    body: *const (dyn Fn(usize) + Sync),
    n_tasks: usize,
    /// Next unclaimed task index; claims are `fetch_add` so caller and
    /// workers can race without double-running a task.
    next: AtomicUsize,
    /// Tasks not yet *finished* (claimed ≠ finished); the caller waits
    /// on this reaching zero. Read and written only under the lock, so a
    /// worker's last touch of the job is releasing it.
    pending: Mutex<usize>,
    /// Set when any task body panicked; the caller re-panics.
    panicked: AtomicBool,
    done_cv: Condvar,
}

/// Queue entry. Only ever dereferenced under the discipline documented
/// on [`Job`].
#[derive(Clone, Copy, PartialEq, Eq)]
struct JobRef(*const Job);

// SAFETY: the pointer is only dereferenced while the owning `run_tasks`
// frame is provably alive (see `Job` docs), and `Job` itself is Sync.
unsafe impl Send for JobRef {}

struct PoolState {
    queue: VecDeque<JobRef>,
    /// Workers spawned so far (monotone; the pool never shrinks).
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    /// Reusable f64 buffers for blocked-reduction partials; popped and
    /// pushed by [`with_scratch`] so steady-state reductions allocate
    /// nothing.
    scratch: Mutex<Vec<Vec<f64>>>,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        queue: VecDeque::new(),
        workers: 0,
    }),
    work_cv: Condvar::new(),
    scratch: Mutex::new(Vec::new()),
};

fn lock_state() -> MutexGuard<'static, PoolState> {
    POOL.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Lazily grows the pool to `target` workers. Workers are never torn
/// down; raising the budget mid-process (benches sweeping
/// [`set_pool_threads_override`]) just spawns the difference.
fn ensure_workers(target: usize) {
    let target = target.min(HARD_THREAD_CAP);
    let mut st = lock_state();
    while st.workers < target {
        let index = st.workers;
        st.workers += 1;
        std::thread::Builder::new()
            .name(format!("tgs-pool-{index}"))
            .spawn(worker_loop)
            .expect("spawn tgs pool worker");
    }
}

fn worker_loop() {
    let mut st = lock_state();
    loop {
        // Scan front-to-back for a job with unclaimed tasks; exhausted
        // jobs are unlinked in passing (their caller may still be
        // waiting on in-flight tasks — unlinking only stops new claims).
        let mut claimed = None;
        while let Some(&jr) = st.queue.front() {
            // SAFETY: `jr` is in the queue and we hold the queue lock,
            // so the owning `run_tasks` frame is still alive.
            let job = unsafe { &*jr.0 };
            let t = job.next.fetch_add(1, Ordering::Relaxed);
            if t < job.n_tasks {
                claimed = Some((jr, t));
                break;
            }
            st.queue.pop_front();
        }
        match claimed {
            Some((jr, t)) => {
                drop(st);
                // SAFETY: we claimed task `t`, so `pending > 0` keeps the
                // caller parked (and the job alive) until we finish it.
                run_one(unsafe { &*jr.0 }, t);
                st = lock_state();
            }
            None => {
                st = POOL.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// Runs one claimed task and signals the owner when it was the last.
fn run_one(job: &Job, t: usize) {
    // SAFETY: the body outlives the job (both live in the `run_tasks`
    // frame that is parked until `pending == 0`).
    let body = unsafe { &*job.body };
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(t))).is_err() {
        job.panicked.store(true, Ordering::Release);
    }
    let mut pending = job.pending.lock().unwrap_or_else(|e| e.into_inner());
    *pending -= 1;
    if *pending == 0 {
        job.done_cv.notify_all();
    }
}

/// Runs `body(0) … body(n_tasks − 1)` exactly once each, distributed
/// over the pool plus the calling thread. Returns when all tasks have
/// finished; panics (after all tasks finish) if any task panicked.
///
/// Sequential inline — no queue, no synchronization — when `n_tasks <= 1`
/// or the effective thread budget ([`pool_threads`]) is `1`.
///
/// Determinism contract: task-index → work mapping is the caller's;
/// the pool guarantees only that each index runs once. Tasks for one job
/// may run concurrently with tasks of other jobs sharing the pool.
pub(crate) fn run_tasks<F>(n_tasks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if n_tasks == 0 {
        return;
    }
    let budget = pool_threads();
    if n_tasks == 1 || budget <= 1 {
        for t in 0..n_tasks {
            body(t);
        }
        return;
    }
    ensure_workers(budget - 1);

    let body_dyn: &(dyn Fn(usize) + Sync) = &body;
    // SAFETY: lifetime erasure only — the erased reference never escapes
    // this frame (the job is unlinked from the queue and fully drained
    // before return).
    let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body_dyn) };
    let job = Job {
        body: body_static as *const _,
        n_tasks,
        next: AtomicUsize::new(0),
        pending: Mutex::new(n_tasks),
        panicked: AtomicBool::new(false),
        done_cv: Condvar::new(),
    };
    let job_ref = JobRef(&job as *const Job);
    {
        let mut st = lock_state();
        st.queue.push_back(job_ref);
        POOL.work_cv.notify_all();
    }
    // Participate: claim tasks alongside the workers. This both removes
    // one thread of spawn latency and guarantees progress under nested
    // dispatch (the caller can always drain its own job).
    loop {
        let t = job.next.fetch_add(1, Ordering::Relaxed);
        if t >= n_tasks {
            break;
        }
        run_one(&job, t);
    }
    // Wait for tasks claimed by workers.
    let mut pending = job.pending.lock().unwrap_or_else(|e| e.into_inner());
    while *pending != 0 {
        pending = job.done_cv.wait(pending).unwrap_or_else(|e| e.into_inner());
    }
    drop(pending);
    // Unlink before the frame dies; a worker may have parked without
    // revisiting the exhausted entry.
    {
        let mut st = lock_state();
        st.queue.retain(|j| *j != job_ref);
    }
    if job.panicked.load(Ordering::Acquire) {
        panic!("tgs pool task panicked");
    }
}

/// Hands `f` a zeroed `len`-long f64 buffer drawn from a reusable stack,
/// returning the buffer afterwards — so blocked reductions get their
/// per-block partial slots without allocating in steady state (the
/// buffer only grows on the first, largest request).
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = {
        let mut stack = POOL.scratch.lock().unwrap_or_else(|e| e.into_inner());
        stack.pop().unwrap_or_default()
    };
    buf.clear();
    buf.resize(len, 0.0);
    let out = f(&mut buf[..len]);
    let mut stack = POOL.scratch.lock().unwrap_or_else(|e| e.into_inner());
    stack.push(buf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_covers_every_index_once() {
        let prev = set_pool_threads_override(Some(4));
        let n = 257;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_tasks(n, |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        set_pool_threads_override(prev);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn budget_one_is_inline_and_ordered() {
        let prev = set_pool_threads_override(Some(1));
        let order = Mutex::new(Vec::new());
        run_tasks(5, |t| order.lock().unwrap().push(t));
        set_pool_threads_override(prev);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_dispatch_completes() {
        let prev = set_pool_threads_override(Some(3));
        let total = AtomicUsize::new(0);
        run_tasks(4, |_| {
            run_tasks(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        set_pool_threads_override(prev);
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let prev = set_pool_threads_override(Some(2));
        let result = std::panic::catch_unwind(|| {
            run_tasks(8, |t| {
                if t == 5 {
                    panic!("boom");
                }
            });
        });
        set_pool_threads_override(prev);
        assert!(result.is_err());
    }

    #[test]
    fn scratch_is_zeroed_and_reused() {
        with_scratch(16, |buf| {
            assert!(buf.iter().all(|&v| v == 0.0));
            buf.fill(7.0);
        });
        with_scratch(8, |buf| {
            assert_eq!(buf.len(), 8);
            assert!(buf.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn threads_override_roundtrips() {
        let prev = set_pool_threads_override(Some(7));
        assert_eq!(pool_threads(), 7);
        let back = set_pool_threads_override(prev);
        assert_eq!(back, Some(7));
    }
}
