//! The engine's one thread substrate: a shared worker pool that every
//! parallel query *and* every parallel merge stage fans out on.
//!
//! The paper's Sec 6.1 memory-traffic model prices a scan at the bytes it
//! streams, which assumes the engine can bring *aggregate* memory bandwidth
//! to bear — all cores, not one — and Sec 6.2.1's merge scheme (i) is
//! literally "enqueue each column as a separate task" on a shared task
//! queue. This module provides that queue: a fixed complement of threads
//! (sized by [`default_threads`]) created once and
//! shared by concurrent queries and merges alike, so the load the
//! admission gate sees in [`Pool::queue_depth`] is the whole engine's, not
//! just the read side's.
//!
//! # Scheduling
//!
//! Each worker owns a local deque; a global injector receives tasks from
//! non-worker threads. Workers pop their own deque LIFO (hot caches),
//! take from the injector FIFO (fairness across queries), and steal FIFO
//! from siblings when both are empty — the classic work-stealing shape.
//! [`Pool::queue_depth`] exposes the number of queued-but-unclaimed tasks
//! as a load signal for the server's admission gate.
//!
//! # Scoped parallel-for
//!
//! [`Pool::run_indexed`] is the execution primitive the morsel executor
//! and the merge stages use: run `f(i)` for every `i in 0..n` with bounded
//! parallelism, over a *borrowed* closure, blocking until all indices
//! finish. The caller itself claims indices from the shared counter, so
//! completion never depends on a worker picking the helper tasks up — work
//! running *on* a pool worker can fan out again (shard task → morsel
//! tasks, shard merge → column tasks → Stage 2 regions) without risking the
//! pool feeding on itself into a deadlock. Helper tasks that fire
//! after all indices are claimed observe the drained counter and return
//! without touching the (by then possibly dead) closure, which is what
//! makes the lifetime erasure sound. Panics in `f` are caught, counted,
//! and re-thrown on the caller once every index has finished, so borrowed
//! state is never observed mid-flight.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

enum Task {
    /// A fire-and-forget closure ([`Pool::spawn`]).
    Spawned(Box<dyn FnOnce() + Send + 'static>),
    /// One helper of a [`Pool::run_indexed`] call.
    Helper(Arc<ScopeState>),
}

/// Monotonic pool identity so a worker thread can tell whether it belongs
/// to the pool it is spawning into (local push) or a different one
/// (injector push).
static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Wakeup protocol: a generation counter under the sleep mutex. Producers
/// bump it after pushing; a worker samples it before scanning the queues
/// and sleeps only while it is unchanged, so a push between scan and sleep
/// can never be missed.
struct Gate {
    gen: Mutex<u64>,
    cv: Condvar,
}

struct Shared {
    id: usize,
    injector: Mutex<VecDeque<Task>>,
    locals: Vec<Mutex<VecDeque<Task>>>,
    gate: Gate,
    /// Queued-but-unclaimed tasks (the admission load signal).
    depth: AtomicUsize,
    /// High-water mark of `depth` since the last [`Pool::reset_peak_depth`].
    peak_depth: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    fn push(&self, task: Task) {
        let slot = WORKER.with(|w| w.get()).and_then(
            |(pid, idx)| {
                if pid == self.id {
                    Some(idx)
                } else {
                    None
                }
            },
        );
        // Count BEFORE the task becomes visible: a worker may pop and
        // decrement the instant it lands in a queue, and an
        // increment-after-push would let `depth` transiently underflow.
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_depth.fetch_max(d, Ordering::Relaxed);
        match slot {
            Some(idx) => self.locals[idx].lock().unwrap().push_back(task),
            None => self.injector.lock().unwrap().push_back(task),
        }
        let mut gen = self.gate.gen.lock().unwrap();
        *gen += 1;
        drop(gen);
        self.gate.cv.notify_all();
    }

    /// One full scan: own deque LIFO, injector FIFO, then steal FIFO.
    fn find_task(&self, me: usize) -> Option<Task> {
        if let Some(t) = self.locals[me].lock().unwrap().pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(t) = self.locals[victim].lock().unwrap().pop_front() {
                return Some(t);
            }
        }
        None
    }

    fn worker_loop(&self, me: usize) {
        loop {
            let gen0 = *self.gate.gen.lock().unwrap();
            if let Some(task) = self.find_task(me) {
                match task {
                    Task::Spawned(f) => {
                        self.depth.fetch_sub(1, Ordering::Relaxed);
                        // A panicking task must not take the worker down
                        // with it.
                        let _ = panic::catch_unwind(AssertUnwindSafe(f));
                    }
                    // `drain` catches panics itself; run_indexed re-throws
                    // them on the caller.
                    Task::Helper(scope) => {
                        self.depth
                            .fetch_sub(scope.take_queued(1), Ordering::Relaxed);
                        scope.drain();
                    }
                }
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let mut gen = self.gate.gen.lock().unwrap();
            while *gen == gen0 && !self.shutdown.load(Ordering::Acquire) {
                gen = self.gate.cv.wait(gen).unwrap();
            }
        }
    }
}

/// A persistent worker pool shared by every query and merge in the process.
///
/// Created once — via [`Pool::global`] in the executors and merge stages,
/// or [`Pool::new`] for an owned pool in tests — and shut down by
/// [`Pool::shutdown`] or `Drop`, both of which let queued work drain and
/// join every worker.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// A pool of exactly `threads` workers (`threads >= 1`).
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one worker");
        let shared = Arc::new(Shared {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Gate {
                gen: Mutex::new(0),
                cv: Condvar::new(),
            },
            depth: AtomicUsize::new(0),
            peak_depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hyrise-pool-{i}"))
                    .spawn(move || {
                        WORKER.with(|w| w.set(Some((s.id, i))));
                        s.worker_loop(i);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The process-wide pool, created on first use with
    /// [`default_threads`] workers. Every executor and every merge stage
    /// schedules through this instance, so concurrent queries and merges
    /// share workers instead of oversubscribing the machine.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.locals.len()
    }

    /// Tasks currently queued, unclaimed and still wanted — the load
    /// signal the admission gate consults. Helpers of a
    /// [`Self::run_indexed`] call that already completed (the caller
    /// out-ran them while every worker was busy) are not counted: they are
    /// not work waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::queue_depth`] since the last
    /// [`Self::reset_peak_depth`] (used by the oversubscription tests).
    pub fn peak_queue_depth(&self) -> usize {
        self.shared.peak_depth.load(Ordering::Relaxed)
    }

    /// Reset the peak-depth high-water mark.
    pub fn reset_peak_depth(&self) {
        self.shared.peak_depth.store(0, Ordering::Relaxed);
    }

    /// Fire-and-forget task submission. A worker of *this* pool pushes to
    /// its own deque (stolen by idle siblings); other threads go through
    /// the shared injector.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            // The pool is draining: run inline rather than strand the task
            // in a queue no worker will visit again.
            f();
            return;
        }
        self.shared.push(Task::Spawned(Box::new(f)));
    }

    /// Run `f(i)` for every `i in 0..n` with at most `width` helper tasks,
    /// blocking until all indices complete. Deterministic combine is the
    /// *caller's* job — indices are claimed in arbitrary order, so `f`
    /// must write results into per-index slots.
    ///
    /// `width` bounds this call's parallelism: the number of helper tasks
    /// is `width` clamped to `n` and to the pool size (so the queue never
    /// exceeds the pool), but never below one — on a single-worker pool a
    /// parallel request still runs caller + one worker concurrently, which
    /// is what keeps the cross-thread path exercised on small machines.
    /// `width <= 1` or `n <= 1` runs inline with no task queued, which is
    /// the serial-parity path. The caller participates in claiming
    /// indices, so nested calls from inside a worker cannot deadlock, and
    /// a panic in any `f(i)` is re-thrown here once every index has
    /// finished.
    pub fn run_indexed(&self, n: usize, width: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if n == 1 || width <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let helpers = width.min(n).min(self.threads()).max(1);
        // SAFETY: the lifetime is erased, not extended — `ScopeState`
        // dereferences the pointer only while this call's borrow of `f` is
        // provably live (see `ErasedFn`).
        let func = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let state = Arc::new(ScopeState {
            func: ErasedFn(func as *const (dyn Fn(usize) + Sync)),
            n,
            next: AtomicUsize::new(0),
            done: Mutex::new(Done {
                finished: 0,
                panic: None,
            }),
            cv: Condvar::new(),
            queued: AtomicUsize::new(helpers),
        });
        for _ in 0..helpers {
            self.shared.push(Task::Helper(Arc::clone(&state)));
        }
        state.drain();
        let mut d = state.done.lock().unwrap();
        while d.finished < n {
            d = state.cv.wait(d).unwrap();
        }
        let panicked = d.panic.take();
        drop(d);
        // Helpers no worker got to are no longer waiting work.
        self.shared
            .depth
            .fetch_sub(state.take_queued(helpers), Ordering::Relaxed);
        if let Some(p) = panicked {
            panic::resume_unwind(p);
        }
    }

    /// [`Self::run_indexed`] over owned work items: `f(i, items[i])` for
    /// every item, each handed to exactly one claimant — how the merge
    /// stages give every partition its disjoint `&mut` output slice.
    pub fn run_each<T: Send>(&self, items: Vec<T>, width: usize, f: impl Fn(usize, T) + Sync) {
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.run_indexed(slots.len(), width, &|i| {
            let item = slots[i].lock().unwrap().take();
            f(
                i,
                item.expect("run_indexed claims every index exactly once"),
            );
        });
    }

    /// Graceful shutdown: let queued work drain, then join every worker.
    /// Idempotent; also runs on `Drop`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut gen = self.shared.gate.gen.lock().unwrap();
            *gen += 1;
        }
        self.shared.gate.cv.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The size of the global pool — one worker per available hardware thread
/// (one if the host will not say) — and therefore the one answer to "how
/// many threads by default": merge policies, grants and the admission
/// gate's queue limit all read it, so a default grant never asks for more
/// width than the pool has. Reading it starts no pool.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The borrowed parallel-for closure, lifetime-erased. Soundness: the
/// pointer is dereferenced only for indices claimed while `finished < n`,
/// and `run_indexed` does not return before `finished == n` — so every
/// dereference happens while the caller's borrow is still live. Helper
/// tasks that outlive the call observe `next >= n` and never touch it.
struct ErasedFn(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and the pointer is only dereferenced inside the validity window argued
// above, so moving/sharing the pointer value across threads is sound.
unsafe impl Send for ErasedFn {}
unsafe impl Sync for ErasedFn {}

struct Done {
    finished: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct ScopeState {
    func: ErasedFn,
    n: usize,
    next: AtomicUsize,
    done: Mutex<Done>,
    cv: Condvar,
    /// Helper tasks still counted in the pool's `depth`. A helper takes one
    /// when a worker starts it, the caller takes what is left when the call
    /// completes, and whoever took a count subtracts it from `depth` — so
    /// each helper is uncounted exactly once, whichever comes first.
    queued: AtomicUsize,
}

impl ScopeState {
    /// Take up to `want` of the still-counted helpers; returns how many.
    fn take_queued(&self, want: usize) -> usize {
        let before = self
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| {
                Some(q.saturating_sub(want))
            })
            .expect("the update closure never declines");
        before.min(want)
    }

    /// Claim and run indices until the counter drains. Runs on helpers and
    /// on the caller alike.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // SAFETY: `i < n` was claimed, so `finished < n` and the
            // caller is still blocked in `run_indexed`; the borrow behind
            // the pointer is live (see `ErasedFn`).
            let f = unsafe { &*self.func.0 };
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
            let mut d = self.done.lock().unwrap();
            d.finished += 1;
            if let Err(p) = result {
                if d.panic.is_none() {
                    d.panic = Some(p);
                }
            }
            if d.finished == self.n {
                self.cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn every_default_width_is_the_global_pools_size() {
        use crate::{MergeGrant, MergePolicy};
        let n = default_threads();
        assert_eq!(MergePolicy::default().threads, n);
        assert_eq!(MergeGrant::default().threads, n);
        assert_eq!(Pool::global().threads(), n);
    }

    #[test]
    fn run_indexed_covers_every_index_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run_indexed(1000, 4, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_indexed_width_one_is_inline_and_queues_nothing() {
        let pool = Pool::new(4);
        pool.reset_peak_depth();
        let sum = AtomicU64::new(0);
        pool.run_indexed(100, 1, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
        assert_eq!(pool.peak_queue_depth(), 0, "serial path must not queue");
    }

    #[test]
    fn nested_run_indexed_from_workers_does_not_deadlock() {
        // Outer fan-out wider than the pool, each index fanning out again:
        // only sound because every claimant (workers *and* blocked
        // callers) drains the shared counter.
        let pool = Pool::new(2);
        let total = AtomicU64::new(0);
        pool.run_indexed(8, 8, &|_| {
            pool.run_indexed(16, 4, &|j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * (15 * 16 / 2));
    }

    #[test]
    fn merges_running_as_pool_tasks_fan_out_again_without_deadlock() {
        // Twice as many table merges as workers, claimed by the caller and
        // every worker at once; each merge then fans out over its columns
        // and each column over its Stage 2 regions on the same pool. Only
        // sound because every level's caller keeps claiming its own work.
        use crate::manager::OnlineTable;
        use crate::pipeline::MergeGrant;
        let pool = Pool::global();
        let n = 2 * pool.threads();
        let rows: Vec<[u64; 2]> = (0..140_000u64).map(|i| [i % 977, i]).collect();
        let tables: Vec<OnlineTable<u64>> = (0..n)
            .map(|_| {
                let t = OnlineTable::new(2);
                t.insert_rows(&rows).unwrap();
                t
            })
            .collect();
        pool.run_indexed(n, n, &|i| {
            tables[i].merge_with(MergeGrant::with_threads(4)).unwrap();
        });
        for t in &tables {
            assert_eq!((t.main_len(), t.delta_len()), (rows.len(), 0));
            assert_eq!(t.row(139_999), rows[139_999]);
        }
    }

    #[test]
    fn panic_in_one_index_propagates_after_all_finish() {
        let pool = Pool::new(3);
        let ran = AtomicU64::new(0);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(64, 3, &|i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 17 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "caller must observe the panic");
        assert_eq!(ran.load(Ordering::Relaxed), 64, "all indices still ran");
        // The pool survives a panicking task.
        let ok = AtomicU64::new(0);
        pool.run_indexed(8, 3, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn shutdown_drains_spawned_tasks_and_joins() {
        let pool = Pool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let d = Arc::clone(&done);
            pool.spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 32, "no task left behind");
        assert_eq!(pool.queue_depth(), 0);
        // Idempotent, and spawning after shutdown runs inline.
        pool.shutdown();
        let d = Arc::clone(&done);
        pool.spawn(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 33);
    }

    #[test]
    fn drop_joins_without_hanging() {
        let pool = Pool::new(3);
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        pool.spawn(move || {
            s.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn queue_depth_returns_to_zero_after_run() {
        let pool = Pool::new(4);
        pool.run_indexed(256, 4, &|_| {});
        // All helper tasks either ran or were claimed-out; either way they
        // have been dequeued by shutdown time.
        pool.shutdown();
        assert_eq!(pool.queue_depth(), 0);
    }

    /// Busy-wait until lingering no-op helper tasks (claimed-out by the
    /// caller before a worker reached them) have been popped, so peak
    /// measurements across calls do not see stale queue entries.
    fn settle(pool: &Pool) {
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn helper_tasks_are_bounded_by_width_and_pool_size() {
        let pool = Pool::new(4);
        settle(&pool);
        pool.reset_peak_depth();
        pool.run_indexed(1000, 2, &|_| {});
        assert!(pool.peak_queue_depth() <= 2, "width clamps helper count");
        settle(&pool);
        pool.reset_peak_depth();
        pool.run_indexed(1000, 64, &|_| {});
        assert!(
            pool.peak_queue_depth() <= pool.threads(),
            "pool size clamps helper count"
        );
    }
}
