//! Persistent worker pool for the sort pipeline.
//!
//! The seed pipeline spawned fresh OS threads with `std::thread::scope`
//! for every run-generation and merge phase — a few hundred microseconds
//! of kernel work per phase that recurs on every `sort` call. This pool
//! spawns its workers once per pipeline and broadcasts each phase to all
//! of them, so steady-state sorting performs no thread spawns (and no
//! allocations: broadcasting publishes one raw pointer under a mutex).
//!
//! The model is deliberately minimal — exactly what a sort phase needs:
//!
//! * [`WorkerPool::broadcast`] hands every worker the *same* closure,
//!   tagged with the worker's index; workers claim morsels/merge tasks
//!   from a shared atomic counter inside the closure.
//! * The caller participates as worker 0, so a pool built for `threads`
//!   spawns only `threads - 1` OS threads and `threads == 1` spawns none.
//! * `broadcast` returns only after every worker has finished the phase;
//!   worker panics are re-raised on the caller.
//!
//! The lifetime-erased job pointer below is this crate's only `unsafe`:
//! what a phase writes, its tasks claim as `split_at_mut` slices under a
//! lock (`pipeline.rs`), so no output pointer crosses threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::metrics::{Counter, CounterRegistry};

/// The phase closure, lifetime-erased. The pointer is only dereferenced
/// between the generation bump that publishes it and the last worker's
/// `done` signal, and `broadcast` does not return (or unwind) before that
/// signal — so the pointee outlives every dereference.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: a JobPtr crosses threads only via `Shared.state`, and is only
// dereferenced during a broadcast, while the caller — who owns the
// closure — is blocked in `broadcast` (or in `PhaseGuard::drop` when
// unwinding) until every worker reports done. The pointee is `Sync`, so
// concurrent shared calls from many workers are sound.
unsafe impl Send for JobPtr {}

struct State {
    /// Bumped once per broadcast; workers run a phase when they observe a
    /// generation newer than the last one they completed.
    generation: u64,
    job: Option<JobPtr>,
    /// Spawned workers still executing the current phase.
    active: usize,
    /// Workers that panicked during the current phase.
    panicked: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: new phase available (or shutdown).
    work_cv: Condvar,
    /// Signals the caller: a worker finished the phase.
    done_cv: Condvar,
}

/// A fixed crew of phase workers, spawned once and reused for every
/// run-generation and merge phase of a pipeline.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Total workers including the caller (= spawned + 1).
    threads: usize,
    /// Optional counter registry recording broadcast count and wall time.
    metrics: Option<Arc<CounterRegistry>>,
}

impl WorkerPool {
    /// A pool executing phases on `threads` workers total: `threads - 1`
    /// spawned OS threads plus the broadcasting caller.
    pub fn new(threads: usize) -> WorkerPool {
        assert!(threads >= 1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                job: None,
                active: 0,
                panicked: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for index in 1..threads {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || worker_loop(&shared, index)));
        }
        WorkerPool {
            shared,
            handles,
            threads,
            metrics: None,
        }
    }

    /// A pool that records each phase broadcast ([`Counter::Broadcasts`])
    /// and its wall time ([`Counter::BroadcastNs`]) into `metrics`.
    pub fn with_metrics(threads: usize, metrics: Arc<CounterRegistry>) -> WorkerPool {
        let mut pool = WorkerPool::new(threads);
        pool.metrics = Some(metrics);
        pool
    }

    /// Total workers, including the calling thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn record_broadcast(&self, start: Instant) {
        if let Some(metrics) = &self.metrics {
            metrics.add(Counter::Broadcasts, 1);
            metrics.add(Counter::BroadcastNs, start.elapsed().as_nanos() as u64);
        }
    }

    /// Run `f(worker_index)` on every worker (indices `0..threads`, the
    /// caller being 0) and return once all calls complete.
    ///
    /// # Panics
    /// Re-raises on the caller if any worker's closure panicked; the pool
    /// stays usable afterwards.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let start = Instant::now();
        if self.handles.is_empty() {
            f(0);
            self.record_broadcast(start);
            return;
        }
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            // SAFETY: erasing the lifetime of the closure `f` to publish
            // it. The guard below — dropped only after `active` returns
            // to 0 — keeps this stack frame (and thus `f`) alive until
            // the last worker is done with the pointer.
            let erased: *const (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(f as *const _)
            };
            state.job = Some(JobPtr(erased));
            state.generation += 1;
            state.active = self.handles.len();
            state.panicked = 0;
            self.shared.work_cv.notify_all();
        }
        let guard = PhaseGuard {
            shared: &self.shared,
        };
        // The caller is worker 0; if this panics, `guard` still waits for
        // the spawned workers before the unwind leaves this frame.
        f(0);
        drop(guard); // waits; panics if a worker panicked
        self.record_broadcast(start);
    }
}

/// Blocks until the in-flight phase drains, then surfaces worker panics.
struct PhaseGuard<'a> {
    shared: &'a Shared,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.active > 0 {
            state = self
                .shared
                .done_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.job = None;
        let panicked = state.panicked;
        drop(state);
        if panicked > 0 && !std::thread::panicking() {
            // lint:allow(R010): a worker panic is a phase failure;
            // re-raising it on the caller is the contract of `broadcast`.
            panic!("{panicked} sort worker(s) panicked during a phase");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen {
                    seen = state.generation;
                    break;
                }
                state = shared
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            state.job
        };
        let Some(JobPtr(job)) = job else { continue };
        // SAFETY: the broadcasting caller is blocked until this worker
        // decrements `active` below, so the closure behind `job` is alive
        // for the whole call (see JobPtr's Send justification).
        let f = unsafe { &*job };
        let result = catch_unwind(AssertUnwindSafe(|| f(index)));
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if result.is_err() {
            state.panicked += 1;
        }
        state.active -= 1;
        if state.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_on_every_worker() {
        let pool = WorkerPool::new(4);
        let mut hits = vec![
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ];
        pool.broadcast(&|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        for h in hits.iter_mut() {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.broadcast(&|w| {
            assert_eq!(w, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn repeated_broadcasts_reuse_workers() {
        let pool = WorkerPool::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(&|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn workers_share_a_task_counter() {
        let pool = WorkerPool::new(4);
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        pool.broadcast(&|_| loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= 1000 {
                break;
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool remains usable for the next phase.
        let count = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
