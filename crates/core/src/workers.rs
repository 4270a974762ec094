//! Persistent worker pool for the sort pipeline.
//!
//! The seed pipeline spawned fresh OS threads with `std::thread::scope`
//! for every run-generation and merge phase — a few hundred microseconds
//! of kernel work per phase that recurs on every `sort` call. This pool
//! spawns its workers once, with its first phase, and broadcasts each
//! phase to all of them, so steady-state sorting performs no thread spawns
//! (and no allocations: broadcasting publishes one raw pointer under a
//! mutex). One pool may serve many sorters: an engine keeps one crew for
//! all its queries (DESIGN.md §6).
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
//! * One phase runs at a time: a second caller waits for the first one's
//!   phase to end, so two sorts on one crew queue instead of colliding.
//!
//! The lifetime-erased job pointer below is this crate's only `unsafe`:
//! what a phase writes, its tasks claim as `split_at_mut` slices under a
//! lock (`pipeline.rs`), so no output pointer crosses threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The phase closure, lifetime-erased. The pointer is only dereferenced
/// between the generation bump that publishes it and the last worker's
/// `done` signal, and `broadcast` does not return (or unwind) before that
/// signal — so the pointee outlives every dereference.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

#[expect(unsafe_code, reason = "the job pointer's barrier-bounded lifetime")]
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

/// A fixed crew of phase workers, spawned by the first phase and reused
/// for every run-generation and merge phase after it.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// The phase lock, held by a broadcast for its whole phase, over the
    /// spawned workers' handles (none before the first phase). The job
    /// slot in `shared` holds one phase; a second caller waits here rather
    /// than overwrite it under the first caller's workers.
    phase: Mutex<Vec<JoinHandle<()>>>,
    /// Total workers including the caller (= spawned + 1).
    threads: usize,
}

impl WorkerPool {
    /// A pool executing phases on `threads` workers total: `threads - 1`
    /// OS threads, spawned by the first broadcast, plus the broadcasting
    /// caller.
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
        WorkerPool {
            shared,
            phase: Mutex::new(Vec::new()),
            threads,
        }
    }

    /// Total workers, including the calling thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the pool's OS threads exist yet: only once a phase has been
    /// broadcast on two workers or more. Waits for a phase in flight.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> bool {
        !self
            .phase
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Run `f(worker_index)` on every worker (indices `0..threads`, the
    /// caller being 0) and return once all calls complete. A broadcast
    /// from another thread in the meantime waits for this one to return.
    ///
    /// # Panics
    /// Re-raises on the caller if any worker's closure panicked; the pool
    /// stays usable afterwards.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 {
            f(0);
            return;
        }
        let mut handles = self.phase.lock().unwrap_or_else(|e| e.into_inner());
        for index in handles.len() + 1..self.threads {
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || worker_loop(&shared, index)));
        }
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            #[expect(unsafe_code, reason = "publishes the phase closure to the workers")]
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
            state.active = handles.len();
            state.panicked = 0;
            self.shared.work_cv.notify_all();
        }
        let guard = PhaseGuard {
            shared: &self.shared,
        };
        // The caller is worker 0; if this panics, `guard` still waits for
        // the spawned workers before the unwind leaves this frame (and
        // then releases the phase lock).
        f(0);
        drop(guard); // waits; panics if a worker panicked
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
        #[expect(
            clippy::panic,
            reason = "a worker panic is a phase failure; re-raising it on the caller is the \
                      contract of `broadcast`"
        )]
        if panicked > 0 && !std::thread::panicking() {
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
        let handles = self.phase.get_mut().unwrap_or_else(|e| e.into_inner());
        for handle in handles.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "`worker_loop` catches a phase's panic and the phase re-raises it on \
                          its caller, so a shutdown join has nothing left to report"
            )]
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
        #[expect(unsafe_code, reason = "reads the closure the caller keeps alive")]
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
        let mut hits = [
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
    fn the_crew_spawns_with_its_first_phase() {
        let pool = WorkerPool::new(3);
        assert!(!pool.spawned());
        pool.broadcast(&|_| {});
        assert!(pool.spawned());
        let single = WorkerPool::new(1);
        single.broadcast(&|_| {});
        assert!(!single.spawned(), "one worker is the caller alone");
    }

    #[test]
    fn concurrent_broadcasts_queue_instead_of_colliding() {
        // Four callers share one crew. Each call's own closure must run
        // exactly once on every worker index: a call that published over
        // another's job slot would run the other's closure, or return
        // before its own workers finished.
        let pool = WorkerPool::new(3);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        let hits = [0, 1, 2].map(|_| AtomicUsize::new(0));
                        pool.broadcast(&|w| {
                            hits[w].fetch_add(1, Ordering::Relaxed);
                        });
                        let hits = hits.map(|h| h.load(Ordering::Relaxed));
                        assert_eq!(hits, [1, 1, 1]);
                    }
                });
            }
        });
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
