//! What sorts borrow instead of building (DESIGN.md §6): a buffer pool and
//! a crew of phase workers. An engine keeps one set for all its queries, so
//! a query's sort starts on warm buffers and on threads that already
//! exist; a sorter built alone gets a private set, which is the same thing
//! kept for one sorter.

use crate::pool::BufferPool;
use crate::workers::WorkerPool;
use std::sync::Arc;

/// A buffer pool and a worker crew, shared by every sorter built on them
/// ([`SortPipeline::with_resources`], [`ExternalSorter::with_resources`]).
/// Nothing is spawned here: the crew spawns with the first phase that has
/// two workers' worth of work. Cloning shares the set.
///
/// [`SortPipeline::with_resources`]: crate::pipeline::SortPipeline::with_resources
/// [`ExternalSorter::with_resources`]: crate::external::ExternalSorter::with_resources
#[derive(Clone)]
pub struct SortResources {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) crew: Arc<WorkerPool>,
}

impl SortResources {
    /// A fresh set whose crew has `threads` workers (0 clamps to 1).
    pub fn new(threads: usize) -> SortResources {
        SortResources {
            pool: Arc::new(BufferPool::new()),
            crew: Arc::new(WorkerPool::new(threads.max(1))),
        }
    }

    /// Workers of every phase a sort on this set runs.
    pub fn threads(&self) -> usize {
        self.crew.threads()
    }

    /// This set with a crew of `threads` workers (0 clamps to 1): itself
    /// when its crew has that many, otherwise the same pool and a fresh
    /// crew. Sorts already running keep the old crew until they end.
    pub fn with_threads(&self, threads: usize) -> SortResources {
        let threads = threads.max(1);
        SortResources {
            pool: Arc::clone(&self.pool),
            crew: if self.threads() == threads {
                Arc::clone(&self.crew)
            } else {
                Arc::new(WorkerPool::new(threads))
            },
        }
    }
}
