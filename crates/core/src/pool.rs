//! Size-classed buffer pool: the allocation backbone of the steady-state
//! sort pipeline.
//!
//! Every large transient buffer the pipeline needs — normalized-key runs,
//! `RowBlock` row areas and string heaps, the radix scatter scratch, merge
//! output buffers — is acquired from and returned to one of these pools,
//! so after a warm-up sort the pipeline performs **zero** heap allocations
//! (pinned by `tests/zero_alloc.rs`). Polyntsov et al. (PAPERS.md) measure
//! exactly this class of overhead dominating external-sort runtime once
//! the algorithm is fixed; pooling removes it without touching the
//! algorithms.
//!
//! Buffers are binned by power-of-two capacity class. `get_bytes(n)` pops
//! a buffer whose capacity is at least `n` from the smallest class that
//! guarantees it (`ceil(log2(n))`); `put_bytes` files a buffer under
//! `floor(log2(capacity))`, so a pooled buffer always satisfies any
//! request routed to its class. Free lists are preallocated to a fixed
//! slot count, so the pool itself allocates nothing in steady state; a
//! `put` into a full class simply drops the buffer.
//!
//! A pool outlives its sorts: an engine keeps one for every in-memory sort
//! it runs, a sorter built alone keeps its own ([`SortResources`], DESIGN.md
//! §6). Each sort counts its own hits and misses (`SortPool`).
//!
//! [`SortResources`]: crate::resources::SortResources

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::metrics::{Counter, CounterRegistry};

/// Smallest pooled capacity: `1 << MIN_SHIFT` bytes. Anything smaller is
/// dropped on `put` — recycling tiny buffers saves nothing.
const MIN_SHIFT: usize = 6;

/// Largest pooled class: `1 << MAX_SHIFT` bytes (16 GiB). Requests beyond
/// this fall through to plain allocation.
const MAX_SHIFT: usize = 34;

/// Retained buffers per size class. Each run/merge round holds only a
/// handful of buffers per class, so this bounds pool memory while keeping
/// steady-state hit rates at 100%.
const SLOTS_PER_CLASS: usize = 64;

/// A size-classed free list of `Vec<u8>` buffers.
///
/// ```
/// use rowsort_core::pool::BufferPool;
///
/// let pool = BufferPool::new();
/// let mut buf = pool.get_bytes(1000);
/// assert!(buf.capacity() >= 1000);
/// buf.resize(1000, 0); // within capacity: no allocation
/// pool.put_bytes(buf);
/// let again = pool.get_bytes(900); // same class: recycled, not allocated
/// assert!(again.capacity() >= 1024);
/// ```
pub struct BufferPool {
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl BufferPool {
    /// An empty pool. Free-list backbones are allocated up front so that
    /// `get`/`put` traffic never grows them.
    pub fn new() -> BufferPool {
        let nclasses = MAX_SHIFT - MIN_SHIFT + 1;
        let mut classes = Vec::with_capacity(nclasses);
        for _ in 0..nclasses {
            classes.push(Mutex::new(Vec::with_capacity(SLOTS_PER_CLASS)));
        }
        BufferPool {
            classes,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Class index that *guarantees* capacity `n` (round up).
    fn class_for_request(n: usize) -> Option<usize> {
        let shift = usize::BITS as usize - (n.max(1) - 1).leading_zeros() as usize;
        let shift = shift.max(MIN_SHIFT);
        (shift <= MAX_SHIFT).then(|| shift - MIN_SHIFT)
    }

    /// Class index a buffer of `capacity` belongs to (round down).
    fn class_for_buffer(capacity: usize) -> Option<usize> {
        if capacity < (1 << MIN_SHIFT) {
            return None;
        }
        let shift = (usize::BITS - 1 - capacity.leading_zeros()) as usize;
        Some(shift.min(MAX_SHIFT) - MIN_SHIFT)
    }

    /// An empty `Vec<u8>` with capacity ≥ `min_capacity`, recycled when the
    /// matching class has one, freshly allocated otherwise.
    pub fn get_bytes(&self, min_capacity: usize) -> Vec<u8> {
        self.take(min_capacity).0
    }

    /// [`BufferPool::get_bytes`], saying whether the buffer was a hit or a
    /// miss.
    fn take(&self, min_capacity: usize) -> (Vec<u8>, Counter) {
        let Some(class) = Self::class_for_request(min_capacity) else {
            // Beyond the largest class (> 16 GiB): plain allocation.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return (Vec::with_capacity(min_capacity), Counter::PoolMisses);
        };
        let mut list = self.classes[class]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(buf) = list.pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            (buf, Counter::PoolHits)
        } else {
            drop(list);
            self.misses.fetch_add(1, Ordering::Relaxed);
            let buf = Vec::with_capacity(1usize << (class + MIN_SHIFT));
            (buf, Counter::PoolMisses)
        }
    }

    /// Return a buffer to its class. The buffer is cleared; it is dropped
    /// instead if it is tiny or its class is already full.
    pub fn put_bytes(&self, mut buf: Vec<u8>) {
        let Some(class) = Self::class_for_buffer(buf.capacity()) else {
            return;
        };
        buf.clear();
        let mut list = self.classes[class]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if list.len() < SLOTS_PER_CLASS {
            list.push(buf);
        }
        // else: class full; `buf` drops here.
    }

    /// Requests served from a free list.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that fell through to a fresh allocation.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

/// A pool as one sort draws on it: the free lists, which other sorts may
/// share, and the registry of the sort that asks, which its hits and misses
/// count into ([`Counter::PoolHits`] / [`Counter::PoolMisses`]). So a sort's
/// profile counts its own traffic whoever else uses the pool.
#[derive(Clone, Copy)]
pub(crate) struct SortPool<'a> {
    pub(crate) pool: &'a BufferPool,
    pub(crate) metrics: &'a CounterRegistry,
}

impl SortPool<'_> {
    pub(crate) fn get_bytes(self, min_capacity: usize) -> Vec<u8> {
        let (buf, counter) = self.pool.take(min_capacity);
        self.metrics.add(counter, 1);
        buf
    }

    pub(crate) fn put_bytes(self, buf: Vec<u8>) {
        self.pool.put_bytes(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_returns_requested_capacity() {
        let pool = BufferPool::new();
        for n in [1, 63, 64, 65, 1000, 1 << 20] {
            let buf = pool.get_bytes(n);
            assert!(buf.capacity() >= n, "requested {n}");
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn put_then_get_recycles() {
        let pool = BufferPool::new();
        let mut buf = pool.get_bytes(4096);
        buf.extend_from_slice(&[7u8; 100]);
        let ptr = buf.as_ptr();
        pool.put_bytes(buf);
        let again = pool.get_bytes(4096);
        assert_eq!(again.as_ptr(), ptr, "same backing buffer");
        assert!(again.is_empty(), "recycled buffers come back cleared");
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn class_rounding_guarantees_capacity() {
        // A buffer put at capacity c must satisfy any get routed to the
        // class it lands in: put rounds down, get rounds up.
        let pool = BufferPool::new();
        let mut buf = Vec::with_capacity(1500); // class floor(log2(1500)) = 10
        buf.push(1u8);
        pool.put_bytes(buf);
        // get(1024) routes to class ceil(log2(1024)) = 10 → recycled.
        let got = pool.get_bytes(1024);
        assert!(got.capacity() >= 1024);
        assert_eq!(pool.hits(), 1);
        // get(1025) routes to class 11 → miss (the pooled buffer could not
        // have satisfied it).
        let fresh = pool.get_bytes(1025);
        assert!(fresh.capacity() >= 1025);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn tiny_buffers_are_dropped() {
        let pool = BufferPool::new();
        pool.put_bytes(Vec::with_capacity(8));
        assert_eq!(
            pool.get_bytes(8).capacity(),
            64,
            "not recycled; class minimum"
        );
        assert_eq!(pool.hits(), 0);
    }

    #[test]
    fn full_class_drops_excess() {
        let pool = BufferPool::new();
        for _ in 0..SLOTS_PER_CLASS + 10 {
            pool.put_bytes(Vec::with_capacity(256));
        }
        for _ in 0..SLOTS_PER_CLASS + 10 {
            let _ = pool.get_bytes(256);
        }
        assert_eq!(
            pool.hits(),
            SLOTS_PER_CLASS,
            "only the retained slots recycle"
        );
    }

    #[test]
    fn concurrent_get_put() {
        let pool = std::sync::Arc::new(BufferPool::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..1000 {
                        let buf = pool.get_bytes(64 + (i % 5) * 1000);
                        pool.put_bytes(buf);
                    }
                });
            }
        });
        assert_eq!(pool.hits() + pool.misses(), 4000);
    }
}
