//! A counting global allocator for zero-allocation assertions.
//!
//! Install [`CountingAllocator`] as the `#[global_allocator]` of a test
//! binary, then bracket the region under test with [`allocation_count`]
//! readings:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rowsort_testkit::alloc::CountingAllocator =
//!     rowsort_testkit::alloc::CountingAllocator;
//!
//! let before = allocation_count();
//! steady_state_sort();
//! assert_eq!(allocation_count() - before, 0);
//! ```
//!
//! Only allocations are counted (not deallocations): a steady-state
//! pipeline may *return* buffers to its pool, but must not take any from
//! the system allocator. [`allocated_bytes`] reads the same events in
//! bytes, for budgets of the form "this call requests no more memory than
//! that one" — a copy of a relation shows up as its size, on any host and
//! without a clock. [`peak_bytes`] is the other budget, "this call never
//! holds more than that at once": frees do count there, so a buffer that
//! lives only inside the call shows up in its peak and nowhere else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Forwarding allocator that counts `alloc`/`realloc` calls.
pub struct CountingAllocator;

/// Count one allocation call that asked the system for `bytes` more.
fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[expect(unsafe_code, reason = "a GlobalAlloc impl is unsafe by definition")]
// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the counter update has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards to `System` under the caller's own layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System` under the caller's own layout contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards to `System`; `ptr` came from `alloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was produced by the matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards to `System` under the caller's realloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only growth asks the system for memory; a shrink counts nothing
        // as requested, and gives its bytes back to the live count.
        LIVE_BYTES.fetch_sub(layout.size().saturating_sub(new_size), Ordering::Relaxed);
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` follow the caller's realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocation calls (alloc + alloc_zeroed + realloc) since process
/// start. Monotonic; subtract two readings to count a region.
pub fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested (`alloc` and `alloc_zeroed` sizes, plus the growth
/// of every `realloc`) since process start. Monotonic like
/// [`allocation_count`]: frees subtract nothing, so the difference of two
/// readings is what a region asked the allocator for, not what it holds.
pub fn allocated_bytes() -> usize {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// The most bytes that were live at once since the last [`reset_peak`]
/// (since process start, before the first).
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restart [`peak_bytes`] from the bytes live now.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    // The allocator is exercised for real in `rowsort-core`'s
    // `zero_alloc` integration test, where it is installed globally; unit
    // tests here only check that the counter is monotonic and readable.
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let a = allocation_count();
        let b = allocation_count();
        assert!(b >= a);
        let (a, b) = (allocated_bytes(), allocated_bytes());
        assert!(b >= a);
    }
}
