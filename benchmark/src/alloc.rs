//! The benchmark's tracking `#[global_allocator]`.
//!
//! Installed in traced and untraced runs alike, so its cost is the same on
//! both sides of any comparison. It forwards to [`System`] and keeps four
//! process-wide figures: live bytes, the peak of live bytes since the last
//! [`reset_peak`], allocation calls, and bytes requested.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// Forwarding allocator that tracks live, peak and requested bytes.
pub struct TrackingAllocator;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::AcqRel) + by;
    PEAK.fetch_max(live, Ordering::AcqRel);
    CALLS.fetch_add(1, Ordering::AcqRel);
    BYTES.fetch_add(by, Ordering::AcqRel);
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for TrackingAllocator {
    // SAFETY: forwards to `System` under the caller's own layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same `layout` contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System` under the caller's own layout contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same `layout` contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards to `System`; `ptr` came from `alloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::AcqRel);
        // SAFETY: `ptr` was produced by the matching `alloc` above with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards to `System` under the caller's realloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::AcqRel);
        grew(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` follow the caller's
        // realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the allocator's counters.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Peak live bytes since the last [`reset_peak`].
    pub peak_bytes: usize,
    /// Allocation calls (alloc + alloc_zeroed + realloc) since process start.
    pub calls: usize,
    /// Bytes requested by those calls.
    pub bytes: usize,
}

/// The current counters.
pub fn read() -> Reading {
    Reading {
        peak_bytes: PEAK.load(Ordering::Acquire),
        calls: CALLS.load(Ordering::Acquire),
        bytes: BYTES.load(Ordering::Acquire),
    }
}

/// Restart peak tracking from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Acquire), Ordering::Release);
}
