//! Pins the tentpole claim: a warmed-up pipeline sorts with ZERO system
//! allocations — every transient buffer (key runs, payload blocks, radix
//! scratch, merge outputs) comes from the pipeline's pool.
//!
//! The counting allocator is installed globally for this test binary, so
//! the file holds exactly one test: any parallel test in the same binary
//! would allocate concurrently and poison the count.

use rowsort_core::metrics::Counter;
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_testkit::alloc::{allocation_count, CountingAllocator};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, OrderBy, Vector};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_sort_does_not_allocate() {
    let mut rng = Rng::seed_from_u64(0x2ea0_a110c);
    let n = 200_000;
    let col: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let chunk = DataChunk::from_columns(vec![Vector::from_u32s(col)]).unwrap();

    // threads: 1 — worker threads allocate stack/TLS on their own
    // schedule; the zero-allocation guarantee is about sort buffers.
    let pipeline = SortPipeline::new(
        chunk.types(),
        OrderBy::ascending(1),
        SortOptions {
            threads: 1,
            run_rows: 1 << 15,
            // Pinned on (not inherited from ROWSORT_OVC): the offset-value
            // code columns must come from the pool like every other sort
            // buffer, adding zero steady-state allocations.
            ovc: true,
            ..SortOptions::default()
        },
    );

    // Warm up: first sorts populate the buffer pool (runs + the merge's
    // output) and grow the merge's scratch. Two passes so every size
    // class is pooled before measurement.
    for _ in 0..2 {
        drop(pipeline.sort_rows(&chunk));
    }

    let before = allocation_count();
    let sorted = pipeline.sort_rows(&chunk);
    assert_eq!(sorted.len(), n as usize);
    drop(sorted);
    let allocs = allocation_count() - before;
    let (hits, misses) = pipeline.pool_stats();
    assert_eq!(
        allocs, 0,
        "steady-state sort hit the system allocator {allocs} time(s) \
         (pool hits={hits} misses={misses})"
    );
    assert!(
        hits > 0,
        "pool was never used (hits={hits} misses={misses})"
    );

    // The observability layer recorded the measured sort — counters,
    // phase timers, and the per-sort profile all updated — while the
    // allocation count above stayed at exactly zero: the metrics
    // registry is preallocated at pipeline construction.
    let profile = pipeline.last_profile();
    assert_eq!(profile.operator, "pipeline");
    assert_eq!(profile.rows, n as u64);
    assert!(profile.total_ns > 0);
    assert_eq!(profile.metrics.counter(Counter::SortCalls), 1);
    assert_eq!(profile.metrics.counter(Counter::RowsSorted), n as u64);
    assert!(profile.metrics.counter(Counter::PoolHits) > 0);
    assert!(profile.metrics.phase_total_ns() > 0);
    assert_eq!(pipeline.metrics().counter(Counter::SortCalls), 3);
}
