//! Pins the allocation profile of the range-partitioned spill merge: a
//! warmed-up external sorter reaches a steady state where per-sort
//! system allocations are constant up to a small scheduling jitter and
//! the buffer pool (the merge sinks' row batches, the encoder's and the
//! cursors' block buffers) almost never misses — pooled buffers are
//! recycled, not reallocated.
//!
//! The external path cannot claim literal zero (each sort opens fresh
//! run files and cursors), and with two merge workers the peak number of
//! concurrently-live pooled blocks depends on how the OS interleaves
//! them — a pass that overlaps more than any warmup pass mints a few
//! pool buffers once. The pin is therefore *bounded constancy*: per-sort
//! deltas may differ only by that one-time refill allowance, far below
//! what any per-row or per-record leak would produce. In bytes, the pin
//! is that the output columns are the only relation-sized allocation: a
//! warmed sort through real files asks the allocator for them and a small
//! constant — so no run's encoding is ever held whole, and no merged row
//! run or pick list stands between the run files and the vectors.
//!
//! The counting allocator is installed globally for this test binary, so
//! the file holds exactly one test: any parallel test in the same binary
//! would allocate concurrently and poison the count.

use std::sync::Arc;

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::metrics::Counter;
use rowsort_testkit::alloc::{allocated_bytes, allocation_count, CountingAllocator};
use rowsort_testkit::faultfs::{FaultFs, FaultSchedule};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, OrderBy, Vector};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warmed_partitioned_spill_merge_allocates_a_constant_amount() {
    let mut rng = Rng::seed_from_u64(0x5b111_a110c);
    let n = 20_000u32;
    let col: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let chunk = DataChunk::from_columns(vec![Vector::from_u32s(col)]).unwrap();

    // An in-memory fault-free filesystem keeps the I/O layer's own
    // allocations deterministic; merge_threads: 2 forces the partitioned
    // path even on a single-core machine.
    let options = ExternalSortOptions {
        memory_limit_rows: 2_000,
        ovc: true,
        merge_threads: 2,
        ..Default::default()
    };
    let sorter = ExternalSorter::with_spill_io(
        chunk.types(),
        OrderBy::ascending(1),
        options.clone(),
        Arc::new(FaultFs::new(FaultSchedule::none())),
    );

    // Warm up: populate the buffer pool (a block buffer for every cursor
    // plus the two sinks' row batches) and spawn the worker pool's
    // thread. Two passes so every size class is pooled.
    for _ in 0..2 {
        drop(sorter.sort(&chunk).unwrap());
    }

    // Worst-case one-time pool refill: both workers holding a full
    // cursor set at once — 2 workers x 10 runs x 1 block buffer, plus
    // the two row batches.
    const REFILL_ALLOWANCE: usize = 22;

    let mut deltas = [0usize; 4];
    let mut misses = 0u64;
    for d in &mut deltas {
        let misses_before = sorter.metrics().counter(Counter::PoolMisses);
        let before = allocation_count();
        let sorted = sorter.sort(&chunk).unwrap();
        assert_eq!(sorted.len(), n as usize);
        drop(sorted);
        *d = allocation_count() - before;
        misses += sorter.metrics().counter(Counter::PoolMisses) - misses_before;
    }

    let (lo, hi) = (*deltas.iter().min().unwrap(), *deltas.iter().max().unwrap());
    assert!(
        hi - lo <= REFILL_ALLOWANCE,
        "warmed spill sorts must allocate a constant amount up to the \
         one-time pool refill allowance (deltas: {deltas:?})"
    );
    assert!(
        misses as usize <= REFILL_ALLOWANCE,
        "warmed spill sorts missed the buffer pool {misses} times over \
         4 passes (deltas: {deltas:?})"
    );

    // The measured sorts really took the partitioned path: the last sort
    // split the merge into both planned ranges and the cursors decoded
    // records in place from their pooled blocks.
    let profile = sorter.last_profile();
    assert_eq!(
        profile.metrics.counter(Counter::SpillMergePartitions),
        2,
        "merge did not partition"
    );
    assert!(
        profile.metrics.counter(Counter::SpillReadaheadHits) > 0,
        "no record decoded in place"
    );
    assert!(profile.metrics.counter(Counter::PoolHits) > 0);

    // In bytes, through real files (the in-memory filesystem above
    // allocates every file it stores): the encoder streams each run
    // through one pooled block and the merge gathers straight into the
    // output, so a warmed sort requests its output column and, for run
    // indexes, cursors, file handles and paths, less than 64 KiB more.
    // (Until PR 20 it also requested 4 bytes a row of identity order for
    // the gather of a merged run.) A run's encoding held whole, anywhere,
    // would be several times that.
    let dir = std::env::temp_dir().join(format!("rowsort-zero-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let options = ExternalSortOptions {
        spill_dir: Some(dir.clone()),
        ..options
    };
    let on_disk = ExternalSorter::new(chunk.types(), OrderBy::ascending(1), options);
    for _ in 0..2 {
        drop(on_disk.sort(&chunk).unwrap());
    }
    let before = allocated_bytes();
    drop(on_disk.sort(&chunk).unwrap());
    let requested = (allocated_bytes() - before) as u64;
    std::fs::remove_dir_all(&dir).unwrap();
    let encoded = on_disk
        .last_profile()
        .metrics
        .counter(Counter::SpilledBytes);
    let output = u64::from(n) * 4;
    assert!(
        requested <= output + (64 << 10) && requested < encoded,
        "a warmed sort requested {requested} bytes for {output} bytes of output \
         (spilling and merging {encoded})"
    );
}
