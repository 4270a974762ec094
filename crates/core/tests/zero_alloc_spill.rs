//! Pins the allocation profile of the range-partitioned spill merge: a
//! warmed-up external sorter reaches a steady state where per-sort
//! system allocations are constant up to a small scheduling jitter and
//! the sorter's buffer pool (the merge sinks' row batches, the encoder's
//! and the cursors' block buffers) almost never misses — pooled buffers
//! are recycled, not reallocated. The spill phase's own pool is born
//! empty with every sort and reports to the same registry: it misses
//! once per worker and buffer of a run, never once per run.
//!
//! The external path cannot claim literal zero (each sort opens fresh
//! run files and cursors), and with two merge workers the peak number of
//! concurrently-live pooled blocks depends on how the OS interleaves
//! them — a pass that overlaps more than any warmup pass mints a few
//! pool buffers once. The pin is therefore *bounded constancy*: per-sort
//! deltas may differ only by that one-time refill allowance, far below
//! what any per-row or per-record leak would produce. In bytes, the pin
//! is that the output columns are the only allocation that scales with
//! the relation: at one `memory_limit_rows`, a warmed sort of twice the
//! rows through real files requests twice the output and otherwise what
//! the smaller one did (run generation's buffers live for the spill
//! phase, so every sort requests them: a function of the run size and
//! the worker count, not of the relation) — so no run's encoding is ever
//! held whole, and no merged row run or pick list stands between the run
//! files and the vectors. That is asserted on one thread, where the byte
//! counts repeat exactly, and on two — the partitioned path, whose cuts,
//! per-range sinks and per-range cursors a one-thread sort never builds —
//! with one run's buffers of allowance for the scheduler.
//!
//! The counting allocator is installed globally for this test binary, so
//! the file holds exactly one test: any parallel test in the same binary
//! would allocate concurrently and poison the count.

use std::sync::Arc;

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::keys::KeyBlock;
use rowsort_core::metrics::Counter;
use rowsort_core::ovc::MergeCodes;
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
    let col: Vec<u32> = (0..2 * n).map(|_| rng.next_u32()).collect();
    let twice = DataChunk::from_columns(vec![Vector::from_u32s(col)]).unwrap();
    let chunk = twice.slice(0, n as usize);

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

    // Worst-case one-time refill of the sorter's pool: both workers
    // holding a full cursor set at once — 2 workers x 10 runs x 1 block
    // buffer, plus the two row batches.
    const REFILL_ALLOWANCE: usize = 22;
    // What the spill phase's pool, empty at the start of every sort,
    // misses in each: a worker mints the buffers of the first run it
    // claims — staged rows, radix scratch, then the sorted run's keys,
    // codes if it stores them, rows, and what it holds of each string
    // column (the strings themselves stay in the input until a run is laid
    // out for its reader) — and every run it claims after that reuses
    // them: six. A key of 7 bytes or fewer is its own merge code, and its
    // run has no code column: five. The radix scratch (key + row id per
    // row) goes back to the pool before the code column (8 bytes per row)
    // and the rows are asked for, so it serves the first of them that
    // rounds up to its power-of-two class: one miss fewer. The random u32
    // keys range-code in 4 bytes (no NULL, a span past 2^24): no code
    // column. The key gives the one column back, so the rows have no bytes
    // and, like the strings, take no buffer: two, scratch and keys.
    let order = OrderBy::ascending(1);
    let run_rows = options.memory_limit_rows;
    let key_width = KeyBlock::planned(&chunk, &order).key_width();
    assert_eq!(key_width, 4, "the plan");
    let code_bytes = if MergeCodes::of(options.ovc, key_width).stored() {
        8
    } else {
        0
    };
    // The row the sort planned: the key holds the one column, so the row
    // has no bytes, and its buffers are empty requests.
    let width = sorter.last_profile().row_width as usize;
    assert_eq!(width, 0, "a row of no columns");
    let class = |bytes: usize| bytes.next_power_of_two();
    let scratch = class(run_rows * (key_width + 4));
    let after_scratch = [run_rows * code_bytes, run_rows * width];
    let scratch_serves = after_scratch.iter().any(|&b| b > 0 && class(b) == scratch);
    // A request for no bytes takes no buffer: here the staged rows and
    // the run's rows (a row of no columns) and its string columns (none).
    let requests = [
        run_rows * width,
        0,
        run_rows * (key_width + 4),
        run_rows * key_width,
        run_rows * code_bytes,
        run_rows * width,
    ];
    let buffers = requests.iter().filter(|&&b| b > 0).count();
    let run_set_buffers = buffers - usize::from(scratch_serves);
    const WORKERS: usize = 2;
    const PASSES: usize = 4;

    let mut deltas = [0usize; PASSES];
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
    // The sorter keeps its key plan from sort to sort: a warm sort plans
    // no key layout, row plan or statistics again. What it still
    // allocates is its run files, indexes and cursors, the merge plan, its
    // spill phase's pool and key blocks, and its output: 343 at most
    // (351 when every sort planned afresh).
    const WARM_ALLOCS: usize = 343;
    assert!(
        hi <= WARM_ALLOCS,
        "a warmed spill sort allocates at most {WARM_ALLOCS} times (deltas: {deltas:?})"
    );
    assert!(
        hi - lo <= REFILL_ALLOWANCE,
        "warmed spill sorts must allocate a constant amount up to the \
         one-time pool refill allowance (deltas: {deltas:?})"
    );
    assert!(
        misses as usize <= PASSES * WORKERS * run_set_buffers + REFILL_ALLOWANCE,
        "warmed spill sorts missed the buffer pools {misses} times over {PASSES} passes: \
         more than a run's {run_set_buffers} buffers per worker and pass plus the \
         one-time refill allowance (deltas: {deltas:?})"
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
        profile.metrics.counter(Counter::SpillRecordsDecoded) > 0,
        "no record decoded in place"
    );
    assert!(profile.metrics.counter(Counter::PoolHits) > 0);

    // In bytes, through real files (the in-memory filesystem above
    // allocates every file it stores): the encoder streams each run
    // through one pooled block and the merge gathers straight into the
    // output, so what a warmed sort requests is its output column, the
    // run-generation buffers of its spill phase, and — for run indexes,
    // cursors, file handles and paths — a little per run. Only the first
    // scales with the relation: twice the rows at the same run size
    // request twice the output and less than 64 KiB more. (Until PR 20 a
    // sort also requested 4 bytes a row of identity order for the gather
    // of a merged run.) A run's encoding held whole, anywhere, would be
    // several times that: 500 KB for the 20 000 rows more.
    //
    // On one thread the counts repeat exactly, and the phase pool misses
    // exactly one run set. On two — the partitioned merge — whether the
    // second worker mints its own run set or finds one the first has
    // recycled is the scheduler's choice, in either sort: one set of
    // allowance, a function of `memory_limit_rows` and the row and key
    // widths only (a pooled buffer is at most twice its request).
    let dir = std::env::temp_dir().join(format!("rowsort-zero-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Staged rows, radix scratch over the key entries (key + row id), and
    // the sorted run: keys, codes (if stored), rows.
    let run_set = 2 * run_rows * (width + (key_width + 4) + key_width + code_bytes + width);
    for (merge_threads, scheduling) in [(1, 0), (WORKERS, run_set as u64)] {
        let options = ExternalSortOptions {
            spill_dir: Some(dir.clone()),
            merge_threads,
            ..options.clone()
        };
        let [(requested, output), (requested_twice, output_twice)] =
            [&chunk, &twice].map(|chunk| {
                let on_disk = ExternalSorter::new(chunk.types(), order.clone(), options.clone());
                for _ in 0..2 {
                    drop(on_disk.sort(chunk).unwrap());
                }
                let before = allocated_bytes();
                drop(on_disk.sort(chunk).unwrap());
                let requested = (allocated_bytes() - before) as u64;
                let metrics = on_disk.last_profile().metrics;
                // Besides its output, less than it spills. (Its output
                // too, while each record carried the key column twice: a
                // record of the 4-byte key alone is 8 bytes, the output
                // column 4 a row.)
                let output = chunk.len() as u64 * 4;
                let encoded = metrics.counter(Counter::SpilledBytes);
                assert!(
                    requested - output < encoded,
                    "on {merge_threads} thread(s) a warmed sort of {} rows requested \
                     {requested} bytes for {output} of output, spilling and merging {encoded}",
                    chunk.len()
                );
                assert_eq!(
                    metrics.counter(Counter::SpillMergePartitions),
                    merge_threads as u64,
                    "{merge_threads} thread(s): ranges merged"
                );
                if merge_threads == 1 {
                    assert_eq!(
                        metrics.counter(Counter::PoolMisses),
                        run_set_buffers as u64,
                        "on one thread a warmed sort of {} rows misses one run set, whatever \
                         its run count",
                        chunk.len()
                    );
                }
                (requested, output)
            });
        assert!(
            requested_twice <= requested + (output_twice - output) + (64 << 10) + scheduling,
            "on {merge_threads} thread(s) twice the rows requested {requested_twice} bytes for \
             {output_twice} of output, {n} rows {requested} for {output}: something besides \
             the output grew"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
