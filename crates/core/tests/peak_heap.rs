//! Pins "no relation-sized merged buffer" without a clock: the most bytes
//! a warm `SortPipeline::sort` / `ExternalSorter::sort` holds at once.
//!
//! Both sorters merge straight into the output columns. Until PR 20 each
//! first built one merged row run — `rows × width` bytes of row area plus
//! a copy of every string, pooled, so a warm sort *requested* no more for
//! it and only the peak of live bytes shows it — and gathered that into
//! vectors afterwards. The peaks below were measured with this file at the
//! commit before (`bfb79fa`); a sort must now stay under them by at least
//! the row area, give or take [`SLACK_BYTES`].
//!
//! The external sorter's run-generation buffers live for its spill phase
//! only (PR 23): until then one run's set sat in the sorter's pool, dead,
//! under the merge's peak. Its peaks are therefore held to PR 20's
//! (`bc364c7`, measured with this file: 3 508 493 and 4 350 400 bytes;
//! with phase-scoped buffers 3 137 670 and 3 497 726), less a sorted
//! run's own buffers — which is the stronger bound: PR 20's peaks were
//! under `bfb79fa`'s by more than the row area. A second worker costs what
//! it holds, nothing that grows with the relation: one more run in flight
//! and, in the merge, one more range's cursors and batch. Run generation
//! holds at most `SPILL_WORKERS` (2) runs at any thread count, so at four
//! and eight threads each worker past the second may add a range's
//! cursors and nothing else (ROADMAP item 4(a) is the byte budget over all
//! workers).
//!
//! The pinned sorts run on one thread, so the byte counts repeat exactly
//! (the peaks at more threads are only bounded from above). The
//! counting allocator is installed globally for this test binary, so the
//! file holds exactly one test: any parallel test in the same binary
//! would allocate concurrently and poison the count.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::keys::KeyBlock;
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_row::RowLayout;
use rowsort_testkit::alloc::{peak_bytes, reset_peak, CountingAllocator};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, OrderBy, Vector};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// What a peak may differ by for reasons that are not a relation: the
/// sinks' row batches, per-range bookkeeping, a run file's path in a
/// longer temporary directory. No table here has a row area this small.
const SLACK_BYTES: usize = 96 << 10;

/// Peak live bytes of one more `sort` after two warm-up sorts, the result
/// still alive when the peak is read.
fn warm_peak(mut sort: impl FnMut() -> DataChunk) -> usize {
    for _ in 0..2 {
        drop(sort());
    }
    reset_peak();
    let sorted = sort();
    let peak = peak_bytes();
    drop(sorted);
    peak
}

#[test]
fn a_warm_sort_holds_no_merged_row_run() {
    let rows = 60_000;
    let mut rng = Rng::seed_from_u64(0x9ea4_4ea9);
    let ints = DataChunk::from_columns(vec![
        Vector::from_u32s((0..rows).map(|_| rng.next_u32()).collect()),
        Vector::from_u32s((0..rows as u32).collect()),
    ])
    .unwrap();
    let customer = rowsort_datagen::tpcds::customer(rows / 2, 7).data;
    let dir = std::env::temp_dir().join(format!("rowsort-peak-heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Table, leading key columns, the in-memory sort's peak at `bfb79fa`
    // and the external sort's at `bc364c7`.
    let tables = [
        ("ints", &ints, 1, 6_756_860, 3_508_493),
        ("customer", &customer, 3, 10_147_431, 4_350_400),
    ];
    for (name, chunk, keys, parent_in_memory, parent_external) in tables {
        let row_area = chunk.len() * RowLayout::new(&chunk.types()).width();
        assert!(row_area > 8 * SLACK_BYTES, "{name}: {row_area} B of rows");
        let order = OrderBy::ascending(keys);

        let options = SortOptions {
            threads: 1,
            run_rows: chunk.len() / 6,
            ovc: true,
        };
        let peak = {
            let pipeline = SortPipeline::new(chunk.types(), order.clone(), options);
            warm_peak(|| pipeline.sort(chunk))
        };
        assert!(
            peak + row_area <= parent_in_memory + SLACK_BYTES,
            "{name}: a warm sort() peaks at {peak} B; with no merged run of {row_area} B \
             it stays that far under the {parent_in_memory} B it used to hold"
        );

        let runs = 6;
        let peak_at = |merge_threads: usize| {
            let options = ExternalSortOptions {
                memory_limit_rows: chunk.len() / runs,
                spill_dir: Some(dir.clone()),
                ovc: true,
                merge_threads,
                ..ExternalSortOptions::default()
            };
            let sorter = ExternalSorter::new(chunk.types(), order.clone(), options);
            warm_peak(|| sorter.sort(chunk).unwrap())
        };
        // What one run asks the pool for: its keys, codes and payload
        // rows — the sorted run — and, while it is built, the staged rows,
        // the key entries (key + row id) and the radix scratch over them,
        // and the strings twice.
        let run_rows = chunk.len() / runs;
        let width = row_area / chunk.len();
        let key_width = KeyBlock::planned(chunk, &order).key_width();
        let columns = chunk.columns().iter();
        let strings = columns.filter_map(|c| c.as_strings());
        let run_strings = strings
            .map(|s| s.range_bytes(0, chunk.len()))
            .sum::<usize>()
            / runs;
        let sorted_run = run_rows * (key_width + 8 + width);
        let run_in_flight = sorted_run + run_rows * (width + 2 * (key_width + 4)) + 2 * run_strings;

        let peak = peak_at(1);
        assert!(
            peak + sorted_run <= parent_external + SLACK_BYTES,
            "{name}: a warm external sort peaks at {peak} B; with no run's buffers alive \
             under the merge it stays a sorted run's {sorted_run} B under the \
             {parent_external} B it used to hold"
        );
        // A pooled buffer is at most twice its request; a range's cursors
        // hold one 64 KiB block per run.
        let range_cursors = runs * (64 << 10);
        let per_worker = 2 * run_in_flight + range_cursors;
        let peak_two = peak_at(2);
        assert!(
            peak_two <= peak + per_worker + SLACK_BYTES,
            "{name}: on 2 threads a warm external sort peaks at {peak_two} B, more than \
             {per_worker} B — a run in flight, a range's cursors — over one thread's {peak} B"
        );
        // At most `SPILL_WORKERS` (2) runs are in flight at any thread
        // count: a further worker adds a range's cursors to the merge and
        // nothing to run generation.
        for threads in [4, 8] {
            let peak_threads = peak_at(threads);
            let allowance = (threads - 2) * range_cursors;
            assert!(
                peak_threads <= peak_two + allowance + SLACK_BYTES,
                "{name}: on {threads} threads a warm external sort peaks at {peak_threads} B, \
                 more than a range's cursors ({range_cursors} B) a worker over two threads' \
                 {peak_two} B"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
