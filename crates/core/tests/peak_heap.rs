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
//! Everything runs on one thread, so the byte counts repeat exactly. The
//! counting allocator is installed globally for this test binary, so the
//! file holds exactly one test: any parallel test in the same binary
//! would allocate concurrently and poison the count.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
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

    // Table, leading key columns, and the peaks at `bfb79fa`: the
    // in-memory sort's and the external sort's.
    let tables = [
        ("ints", &ints, 1, 6_756_860, 4_791_704),
        ("customer", &customer, 3, 10_147_431, 7_073_891),
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

        let options = ExternalSortOptions {
            memory_limit_rows: chunk.len() / 6,
            spill_dir: Some(dir.clone()),
            ovc: true,
            merge_threads: 1,
            ..ExternalSortOptions::default()
        };
        let peak = {
            let sorter = ExternalSorter::new(chunk.types(), order, options);
            warm_peak(|| sorter.sort(chunk).unwrap())
        };
        assert!(
            peak + row_area <= parent_external + SLACK_BYTES,
            "{name}: a warm external sort peaks at {peak} B; with no merged run of \
             {row_area} B it stays that far under the {parent_external} B it used to hold"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
