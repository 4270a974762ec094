//! Pins the tentpole claim: a warmed-up pipeline takes every transient
//! buffer of a sort — key runs, payload blocks, radix scratch, the merge's
//! row batches — from its pool, and the key planner's sample table from
//! its scratch, on every run-sort path (LSD radix, MSD radix with its
//! insertion-sorted buckets, MSD radix over a VARCHAR prefix sized from
//! the strings, key-equal ranges handed to pdqsort with tie resolution)
//! and with codes or without. What it still asks the system for is its
//! result and a fixed handful of bookkeeping around it, counted here. And
//! a *new* pipeline on a warm shared pool — an engine's next query — takes
//! every buffer from that pool, allocating only its own small state.
//!
//! The counting allocator is installed globally for this test binary, so
//! the file holds exactly one test: any parallel test in the same binary
//! would allocate concurrently and poison the count.

use rowsort_core::keys::KeyBlock;
use rowsort_core::metrics::{Counter, SortProfile};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_core::SortResources;
use rowsort_testkit::alloc::{allocation_count, CountingAllocator};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, LogicalType, OrderBy, OrderByColumn, Value, Vector};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// What a warm sort at one thread allocates, for a relation of `F`
/// fixed-width and `V` VARCHAR columns, `N` of them holding a NULL: its
/// result's own buffers and the merge's fixed bookkeeping, no pooled
/// buffer among them, each allocated once —
///
/// * the result: its column list (1), each fixed-width column's values
///   (F), each VARCHAR column's offsets and bytes (2V), and each
///   NULL-holding column's validity words (N);
/// * the output builder: its column list (1) and each VARCHAR column's
///   placeholder offsets (V), replaced by the piece's;
/// * the merge's one key range: the tails' slots (1), the columns left to
///   cut and the pieces (2), the piece's masks (1), and its fixed-width
///   and VARCHAR column lists (1 each if it has such a column; its tail's
///   strings are collected into the second's buffer);
/// * the join: the tails collected (1), their masks and strings unzipped
///   (2), and each VARCHAR column's list of pieces (V).
///
/// A `u32` key alone: 2 + 9 = 11 (`bench_gate`'s `pipeline/u32_t1` pins the
/// same). A nullable VARCHAR key, a `u32` and a VARCHAR payload (F = 1,
/// V = 2, N = 1): 7 + 14 = 21. Four `i32` columns: 5 + 9 = 14.
const U32_ALLOCS: usize = 11;
const NAMED_ALLOCS: usize = 21;
const WIDE_ALLOCS: usize = 14;

/// Sort `chunk` by `order` three times on one pipeline and pin the third
/// sort: `allocs` system allocations, no pool miss.
fn third_sort_allocates(what: &str, chunk: &DataChunk, order: &OrderBy, ovc: bool, allocs: usize) {
    third_sort_of(what, chunk, chunk, order, ovc, allocs);
}

/// Sort `warm_up` twice and then `chunk` — the same rows but for payload
/// — on one pipeline, and pin that third sort. Returns its profile.
fn third_sort_of(
    what: &str,
    warm_up: &DataChunk,
    chunk: &DataChunk,
    order: &OrderBy,
    ovc: bool,
    allocs: usize,
) -> SortProfile {
    let n = chunk.len();
    // threads: 1 — worker threads allocate stack/TLS on their own
    // schedule; the allocation count is about sort buffers.
    let pipeline = SortPipeline::new(
        chunk.types(),
        order.clone(),
        SortOptions {
            threads: 1,
            run_rows: n / 6,
            // Both settings: on, the offset-value code columns must come
            // from the pool like every other sort buffer; off, the merge
            // reads no codes and must still take its buffers from the pool.
            ovc,
        },
    );

    // Warm up: first sorts populate the buffer pool (runs + the merge's
    // row batch) and grow the merge's scratch. Two passes so every size
    // class is pooled before measurement.
    for _ in 0..2 {
        drop(pipeline.sort(warm_up));
    }

    let before = allocation_count();
    let sorted = pipeline.sort(chunk);
    let made = allocation_count() - before;
    assert_eq!(sorted.len(), n);
    drop(sorted);
    let (hits, misses) = pipeline.pool_stats();
    assert_eq!(
        made, allocs,
        "{what}, ovc={ovc}: a steady-state sort's system allocations \
         (pool hits={hits} misses={misses})"
    );
    assert!(
        hits > 0,
        "{what}, ovc={ovc}: pool was never used (hits={hits} misses={misses})"
    );

    // The observability layer recorded the measured sort — counters,
    // phase timers, and the per-sort profile all updated — while the
    // allocation count above stayed the result's: the metrics registry is
    // preallocated at pipeline construction.
    let profile = pipeline.last_profile();
    assert_eq!(profile.operator, "pipeline");
    assert_eq!(profile.rows, n as u64);
    assert!(profile.total_ns > 0);
    assert_eq!(profile.metrics.counter(Counter::SortCalls), 1);
    assert_eq!(profile.metrics.counter(Counter::RowsSorted), n as u64);
    assert!(profile.metrics.counter(Counter::PoolHits) > 0);
    assert_eq!(
        profile.metrics.counter(Counter::PoolMisses),
        0,
        "{what}, ovc={ovc}: a warm pool missed"
    );
    assert!(profile.metrics.phase_total_ns() > 0);
    assert_eq!(pipeline.metrics().counter(Counter::SortCalls), 3);
    profile
}

/// What a new pipeline's first sort on a warm set allocates at one thread,
/// six runs and more, beyond what any warm sort does: its own state, none
/// of it a pooled buffer, each allocated once —
///
/// * the key plan: the statistics its key blocks were planned for and its
///   own cache of the input's statistics (2), and the key-block cache's
///   vector (1);
/// * the one key block: its columns, their offsets and their input columns
///   (3), and its entry buffer, a run's rows × stride (1);
/// * the run slots and the runs (2);
/// * the merge plan: the cuts and the key ranges' scratch (2), one range's
///   sources (1) and its loser tree's four levels (4).
///
/// 16 in all; a VARCHAR key column adds the prefix sampler's table, rows
/// and chains (3).
const NEW_SORTER_ALLOCS: usize = 16;
const SAMPLER_ALLOCS: usize = 3;

/// Warm a shared set with a sort of `chunk`, then sort it through a new
/// pipeline on that set: every buffer must come from the pool, and the
/// sort allocate `allocs` times.
fn new_sorter_on_warm_set(what: &str, chunk: &DataChunk, keys: usize, ovc: bool, allocs: usize) {
    let set = SortResources::new(1);
    let options = SortOptions {
        threads: 1,
        run_rows: chunk.len() / 6,
        ovc,
    };
    let order = OrderBy::ascending(keys);
    let new = || SortPipeline::with_resources(chunk.types(), order.clone(), options, &set);
    drop(new().sort(chunk));
    let pipeline = new();
    let before = allocation_count();
    let sorted = pipeline.sort(chunk);
    let made = allocation_count() - before;
    drop(sorted);
    assert_eq!(
        made, allocs,
        "{what}, ovc={ovc}: a new sorter's allocations"
    );
    let misses = pipeline.last_profile().metrics.counter(Counter::PoolMisses);
    assert_eq!(misses, 0, "{what}, ovc={ovc}: a new sorter missed");
}

/// `name` (one row in ten NULL) keyed ahead of a row number and a VARCHAR
/// payload column drawn by `payload`.
fn named_rows(
    rng: &mut Rng,
    rows: u32,
    name: impl Fn(u64) -> String,
    payload: impl Fn(u32) -> String,
) -> DataChunk {
    let types = [
        LogicalType::Varchar,
        LogicalType::UInt32,
        LogicalType::Varchar,
    ];
    let mut chunk = DataChunk::new(&types);
    for i in 0..rows {
        let key = match rng.below(10) {
            0 => Value::Null,
            _ => Value::from(name(rng.below(20_000))),
        };
        let row = [key, Value::UInt32(i), Value::from(payload(i))];
        chunk.push_row(&row).unwrap();
    }
    chunk
}

#[test]
fn steady_state_sort_does_not_allocate() {
    let mut rng = Rng::seed_from_u64(0x2ea0_a110c);

    // 5-byte key: LSD radix.
    let col: Vec<u32> = (0..200_000).map(|_| rng.next_u32()).collect();
    let u32s = DataChunk::from_columns(vec![Vector::from_u32s(col)]).unwrap();

    // One VARCHAR key longer than the 12-byte prefix, NULLs, and payload
    // columns: the planner samples the strings and sizes the prefix to all
    // 19 bytes, so runs are MSD radix sorts over run heaps.
    let name = |k: u64| format!("customer_name_{k:05}");
    let strings = named_rows(&mut rng, 60_000, name, |_| "pppp".to_owned());

    // The same, with strings that share more bytes than any planned
    // prefix (so the planner's sample pass runs to its end and keeps the
    // 12-byte rule): the key truncates them, every row lands in a key-equal range
    // that pdqsort orders through the full-tuple comparator, and the
    // merge breaks its ties the same way.
    let name = |k: u64| format!("customer_of_the_eastern_warehouse_name_{k:05}");
    let seed = rng.next_u64();
    let tied = named_rows(&mut Rng::seed_from_u64(seed), 60_000, name, |_| {
        "pppp".to_owned()
    });
    // ... and the same rows again under a payload column of the same bytes
    // but another longest string: a payload column is no part of the key
    // plan, so the key blocks cached for the first relation serve this one.
    let uneven = |i: u32| if i.is_multiple_of(2) { "pp" } else { "pppppp" }.to_owned();
    let tied_other_payload = named_rows(&mut Rng::seed_from_u64(seed), 60_000, name, uneven);

    // Four i32 columns over the whole domain and without NULLs, range-coded
    // in 4 bytes each: a 16-byte key, so MSD radix, whose buckets of at
    // most 24 rows finish in insertion sort. (Values below 1 000 would
    // code in 2 bytes each, and an 8-byte key takes LSD.)
    let mut column = || Vector::from_i32s((0..100_000).map(|_| rng.next_u32() as i32).collect());
    let wide = DataChunk::from_columns(vec![column(), column(), column(), column()]).unwrap();
    let planned = KeyBlock::planned(&wide, &OrderBy::ascending(4));
    assert_eq!(planned.key_width(), 16, "a key wider than LSD's 8 bytes");

    let (one, four) = (OrderBy::ascending(1), OrderBy::ascending(4));
    let desc = OrderBy::new(vec![OrderByColumn::desc(0)]);
    for ovc in [true, false] {
        third_sort_allocates("u32 key", &u32s, &one, ovc, U32_ALLOCS);
        third_sort_allocates("long VARCHAR key", &strings, &one, ovc, NAMED_ALLOCS);
        // The same key descending: its prefix bytes are inverted row by row.
        let what = "long VARCHAR key, DESC";
        third_sort_allocates(what, &strings, &desc, ovc, NAMED_ALLOCS);
        let what = "truncated VARCHAR key";
        let profile = third_sort_of(what, &tied, &tied, &one, ovc, NAMED_ALLOCS);
        assert_eq!(
            profile.varchar_prefix, 12,
            "no prefix within the cap separates"
        );
        assert_eq!(profile.metrics.counter(Counter::RunTieRows), 60_000);
        let what = "truncated VARCHAR key, payload lengths changed";
        third_sort_of(what, &tied, &tied_other_payload, &one, ovc, NAMED_ALLOCS);
        third_sort_allocates("four-i32 key", &wide, &four, ovc, WIDE_ALLOCS);
        let new = NEW_SORTER_ALLOCS;
        let sampled = new + SAMPLER_ALLOCS + NAMED_ALLOCS;
        new_sorter_on_warm_set("u32 key", &u32s, 1, ovc, new + U32_ALLOCS);
        new_sorter_on_warm_set("long VARCHAR key", &strings, 1, ovc, sampled);
        new_sorter_on_warm_set("truncated VARCHAR key", &tied, 1, ovc, sampled);
        new_sorter_on_warm_set("four-i32 key", &wide, 4, ovc, new + WIDE_ALLOCS);
    }
}
