//! Pins the tentpole claim: a warmed-up pipeline sorts with ZERO system
//! allocations — every transient buffer (key runs, payload blocks, radix
//! scratch, merge outputs) comes from the pipeline's pool, and the key
//! planner's sample table from its scratch — on every run-sort path (LSD
//! radix, MSD radix with its insertion-sorted buckets, MSD radix over a
//! VARCHAR prefix sized from the strings, key-equal ranges handed to
//! pdqsort with tie resolution) and both merges. And a *new* pipeline on a
//! warm shared pool — an engine's next query — takes every buffer from
//! that pool, allocating only its own small state.
//!
//! The counting allocator is installed globally for this test binary, so
//! the file holds exactly one test: any parallel test in the same binary
//! would allocate concurrently and poison the count.

use rowsort_core::metrics::{Counter, SortProfile};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_core::SortResources;
use rowsort_testkit::alloc::{allocation_count, CountingAllocator};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, LogicalType, OrderBy, Value, Vector};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Sort `chunk` by its first `keys` columns three times on one pipeline
/// and pin the third sort: no system allocation, no pool miss.
fn third_sort_does_not_allocate(what: &str, chunk: &DataChunk, keys: usize, ovc: bool) {
    third_sort_of(what, chunk, chunk, keys, ovc);
}

/// Sort `warm_up` twice and then `chunk` — the same rows but for payload
/// — on one pipeline, and pin that third sort. Returns its profile.
fn third_sort_of(
    what: &str,
    warm_up: &DataChunk,
    chunk: &DataChunk,
    keys: usize,
    ovc: bool,
) -> SortProfile {
    let n = chunk.len();
    // threads: 1 — worker threads allocate stack/TLS on their own
    // schedule; the zero-allocation guarantee is about sort buffers.
    let pipeline = SortPipeline::new(
        chunk.types(),
        OrderBy::ascending(keys),
        SortOptions {
            threads: 1,
            run_rows: n / 6,
            // Pinned (not inherited from ROWSORT_OVC): on, the offset-value
            // code columns must come from the pool like every other sort
            // buffer; off, the merge reads no codes and must still take
            // its buffers from the pool.
            ovc,
        },
    );

    // Warm up: first sorts populate the buffer pool (runs + the merge's
    // output) and grow the merge's scratch. Two passes so every size
    // class is pooled before measurement.
    for _ in 0..2 {
        drop(pipeline.sort_rows(warm_up));
    }

    let before = allocation_count();
    let sorted = pipeline.sort_rows(chunk);
    assert_eq!(sorted.len(), n);
    drop(sorted);
    let allocs = allocation_count() - before;
    let (hits, misses) = pipeline.pool_stats();
    assert_eq!(
        allocs, 0,
        "{what}, ovc={ovc}: steady-state sort hit the system allocator \
         {allocs} time(s) (pool hits={hits} misses={misses})"
    );
    assert!(
        hits > 0,
        "{what}, ovc={ovc}: pool was never used (hits={hits} misses={misses})"
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
/// six runs and more: its own state, none of it a pooled buffer, each
/// allocated once —
///
/// * the key plan: the input's VARCHAR statistics and the ones its key
///   blocks were planned for (2), and the key-block cache's vector (1);
/// * the one key block: its columns, their offsets and their input columns
///   (3), and its entry buffer, a run's rows × stride (1);
/// * the run slots and the runs (2);
/// * the merge plan: the cuts and the key ranges' scratch (2), one range's
///   sources (1) and its loser tree's four levels (4);
/// * the row merge's heap bases (1).
///
/// 17 in all; a VARCHAR key column adds the prefix sampler's table, rows
/// and chains (3).
const NEW_SORTER_ALLOCS: usize = 17;
const SAMPLER_ALLOCS: usize = 3;

/// Warm a shared set with two sorts of `chunk` — one per merge target —
/// then sort it through new pipelines on that set: every buffer must come
/// from the pool, and the row sort allocate `allocs` times.
fn new_sorter_on_warm_set(what: &str, chunk: &DataChunk, keys: usize, ovc: bool, allocs: usize) {
    let set = SortResources::new(1);
    let options = SortOptions {
        threads: 1,
        run_rows: chunk.len() / 6,
        ovc,
    };
    let order = OrderBy::ascending(keys);
    let new = || SortPipeline::with_resources(chunk.types(), order.clone(), options, &set);
    let warm = new();
    drop(warm.sort_rows(chunk));
    drop(warm.sort(chunk));
    let (rows, vectors) = (new(), new());
    let before = allocation_count();
    drop(rows.sort_rows(chunk));
    let made = allocation_count() - before;
    assert_eq!(
        made, allocs,
        "{what}, ovc={ovc}: a new sorter's allocations"
    );
    drop(vectors.sort(chunk));
    for (merge, p) in [("rows", &rows), ("vectors", &vectors)] {
        let misses = p.last_profile().metrics.counter(Counter::PoolMisses);
        assert_eq!(misses, 0, "{what}, ovc={ovc}, {merge}: a new sorter missed");
    }
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

    // Four i32 columns, a 20-byte key: MSD radix, whose buckets of at most
    // 24 rows finish in insertion sort.
    let mut column = || Vector::from_i32s((0..100_000).map(|_| rng.below(1_000) as i32).collect());
    let wide = DataChunk::from_columns(vec![column(), column(), column(), column()]).unwrap();

    for ovc in [true, false] {
        third_sort_does_not_allocate("u32 key", &u32s, 1, ovc);
        third_sort_does_not_allocate("long VARCHAR key", &strings, 1, ovc);
        let profile = third_sort_of("truncated VARCHAR key", &tied, &tied, 1, ovc);
        assert_eq!(
            profile.varchar_prefix, 12,
            "no prefix within the cap separates"
        );
        assert_eq!(profile.metrics.counter(Counter::RunTieRows), 60_000);
        let what = "truncated VARCHAR key, payload lengths changed";
        third_sort_of(what, &tied, &tied_other_payload, 1, ovc);
        third_sort_does_not_allocate("four-i32 key", &wide, 4, ovc);
        let sampled = NEW_SORTER_ALLOCS + SAMPLER_ALLOCS;
        new_sorter_on_warm_set("u32 key", &u32s, 1, ovc, NEW_SORTER_ALLOCS);
        new_sorter_on_warm_set("long VARCHAR key", &strings, 1, ovc, sampled);
        new_sorter_on_warm_set("truncated VARCHAR key", &tied, 1, ovc, sampled);
        new_sorter_on_warm_set("four-i32 key", &wide, 4, ovc, NEW_SORTER_ALLOCS);
    }
}
