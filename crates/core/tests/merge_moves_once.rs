//! The in-memory merge is one range-partitioned k-way pass: at any thread
//! count every row moves once — straight into the output vectors, no
//! merged row run in between. With `ovc: false` the same tree does the
//! same work on whole keys: the same counters, no compare resolved on a
//! code, and bit-identical rows.
//!
//! A gate without a clock: everything asserted here is a counter value or
//! a row-for-row comparison. (At the commit before this file the coded
//! multi-thread sort ran a 3-round cascade at 109 B/row on the first
//! table below.)

use rowsort_core::metrics::{Counter, Metrics};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_row::RowLayout;
use rowsort_testkit::Rng;
use rowsort_vector::{
    DataChunk, LogicalType, NullOrder, OrderBy, OrderByColumn, SortOrder, SortSpec, Value, Vector,
};

/// Counters of the merge's shape and work, which OVC must not change.
const MERGE_WORK: [Counter; 5] = [
    Counter::MergeRounds,
    Counter::MergeTasks,
    Counter::MergeMaxRangeRows,
    Counter::BytesMoved,
    Counter::MergeCmps,
];

/// Every thread count the bit-identity claim is made for.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// Below this many rows per would-be range the planner cuts fewer ranges
/// (`core::sorter::MIN_ROWS_PER_RANGE`).
const MIN_ROWS_PER_RANGE: usize = 256;

fn ranges_for(threads: usize, rows: usize) -> u64 {
    threads.min(rows / MIN_ROWS_PER_RANGE).max(1) as u64
}

fn pipeline(chunk: &DataChunk, order: &OrderBy, options: SortOptions) -> SortPipeline {
    SortPipeline::new(chunk.types(), order.clone(), options)
}

/// Sort `chunk`; the sorted relation and that sort's counters.
fn sort(chunk: &DataChunk, order: &OrderBy, options: SortOptions) -> (DataChunk, Metrics) {
    let (sorted, metrics, _) = sort_keyed(chunk, order, options);
    (sorted, metrics)
}

/// [`sort`], and the width of the key the sort planned.
fn sort_keyed(
    chunk: &DataChunk,
    order: &OrderBy,
    options: SortOptions,
) -> (DataChunk, Metrics, usize) {
    let pipeline = pipeline(chunk, order, options);
    let sorted = pipeline.sort(chunk);
    let profile = pipeline.last_profile();
    (sorted, profile.metrics, profile.key_width as usize)
}

/// Bytes one row costs run generation: staged row, encoded key entry
/// with its 4-byte row id, stripped key, reordered row.
fn run_generation_bytes(chunk: &DataChunk, key_width: usize) -> u64 {
    let width = RowLayout::new(&chunk.types()).width();
    (2 * width + (key_width + 4) + key_width) as u64
}

/// Bytes the merge writes to the output columns, which hold what the
/// input's do: every fixed-width value, a 4-byte offset per string, and
/// the strings' bytes (none for a NULL).
fn column_bytes(chunk: &DataChunk) -> u64 {
    let bytes = |col: &Vector| match col.as_strings() {
        Some(strings) => 4 * col.len() + strings.total_bytes(),
        None => col.logical_type().fixed_width().unwrap() * col.len(),
    };
    chunk.columns().iter().map(bytes).sum::<usize>() as u64
}

/// 8 runs of random `u32` key + `u32` payload.
fn u32_table() -> (DataChunk, OrderBy, usize) {
    let mut rng = Rng::seed_from_u64(0x00dd_5eed);
    let n = 8 * 1000;
    let keys: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let payload: Vec<u32> = (0..n as u32).collect();
    let chunk =
        DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(payload)]).unwrap();
    (chunk, OrderBy::new(vec![OrderByColumn::asc(0)]), 1000)
}

/// 8 runs keyed by two VARCHAR columns and an integer. The second
/// column's values share more bytes than the longest key prefix the
/// planner sizes (32), so it keeps the 12-byte rule and the normalized key
/// ends with that truncated prefix: byte-equal keys hide unequal strings, and the third key column
/// lies beyond it, for the full-tuple comparator alone to see.
fn varchar_table() -> (DataChunk, OrderBy, usize) {
    let mut rng = Rng::seed_from_u64(0x5712_1465);
    let mut chunk = DataChunk::new(&[
        LogicalType::Varchar,
        LogicalType::Varchar,
        LogicalType::Int32,
        LogicalType::UInt32,
    ]);
    for i in 0..3_200u32 {
        let short = format!("s{}", rng.below(6));
        let long = format!(
            "{}_shared_prefix_that_outgrows_any_key{}",
            ["a", "b", "c"][rng.below(3) as usize],
            "x".repeat(rng.below(4) as usize)
        );
        let n = Value::Int32(rng.range_inclusive(-20i32, 20));
        let row = [Value::from(short), Value::from(long), n, Value::UInt32(i)];
        chunk.push_row(&row).unwrap();
    }
    let order = OrderBy::new(vec![
        OrderByColumn::asc(0),
        OrderByColumn::desc(1),
        OrderByColumn::asc(2),
    ]);
    (chunk, order, 400)
}

#[test]
fn coded_merge_moves_each_row_once_at_any_thread_count() {
    // Key widths: NULL byte + u32; NULL byte + 2 + marker, then NULL byte +
    // 12 + marker of the truncated second column, where the key ends.
    let tables = [
        ("u32", u32_table(), 5),
        ("varchar", varchar_table(), 4 + 14),
    ];
    for (name, (chunk, order, run_rows), planned_key_width) in tables {
        let rows = chunk.len() as u64;
        for threads in [1, 2, 4] {
            let what = format!("{name} table, threads={threads}");
            let options = SortOptions {
                threads,
                run_rows,
                ovc: true,
            };
            let (coded, m, key_width) = sort_keyed(&chunk, &order, options);
            let run_generation = run_generation_bytes(&chunk, key_width);
            assert_eq!(key_width, planned_key_width, "{what}: one plan");
            assert_eq!(m.counter(Counter::RunsGenerated), 8, "{what}");
            assert_eq!(m.counter(Counter::MergeRounds), 1, "{what}: one pass");
            // Run generation, then each value once, into its column: no
            // merged row run (`rows × width` until PR 20), no key column.
            // The same at every thread count.
            assert_eq!(
                m.counter(Counter::BytesMoved),
                rows * run_generation + column_bytes(&chunk),
                "{what}: bytes moved"
            );
            let ranges = ranges_for(threads, chunk.len());
            assert_eq!(ranges, threads as u64, "{what}: tables are big enough");
            assert_eq!(m.counter(Counter::MergeTasks), ranges, "{what}");
            let max_range = m.counter(Counter::MergeMaxRangeRows);
            assert!(
                max_range * ranges >= rows && max_range <= rows,
                "{what}: largest of {ranges} ranges holds {max_range} of {rows} rows"
            );
            assert_eq!(max_range == rows, ranges == 1, "{what}");

            let plain_options = SortOptions {
                ovc: false,
                ..options
            };
            let (plain, plain_m) = sort(&chunk, &order, plain_options);
            // The same tree on whole keys: the same work, counted.
            for c in MERGE_WORK {
                let (on, off) = (m.counter(c), plain_m.counter(c));
                assert_eq!(off, on, "{what}: {} with ovc off", c.name());
            }
            let resolved = plain_m.counter(Counter::MergeCmpsOvcResolved);
            assert_eq!(resolved, 0, "{what}: ovc off resolved a compare on codes");
            assert!(coded == plain, "{what}: rows differ from the ovc-off sort");
        }
    }
}

#[test]
fn a_warm_pool_serves_every_merge_buffer() {
    let (chunk, order, run_rows) = u32_table();
    for threads in [1, 2, 4] {
        let options = SortOptions {
            threads,
            run_rows,
            ovc: true,
        };
        let pipeline = pipeline(&chunk, &order, options);
        let misses = |pipeline: &SortPipeline| {
            drop(pipeline.sort(&chunk));
            pipeline.last_profile().metrics.counter(Counter::PoolMisses)
        };
        assert!(misses(&pipeline) > 0, "a cold sort allocates");
        misses(&pipeline);
        let mut third = misses(&pipeline);
        // The merge asks for one row batch per key range, pooled since the
        // first sort (the output columns are the result's own, never
        // pooled). With several workers, how many run-generation buffers
        // are live at once depends on the schedule, so the pool may still
        // be growing towards that peak: give it a few sorts.
        for _ in 0..8 {
            if threads == 1 || third == 0 {
                break;
            }
            third = misses(&pipeline);
        }
        assert_eq!(third, 0, "threads={threads}: a warm sort missed the pool");
    }
}

/// `chunk` sorted with `ovc` on equals the `ovc: false` sort row for row,
/// at every thread count in [`THREADS`]. Returns the counters of the
/// coded sort at 4 threads.
fn assert_identical_to_plain(
    what: &str,
    chunk: &DataChunk,
    order: &OrderBy,
    run_rows: usize,
) -> Metrics {
    let mut at_four = Metrics::zeroed();
    let mut reference: Option<DataChunk> = None;
    for threads in THREADS {
        let options = SortOptions {
            threads,
            run_rows,
            ovc: true,
        };
        let (coded, m) = sort(chunk, order, options);
        let plain_options = SortOptions {
            ovc: false,
            ..options
        };
        let (plain, _) = sort(chunk, order, plain_options);
        assert!(
            coded == plain,
            "{what}, threads={threads}: differs from ovc-off"
        );
        let first = reference.get_or_insert_with(|| coded.clone());
        assert!(
            coded == *first,
            "{what}, threads={threads}: differs from 1 thread"
        );
        let runs = chunk.len().div_ceil(run_rows);
        let ranges = if runs > 1 {
            ranges_for(threads, chunk.len())
        } else {
            0
        };
        assert_eq!(
            m.counter(Counter::MergeTasks),
            ranges,
            "{what}, threads={threads}"
        );
        if threads == 4 {
            at_four = m;
        }
    }
    at_four
}

/// A `u32` key column and a row-number payload, sorted by the key.
fn keyed(keys: Vec<u32>) -> (DataChunk, OrderBy) {
    let payload: Vec<u32> = (0..keys.len() as u32).collect();
    let chunk =
        DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(payload)]).unwrap();
    (chunk, OrderBy::new(vec![OrderByColumn::asc(0)]))
}

#[test]
fn skewed_keys_make_fat_and_empty_ranges() {
    let n = 3_000usize;
    let mut rng = Rng::seed_from_u64(0x5ce3);

    // All keys equal: every splitter is that key, so one range does it all.
    let (chunk, order) = keyed(vec![7; n]);
    let m = assert_identical_to_plain("all keys equal", &chunk, &order, 400);
    assert_eq!(m.counter(Counter::MergeTasks), 4);
    assert_eq!(m.counter(Counter::MergeMaxRangeRows), n as u64);

    // Exactly two distinct keys, three, and fewer keys than ranges in
    // general: a key's rows never split, so some ranges are empty and the
    // fattest holds at least the commonest key.
    for distinct in [2u64, 3] {
        let keys: Vec<u32> = (0..n).map(|_| rng.below(distinct) as u32).collect();
        let commonest = (0..distinct as u32)
            .map(|k| keys.iter().filter(|&&x| x == k).count())
            .max()
            .unwrap() as u64;
        let (chunk, order) = keyed(keys);
        let what = format!("{distinct} distinct keys");
        let m = assert_identical_to_plain(&what, &chunk, &order, 400);
        let max_range = m.counter(Counter::MergeMaxRangeRows);
        assert!(max_range >= commonest, "{what}: {max_range} < {commonest}");
        assert!(
            max_range < n as u64,
            "{what}: the splitters tell the keys apart"
        );
    }

    // A duplicate group sitting on a splitter: two rows in five hold the
    // median key, so the middle splitter is that key and the whole group
    // starts its range.
    let keys: Vec<u32> = (0..n)
        .map(|_| match rng.below(5) {
            0 | 1 => 50,
            _ => rng.below(100) as u32,
        })
        .collect();
    let group = keys.iter().filter(|&&k| k == 50).count() as u64;
    let (chunk, order) = keyed(keys);
    let m = assert_identical_to_plain("duplicates on a splitter", &chunk, &order, 400);
    assert!(m.counter(Counter::MergeMaxRangeRows) >= group);
}

#[test]
fn small_and_ragged_inputs_merge_identically() {
    let mut rng = Rng::seed_from_u64(0x2a99ed);
    let mut random_keys =
        |n: usize| -> Vec<u32> { (0..n).map(|_| rng.below(500) as u32).collect() };

    // Too few rows to be worth a second range: one range, merged on the
    // calling thread — the only broadcast is run generation's.
    let (chunk, order) = keyed(random_keys(MIN_ROWS_PER_RANGE - 1));
    let m = assert_identical_to_plain("under one range's worth", &chunk, &order, 64);
    assert_eq!(m.counter(Counter::MergeTasks), 1);
    assert_eq!(m.counter(Counter::MergeMaxRangeRows), chunk.len() as u64);
    assert_eq!(m.counter(Counter::Broadcasts), 1);

    // Exactly two runs, an odd run count, and a last run of one row.
    let (chunk, order) = keyed(random_keys(2_000));
    assert_identical_to_plain("2 runs", &chunk, &order, 1_000);
    assert_identical_to_plain("5 runs", &chunk, &order, 400);
    let (chunk, order) = keyed(random_keys(2_001));
    let m = assert_identical_to_plain("last run of 1 row", &chunk, &order, 500);
    assert_eq!(m.counter(Counter::RunsGenerated), 5);

    // One run: nothing to merge, whatever the options say.
    let m = assert_identical_to_plain("1 run", &chunk, &order, 4_096);
    assert_eq!(m.counter(Counter::MergeRounds), 0);
    assert_eq!(m.counter(Counter::MergeMaxRangeRows), 0);
}

#[test]
fn null_first_desc_keys_and_null_string_payloads_merge_identically() {
    let mut rng = Rng::seed_from_u64(0x0de5c);
    let mut chunk = DataChunk::new(&[
        LogicalType::Int32,
        LogicalType::Varchar,
        LogicalType::Varchar,
        LogicalType::UInt32,
    ]);
    for i in 0..2_500u32 {
        let n = match rng.below(6) {
            0 => Value::Null,
            _ => Value::Int32(rng.range_inclusive(-30i32, 30)),
        };
        let key = match rng.below(8) {
            0 => Value::Null,
            1 => Value::from(""),
            r => Value::from(format!(
                "name_{}_{}",
                r % 3,
                "y".repeat(rng.below(16) as usize)
            )),
        };
        // The payload string is no key: its bytes only ride along in the
        // heap, NULLs and empties included.
        let payload = match rng.below(4) {
            0 => Value::Null,
            1 => Value::from(""),
            _ => Value::from(format!(
                "payload-{i}-{}",
                "z".repeat(rng.below(40) as usize)
            )),
        };
        chunk
            .push_row(&[n, key, payload, Value::UInt32(i)])
            .unwrap();
    }
    let desc_nulls_first = SortSpec::new(SortOrder::Descending, NullOrder::NullsFirst);
    let asc_nulls_first = SortSpec::new(SortOrder::Ascending, NullOrder::NullsFirst);
    let order = OrderBy::new(vec![
        OrderByColumn {
            column: 0,
            spec: desc_nulls_first,
        },
        OrderByColumn {
            column: 1,
            spec: asc_nulls_first,
        },
    ]);
    let m = assert_identical_to_plain("NULLS FIRST / DESC keys", &chunk, &order, 300);
    assert_eq!(m.counter(Counter::MergeRounds), 1);

    // An integer key with the strings as pure payload.
    let by_id = OrderBy::new(vec![OrderByColumn::desc(0)]);
    assert_identical_to_plain("string payload", &chunk, &by_id, 300);
}

#[test]
fn an_empty_order_by_over_several_runs_keeps_input_order() {
    // No key columns: a zero-width key, nothing to code or to cut ranges
    // by. Every match is a full tie, won by the lower run, so the merge
    // of 8 runs hands the input back as it came.
    let mut rng = Rng::seed_from_u64(0x0e4d7);
    let mut chunk = DataChunk::new(&[LogicalType::UInt32, LogicalType::Varchar]);
    for _ in 0..3_200 {
        let s = match rng.below(5) {
            0 => Value::Null,
            r => Value::from("s".repeat(r as usize)),
        };
        chunk.push_row(&[Value::UInt32(rng.next_u32()), s]).unwrap();
    }
    let order = OrderBy::new(Vec::new());
    for threads in [1, 4] {
        for ovc in [true, false] {
            let what = format!("threads={threads} ovc={ovc}");
            let options = SortOptions {
                threads,
                run_rows: 400,
                ovc,
            };
            let pipeline = pipeline(&chunk, &order, options);
            let sorted = pipeline.sort(&chunk);
            let profile = pipeline.last_profile();
            let m = profile.metrics;
            assert_eq!(profile.key_width, 0, "{what}: a zero-width key");
            assert!(sorted == chunk, "{what}: sort() reordered the input");
            assert_eq!(m.counter(Counter::RunsGenerated), 8, "{what}");
            assert_eq!(m.counter(Counter::MergeRounds), 1, "{what}");
            assert_eq!(m.counter(Counter::MergeTasks), 1, "{what}: one range");
            assert_eq!(m.counter(Counter::MergeCmpsOvcResolved), 0, "{what}");
        }
    }
}

#[test]
fn a_lone_row_against_a_long_run_counts_every_match_once() {
    // Two runs of very unequal length: 10 000 rows holding the even keys
    // below 20 000 in random order, then one row keyed 11 001. Every
    // match of two live heads counts one compare, whether the codes or
    // the keys decide it; a match against an exhausted run counts none.
    // So a range counts the tree's first match, then one per long-run row
    // it emits before the lone row while the long run still has a row.
    // One range: the 5 501 even keys up to 11 000, 5 502 compares. At 2
    // and 4 threads the lone row's range starts at the splitter 10 000
    // (the long run's middle sample), so it holds 501 of them: 502. The
    // other ranges have one live run and play no live match.
    let n = 10_000u32;
    let mut rng = Rng::seed_from_u64(0x10e_a0e);
    let mut keys: Vec<u32> = (0..n).map(|i| 2 * i).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys.push(11_001);
    let (chunk, order) = keyed(keys);
    for (threads, cmps) in [(1, 5_502), (2, 502), (4, 502)] {
        let mut plain: Option<DataChunk> = None;
        for ovc in [false, true] {
            let what = format!("threads={threads} ovc={ovc}");
            let options = SortOptions {
                threads,
                run_rows: n as usize,
                ovc,
            };
            let (sorted, m) = sort(&chunk, &order, options);
            assert_eq!(m.counter(Counter::RunsGenerated), 2, "{what}");
            assert_eq!(m.counter(Counter::MergeTasks), threads as u64, "{what}");
            assert_eq!(m.counter(Counter::MergeCmps), cmps, "{what}: merge_cmps");
            let resolved = m.counter(Counter::MergeCmpsOvcResolved);
            if ovc {
                assert!(
                    resolved > 0 && resolved <= cmps,
                    "{what}: {resolved} resolved"
                );
            } else {
                assert_eq!(resolved, 0, "{what}: ovc off resolved a compare on codes");
            }
            let plain = plain.get_or_insert_with(|| sorted.clone());
            assert!(
                sorted == *plain,
                "{what}: rows differ from the ovc-off sort"
            );
            let lone = (0..sorted.len()).find(|&i| sorted.row(i)[1] == Value::UInt32(n));
            assert_eq!(lone, Some(5_501), "{what}: the lone row's place");
        }
    }
}
