//! Property test: the external sorter's output is identical to the
//! in-memory pipeline's, row for row, across spill budgets and sort
//! specs.
//!
//! The second sort key (a unique id) makes the ordering total, so both
//! sorters must produce exactly the same row sequence — not merely two
//! valid orderings of a multiset — and the comparison can be exact.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_core::{Counter, Metrics};
use rowsort_vector::{
    DataChunk, LogicalType, NullOrder, OrderBy, OrderByColumn, SortOrder, SortSpec, Value,
};

mod common;
use common::pseudo_random;

/// A Varchar column with NULLs, duplicates, empty and long strings,
/// plus a unique Int32 id column.
fn stringy_chunk(rows: usize, seed: u64) -> DataChunk {
    let mut chunk = DataChunk::new(&[LogicalType::Varchar, LogicalType::Int32]);
    for (i, r) in pseudo_random(rows, seed).into_iter().enumerate() {
        let s = match r % 9 {
            0 | 1 => Value::Null,
            2 => Value::from(""),
            3 => Value::from("z".repeat((r % 50) as usize)),
            // Few distinct values: lots of key ties for the id to break.
            _ => Value::from(format!("name_{}", r % 7)),
        };
        chunk.push_row(&[s, Value::Int32(i as i32)]).unwrap();
    }
    chunk
}

#[test]
fn external_output_identical_to_pipeline_across_budgets_and_specs() {
    let chunk = stringy_chunk(150, 21);
    let specs = [
        (SortOrder::Ascending, NullOrder::NullsFirst),
        (SortOrder::Ascending, NullOrder::NullsLast),
        (SortOrder::Descending, NullOrder::NullsFirst),
        (SortOrder::Descending, NullOrder::NullsLast),
    ];
    for (order_dir, nulls) in specs {
        let order = OrderBy::new(vec![
            OrderByColumn {
                column: 0,
                spec: SortSpec::new(order_dir, nulls),
            },
            // Unique tiebreaker: the ordering is total.
            OrderByColumn::asc(1),
        ]);
        let pipeline = SortPipeline::new(chunk.types(), order.clone(), SortOptions::default());
        let expected = pipeline.sort(&chunk).to_rows();
        for budget in [1usize, 2, 7] {
            let sorter = ExternalSorter::new(
                chunk.types(),
                order.clone(),
                ExternalSortOptions {
                    memory_limit_rows: budget,
                    ..Default::default()
                },
            );
            let got = sorter
                .sort(&chunk)
                .expect("external sort succeeds")
                .to_rows();
            assert_eq!(
                got, expected,
                "budget {budget}, {order_dir:?} {nulls:?}: external differs from pipeline"
            );
        }
    }
}

/// Sort `chunk` single-threaded through both sorters with the same run
/// size: the rows each produced and each sort's counters.
fn sort_both(
    chunk: &DataChunk,
    order: &OrderBy,
    run_rows: usize,
    ovc: bool,
) -> [(Vec<Vec<Value>>, Metrics); 2] {
    let pipeline = SortPipeline::new(
        chunk.types(),
        order.clone(),
        SortOptions {
            threads: 1,
            run_rows,
            ovc,
        },
    );
    let in_memory = pipeline.sort(chunk).to_rows();
    let sorter = ExternalSorter::new(
        chunk.types(),
        order.clone(),
        ExternalSortOptions {
            memory_limit_rows: run_rows,
            merge_threads: 1,
            ovc,
            ..Default::default()
        },
    );
    let spilled = sorter
        .sort(chunk)
        .expect("external sort succeeds")
        .to_rows();
    [
        (in_memory, pipeline.last_profile().metrics),
        (spilled, sorter.last_profile().metrics),
    ]
}

/// The two sorters share one run generator and one merge kernel, so at
/// one thread and one run size they do the same work: the same runs, the
/// same comparisons, the same rows — ties included, with no tiebreaker
/// column to make the order total.
#[test]
fn single_threaded_sorters_report_equal_run_and_merge_counters() {
    let chunk = stringy_chunk(500, 33);
    let order = OrderBy::new(vec![OrderByColumn {
        column: 0,
        spec: SortSpec::new(SortOrder::Ascending, NullOrder::NullsLast),
    }]);
    for run_rows in [37, 64, 250] {
        let [(mem_rows, mem), (ext_rows, ext)] = sort_both(&chunk, &order, run_rows, true);
        assert_eq!(ext_rows, mem_rows, "run_rows {run_rows}: rows differ");
        for counter in [Counter::RunsGenerated, Counter::MergeCmps] {
            assert_eq!(
                ext.counter(counter),
                mem.counter(counter),
                "run_rows {run_rows}: {counter:?} differs"
            );
        }
        assert_eq!(
            mem.counter(Counter::RunsGenerated),
            500u64.div_ceil(run_rows as u64)
        );
        assert!(
            mem.counter(Counter::MergeCmps) > 0,
            "run_rows {run_rows}: no merge ran"
        );
    }
}

/// An integer key cannot tie on equal bytes, whatever the payload holds:
/// a VARCHAR payload column must not send key ties to the full-tuple
/// comparator. Same rows from both sorters, and the same comparison count
/// with and without the payload column.
#[test]
fn varchar_payload_does_not_change_an_integer_keyed_merge() {
    let keys: Vec<i32> = pseudo_random(2_000, 44)
        .iter()
        .map(|r| (r % 13) as i32)
        .collect();
    let mut bare = DataChunk::new(&[LogicalType::Int32]);
    let mut with_payload = DataChunk::new(&[LogicalType::Int32, LogicalType::Varchar]);
    for (i, &k) in keys.iter().enumerate() {
        let payload = match i % 5 {
            0 => Value::Null,
            _ => Value::from(format!("payload-{i}")),
        };
        bare.push_row(&[Value::Int32(k)]).unwrap();
        with_payload.push_row(&[Value::Int32(k), payload]).unwrap();
    }
    let order = OrderBy::ascending(1);
    for ovc in [false, true] {
        let [(mem_rows, mem), (ext_rows, ext)] = sort_both(&with_payload, &order, 150, ovc);
        assert_eq!(ext_rows, mem_rows, "ovc={ovc}: rows differ");
        let got: Vec<i32> = ext_rows
            .iter()
            .map(|row| match row[0] {
                Value::Int32(k) => k,
                ref other => panic!("unexpected key {other:?}"),
            })
            .collect();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(got, want, "ovc={ovc}: keys out of order");
        let [(_, bare_mem), (_, bare_ext)] = sort_both(&bare, &order, 150, ovc);
        for (name, with, without) in [("pipeline", &mem, &bare_mem), ("external", &ext, &bare_ext)]
        {
            assert_eq!(
                with.counter(Counter::MergeCmps),
                without.counter(Counter::MergeCmps),
                "ovc={ovc}: {name} merge_cmps changed with the payload column"
            );
        }
    }
}
