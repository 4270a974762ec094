//! Regression tests for the truncated-VARCHAR mis-sort (ROADMAP known
//! bug, fixed by the continuation marker byte + per-column tie
//! detection in the normalized-key layout).
//!
//! Under `ORDER BY s, n`, rows `("x"*44, 44)` and `("x"*12, 72)` used to
//! encode identical 12-byte prefixes for `s`, so `n`'s key bytes decided
//! the comparison before the truncation tie was detected and the pair
//! sorted backwards. The fix must hold on every sort path — in-memory
//! (single- and multi-threaded cascades), spilled, and the
//! range-partitioned spill merge — with offset-value coding on and off.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_vector::{DataChunk, LogicalType, OrderBy, OrderByColumn, SortSpec, Value};
use std::cmp::Ordering;

mod common;
use common::pseudo_random;

/// `ORDER BY s ASC, n ASC` — `n` is unique, so the ordering is total and
/// the expected row sequence is exact.
fn order_s_n() -> OrderBy {
    OrderBy::new(vec![
        OrderByColumn {
            column: 0,
            spec: SortSpec::ASC,
        },
        OrderByColumn::asc(1),
    ])
}

/// The ROADMAP repro pair plus adversarial neighbors: strings that agree
/// on the first 12 bytes but differ in length/suffix (fits-vs-truncated
/// and truncated-vs-truncated), strings with embedded NULs, and short
/// unique strings — with a unique `n` whose *key bytes* would invert
/// many of the pairs if they still leaked into the comparison.
fn tricky_chunk(rows: usize, seed: u64) -> DataChunk {
    let mut chunk = DataChunk::new(&[LogicalType::Varchar, LogicalType::Int32]);
    chunk
        .push_row(&[Value::from("x".repeat(44).as_str()), Value::Int32(44)])
        .unwrap();
    chunk
        .push_row(&[Value::from("x".repeat(12).as_str()), Value::Int32(72)])
        .unwrap();
    for (i, r) in pseudo_random(rows, seed).into_iter().enumerate() {
        let s = match r % 8 {
            0 => Value::Null,
            1 => Value::from(""),
            2 => Value::from("x".repeat(12 + (r % 40) as usize)),
            3 => Value::from(format!("x{}", "\u{0}".repeat((r % 20) as usize))),
            4 => Value::from(format!("{}{}", "x".repeat(13), r % 5)),
            _ => Value::from(format!("key_{}", r % 3)),
        };
        chunk.push_row(&[s, Value::Int32(i as i32 + 100)]).unwrap();
    }
    chunk
}

fn expected_rows(chunk: &DataChunk, order: &OrderBy) -> Vec<Vec<Value>> {
    let mut rows = chunk.to_rows();
    rows.sort_by(|a, b| order.compare_rows(a, b));
    rows
}

fn assert_exact(got: &[Vec<Value>], expected: &[Vec<Value>], what: &str) {
    assert_eq!(got.len(), expected.len(), "{what}: row count");
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        assert_eq!(
            order_s_n().compare_rows(g, e),
            Ordering::Equal,
            "{what}: row {i} differs: got {g:?}, expected {e:?}"
        );
        assert_eq!(g, e, "{what}: row {i} differs: got {g:?}, expected {e:?}");
    }
}

#[test]
fn roadmap_pair_sorts_correctly_in_memory() {
    // The minimal repro: just the two rows from the ROADMAP entry.
    let mut chunk = DataChunk::new(&[LogicalType::Varchar, LogicalType::Int32]);
    chunk
        .push_row(&[Value::from("x".repeat(44).as_str()), Value::Int32(44)])
        .unwrap();
    chunk
        .push_row(&[Value::from("x".repeat(12).as_str()), Value::Int32(72)])
        .unwrap();
    let sorted = SortPipeline::new(chunk.types(), order_s_n(), SortOptions::default())
        .sort(&chunk)
        .to_rows();
    assert_eq!(
        sorted[0],
        vec![Value::from("x".repeat(12).as_str()), Value::Int32(72)],
        "'x'*12 must sort before 'x'*44 regardless of the second key"
    );
}

#[test]
fn in_memory_paths_match_reference() {
    let chunk = tricky_chunk(600, 7);
    let order = order_s_n();
    let expected = expected_rows(&chunk, &order);
    for ovc in [true, false] {
        for threads in [1usize, 4] {
            let options = SortOptions {
                threads,
                run_rows: 100, // several runs: exercises the merge cascade
                ovc,
            };
            let got = SortPipeline::new(chunk.types(), order.clone(), options)
                .sort(&chunk)
                .to_rows();
            assert_exact(&got, &expected, &format!("pipeline ovc={ovc} t={threads}"));
        }
    }
}

#[test]
fn spill_path_matches_reference() {
    let chunk = tricky_chunk(400, 11);
    let order = order_s_n();
    let expected = expected_rows(&chunk, &order);
    for ovc in [true, false] {
        let sorter = ExternalSorter::new(
            chunk.types(),
            order.clone(),
            ExternalSortOptions {
                memory_limit_rows: 64, // forces several spilled runs
                ovc,
                merge_threads: 1,
                ..Default::default()
            },
        );
        let got = sorter.sort(&chunk).expect("spill sort succeeds").to_rows();
        assert_exact(&got, &expected, &format!("spill ovc={ovc}"));
    }
}

#[test]
fn partitioned_spill_merge_matches_reference() {
    // Enough rows that plan_parts actually partitions (>= 256 rows per
    // range) and several runs so the seam search and ranged cursors run.
    let chunk = tricky_chunk(1600, 13);
    let order = order_s_n();
    let expected = expected_rows(&chunk, &order);
    for ovc in [true, false] {
        let sorter = ExternalSorter::new(
            chunk.types(),
            order.clone(),
            ExternalSortOptions {
                memory_limit_rows: 300,
                ovc,
                merge_threads: 4,
                ..Default::default()
            },
        );
        let got = sorter
            .sort(&chunk)
            .expect("partitioned spill sort succeeds")
            .to_rows();
        assert_exact(&got, &expected, &format!("partitioned ovc={ovc}"));
    }
}
