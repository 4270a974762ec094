//! Pins "the executor adds no relation-sized allocation" without a clock:
//! the bytes `Engine::query` asks the allocator for are at most what the
//! sorter asks for when handed `&table.data` directly, plus a small
//! constant for parse, plan and operator bookkeeping. A copy of the
//! relation anywhere between SQL text and the sorter (a scan that chunks
//! the table, a sort that re-assembles it, a projection that clones it, a
//! result that is re-appended) shows up as at least the relation's size.
//!
//! Everything runs on one thread, so the byte counts repeat exactly. The
//! counting allocator is installed globally for this test binary, so the
//! file holds exactly one test: any parallel test in the same binary
//! would allocate concurrently and poison the count.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_engine::{plan, sql, Engine, LogicalPlan, SpillExecOptions, Table};
use rowsort_testkit::alloc::{allocated_bytes, CountingAllocator};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, OrderBy, Vector};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// What a query may allocate beyond its sort: the AST, the plan, the
/// operator's own vectors of column handles. No relation here fits in it.
const SLACK_BYTES: usize = 64 << 10;

fn bytes_allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = allocated_bytes();
    let out = f();
    (out, allocated_bytes() - before)
}

/// The ORDER BY of the statement's Sort node, which must sort a base table
/// directly (possibly under a projection).
fn sort_order(e: &Engine, sql_text: &str) -> OrderBy {
    let built = plan::build(&sql::parse(sql_text).unwrap(), e.catalog()).unwrap();
    let mut node = &plan::optimize(built);
    loop {
        match node {
            LogicalPlan::Project { input, .. } => node = input,
            LogicalPlan::Sort { input, order } => {
                assert!(matches!(**input, LogicalPlan::Scan { .. }), "{sql_text}");
                return order.clone();
            }
            other => panic!("{sql_text}: no sort over a scan, found {other:?}"),
        }
    }
}

/// Run `sql_text` through the engine (whose options say one thread and
/// `spill`) and its sort directly on the table, compare the results, and
/// hold the engine to the sort's bytes.
fn assert_within_budget(e: &Engine, spill: Option<&SpillExecOptions>, table: &str, sql_text: &str) {
    let data = &e.catalog().get(table).unwrap().data;
    let order = sort_order(e, sql_text);
    let threads = 1;
    let (direct, sort_bytes) = bytes_allocated_by(|| match spill {
        None => {
            let options = SortOptions {
                threads,
                ..SortOptions::default()
            };
            SortPipeline::new(data.types(), order, options).sort(data)
        }
        Some(spill) => {
            let options = ExternalSortOptions {
                memory_limit_rows: spill.memory_limit_rows,
                spill_dir: spill.spill_dir.clone(),
                merge_threads: threads,
                ..ExternalSortOptions::default()
            };
            ExternalSorter::new(data.types(), order, options)
                .sort(data)
                .unwrap()
        }
    });
    let (result, query_bytes) = bytes_allocated_by(|| e.query(sql_text).unwrap());
    assert_eq!(result, direct, "{sql_text}");
    assert!(
        sort_bytes > data.len() * 8,
        "{sql_text}: the sort itself must be relation-sized ({sort_bytes} B) \
         for the budget to mean anything"
    );
    assert!(
        query_bytes <= sort_bytes + SLACK_BYTES,
        "{sql_text}: Engine::query allocated {query_bytes} B, {} B more than \
         its sort's {sort_bytes} B (allowed: {SLACK_BYTES} B) — some operator \
         copies the relation",
        query_bytes - sort_bytes
    );
}

#[test]
fn engine_query_allocates_no_more_than_its_sort() {
    let rows = 30_000;
    let mut e = Engine::new();
    e.options_mut().threads = 1;

    let cust = rowsort_datagen::tpcds::customer(rows, 7);
    let names = cust.columns.iter().map(|(n, _)| n.clone()).collect();
    e.register_table(Table::new("customer", names, cust.data));

    let mut rng = Rng::seed_from_u64(0xc0b7_b0d6);
    let keys: Vec<u32> = (0..rows).map(|_| rng.next_u32()).collect();
    let ints = DataChunk::from_columns(vec![
        Vector::from_u32s(keys),
        Vector::from_u32s((0..rows as u32).collect()),
    ])
    .unwrap();
    e.register_table(Table::new("ints", vec!["k".into(), "p".into()], ints));

    // Every column, heap-carrying rows: the sorted relation passes to the
    // caller by move.
    let strings = "SELECT * FROM customer ORDER BY c_last_name DESC, c_first_name, c_customer_sk";
    assert_within_budget(&e, None, "customer", strings);
    // A projection over the sort: columns move out of the sorted relation.
    assert_within_budget(&e, None, "ints", "SELECT k, p FROM ints ORDER BY k");

    // The same through the external sorter (eight spilled runs).
    let spill = SpillExecOptions {
        memory_limit_rows: rows / 8,
        spill_dir: None,
    };
    e.options_mut().spill = Some(spill.clone());
    assert_within_budget(&e, Some(&spill), "customer", strings);
}
