//! A warm engine returns what a cold one returns. Every query's sort
//! borrows the engine's one buffer pool and worker crew (DESIGN.md §6), so
//! whatever one query leaves in them — pooled buffers of another shape, a
//! crew sized for another thread count — must not change the next query's
//! rows, its plan, or the threads it runs on.
//!
//! The file holds one test: it counts this process's OS threads, which a
//! test running beside it would change.

use rowsort_engine::{Engine, SpillExecOptions, Table};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, Value, Vector};

/// Rows of the u32 table: two in-memory runs, so its sort is parallel.
const INT_ROWS: usize = 140_000;

/// Rows of each smaller table.
const ROWS: usize = 6_000;

/// ORDER BY a u32 key, every column out.
const A: &str = "SELECT * FROM ints ORDER BY k";
/// A VARCHAR key whose strings share more bytes than any planned prefix:
/// every row reaches the full-tuple comparator.
const B: &str = "SELECT p, name FROM names ORDER BY name DESC";
/// The four nullable `catalog_sales` keys, in memory (and spilled as D).
const C: &str = "SELECT cs_item_sk FROM catalog_sales \
                 ORDER BY cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk, cs_quantity";

fn tables() -> Vec<Table> {
    let mut rng = Rng::seed_from_u64(0x0A_3E_E6);
    let keys: Vec<u32> = (0..INT_ROWS).map(|_| rng.below(1 << 20) as u32).collect();
    let ints = DataChunk::from_columns(vec![
        Vector::from_u32s(keys),
        Vector::from_u32s((0..INT_ROWS as u32).collect()),
    ])
    .unwrap();
    let names: Vec<Value> = (0..ROWS)
        .map(|_| match rng.below(10) {
            0 => Value::Null,
            k => Value::from(format!(
                "customer_of_the_eastern_warehouse_name_{:05}",
                k * rng.below(300)
            )),
        })
        .collect();
    let names = DataChunk::from_columns(vec![
        Vector::from_u32s((0..ROWS as u32).collect()),
        Vector::from_values(rowsort_vector::LogicalType::Varchar, &names).unwrap(),
    ])
    .unwrap();
    let sales = rowsort_datagen::tpcds::catalog_sales(ROWS, 10.0, 7);
    let sales_names = sales.columns.iter().map(|(n, _)| n.clone()).collect();
    vec![
        Table::new("ints", vec!["k".into(), "p".into()], ints),
        Table::new("names", vec!["p".into(), "name".into()], names),
        Table::new(sales.name, sales_names, sales.data),
    ]
}

fn spill() -> Option<SpillExecOptions> {
    Some(SpillExecOptions {
        memory_limit_rows: ROWS / 5,
        spill_dir: None,
    })
}

/// A statement, and whether it runs spilled (D is C spilled).
type Statement = (&'static str, bool);

/// Run `statement` on `e` under `threads`, switching its spill session on
/// or off first.
fn run(e: &mut Engine, (sql, spilled): Statement, threads: usize) -> DataChunk {
    let options = e.options_mut();
    options.threads = threads;
    options.spill = if spilled { spill() } else { None };
    e.query(sql).unwrap()
}

/// The `EXPLAIN ANALYZE` text of `sql` on `e`.
fn analyze(e: &Engine, sql: &str) -> String {
    let text = e.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let lines = (0..text.len()).map(|i| match &text.row(i)[0] {
        Value::Varchar(line) => line.clone(),
        other => panic!("expected a VARCHAR line, got {other:?}"),
    });
    lines.collect::<Vec<_>>().join("\n")
}

/// This process's OS threads, by id.
fn os_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    let mut ids: Vec<String> = tasks
        .map(|t| t.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    ids.sort();
    ids
}

#[test]
fn a_warm_engine_returns_what_a_cold_engine_returns() {
    let base = os_threads().len();
    let tables = tables();
    let engine = || {
        let mut e = Engine::new();
        for t in &tables {
            e.register_table(t.clone());
        }
        e
    };
    let (a, b, c, d): (Statement, Statement, Statement, Statement) =
        ((A, false), (B, false), (C, false), (C, true));
    let mut warm = engine();
    for threads in [1, 2, 4] {
        // The first sort after the switch runs on a crew of `threads`
        // workers: it cuts the merge into that many key ranges.
        warm.options_mut().threads = threads;
        warm.options_mut().spill = None;
        let text = analyze(&warm, A);
        assert!(
            text.contains(&format!("merge=kway runs=2 ranges={threads} ")),
            "threads={threads}: {text}"
        );
        let fresh = [a, b, c, d].map(|s| run(&mut engine(), s, threads));
        for (i, s) in [a, b, c, a, c, b, d, a, d, b].into_iter().enumerate() {
            let expected = &fresh[[a, b, c, d].iter().position(|&t| t == s).unwrap()];
            let got = run(&mut warm, s, threads);
            assert!(got == *expected, "threads={threads}, query {i}: {s:?}");
        }
    }
    // B did reach the comparator, and a sort of a shape the engine has
    // run before took every buffer from its pool.
    let text = analyze(&warm, B);
    assert!(text.contains(" tie_rows="), "{text}");
    assert!(text.contains(" pool_misses=0"), "{text}");

    // The engine's crew of four workers is three threads that outlive the
    // query that spawned them (the fresh engines' crews are gone with
    // their engines), and later queries, of any shape and either sorter,
    // run on those same three.
    let live = os_threads();
    assert_eq!(live.len(), base + 3, "{live:?}");
    for s in [a, b, c, d, a, b, c, d, a, b] {
        run(&mut warm, s, 4);
    }
    assert_eq!(os_threads(), live, "a query started a thread");
}
