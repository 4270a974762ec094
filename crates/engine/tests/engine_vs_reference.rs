//! Differential tests: the vectorized executor vs. the naive reference
//! executor, over generated TPC-DS-like data and randomized queries.

use rowsort_core::systems::SystemProfile;
use rowsort_engine::reference::execute_reference;
use rowsort_engine::{exec, plan, sql, Engine, LogicalPlan, SpillExecOptions, Table};
use rowsort_testkit::prop;
use rowsort_testkit::prop::{full_bool, option_of, vec_of};
use rowsort_vector::{OrderBy, OrderByColumn, Value, VECTOR_SIZE};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Rows per table: past three full vectors, ending off a vector boundary,
/// so anything that cuts a relation at `VECTOR_SIZE` meets a second, a
/// third and a short last piece.
const ROWS: usize = 3 * VECTOR_SIZE + 17;

fn tpcds_engine() -> Engine {
    let mut e = Engine::new();
    let cs = rowsort_datagen::tpcds::catalog_sales(ROWS, 10.0, 7);
    let names = cs.columns.iter().map(|(n, _)| n.clone()).collect();
    e.register_table(Table::new(cs.name, names, cs.data));
    let cust = rowsort_datagen::tpcds::customer(ROWS, 7);
    let names = cust.columns.iter().map(|(n, _)| n.clone()).collect();
    e.register_table(Table::new(cust.name, names, cust.data));
    e
}

/// One engine with default options for the cases that change none
/// (generating the tables once keeps the property test in seconds).
fn shared_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(tpcds_engine)
}

/// Compare results, tolerating different orders within tie groups: both
/// sides must be sorted under the plan's output ordering, and be equal as
/// multisets.
fn assert_equivalent(
    got: Vec<Vec<Value>>,
    expected: Vec<Vec<Value>>,
    order: Option<&rowsort_vector::OrderBy>,
    context: &str,
) {
    assert_eq!(got.len(), expected.len(), "{context}: row counts");
    if let Some(ob) = order {
        for w in got.windows(2) {
            assert_ne!(
                ob.compare_rows(&w[0], &w[1]),
                Ordering::Greater,
                "{context}: engine output out of order"
            );
        }
    }
    let canon = |mut rows: Vec<Vec<Value>>| {
        let mut v: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(canon(got), canon(expected), "{context}: multiset");
}

fn run_case(e: &Engine, sql_text: &str) {
    let ast = sql::parse(sql_text).unwrap();
    let logical = plan::build(&ast, e.catalog()).unwrap();
    let expected = execute_reference(&logical, e.catalog()).unwrap();
    // Extract the top-level ordering (if the plan's result is ordered).
    fn output_order(p: &plan::LogicalPlan) -> Option<rowsort_vector::OrderBy> {
        match p {
            plan::LogicalPlan::Sort { order, .. } => Some(order.clone()),
            plan::LogicalPlan::Project { input, .. } => {
                // Ordering refers to pre-projection columns; skip check.
                let _ = input;
                None
            }
            plan::LogicalPlan::Limit { input, .. } => output_order(input),
            _ => None,
        }
    }
    let order = output_order(&logical);
    let got = e.query(sql_text).unwrap().to_rows();
    assert_equivalent(got, expected, order.as_ref(), sql_text);
}

#[test]
fn catalog_sales_order_by_sweeps() {
    let e = tpcds_engine();
    let keys = [
        "cs_warehouse_sk",
        "cs_warehouse_sk, cs_ship_mode_sk",
        "cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk",
        "cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk, cs_quantity",
    ];
    for k in keys {
        run_case(
            &e,
            &format!("SELECT cs_item_sk FROM catalog_sales ORDER BY {k}"),
        );
    }
}

#[test]
fn customer_string_and_int_sorts() {
    let e = tpcds_engine();
    run_case(
        &e,
        "SELECT c_customer_sk FROM customer ORDER BY c_birth_year, c_birth_month, c_birth_day",
    );
    run_case(
        &e,
        "SELECT c_customer_sk FROM customer ORDER BY c_last_name, c_first_name",
    );
    run_case(
        &e,
        "SELECT c_customer_sk FROM customer \
         ORDER BY c_last_name DESC NULLS LAST, c_birth_year ASC NULLS FIRST",
    );
}

#[test]
fn benchmark_query_counts_match() {
    let e = tpcds_engine();
    let r = e
        .query(
            "SELECT count(*) FROM (SELECT cs_item_sk FROM catalog_sales \
             ORDER BY cs_warehouse_sk OFFSET 1) t",
        )
        .unwrap();
    assert_eq!(r.row(0), vec![Value::Int64(ROWS as i64 - 1)]);
}

#[test]
fn filters_and_limits_against_reference() {
    let e = tpcds_engine();
    for sql_text in [
        "SELECT * FROM catalog_sales WHERE cs_quantity >= 90",
        "SELECT cs_item_sk FROM catalog_sales WHERE cs_warehouse_sk IS NULL",
        "SELECT cs_item_sk FROM catalog_sales WHERE cs_warehouse_sk IS NOT NULL AND cs_quantity < 5",
        "SELECT c_customer_sk FROM customer WHERE c_last_name = 'Smith' ORDER BY c_customer_sk",
        "SELECT c_customer_sk FROM customer ORDER BY c_customer_sk DESC LIMIT 10",
        "SELECT c_customer_sk FROM customer ORDER BY c_customer_sk LIMIT 7 OFFSET 3",
        "SELECT count(*) FROM customer WHERE c_birth_year > 1980",
    ] {
        run_case(&e, sql_text);
    }
}

#[test]
fn every_system_profile_equals_reference() {
    for p in SystemProfile::ALL {
        let mut e = tpcds_engine();
        e.options_mut().profile = p;
        e.options_mut().threads = 2;
        run_case(
            &e,
            "SELECT cs_item_sk FROM catalog_sales \
             ORDER BY cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk, cs_quantity",
        );
        run_case(
            &e,
            "SELECT c_customer_sk FROM customer ORDER BY c_last_name, c_first_name",
        );
        // Keys only, cut inside a tie group: a profile that is not stable
        // may keep other members of the group, but never other keys.
        let sql_text = "SELECT c_birth_year FROM customer ORDER BY c_birth_year LIMIT 100";
        let logical = plan::build(&sql::parse(sql_text).unwrap(), e.catalog()).unwrap();
        let expected = execute_reference(&logical, e.catalog()).unwrap();
        assert_eq!(e.query(sql_text).unwrap().to_rows(), expected, "{p:?}");
    }
}

prop! {
    #![cases(64)]

    fn random_order_by_queries_match_reference(
        key_cols in vec_of(0usize..5, 1..4),
        descs in vec_of(full_bool(), 3..=3),
        limit in option_of(0u64..50),
        offset in option_of(0u64..20),
    ) {
        let cols = [
            "cs_item_sk",
            "cs_warehouse_sk",
            "cs_ship_mode_sk",
            "cs_promo_sk",
            "cs_quantity",
        ];
        let order_items: Vec<String> = key_cols
            .iter()
            .zip(descs.iter().cycle())
            .map(|(&c, &d)| format!("{} {}", cols[c], if d { "DESC" } else { "ASC" }))
            .collect();
        let mut sql_text = format!(
            "SELECT cs_item_sk FROM catalog_sales ORDER BY {}",
            order_items.join(", ")
        );
        if let Some(l) = limit {
            sql_text.push_str(&format!(" LIMIT {l}"));
        }
        if let Some(o) = offset {
            sql_text.push_str(&format!(" OFFSET {o}"));
        }
        run_case(shared_engine(), &sql_text);
    }
}

/// Execute a hand-built plan (shapes the SQL grammar cannot express, such
/// as a join over subqueries) on both executors.
fn run_plan(e: &Engine, options: &exec::ExecOptions, logical: &LogicalPlan, context: &str) {
    let expected = execute_reference(logical, e.catalog()).unwrap();
    let got = exec::execute(logical, e.catalog(), options).unwrap();
    assert_equivalent(got.to_rows(), expected, None, context);
}

/// Every operator over an input it borrows from the catalog and over one
/// that a node below it built, in memory and through the external sorter.
/// Orders are total (they end in a unique key, or list every column), so
/// LIMIT/OFFSET and `row_number()` pick the same rows on both executors —
/// but for one cut inside a tie group, which the stable sorts resolve as
/// the reference does.
#[test]
fn operators_over_borrowed_and_owned_inputs() {
    let n = ROWS;
    let all_customer = "c_customer_sk, c_first_name, c_last_name, \
                        c_birth_year, c_birth_month, c_birth_day";
    let all_sales = "cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk, cs_quantity, cs_item_sk";
    let mut cases: Vec<String> = [
        // Borrowed root: the catalog's table itself reaches the caller.
        "SELECT * FROM customer",
        "SELECT * FROM customer LIMIT 5",
        // Project over borrowed, Filter over borrowed.
        "SELECT cs_quantity, cs_item_sk FROM catalog_sales",
        "SELECT * FROM catalog_sales WHERE cs_quantity >= 50",
        // Sort over borrowed and (Filter -> Sort) over owned.
        "SELECT * FROM customer ORDER BY c_last_name DESC, c_first_name, c_customer_sk",
        "SELECT * FROM customer WHERE c_birth_year > 1950 ORDER BY c_last_name, c_customer_sk",
        // Sort -> Project: a strict subset, one column twice, all columns.
        "SELECT c_last_name, c_customer_sk FROM customer ORDER BY c_birth_year, c_customer_sk",
        "SELECT c_customer_sk, c_last_name, c_customer_sk FROM customer ORDER BY c_customer_sk",
        // Filter and Limit over owned.
        "SELECT c_customer_sk FROM (SELECT * FROM customer ORDER BY c_customer_sk DESC OFFSET 1) s \
         WHERE c_birth_month = 3",
        // The paper's benchmark query shape.
        "SELECT count(*) FROM (SELECT cs_item_sk FROM catalog_sales \
         ORDER BY cs_warehouse_sk, cs_ship_mode_sk OFFSET 1) t",
        // Window over borrowed and over a sorted (owned) subquery.
        "SELECT c_customer_sk, row_number() OVER (ORDER BY c_last_name, c_customer_sk) \
         FROM customer",
        "SELECT c_customer_sk, row_number() OVER (ORDER BY c_last_name, c_customer_sk) \
         FROM (SELECT * FROM customer ORDER BY c_birth_year OFFSET 1) s",
        // Join over borrowed inputs.
        "SELECT cs_quantity, c_last_name FROM catalog_sales JOIN customer \
         ON cs_item_sk = c_customer_sk",
    ]
    .map(str::to_owned)
    .to_vec();
    cases.push(format!(
        "SELECT {all_customer} FROM customer ORDER BY c_first_name, c_customer_sk"
    ));
    for offset in [0, 1, VECTOR_SIZE, n - 1, n, n + 1] {
        // Limit over borrowed; Limit over a sort's owned output.
        cases.push(format!("SELECT * FROM customer OFFSET {offset}"));
        cases.push(format!("SELECT * FROM customer LIMIT 5 OFFSET {offset}"));
        cases.push(format!(
            "SELECT * FROM catalog_sales ORDER BY {all_sales} OFFSET {offset}"
        ));
        cases.push(format!(
            "SELECT c_customer_sk FROM customer ORDER BY c_last_name, c_customer_sk \
             LIMIT {VECTOR_SIZE} OFFSET {offset}"
        ));
        cases.push(format!(
            "SELECT * FROM customer ORDER BY c_customer_sk DESC LIMIT {n} OFFSET {offset}"
        ));
        // A cut inside a tie group: both sorters run here are stable, so
        // they keep the members of the group the reference keeps.
        cases.push(format!(
            "SELECT c_customer_sk, c_birth_year FROM customer ORDER BY c_birth_year \
             LIMIT 100 OFFSET {offset}"
        ));
    }

    // Join over owned inputs: a filtered left side against a sorted,
    // offset right side, joined on customer key = item key.
    let scan = |table: &str| {
        Box::new(LogicalPlan::Scan {
            table: table.into(),
        })
    };
    let e = shared_engine();
    let filtered_sales = plan::build(
        &sql::parse("SELECT * FROM catalog_sales WHERE cs_quantity >= 90").unwrap(),
        e.catalog(),
    )
    .unwrap();
    let (left_names, left_types) = filtered_sales.schema(e.catalog()).unwrap();
    let sorted_customers = LogicalPlan::Limit {
        input: Box::new(LogicalPlan::Sort {
            input: scan("customer"),
            order: OrderBy::new(vec![OrderByColumn::asc(2), OrderByColumn::asc(0)]),
        }),
        limit: None,
        offset: 1,
    };
    let (right_names, right_types) = sorted_customers.schema(e.catalog()).unwrap();
    let join = LogicalPlan::SortMergeJoin {
        left: Box::new(filtered_sales),
        right: Box::new(sorted_customers),
        left_col: 0,  // cs_item_sk
        right_col: 0, // c_customer_sk
        names: [left_names, right_names].concat(),
        types: [left_types, right_types].concat(),
    };

    for spill in [false, true] {
        let mut e = tpcds_engine();
        if spill {
            e.options_mut().spill = Some(SpillExecOptions {
                memory_limit_rows: n / 5, // six runs per full-table sort
                spill_dir: None,
            });
        }
        for sql_text in &cases {
            run_case(&e, sql_text);
        }
        let options = e.options_mut().clone();
        run_plan(
            &e,
            &options,
            &join,
            &format!("hand-built join, spill={spill}"),
        );

        // Every plan node keeps its line in EXPLAIN ANALYZE; the Scan, which
        // now lends the table instead of emitting chunks, reports all of it.
        let analyzed = e
            .query("EXPLAIN ANALYZE SELECT c_customer_sk FROM customer ORDER BY c_last_name")
            .unwrap();
        let text: Vec<String> = (0..analyzed.len())
            .map(|i| format!("{:?}", analyzed.row(i)[0]))
            .collect();
        let text = text.join("\n");
        assert!(
            text.contains(&format!("Scan customer  [rows={n} ")),
            "{text}"
        );
        assert!(
            text.contains(&format!("Sort (1 keys)  [rows={n} ")),
            "{text}"
        );
        assert!(text.contains("Project"), "{text}");
        // Either sorter's Sort line carries the gather stage next to its
        // merge: run generation and merge in memory, spill and spill merge
        // (and how many times over the merge read the spilled bytes — these
        // runs are a single block each, which both ranges and the seam
        // walk read) through the external sorter.
        assert!(text.contains(" gather="), "{text}");
        assert_eq!(text.contains(" spill_merge="), spill, "{text}");
        assert_eq!(text.contains(" reread="), spill, "{text}");
    }
}

/// Two threads query one engine at once, and every sort of two runs or
/// more broadcasts its phases on the engine's one crew: the calls must
/// queue on it, never run each other's phase. 140 000 rows are two runs.
#[test]
fn concurrent_queries_on_one_engine_match_reference() {
    let rows = 140_000;
    let mut rng = rowsort_testkit::Rng::seed_from_u64(0xC0_C0_2C);
    let keys: Vec<u32> = (0..rows).map(|_| rng.below(50_000) as u32).collect();
    let data = rowsort_vector::DataChunk::from_columns(vec![
        rowsort_vector::Vector::from_u32s(keys),
        rowsort_vector::Vector::from_u32s((0..rows as u32).collect()),
    ])
    .unwrap();
    let mut e = Engine::new();
    e.options_mut().threads = 2;
    e.register_table(Table::new("t", vec!["k".into(), "p".into()], data));
    let statements = [
        "SELECT * FROM t ORDER BY k",
        "SELECT p FROM t ORDER BY k DESC",
    ];
    let expected = statements.map(|sql_text| {
        let logical = plan::build(&sql::parse(sql_text).unwrap(), e.catalog()).unwrap();
        execute_reference(&logical, e.catalog()).unwrap()
    });
    std::thread::scope(|s| {
        for first in 0..2 {
            let (e, expected) = (&e, &expected);
            s.spawn(move || {
                for i in 0..20 {
                    let which = (first + i) % 2;
                    let got = e.query(statements[which]).unwrap().to_rows();
                    assert!(got == expected[which], "{}, query {i}", statements[which]);
                }
            });
        }
    });
}
