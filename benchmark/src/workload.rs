//! The four workloads: their tables, statements, and why each exists.
//!
//! Sizes were chosen on the two-core reference host so that one query
//! takes between a few milliseconds and a few tenths of a second.

use crate::adapter::{
    gen_catalog_sales, gen_customer, DataChunk, LogicalType, NullOrder, OrderBy, OrderByColumn,
    Rng, SortOrder, SortSpec, Value, Vector,
};

/// One ORDER BY item as the oracle reads it, written out independently of
/// the engine's parser and its defaults.
pub struct OrderKey {
    pub column: &'static str,
    pub desc: bool,
    pub nulls_first: bool,
}

/// One set of inputs the benchmark runs.
pub struct Workload {
    pub name: &'static str,
    /// Why this workload is in the benchmark (one line; BENCHMARK.json
    /// carries the same text).
    pub why: &'static str,
    pub table: &'static str,
    /// Rows at `--scale 1`.
    pub rows: usize,
    pub sql: &'static str,
    /// The statement's ORDER BY, for the oracle.
    pub order: &'static [OrderKey],
    /// `Some(n)`: sorts spill, holding `rows / n` rows in memory, so a
    /// query writes and merges `n` runs.
    pub spill_runs: Option<usize>,
}

const STRING_SQL: &str = "SELECT * FROM customer_email \
     ORDER BY c_last_name DESC NULLS FIRST, c_email_address, c_birth_year DESC";

const STRING_ORDER: &[OrderKey] = &[
    OrderKey {
        column: "c_last_name",
        desc: true,
        nulls_first: true,
    },
    OrderKey {
        column: "c_email_address",
        desc: false,
        nulls_first: false,
    },
    // DESC without a NULLS clause: NULLS FIRST, as in DuckDB and Postgres.
    OrderKey {
        column: "c_birth_year",
        desc: true,
        nulls_first: true,
    },
];

const fn asc(column: &'static str) -> OrderKey {
    OrderKey {
        column,
        desc: false,
        nulls_first: false,
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ints_mem",
        why: "Figure 12 shape: 1M random u32 keys in memory; LSD radix and a 3-round merge, so \
              row movement and the engine's materialize/split dominate, not comparisons",
        table: "ints",
        rows: 1_000_000,
        sql: "SELECT k, p FROM ints ORDER BY k",
        order: &[asc("k")],
        spill_runs: None,
    },
    Workload {
        name: "strings_mem",
        why: "Figure 14 shape: 300k customers by name, e-mail beyond the 12-byte prefix, year; \
              pdqsort with tie resolution and an OVC merge, so comparisons and normkey dominate",
        table: "customer_email",
        rows: 300_000,
        sql: STRING_SQL,
        order: STRING_ORDER,
        spill_runs: None,
    },
    Workload {
        name: "catalog_spill",
        why: "Figure 13 shape through the external sorter: 500k catalog_sales rows by four \
              nullable ints, 16 spilled runs, seam scan and range-partitioned merge",
        table: "catalog_sales",
        rows: 500_000,
        sql: "SELECT * FROM catalog_sales \
              ORDER BY cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk, cs_quantity",
        order: &[
            asc("cs_warehouse_sk"),
            asc("cs_ship_mode_sk"),
            asc("cs_promo_sk"),
            asc("cs_quantity"),
        ],
        spill_runs: Some(16),
    },
    Workload {
        name: "small_sort",
        why: "strings_mem's statement on 8192 rows: fits in cache, one run, no merge; bypasses \
              every merge and spill change, and parse/plan/set-up per query weigh most here",
        table: "customer_email",
        rows: 8_192,
        sql: STRING_SQL,
        order: STRING_ORDER,
        spill_runs: None,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Rows at the given scale (at least 64, so every stage has work).
    pub fn scaled_rows(&self, scale: f64) -> usize {
        ((self.rows as f64 * scale) as usize).max(64)
    }

    /// Generate the table from the seed: column names and rows.
    pub fn generate(&self, rows: usize, seed: u64) -> (Vec<String>, DataChunk) {
        match self.table {
            "ints" => ints(rows, seed),
            "customer_email" => customer_email(rows, seed),
            _ => gen_catalog_sales(rows, seed),
        }
    }

    /// The statement's ORDER BY resolved against the table's columns.
    pub fn order_by(&self, columns: &[String]) -> OrderBy {
        let keys = self
            .order
            .iter()
            .map(|key| {
                let column = columns
                    .iter()
                    .position(|c| c == key.column)
                    .expect("workload orders by a column of its own table");
                let order = if key.desc {
                    SortOrder::Descending
                } else {
                    SortOrder::Ascending
                };
                let nulls = if key.nulls_first {
                    NullOrder::NullsFirst
                } else {
                    NullOrder::NullsLast
                };
                OrderByColumn {
                    column,
                    spec: SortSpec::new(order, nulls),
                }
            })
            .collect();
        OrderBy::new(keys)
    }
}

/// `ints(k UINT32 uniform random, p UINT32 row number)`.
fn ints(rows: usize, seed: u64) -> (Vec<String>, DataChunk) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x1275_6b65_795f_7033);
    let k = (0..rows).map(|_| rng.next_u32()).collect();
    let p = (0..rows as u32).collect();
    let data = DataChunk::from_columns(vec![Vector::from_u32s(k), Vector::from_u32s(p)])
        .expect("two columns of one length");
    (vec!["k".to_owned(), "p".to_owned()], data)
}

/// `tpcds::customer` plus `c_email_address`, shaped like the TPC-DS column:
/// `<first>.<last>@<10 random letters>.org`, NULL where the first name is.
/// Every name `tpcds::customer` generates fits the 12-byte key prefix; the
/// e-mail does not, and customers with one name share its whole prefix.
fn customer_email(rows: usize, seed: u64) -> (Vec<String>, DataChunk) {
    let (mut names, customer) = gen_customer(rows, seed);
    let first = names
        .iter()
        .position(|c| c == "c_first_name")
        .expect("customer has c_first_name");
    let last = names
        .iter()
        .position(|c| c == "c_last_name")
        .expect("customer has c_last_name");
    let mut rng = Rng::seed_from_u64(seed ^ 0x656d_6169_6c5f_6164);
    let letters: Vec<char> = ('a'..='z').collect();
    let emails: Vec<Value> = (0..rows)
        .map(|row| {
            let domain = rng.string_from(&letters, 10);
            match customer.column(first).get(row) {
                Value::Varchar(first_name) => {
                    let last_name = customer.column(last).get(row);
                    let last_name = last_name.as_str().unwrap_or("");
                    Value::Varchar(format!("{first_name}.{last_name}@{domain}.org"))
                }
                _ => Value::Null,
            }
        })
        .collect();
    let email = Vector::from_values(LogicalType::Varchar, &emails).expect("all VARCHAR or NULL");
    let mut columns = customer.columns().to_vec();
    columns.push(email);
    names.push("c_email_address".to_owned());
    let data = DataChunk::from_columns(columns).expect("columns of one length");
    (names, data)
}
