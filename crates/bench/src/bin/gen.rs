//! Export the synthetic workloads as CSV.
//!
//! ```text
//! gen catalog_sales <rows> <sf> <out.csv> [seed]
//! gen customer      <rows> <out.csv> [seed]
//! gen warehouse     <sf> <out.csv> [seed]
//! gen integers      <rows> <out.csv> [seed]
//! gen floats        <rows> <out.csv> [seed]
//! gen keys          <rows> <cols> <dist: random|0.25|0.5|0.75|1.0> <out.csv> [seed]
//! ```
//!
//! The files load back with `rowsort_engine::csv::read_csv` (or any other
//! tool), so experiments can also be run against external systems.

// A discarded `#[must_use]` value is handled or expected by name, as in
// the crate's library.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

use rowsort_datagen::{key_chunk, shuffled_integers, tpcds, uniform_floats, KeyDistribution};
use rowsort_engine::{csv, Table};
use rowsort_vector::{DataChunk, Vector};
use std::fs::File;

#[expect(
    clippy::exit,
    reason = "a CLI usage error ends the process with status 2"
)]
fn usage() -> ! {
    eprintln!(
        "usage:\n  gen catalog_sales <rows> <sf> <out.csv> [seed]\n  \
         gen customer <rows> <out.csv> [seed]\n  \
         gen warehouse <sf> <out.csv> [seed]\n  \
         gen integers <rows> <out.csv> [seed]\n  \
         gen floats <rows> <out.csv> [seed]\n  \
         gen keys <rows> <cols> <dist: random|0.25|0.5|0.75|1.0> <out.csv> [seed]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(s: Option<&String>) -> T {
    s.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

#[expect(clippy::exit, reason = "a failed write ends the process with status 1")]
fn write(table: &Table, path: &str) {
    let file = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    });
    csv::write_csv(table, file).expect("CSV write succeeds");
    println!("wrote {} rows to {path}", table.data.len());
}

fn named_to_table(t: &tpcds::NamedTable) -> Table {
    Table::new(
        t.name.clone(),
        t.columns.iter().map(|(n, _)| n.clone()).collect(),
        t.data.clone(),
    )
}

fn single_column(name: &str, col: Vector) -> Table {
    Table::new(
        name,
        vec!["v".to_owned()],
        DataChunk::from_columns(vec![col]).expect("one column"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(kind) = args.first() else { usage() };
    match kind.as_str() {
        "catalog_sales" => {
            let rows: usize = parse(args.get(1));
            let sf: f64 = parse(args.get(2));
            let out: String = parse(args.get(3));
            let seed: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(42);
            write(&named_to_table(&tpcds::catalog_sales(rows, sf, seed)), &out);
        }
        "customer" => {
            let rows: usize = parse(args.get(1));
            let out: String = parse(args.get(2));
            let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
            write(&named_to_table(&tpcds::customer(rows, seed)), &out);
        }
        "warehouse" => {
            let sf: f64 = parse(args.get(1));
            let out: String = parse(args.get(2));
            let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
            write(&named_to_table(&tpcds::warehouse(sf, seed)), &out);
        }
        "integers" => {
            let rows: usize = parse(args.get(1));
            let out: String = parse(args.get(2));
            let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
            write(
                &single_column("integers", Vector::from_i32s(shuffled_integers(rows, seed))),
                &out,
            );
        }
        "floats" => {
            let rows: usize = parse(args.get(1));
            let out: String = parse(args.get(2));
            let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
            write(
                &single_column("floats", Vector::from_f32s(uniform_floats(rows, seed))),
                &out,
            );
        }
        "keys" => {
            let rows: usize = parse(args.get(1));
            let cols: usize = parse(args.get(2));
            let dist = match args.get(3).map(String::as_str) {
                Some("random") => KeyDistribution::Random,
                Some(p) => KeyDistribution::Correlated(p.parse().unwrap_or_else(|_| usage())),
                None => usage(),
            };
            let out: String = parse(args.get(4));
            let seed: u64 = args.get(5).and_then(|s| s.parse().ok()).unwrap_or(42);
            let chunk = key_chunk(dist, rows, cols, seed);
            let names = (0..cols).map(|c| format!("k{c}")).collect();
            write(&Table::new("keys", names, chunk), &out);
        }
        _ => usage(),
    }
}
