//! The one copy of the random-input generators the `core` integration
//! tests share: the typed-relation property generator (`case_gen`) and
//! the seeded LCG the hand-built relations draw from. Each test binary
//! uses a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use rowsort_testkit::prop::{
    full, full_bool, select, string_from, vec_of, weighted, BoxedGen, GenExt, Just,
};
use rowsort_vector::{
    DataChunk, LogicalType, NullOrder, OrderBy, OrderByColumn, SortOrder, SortSpec, Value,
};

pub fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        })
        .collect()
}

pub fn value_gen(ty: LogicalType) -> BoxedGen<Value> {
    let non_null: BoxedGen<Value> = match ty {
        LogicalType::Int32 => (-50i32..50).prop_map(Value::Int32).boxed(),
        LogicalType::Int64 => full::<i64>().prop_map(Value::Int64).boxed(),
        LogicalType::UInt32 => (0u32..40).prop_map(Value::UInt32).boxed(),
        LogicalType::Float64 => (-4i32..4)
            .prop_map(|v| Value::Float64(v as f64 * 1.5))
            .boxed(),
        // Short random strings, and shared prefixes on purpose: long
        // equal key prefixes are the workload OVC exists for, and where
        // a coding bug would bite.
        LogicalType::Varchar => weighted(vec![
            (
                2,
                string_from("ab", 0..=14).prop_map(Value::Varchar).boxed(),
            ),
            (
                1,
                string_from("xyz", 0..=6)
                    .prop_map(|s| Value::Varchar(format!("shared_prefix_{s}")))
                    .boxed(),
            ),
        ])
        .boxed(),
        _ => unreachable!("generator only draws from the five types below"),
    };
    weighted(vec![(1, Just(Value::Null).boxed()), (5, non_null)]).boxed()
}

pub fn schema_gen() -> BoxedGen<Vec<LogicalType>> {
    vec_of(
        select(vec![
            LogicalType::Int32,
            LogicalType::Int64,
            LogicalType::UInt32,
            LogicalType::Float64,
            LogicalType::Varchar,
        ]),
        1..=3,
    )
    .boxed()
}

pub fn spec_gen() -> BoxedGen<SortSpec> {
    (full_bool(), full_bool())
        .prop_map(|(d, nf)| {
            SortSpec::new(
                if d {
                    SortOrder::Descending
                } else {
                    SortOrder::Ascending
                },
                if nf {
                    NullOrder::NullsFirst
                } else {
                    NullOrder::NullsLast
                },
            )
        })
        .boxed()
}

#[derive(Debug, Clone)]
pub struct Case {
    pub chunk: DataChunk,
    pub order: OrderBy,
}

pub fn case_gen() -> BoxedGen<Case> {
    schema_gen()
        .prop_flat_map(|types| {
            let ncols = types.len();
            let row_gen: Vec<BoxedGen<Value>> = types.iter().map(|&t| value_gen(t)).collect();
            let rows = vec_of(row_gen, 0..120);
            let specs = vec_of(spec_gen(), 1..=ncols);
            (rows, specs, Just(types)).prop_map(|(rows, specs, types)| {
                let mut chunk = DataChunk::new(&types);
                for r in &rows {
                    chunk.push_row(r).unwrap();
                }
                let order = OrderBy::new(
                    specs
                        .into_iter()
                        .enumerate()
                        .map(|(i, spec)| OrderByColumn { column: i, spec })
                        .collect(),
                );
                Case { chunk, order }
            })
        })
        .boxed()
}
