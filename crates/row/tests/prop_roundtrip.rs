//! Property tests: DSM → NSM → DSM is the identity for arbitrary typed data.

use rowsort_row::{scatter, RowAlignment, RowLayout};
use rowsort_testkit::prop::{
    any_string, full, full_bool, full_f32, full_f64, select, vec_of, weighted, BoxedGen, GenExt,
    Just,
};
use rowsort_testkit::{prop, prop_assert, prop_assume};
use rowsort_vector::{DataChunk, LogicalType, Value};
use std::sync::Arc;

/// Generator for a random cell of the given type (incl. NULLs).
fn value_gen(ty: LogicalType) -> BoxedGen<Value> {
    let non_null: BoxedGen<Value> = match ty {
        LogicalType::Boolean => full_bool().prop_map(Value::Boolean).boxed(),
        LogicalType::Int8 => full::<i8>().prop_map(Value::Int8).boxed(),
        LogicalType::Int16 => full::<i16>().prop_map(Value::Int16).boxed(),
        LogicalType::Int32 => full::<i32>().prop_map(Value::Int32).boxed(),
        LogicalType::Int64 => full::<i64>().prop_map(Value::Int64).boxed(),
        LogicalType::UInt8 => full::<u8>().prop_map(Value::UInt8).boxed(),
        LogicalType::UInt16 => full::<u16>().prop_map(Value::UInt16).boxed(),
        LogicalType::UInt32 => full::<u32>().prop_map(Value::UInt32).boxed(),
        LogicalType::UInt64 => full::<u64>().prop_map(Value::UInt64).boxed(),
        LogicalType::Float32 => full_f32().prop_map(Value::Float32).boxed(),
        LogicalType::Float64 => full_f64().prop_map(Value::Float64).boxed(),
        LogicalType::Date => full::<i32>().prop_map(Value::Date).boxed(),
        LogicalType::Timestamp => full::<i64>().prop_map(Value::Timestamp).boxed(),
        LogicalType::Varchar => any_string(0..=24).prop_map(Value::Varchar).boxed(),
    };
    weighted(vec![(1, Just(Value::Null).boxed()), (4, non_null)]).boxed()
}

/// Generator for a random schema of 1..=5 columns.
fn schema_gen() -> BoxedGen<Vec<LogicalType>> {
    vec_of(select(LogicalType::ALL.to_vec()), 1..=5).boxed()
}

fn chunk_gen() -> BoxedGen<DataChunk> {
    schema_gen()
        .prop_flat_map(|types| {
            let row = types.iter().map(|&t| value_gen(t)).collect::<Vec<_>>();
            vec_of(row, 0..64).prop_map(move |rows| {
                let mut chunk = DataChunk::new(&types);
                for r in rows {
                    chunk.push_row(&r).unwrap();
                }
                chunk
            })
        })
        .boxed()
}

/// Float NaNs compare unequal under `PartialEq`; compare via bit patterns.
fn values_bit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float32(x), Value::Float32(y)) => x.to_bits() == y.to_bits(),
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn chunks_bit_eq(a: &DataChunk, b: &DataChunk) -> bool {
    a.len() == b.len()
        && (0..a.len()).all(|i| {
            a.row(i)
                .iter()
                .zip(b.row(i).iter())
                .all(|(x, y)| values_bit_eq(x, y))
        })
}

prop! {
    #![cases(64)]

    fn scatter_gather_identity_aligned(chunk in chunk_gen()) {
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let block = scatter(&chunk, layout);
        let order: Vec<u32> = (0..chunk.len() as u32).collect();
        let back = block.gather(&order);
        prop_assert!(chunks_bit_eq(&chunk, &back));
    }

    fn scatter_gather_identity_packed(chunk in chunk_gen()) {
        let layout = Arc::new(RowLayout::with_alignment(&chunk.types(), RowAlignment::Packed));
        let block = scatter(&chunk, layout);
        let order: Vec<u32> = (0..chunk.len() as u32).collect();
        let back = block.gather(&order);
        prop_assert!(chunks_bit_eq(&chunk, &back));
    }

    fn scatter_gather_identity_fitted(chunk in chunk_gen()) {
        // A flag only for the columns that hold a NULL, rows padded to
        // their widest slot: the layout a sort plans from its input.
        let nullable = |c: usize| !chunk.column(c).validity().all_valid();
        let layout = Arc::new(RowLayout::fitted(&chunk.types(), nullable));
        let block = scatter(&chunk, layout);
        let order: Vec<u32> = (0..chunk.len() as u32).collect();
        let back = block.gather(&order);
        prop_assert!(chunks_bit_eq(&chunk, &back));
    }

    fn reorder_then_gather_matches_take(chunk in chunk_gen(), seed in full::<u64>()) {
        prop_assume!(!chunk.is_empty());
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let block = scatter(&chunk, layout);
        // Deterministic pseudo-random permutation from the seed.
        let n = chunk.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let reordered = block.reorder(&order);
        let idents: Vec<u32> = (0..n as u32).collect();
        let via_reorder = reordered.gather(&idents);
        let via_take = chunk.take(&order.iter().map(|&i| i as usize).collect::<Vec<_>>());
        prop_assert!(chunks_bit_eq(&via_reorder, &via_take));
    }
}
