//! Tuple comparators over NSM rows.
//!
//! The paper's §V distinction: a *compiled* engine generates one fused,
//! type-specialized comparison function per query, while a *vectorized
//! interpreted* engine must either interpret types inside the comparator or
//! pay a dynamic function call per key column
//! ([`DynamicRowComparator`]) — overhead incurred on **every** comparison.
//! [`FusedRowComparator`] plays the compiled role: a single call that walks
//! an embedded column descriptor table with no per-column indirection.

use rowsort_row::{Heaps, RowLayout};
use rowsort_vector::{LogicalType, NullOrder, OrderBy, SortOrder, SortSpec};
use std::cmp::Ordering;

/// Compare one key column of two rows: `(row_a, heap_a, row_b, heap_b)`.
pub type ColumnCompareFn = Box<dyn Fn(&[u8], &[u8], &[u8], &[u8]) -> Ordering + Send + Sync>;

#[inline]
fn null_order(a_null: bool, b_null: bool, nulls: NullOrder) -> Option<Ordering> {
    match (a_null, b_null) {
        (false, false) => None,
        (true, true) => Some(Ordering::Equal),
        (true, false) => Some(match nulls {
            NullOrder::NullsFirst => Ordering::Less,
            NullOrder::NullsLast => Ordering::Greater,
        }),
        (false, true) => Some(match nulls {
            NullOrder::NullsFirst => Ordering::Greater,
            NullOrder::NullsLast => Ordering::Less,
        }),
    }
}

/// Read a fixed-width array out of a row slice. Infallible by type: the
/// width comes from the const parameter, so there is no `try_into` to
/// fail — bounds are enforced by the slice operation itself.
#[inline]
fn read_array<const W: usize>(row: &[u8], off: usize) -> [u8; W] {
    let mut buf = [0u8; W];
    buf.copy_from_slice(&row[off..off + W]);
    buf
}

macro_rules! read_le {
    ($t:ty, $row:expr, $off:expr) => {
        <$t>::from_le_bytes(read_array($row, $off))
    };
}

#[inline]
fn compare_slot(
    ty: LogicalType,
    a: &[u8],
    heap_a: &[u8],
    b: &[u8],
    heap_b: &[u8],
    off: usize,
) -> Ordering {
    match ty {
        LogicalType::Boolean | LogicalType::UInt8 => a[off].cmp(&b[off]),
        LogicalType::Int8 => (a[off] as i8).cmp(&(b[off] as i8)),
        LogicalType::Int16 => read_le!(i16, a, off).cmp(&read_le!(i16, b, off)),
        LogicalType::Int32 | LogicalType::Date => read_le!(i32, a, off).cmp(&read_le!(i32, b, off)),
        LogicalType::Int64 | LogicalType::Timestamp => {
            read_le!(i64, a, off).cmp(&read_le!(i64, b, off))
        }
        LogicalType::UInt16 => read_le!(u16, a, off).cmp(&read_le!(u16, b, off)),
        LogicalType::UInt32 => read_le!(u32, a, off).cmp(&read_le!(u32, b, off)),
        LogicalType::UInt64 => read_le!(u64, a, off).cmp(&read_le!(u64, b, off)),
        LogicalType::Float32 => read_le!(f32, a, off).total_cmp(&read_le!(f32, b, off)),
        LogicalType::Float64 => read_le!(f64, a, off).total_cmp(&read_le!(f64, b, off)),
        LogicalType::Varchar => {
            let sa = {
                let o = read_le!(u32, a, off) as usize;
                let l = read_le!(u32, a, off + 4) as usize;
                &heap_a[o..o + l]
            };
            let sb = {
                let o = read_le!(u32, b, off) as usize;
                let l = read_le!(u32, b, off + 4) as usize;
                &heap_b[o..o + l]
            };
            sa.cmp(sb)
        }
    }
}

/// Descriptor of one key column within a row layout.
#[derive(Debug, Clone, Copy)]
struct KeyDesc {
    ty: LogicalType,
    /// The row slot: which of a row's heaps its strings are in.
    slot: usize,
    offset: usize,
    /// The NULL flag's offset; `None` for a column that holds no NULL.
    null_offset: Option<usize>,
    spec: SortSpec,
}

fn key_descs(layout: &RowLayout, order: &OrderBy) -> Vec<KeyDesc> {
    order
        .keys
        .iter()
        .map(|k| KeyDesc {
            ty: layout.types()[k.column],
            slot: k.column,
            offset: layout.offset(k.column),
            null_offset: layout.null_flag(k.column),
            spec: k.spec,
        })
        .collect()
}

#[inline]
fn compare_key(d: &KeyDesc, a: &[u8], heap_a: &[u8], b: &[u8], heap_b: &[u8]) -> Ordering {
    if let Some(at) = d.null_offset {
        if let Some(ord) = null_order(a[at] != 0, b[at] != 0, d.spec.nulls) {
            return ord;
        }
    }
    d.spec
        .order
        .apply(compare_slot(d.ty, a, heap_a, b, heap_b, d.offset))
}

/// The *interpreted* comparator: one boxed function per key column, called
/// through a dynamic dispatch on every comparison — the §V-B overhead the
/// paper measures in Figure 6.
pub struct DynamicRowComparator {
    columns: Vec<ColumnCompareFn>,
}

impl DynamicRowComparator {
    /// Build one boxed compare function per ORDER BY column.
    pub fn new(layout: &RowLayout, order: &OrderBy) -> DynamicRowComparator {
        let columns = key_descs(layout, order)
            .into_iter()
            .map(|d| {
                let f: ColumnCompareFn =
                    Box::new(move |a: &[u8], heap_a: &[u8], b: &[u8], heap_b: &[u8]| {
                        compare_key(&d, a, heap_a, b, heap_b)
                    });
                f
            })
            .collect();
        DynamicRowComparator { columns }
    }

    /// Compare two full rows: a dynamic call per key column until the first
    /// difference.
    #[inline(never)] // keep the call overhead honest
    pub fn compare(&self, a: &[u8], heap_a: &[u8], b: &[u8], heap_b: &[u8]) -> Ordering {
        for f in &self.columns {
            let ord = f(a, heap_a, b, heap_b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// The *compiled-style* comparator: a single function over an embedded
/// descriptor table, no per-column indirect calls. Rust monomorphization
/// plus inlining plays the role of query compilation here (the paper's
/// compiled engines generate exactly this shape of code per query).
pub struct FusedRowComparator {
    descs: Vec<KeyDesc>,
}

impl FusedRowComparator {
    /// Build the descriptor table.
    pub fn new(layout: &RowLayout, order: &OrderBy) -> FusedRowComparator {
        FusedRowComparator {
            descs: key_descs(layout, order),
        }
    }

    /// Compare two full rows in one fused pass.
    #[inline]
    pub fn compare(&self, a: &[u8], heap_a: &[u8], b: &[u8], heap_b: &[u8]) -> Ordering {
        self.compare_in(a, Heaps::One(heap_a), b, Heaps::One(heap_b))
    }

    /// [`FusedRowComparator::compare`] for rows whose strings are in
    /// `heaps_a` and `heaps_b`: a slot's own heap each, such as the input
    /// columns a run's rows were scattered from without their strings.
    #[inline]
    pub fn compare_in(
        &self,
        a: &[u8],
        heaps_a: Heaps<'_>,
        b: &[u8],
        heaps_b: Heaps<'_>,
    ) -> Ordering {
        for d in &self.descs {
            let ord = compare_key(d, a, heaps_a.of(d.slot), b, heaps_b.of(d.slot));
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// Statically-typed comparison of fixed u32 key tuples — the micro-
/// benchmark "compiled engine" kernel (an `OrderKey` struct in the paper's
/// C++). `N` is the number of key columns, monomorphized at compile time.
#[inline]
pub fn static_tuple_less<const N: usize>(a: &[u32; N], b: &[u32; N]) -> bool {
    // Fully unrolled by the compiler for each N.
    for c in 0..N {
        if a[c] != b[c] {
            return a[c] < b[c];
        }
    }
    false
}

/// Ascending `SortSpec` helper used across tests and benches.
pub fn asc() -> SortSpec {
    SortSpec::new(SortOrder::Ascending, NullOrder::NullsLast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_row::RowBlock;
    use rowsort_vector::{DataChunk, OrderByColumn, Value};
    use std::sync::Arc;

    fn block_from_rows(types: &[LogicalType], rows: &[Vec<Value>]) -> RowBlock {
        block_in(types, rows, |_| RowLayout::new(types))
    }

    /// The rows in the layout `layout` makes of their chunk.
    fn block_in(
        types: &[LogicalType],
        rows: &[Vec<Value>],
        layout: impl Fn(&DataChunk) -> RowLayout,
    ) -> RowBlock {
        let mut chunk = DataChunk::new(types);
        for r in rows {
            chunk.push_row(r).unwrap();
        }
        let mut block = RowBlock::new(Arc::new(layout(&chunk)));
        block.append_chunk(&chunk);
        block
    }

    fn cmp_both(block: &RowBlock, order: &OrderBy, i: usize, j: usize) -> (Ordering, Ordering) {
        let dynamic = DynamicRowComparator::new(block.layout(), order);
        let fused = FusedRowComparator::new(block.layout(), order);
        let (a, b) = (block.row(i), block.row(j));
        (
            dynamic.compare(a, block.heap(), b, block.heap()),
            fused.compare(a, block.heap(), b, block.heap()),
        )
    }

    #[test]
    fn dynamic_and_fused_agree_on_integers() {
        let types = [LogicalType::Int32, LogicalType::Int32];
        let block = block_from_rows(
            &types,
            &[
                vec![Value::Int32(1), Value::Int32(9)],
                vec![Value::Int32(1), Value::Int32(3)],
                vec![Value::Int32(-5), Value::Int32(0)],
            ],
        );
        let order = OrderBy::ascending(2);
        for i in 0..3 {
            for j in 0..3 {
                let (d, f) = cmp_both(&block, &order, i, j);
                assert_eq!(d, f, "rows {i},{j}");
            }
        }
        let (d, _) = cmp_both(&block, &order, 0, 1);
        assert_eq!(d, Ordering::Greater, "tie on col 0, col 1 decides");
        let (d, _) = cmp_both(&block, &order, 2, 0);
        assert_eq!(d, Ordering::Less);
    }

    #[test]
    fn comparators_match_reference_on_all_types() {
        use rowsort_vector::Value as V;
        let cases: Vec<(LogicalType, Vec<Value>)> = vec![
            (
                LogicalType::Boolean,
                vec![V::Boolean(false), V::Boolean(true), V::Null],
            ),
            (LogicalType::Int8, vec![V::Int8(-5), V::Int8(5), V::Null]),
            (
                LogicalType::Int16,
                vec![V::Int16(-300), V::Int16(300), V::Null],
            ),
            (
                LogicalType::Int32,
                vec![V::Int32(i32::MIN), V::Int32(0), V::Null],
            ),
            (
                LogicalType::Int64,
                vec![V::Int64(i64::MAX), V::Int64(-1), V::Null],
            ),
            (
                LogicalType::UInt8,
                vec![V::UInt8(0), V::UInt8(255), V::Null],
            ),
            (
                LogicalType::UInt16,
                vec![V::UInt16(9), V::UInt16(65535), V::Null],
            ),
            (
                LogicalType::UInt32,
                vec![V::UInt32(7), V::UInt32(u32::MAX), V::Null],
            ),
            (
                LogicalType::UInt64,
                vec![V::UInt64(1), V::UInt64(u64::MAX), V::Null],
            ),
            (
                LogicalType::Float32,
                vec![V::Float32(-1.5), V::Float32(f32::NAN), V::Null],
            ),
            (
                LogicalType::Float64,
                vec![V::Float64(0.0), V::Float64(-0.0), V::Null],
            ),
            (LogicalType::Date, vec![V::Date(-10), V::Date(10), V::Null]),
            (
                LogicalType::Timestamp,
                vec![V::Timestamp(5), V::Timestamp(-5), V::Null],
            ),
            (
                LogicalType::Varchar,
                vec![V::from("GERMANY"), V::from("NETHERLANDS"), V::Null],
            ),
        ];
        // Each case's rows in the paper's layout, and — without the NULL —
        // in a sort's, whose column then has no flag to read.
        let fitted = |chunk: &DataChunk| {
            let nullable = |c: usize| !chunk.column(c).validity().all_valid();
            RowLayout::fitted(&chunk.types(), nullable)
        };
        let layouts = cases.iter().flat_map(|(ty, values)| {
            let rows: Vec<Vec<Value>> = values.iter().map(|v| vec![v.clone()]).collect();
            let flagless = rows[..2].to_vec();
            let block = block_in(&[*ty], &flagless, fitted);
            assert_eq!(block.layout().flags(), 0);
            [
                (*ty, block_from_rows(&[*ty], &rows), rows),
                (*ty, block, flagless),
            ]
        });
        for (ty, block, rows) in layouts {
            for spec in [
                SortSpec::new(SortOrder::Ascending, NullOrder::NullsLast),
                SortSpec::new(SortOrder::Descending, NullOrder::NullsFirst),
            ] {
                let order = OrderBy::new(vec![OrderByColumn { column: 0, spec }]);
                for i in 0..rows.len() {
                    for j in 0..rows.len() {
                        let expected = order.compare_rows(&rows[i], &rows[j]);
                        let (d, f) = cmp_both(&block, &order, i, j);
                        assert_eq!(d, expected, "{ty} dynamic {i},{j} {spec:?}");
                        assert_eq!(f, expected, "{ty} fused {i},{j} {spec:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn varchar_heap_comparison() {
        let types = [LogicalType::Varchar];
        let block = block_from_rows(
            &types,
            &[
                vec![Value::from("abc")],
                vec![Value::from("abcd")],
                vec![Value::from("")],
            ],
        );
        let order = OrderBy::ascending(1);
        let (d, f) = cmp_both(&block, &order, 0, 1);
        assert_eq!(d, Ordering::Less);
        assert_eq!(f, Ordering::Less);
        let (d, _) = cmp_both(&block, &order, 2, 0);
        assert_eq!(d, Ordering::Less, "empty string sorts first");
    }

    #[test]
    fn static_tuple_comparator() {
        assert!(static_tuple_less(&[1u32, 2], &[1, 3]));
        assert!(!static_tuple_less(&[1u32, 3], &[1, 3]));
        assert!(!static_tuple_less(&[2u32], &[1]));
        assert!(static_tuple_less(&[1u32, 1, 1, 1], &[1, 1, 1, 2]));
    }

    #[test]
    fn order_by_subset_of_columns() {
        // Key is column 1 only; column 0 must not affect the ordering.
        let types = [LogicalType::Int32, LogicalType::Int32];
        let block = block_from_rows(
            &types,
            &[
                vec![Value::Int32(100), Value::Int32(1)],
                vec![Value::Int32(0), Value::Int32(2)],
            ],
        );
        let order = OrderBy::new(vec![OrderByColumn::asc(1)]);
        let (d, f) = cmp_both(&block, &order, 0, 1);
        assert_eq!(d, Ordering::Less);
        assert_eq!(f, Ordering::Less);
    }
}
