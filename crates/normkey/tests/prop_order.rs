//! Property tests: memcmp order of normalized keys equals ORDER BY order.

use rowsort_normkey::{encode_column_into, encode_value_into, key_range, KeyColumn};
use rowsort_testkit::prop::{
    bool_weighted, full, full_bool, select, string_from, vec_of, weighted, BoxedGen, GenExt, Just,
};
use rowsort_testkit::{prop, prop_assert, prop_assert_eq};
use rowsort_vector::{LogicalType, NullOrder, SortOrder, SortSpec, Value, Vector};
use std::cmp::Ordering;

fn spec_gen() -> BoxedGen<SortSpec> {
    (full_bool(), full_bool())
        .prop_map(|(desc, nf)| {
            SortSpec::new(
                if desc {
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

fn key_column(ty: LogicalType, spec: SortSpec) -> KeyColumn {
    if ty == LogicalType::Varchar {
        KeyColumn::varchar(spec, 12)
    } else {
        KeyColumn::fixed(ty, spec)
    }
}

fn encode(v: &Value, col: &KeyColumn) -> Vec<u8> {
    let mut out = vec![0u8; col.encoded_width()];
    encode_value_into(v, col, &mut out);
    out
}

fn fixed_type_gen() -> BoxedGen<LogicalType> {
    select(
        LogicalType::ALL
            .iter()
            .copied()
            .filter(|t| t.is_fixed_width())
            .collect::<Vec<_>>(),
    )
    .boxed()
}

/// `Value::Null` one time in six, otherwise a short string over `a`–`c`
/// plus NUL (embedded zero bytes stress the prefix encoding).
fn varchar_gen() -> BoxedGen<Value> {
    weighted(vec![
        (1, Just(Value::Null).boxed()),
        (
            5,
            string_from("abc\u{0}", 0..=20)
                .prop_map(Value::Varchar)
                .boxed(),
        ),
    ])
    .boxed()
}

/// The types a key column can be range-coded as.
const RANGED_TYPES: [LogicalType; 10] = [
    LogicalType::Int8,
    LogicalType::Int16,
    LogicalType::Int32,
    LogicalType::Int64,
    LogicalType::UInt8,
    LogicalType::UInt16,
    LogicalType::UInt32,
    LogicalType::UInt64,
    LogicalType::Date,
    LogicalType::Timestamp,
];

/// The value of `ty` whose order-preserving ordinal (its plain key body
/// read big-endian) is `ord`.
fn from_ordinal(ty: LogicalType, ord: u64) -> Value {
    match ty {
        LogicalType::Int8 => Value::Int8((ord as u8 ^ 0x80) as i8),
        LogicalType::Int16 => Value::Int16((ord as u16 ^ 0x8000) as i16),
        LogicalType::Int32 => Value::Int32((ord as u32 ^ 0x8000_0000) as i32),
        LogicalType::Int64 => Value::Int64((ord ^ 0x8000_0000_0000_0000) as i64),
        LogicalType::UInt8 => Value::UInt8(ord as u8),
        LogicalType::UInt16 => Value::UInt16(ord as u16),
        LogicalType::UInt32 => Value::UInt32(ord as u32),
        LogicalType::UInt64 => Value::UInt64(ord),
        LogicalType::Date => Value::Date((ord as u32 ^ 0x8000_0000) as i32),
        LogicalType::Timestamp => Value::Timestamp((ord ^ 0x8000_0000_0000_0000) as i64),
        other => unreachable!("{other} is not range-coded"),
    }
}

/// Spans around every code-width boundary (256 and 65 536 codes, with and
/// without a NULL code), the whole of a 32-bit domain, and all of `u64`.
fn span_gen() -> BoxedGen<u64> {
    weighted(vec![
        (
            4,
            select(vec![
                0,
                1,
                254,
                255,
                256,
                257,
                65_534,
                65_535,
                65_536,
                65_537,
                (1 << 24) - 1,
                u64::from(u32::MAX),
                u64::MAX,
            ])
            .boxed(),
        ),
        (1, full::<u64>().boxed()),
    ])
    .boxed()
}

/// Where the ranged encoding must stay plain: every code of `codes` (the
/// span plus one, plus one for NULL) fits fewer bytes than the plain NULL
/// byte and body, or the column is plain.
fn expected_width(ty: LogicalType, codes: u128) -> usize {
    let plain = 1 + ty.fixed_width().unwrap();
    let top = codes.saturating_sub(1);
    let bytes = (0..=16).find(|&b| b == 16 || top >> (8 * b) == 0).unwrap();
    if codes > u128::from(u64::MAX) || bytes >= plain {
        plain
    } else {
        bytes
    }
}

prop! {
    #![cases(512)]

    /// Range-coded integer columns: the codes order exactly like the
    /// values, for every integer type, ASC/DESC, NULLS FIRST/LAST, with no
    /// NULL, some and only NULLs; the range comes from the column itself
    /// (`key_range`), the width is the fewest bytes that hold every code
    /// or the plain one when that is no narrower, and the vector encoder
    /// writes what the value encoder does.
    fn ranged_order_matches_value_order(
        ty in select(RANGED_TYPES.to_vec()),
        spec in spec_gen(),
        base in full::<u64>(),
        span in span_gen(),
        picks in vec_of(full::<u64>(), 0..30),
        nulls in select(vec![0u8, 1, 2]),
    ) {
        let bits = 8 * ty.fixed_width().unwrap() as u32;
        let top = u64::MAX >> (64 - bits);
        let span = span.min(top);
        let lo = match (top - span).checked_add(1) {
            Some(slots) => base % slots,
            None => base, // span 0 over all of u64
        };
        let pick = |p: u64| match span.checked_add(1) {
            Some(n) => lo + p % n,
            None => p, // every u64
        };
        let ords = [lo, lo + span].into_iter().chain(picks.iter().map(|&p| pick(p)));
        let mut values: Vec<Value> = match nulls {
            2 => vec![Value::Null; 2 + picks.len()],
            _ => ords.map(|o| from_ordinal(ty, o)).collect(),
        };
        if nulls == 1 {
            values.extend([Value::Null, Value::Null]);
            let last = values.len() - 1;
            values.swap(0, last);
        }
        let vector = Vector::from_values(ty, &values).unwrap();
        let range = key_range(&vector).unwrap();
        let col = KeyColumn::ranged(ty, spec, range);
        let codes = match nulls {
            2 => 1,
            n => u128::from(span) + 1 + u128::from(n),
        };
        prop_assert_eq!(col.encoded_width(), expected_width(ty, codes), "{:?}", range);

        let keys: Vec<Vec<u8>> = values.iter().map(|v| encode(v, &col)).collect();
        for (a, ka) in values.iter().zip(&keys) {
            for (b, kb) in values.iter().zip(&keys) {
                prop_assert_eq!(
                    ka.cmp(kb),
                    spec.compare_values(a, b),
                    "{:?} vs {:?} under {:?}, {:?}", a, b, spec, range
                );
            }
        }
        let width = col.encoded_width();
        let mut block = vec![0u8; values.len() * width];
        encode_column_into(&vector, &col, &mut block, width, 0, 0);
        prop_assert_eq!(block, keys.concat());
    }

    /// Fixed-width types: encoding order == value order, exactly.
    /// Values are derived from raw bits so every type sees its full domain.
    fn fixed_width_order_preserved(
        ty in fixed_type_gen(),
        spec in spec_gen(),
        bits_a in full::<u64>(),
        bits_b in full::<u64>(),
        null_a in bool_weighted(0.15),
        null_b in bool_weighted(0.15),
    ) {
        let from_bits = |bits: u64, null: bool| -> Value {
            if null {
                return Value::Null;
            }
            match ty {
                LogicalType::Boolean => Value::Boolean(bits & 1 != 0),
                LogicalType::Int8 => Value::Int8(bits as i8),
                LogicalType::Int16 => Value::Int16(bits as i16),
                LogicalType::Int32 => Value::Int32(bits as i32),
                LogicalType::Int64 => Value::Int64(bits as i64),
                LogicalType::UInt8 => Value::UInt8(bits as u8),
                LogicalType::UInt16 => Value::UInt16(bits as u16),
                LogicalType::UInt32 => Value::UInt32(bits as u32),
                LogicalType::UInt64 => Value::UInt64(bits),
                LogicalType::Float32 => Value::Float32(f32::from_bits(bits as u32)),
                LogicalType::Float64 => Value::Float64(f64::from_bits(bits)),
                LogicalType::Date => Value::Date(bits as i32),
                LogicalType::Timestamp => Value::Timestamp(bits as i64),
                LogicalType::Varchar => unreachable!("fixed types only"),
            }
        };
        let col = key_column(ty, spec);
        let a = from_bits(bits_a, null_a);
        let b = from_bits(bits_b, null_b);
        let enc_ord = encode(&a, &col).cmp(&encode(&b, &col));
        let val_ord = spec.compare_values(&a, &b);
        prop_assert_eq!(enc_ord, val_ord, "{:?} vs {:?} under {:?}", a, b, spec);
    }

    /// Fixed-width paired values drawn directly.
    fn i64_pairs_exact(a in full::<i64>(), b in full::<i64>(), spec in spec_gen()) {
        let col = KeyColumn::fixed(LogicalType::Int64, spec);
        let (va, vb) = (Value::Int64(a), Value::Int64(b));
        prop_assert_eq!(
            encode(&va, &col).cmp(&encode(&vb, &col)),
            spec.compare_values(&va, &vb)
        );
    }

    fn f64_pairs_exact(a in rowsort_testkit::prop::full_f64(), b in rowsort_testkit::prop::full_f64(), spec in spec_gen()) {
        let col = KeyColumn::fixed(LogicalType::Float64, spec);
        let (va, vb) = (Value::Float64(a), Value::Float64(b));
        prop_assert_eq!(
            encode(&va, &col).cmp(&encode(&vb, &col)),
            spec.compare_values(&va, &vb)
        );
    }

    /// Strings: a strict encoded order implies the same strict value order;
    /// encoded equality only ever hides a tie (never an inversion).
    fn varchar_order_consistent(
        a in varchar_gen(),
        b in varchar_gen(),
        spec in spec_gen(),
        prefix in 1usize..12,
    ) {
        let col = KeyColumn { ty: LogicalType::Varchar, spec, prefix_len: prefix, truncatable: true, range: None };
        let enc_ord = encode(&a, &col).cmp(&encode(&b, &col));
        let val_ord = spec.compare_values(&a, &b);
        match enc_ord {
            Ordering::Equal => {} // tie: caller resolves against full strings
            strict => prop_assert_eq!(strict, val_ord, "{:?} vs {:?}", a, b),
        }
    }

    /// NULL placement is absolute: NULL vs valid ordering depends only on
    /// the NULLS clause, never on ASC/DESC or the value.
    fn null_placement_absolute(
        ty in fixed_type_gen(),
        spec in spec_gen(),
        v in full::<i32>(),
    ) {
        // Use a type-correct non-null value.
        let value = match ty {
            LogicalType::Boolean => Value::Boolean(v % 2 == 0),
            LogicalType::Int8 => Value::Int8(v as i8),
            LogicalType::Int16 => Value::Int16(v as i16),
            LogicalType::Int32 => Value::Int32(v),
            LogicalType::Int64 => Value::Int64(v as i64),
            LogicalType::UInt8 => Value::UInt8(v as u8),
            LogicalType::UInt16 => Value::UInt16(v as u16),
            LogicalType::UInt32 => Value::UInt32(v as u32),
            LogicalType::UInt64 => Value::UInt64(v as u64),
            LogicalType::Float32 => Value::Float32(v as f32),
            LogicalType::Float64 => Value::Float64(v as f64),
            LogicalType::Date => Value::Date(v),
            LogicalType::Timestamp => Value::Timestamp(v as i64),
            LogicalType::Varchar => unreachable!(),
        };
        let col = key_column(ty, spec);
        let null_enc = encode(&Value::Null, &col);
        let val_enc = encode(&value, &col);
        match spec.nulls {
            NullOrder::NullsFirst => prop_assert!(null_enc < val_enc),
            NullOrder::NullsLast => prop_assert!(null_enc > val_enc),
        }
    }

    /// Multi-column keys: concatenated encodings order like the
    /// lexicographic row comparator.
    fn multi_column_lexicographic(
        rows in vec_of((full::<i32>(), full::<u8>(), 0usize..4), 2..20),
        spec0 in spec_gen(),
        spec1 in spec_gen(),
    ) {
        use rowsort_vector::{OrderBy, OrderByColumn};
        let cols = [
            KeyColumn::fixed(LogicalType::Int32, spec0),
            KeyColumn::fixed(LogicalType::UInt8, spec1),
        ];
        let ob = OrderBy::new(vec![
            OrderByColumn { column: 0, spec: spec0 },
            OrderByColumn { column: 1, spec: spec1 },
        ]);
        let as_values: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(a, b, nulls)| {
                vec![
                    if nulls & 1 != 0 { Value::Null } else { Value::Int32(a) },
                    if nulls & 2 != 0 { Value::Null } else { Value::UInt8(b) },
                ]
            })
            .collect();
        let keys: Vec<Vec<u8>> = as_values
            .iter()
            .map(|row| {
                let mut k = Vec::new();
                for (v, c) in row.iter().zip(cols.iter()) {
                    k.extend_from_slice(&encode(v, c));
                }
                k
            })
            .collect();
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                prop_assert_eq!(
                    keys[i].cmp(&keys[j]),
                    ob.compare_rows(&as_values[i], &as_values[j]),
                    "rows {} vs {}", i, j
                );
            }
        }
    }
}

/// A column holding both `i64::MIN` and `i64::MAX` spans every ordinal:
/// its codes would overflow, so it stays plain — as does one of every
/// `u64`, and a UINT8 whose 256 values and a NULL need two bytes.
#[test]
fn full_domain_columns_stay_plain() {
    let cases = [
        (
            LogicalType::Int64,
            vec![Value::Int64(i64::MIN), Value::Int64(i64::MAX)],
        ),
        (
            LogicalType::Timestamp,
            vec![
                Value::Timestamp(i64::MAX),
                Value::Null,
                Value::Timestamp(i64::MIN),
            ],
        ),
        (
            LogicalType::UInt64,
            vec![Value::UInt64(u64::MAX), Value::UInt64(0)],
        ),
        (
            LogicalType::UInt8,
            vec![Value::UInt8(0), Value::UInt8(255), Value::Null],
        ),
    ];
    for (ty, values) in cases {
        let vector = Vector::from_values(ty, &values).unwrap();
        for desc in [false, true] {
            let spec = if desc { SortSpec::DESC } else { SortSpec::ASC };
            let col = KeyColumn::ranged(ty, spec, key_range(&vector).unwrap());
            assert_eq!(col, KeyColumn::fixed(ty, spec), "{ty}");
        }
    }
}

/// Constant and all-NULL columns are one code: zero bytes, every row equal.
#[test]
fn one_code_columns_are_zero_bytes() {
    for values in [vec![Value::Int16(-3); 3], vec![Value::Null; 3]] {
        let vector = Vector::from_values(LogicalType::Int16, &values).unwrap();
        let col = KeyColumn::ranged(
            LogicalType::Int16,
            SortSpec::DESC,
            key_range(&vector).unwrap(),
        );
        assert_eq!(col.encoded_width(), 0);
        assert!(col.range.is_some());
        assert!(encode(&values[0], &col).is_empty());
    }
}
