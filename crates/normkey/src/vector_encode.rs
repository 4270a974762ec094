//! Encoding whole vectors into normalized-key rows.

use crate::encoding::*;
use crate::layout::KeyColumn;
use rowsort_vector::{NullOrder, SortOrder, Value, Vector, VectorData};

#[inline]
fn null_byte(nulls: NullOrder, valid: bool) -> u8 {
    match (nulls, valid) {
        (NullOrder::NullsFirst, true) => NULL_FIRST_VALID,
        (NullOrder::NullsFirst, false) => NULL_FIRST_NULL,
        (NullOrder::NullsLast, true) => NULL_LAST_VALID,
        (NullOrder::NullsLast, false) => NULL_LAST_NULL,
    }
}

/// Encode one cell into `out` (`out.len()` must equal
/// [`KeyColumn::encoded_width`]). Reference path used by tests and
/// single-row consumers; hot paths use [`encode_column_into`].
pub fn encode_value_into(value: &Value, col: &KeyColumn, out: &mut [u8]) {
    assert_eq!(out.len(), col.encoded_width(), "output slice width");
    let valid = !value.is_null();
    out[0] = null_byte(col.spec.nulls, valid);
    let body = &mut out[1..];
    body.fill(0);
    if valid {
        match value {
            Value::Boolean(v) => body.copy_from_slice(&encode_bool(*v)),
            Value::Int8(v) => body.copy_from_slice(&encode_i8(*v)),
            Value::Int16(v) => body.copy_from_slice(&encode_i16(*v)),
            Value::Int32(v) => body.copy_from_slice(&encode_i32(*v)),
            Value::Int64(v) => body.copy_from_slice(&encode_i64(*v)),
            Value::UInt8(v) => body.copy_from_slice(&encode_u8(*v)),
            Value::UInt16(v) => body.copy_from_slice(&encode_u16(*v)),
            Value::UInt32(v) => body.copy_from_slice(&encode_u32(*v)),
            Value::UInt64(v) => body.copy_from_slice(&encode_u64(*v)),
            Value::Float32(v) => body.copy_from_slice(&encode_f32(*v)),
            Value::Float64(v) => body.copy_from_slice(&encode_f64(*v)),
            Value::Date(v) => body.copy_from_slice(&encode_i32(*v)),
            Value::Timestamp(v) => body.copy_from_slice(&encode_i64(*v)),
            Value::Varchar(s) => {
                // Zero-padded prefix, then the continuation marker byte
                // that makes short-vs-padded-vs-truncated compare exactly.
                let bytes = s.as_bytes();
                let prefix = body.len() - 1;
                let n = bytes.len().min(prefix);
                body[..n].copy_from_slice(&bytes[..n]);
                body[prefix] = continuation_marker(bytes.len(), prefix);
            }
            Value::Null => unreachable!(),
        }
        if col.spec.order == SortOrder::Descending {
            invert_bytes(body);
        }
    }
    // NULL rows keep an all-zero body so all NULLs encode identically;
    // the NULL byte alone places them. Not inverted under DESC because
    // NULL placement is absolute (SQL semantics).
}

/// Encode a whole key column into a matrix of key rows.
///
/// Row `i` of the vector is written at
/// `out[(base_row + i) * stride + col_offset ..][..col.encoded_width()]`.
/// One `match` on the vector type dispatches for the entire vector — the
/// vector-at-a-time amortization that makes this conversion cheap in an
/// interpreted engine.
pub fn encode_column_into(
    vec: &Vector,
    col: &KeyColumn,
    out: &mut [u8],
    stride: usize,
    col_offset: usize,
    base_row: usize,
) {
    encode_column_range_into(vec, col, out, stride, col_offset, base_row, 0, vec.len());
}

/// [`encode_column_into`] restricted to vector rows `lo..hi`: row `lo + i`
/// of the vector is written at key row `base_row + i`. This lets the sort
/// pipeline encode one morsel of a chunk directly, without materializing a
/// sliced copy of the vector first.
#[expect(
    clippy::too_many_arguments,
    reason = "a column's slot in the key block plus the morsel's row range"
)]
pub fn encode_column_range_into(
    vec: &Vector,
    col: &KeyColumn,
    out: &mut [u8],
    stride: usize,
    col_offset: usize,
    base_row: usize,
    lo: usize,
    hi: usize,
) {
    assert!(lo <= hi && hi <= vec.len(), "row range out of bounds");
    let n = hi - lo;
    let width = col.encoded_width();
    debug_assert!(out.len() >= (base_row + n) * stride);
    let desc = col.spec.order == SortOrder::Descending;
    let nulls = col.spec.nulls;

    macro_rules! encode_loop {
        ($values:expr, $encode:expr) => {{
            for (i, v) in $values[lo..hi].iter().enumerate() {
                let at = (base_row + i) * stride + col_offset;
                let valid = vec.is_valid(lo + i);
                out[at] = null_byte(nulls, valid);
                let body = &mut out[at + 1..at + width];
                if valid {
                    body.copy_from_slice(&$encode(*v));
                    if desc {
                        invert_bytes(body);
                    }
                } else {
                    body.fill(0);
                }
            }
        }};
    }

    match vec.data() {
        VectorData::Boolean(values) => encode_loop!(values, encode_bool),
        VectorData::Int8(values) => encode_loop!(values, encode_i8),
        VectorData::Int16(values) => encode_loop!(values, encode_i16),
        VectorData::Int32(values) => encode_loop!(values, encode_i32),
        VectorData::Int64(values) => encode_loop!(values, encode_i64),
        VectorData::UInt8(values) => encode_loop!(values, encode_u8),
        VectorData::UInt16(values) => encode_loop!(values, encode_u16),
        VectorData::UInt32(values) => encode_loop!(values, encode_u32),
        VectorData::UInt64(values) => encode_loop!(values, encode_u64),
        VectorData::Float32(values) => encode_loop!(values, encode_f32),
        VectorData::Float64(values) => encode_loop!(values, encode_f64),
        VectorData::Date(values) => encode_loop!(values, encode_i32),
        VectorData::Timestamp(values) => encode_loop!(values, encode_i64),
        VectorData::Varchar(strings) => {
            let prefix = width - 2; // null byte + prefix + marker byte
            for i in 0..n {
                let at = (base_row + i) * stride + col_offset;
                let valid = vec.is_valid(lo + i);
                out[at] = null_byte(nulls, valid);
                let body = &mut out[at + 1..at + width];
                body.fill(0);
                if valid {
                    let bytes = strings.get_bytes(lo + i);
                    let m = bytes.len().min(prefix);
                    body[..m].copy_from_slice(&bytes[..m]);
                    body[prefix] = continuation_marker(bytes.len(), prefix);
                    if desc {
                        invert_bytes(body);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_vector::{LogicalType as T, SortSpec};

    fn encode_one(value: &Value, col: &KeyColumn) -> Vec<u8> {
        let mut out = vec![0u8; col.encoded_width()];
        encode_value_into(value, col, &mut out);
        out
    }

    #[test]
    fn asc_nulls_last_integer() {
        let col = KeyColumn::fixed(T::Int32, SortSpec::ASC);
        let lo = encode_one(&Value::Int32(-5), &col);
        let hi = encode_one(&Value::Int32(5), &col);
        let null = encode_one(&Value::Null, &col);
        assert!(lo < hi);
        assert!(hi < null, "NULLS LAST: null sorts after all values");
    }

    #[test]
    fn desc_nulls_first_integer() {
        let col = KeyColumn::fixed(
            T::Int32,
            SortSpec::new(SortOrder::Descending, NullOrder::NullsFirst),
        );
        let lo = encode_one(&Value::Int32(-5), &col);
        let hi = encode_one(&Value::Int32(5), &col);
        let null = encode_one(&Value::Null, &col);
        assert!(hi < lo, "DESC reverses value order");
        assert!(null < hi, "NULLS FIRST: null sorts before all values");
    }

    #[test]
    fn figure7_full_example() {
        // ORDER BY c_birth_country DESC, c_birth_year ASC (paper Fig. 7).
        let country = KeyColumn::varchar(SortSpec::DESC, 11);
        let year = KeyColumn::fixed(T::Int32, SortSpec::ASC);
        let key = |c: &str, y: i32| {
            let mut k = vec![0u8; country.encoded_width() + year.encoded_width()];
            encode_value_into(&Value::from(c), &country, &mut k[..country.encoded_width()]);
            encode_value_into(&Value::Int32(y), &year, &mut k[country.encoded_width()..]);
            k
        };
        // DESC country: NETHERLANDS < GERMANY in encoded order.
        assert!(key("NETHERLANDS", 1990) < key("GERMANY", 1990));
        // Same country: earlier year first (ASC).
        assert!(key("GERMANY", 1924) < key("GERMANY", 1990));
        // Combined: NETHERLANDS/any-year before GERMANY/any-year.
        assert!(key("NETHERLANDS", 1992) < key("GERMANY", 1924));
    }

    #[test]
    fn varchar_padding_orders_short_before_long() {
        let col = KeyColumn::varchar(SortSpec::ASC, 12);
        let a = encode_one(&Value::from("GERMANY"), &col);
        let b = encode_one(&Value::from("GERMANYX"), &col);
        assert!(a < b, "zero padding sorts the shorter string first");
    }

    #[test]
    fn varchar_truncation_creates_ties() {
        let col = KeyColumn {
            ty: T::Varchar,
            spec: SortSpec::ASC,
            prefix_len: 3,
            truncatable: true,
        };
        let a = encode_one(&Value::from("abcX"), &col);
        let b = encode_one(&Value::from("abcY"), &col);
        assert_eq!(a, b, "equal prefixes encode equal — tie to be resolved");
    }

    #[test]
    fn marker_orders_embedded_nul_after_padding() {
        // "a" vs "a\0": identical zero-padded prefixes; the marker byte
        // (the length, while the string fits) breaks the tie correctly.
        let col = KeyColumn::varchar(SortSpec::ASC, 12);
        let short = encode_one(&Value::from("a"), &col);
        let with_nul = encode_one(&Value::from("a\0"), &col);
        assert!(short < with_nul, "'a' sorts before 'a\\0'");
    }

    #[test]
    fn marker_orders_fitting_before_truncated() {
        // The ROADMAP mis-sort pair: "x"*12 fits (marker 12), "x"*44 is
        // truncated (marker 13) — identical prefixes, marker decides.
        let col = KeyColumn::varchar(SortSpec::ASC, 44);
        let fits = encode_one(&Value::from("x".repeat(12).as_str()), &col);
        let truncated = encode_one(&Value::from("x".repeat(44).as_str()), &col);
        assert!(fits < truncated, "fitting string sorts before truncated");
        // Both truncated with equal prefixes: a genuine tie.
        let longer = encode_one(&Value::from("x".repeat(13).as_str()), &col);
        assert_eq!(truncated, longer, "both-truncated equal prefixes tie");
    }

    #[test]
    fn marker_inverted_under_desc() {
        let col = KeyColumn::varchar(SortSpec::DESC, 44);
        let fits = encode_one(&Value::from("x".repeat(12).as_str()), &col);
        let truncated = encode_one(&Value::from("x".repeat(44).as_str()), &col);
        assert!(truncated < fits, "DESC reverses the marker order too");
    }

    #[test]
    fn nulls_encode_identically() {
        let col = KeyColumn::fixed(T::Int64, SortSpec::DESC);
        let n1 = encode_one(&Value::Null, &col);
        let n2 = encode_one(&Value::Null, &col);
        assert_eq!(n1, n2);
    }

    #[test]
    fn column_encoding_matches_value_encoding() {
        let col = KeyColumn::fixed(T::Int32, SortSpec::DESC);
        let vec = {
            let mut v = Vector::new(T::Int32);
            for x in [Value::Int32(3), Value::Null, Value::Int32(-9)] {
                v.push(&x).unwrap();
            }
            v
        };
        let stride = col.encoded_width() + 4; // pretend a 4-byte row id follows
        let mut out = vec![0u8; 3 * stride];
        encode_column_into(&vec, &col, &mut out, stride, 0, 0);
        for i in 0..3 {
            let got = &out[i * stride..i * stride + col.encoded_width()];
            let expected = encode_one(&vec.get(i), &col);
            assert_eq!(got, &expected[..], "row {i}");
        }
    }

    #[test]
    fn column_encoding_respects_base_row_and_offset() {
        let col = KeyColumn::fixed(T::UInt8, SortSpec::ASC);
        let vec = Vector::from_u8s(vec![7]);
        let stride = 8;
        let mut out = vec![0xAAu8; 4 * stride];
        encode_column_into(&vec, &col, &mut out, stride, 3, 2);
        // Row 2, offset 3: null byte 0x00 (valid, NULLS LAST) then 0x07.
        assert_eq!(out[2 * stride + 3], NULL_LAST_VALID);
        assert_eq!(out[2 * stride + 4], 7);
        // Other bytes untouched.
        assert_eq!(out[0], 0xAA);
    }

    #[test]
    fn range_encoding_matches_whole_vector_encoding() {
        let col = KeyColumn::fixed(T::Int32, SortSpec::DESC);
        let vec = {
            let mut v = Vector::new(T::Int32);
            for x in [
                Value::Int32(3),
                Value::Null,
                Value::Int32(-9),
                Value::Int32(40),
            ] {
                v.push(&x).unwrap();
            }
            v
        };
        let stride = col.encoded_width();
        let mut whole = vec![0u8; 4 * stride];
        encode_column_into(&vec, &col, &mut whole, stride, 0, 0);
        let mut ranged = vec![0u8; 2 * stride];
        encode_column_range_into(&vec, &col, &mut ranged, stride, 0, 0, 1, 3);
        assert_eq!(&ranged[..stride], &whole[stride..2 * stride], "row 1");
        assert_eq!(&ranged[stride..], &whole[2 * stride..3 * stride], "row 2");
    }

    #[test]
    fn range_encoding_strings() {
        let col = KeyColumn::varchar(SortSpec::ASC, 4);
        let vec = Vector::from_strings(["zz", "aa", "mm"]);
        let w = col.encoded_width();
        let mut whole = vec![0u8; 3 * w];
        encode_column_into(&vec, &col, &mut whole, w, 0, 0);
        let mut ranged = vec![0u8; w];
        encode_column_range_into(&vec, &col, &mut ranged, w, 0, 0, 2, 3);
        assert_eq!(&ranged[..], &whole[2 * w..]);
    }

    #[test]
    fn strings_encode_per_vector() {
        let col = KeyColumn::varchar(SortSpec::ASC, 4);
        let vec = Vector::from_strings(["zz", "aa", "mm"]);
        let w = col.encoded_width();
        let mut out = vec![0u8; 3 * w];
        encode_column_into(&vec, &col, &mut out, w, 0, 0);
        let k = |i: usize| &out[i * w..(i + 1) * w];
        assert!(k(1) < k(2));
        assert!(k(2) < k(0));
    }
}
