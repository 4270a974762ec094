//! Encoding whole vectors into normalized-key rows.

use crate::encoding::*;
use crate::layout::{KeyColumn, KeyRange, RangeCoder, MAX_PREFIX};
use rowsort_algos::rows::copy_row;
use rowsort_vector::{NullOrder, SortOrder, Validity, Value, Vector, VectorData};

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
    if let Some(coder) = col.coder() {
        let ordinal = match value {
            Value::Null => None,
            Value::Int8(v) => Some(v.ordinal()),
            Value::Int16(v) => Some(v.ordinal()),
            Value::Int32(v) | Value::Date(v) => Some(v.ordinal()),
            Value::Int64(v) | Value::Timestamp(v) => Some(v.ordinal()),
            Value::UInt8(v) => Some(v.ordinal()),
            Value::UInt16(v) => Some(v.ordinal()),
            Value::UInt32(v) => Some(v.ordinal()),
            Value::UInt64(v) => Some(v.ordinal()),
            other => panic!("{other:?} in a range-coded key column"),
        };
        let code = ordinal.map_or(coder.null, |ord| coder.code(ord));
        out.copy_from_slice(&code.to_be_bytes()[8 - out.len()..]);
        return;
    }
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
    if width == 0 {
        return; // a range-coded column of one code: nothing to write
    }
    let rows = out[base_row * stride..(base_row + n) * stride].chunks_exact_mut(stride);
    let valid = vec.validity().words().map(|words| (words, lo));
    if let Some(coder) = col.coder() {
        let to = RangedRows {
            rows,
            at: col_offset,
            width,
            coder,
        };
        match vec.data() {
            VectorData::Int8(values) => to.encode(&values[lo..hi], valid),
            VectorData::Int16(values) => to.encode(&values[lo..hi], valid),
            VectorData::Int32(values) | VectorData::Date(values) => {
                to.encode(&values[lo..hi], valid)
            }
            VectorData::Int64(values) | VectorData::Timestamp(values) => {
                to.encode(&values[lo..hi], valid)
            }
            VectorData::UInt8(values) => to.encode(&values[lo..hi], valid),
            VectorData::UInt16(values) => to.encode(&values[lo..hi], valid),
            VectorData::UInt32(values) => to.encode(&values[lo..hi], valid),
            VectorData::UInt64(values) => to.encode(&values[lo..hi], valid),
            other => panic!("{:?} in a range-coded key column", other.logical_type()),
        }
        return;
    }

    macro_rules! encode_loop {
        ($values:expr, $encode:expr) => {
            each_row(rows, $values[lo..hi].iter(), valid, |row, v, valid| {
                row[col_offset] = null_byte(nulls, valid);
                let body = &mut row[col_offset + 1..col_offset + width];
                if valid {
                    body.copy_from_slice(&$encode(*v));
                    if desc {
                        invert_bytes(body);
                    }
                } else {
                    body.fill(0);
                }
            })
        };
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
            each_row(rows, lo..hi, valid, |row, i, valid| {
                row[col_offset] = null_byte(nulls, valid);
                let body = &mut row[col_offset + 1..col_offset + width];
                // `copy_row`, not `fill` and `copy_from_slice`: a body or
                // prefix of 4 to 64 bytes then costs no library call.
                copy_row(body, &ZEROS[..width - 1]);
                if valid {
                    let bytes = strings.get_bytes(i);
                    let m = bytes.len().min(prefix);
                    copy_row(&mut body[..m], &bytes[..m]);
                    body[prefix] = continuation_marker(bytes.len(), prefix);
                    if desc {
                        invert_bytes(body);
                    }
                }
            });
        }
    }
}

/// The zeros a VARCHAR key body starts from: the widest body is the
/// longest prefix and its marker.
const ZEROS: [u8; MAX_PREFIX + 1] = [0; MAX_PREFIX + 1];

/// Call `put(row, value, valid)` for each key row of a morsel and its
/// value. `valid` is the column's validity words and the row of the first
/// value in them, each row's bit read from its word; `None` when every row
/// is valid, and then the loop tests nothing (`valid` is the constant
/// `true` in `put`).
#[inline(always)]
fn each_row<T>(
    rows: std::slice::ChunksExactMut<'_, u8>,
    values: impl Iterator<Item = T>,
    valid: Option<(&[u64], usize)>,
    mut put: impl FnMut(&mut [u8], T, bool),
) {
    match valid {
        None => {
            for (row, v) in rows.zip(values) {
                put(row, v, true);
            }
        }
        Some((words, first)) => {
            for (r, (row, v)) in (first..).zip(rows.zip(values)) {
                put(row, v, (words[r / 64] >> (r % 64)) & 1 != 0);
            }
        }
    }
}

/// A range-coded column's slots in a morsel of key rows: row `i` of the
/// morsel holds its `width`-byte code at `rows[i][at..]`.
struct RangedRows<'a> {
    rows: std::slice::ChunksExactMut<'a, u8>,
    at: usize,
    width: usize,
    coder: RangeCoder,
}

impl RangedRows<'_> {
    /// Code `values`, one per row; `valid` is the column's validity words
    /// and the row of `values[0]` in them, `None` when every row is valid.
    /// One loop per code width, so each row's code is one fixed-width
    /// store, never a `memcpy` call.
    fn encode<T: Ordinal>(self, values: &[T], valid: Option<(&[u64], usize)>) {
        match self.width {
            1 => self.encode_at::<T, 1>(values, valid),
            2 => self.encode_at::<T, 2>(values, valid),
            3 => self.encode_at::<T, 3>(values, valid),
            4 => self.encode_at::<T, 4>(values, valid),
            5 => self.encode_at::<T, 5>(values, valid),
            6 => self.encode_at::<T, 6>(values, valid),
            7 => self.encode_at::<T, 7>(values, valid),
            _ => self.encode_at::<T, 8>(values, valid),
        }
    }

    fn encode_at<T: Ordinal, const W: usize>(self, values: &[T], valid: Option<(&[u64], usize)>) {
        let (at, coder) = (self.at, self.coder);
        each_row(self.rows, values.iter(), valid, |row, v, valid| {
            let code = coder.code(v.ordinal());
            let code = if valid { code } else { coder.null };
            row[at..at + W].copy_from_slice(&code.to_be_bytes()[8 - W..]);
        });
    }
}

/// The [`KeyRange`] of `column` — whether it has a NULL, and its lowest
/// and highest valid ordinal — in one pass over its values in their own
/// type, the validity read 64 rows a word; `None` for a type range coding
/// does not apply to (floats, BOOLEAN, VARCHAR). The pass stops early once
/// the bounds so far need as many code bytes as the type's whole domain:
/// the range is then that domain, which codes in the same width and
/// covers every row unread.
pub fn key_range(column: &Vector) -> Option<KeyRange> {
    let validity = column.validity();
    Some(match column.data() {
        VectorData::Int8(values) => range_of(values, validity),
        VectorData::Int16(values) => range_of(values, validity),
        VectorData::Int32(values) | VectorData::Date(values) => range_of(values, validity),
        VectorData::Int64(values) | VectorData::Timestamp(values) => range_of(values, validity),
        VectorData::UInt8(values) => range_of(values, validity),
        VectorData::UInt16(values) => range_of(values, validity),
        VectorData::UInt32(values) => range_of(values, validity),
        VectorData::UInt64(values) => range_of(values, validity),
        _ => return None,
    })
}

/// Rows folded between two checks for the early stop: 64 validity words.
const BLOCK_ROWS: usize = 4096;

fn range_of<T: Ordinal>(values: &[T], validity: &Validity) -> KeyRange {
    let nulls = !validity.all_valid();
    let domain = KeyRange {
        lo: T::LEAST.ordinal(),
        hi: T::GREATEST.ordinal(),
        nulls,
    };
    let width = |r: KeyRange| r.code_width().unwrap_or(usize::MAX);
    let mut bounds = Bounds {
        lo: [T::GREATEST; LANES],
        hi: [T::LEAST; LANES],
    };
    let words = validity.words().unwrap_or_default();
    for (b, block) in values.chunks(BLOCK_ROWS).enumerate() {
        match words.get(b * BLOCK_ROWS / 64..) {
            Some(words) if nulls => bounds.fold_valid(block, words),
            _ => bounds.fold(block),
        }
        if width(bounds.range(nulls)) >= width(domain) {
            return domain;
        }
    }
    bounds.range(nulls)
}

/// The index of `bits`' lowest set bit (64 for none).
fn lowest_bit(bits: u64) -> usize {
    usize::try_from(bits.trailing_zeros()).unwrap_or(usize::MAX)
}

/// Independent running bounds per lane, so the fold compiles to vector
/// min/max rather than one dependent compare per value.
const LANES: usize = 16;

struct Bounds<T> {
    lo: [T; LANES],
    hi: [T; LANES],
}

impl<T: Ordinal> Bounds<T> {
    fn fold(&mut self, values: &[T]) {
        let mut chunks = values.chunks_exact(LANES);
        for chunk in &mut chunks {
            for ((lo, hi), &v) in self.lo.iter_mut().zip(&mut self.hi).zip(chunk) {
                *lo = if v < *lo { v } else { *lo };
                *hi = if v > *hi { v } else { *hi };
            }
        }
        for &v in chunks.remainder() {
            self.lo[0] = self.lo[0].min(v);
            self.hi[0] = self.hi[0].max(v);
        }
    }

    /// [`Bounds::fold`] over the valid rows of `values`, whose validity
    /// starts at bit 0 of `words`.
    fn fold_valid(&mut self, values: &[T], words: &[u64]) {
        let mut patched = [T::LEAST; 64];
        for (chunk, &word) in values.chunks(64).zip(words) {
            let live = u64::MAX >> (64 - chunk.len());
            let valid = word & live;
            if valid == live {
                self.fold(chunk);
                continue;
            }
            // A NULL row's stored value is no value of the column: it
            // stands in as a valid row of the same word, which moves
            // neither bound. (Most words hold a NULL or two, so this
            // patches a copy rather than testing every row.)
            let Some(&fill) = chunk.get(lowest_bit(valid)) else {
                continue; // every row NULL
            };
            let patched = &mut patched[..chunk.len()];
            patched.copy_from_slice(chunk);
            let mut holes = !valid & live;
            while holes != 0 {
                if let Some(slot) = patched.get_mut(lowest_bit(holes)) {
                    *slot = fill;
                }
                holes &= holes - 1;
            }
            self.fold(patched);
        }
    }

    /// The range the values folded so far span; crossed bounds (no valid
    /// row yet) make an empty one.
    fn range(&self, nulls: bool) -> KeyRange {
        let lo = self.lo.into_iter().min().unwrap_or(T::GREATEST);
        let hi = self.hi.into_iter().max().unwrap_or(T::LEAST);
        if lo > hi {
            return KeyRange {
                nulls,
                ..KeyRange::EMPTY
            };
        }
        KeyRange {
            lo: lo.ordinal(),
            hi: hi.ordinal(),
            nulls,
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
            range: None,
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

    fn i32_vector(values: &[Option<i32>]) -> Vector {
        let mut v = Vector::new(T::Int32);
        for x in values {
            v.push(&x.map_or(Value::Null, Value::Int32)).unwrap();
        }
        v
    }

    #[test]
    fn key_range_reads_valid_rows_only() {
        // 150 rows over three validity words, NULLs in two of them; a
        // NULL row's stored value never moves a bound.
        let rows: Vec<Option<i32>> = (0..150)
            .map(|i| (i % 7 != 3 && i < 140).then_some(i - 40))
            .collect();
        let r = key_range(&i32_vector(&rows)).unwrap();
        assert_eq!(
            (r.lo, r.hi, r.nulls),
            ((-40i32).ordinal(), 99i32.ordinal(), true)
        );
        let dense: Vec<Option<i32>> = (0..150).map(|i| Some(i * 3)).collect();
        let r = key_range(&i32_vector(&dense)).unwrap();
        assert_eq!(
            (r.lo, r.hi, r.nulls),
            (0i32.ordinal(), 447i32.ordinal(), false)
        );
        // All NULL, and no rows: the bounds stay crossed.
        let r = key_range(&i32_vector(&[None; 70])).unwrap();
        assert_eq!(
            r,
            KeyRange {
                nulls: true,
                ..KeyRange::EMPTY
            }
        );
        assert_eq!(key_range(&i32_vector(&[])), Some(KeyRange::EMPTY));
        // A materialized mask with every bit set has no NULL.
        let mut validity = Validity::new_valid(3);
        validity.set_invalid(1);
        validity.set_valid(1);
        let restored = Vector::from_parts(VectorData::Int32(vec![5, -2, 9]), validity).unwrap();
        assert!(restored.validity().words().is_some());
        assert_eq!(key_range(&restored).map(|r| r.nulls), Some(false));
        assert_eq!(key_range(&Vector::from_strings(["a"])), None);
    }

    #[test]
    fn ranged_column_encoding_matches_value_encoding() {
        let rows: Vec<Option<i32>> = (0..200)
            .map(|i| (i % 5 != 0).then_some((i * 37) % 300 - 150))
            .collect();
        let vec = i32_vector(&rows);
        let range = key_range(&vec).unwrap();
        for spec in [
            SortSpec::ASC,
            SortSpec::DESC,
            SortSpec::new(SortOrder::Ascending, NullOrder::NullsFirst),
            SortSpec::new(SortOrder::Descending, NullOrder::NullsFirst),
        ] {
            let col = KeyColumn::ranged(T::Int32, spec, range);
            assert_eq!(col.encoded_width(), 2, "{spec:?}");
            // Rows 3.. of the vector at key row 1, after a 3-byte column.
            let stride = 3 + col.encoded_width() + 4;
            let mut out = vec![0xAAu8; 200 * stride];
            encode_column_range_into(&vec, &col, &mut out, stride, 3, 1, 3, 200);
            assert_eq!(out[..stride], vec![0xAA; stride][..], "row 0 untouched");
            for i in 3..200 {
                let at = (i - 2) * stride + 3;
                let got = &out[at..at + col.encoded_width()];
                assert_eq!(got, encode_one(&vec.get(i), &col), "{spec:?} row {i}");
            }
        }
    }

    #[test]
    fn range_encoding_reads_validity_across_words() {
        // NULLs at both ends of the first two validity words; ranges that
        // start on and off a word boundary, behind one key row.
        let rows = 130;
        let null = |i: usize| [0, 63, 64, 127].contains(&i);
        let ints: Vec<Option<i32>> = (0..rows)
            .zip(-60..)
            .map(|(i, v)| (!null(i)).then_some(v))
            .collect();
        let strings: Vec<Value> = (0..rows)
            .map(|i| match null(i) {
                true => Value::Null,
                false => Value::from("ab".repeat(i % 5)),
            })
            .collect();
        let columns = [
            (
                i32_vector(&ints),
                KeyColumn::fixed(T::Int32, SortSpec::DESC),
            ),
            (
                Vector::from_values(T::Varchar, &strings).unwrap(),
                KeyColumn::varchar(SortSpec::ASC, 6),
            ),
            (
                i32_vector(&ints),
                KeyColumn::ranged(
                    T::Int32,
                    SortSpec::ASC,
                    key_range(&i32_vector(&ints)).unwrap(),
                ),
            ),
        ];
        for (vec, col) in &columns {
            let w = col.encoded_width();
            for lo in [0, 1, 63, 65] {
                let mut out = vec![0xAAu8; (1 + rows - lo) * w];
                encode_column_range_into(vec, col, &mut out, w, 0, 1, lo, rows);
                for i in lo..rows {
                    let got = &out[(1 + i - lo) * w..][..w];
                    assert_eq!(got, encode_one(&vec.get(i), col), "{col:?} lo {lo} row {i}");
                }
            }
        }
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
