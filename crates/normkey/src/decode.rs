//! Decoding key bytes back into values: the inverse of every encoding a
//! key column holds exactly ([`KeyColumn::is_exact`]). A sort whose key
//! gives a column back need not carry that column in its payload row; its
//! output decodes it from the key instead.

use crate::encoding::{NULL_FIRST_NULL, NULL_LAST_NULL};
use crate::layout::{KeyColumn, RangeCoder};
use rowsort_vector::{LogicalType, NullOrder, SortOrder};

/// A fixed-width value rebuilt from its key body's ordinal: the big-endian
/// value of the body bytes, DESC inversion undone. The inverse of the
/// value's encoder ([`encode_i32`](crate::encode_i32) and the rest), and for
/// an integer the inverse of [`Ordinal::ordinal`](crate::Ordinal::ordinal).
/// Only the low bytes the type has are read, so an ordinal out of the
/// type's range (a damaged key) yields some value, never a panic.
pub trait KeyValue: Copy + Default {
    /// The value whose key body has ordinal `ord`.
    fn from_ordinal(ord: u64) -> Self;
}

impl KeyValue for bool {
    #[inline]
    fn from_ordinal(ord: u64) -> bool {
        ord & 1 != 0
    }
}

macro_rules! key_values {
    ($($t:ty => $u:ty, $sign:expr, $bytes:expr;)*) => {$(
        impl KeyValue for $t {
            #[inline]
            fn from_ordinal(ord: u64) -> $t {
                let be = ord.to_be_bytes();
                let mut low = [0u8; $bytes];
                low.copy_from_slice(&be[8 - $bytes..]);
                let bits: $u = <$u>::from_be_bytes(low) ^ $sign;
                <$t>::from_ne_bytes(bits.to_ne_bytes())
            }
        }
    )*};
}

key_values! {
    u8 => u8, 0, 1;
    u16 => u16, 0, 2;
    u32 => u32, 0, 4;
    u64 => u64, 0, 8;
    i8 => u8, 0x80, 1;
    i16 => u16, 0x8000, 2;
    i32 => u32, 0x8000_0000, 4;
    i64 => u64, 0x8000_0000_0000_0000, 8;
}

impl KeyValue for f32 {
    /// The inverse of [`encode_f32`](crate::encode_f32): a set sign bit
    /// marks a positive value, whose bits it was OR-ed into; a negative
    /// value had every bit inverted.
    #[inline]
    fn from_ordinal(ord: u64) -> f32 {
        let ordered = u32::from_ordinal(ord);
        let bits = if ordered & 0x8000_0000 != 0 {
            ordered ^ 0x8000_0000
        } else {
            !ordered
        };
        f32::from_bits(bits)
    }
}

impl KeyValue for f64 {
    /// The inverse of [`encode_f64`](crate::encode_f64).
    #[inline]
    fn from_ordinal(ord: u64) -> f64 {
        let bits = if ord & 0x8000_0000_0000_0000 != 0 {
            ord ^ 0x8000_0000_0000_0000
        } else {
            !ord
        };
        f64::from_bits(bits)
    }
}

/// How one key column's bytes decode, derived once from its
/// [`KeyColumn`]. Exact only for a column that [`KeyColumn::is_exact`]
/// says is: a truncated VARCHAR prefix decodes to its prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyDecoder {
    /// Bytes of the column in the key.
    width: usize,
    how: How,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum How {
    /// A NULL byte, then the body; `null` is a NULL's NULL byte.
    Plain { null: u8, desc: bool },
    /// A code within a range; `nulls` says NULL has a code of its own.
    Ranged { coder: RangeCoder, nulls: bool },
}

/// A VARCHAR key whose continuation marker names a length its prefix
/// cannot hold: no exact column encodes one.
pub const BAD_KEY_MARKER: &str = "key marker past its VARCHAR prefix";

impl KeyDecoder {
    /// The decoder of `col`'s key bytes.
    pub fn new(col: &KeyColumn) -> KeyDecoder {
        let width = col.encoded_width();
        let how = match col.coder() {
            Some(coder) => How::Ranged {
                coder,
                nulls: col.range.is_some_and(|r| r.nulls),
            },
            None => How::Plain {
                null: match col.spec.nulls {
                    NullOrder::NullsFirst => NULL_FIRST_NULL,
                    NullOrder::NullsLast => NULL_LAST_NULL,
                },
                desc: col.spec.order == SortOrder::Descending,
            },
        };
        debug_assert!(col.ty != LogicalType::Varchar || col.range.is_some() || width >= 2);
        KeyDecoder { width, how }
    }

    /// Call `put(i, ordinal)` for the column in each of the `n` keys laid
    /// `stride` bytes apart in `keys`, the column `at` bytes into each:
    /// `None` for a NULL, else the body's ordinal ([`KeyValue`]) or, for a
    /// range- or rank-coded column, the ordinal or rank its code stands
    /// for. One loop per width, so a key's column is one fixed-width load.
    ///
    /// # Panics
    /// If `keys` holds fewer than `n` keys, or the column does not fit in
    /// `stride`.
    #[inline]
    pub fn ordinals(
        &self,
        keys: &[u8],
        (stride, at): (usize, usize),
        n: usize,
        put: impl FnMut(usize, Option<u64>),
    ) {
        match self.width {
            0 => self.ordinals_at::<0>(keys, (stride, at), n, put),
            1 => self.ordinals_at::<1>(keys, (stride, at), n, put),
            2 => self.ordinals_at::<2>(keys, (stride, at), n, put),
            3 => self.ordinals_at::<3>(keys, (stride, at), n, put),
            4 => self.ordinals_at::<4>(keys, (stride, at), n, put),
            5 => self.ordinals_at::<5>(keys, (stride, at), n, put),
            6 => self.ordinals_at::<6>(keys, (stride, at), n, put),
            7 => self.ordinals_at::<7>(keys, (stride, at), n, put),
            8 => self.ordinals_at::<8>(keys, (stride, at), n, put),
            _ => self.ordinals_at::<9>(keys, (stride, at), n, put),
        }
    }

    #[inline(always)]
    fn ordinals_at<const W: usize>(
        &self,
        keys: &[u8],
        (stride, at): (usize, usize),
        n: usize,
        mut put: impl FnMut(usize, Option<u64>),
    ) {
        match self.how {
            How::Ranged { coder, nulls } => {
                for i in 0..n {
                    let code = be_u64(&keys[i * stride + at..][..W]);
                    let valid = !nulls || code != coder.null;
                    put(i, valid.then(|| coder.ordinal(code)));
                }
            }
            How::Plain { null, desc } => {
                let flip = if desc { u64::MAX } else { 0 };
                for i in 0..n {
                    let key = &keys[i * stride + at..][..W];
                    let Some((&byte, body)) = key.split_first() else {
                        put(i, None);
                        continue;
                    };
                    let ord = be_u64(body) ^ flip;
                    put(i, (byte != null).then_some(ord));
                }
            }
        }
    }

    /// Append the string a VARCHAR column's key bytes `key` hold to `out`:
    /// `Ok(false)`, appending nothing, for a NULL. The continuation marker
    /// is the string's length while the string fits the prefix, which it
    /// does in an exact column; a longer one is [`BAD_KEY_MARKER`].
    #[inline]
    pub fn string_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<bool, &'static str> {
        let Some(stored) = self.stored_string(key)? else {
            return Ok(false);
        };
        if self.is_desc() {
            out.extend(stored.iter().map(|b| !b));
        } else {
            out.extend_from_slice(stored);
        }
        Ok(true)
    }

    /// The string a VARCHAR column's key bytes `key` hold, as the key
    /// stores it — each byte inverted where the column sorts descending
    /// ([`KeyDecoder::is_desc`]) — or `None` for a NULL; errors as
    /// [`KeyDecoder::string_into`]. Its length is the string's.
    #[inline]
    pub fn stored_string<'k>(&self, key: &'k [u8]) -> Result<Option<&'k [u8]>, &'static str> {
        let How::Plain { null, desc } = self.how else {
            return Err(BAD_KEY_MARKER);
        };
        let Some((&byte, body)) = key.get(..self.width).and_then(<[u8]>::split_first) else {
            return Err(BAD_KEY_MARKER);
        };
        if byte == null {
            return Ok(None);
        }
        let Some((&marker, prefix)) = body.split_last() else {
            return Err(BAD_KEY_MARKER);
        };
        let flip = if desc { u8::MAX } else { 0 };
        let len = usize::from(marker ^ flip);
        prefix.get(..len).ok_or(BAD_KEY_MARKER).map(Some)
    }

    /// Whether the column sorts descending, so the key stores each byte of
    /// a string inverted.
    #[inline]
    pub fn is_desc(&self) -> bool {
        matches!(self.how, How::Plain { desc: true, .. })
    }
}

/// The big-endian value of up to 8 bytes (the last 8 of a longer slice,
/// which no exact column has).
#[inline(always)]
fn be_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = bytes.len().min(8);
    if let (Some(to), Some(from)) = (word.get_mut(8 - n..), bytes.get(bytes.len() - n..)) {
        to.copy_from_slice(from);
    }
    u64::from_be_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Ordinal;
    use crate::layout::KeyRange;
    use crate::vector_encode::encode_value_into;
    use rowsort_vector::{SortSpec, Value};
    use LogicalType as T;

    const SPECS: [SortSpec; 4] = [
        SortSpec::ASC,
        SortSpec::DESC,
        SortSpec {
            order: SortOrder::Ascending,
            nulls: NullOrder::NullsLast,
        },
        SortSpec {
            order: SortOrder::Descending,
            nulls: NullOrder::NullsFirst,
        },
    ];

    /// Encode `value` under `col` and decode it back.
    fn roundtrip(col: &KeyColumn, value: &Value) -> Value {
        let mut key = vec![0u8; col.encoded_width()];
        encode_value_into(value, col, &mut key);
        let decoder = KeyDecoder::new(col);
        if col.ty == T::Varchar && col.range.is_none() {
            let mut out = Vec::new();
            return match decoder.string_into(&key, &mut out).unwrap() {
                false => Value::Null,
                true => Value::Varchar(String::from_utf8(out).unwrap()),
            };
        }
        let mut got = None;
        decoder.ordinals(&key, (key.len(), 0), 1, |_, ord| got = Some(ord));
        let Some(Some(ord)) = got else {
            return Value::Null;
        };
        match col.ty {
            T::Boolean => Value::Boolean(bool::from_ordinal(ord)),
            T::Int8 => Value::Int8(i8::from_ordinal(ord)),
            T::Int16 => Value::Int16(i16::from_ordinal(ord)),
            T::Int32 => Value::Int32(i32::from_ordinal(ord)),
            T::Int64 => Value::Int64(i64::from_ordinal(ord)),
            T::UInt8 => Value::UInt8(u8::from_ordinal(ord)),
            T::UInt16 => Value::UInt16(u16::from_ordinal(ord)),
            T::UInt32 => Value::UInt32(u32::from_ordinal(ord)),
            T::UInt64 => Value::UInt64(u64::from_ordinal(ord)),
            T::Float32 => Value::Float32(f32::from_ordinal(ord)),
            T::Float64 => Value::Float64(f64::from_ordinal(ord)),
            T::Date => Value::Date(i32::from_ordinal(ord)),
            T::Timestamp => Value::Timestamp(i64::from_ordinal(ord)),
            T::Varchar => Value::UInt64(ord),
        }
    }

    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float32(x), Value::Float32(y)) => x.to_bits() == y.to_bits(),
            (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    #[test]
    fn plain_columns_decode_to_what_they_encoded() {
        let values = [
            Value::Null,
            Value::Boolean(true),
            Value::Boolean(false),
            Value::Int8(i8::MIN),
            Value::Int8(-1),
            Value::Int16(12_345),
            Value::Int32(i32::MIN),
            Value::Int32(-7),
            Value::Int64(i64::MAX),
            Value::UInt8(255),
            Value::UInt16(0),
            Value::UInt32(u32::MAX),
            Value::UInt64(1 << 63),
            Value::Float32(-0.0),
            Value::Float32(f32::NAN),
            Value::Float32(-1.5e-40),
            Value::Float64(f64::NEG_INFINITY),
            Value::Float64(2.5),
            Value::Date(-3),
            Value::Timestamp(86_400),
        ];
        for spec in SPECS {
            for value in &values[1..] {
                let ty = value.logical_type().unwrap();
                let col = KeyColumn::fixed(ty, spec);
                assert!(col.is_exact());
                let back = roundtrip(&col, value);
                assert!(same(&back, value), "{value:?} {spec:?}: {back:?}");
                assert_eq!(roundtrip(&col, &Value::Null), Value::Null, "{ty} {spec:?}");
            }
        }
    }

    #[test]
    fn range_codes_decode_with_their_base_added_back() {
        for spec in SPECS {
            for nulls in [false, true] {
                let range = KeyRange {
                    lo: (-5i32).ordinal(),
                    hi: 300i32.ordinal(),
                    nulls,
                };
                let col = KeyColumn::ranged(T::Int32, spec, range);
                assert!(col.range.is_some() && col.is_exact());
                for v in [-5, -1, 0, 299, 300] {
                    assert_eq!(roundtrip(&col, &Value::Int32(v)), Value::Int32(v));
                }
                if nulls {
                    assert_eq!(roundtrip(&col, &Value::Null), Value::Null, "{spec:?}");
                }
            }
            // One value and no NULL: a column of no bytes decodes to it.
            let one = KeyRange {
                lo: 9u64,
                hi: 9,
                nulls: false,
            };
            let col = KeyColumn::ranged(T::UInt64, spec, one);
            assert_eq!(col.encoded_width(), 0);
            assert_eq!(roundtrip(&col, &Value::UInt64(9)), Value::UInt64(9));
            // Only NULLs: so does a column of NULLs.
            let none = KeyRange {
                nulls: true,
                ..KeyRange::EMPTY
            };
            let col = KeyColumn::ranged(T::Int64, spec, none);
            assert_eq!(roundtrip(&col, &Value::Null), Value::Null);
        }
    }

    #[test]
    fn exact_varchar_prefixes_decode_with_their_length() {
        for spec in SPECS {
            let col = KeyColumn::varchar_with_prefix(spec, 5, 12);
            assert!(col.is_exact());
            for s in ["", "a", "a\0", "ab\0\0c", "zz"] {
                let value = Value::from(s);
                assert_eq!(roundtrip(&col, &value), value, "{s:?} {spec:?}");
            }
            assert_eq!(roundtrip(&col, &Value::Null), Value::Null);
            // A truncated prefix is no exact column.
            assert!(!KeyColumn::varchar_with_prefix(spec, 13, 12).is_exact());
        }
        // A marker past the prefix is no string of an exact column.
        let col = KeyColumn::varchar_with_prefix(SortSpec::ASC, 3, 3);
        let mut key = [0u8; 5];
        encode_value_into(&Value::from("abc"), &col, &mut key);
        key[4] = 4;
        let decoder = KeyDecoder::new(&col);
        assert_eq!(
            decoder.string_into(&key, &mut Vec::new()),
            Err(BAD_KEY_MARKER)
        );
    }

    #[test]
    fn ranks_decode_to_the_rank() {
        let plain = KeyColumn::varchar(SortSpec::DESC, 30);
        for nulls in [false, true] {
            let col = KeyColumn::ranked(plain, 300, nulls);
            assert!(col.is_exact() && !plain.is_exact());
            let mut key = vec![0u8; col.encoded_width()];
            let coder = col.coder().unwrap();
            for rank in [0u64, 1, 299] {
                let w = key.len();
                key.copy_from_slice(&coder.code(rank).to_be_bytes()[8 - w..]);
                let mut got = None;
                KeyDecoder::new(&col).ordinals(&key, (key.len(), 0), 1, |_, o| got = Some(o));
                assert_eq!(got, Some(Some(rank)));
            }
        }
    }
}
