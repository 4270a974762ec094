//! Primitive order-preserving encodings.
//!
//! Every function maps a value to big-endian bytes such that unsigned
//! byte-wise comparison of the outputs matches the natural ascending order
//! of the inputs. DESC order is obtained by inverting every body byte
//! afterwards ([`invert_bytes`]).

/// NULL byte for a NULL value under `NULLS FIRST` (sorts before any valid byte).
pub const NULL_FIRST_NULL: u8 = 0x00;
/// NULL byte for a valid value under `NULLS FIRST`.
pub const NULL_FIRST_VALID: u8 = 0x01;
/// NULL byte for a NULL value under `NULLS LAST` (sorts after any valid byte).
pub const NULL_LAST_NULL: u8 = 0x01;
/// NULL byte for a valid value under `NULLS LAST`.
pub const NULL_LAST_VALID: u8 = 0x00;

/// Encode a `bool` (false < true).
#[inline]
pub fn encode_bool(v: bool) -> [u8; 1] {
    [u8::from(v)]
}

/// Encode a `u8`.
#[inline]
pub fn encode_u8(v: u8) -> [u8; 1] {
    [v]
}

/// Encode a `u16` (big-endian).
#[inline]
pub fn encode_u16(v: u16) -> [u8; 2] {
    v.to_be_bytes()
}

/// Encode a `u32` (big-endian).
#[inline]
pub fn encode_u32(v: u32) -> [u8; 4] {
    v.to_be_bytes()
}

/// Encode a `u64` (big-endian).
#[inline]
pub fn encode_u64(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Encode an `i8`: flip the sign bit so negatives sort before positives.
#[inline]
pub fn encode_i8(v: i8) -> [u8; 1] {
    [v.cast_unsigned() ^ 0x80]
}

/// Encode an `i16`: flip the sign bit, big-endian.
#[inline]
pub fn encode_i16(v: i16) -> [u8; 2] {
    (v.cast_unsigned() ^ 0x8000).to_be_bytes()
}

/// Encode an `i32`: flip the sign bit, big-endian.
///
/// This is exactly the paper's Figure 7 treatment of `c_birth_year`: byte
/// order reversed to big-endian, sign bit flipped so negative years sort
/// first.
#[inline]
pub fn encode_i32(v: i32) -> [u8; 4] {
    (v.cast_unsigned() ^ 0x8000_0000).to_be_bytes()
}

/// Encode an `i64`: flip the sign bit, big-endian.
#[inline]
pub fn encode_i64(v: i64) -> [u8; 8] {
    (v.cast_unsigned() ^ 0x8000_0000_0000_0000).to_be_bytes()
}

/// Encode an `f32` into the IEEE-754 total order (matching `f32::total_cmp`):
/// negative values have all bits inverted, positive values only the sign bit.
#[inline]
pub fn encode_f32(v: f32) -> [u8; 4] {
    let bits = v.to_bits();
    let ordered = if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    };
    ordered.to_be_bytes()
}

/// Encode an `f64` into the IEEE-754 total order (matching `f64::total_cmp`).
#[inline]
pub fn encode_f64(v: f64) -> [u8; 8] {
    let bits = v.to_bits();
    let ordered = if bits & 0x8000_0000_0000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000_0000_0000
    };
    ordered.to_be_bytes()
}

/// A fixed-width integer's order-preserving `u64` ordinal: the big-endian
/// value of its plain key body (sign bit flipped for signed types), so
/// `a < b` exactly when `a.ordinal() < b.ordinal()`. A range-coded key
/// column encodes each value's distance from the column's lowest or
/// highest ordinal ([`KeyColumn::ranged`](crate::KeyColumn::ranged)).
pub trait Ordinal: Copy + Ord {
    /// The type's least value.
    const LEAST: Self;
    /// The type's greatest value.
    const GREATEST: Self;
    /// The value's ordinal.
    fn ordinal(self) -> u64;
}

macro_rules! ordinal_unsigned {
    ($($t:ty),*) => {$(
        impl Ordinal for $t {
            const LEAST: $t = <$t>::MIN;
            const GREATEST: $t = <$t>::MAX;
            #[inline]
            fn ordinal(self) -> u64 {
                u64::from(self)
            }
        }
    )*};
}

macro_rules! ordinal_signed {
    ($($t:ty => $sign:expr),*) => {$(
        impl Ordinal for $t {
            const LEAST: $t = <$t>::MIN;
            const GREATEST: $t = <$t>::MAX;
            #[inline]
            fn ordinal(self) -> u64 {
                u64::from(self.cast_unsigned() ^ $sign)
            }
        }
    )*};
}

ordinal_unsigned!(u8, u16, u32, u64);
ordinal_signed!(i8 => 0x80, i16 => 0x8000, i32 => 0x8000_0000, i64 => 0x8000_0000_0000_0000);

/// Invert bytes in place — turns an ascending encoding into a descending one.
#[inline]
pub fn invert_bytes(bytes: &mut [u8]) {
    for b in bytes {
        *b = !*b;
    }
}

/// DuckDB-style truncation/continuation marker for a VARCHAR prefix:
/// `min(len, prefix_len + 1)`. Appended after the zero-padded prefix, it
/// disambiguates every case padding alone cannot:
///
/// * two strings whose padded prefixes tie but whose lengths differ
///   (embedded NUL bytes vs padding) order by length — the marker *is*
///   the length while the string fits;
/// * a string that fits (`marker <= prefix_len`) sorts before any
///   truncated string with the same prefix (`marker == prefix_len + 1`),
///   because the truncated one must be longer;
/// * two truncated strings keep equal markers — a genuine tie for the
///   full-value comparator.
///
/// Inverted along with the prefix body under DESC.
#[inline]
pub fn continuation_marker(len: usize, prefix_len: usize) -> u8 {
    u8::try_from(len.min(prefix_len + 1)).unwrap_or(u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn check_order<T: Copy, const N: usize>(
        values: &[T],
        encode: impl Fn(T) -> [u8; N],
        cmp: impl Fn(&T, &T) -> Ordering,
    ) {
        for &a in values {
            for &b in values {
                let (ea, eb) = (encode(a), encode(b));
                assert_eq!(
                    ea.cmp(&eb),
                    cmp(&a, &b),
                    "encoding must preserve order ({ea:?} vs {eb:?})"
                );
            }
        }
    }

    #[test]
    fn unsigned_orders() {
        check_order(&[0u8, 1, 127, 128, 255], encode_u8, u8::cmp);
        check_order(&[0u16, 1, 0xFF, 0x100, u16::MAX], encode_u16, u16::cmp);
        check_order(&[0u32, 1, 0xFFFF, 0x10000, u32::MAX], encode_u32, u32::cmp);
        check_order(&[0u64, 1, u64::MAX / 2, u64::MAX], encode_u64, u64::cmp);
    }

    #[test]
    fn signed_orders() {
        check_order(&[i8::MIN, -1, 0, 1, i8::MAX], encode_i8, i8::cmp);
        check_order(&[i16::MIN, -1, 0, 1, i16::MAX], encode_i16, i16::cmp);
        check_order(
            &[i32::MIN, -1990, -1, 0, 1, 1990, i32::MAX],
            encode_i32,
            i32::cmp,
        );
        check_order(&[i64::MIN, -1, 0, 1, i64::MAX], encode_i64, i64::cmp);
    }

    #[test]
    fn ordinals_order_like_the_plain_body() {
        fn check<T: Ordinal + std::fmt::Debug>(values: &[T]) {
            for &a in values {
                for &b in values {
                    assert_eq!(a.ordinal().cmp(&b.ordinal()), a.cmp(&b), "{a:?} vs {b:?}");
                }
            }
        }
        check(&[i8::MIN, -1, 0, 1, i8::MAX]);
        check(&[i16::MIN, -1, 0, 1, i16::MAX]);
        check(&[i32::MIN, -1, 0, 1, i32::MAX]);
        check(&[i64::MIN, -1, 0, 1, i64::MAX]);
        check(&[0u8, 1, u8::MAX]);
        check(&[0u64, 1, u64::MAX]);
        // The ordinal is the plain body read as a big-endian integer.
        assert_eq!(
            (-5i32).ordinal(),
            u64::from(u32::from_be_bytes(encode_i32(-5)))
        );
        assert_eq!(i64::MIN.ordinal(), u64::from_be_bytes(encode_i64(i64::MIN)));
    }

    #[test]
    fn float_total_order() {
        let f32s = [
            f32::NEG_INFINITY,
            -1.5f32,
            -0.0,
            0.0,
            1.5,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        check_order(&f32s, encode_f32, |a, b| a.total_cmp(b));
        let f64s = [
            f64::NEG_INFINITY,
            -1.5f64,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        check_order(&f64s, encode_f64, |a, b| a.total_cmp(b));
    }

    #[test]
    fn bool_order() {
        assert!(encode_bool(false) < encode_bool(true));
    }

    #[test]
    fn invert_reverses_order() {
        let mut a = encode_u32(5);
        let mut b = encode_u32(9);
        invert_bytes(&mut a);
        invert_bytes(&mut b);
        assert!(a > b, "inverted encodings sort descending");
    }

    #[test]
    fn null_byte_constants_order() {
        // Constant by construction; keep the documented relation checked.
        const { assert!(NULL_FIRST_NULL < NULL_FIRST_VALID) };
        const { assert!(NULL_LAST_NULL > NULL_LAST_VALID) };
    }

    #[test]
    fn continuation_marker_cases() {
        // Fits: marker is the length.
        assert_eq!(continuation_marker(0, 12), 0);
        assert_eq!(continuation_marker(7, 12), 7);
        assert_eq!(continuation_marker(12, 12), 12);
        // Truncated: one sentinel above any fitting length.
        assert_eq!(continuation_marker(13, 12), 13);
        assert_eq!(continuation_marker(44, 12), 13);
        // The widest prefix a key column may carry (`layout::MAX_PREFIX`)
        // still tells "fits" from "truncated".
        assert_eq!(continuation_marker(254, 254), 254);
        assert_eq!(continuation_marker(255, 254), 255);
        // Degenerate huge prefixes saturate instead of wrapping.
        assert_eq!(continuation_marker(1000, 500), u8::MAX);
    }

    #[test]
    fn figure7_birth_year_example() {
        // Paper Figure 7: 1990 and 1924 as INTEGER, ASC ⇒ 1924 encodes lower.
        assert!(encode_i32(1924) < encode_i32(1990));
        // DESC (after inversion) ⇒ 1990 first.
        let mut a = encode_i32(1924);
        let mut b = encode_i32(1990);
        invert_bytes(&mut a);
        invert_bytes(&mut b);
        assert!(b < a);
    }
}
