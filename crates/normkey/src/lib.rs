//! Normalized keys: order-preserving byte-string encoding of sort keys.
//!
//! Key normalization (Blasgen, Casey & Eswaran 1977; used since System R)
//! turns a sequence of typed key values into a single fixed-width byte
//! string whose *byte-wise* (`memcmp`) ascending order equals the
//! ORDER BY order — ASC/DESC, NULLS FIRST/LAST, and type semantics
//! included. This buys an interpreted engine two things (paper §VI):
//!
//! 1. a comparator with **zero** interpretation or function-call overhead
//!    (one dynamic `memcmp`), and
//! 2. the option to skip comparisons entirely and sort the keys with a
//!    byte-by-byte **radix sort**.
//!
//! Each key column contributes `1 + body` bytes: a NULL byte encoding
//! NULLS FIRST/LAST, then an order-preserving body (big-endian with sign/
//! float transforms; inverted for DESC). VARCHAR columns contribute a fixed
//! prefix; ties on truncated prefixes are detected via
//! [`NormKeyLayout::tie_possible`] and resolved by the caller against the
//! full strings. An integer column whose values' range is known
//! ([`key_range`]) may instead be range-coded ([`KeyColumn::ranged`]): its
//! offset within the range, NULL folded in, in the fewest bytes that hold
//! it.

//! ```
//! use rowsort_normkey::{encode_value_into, KeyColumn};
//! use rowsort_vector::{SortSpec, Value};
//!
//! // The paper's Figure 7: c_birth_year ASC as an order-preserving key.
//! let col = KeyColumn::fixed(rowsort_vector::LogicalType::Int32, SortSpec::ASC);
//! let mut k1924 = vec![0u8; col.encoded_width()];
//! let mut k1990 = vec![0u8; col.encoded_width()];
//! encode_value_into(&Value::Int32(1924), &col, &mut k1924);
//! encode_value_into(&Value::Int32(1990), &col, &mut k1990);
//! assert!(k1924 < k1990, "memcmp order == value order");
//! ```

// A bare `as` can truncate or change sign without a word, and one such cast
// in an encoder breaks the byte-comparable order silently. Conversions here
// say what they do: `to_be_bytes`, `from`, `try_from`, `cast_unsigned`.
// Crate-level rather than a `[lints]` entry, so tests/prop_order.rs may
// build its inputs with `as`.
#![deny(clippy::as_conversions)]

pub mod encoding;
pub mod layout;
pub mod vector_encode;

pub use encoding::{
    encode_bool, encode_f32, encode_f64, encode_i16, encode_i32, encode_i64, encode_i8, encode_u16,
    encode_u32, encode_u64, encode_u8, invert_bytes, Ordinal, NULL_FIRST_NULL, NULL_FIRST_VALID,
    NULL_LAST_NULL, NULL_LAST_VALID,
};
pub use layout::{KeyColumn, KeyRange, NormKeyLayout, DEFAULT_MAX_PREFIX, MAX_PREFIX};
pub use vector_encode::{
    encode_column_into, encode_column_range_into, encode_value_into, key_range,
};
