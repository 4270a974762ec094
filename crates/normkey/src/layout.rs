//! Normalized-key shape computation.

use rowsort_vector::{LogicalType, NullOrder, SortOrder, SortSpec};

/// Default maximum VARCHAR prefix length, matching DuckDB's cap of 12 bytes.
pub const DEFAULT_MAX_PREFIX: usize = 12;

/// Longest VARCHAR prefix a key column can carry. The continuation marker
/// is one byte holding `min(len, prefix_len + 1)`: at 255 and beyond,
/// "fits at 255 bytes" and "truncated" would encode the same marker while
/// `truncatable` says the column is exact.
pub const MAX_PREFIX: usize = 254;

/// What a fixed-width integer key column holds, from statistics over every
/// row it will encode: a span of [`Ordinal`]s that covers its valid rows —
/// their lowest and highest, as [`key_range`](crate::key_range) finds them
/// — and whether any row is NULL. `lo > hi` when no row is valid
/// ([`KeyRange::EMPTY`] plus NULLs).
///
/// [`Ordinal`]: crate::encoding::Ordinal
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Lowest ordinal the range covers.
    pub lo: u64,
    /// Highest ordinal the range covers.
    pub hi: u64,
    /// Whether some row is NULL.
    pub nulls: bool,
}

impl KeyRange {
    /// The range of a column with no rows.
    pub const EMPTY: KeyRange = KeyRange {
        lo: u64::MAX,
        hi: 0,
        nulls: false,
    };

    /// Codes the column needs: one per ordinal in `lo..=hi`, then one for
    /// NULL if it has NULLs. `None` when that count overflows a `u64`
    /// (a column spanning every `u64`, with or without NULLs).
    fn codes(self) -> Option<u64> {
        let valid = if self.lo <= self.hi {
            (self.hi - self.lo).checked_add(1)?
        } else {
            0
        };
        valid.checked_add(u64::from(self.nulls))
    }

    /// The fewest big-endian bytes that hold every code of the range —
    /// none for a range of one code; `None` when its codes overflow.
    pub fn code_width(self) -> Option<usize> {
        let top = self.codes()?.saturating_sub(1);
        Some(top.to_be_bytes().iter().skip_while(|&&b| b == 0).count())
    }
}

/// One key column's contribution to the normalized key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyColumn {
    /// Value type.
    pub ty: LogicalType,
    /// ASC/DESC and NULLS FIRST/LAST.
    pub spec: SortSpec,
    /// Encoded prefix length for variable-length types (ignored for
    /// fixed-width types). Chosen at plan time from string statistics:
    /// capped at [`DEFAULT_MAX_PREFIX`] by [`KeyColumn::varchar`], at the
    /// caller's choice (within [`MAX_PREFIX`]) by
    /// [`KeyColumn::varchar_with_prefix`].
    pub prefix_len: usize,
    /// Whether strings longer than `prefix_len` can occur (from the
    /// statistics handed to [`KeyColumn::varchar`]). A non-truncatable
    /// VARCHAR encodes *exactly* — its prefix plus the continuation
    /// marker byte determine the full value — so it is radix-sortable
    /// and never needs tie resolution.
    pub truncatable: bool,
    /// `Some` for a range-coded integer column ([`KeyColumn::ranged`]) or
    /// a rank-coded VARCHAR column ([`KeyColumn::ranked`]): each row is
    /// its code within the range, big-endian in the fewest bytes that hold
    /// every code, with no NULL byte.
    pub range: Option<KeyRange>,
}

impl KeyColumn {
    /// A fixed-width key column.
    pub fn fixed(ty: LogicalType, spec: SortSpec) -> KeyColumn {
        assert!(
            ty.is_fixed_width(),
            "KeyColumn::fixed on variable-length type {ty}"
        );
        KeyColumn {
            ty,
            spec,
            prefix_len: 0,
            truncatable: false,
            range: None,
        }
    }

    /// A fixed-width integer key column (INT8–64, UINT8–64, DATE,
    /// TIMESTAMP) coded within `range`, which must cover every row the
    /// column will encode. A valid row's code is its ordinal's distance
    /// from `lo` (ASC) or from `hi` (DESC), plus one under NULLS FIRST
    /// when the column has NULLs; a NULL's code is 0 under NULLS FIRST and
    /// one past the last valid code under NULLS LAST. So the codes order
    /// like the values, and NULLs sit where the NULL byte would put them.
    ///
    /// Falls back to [`KeyColumn::fixed`] for any other type, for a range
    /// whose codes overflow a `u64`, and when the coded column would not
    /// be narrower than the plain NULL byte plus body.
    pub fn ranged(ty: LogicalType, spec: SortSpec, range: KeyRange) -> KeyColumn {
        let plain = KeyColumn::fixed(ty, spec);
        let ranged = KeyColumn {
            range: Some(range),
            ..plain
        };
        let narrower = range
            .code_width()
            .is_some_and(|w| w < plain.encoded_width());
        if KeyColumn::rangeable(ty) && narrower {
            ranged
        } else {
            plain
        }
    }

    /// A VARCHAR key column coded by rank: its valid rows hold `values`
    /// distinct strings, and each row is coded as [`KeyColumn::ranged`]
    /// codes an integer column of the strings' ranks `0..values` in
    /// bytewise order — NULL in band, ASC/DESC and NULLS FIRST/LAST from
    /// `plain.spec`. Exact: equal codes are equal strings, so the column
    /// never adds tie resolution. `plain` is the column as its prefix codes
    /// it ([`KeyColumn::varchar_with_prefix`]); its width is the ranked
    /// column's [`KeyColumn::plain_width`], and the column stays `plain`
    /// when the ranks would not be narrower.
    pub fn ranked(plain: KeyColumn, values: u64, nulls: bool) -> KeyColumn {
        let range = match values.checked_sub(1) {
            Some(hi) => KeyRange { lo: 0, hi, nulls },
            None => KeyRange {
                nulls,
                ..KeyRange::EMPTY
            },
        };
        let narrower = range
            .code_width()
            .is_some_and(|w| w < plain.encoded_width());
        if plain.ty == LogicalType::Varchar && narrower {
            KeyColumn {
                truncatable: false,
                range: Some(range),
                ..plain
            }
        } else {
            plain
        }
    }

    /// Whether a column of `ty` can be range-coded: the integers, DATE and
    /// TIMESTAMP.
    pub fn rangeable(ty: LogicalType) -> bool {
        ty.is_integer() || matches!(ty, LogicalType::Date | LogicalType::Timestamp)
    }

    /// How a range-coded column maps an ordinal onto its code, and its
    /// NULL code (see [`KeyColumn::ranged`]); `None` for a plain column.
    pub(crate) fn coder(&self) -> Option<RangeCoder> {
        let range = self.range?;
        let valid_codes = range.codes()? - u64::from(range.nulls);
        let nulls_first = self.spec.nulls == NullOrder::NullsFirst;
        let desc = self.spec.order == SortOrder::Descending;
        Some(RangeCoder {
            flip: if desc { u64::MAX } else { 0 },
            base: if desc { !range.hi } else { range.lo },
            bias: u64::from(range.nulls && nulls_first),
            null: if nulls_first { 0 } else { valid_codes },
        })
    }

    /// A VARCHAR key column. `max_len_stat` is the maximum string byte
    /// length known from statistics (it must be a true upper bound over
    /// the rows this column will encode); the encoded prefix is
    /// `min(max_len_stat, 12)`, as in the paper's DuckDB implementation.
    pub fn varchar(spec: SortSpec, max_len_stat: usize) -> KeyColumn {
        KeyColumn::varchar_with_prefix(spec, max_len_stat, DEFAULT_MAX_PREFIX)
    }

    /// [`KeyColumn::varchar`] with the prefix cap chosen by the caller:
    /// the encoded prefix is `min(max_len_stat, prefix_cap)`, and
    /// `prefix_cap` itself is clamped to `1 ..= MAX_PREFIX`, the range
    /// the continuation marker byte can describe.
    pub fn varchar_with_prefix(
        spec: SortSpec,
        max_len_stat: usize,
        prefix_cap: usize,
    ) -> KeyColumn {
        let prefix_len = max_len_stat.clamp(1, prefix_cap.clamp(1, MAX_PREFIX));
        KeyColumn {
            ty: LogicalType::Varchar,
            spec,
            prefix_len,
            truncatable: max_len_stat > prefix_len,
            range: None,
        }
    }

    /// Bytes this column contributes to the key. Fixed-width types:
    /// NULL byte + body. VARCHAR: NULL byte + prefix + the DuckDB-style
    /// continuation marker byte (`min(len, prefix_len + 1)`), which
    /// makes "shorter string" vs "padding zeros" vs "truncated" compare
    /// correctly byte-wise (see `encoding::continuation_marker`).
    /// Range- or rank-coded: the fewest bytes that hold the highest code —
    /// none for a column of one code.
    pub fn encoded_width(&self) -> usize {
        if let Some(range) = self.range {
            range.code_width().unwrap_or(0)
        } else if self.ty == LogicalType::Varchar {
            1 + self.prefix_len + 1
        } else {
            1 + self.ty.norm_key_body_width(self.prefix_len)
        }
    }

    /// Whether two rows with equal encoded bytes may still differ on this
    /// column: only a *truncated* VARCHAR prefix can hide a difference —
    /// with the continuation marker, a VARCHAR whose values all fit the
    /// prefix encodes exactly.
    pub fn tie_possible(&self) -> bool {
        self.ty == LogicalType::Varchar && self.truncatable
    }

    /// Whether the column's key bytes give back each row's value, so a
    /// sort need not carry the column in its payload row: true for a range-
    /// or rank-coded column and a plain fixed-width one, each a one-to-one
    /// code; and for a VARCHAR prefix no string outgrows, whose
    /// continuation marker is then the string's length (`"a"` against
    /// `"a\0"`) — a prefix of at most [`MAX_PREFIX`] keeps the marker apart
    /// from "truncated". A truncated prefix is lossy.
    pub fn is_exact(&self) -> bool {
        self.range.is_some()
            || self.ty != LogicalType::Varchar
            || (!self.truncatable && self.prefix_len <= MAX_PREFIX)
    }

    /// [`KeyColumn::encoded_width`] of the column without its range: the
    /// NULL byte plus the full body, or a rank-coded VARCHAR's prefix.
    pub fn plain_width(&self) -> usize {
        KeyColumn {
            range: None,
            ..*self
        }
        .encoded_width()
    }
}

/// How a range-coded column turns a row into its code: a valid row's
/// ordinal `ord` becomes `(ord ^ flip) − base + bias` — `ord − lo` ASC,
/// `hi − ord` DESC (`!ord − !hi`), then the NULLS FIRST shift — and a NULL
/// becomes `null`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RangeCoder {
    flip: u64,
    base: u64,
    bias: u64,
    /// The code of a NULL row.
    pub(crate) null: u64,
}

impl RangeCoder {
    /// The code of a valid row with ordinal `ord`. Wrapping, so an ordinal
    /// outside the planned range yields a wrong code, never a panic.
    #[inline]
    pub(crate) fn code(self, ord: u64) -> u64 {
        (ord ^ self.flip)
            .wrapping_sub(self.base)
            .wrapping_add(self.bias)
    }

    /// The ordinal whose code is `code`: [`RangeCoder::code`] undone.
    /// Wrapping, so a code no row has yields some ordinal, never a panic.
    #[inline]
    pub(crate) fn ordinal(self, code: u64) -> u64 {
        code.wrapping_sub(self.bias).wrapping_add(self.base) ^ self.flip
    }
}

/// The shape of a full normalized key: the concatenation of all key
/// columns' encodings.
///
/// Keys are fixed-width so they can be swapped in place and radix-sorted;
/// the caller typically appends a row-id suffix after `width()` bytes to
/// link keys back to payload rows (and to make sorting stable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormKeyLayout {
    columns: Vec<KeyColumn>,
    offsets: Vec<usize>,
    width: usize,
    plain_width: usize,
    tie_possible: bool,
}

impl NormKeyLayout {
    /// Compute the layout from per-column specs.
    ///
    /// The encoded key stops at the first truncatable column: bytes of
    /// any later column could decide a comparison *before* the earlier
    /// column's truncation tie is detected (the ROADMAP `ORDER BY s, n`
    /// mis-sort), so those columns are excluded from the key entirely —
    /// per-column tie detection by construction. Byte-equal keys are
    /// then resolved by the caller's full-tuple comparator, which orders
    /// the dropped columns correctly.
    pub fn new(mut columns: Vec<KeyColumn>) -> NormKeyLayout {
        if let Some(first_truncatable) = columns.iter().position(KeyColumn::tie_possible) {
            columns.truncate(first_truncatable + 1);
        }
        let mut offsets = Vec::with_capacity(columns.len());
        let mut width = 0usize;
        let mut tie_possible = false;
        for c in &columns {
            offsets.push(width);
            width += c.encoded_width();
            tie_possible |= c.tie_possible();
        }
        let plain_width = columns.iter().map(KeyColumn::plain_width).sum();
        NormKeyLayout {
            columns,
            offsets,
            width,
            plain_width,
            tie_possible,
        }
    }

    /// The key columns.
    pub fn columns(&self) -> &[KeyColumn] {
        &self.columns
    }

    /// Number of key columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Byte offset of column `i`'s encoding within the key.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Total encoded key width in bytes (excluding any row-id suffix).
    pub fn width(&self) -> usize {
        self.width
    }

    /// What [`NormKeyLayout::width`] would be with every range-coded
    /// column plain: equal when no range narrowed a column.
    pub fn plain_width(&self) -> usize {
        self.plain_width
    }

    /// `true` iff equal key bytes do not prove equal tuples (some VARCHAR
    /// prefix was truncated), so the caller must break ties against the
    /// full values.
    pub fn tie_possible(&self) -> bool {
        self.tie_possible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Ordinal;
    use rowsort_vector::LogicalType as T;

    #[test]
    fn fixed_widths_accumulate() {
        // 4 u32 keys: 4 * (1 + 4) = 20 bytes.
        let cols = vec![KeyColumn::fixed(T::UInt32, SortSpec::ASC); 4];
        let l = NormKeyLayout::new(cols);
        assert_eq!(l.width(), 20);
        assert_eq!(l.offset(0), 0);
        assert_eq!(l.offset(1), 5);
        assert_eq!(l.offset(3), 15);
        assert!(!l.tie_possible());
    }

    #[test]
    fn varchar_prefix_from_statistics() {
        let c = KeyColumn::varchar(SortSpec::ASC, 7);
        assert_eq!(c.prefix_len, 7);
        let capped = KeyColumn::varchar(SortSpec::ASC, 100);
        assert_eq!(capped.prefix_len, DEFAULT_MAX_PREFIX);
        let min = KeyColumn::varchar(SortSpec::ASC, 0);
        assert_eq!(min.prefix_len, 1);
    }

    #[test]
    fn prefix_cap_stays_inside_the_marker_byte() {
        // 20 of 44 bytes: truncatable; 44 of 44: exact.
        let c = KeyColumn::varchar_with_prefix(SortSpec::ASC, 44, 20);
        assert_eq!((c.prefix_len, c.truncatable), (20, true));
        let c = KeyColumn::varchar_with_prefix(SortSpec::ASC, 44, 44);
        assert_eq!((c.prefix_len, c.truncatable), (44, false));
        // 254 is the last prefix whose "truncated" marker (255) differs
        // from every "fits" marker; a cap beyond it is clamped, and the
        // column stays truncatable instead of claiming to be exact.
        let c = KeyColumn::varchar_with_prefix(SortSpec::ASC, 254, 254);
        assert_eq!((c.prefix_len, c.truncatable), (254, false));
        let c = KeyColumn::varchar_with_prefix(SortSpec::ASC, 255, 255);
        assert_eq!((c.prefix_len, c.truncatable), (254, true));
        let c = KeyColumn::varchar_with_prefix(SortSpec::ASC, 1000, usize::MAX);
        assert_eq!((c.prefix_len, c.truncatable), (254, true));
        assert_eq!(c.encoded_width(), 1 + 254 + 1);
        let c = KeyColumn::varchar_with_prefix(SortSpec::ASC, 5, 0);
        assert_eq!((c.prefix_len, c.truncatable), (1, true));
    }

    #[test]
    fn truncatable_varchar_makes_ties_possible() {
        let l = NormKeyLayout::new(vec![
            KeyColumn::fixed(T::Int32, SortSpec::ASC),
            KeyColumn::varchar(SortSpec::DESC, 44),
        ]);
        assert!(l.tie_possible());
        // int (null + 4) then varchar (null + 12-byte prefix + marker).
        assert_eq!(l.width(), (1 + 4) + (1 + 12 + 1));
    }

    #[test]
    fn fitting_varchar_encodes_exactly() {
        // Statistics say every string fits the prefix: the marker byte
        // makes the encoding exact, so no ties and no column dropping.
        let l = NormKeyLayout::new(vec![
            KeyColumn::varchar(SortSpec::ASC, 12),
            KeyColumn::fixed(T::Int32, SortSpec::ASC),
        ]);
        assert!(!l.tie_possible());
        assert_eq!(l.column_count(), 2);
        assert_eq!(l.width(), (1 + 12 + 1) + (1 + 4));
    }

    #[test]
    fn key_stops_at_first_truncatable_column() {
        // ORDER BY s, n with a truncatable s: n's bytes must not be able
        // to decide a comparison before s's truncation tie is detected,
        // so the key ends at s and n is left to the tie comparator.
        let l = NormKeyLayout::new(vec![
            KeyColumn::varchar(SortSpec::ASC, 44),
            KeyColumn::fixed(T::Int32, SortSpec::ASC),
        ]);
        assert!(l.tie_possible());
        assert_eq!(l.column_count(), 1);
        assert_eq!(l.width(), 1 + 12 + 1);
    }

    #[test]
    fn mixed_type_offsets() {
        let l = NormKeyLayout::new(vec![
            KeyColumn::fixed(T::Int64, SortSpec::ASC),
            KeyColumn::fixed(T::UInt8, SortSpec::DESC),
        ]);
        assert_eq!(l.offset(0), 0);
        assert_eq!(l.offset(1), 9);
        assert_eq!(l.width(), 11);
        assert_eq!(l.column_count(), 2);
    }

    fn range(lo: u64, hi: u64, nulls: bool) -> KeyRange {
        KeyRange { lo, hi, nulls }
    }

    #[test]
    fn ranged_width_holds_every_code() {
        let width = |ty, r| KeyColumn::ranged(ty, SortSpec::ASC, r).encoded_width();
        // `catalog_spill`'s four nullable INT keys: 10, 20, 700 and 100
        // values plus NULL — 1 + 1 + 2 + 1 bytes where the plain key has 20.
        let base = 1i32.ordinal();
        let key: usize = [10, 20, 700, 100]
            .into_iter()
            .map(|n: u64| width(T::Int32, range(base, base + n - 1, true)))
            .sum();
        assert_eq!(key, 5);
        // One value and no NULL: nothing to encode.
        assert_eq!(width(T::Int64, range(7, 7, false)), 0);
        // An all-NULL column is one code too; NULLs and one value, two.
        assert_eq!(
            width(
                T::Int64,
                KeyRange {
                    nulls: true,
                    ..KeyRange::EMPTY
                }
            ),
            0
        );
        assert_eq!(width(T::Int64, range(7, 7, true)), 1);
        // 256 codes fit a byte, 257 take two; 65 536 two, 65 537 three.
        assert_eq!(width(T::UInt32, range(0, 255, false)), 1);
        assert_eq!(width(T::UInt32, range(0, 255, true)), 2);
        assert_eq!(width(T::UInt32, range(0, 256, false)), 2);
        assert_eq!(width(T::Int64, range(10, 65_545, false)), 2);
        assert_eq!(width(T::Int64, range(10, 65_546, false)), 3);
        // Every u32 without NULLs drops the NULL byte; with them it is no
        // narrower than plain, which it stays.
        let all = range(0, u64::from(u32::MAX), false);
        assert_eq!(
            KeyColumn::ranged(T::UInt32, SortSpec::ASC, all).range,
            Some(all)
        );
        assert_eq!(width(T::UInt32, all), 4);
        let with_nulls = KeyRange { nulls: true, ..all };
        assert_eq!(
            KeyColumn::ranged(T::UInt32, SortSpec::ASC, with_nulls).range,
            None
        );
        assert_eq!(width(T::UInt32, with_nulls), 5);
    }

    #[test]
    fn ranged_falls_back_to_plain() {
        let plain = |ty| KeyColumn::fixed(ty, SortSpec::DESC);
        let ranged = |ty, r| KeyColumn::ranged(ty, SortSpec::DESC, r);
        // Every i64: `span + 1` overflows, with or without NULLs.
        let every = range(i64::MIN.ordinal(), i64::MAX.ordinal(), false);
        assert_eq!(ranged(T::Int64, every), plain(T::Int64));
        let every = KeyRange {
            nulls: true,
            ..every
        };
        assert_eq!(ranged(T::Timestamp, every), plain(T::Timestamp));
        // Not narrower: 256 codes in a UINT8 plus NULL need two bytes.
        assert_eq!(ranged(T::UInt8, range(0, 255, true)), plain(T::UInt8));
        // Types range coding does not apply to.
        for ty in [T::Boolean, T::Float32, T::Float64] {
            assert_eq!(ranged(ty, range(0, 1, false)), plain(ty));
        }
        // DATE and TIMESTAMP are integers underneath.
        assert!(ranged(T::Date, range(0, 9, false)).range.is_some());
        assert!(ranged(T::Timestamp, range(0, 9, true)).range.is_some());
    }

    #[test]
    fn ranked_width_counts_ranks_and_null() {
        // 20-byte strings under the 12-byte rule: truncated, 14 bytes.
        let plain = KeyColumn::varchar(SortSpec::DESC, 20);
        let width = |values, nulls| KeyColumn::ranked(plain, values, nulls).encoded_width();
        assert_eq!((width(1, false), width(0, true)), (0, 0));
        assert_eq!((width(1, true), width(256, false)), (1, 1));
        assert_eq!((width(256, true), width(65_536, false)), (2, 2));
        assert_eq!(width(65_536, true), 3);
        // Exact whatever the prefix would have been, so the key goes on
        // past it; planned over the prefix's width.
        let ranked = KeyColumn::ranked(plain, 200, true);
        assert_eq!((ranked.tie_possible(), ranked.plain_width()), (false, 14));
        let l = NormKeyLayout::new(vec![ranked, KeyColumn::fixed(T::Int32, SortSpec::ASC)]);
        assert_eq!(
            (l.column_count(), l.width(), l.plain_width()),
            (2, 1 + 5, 14 + 5)
        );
        assert!(!l.tie_possible());
        // Not narrower than a one-byte prefix: the prefix stays; nor is
        // any other type ranked.
        let short = KeyColumn::varchar(SortSpec::ASC, 1);
        assert_eq!(KeyColumn::ranked(short, 65_536, true), short);
        assert!(KeyColumn::ranked(short, 256, true).range.is_some());
        let int = KeyColumn::fixed(T::Int32, SortSpec::ASC);
        assert_eq!(KeyColumn::ranked(int, 3, false), int);
    }

    #[test]
    fn plain_width_undoes_the_range() {
        let l = NormKeyLayout::new(vec![
            KeyColumn::ranged(T::Int32, SortSpec::ASC, range(0, 9, true)),
            KeyColumn::fixed(T::UInt8, SortSpec::DESC),
            KeyColumn::varchar(SortSpec::ASC, 4),
        ]);
        assert_eq!(l.width(), 1 + 2 + (1 + 4 + 1));
        assert_eq!(l.plain_width(), 5 + 2 + (1 + 4 + 1));
        assert_eq!(l.offset(1), 1);
    }

    #[test]
    #[should_panic(expected = "variable-length")]
    fn fixed_constructor_rejects_varchar() {
        let _ = KeyColumn::fixed(T::Varchar, SortSpec::ASC);
    }
}
