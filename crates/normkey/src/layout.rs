//! Normalized-key shape computation.

use rowsort_vector::{LogicalType, SortSpec};

/// Default maximum VARCHAR prefix length, matching DuckDB's cap of 12 bytes.
pub const DEFAULT_MAX_PREFIX: usize = 12;

/// Longest VARCHAR prefix a key column can carry. The continuation marker
/// is one byte holding `min(len, prefix_len + 1)`: at 255 and beyond,
/// "fits at 255 bytes" and "truncated" would encode the same marker while
/// `truncatable` says the column is exact.
pub const MAX_PREFIX: usize = 254;

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
        }
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
        }
    }

    /// Bytes this column contributes to the key. Fixed-width types:
    /// NULL byte + body. VARCHAR: NULL byte + prefix + the DuckDB-style
    /// continuation marker byte (`min(len, prefix_len + 1)`), which
    /// makes "shorter string" vs "padding zeros" vs "truncated" compare
    /// correctly byte-wise (see `encoding::continuation_marker`).
    pub fn encoded_width(&self) -> usize {
        if self.ty == LogicalType::Varchar {
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
        NormKeyLayout {
            columns,
            offsets,
            width,
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

    #[test]
    #[should_panic(expected = "variable-length")]
    fn fixed_constructor_rejects_varchar() {
        let _ = KeyColumn::fixed(T::Varchar, SortSpec::ASC);
    }
}
