//! Fixed-width row shape computation.

use rowsort_vector::LogicalType;

/// How row slots and the overall row width are aligned.
///
/// The paper's DuckDB implementation pads rows to 8-byte multiples because
/// aligned `memcpy` is measurably faster; `Packed` exists for the alignment
/// ablation bench, and `Natural` is what a sort lays its rows out with
/// ([`RowLayout::fitted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowAlignment {
    /// Slots aligned to their natural alignment (max 8); row width padded to
    /// a multiple of 8. The paper-profile systems and the alignment
    /// ablation use it.
    Aligned8,
    /// Slots aligned to their natural alignment; row width padded to the
    /// widest slot's alignment, so every slot of every row in a block stays
    /// aligned and no row carries more padding than that.
    Natural,
    /// Slots packed back to back; no row padding.
    Packed,
}

/// Width of a VARCHAR slot: a `u32` heap offset plus a `u32` byte length.
pub const VARLEN_SLOT_WIDTH: usize = 8;

/// The shape of one fixed-width row.
///
/// A row is laid out as:
///
/// ```text
/// [ null flags: 1 byte per flagged column ][ value slots, in column order ][ pad ]
/// ```
///
/// Fixed-width values are stored inline, little-endian (native). VARCHAR
/// slots store `(heap_offset: u32, byte_len: u32)` pointing into the owning
/// [`crate::RowBlock`]'s string heap, so rows themselves stay fixed-width and
/// can be swapped in place during sorting.
///
/// A column without a NULL flag ([`RowLayout::fitted`]) holds no NULL: every
/// reader takes its slot as valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLayout {
    types: Vec<LogicalType>,
    /// Byte offset of each column's value slot within a row.
    offsets: Vec<usize>,
    /// Byte offset of each column's null flag (0 = valid, 1 = NULL), or
    /// `None` for a column that holds no NULL.
    null_offsets: Vec<Option<usize>>,
    width: usize,
    alignment: RowAlignment,
    has_varlen: bool,
}

/// A slot's width and natural alignment.
fn slot_shape(ty: LogicalType) -> (usize, usize) {
    match ty.fixed_width() {
        Some(w) => (w, w.clamp(1, 8)),
        None => (VARLEN_SLOT_WIDTH, 4),
    }
}

impl RowLayout {
    /// Compute the layout for a schema using the production 8-byte alignment,
    /// every column with a NULL flag.
    pub fn new(types: &[LogicalType]) -> RowLayout {
        RowLayout::with_alignment(types, RowAlignment::Aligned8)
    }

    /// Compute the layout with an explicit alignment policy, every column
    /// with a NULL flag.
    pub fn with_alignment(types: &[LogicalType], alignment: RowAlignment) -> RowLayout {
        RowLayout::build(types, |_| true, alignment)
    }

    /// The layout of a sort's rows, sized from what its input holds: a NULL
    /// flag only for a column `c` for which `nullable(c)` says it may hold
    /// a NULL, slots naturally aligned, and the row padded to its widest
    /// slot's alignment ([`RowAlignment::Natural`]).
    ///
    /// ```
    /// use rowsort_row::RowLayout;
    /// use rowsort_vector::LogicalType;
    ///
    /// // A NULL-free `u32`: its value and nothing else.
    /// let lone = RowLayout::fitted(&[LogicalType::UInt32], |_| false);
    /// assert_eq!((lone.width(), lone.flags()), (4, 0));
    /// // The same column flagged: a flag byte, then the value at 4.
    /// let flagged = RowLayout::fitted(&[LogicalType::UInt32], |_| true);
    /// assert_eq!((flagged.width(), flagged.offset(0)), (8, 4));
    /// ```
    pub fn fitted(types: &[LogicalType], nullable: impl Fn(usize) -> bool) -> RowLayout {
        RowLayout::build(types, nullable, RowAlignment::Natural)
    }

    fn build(
        types: &[LogicalType],
        flagged: impl Fn(usize) -> bool,
        alignment: RowAlignment,
    ) -> RowLayout {
        let mut null_offsets = Vec::with_capacity(types.len());
        let mut offset = 0usize; // slots start right after the null-flag bytes
        for c in 0..types.len() {
            null_offsets.push(flagged(c).then(|| {
                offset += 1;
                offset - 1
            }));
        }
        let mut offsets = Vec::with_capacity(types.len());
        let (mut has_varlen, mut widest) = (false, 1);
        for &ty in types {
            has_varlen |= ty == LogicalType::Varchar;
            let (width, align) = slot_shape(ty);
            if alignment != RowAlignment::Packed {
                offset = offset.div_ceil(align) * align;
            }
            widest = widest.max(align);
            offsets.push(offset);
            offset += width;
        }
        let width = match alignment {
            RowAlignment::Aligned8 => offset.div_ceil(8) * 8,
            RowAlignment::Natural => offset.div_ceil(widest) * widest,
            RowAlignment::Packed => offset,
        };
        RowLayout {
            types: types.to_vec(),
            offsets,
            null_offsets,
            width,
            alignment,
            has_varlen,
        }
    }

    /// Column types, in order.
    pub fn types(&self) -> &[LogicalType] {
        &self.types
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.types.len()
    }

    /// Total bytes per row (including null flags and padding).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Byte offset of column `col`'s value slot.
    pub fn offset(&self, col: usize) -> usize {
        self.offsets[col]
    }

    /// Byte offset of column `col`'s null flag; `None` when the column has
    /// none, and so holds no NULL.
    pub fn null_flag(&self, col: usize) -> Option<usize> {
        self.null_offsets[col]
    }

    /// Columns that carry a NULL flag: the row's flag bytes.
    pub fn flags(&self) -> usize {
        self.null_offsets.iter().flatten().count()
    }

    /// Width in bytes of column `col`'s slot.
    pub fn slot_width(&self, col: usize) -> usize {
        slot_shape(self.types[col]).0
    }

    /// Whether any column stores data out-of-row (VARCHAR).
    pub fn has_varlen(&self) -> bool {
        self.has_varlen
    }

    /// The alignment policy this layout was built with.
    pub fn alignment(&self) -> RowAlignment {
        self.alignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LogicalType as T;

    #[test]
    fn aligned_layout_pads_to_eight() {
        // 4 x u32 keys as in the micro-benchmarks: 4 null bytes + 4*4 data.
        let l = RowLayout::new(&[T::UInt32; 4]);
        assert_eq!(l.column_count(), 4);
        // null flags at 0..4, first slot aligned to 4.
        assert_eq!(l.null_flag(0), Some(0));
        assert_eq!(l.offset(0), 4);
        assert_eq!(l.offset(3), 16);
        assert_eq!(l.width(), 24, "4 + 16 = 20, padded to 24");
        assert_eq!(l.width() % 8, 0);
    }

    #[test]
    fn packed_layout_has_no_padding() {
        let l = RowLayout::with_alignment(&[T::UInt32; 4], RowAlignment::Packed);
        assert_eq!(l.offset(0), 4);
        assert_eq!(l.offset(3), 16);
        assert_eq!(l.width(), 20);
    }

    #[test]
    fn mixed_widths_align_naturally() {
        let l = RowLayout::new(&[T::Int8, T::Int64, T::Int16]);
        // 3 null bytes; i8 slot at 3; i64 aligned to 8 -> offset 8; i16 at 16.
        assert_eq!(l.offset(0), 3);
        assert_eq!(l.offset(1), 8);
        assert_eq!(l.offset(2), 16);
        assert_eq!(l.width(), 24);
    }

    #[test]
    fn varchar_slot_is_eight_bytes() {
        let l = RowLayout::new(&[T::Varchar, T::Int32]);
        assert!(l.has_varlen());
        assert_eq!(l.slot_width(0), VARLEN_SLOT_WIDTH);
        // 2 null bytes, varchar slot 4-aligned at 4, i32 at 12.
        assert_eq!(l.offset(0), 4);
        assert_eq!(l.offset(1), 12);
        assert_eq!(l.width(), 16);
    }

    #[test]
    fn fixed_only_has_no_varlen() {
        let l = RowLayout::new(&[T::Int32, T::Float64]);
        assert!(!l.has_varlen());
    }

    #[test]
    fn empty_schema() {
        let l = RowLayout::new(&[]);
        assert_eq!(l.width(), 0);
        assert_eq!(l.column_count(), 0);
    }

    #[test]
    fn every_type_fits_its_slot() {
        for ty in T::ALL {
            let l = RowLayout::new(&[ty]);
            assert!(l.width() > l.slot_width(0), "{ty}");
            assert!(l.offset(0) >= 1, "{ty}: slot after null byte");
        }
    }

    #[test]
    fn packed_vs_aligned_width_relation() {
        let types = [T::Int8, T::Int64, T::Varchar, T::Int16, T::UInt32];
        let aligned = RowLayout::new(&types);
        let packed = RowLayout::with_alignment(&types, RowAlignment::Packed);
        assert!(aligned.width() >= packed.width());
        assert_eq!(packed.width(), 5 + 1 + 8 + 8 + 2 + 4);
    }

    #[test]
    fn fitted_layout_flags_only_nullable_columns_and_pads_to_its_widest_slot() {
        // A NULL-free u32 alone: 4 bytes, no flag, no padding.
        let l = RowLayout::fitted(&[T::UInt32], |_| false);
        assert_eq!(
            (l.width(), l.offset(0), l.null_flag(0), l.flags()),
            (4, 0, None, 0)
        );
        assert_eq!(l.alignment(), RowAlignment::Natural);
        // Flagged, the value moves to its alignment past the flag.
        let l = RowLayout::fitted(&[T::UInt32], |_| true);
        assert_eq!((l.width(), l.offset(0), l.null_flag(0)), (8, 4, Some(0)));
        // Flags only for the flagged columns, in column order; the row is
        // padded to its widest slot (2 bytes), not to 8.
        let l = RowLayout::fitted(&[T::Int16, T::Int8, T::UInt16], |c| c > 0);
        assert_eq!(
            (l.null_flag(0), l.null_flag(1), l.null_flag(2)),
            (None, Some(0), Some(1))
        );
        assert_eq!((l.offset(0), l.offset(1), l.offset(2)), (2, 4, 6));
        assert_eq!((l.width(), l.flags()), (8, 2));
        let l = RowLayout::fitted(&[T::Int8, T::Boolean], |_| false);
        assert_eq!(l.width(), 2);
        // A VARCHAR slot aligns to 4, an i64 to 8.
        let l = RowLayout::fitted(&[T::Varchar, T::Int64], |c| c == 1);
        assert_eq!((l.offset(0), l.offset(1), l.width()), (4, 16, 24));
        // No column: no bytes.
        assert_eq!(RowLayout::fitted(&[], |_| true).width(), 0);
    }

    #[test]
    fn fitted_slots_stay_naturally_aligned_and_never_wider_than_the_papers_row() {
        // Every pair of types, every flag pattern: each slot sits at a
        // multiple of its alignment, the width is a multiple of the widest
        // slot's, and the row is never wider than the all-flagged
        // 8-byte-padded one; with every column flagged, only the padding
        // differs.
        for a in T::ALL {
            for b in T::ALL {
                let types = [a, b, T::Varchar];
                for mask in 0..8u8 {
                    let nullable: Vec<bool> = (0..3).map(|c| mask >> c & 1 != 0).collect();
                    let l = RowLayout::fitted(&types, |c| nullable[c]);
                    let widest = (0..3).map(|c| slot_shape(types[c]).1).max().unwrap();
                    assert_eq!(l.width() % widest, 0, "{types:?} {nullable:?}");
                    for c in 0..3 {
                        assert_eq!(l.offset(c) % slot_shape(types[c]).1, 0);
                        assert_eq!(l.null_flag(c).is_some(), nullable[c]);
                        assert!(l.offset(c) + l.slot_width(c) <= l.width());
                    }
                    let paper = RowLayout::new(&types);
                    assert!(l.width() <= paper.width());
                    if mask == 7 {
                        assert_eq!(
                            (0..3).map(|c| l.offset(c)).collect::<Vec<_>>(),
                            (0..3).map(|c| paper.offset(c)).collect::<Vec<_>>()
                        );
                    }
                }
            }
        }
    }
}
