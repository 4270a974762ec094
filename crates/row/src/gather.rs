//! NSM → DSM (Figure 11's last stage): the one loop that turns rows back
//! into vectors, a batch of rows at a time.
//!
//! A [`ChunkBuilder`] owns the output columns, sized exactly before a row
//! arrives, and cuts them into one [`ChunkPiece`] per consecutive row
//! range: disjoint `split_at_mut` slices of every fixed-width column, so
//! any number of threads can fill their ranges at once. A piece takes rows
//! in two steps because their bytes live in two places. A row's strings
//! are copied out of its heap when the row is named
//! ([`ChunkPiece::push_strings`]) — for a record of a spilled run that heap
//! is a block buffer the next record may replace — while its fixed-width
//! values wait, staged by the caller with up to [`BATCH_ROWS`] others, for
//! one typed pass per column over rows that are still in L1
//! ([`ChunkPiece::gather`]). String bytes cannot be sized per range ahead
//! of time (a run file is read once), so each VARCHAR column of a piece
//! grows a range-local buffer, checked as UTF-8 where it was filled
//! ([`ChunkPiece::finish`]), and [`ChunkBuilder::finish`] appends the later
//! pieces' buffers to the first's with one byte copy each; validity masks
//! are range-local too and are spliced at the range boundaries, wherever
//! in a word those fall.

use crate::block::{heap_offset, read_array, HEAP_OVERFLOW};
use crate::layout::RowLayout;
use rowsort_vector::{DataChunk, LogicalType, StringVec, Validity, Vector, VectorData};

/// Rows a caller stages between two [`ChunkPiece::gather`] calls. The
/// passes (one per column) re-read every staged row, so a batch has to
/// stay in L1 beside the column tails being written — 256 rows are 8 KiB
/// of `catalog_sales`' 32-byte rows, 12 KiB of `customer_email`'s 48 — and
/// be long enough to amortize a pass's dispatch. Measured as
/// `RowBlock::to_chunk` on one thread, best of 25, two rounds, at 32 / 64 /
/// 128 / 256 / 512 / 1024 rows (EXPERIMENTS.md, PR 20): 500 000
/// `catalog_sales` rows 7.2–7.8 / 6.9–7.3 / 6.9–7.1 / 6.5–6.7 / 6.4–6.7 /
/// 6.6–6.8 ms; 1 M 16-byte rows 5.4–7.0 / 5.6–6.2 / 5.0–5.4 / 5.5–5.6 /
/// 5.4–5.8 / 6.1 ms; on 300 000 sorted `customer_email` rows with their
/// heap in input order the random heap reads (15–27 ms, whatever the
/// batch) bury the difference. Flat from 128 to 512; 256 is the middle of
/// it. A merged run's heap is in run order (DESIGN.md §11.1), where those
/// reads are sequential; the batch was not re-measured on that shape.
pub const BATCH_ROWS: usize = 256;

/// A VARCHAR slot whose `(offset, len)` does not lie inside the heap it
/// was read against.
pub const BAD_STRING_SLOT: &str = "string slot reaches outside its heap";

/// A fixed-width value as its row slot stores it.
trait Slot: Copy {
    fn read(row: &[u8], at: usize) -> Self;
}

impl Slot for bool {
    #[inline]
    fn read(row: &[u8], at: usize) -> bool {
        row[at] != 0
    }
}

macro_rules! le_slots {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            #[inline]
            fn read(row: &[u8], at: usize) -> $t {
                <$t>::from_le_bytes(read_array(row, at))
            }
        }
    )*};
}
le_slots!(i8, i16, i32, i64, u8, u16, u32, u64, f32, f64);

/// One column pass over a batch: every row's slot value into `out`, and
/// its NULL flag into `validity` (row `at + i` of the piece). A NULL keeps
/// whatever its slot holds as the placeholder — zero bytes, for rows
/// scattered from vectors.
///
/// A NULL pays [`Validity::set_invalid`]'s range check and its look at
/// whether the mask exists yet — predictable branches. Taking a batch's
/// flags in a loop of their own, to check and materialize once, measured
/// the same on every table tried (EXPERIMENTS.md, PR 20), so the mask
/// keeps its one-row interface.
#[inline]
fn fill<T: Slot>(
    out: &mut [T],
    rows: &[u8],
    width: usize,
    (slot, null_at): (usize, usize),
    validity: &mut Validity,
    at: usize,
) {
    for (i, (dst, row)) in out.iter_mut().zip(rows.chunks_exact(width)).enumerate() {
        *dst = T::read(row, slot);
        if row[null_at] != 0 {
            validity.set_invalid(at + i);
        }
    }
}

macro_rules! values {
    ($($kind:ident: $t:ty = $zero:expr, $($variant:ident)|+;)*) => {
        /// A fixed-width column's storage, or the rest of it, by value type.
        enum Values<'a> {
            $($kind(&'a mut [$t]),)*
        }

        /// `rows` placeholder values of `ty` (VARCHAR: none, its pieces
        /// bring their own strings).
        fn presized(ty: LogicalType, rows: usize) -> VectorData {
            match ty {
                $($(LogicalType::$variant => VectorData::$variant(vec![$zero; rows]),)+)*
                LogicalType::Varchar => VectorData::Varchar(StringVec::new()),
            }
        }

        impl<'a> Values<'a> {
            /// All of a fixed-width column; `None` for VARCHAR.
            fn whole(data: &'a mut VectorData) -> Option<Values<'a>> {
                match data {
                    $($(VectorData::$variant(v))|+ => Some(Values::$kind(v)),)*
                    VectorData::Varchar(_) => None,
                }
            }

            /// Split the first `n` values off the front.
            fn split_front(&mut self, n: usize) -> Values<'a> {
                match self {
                    $(Values::$kind(v) => {
                        let (front, rest) = std::mem::take(v).split_at_mut(n);
                        *v = rest;
                        Values::$kind(front)
                    })*
                }
            }

            /// [`fill`] values `at..` from the batch `rows`.
            fn gather(
                &mut self,
                rows: &[u8],
                width: usize,
                slot: (usize, usize),
                validity: &mut Validity,
                at: usize,
            ) {
                let n = rows.len() / width;
                match self {
                    $(Values::$kind(v) => fill(&mut v[at..at + n], rows, width, slot, validity, at),)*
                }
            }
        }
    };
}

values! {
    Bool: bool = false, Boolean;
    I8: i8 = 0, Int8;
    I16: i16 = 0, Int16;
    I32: i32 = 0, Int32 | Date;
    I64: i64 = 0, Int64 | Timestamp;
    U8: u8 = 0, UInt8;
    U16: u16 = 0, UInt16;
    U32: u32 = 0, UInt32;
    U64: u64 = 0, UInt64;
    F32: f32 = 0.0, Float32;
    F64: f64 = 0.0, Float64;
}

/// A fixed-width column's share of a piece.
struct FixedCol<'a> {
    col: usize,
    /// Offsets of the value slot and the NULL flag in a row.
    slot: (usize, usize),
    values: Values<'a>,
}

/// A VARCHAR column's share of a piece: range-local offsets and bytes.
struct StringCol {
    col: usize,
    slot: (usize, usize),
    offsets: Vec<u32>,
    bytes: Vec<u8>,
}

/// The output columns of an NSM → DSM conversion, sized before it starts.
pub struct ChunkBuilder {
    columns: Vec<VectorData>,
    rows: usize,
}

/// One consecutive row range of a [`ChunkBuilder`]'s columns, filled in
/// row order.
pub struct ChunkPiece<'a> {
    width: usize,
    rows: usize,
    /// Rows whose strings are in, and rows whose fixed-width values are.
    taken: usize,
    gathered: usize,
    fixed: Vec<FixedCol<'a>>,
    strings: Vec<StringCol>,
    /// One mask per column, over this piece's rows.
    validity: Vec<Validity>,
}

/// What a filled piece leaves to be joined: its masks, by column, and its
/// VARCHAR columns' strings, in column order.
pub struct PieceTail {
    validity: Vec<Validity>,
    strings: Vec<StringVec>,
}

impl ChunkBuilder {
    /// Columns of `types` for `rows` rows.
    pub fn new(types: &[LogicalType], rows: usize) -> ChunkBuilder {
        let columns = types.iter().map(|&ty| presized(ty, rows)).collect();
        ChunkBuilder { columns, rows }
    }

    /// Cut the columns into consecutive pieces of `rows` rows each, which
    /// must add up to the builder's. `string_bytes(col)` is what VARCHAR
    /// column `col` is expected to hold over all rows: a piece reserves
    /// its share of it and grows past it if it must.
    pub fn pieces<'a>(
        &'a mut self,
        layout: &RowLayout,
        rows: impl IntoIterator<Item = usize>,
        string_bytes: impl Fn(usize) -> usize,
    ) -> Vec<ChunkPiece<'a>> {
        let total = self.rows;
        let mut rest: Vec<Option<Values<'a>>> =
            self.columns.iter_mut().map(Values::whole).collect();
        let pieces: Vec<ChunkPiece<'a>> = rows
            .into_iter()
            .enumerate()
            .map(|(p, n)| {
                let first = p == 0;
                let mut piece = ChunkPiece {
                    width: layout.width(),
                    rows: n,
                    taken: 0,
                    gathered: 0,
                    fixed: Vec::new(),
                    strings: Vec::new(),
                    validity: vec![Validity::new_valid(n); rest.len()],
                };
                for (col, values) in rest.iter_mut().enumerate() {
                    let slot = (layout.offset(col), layout.null_offset(col));
                    match values {
                        Some(values) => piece.fixed.push(FixedCol {
                            col,
                            slot,
                            values: values.split_front(n),
                        }),
                        None => {
                            // The first piece's buffers are the column's
                            // in the end ([`join_strings`]): they take the
                            // whole expectation, exact for a lone piece.
                            // A later range's strings may run longer than
                            // the column's average.
                            let hint = string_bytes(col);
                            let (strings, bytes) = if first {
                                (total, hint)
                            } else {
                                let even = (hint as u128 * n as u128 / total.max(1) as u128) as usize;
                                (n, even + even / 16)
                            };
                            let mut offsets = Vec::with_capacity(strings + 1);
                            offsets.push(0);
                            piece.strings.push(StringCol {
                                col,
                                slot,
                                offsets,
                                bytes: Vec::with_capacity(bytes),
                            });
                        }
                    }
                }
                piece
            })
            .collect();
        assert_eq!(
            pieces.iter().map(|p| p.rows).sum::<usize>(),
            total,
            "pieces must cover the builder's rows"
        );
        pieces
    }

    /// Join the filled pieces' tails, in piece order, into the chunk: one
    /// byte copy per VARCHAR piece after the first, one splice per mask. A
    /// lone piece's strings and masks are the columns' as they are.
    pub fn finish(self, tails: Vec<PieceTail>) -> DataChunk {
        let (mut masks, mut strings): (Vec<_>, Vec<_>) = tails
            .into_iter()
            .map(|t| (t.validity.into_iter(), t.strings.into_iter()))
            .unzip();
        let rows = self.rows;
        let columns = self.columns.into_iter().map(|data| {
            let mut validity = Validity::new_valid(0);
            for piece in masks.iter_mut().filter_map(Iterator::next) {
                if validity.is_empty() {
                    validity = piece;
                } else {
                    validity.extend_from_range(&piece, 0, piece.len());
                }
            }
            let data = match data {
                VectorData::Varchar(_) => VectorData::Varchar(join_strings(
                    strings.iter_mut().filter_map(Iterator::next).collect(),
                    rows,
                )),
                fixed => fixed,
            };
            // lint:allow(R010): every piece was filled to its row count
            // (`ChunkPiece::finish` asserts it) and the pieces cover the
            // builder's rows, so values and mask are both `rows` long.
            Vector::from_parts(data, validity).expect("equal lengths by construction")
        });
        // lint:allow(R010): as above — every column is `rows` long.
        DataChunk::from_columns(columns.collect()).expect("equal lengths by construction")
    }
}

/// The pieces of one VARCHAR column end to end, in the first piece's
/// buffers — which were reserved for the whole column, so the others are
/// copied behind it and no byte of the first moves.
fn join_strings(pieces: Vec<StringVec>, rows: usize) -> StringVec {
    let mut pieces = pieces.into_iter();
    let mut out = pieces.next().unwrap_or_default();
    let rest = pieces.as_slice();
    out.reserve(
        rows - out.len(),
        rest.iter().map(StringVec::total_bytes).sum(),
    );
    for piece in pieces {
        out.extend_from_range(&piece, 0, piece.len());
    }
    out
}

impl ChunkPiece<'_> {
    /// Rows this piece holds when full.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes per row of the layout the piece gathers from.
    pub fn row_width(&self) -> usize {
        self.width
    }

    /// Whether every row's strings are in: the next
    /// [`ChunkPiece::push_strings`] would be one row too many.
    pub fn is_full(&self) -> bool {
        self.taken == self.rows
    }

    /// Take the next row's strings out of `heap`, the heap `row`'s VARCHAR
    /// slots point into. A NULL contributes an empty string and its slot
    /// bytes are never read. `Err` says why a slot cannot be followed
    /// ([`BAD_STRING_SLOT`], [`HEAP_OVERFLOW`]); the piece is then no
    /// longer usable.
    #[inline]
    pub fn push_strings(&mut self, row: &[u8], heap: &[u8]) -> Result<(), &'static str> {
        for c in &mut self.strings {
            let (slot, null_at) = c.slot;
            if row[null_at] != 0 {
                self.validity[c.col].set_invalid(self.taken);
            } else {
                let off = u32::from_le_bytes(read_array(row, slot)) as usize;
                let len = u32::from_le_bytes(read_array(row, slot + 4)) as usize;
                let string = heap.get(off..off.saturating_add(len));
                c.bytes.extend_from_slice(string.ok_or(BAD_STRING_SLOT)?);
            }
            // A column past 4 GiB has no `StringVec` to go to.
            c.offsets
                .push(heap_offset(c.bytes.len() as u64).ok_or(HEAP_OVERFLOW)?);
        }
        self.taken += 1;
        Ok(())
    }

    /// Gather the fixed-width values of the next `rows.len() / width`
    /// rows — the rows whose strings were pushed and not yet gathered, in
    /// that order — one typed pass per column.
    ///
    /// # Panics
    /// If that is more rows than the piece has left.
    pub fn gather(&mut self, rows: &[u8]) {
        if rows.is_empty() {
            return;
        }
        let at = self.gathered;
        for c in &mut self.fixed {
            let validity = &mut self.validity[c.col];
            c.values.gather(rows, self.width, c.slot, validity, at);
        }
        self.gathered += rows.len() / self.width;
    }

    /// [`ChunkPiece::push_strings`] then [`ChunkPiece::gather`] for rows
    /// that lie back to back over one `heap`, [`BATCH_ROWS`] at a time.
    pub fn push_rows(&mut self, rows: &[u8], heap: &[u8]) -> Result<(), &'static str> {
        for batch in rows.chunks(BATCH_ROWS * self.width.max(1)) {
            for row in batch.chunks_exact(self.width) {
                self.push_strings(row, heap)?;
            }
            self.gather(batch);
        }
        Ok(())
    }

    /// Close a filled piece: its VARCHAR columns are checked as UTF-8 here,
    /// on the thread that filled them — one pass per column, and string by
    /// string with replacement characters where that fails.
    ///
    /// # Panics
    /// If the piece is not full.
    pub fn finish(self) -> PieceTail {
        assert!(
            self.taken == self.rows && self.gathered == self.rows,
            "piece of {} rows closed at {} / {}",
            self.rows,
            self.taken,
            self.gathered
        );
        let lossy = |c: StringCol| StringVec::from_parts_lossy(c.offsets, c.bytes);
        PieceTail {
            validity: self.validity,
            strings: self.strings.into_iter().map(lossy).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::RowBlock;
    use rowsort_vector::Value;
    use std::sync::Arc;

    /// `rows` rows over every type with NULLs at a stride, as a chunk and
    /// as the block it scatters to.
    fn every_type(rows: usize) -> (DataChunk, RowBlock) {
        let mut types = LogicalType::ALL.to_vec();
        types.push(LogicalType::Varchar);
        let mut chunk = DataChunk::new(&types);
        for i in 0..rows {
            let s = |tag: &str| match i % 7 {
                3 => Value::Null,
                4 => Value::from(""),
                _ => Value::from(format!("{tag}-{i}-é")),
            };
            let int = |v: Value| if i % 5 == 2 { Value::Null } else { v };
            let n = i as i64 - 40;
            chunk
                .push_row(&[
                    int(Value::Boolean(i % 3 == 0)),
                    int(Value::Int8(n as i8)),
                    int(Value::Int16(n as i16 * 3)),
                    int(Value::Int32(n as i32 * 7)),
                    int(Value::Int64(n * 1_000_003)),
                    int(Value::UInt8(i as u8)),
                    int(Value::UInt16(i as u16 * 5)),
                    int(Value::UInt32(i as u32 * 11)),
                    int(Value::UInt64(i as u64 * 13)),
                    int(Value::Float32(n as f32 * 0.5)),
                    int(Value::Float64(n as f64 * 0.25)),
                    int(Value::Date(n as i32)),
                    int(Value::Timestamp(n * 86_400)),
                    s("a"),
                    s("second"),
                ])
                .unwrap();
        }
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&types)));
        block.append_chunk(&chunk);
        (chunk, block)
    }

    /// `block` gathered through pieces of `counts` rows.
    fn in_pieces(block: &RowBlock, counts: &[usize]) -> DataChunk {
        let layout = block.layout();
        let mut builder = ChunkBuilder::new(layout.types(), block.len());
        let pieces = builder.pieces(layout, counts.iter().copied(), |_| block.heap().len());
        let mut at = 0;
        let mut tails = Vec::new();
        for mut piece in pieces {
            let bytes = &block.data()[at * layout.width()..][..piece.rows() * layout.width()];
            assert!(!piece.is_full() || piece.rows() == 0);
            piece.push_rows(bytes, block.heap()).unwrap();
            assert!(piece.is_full());
            at += piece.rows();
            tails.push(piece.finish());
        }
        builder.finish(tails)
    }

    #[test]
    fn pieces_join_to_the_whole_at_any_boundary() {
        // 300 rows: more than a batch, and boundaries inside a validity
        // word with NULLs on both sides, on a word, and empty pieces.
        let (chunk, block) = every_type(300);
        for counts in [
            vec![300],
            vec![37, 263],
            vec![64, 64, 172],
            vec![0, 1, 0, 298, 1, 0],
            vec![100; 3],
        ] {
            assert_eq!(in_pieces(&block, &counts), chunk, "pieces {counts:?}");
        }
        // No rows at all, cut in two: nothing to share the hint out over.
        let (chunk, block) = every_type(0);
        assert_eq!(in_pieces(&block, &[0, 0]), chunk);
    }

    #[test]
    fn all_valid_columns_keep_a_lazy_mask() {
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s((0..200).collect()),
            Vector::from_strings((0..200).map(|i| format!("s{i}"))),
        ])
        .unwrap();
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&chunk.types())));
        block.append_chunk(&chunk);
        let joined = in_pieces(&block, &[70, 130]);
        assert_eq!(joined, chunk);
        assert_eq!(joined.column(1).as_strings().unwrap().total_bytes(), 690);
    }

    #[test]
    fn a_slot_outside_its_heap_is_an_error_not_a_read() {
        let layout = RowLayout::new(&[LogicalType::Varchar]);
        let mut builder = ChunkBuilder::new(layout.types(), 1);
        let mut pieces = builder.pieces(&layout, [1], |_| 0);
        let mut row = vec![0u8; layout.width()];
        row[layout.offset(0)..][..4].copy_from_slice(&3u32.to_le_bytes());
        row[layout.offset(0) + 4..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            pieces[0].push_strings(&row, b"abcdef"),
            Err(BAD_STRING_SLOT)
        );
    }

    #[test]
    #[should_panic(expected = "closed at")]
    fn an_unfilled_piece_does_not_close() {
        let layout = RowLayout::new(&[LogicalType::Int32]);
        let mut builder = ChunkBuilder::new(layout.types(), 2);
        let piece = builder.pieces(&layout, [2], |_| 0).pop().unwrap();
        piece.finish();
    }
}
