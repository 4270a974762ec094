//! Buffers of fixed-width rows.

use crate::gather::{ChunkBuilder, ChunkPiece, BATCH_ROWS};
use crate::layout::RowLayout;
use rowsort_algos::rows::copy_row;
use rowsort_vector::{DataChunk, LogicalType, StringVec, Value, Vector, VectorData};
use std::sync::Arc;

/// Read a fixed-width array out of a byte slice. Infallible by type: the
/// width is a const parameter, so there is no fallible `try_into` — bounds
/// are enforced by the slice operation itself.
#[inline]
pub(crate) fn read_array<const W: usize>(bytes: &[u8], at: usize) -> [u8; W] {
    let mut buf = [0u8; W];
    buf.copy_from_slice(&bytes[at..at + W]);
    buf
}

/// What every heap-capacity failure says, whichever layer hits it.
pub const HEAP_OVERFLOW: &str = "heap exceeds 4 GiB";

/// A heap length — which is also the offset of the next byte appended to
/// that heap — as the `u32` a VARCHAR slot stores; `None` past 4 GiB. The
/// one conversion behind every slot offset and every heap base, so a heap
/// the slot format cannot address fails instead of wrapping.
#[inline]
pub fn heap_offset(len: u64) -> Option<u32> {
    u32::try_from(len).ok()
}

/// [`heap_offset`] for lengths this process built itself.
///
/// # Panics
/// With [`HEAP_OVERFLOW`] past 4 GiB: such a heap cannot be represented in
/// the slot format at all, so aborting the sort is the only sound response.
#[inline]
#[expect(clippy::expect_used, reason = "the capacity bound described above")]
pub(crate) fn heap_base(len: usize) -> u32 {
    heap_offset(len as u64).expect(HEAP_OVERFLOW)
}

/// Where the strings a row's VARCHAR slots name live: one heap for every
/// slot, or — for rows scattered without copying their strings
/// ([`RowBlock::append_columns_in_place`]) — the input column each slot
/// came from.
#[derive(Debug, Clone, Copy)]
pub enum Heaps<'a> {
    /// Every slot's offset is into this heap.
    One(&'a [u8]),
    /// Slot `s`'s offset is into the bytes of column `columns[s]` of the
    /// chunk.
    Columns(&'a DataChunk, &'a [usize]),
}

impl<'a> Heaps<'a> {
    /// The heap slot `slot`'s offsets are into: empty for a slot that names
    /// no VARCHAR column.
    #[inline]
    pub fn of(self, slot: usize) -> &'a [u8] {
        match self {
            Heaps::One(heap) => heap,
            Heaps::Columns(chunk, columns) => columns
                .get(slot)
                .and_then(|&c| chunk.column(c).as_strings())
                .map_or(&[], StringVec::bytes),
        }
    }
}

/// A buffer of fixed-width NSM rows plus the string heap they reference.
///
/// The row area is one contiguous `Vec<u8>` of `len * width` bytes, so a
/// sorting algorithm can move whole rows with `memcpy`/`memswap` and scans
/// touch memory sequentially — the cache-locality property the paper
/// measures. Variable-length values live in `heap`; rows store
/// `(offset, len)` slots, so physically reordering rows never touches the
/// heap — except where a sorted run is about to be merged or encoded:
/// there the sorter lays the heap out again in run order
/// ([`reorder_heap`]), so its reader takes the strings front to back.
#[derive(Debug, Clone)]
pub struct RowBlock {
    layout: Arc<RowLayout>,
    data: Vec<u8>,
    heap: Vec<u8>,
    len: usize,
}

impl RowBlock {
    /// An empty block with the given layout.
    pub fn new(layout: Arc<RowLayout>) -> RowBlock {
        RowBlock {
            layout,
            data: Vec::new(),
            heap: Vec::new(),
            len: 0,
        }
    }

    /// An empty block with room for `rows` rows.
    pub fn with_capacity(layout: Arc<RowLayout>, rows: usize) -> RowBlock {
        let width = layout.width();
        RowBlock {
            layout,
            data: Vec::with_capacity(rows * width),
            heap: Vec::new(),
            len: 0,
        }
    }

    /// Assemble a block from an already-built row area and heap (e.g. rows
    /// streamed back from spill files). `data.len()` must be a multiple of
    /// the layout width, and heap references inside `data` must be valid
    /// offsets into `heap`.
    pub fn from_raw_parts(layout: Arc<RowLayout>, data: Vec<u8>, heap: Vec<u8>) -> RowBlock {
        let width = layout.width();
        assert!(
            width == 0 && data.is_empty() || width != 0 && data.len().is_multiple_of(width),
            "row area length {} not a multiple of width {width}",
            data.len()
        );
        let len = data.len().checked_div(width).unwrap_or(0);
        RowBlock {
            layout,
            data,
            heap,
            len,
        }
    }

    /// Remove all rows, keeping the row-area and heap capacity (buffer
    /// reuse across sorts).
    pub fn clear(&mut self) {
        self.data.clear();
        self.heap.clear();
        self.len = 0;
    }

    /// Disassemble the block into its row area and heap, for returning the
    /// buffers to a pool. Inverse of [`RowBlock::from_raw_parts`].
    pub fn into_raw_parts(self) -> (Vec<u8>, Vec<u8>) {
        (self.data, self.heap)
    }

    /// The row shape.
    pub fn layout(&self) -> &Arc<RowLayout> {
        &self.layout
    }

    /// Bytes per row.
    pub fn width(&self) -> usize {
        self.layout.width()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow row `i`'s bytes.
    pub fn row(&self, i: usize) -> &[u8] {
        let w = self.width();
        &self.data[i * w..(i + 1) * w]
    }

    /// The whole row area (`len * width` bytes).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable row area, for in-place sorting.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// The string heap.
    pub fn heap(&self) -> &[u8] {
        &self.heap
    }

    /// Append every row of `chunk` (DSM → NSM scatter).
    ///
    /// Conversion runs one vector (column) at a time across the appended
    /// region, so per-column type dispatch happens once per vector rather
    /// than once per value — the amortization the paper credits for making
    /// the conversion cheap.
    ///
    /// # Panics
    /// If the chunk schema does not match the layout.
    pub fn append_chunk(&mut self, chunk: &DataChunk) {
        self.append_chunk_range(chunk, 0, chunk.len());
    }

    /// Append rows `lo..hi` of `chunk` (DSM → NSM scatter), without the
    /// intermediate copy a sliced chunk would cost — this is how the sort
    /// pipeline materializes each morsel.
    ///
    /// # Panics
    /// If the chunk schema does not match the layout, or `lo..hi` is not a
    /// valid row range of `chunk`.
    pub fn append_chunk_range(&mut self, chunk: &DataChunk, lo: usize, hi: usize) {
        assert!(
            chunk.column_count() == self.layout.types().len(),
            "chunk schema must match row layout"
        );
        self.append_columns_range(chunk, |slot| slot, lo, hi);
    }

    /// [`RowBlock::append_chunk_range`] into a layout over some of
    /// `chunk`'s columns: slot `s` of each row takes column `column(s)`.
    /// A layout of no columns appends rows of no bytes.
    ///
    /// # Panics
    /// If a named column's type is not its slot's, or `lo..hi` is not a
    /// valid row range of `chunk`.
    pub fn append_columns_range(
        &mut self,
        chunk: &DataChunk,
        column: impl Fn(usize) -> usize,
        lo: usize,
        hi: usize,
    ) {
        self.scatter(chunk, column, (lo, hi), true);
    }

    /// [`RowBlock::append_columns_range`] without copying a string: each
    /// VARCHAR slot holds its string's offset in the bytes of the column
    /// it came from, and the block's heap stays as it is. The rows' strings
    /// are then read through [`Heaps::Columns`] over `chunk` and `column`'s
    /// columns, for as long as `chunk` lives.
    ///
    /// # Panics
    /// As [`RowBlock::append_columns_range`].
    pub fn append_columns_in_place(
        &mut self,
        chunk: &DataChunk,
        column: impl Fn(usize) -> usize,
        lo: usize,
        hi: usize,
    ) {
        self.scatter(chunk, column, (lo, hi), false);
    }

    /// Append rows `lo..hi` of `chunk`'s columns, copying the strings into
    /// the heap or (`copy` false) leaving them where they are.
    fn scatter(
        &mut self,
        chunk: &DataChunk,
        column: impl Fn(usize) -> usize,
        (lo, hi): (usize, usize),
        copy: bool,
    ) {
        let types = self.layout.types();
        // Element-wise so the schema check allocates nothing: this runs
        // once per morsel inside the steady-state (allocation-free) path.
        assert!(
            types
                .iter()
                .enumerate()
                .all(|(slot, &ty)| chunk.column(column(slot)).logical_type() == ty),
            "chunk schema must match row layout"
        );
        assert!(lo <= hi && hi <= chunk.len(), "row range out of bounds");
        let width = self.width();
        let start = self.len * width;
        self.data.resize(start + (hi - lo) * width, 0);
        for slot in 0..types.len() {
            let rows = self.data[start..].chunks_exact_mut(width);
            let at = (self.layout.offset(slot), self.layout.null_flag(slot));
            let heap = copy.then_some(&mut self.heap);
            scatter_column(rows, at, heap, chunk.column(column(slot)), (lo, hi));
        }
        self.len += hi - lo;
    }

    /// Whether column `col` of row `row` is NULL: never for a column
    /// without a NULL flag.
    pub fn is_null(&self, row: usize, col: usize) -> bool {
        let flag = self.layout.null_flag(col);
        flag.is_some_and(|at| self.data[row * self.width() + at] != 0)
    }

    /// The string bytes referenced by a VARCHAR slot.
    pub fn string_bytes(&self, row: usize, col: usize) -> &[u8] {
        let at = row * self.width() + self.layout.offset(col);
        let off = u32::from_le_bytes(read_array(&self.data, at)) as usize;
        let len = u32::from_le_bytes(read_array(&self.data, at + 4)) as usize;
        &self.heap[off..off + len]
    }

    /// Read one cell as a boxed [`Value`] (NULL-aware).
    pub fn value(&self, row: usize, col: usize) -> Value {
        if self.is_null(row, col) {
            return Value::Null;
        }
        let at = row * self.width() + self.layout.offset(col);
        let d = &self.data;
        macro_rules! read {
            ($t:ty) => {
                <$t>::from_le_bytes(read_array(d, at))
            };
        }
        match self.layout.types()[col] {
            LogicalType::Boolean => Value::Boolean(d[at] != 0),
            LogicalType::Int8 => Value::Int8(d[at] as i8),
            LogicalType::Int16 => Value::Int16(read!(i16)),
            LogicalType::Int32 => Value::Int32(read!(i32)),
            LogicalType::Int64 => Value::Int64(read!(i64)),
            LogicalType::UInt8 => Value::UInt8(d[at]),
            LogicalType::UInt16 => Value::UInt16(read!(u16)),
            LogicalType::UInt32 => Value::UInt32(read!(u32)),
            LogicalType::UInt64 => Value::UInt64(read!(u64)),
            LogicalType::Float32 => Value::Float32(read!(f32)),
            LogicalType::Float64 => Value::Float64(read!(f64)),
            LogicalType::Date => Value::Date(read!(i32)),
            LogicalType::Timestamp => Value::Timestamp(read!(i64)),
            LogicalType::Varchar => Value::Varchar(
                // Lossy on purpose: the heap is valid UTF-8 when built via
                // append_chunk; from_raw_parts may carry arbitrary bytes,
                // and a read accessor should not abort on them.
                String::from_utf8_lossy(self.string_bytes(row, col)).into_owned(),
            ),
        }
    }

    /// Convert the whole block back to a chunk (NSM → DSM gather), in row
    /// order.
    pub fn to_chunk(&self) -> DataChunk {
        let heaps = Heaps::One(&self.heap);
        self.gather_with(0..self.len, |piece| piece.push_rows(&self.data, heaps))
    }

    /// Gather the given rows, in the given order, into a chunk.
    ///
    /// This is the NSM → DSM conversion at the end of the sorting pipeline
    /// (Figure 1's right-hand side): the rows pass through
    /// [`crate::gather`]'s typed column passes a batch at a time. A VARCHAR
    /// column is checked as UTF-8 once; a heap that is not UTF-8 string by
    /// string (only [`RowBlock::from_raw_parts`] can carry one) is read
    /// lossily, each string with its own replacement characters — see
    /// [`RowBlock::value`] on the same choice. NULL slots contribute an
    /// empty string and their offset/length bytes are never read.
    ///
    /// # Panics
    /// If an index is out of bounds, or a VARCHAR slot of a named row does
    /// not lie inside the heap.
    pub fn gather(&self, order: &[u32]) -> DataChunk {
        let width = self.width();
        let mut batch = Vec::with_capacity(BATCH_ROWS.min(order.len()) * width);
        let named = order.iter().map(|&r| r as usize);
        self.gather_with(named, |piece| {
            for picks in order.chunks(BATCH_ROWS) {
                batch.clear();
                for &r in picks {
                    batch.extend_from_slice(self.row(r as usize));
                }
                piece.push_rows(&batch, Heaps::One(&self.heap))?;
            }
            Ok(())
        })
    }

    /// A chunk of the rows `named` names, filled by `fill` as one piece,
    /// each VARCHAR column sized to the strings of those rows.
    fn gather_with(
        &self,
        named: impl Iterator<Item = usize> + Clone,
        mut fill: impl FnMut(&mut ChunkPiece<'_>) -> Result<(), &'static str>,
    ) -> DataChunk {
        let mut builder = ChunkBuilder::new(self.layout.types(), named.clone().count());
        let types = self.layout.types().iter().enumerate();
        let varchars = types.filter(|(_, &ty)| ty == LogicalType::Varchar);
        let bytes = |_, v| {
            let Some((col, _)) = varchars.clone().nth(v) else {
                return 0;
            };
            let len = |r: usize| {
                let at = r * self.width() + self.layout.offset(col);
                u32::from_le_bytes(read_array(&self.data, at + 4)) as usize
            };
            named
                .clone()
                .filter(|&r| !self.is_null(r, col))
                .map(len)
                .sum()
        };
        let rows = named.clone().count();
        #[expect(
            clippy::expect_used,
            reason = "a block's named strings are at most the 4 GiB its slots address, per slot \
                      — past that the caller's broken block, the documented panic"
        )]
        let pieces = builder
            .pieces(&self.layout, (1, |_| rows), bytes)
            .expect("row slots must lie inside the block's heap");
        let filled = pieces.into_iter().map(|mut piece| {
            #[expect(
                clippy::expect_used,
                reason = "a slot outside the heap is the caller's broken block — the documented panic"
            )]
            fill(&mut piece).expect("row slots must lie inside the block's heap");
            #[expect(
                clippy::expect_used,
                reason = "the piece was sized to the strings its rows name"
            )]
            piece.finish().expect("strings sized from the rows")
        });
        let tails = filled.collect();
        builder.finish(tails)
    }

    /// Physically reorder rows into a new block (the payload-reorder step
    /// after sorting keys). Heap offsets are absolute, so the heap is reused
    /// unchanged.
    pub fn reorder(&self, order: &[u32]) -> RowBlock {
        let mut data = Vec::new();
        reorder_rows(&mut data, &self.data, self.width(), order.iter().copied());
        RowBlock {
            layout: Arc::clone(&self.layout),
            data,
            heap: self.heap.clone(),
            len: order.len(),
        }
    }

    /// Replace this block's contents with `src`'s rows in the order the
    /// iterator yields them — [`RowBlock::reorder`] into an existing
    /// (pooled) block instead of a fresh one. Heap offsets are absolute,
    /// so the heap is copied wholesale and row copies need no fixup.
    ///
    /// # Panics
    /// If the layouts differ or an index is out of bounds.
    pub fn assign_reordered(&mut self, src: &RowBlock, order: impl ExactSizeIterator<Item = u32>) {
        assert_eq!(
            self.layout.types(),
            src.layout.types(),
            "assign_reordered requires one shared layout"
        );
        let width = self.width();
        self.heap.clear();
        self.heap.extend_from_slice(&src.heap);
        self.len = order.len();
        reorder_rows(&mut self.data, &src.data, width, order);
    }
}

/// Scatter rows `lo..hi` of `vec` into one column of `rows`, whose slot
/// and NULL flag sit at `at` and hold zeros: one pass over the rows, the
/// NULL flag and the slot written together. The NULL flags of a column
/// without a validity mask stay as they are (zero, valid), and a column
/// without a flag holds no NULL (its layout was planned from the input:
/// [`RowLayout::fitted`]), so either loop tests nothing; a NULL's slot
/// stays zero, whatever the vector stores under it. A VARCHAR column's
/// bytes for the range go to `heap` in
/// one copy, with one 4 GiB check for the column, and each slot is read
/// from the offsets; without a `heap`, each slot keeps its string's offset
/// in the column's own bytes.
fn scatter_column(
    rows: std::slice::ChunksExactMut<'_, u8>,
    (at, null): (usize, Option<usize>),
    heap: Option<&mut Vec<u8>>,
    vec: &Vector,
    (lo, hi): (usize, usize),
) {
    let valid = null.zip(vec.validity().words());
    let valid = valid.map(|(null, words)| (null, words, lo));
    macro_rules! fixed {
        ($values:expr) => {
            scatter_slots(rows, at, $values[lo..hi].iter().copied(), valid, |v| {
                v.to_le_bytes()
            })
        };
    }
    match vec.data() {
        VectorData::Boolean(values) => {
            let values = values[lo..hi].iter().copied();
            scatter_slots(rows, at, values, valid, |v| [u8::from(v)]);
        }
        VectorData::Int8(values) => fixed!(values),
        VectorData::Int16(values) => fixed!(values),
        VectorData::Int32(values) => fixed!(values),
        VectorData::Int64(values) => fixed!(values),
        VectorData::UInt8(values) => fixed!(values),
        VectorData::UInt16(values) => fixed!(values),
        VectorData::UInt32(values) => fixed!(values),
        VectorData::UInt64(values) => fixed!(values),
        VectorData::Float32(values) => fixed!(values),
        VectorData::Float64(values) => fixed!(values),
        VectorData::Date(values) => fixed!(values),
        VectorData::Timestamp(values) => fixed!(values),
        VectorData::Varchar(strings) => {
            let (offsets, bytes) = strings.range_parts(lo, hi);
            let spans = offsets.iter().zip(offsets.get(1..).unwrap_or_default());
            let Some(heap) = heap else {
                scatter_slots(rows, at, spans, valid, |(&start, &stop)| {
                    (u64::from(start) | (u64::from(stop - start) << 32)).to_le_bytes()
                });
                return;
            };
            #[expect(
                clippy::expect_used,
                reason = "the scatter's one 4 GiB check per VARCHAR column: the heap's end after \
                          the range's bytes bounds every offset the column's slots are given below"
            )]
            let end = heap_offset((heap.len() + bytes.len()) as u64).expect(HEAP_OVERFLOW);
            heap.extend_from_slice(bytes);
            // String `lo + i` starts `offsets[i] - offsets[0]` bytes into
            // the copy, and the copy ends at `end`.
            let last = offsets.last().copied().unwrap_or_default();
            scatter_slots(rows, at, spans, valid, |(&start, &stop)| {
                let slot = u64::from(end - (last - start)) | (u64::from(stop - start) << 32);
                slot.to_le_bytes()
            });
        }
    }
}

/// Write `bytes(v)` for each value `v` into the slot at `slot` of its row
/// of `rows`. With `valid` — the NULL flag's offset in a row, the column's
/// validity words and the row of the first value in them — each row's
/// NULL flag is written too, and a NULL row's slot is left as it is
/// (zero: the rows were just appended); without, the flags are left
/// alone. The one loop of a column's scatter, whatever its type.
#[inline(always)]
fn scatter_slots<T, const W: usize>(
    rows: std::slice::ChunksExactMut<'_, u8>,
    slot: usize,
    values: impl Iterator<Item = T>,
    valid: Option<(usize, &[u64], usize)>,
    bytes: impl Fn(T) -> [u8; W],
) {
    match valid {
        None => {
            for (row, v) in rows.zip(values) {
                row[slot..slot + W].copy_from_slice(&bytes(v));
            }
        }
        Some((null, words, first)) => {
            for (r, (row, v)) in (first..).zip(rows.zip(values)) {
                let valid = (words[r / 64] >> (r % 64)) & 1 != 0;
                row[null] = u8::from(!valid);
                if valid {
                    row[slot..slot + W].copy_from_slice(&bytes(v));
                }
            }
        }
    }
}

/// Fill `dst` (cleared first) with the `width`-byte rows of `src` in the
/// order `order` names them: the payload reorder, one [`copy_row`] per
/// row. A row's VARCHAR slots hold absolute heap offsets, so the rows keep
/// pointing into `src`'s heap, which the caller hands on with them.
///
/// # Panics
/// If an index names a row past the end of `src`.
pub fn reorder_rows(
    dst: &mut Vec<u8>,
    src: &[u8],
    width: usize,
    order: impl ExactSizeIterator<Item = u32>,
) {
    dst.clear();
    dst.resize(order.len() * width, 0);
    if width == 0 {
        return;
    }
    for (row, s) in dst.chunks_exact_mut(width).zip(order) {
        let at = s as usize * width;
        copy_row(row, &src[at..at + width]);
    }
}

/// Copy the strings `rows` name out of `heaps` into `dst` (cleared first)
/// in the order of the rows, one VARCHAR column after the other, and
/// point each slot at its string's new place: the heap of a reordered run
/// in run order, so whoever reads the run row by row reads its strings
/// front to back. Column by column, because each pass then reads only
/// one column's strings (row by row, the copy measured about 1.5× slower,
/// and the reader gained nothing more). A NULL's slot takes the offset
/// the column has reached and length 0, and none of the heap, so the
/// column's strings in rows `[a, b)` are the heap bytes between row `a`'s
/// slot offset and row `b`'s. `dst` is asked for `expected` bytes up
/// front, the strings' own total when the caller knows it.
///
/// # Panics
/// If a slot does not lie inside its heap, or `dst` would pass 4 GiB.
pub fn reorder_heap(
    rows: &mut [u8],
    layout: &RowLayout,
    heaps: Heaps<'_>,
    (dst, expected): (&mut Vec<u8>, usize),
) {
    dst.clear();
    dst.resize(expected, 0);
    let width = layout.width();
    let mut at = 0;
    let types = layout.types().iter().enumerate();
    for (col, _) in types.filter(|(_, &ty)| ty == LogicalType::Varchar) {
        let (slot, null) = (layout.offset(col), layout.null_flag(col));
        let src = heaps.of(col);
        for row in rows.chunks_exact_mut(width) {
            let base = heap_base(at).to_le_bytes();
            if null.is_some_and(|null| row[null] != 0) {
                row[slot..slot + 4].copy_from_slice(&base);
                row[slot + 4..slot + 8].fill(0);
                continue;
            }
            let off = u32::from_le_bytes(read_array(row, slot)) as usize;
            let len = u32::from_le_bytes(read_array(row, slot + 4)) as usize;
            let string = &src[off..off + len];
            let end = at + len;
            if end > dst.len() {
                dst.resize(end, 0);
            }
            copy_row(&mut dst[at..end], string);
            row[slot..slot + 4].copy_from_slice(&base);
            at = end;
        }
    }
    dst.truncate(at);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RowAlignment;
    use rowsort_vector::{LogicalType as T, Validity};

    fn chunk_u32_pairs(rows: &[(u32, u32)]) -> DataChunk {
        let a = Vector::from_u32s(rows.iter().map(|r| r.0).collect());
        let b = Vector::from_u32s(rows.iter().map(|r| r.1).collect());
        DataChunk::from_columns(vec![a, b]).unwrap()
    }

    #[test]
    fn heap_offsets_stop_at_four_gib() {
        // A pure function of lengths: nothing here allocates a heap.
        let max = u64::from(u32::MAX);
        assert_eq!(heap_offset(0), Some(0));
        assert_eq!(heap_offset(max), Some(u32::MAX));
        assert_eq!(heap_offset(max + 1), None);
        assert_eq!(heap_offset(u64::MAX), None);
        assert_eq!(heap_base(u32::MAX as usize), u32::MAX);
        let wrapped = std::panic::catch_unwind(|| heap_base(u32::MAX as usize + 1));
        let msg = wrapped.expect_err("a 4 GiB + 1 heap base must not wrap to 0");
        let msg = msg.downcast_ref::<String>().map(String::as_str);
        assert!(msg.is_some_and(|m| m.contains(HEAP_OVERFLOW)), "{msg:?}");
    }

    #[test]
    fn scatter_gather_round_trip_fixed() {
        let chunk = chunk_u32_pairs(&[(3, 30), (1, 10), (2, 20)]);
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let mut block = RowBlock::new(layout);
        block.append_chunk(&chunk);
        assert_eq!(block.len(), 3);
        assert_eq!(block.to_chunk(), chunk);
    }

    #[test]
    fn scatter_gather_round_trip_strings_and_nulls() {
        let mut chunk = DataChunk::new(&[T::Varchar, T::Int32]);
        chunk
            .push_row(&[Value::from("NETHERLANDS"), Value::Int32(1990)])
            .unwrap();
        chunk.push_row(&[Value::Null, Value::Null]).unwrap();
        chunk
            .push_row(&[Value::from(""), Value::Int32(-5)])
            .unwrap();
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let mut block = RowBlock::new(layout);
        block.append_chunk(&chunk);
        assert_eq!(block.to_chunk(), chunk);
        assert!(block.is_null(1, 0));
        assert!(!block.is_null(0, 1));
        assert_eq!(block.string_bytes(0, 0), b"NETHERLANDS");
    }

    #[test]
    fn value_reads_every_type() {
        let types = T::ALL;
        let row: Vec<Value> = vec![
            Value::Boolean(true),
            Value::Int8(-1),
            Value::Int16(-300),
            Value::Int32(7),
            Value::Int64(i64::MIN),
            Value::UInt8(255),
            Value::UInt16(65535),
            Value::UInt32(u32::MAX),
            Value::UInt64(u64::MAX),
            Value::Float32(-1.5),
            Value::Float64(std::f64::consts::PI),
            Value::Date(19000),
            Value::Timestamp(1_700_000_000_000_000),
            Value::from("héllo"),
        ];
        let mut chunk = DataChunk::new(&types);
        chunk.push_row(&row).unwrap();
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&types)));
        block.append_chunk(&chunk);
        for (c, expected) in row.iter().enumerate() {
            assert_eq!(&block.value(0, c), expected, "column {c}");
        }
    }

    #[test]
    fn reorder_permutes_rows() {
        let chunk = chunk_u32_pairs(&[(3, 30), (1, 10), (2, 20)]);
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let mut block = RowBlock::new(layout);
        block.append_chunk(&chunk);
        let sorted = block.reorder(&[1, 2, 0]);
        assert_eq!(sorted.value(0, 0), Value::UInt32(1));
        assert_eq!(sorted.value(1, 0), Value::UInt32(2));
        assert_eq!(sorted.value(2, 0), Value::UInt32(3));
        assert_eq!(sorted.value(2, 1), Value::UInt32(30));
    }

    #[test]
    fn reorder_keeps_string_heap_valid() {
        let mut chunk = DataChunk::new(&[T::Varchar]);
        for s in ["bb", "aa", "cc"] {
            chunk.push_row(&[Value::from(s)]).unwrap();
        }
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&chunk.types())));
        block.append_chunk(&chunk);
        let sorted = block.reorder(&[1, 0, 2]);
        assert_eq!(sorted.value(0, 0), Value::from("aa"));
        assert_eq!(sorted.value(1, 0), Value::from("bb"));
    }

    #[test]
    fn gather_subset() {
        let chunk = chunk_u32_pairs(&[(3, 30), (1, 10), (2, 20)]);
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&chunk.types())));
        block.append_chunk(&chunk);
        let got = block.gather(&[2, 0]);
        assert_eq!(got.len(), 2);
        assert_eq!(got.row(0), vec![Value::UInt32(2), Value::UInt32(20)]);
        assert_eq!(got.row(1), vec![Value::UInt32(3), Value::UInt32(30)]);
    }

    #[test]
    fn append_multiple_chunks() {
        let c1 = chunk_u32_pairs(&[(1, 10)]);
        let c2 = chunk_u32_pairs(&[(2, 20), (3, 30)]);
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&c1.types())));
        block.append_chunk(&c1);
        block.append_chunk(&c2);
        assert_eq!(block.len(), 3);
        assert_eq!(block.value(2, 1), Value::UInt32(30));
    }

    #[test]
    fn packed_layout_round_trips_too() {
        let chunk = chunk_u32_pairs(&[(5, 50), (4, 40)]);
        let layout = Arc::new(RowLayout::with_alignment(
            &chunk.types(),
            RowAlignment::Packed,
        ));
        let mut block = RowBlock::new(layout);
        block.append_chunk(&chunk);
        assert_eq!(block.to_chunk(), chunk);
    }

    #[test]
    fn row_bytes_are_width_sized() {
        let chunk = chunk_u32_pairs(&[(1, 2)]);
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&chunk.types())));
        block.append_chunk(&chunk);
        assert_eq!(block.row(0).len(), block.width());
        assert_eq!(block.data().len(), block.width());
    }

    #[test]
    fn append_chunk_range_scatters_subset() {
        let chunk = chunk_u32_pairs(&[(1, 10), (2, 20), (3, 30), (4, 40)]);
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&chunk.types())));
        block.append_chunk_range(&chunk, 1, 3);
        assert_eq!(block.len(), 2);
        assert_eq!(block.value(0, 0), Value::UInt32(2));
        assert_eq!(block.value(1, 1), Value::UInt32(30));
    }

    #[test]
    fn append_chunk_range_strings_and_nulls() {
        let mut chunk = DataChunk::new(&[T::Varchar]);
        for v in [
            Value::from("a"),
            Value::Null,
            Value::from("c"),
            Value::from("d"),
        ] {
            chunk.push_row(&[v]).unwrap();
        }
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&chunk.types())));
        block.append_chunk_range(&chunk, 1, 4);
        assert_eq!(block.len(), 3);
        assert!(block.is_null(0, 0));
        assert_eq!(block.value(1, 0), Value::from("c"));
        assert_eq!(block.value(2, 0), Value::from("d"));
    }

    #[test]
    fn assign_reordered_reuses_buffers() {
        let mut chunk = DataChunk::new(&[T::UInt32, T::Varchar]);
        for (v, s) in [(3u32, "ccc"), (1, "aaa"), (2, "bbb")] {
            chunk.push_row(&[Value::UInt32(v), Value::from(s)]).unwrap();
        }
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let mut src = RowBlock::new(Arc::clone(&layout));
        src.append_chunk(&chunk);
        let mut dst = RowBlock::new(layout);
        dst.assign_reordered(&src, [1u32, 2, 0].into_iter());
        assert_eq!(dst.value(0, 0), Value::UInt32(1));
        assert_eq!(dst.value(0, 1), Value::from("aaa"));
        assert_eq!(dst.value(2, 1), Value::from("ccc"));
        let cap = dst.data.capacity();
        // Re-assigning a same-size permutation must not reallocate.
        dst.assign_reordered(&src, [0u32, 1, 2].into_iter());
        assert_eq!(dst.data.capacity(), cap);
        assert_eq!(dst.to_chunk(), chunk);
    }

    #[test]
    fn clear_and_raw_parts_round_trip() {
        let chunk = chunk_u32_pairs(&[(1, 10), (2, 20)]);
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let mut block = RowBlock::new(Arc::clone(&layout));
        block.append_chunk(&chunk);
        block.clear();
        assert!(block.is_empty());
        block.append_chunk(&chunk);
        let (data, heap) = block.into_raw_parts();
        let rebuilt = RowBlock::from_raw_parts(layout, data, heap);
        assert_eq!(rebuilt.to_chunk(), chunk);
    }

    /// A one-VARCHAR-column block over `heap` with one row per
    /// `(offset, len)` slot; `None` is a NULL row whose slot bytes are
    /// garbage that must never be followed into the heap.
    fn raw_string_block(heap: &[u8], slots: &[Option<(u32, u32)>]) -> RowBlock {
        let layout = Arc::new(RowLayout::new(&[T::Varchar]));
        let (width, slot) = (layout.width(), layout.offset(0));
        let null_off = layout.null_flag(0).unwrap();
        let mut data = vec![0u8; slots.len() * width];
        for (row, s) in data.chunks_exact_mut(width).zip(slots) {
            let (off, len) = s.unwrap_or((0xDEAD_BEEF, u32::MAX));
            row[null_off] = s.is_none() as u8;
            row[slot..slot + 4].copy_from_slice(&off.to_le_bytes());
            row[slot + 4..slot + 8].copy_from_slice(&len.to_le_bytes());
        }
        RowBlock::from_raw_parts(layout, data, heap.to_vec())
    }

    /// What `gather` promises for VARCHAR: each string read on its own,
    /// lossily.
    fn lossy_per_string(block: &RowBlock, order: &[u32]) -> Vec<Value> {
        order.iter().map(|&r| block.value(r as usize, 0)).collect()
    }

    #[test]
    fn gather_is_lossy_per_string_on_arbitrary_heap_bytes() {
        // "ab", a lone 0xFF, then "é" (0xC3 0xA9) cut between two adjacent
        // strings: the buffer after the 0xFF is valid UTF-8 as a whole, but
        // neither half of the character is.
        let heap = [b'a', b'b', 0xFF, b'x', 0xC3, 0xA9, b'y'];
        let slots = [
            Some((0, 2)),
            None,
            Some((2, 1)),
            Some((3, 2)), // "x" + first byte of é
            Some((5, 2)), // second byte of é + "y"
            Some((7, 0)), // empty string at the very end of the heap
        ];
        let block = raw_string_block(&heap, &slots);
        for order in [vec![0, 1, 2, 3, 4, 5], vec![4, 3, 1, 0], vec![0, 5]] {
            let got = block.gather(&order);
            let got: Vec<Value> = got.column(0).iter_values().collect();
            assert_eq!(got, lossy_per_string(&block, &order), "order {order:?}");
        }
        let all = block.to_chunk();
        assert_eq!(all.row(0), vec![Value::from("ab")]);
        assert_eq!(all.row(1), vec![Value::Null]);
        assert_eq!(all.row(2), vec![Value::from("\u{FFFD}")]);
        assert_eq!(all.row(3), vec![Value::from("x\u{FFFD}")]);
        assert_eq!(all.row(4), vec![Value::from("\u{FFFD}y")]);
        assert_eq!(all.row(5), vec![Value::from("")]);

        // Without the 0xFF row the gathered buffer is valid UTF-8 as a
        // whole; only the character-boundary check sees the split.
        let got = block.gather(&[3, 4]);
        assert_eq!(got.row(0), vec![Value::from("x\u{FFFD}")]);
        assert_eq!(got.row(1), vec![Value::from("\u{FFFD}y")]);
    }

    #[test]
    fn gather_shared_and_repeated_strings() {
        // Rows may share heap bytes and `order` may repeat rows, so the
        // gathered column can be longer than the heap.
        let block = raw_string_block(b"hello", &[Some((0, 5)), Some((1, 3)), None]);
        let got = block.gather(&[0, 1, 0, 2, 1]);
        let got: Vec<Value> = got.column(0).iter_values().collect();
        let expected = ["hello", "ell", "hello"].map(Value::from);
        assert_eq!(got[..3], expected);
        assert_eq!(got[3..], [Value::Null, Value::from("ell")]);
    }

    #[test]
    fn reorder_heap_lays_out_named_strings_in_row_order() {
        // Rows that share heap bytes name more than the heap holds (and
        // than the 2 bytes expected): the new heap grows to fit. The NULL
        // row's garbage slot takes the offset its column has reached, and
        // no bytes, so each row's offset is the column's bytes before it.
        let block = raw_string_block(b"hello", &[Some((1, 3)), None, Some((0, 5))]);
        let layout = Arc::clone(block.layout());
        let (mut rows, heap) = block.clone().into_raw_parts();
        let mut ordered = vec![0xAA; 3];
        reorder_heap(&mut rows, &layout, Heaps::One(&heap), (&mut ordered, 2));
        assert_eq!(ordered, b"ellhello");
        let ordered = RowBlock::from_raw_parts(Arc::clone(&layout), rows, ordered);
        assert!(ordered.is_null(1, 0));
        let slot = layout.offset(0);
        let slots: Vec<(u32, u32)> = [0, 1, 2]
            .map(|r| {
                let row = ordered.row(r);
                let word = |at| u32::from_le_bytes(read_array(row, at));
                (word(slot), word(slot + 4))
            })
            .to_vec();
        assert_eq!(slots, [(0, 3), (3, 0), (3, 5)]);
        assert_eq!(ordered.to_chunk(), block.to_chunk());
    }

    #[test]
    fn rows_scattered_in_place_name_their_input_columns_strings() {
        // Two VARCHAR columns and an integer between, with a NULL: the
        // slots hold offsets into each column's own bytes, the heap stays
        // empty, and the strings read back through the columns.
        let mut chunk = DataChunk::new(&[T::Varchar, T::Int32, T::Varchar]);
        for (a, b) in [("ab", "x"), ("", "yy"), ("cde", "")] {
            let row = [Value::from(a), Value::Int32(1), Value::from(b)];
            chunk.push_row(&row).unwrap();
        }
        chunk
            .push_row(&[Value::Null, Value::Null, Value::from("z")])
            .unwrap();
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let mut block = RowBlock::new(Arc::clone(&layout));
        block.append_columns_in_place(&chunk, |slot| slot, 1, 4);
        assert!(block.heap().is_empty());
        let columns = [0, 1, 2];
        let heaps = Heaps::Columns(&chunk, &columns);
        let slot = |r: usize, col: usize| {
            let at = layout.offset(col);
            let word = |at| u32::from_le_bytes(read_array(block.row(r), at)) as usize;
            (word(at), word(at + 4))
        };
        assert_eq!(
            [slot(0, 0), slot(1, 0), slot(2, 0)],
            [(2, 0), (2, 3), (0, 0)]
        );
        assert_eq!(
            [slot(0, 2), slot(1, 2), slot(2, 2)],
            [(1, 2), (3, 0), (3, 1)]
        );
        assert_eq!(heaps.of(0), b"abcde");
        assert_eq!(heaps.of(1), b"");
        // In run order, column by column: the reordered heap is the
        // strings the rows name, and the rows gather back to the input.
        let (mut rows, _) = block.into_raw_parts();
        let mut ordered = Vec::new();
        reorder_heap(&mut rows, &layout, heaps, (&mut ordered, 6));
        assert_eq!(ordered, b"cdeyyz");
        let ordered = RowBlock::from_raw_parts(layout, rows, ordered);
        let want: Vec<Vec<Value>> = (1..4).map(|r| chunk.row(r)).collect();
        assert_eq!(ordered.to_chunk().to_rows(), want);
    }

    #[test]
    fn gather_empty_and_all_null_string_columns() {
        let empty = raw_string_block(b"", &[]);
        assert_eq!(empty.to_chunk(), DataChunk::new(&[T::Varchar]));
        assert_eq!(empty.gather(&[]).len(), 0);

        // Garbage heap too: no NULL row may cause a heap read.
        let nulls = raw_string_block(&[0xFF, 0xFE], &[None; 70]);
        let got = nulls.to_chunk();
        assert_eq!(got.len(), 70);
        assert_eq!(got.column(0).validity().count_invalid(), 70);
        assert_eq!(got.column(0).as_strings().unwrap().total_bytes(), 0);
        let mut expected = DataChunk::new(&[T::Varchar]);
        for _ in 0..70 {
            expected.push_row(&[Value::Null]).unwrap();
        }
        assert_eq!(got, expected);
    }

    /// One column of every type, `rows` long, with a value under every
    /// row — NULL rows included, VARCHAR too — and `validity` for each.
    fn every_type_chunk(rows: usize, validity: &Validity) -> DataChunk {
        let ints = |k: i64| (0..rows as i64).map(move |i| i * k + 1);
        let data = [
            VectorData::Boolean(vec![true; rows]),
            VectorData::Int8(ints(1).map(|v| v as i8).collect()),
            VectorData::Int16(ints(-3).map(|v| v as i16).collect()),
            VectorData::Int32(ints(1 << 20).map(|v| v as i32).collect()),
            VectorData::Int64(ints(-(1 << 40)).collect()),
            VectorData::UInt8(ints(1).map(|v| v as u8).collect()),
            VectorData::UInt16(ints(257).map(|v| v as u16).collect()),
            VectorData::UInt32(ints(1 << 24).map(|v| v as u32).collect()),
            VectorData::UInt64(ints(1 << 50).map(|v| v as u64).collect()),
            VectorData::Float32(ints(1).map(|v| v as f32 + 0.5).collect()),
            VectorData::Float64(ints(-7).map(|v| v as f64 / 3.0).collect()),
            VectorData::Date(ints(1).map(|v| v as i32).collect()),
            VectorData::Timestamp(ints(1 << 33).collect()),
            VectorData::Varchar(
                (0..rows)
                    .map(|i| format!("s{}", "x".repeat(i % 9)))
                    .collect(),
            ),
        ];
        let columns = data.map(|d| Vector::from_parts(d, validity.clone()).unwrap());
        DataChunk::from_columns(columns.to_vec()).unwrap()
    }

    /// The scatter's invariants: a NULL slot and every padding byte are
    /// zero whatever the vector holds there, the rows gather back to the
    /// input, and the heap takes exactly the range's string bytes. NULLs
    /// sit at both ends of the first two validity words; the ranges start
    /// on and off word boundaries, and append behind rows already there.
    #[test]
    fn scatter_zeroes_null_slots_and_padding_across_validity_words() {
        let rows = 130;
        let mut nulls = Validity::new_valid(rows);
        for r in [0, 63, 64, 127] {
            nulls.set_invalid(r);
        }
        // Words that exist but mark every row valid: a layout planned
        // from the input gives the columns no flag, and the scatter must
        // write none.
        let mut materialized = Validity::new_valid(rows);
        materialized.set_invalid(5);
        materialized.set_valid(5);
        for validity in [Validity::new_valid(rows), nulls, materialized] {
            let lazy = validity.words().is_none();
            let chunk = every_type_chunk(rows, &validity);
            let nullable = !validity.all_valid();
            let types = chunk.types();
            for layout in [
                RowLayout::new(&types),
                RowLayout::fitted(&types, |_| nullable),
            ] {
                let layout = Arc::new(layout);
                let width = layout.width();
                // The bytes of a row that hold a NULL flag or a slot.
                let mut used = vec![false; width];
                for col in 0..layout.column_count() {
                    if let Some(flag) = layout.null_flag(col) {
                        used[flag] = true;
                    }
                    let slot = layout.offset(col);
                    used[slot..slot + layout.slot_width(col)].fill(true);
                }
                let strings = chunk.column(T::ALL.len() - 1).as_strings().unwrap();
                for lo in [0, 1, 63, 65] {
                    let ranges = [(lo, rows), (lo / 2, lo + 3)];
                    let mut block = RowBlock::new(Arc::clone(&layout));
                    for (lo, hi) in ranges {
                        block.append_chunk_range(&chunk, lo, hi);
                    }
                    let input = ranges.iter().flat_map(|&(lo, hi)| lo..hi);
                    for (r, i) in input.enumerate() {
                        let row = block.row(r);
                        let case =
                            format!("lazy {lazy} width {width} lo {lo}: row {r} (input {i})");
                        for (b, _) in used.iter().enumerate().filter(|(_, &u)| !u) {
                            assert_eq!(row[b], 0, "{case}: padding byte {b}");
                        }
                        for col in 0..layout.column_count() {
                            let null = !validity.is_valid(i);
                            assert_eq!(block.is_null(r, col), null, "{case} column {col}");
                            let slot = layout.offset(col);
                            let value = &row[slot..slot + layout.slot_width(col)];
                            if null {
                                assert!(value.iter().all(|&b| b == 0), "{case} column {col}");
                            }
                        }
                        assert_eq!(block.value(r, 0), chunk.row(i)[0], "{case}");
                    }
                    let order: Vec<u32> = (0..block.len() as u32).collect();
                    let gathered = block.gather(&order);
                    let input = ranges.iter().flat_map(|&(lo, hi)| lo..hi);
                    for (r, i) in input.enumerate() {
                        assert_eq!(gathered.row(r), chunk.row(i), "lazy {lazy} lo {lo} row {r}");
                    }
                    let heap: usize = ranges
                        .iter()
                        .map(|&(lo, hi)| strings.range_bytes(lo, hi))
                        .sum();
                    assert_eq!(block.heap().len(), heap, "lazy {lazy} lo {lo}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "schema must match")]
    fn schema_mismatch_panics() {
        let chunk = chunk_u32_pairs(&[(1, 2)]);
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&[T::Int64])));
        block.append_chunk(&chunk);
    }
}
