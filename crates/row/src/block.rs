//! Buffers of fixed-width rows.

use crate::gather::{ChunkBuilder, ChunkPiece, BATCH_ROWS};
use crate::layout::RowLayout;
use rowsort_vector::{DataChunk, LogicalType, Value, Vector, VectorData};
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
pub(crate) fn heap_base(len: usize) -> u32 {
    // lint:allow(R010): the capacity bound described above.
    heap_offset(len as u64).expect(HEAP_OVERFLOW)
}

/// A buffer of fixed-width NSM rows plus the string heap they reference.
///
/// The row area is one contiguous `Vec<u8>` of `len * width` bytes, so a
/// sorting algorithm can move whole rows with `memcpy`/`memswap` and scans
/// touch memory sequentially — the cache-locality property the paper
/// measures. Variable-length values live in `heap`; rows store
/// `(offset, len)` slots, so physically reordering rows never touches the
/// heap.
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
        // Element-wise so the schema check allocates nothing: this runs
        // once per morsel inside the steady-state (allocation-free) path.
        assert!(
            chunk.column_count() == self.layout.types().len()
                && chunk
                    .columns()
                    .iter()
                    .zip(self.layout.types())
                    .all(|(col, &ty)| col.logical_type() == ty),
            "chunk schema must match row layout"
        );
        assert!(lo <= hi && hi <= chunk.len(), "row range out of bounds");
        let width = self.width();
        let base = self.len;
        let n = hi - lo;
        self.data.resize((base + n) * width, 0);
        for col in 0..chunk.column_count() {
            self.scatter_column(chunk.column(col), col, base, lo, hi);
        }
        self.len += n;
    }

    fn scatter_column(&mut self, vec: &Vector, col: usize, base: usize, lo: usize, hi: usize) {
        let width = self.width();
        let slot = self.layout.offset(col);
        let null_off = self.layout.null_offset(col);
        let n = hi - lo;

        // Null flags first (1 = NULL). NULL slots keep zero bytes.
        for i in 0..n {
            let row_start = (base + i) * width;
            self.data[row_start + null_off] = !vec.is_valid(lo + i) as u8;
        }

        macro_rules! scatter_fixed {
            ($values:expr) => {{
                for (i, v) in $values[lo..hi].iter().enumerate() {
                    if !vec.is_valid(lo + i) {
                        continue;
                    }
                    let at = (base + i) * width + slot;
                    let bytes = v.to_le_bytes();
                    self.data[at..at + bytes.len()].copy_from_slice(&bytes);
                }
            }};
        }

        match vec.data() {
            VectorData::Boolean(values) => {
                for (i, v) in values[lo..hi].iter().enumerate() {
                    if vec.is_valid(lo + i) {
                        self.data[(base + i) * width + slot] = *v as u8;
                    }
                }
            }
            VectorData::Int8(values) => scatter_fixed!(values),
            VectorData::Int16(values) => scatter_fixed!(values),
            VectorData::Int32(values) => scatter_fixed!(values),
            VectorData::Int64(values) => scatter_fixed!(values),
            VectorData::UInt8(values) => scatter_fixed!(values),
            VectorData::UInt16(values) => scatter_fixed!(values),
            VectorData::UInt32(values) => scatter_fixed!(values),
            VectorData::UInt64(values) => scatter_fixed!(values),
            VectorData::Float32(values) => scatter_fixed!(values),
            VectorData::Float64(values) => scatter_fixed!(values),
            VectorData::Date(values) => scatter_fixed!(values),
            VectorData::Timestamp(values) => scatter_fixed!(values),
            VectorData::Varchar(strings) => {
                for i in 0..n {
                    if !vec.is_valid(lo + i) {
                        continue;
                    }
                    let bytes = strings.get_bytes(lo + i);
                    let heap_off = heap_base(self.heap.len());
                    // lint:allow(R010): same 4 GiB capacity bound as
                    // `heap_base`'s.
                    let byte_len = u32::try_from(bytes.len()).expect("string exceeds 4 GiB");
                    self.heap.extend_from_slice(bytes);
                    let at = (base + i) * width + slot;
                    self.data[at..at + 4].copy_from_slice(&heap_off.to_le_bytes());
                    self.data[at + 4..at + 8].copy_from_slice(&byte_len.to_le_bytes());
                }
            }
        }
    }

    /// Whether column `col` of row `row` is NULL.
    pub fn is_null(&self, row: usize, col: usize) -> bool {
        self.data[row * self.width() + self.layout.null_offset(col)] != 0
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
        self.gather_with(self.len, |piece| piece.push_rows(&self.data, &self.heap))
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
        self.gather_with(order.len(), |piece| {
            for picks in order.chunks(BATCH_ROWS) {
                batch.clear();
                for &r in picks {
                    batch.extend_from_slice(self.row(r as usize));
                }
                piece.push_rows(&batch, &self.heap)?;
            }
            Ok(())
        })
    }

    /// A chunk of `rows` rows, filled by `fill` as one piece.
    fn gather_with(
        &self,
        rows: usize,
        mut fill: impl FnMut(&mut ChunkPiece<'_>) -> Result<(), &'static str>,
    ) -> DataChunk {
        let mut builder = ChunkBuilder::new(self.layout.types(), rows);
        // Rows scattered from vectors name each heap byte once: an even
        // share per VARCHAR column is the right order of magnitude, and
        // exact for one; a gather of fewer rows than the block holds
        // expects as much less.
        let varchars = self.layout.types().iter();
        let varchars = varchars.filter(|&&ty| ty == LogicalType::Varchar).count();
        let share = self.heap.len().checked_div(varchars).unwrap_or(0);
        let part = share as u128 * rows as u128 / self.len.max(1) as u128;
        let share = share.min(part as usize);
        let pieces = builder.pieces(&self.layout, [rows], |_| share);
        let filled = pieces.into_iter().map(|mut piece| {
            // lint:allow(R010): a slot outside the heap is the caller's
            // broken block — the documented panic.
            fill(&mut piece).expect("row slots must lie inside the block's heap");
            piece.finish()
        });
        let tails = filled.collect();
        builder.finish(tails)
    }

    /// Physically reorder rows into a new block (the payload-reorder step
    /// after sorting keys). Heap offsets are absolute, so the heap is reused
    /// unchanged.
    pub fn reorder(&self, order: &[u32]) -> RowBlock {
        let width = self.width();
        let mut data = vec![0u8; order.len() * width];
        for (dst, &src) in order.iter().enumerate() {
            let s = src as usize * width;
            data[dst * width..(dst + 1) * width].copy_from_slice(&self.data[s..s + width]);
        }
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
        let n = order.len();
        self.heap.clear();
        self.heap.extend_from_slice(&src.heap);
        self.data.resize(n * width, 0);
        for (dst, s) in order.enumerate() {
            let s = s as usize * width;
            self.data[dst * width..(dst + 1) * width].copy_from_slice(&src.data[s..s + width]);
        }
        self.len = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RowAlignment;
    use rowsort_vector::LogicalType as T;

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
        let (width, slot, null_off) = (layout.width(), layout.offset(0), layout.null_offset(0));
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

    #[test]
    #[should_panic(expected = "schema must match")]
    fn schema_mismatch_panics() {
        let chunk = chunk_u32_pairs(&[(1, 2)]);
        let mut block = RowBlock::new(Arc::new(RowLayout::new(&[T::Int64])));
        block.append_chunk(&chunk);
    }
}
