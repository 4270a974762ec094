//! NSM → DSM (Figure 11's last stage): the one loop that turns rows back
//! into vectors, a batch of rows at a time.
//!
//! A [`ChunkBuilder`] owns the output columns, sized exactly before a row
//! arrives, and cuts them into one [`ChunkPiece`] per consecutive row
//! range: disjoint `split_at_mut` slices of every column, so any number of
//! threads can fill their ranges at once. A VARCHAR column is sized and cut
//! the same way: its caller says how many bytes of strings each range
//! holds, so every piece gets its rows' offsets and its strings' bytes and
//! writes absolute offsets into them; a record whose strings do not fit
//! its slice, or a piece that leaves part of it unfilled, is an error, not
//! a regrown buffer. A piece takes rows in two steps because their bytes
//! live in two places. A row's strings are copied out of their heaps when
//! the row is named ([`ChunkPiece::push_strings`]) — for a record of a
//! spilled run that heap is a block buffer the next record may replace —
//! while its fixed-width values wait, staged by the caller with up to
//! [`BATCH_ROWS`] others, for one typed pass per column over rows that are
//! still in L1 ([`ChunkPiece::gather_keyed`]). A column the sort's key
//! gives back is not in the rows at all: the caller stages each row's key
//! beside it, and the same call decodes the column from the keys
//! ([`ColumnFrom`]). Each piece checks its own strings as UTF-8 where it
//! filled them ([`ChunkPiece::finish`]), and [`ChunkBuilder::finish`] only
//! splices the range-local validity masks at the range boundaries,
//! wherever in a word those fall.

use crate::block::{heap_offset, read_array, Heaps, HEAP_OVERFLOW};
use crate::layout::RowLayout;
use rowsort_normkey::{KeyDecoder, KeyValue, BAD_KEY_MARKER};
use rowsort_vector::{DataChunk, LogicalType, StringVec, Validity, Vector, VectorData};

/// Rows a caller stages between two [`ChunkPiece::gather_keyed`] calls. The
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

/// A rank-coded key column's code that names no string of its dictionary.
pub const BAD_RANK: &str = "key rank past its dictionary";

/// A range's strings run past the bytes its piece was given for them.
pub const STRINGS_OVERRUN: &str = "strings overrun their range's bytes";

/// A range's strings end before the bytes its piece was given for them.
pub const STRINGS_SHORT: &str = "strings fall short of their range's bytes";

/// The strings a rank-coded key column's ranks name: rank `r` is string
/// `rows[r]` of `strings`.
#[derive(Debug, Clone, Copy)]
pub struct RankedStrings<'a> {
    pub strings: &'a StringVec,
    pub rows: &'a [u32],
}

/// Where a piece takes an output column's values from: a slot of the rows
/// it gathers, or a key column that gives the column back exactly
/// (`KeyColumn::is_exact`), decoded from the keys staged beside the rows.
#[derive(Debug, Clone, Copy)]
pub enum ColumnFrom<'a> {
    /// Slot `s` of the row layout.
    Slot(usize),
    /// The key column `decoder` decodes, `at` bytes into each key; a
    /// rank-coded VARCHAR column names its strings in `ranked`.
    Key {
        decoder: KeyDecoder,
        at: usize,
        ranked: Option<RankedStrings<'a>>,
    },
}

impl ColumnFrom<'_> {
    /// Bytes of the string a VARCHAR column decoded from the key `key`
    /// holds (0 for a NULL): what the column takes of its output for that
    /// row. A slot's column is read from the row, not here: 0.
    pub fn string_len(&self, key: &[u8]) -> Result<usize, &'static str> {
        let ColumnFrom::Key {
            decoder,
            at,
            ranked,
        } = *self
        else {
            return Ok(0);
        };
        let Some(dict) = ranked else {
            let key = key.get(at..).ok_or(BAD_KEY_MARKER)?;
            return Ok(decoder.stored_string(key)?.map_or(0, <[u8]>::len));
        };
        let mut len = Ok(0);
        decoder.ordinals(key, (0, at), 1, |_, rank| {
            if let Some(rank) = rank {
                let row = usize::try_from(rank).ok().and_then(|r| dict.rows.get(r));
                len = row
                    .map(|&row| dict.strings.byte_len(row as usize))
                    .ok_or(BAD_RANK);
            }
        });
        len
    }
}

/// Where a piece's column comes from, as the piece reads it.
#[derive(Debug, Clone, Copy)]
enum From<'a> {
    /// The row slot, and the offsets of its value and NULL flag in a row
    /// (no flag: the column holds no NULL).
    Row(usize, usize, Option<usize>),
    Key(KeyDecoder, usize, Option<RankedStrings<'a>>),
}

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
/// scattered from vectors. A column without a flag holds no NULL: its
/// pass only copies values.
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
    (slot, null_at): (usize, Option<usize>),
    validity: &mut Validity,
    at: usize,
) {
    let rows = out.iter_mut().zip(rows.chunks_exact(width));
    let Some(null_at) = null_at else {
        for (dst, row) in rows {
            *dst = T::read(row, slot);
        }
        return;
    };
    for (i, (dst, row)) in rows.enumerate() {
        *dst = T::read(row, slot);
        if row[null_at] != 0 {
            validity.set_invalid(at + i);
        }
    }
}

/// A VARCHAR key column's pass over a batch: each of the `n` keys in
/// `keys` — `place` is their stride and the column's offset in each —
/// decoded by `decoder` into the column's share of the piece, `strings`
/// (rows `at..` of it), a rank-coded one's through the strings its ranks
/// name, a NULL as an empty string with its flag in `validity`.
fn unkey_strings(
    (keys, place, n): (&[u8], (usize, usize), usize),
    (decoder, ranked): (KeyDecoder, Option<RankedStrings<'_>>),
    strings: &mut StringCol<'_>,
    validity: &mut Validity,
    at: usize,
) -> Result<(), &'static str> {
    let (stride, off) = place;
    let Some(dict) = ranked else {
        let desc = decoder.is_desc();
        for i in 0..n {
            let key = keys.get(i * stride + off..).ok_or(BAD_KEY_MARKER)?;
            match decoder.stored_string(key)? {
                Some(stored) => strings.put(stored, desc)?,
                None => validity.set_invalid(at + i),
            }
            strings.end_row(at + i);
        }
        return Ok(());
    };
    let mut failed = None;
    decoder.ordinals(keys, place, n, |i, rank| {
        match rank.map(|rank| usize::try_from(rank).ok().and_then(|r| dict.rows.get(r))) {
            None => validity.set_invalid(at + i),
            Some(Some(&row)) => {
                if let Err(e) = strings.put(dict.strings.get_bytes(row as usize), false) {
                    failed = Some(e);
                }
            }
            Some(None) => failed = Some(BAD_RANK),
        }
        strings.end_row(at + i);
    });
    failed.map_or(Ok(()), Err)
}

/// One key column's pass over a batch: each of the `out.len()` keys in
/// `keys` — `place` is their stride and the column's offset in each —
/// decoded into `out`, a NULL as the type's zero with its flag in
/// `validity` (row `at + i` of the piece), as the scatter leaves a NULL's
/// slot.
#[inline]
fn unkey<T: KeyValue>(
    out: &mut [T],
    keys: &[u8],
    place: (usize, usize),
    decoder: KeyDecoder,
    validity: &mut Validity,
    at: usize,
) {
    decoder.ordinals(keys, place, out.len(), |i, ord| match ord {
        Some(ord) => out[i] = T::from_ordinal(ord),
        None => {
            out[i] = T::default();
            validity.set_invalid(at + i);
        }
    });
}

macro_rules! values {
    ($($kind:ident: $t:ty = $zero:expr, $($variant:ident)|+;)*) => {
        /// A fixed-width column's storage, or the rest of it, by value type.
        enum Values<'a> {
            $($kind(&'a mut [$t]),)*
        }

        /// `rows` placeholder values of `ty` (VARCHAR: an empty
        /// placeholder, whose parts [`ChunkBuilder::pieces_from`] sizes).
        fn presized(ty: LogicalType, rows: usize) -> VectorData {
            match ty {
                $($(LogicalType::$variant => VectorData::$variant(vec![$zero; rows]),)+)*
                LogicalType::Varchar => VectorData::Varchar(StringVec::default()),
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
                slot: (usize, Option<usize>),
                validity: &mut Validity,
                at: usize,
            ) {
                let n = rows.len() / width;
                match self {
                    $(Values::$kind(v) => fill(&mut v[at..at + n], rows, width, slot, validity, at),)*
                }
            }

            /// [`unkey`] values `at..at + n` from the batch `keys`.
            fn decode(
                &mut self,
                keys: &[u8],
                place: (usize, usize),
                decoder: KeyDecoder,
                validity: &mut Validity,
                (at, n): (usize, usize),
            ) {
                match self {
                    $(Values::$kind(v) => unkey(&mut v[at..at + n], keys, place, decoder, validity, at),)*
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

/// A column a piece fills one batch at a time: a fixed-width column from
/// its rows' slots or from their keys, or a VARCHAR column from their
/// keys.
struct Pass<'a> {
    col: usize,
    from: From<'a>,
    into: Into<'a>,
}

/// Where a [`Pass`] writes.
enum Into<'a> {
    /// A fixed-width column's share of the piece.
    Values(Values<'a>),
    /// The VARCHAR column at this index of the piece's [`StringCol`]s.
    Strings(usize),
}

/// A VARCHAR column's share of a piece: the ends of its rows' strings, and
/// the bytes they fill, `base` bytes into the column. Filled row by row
/// from the row slot `slot` ([`ChunkPiece::push_strings`]) or, `keyed`, a
/// batch at a time from the keys ([`Pass`]).
struct StringCol<'a> {
    col: u32,
    keyed: bool,
    /// The row slot, and the offsets of its value and NULL flag in a row.
    slot: (usize, usize, Option<usize>),
    offsets: &'a mut [u32],
    bytes: &'a mut [u8],
    base: u32,
    /// Bytes written so far.
    filled: usize,
}

impl StringCol<'_> {
    /// Append `string` to the piece's bytes, each byte inverted if
    /// `invert`: [`STRINGS_OVERRUN`] past the piece's share.
    #[inline]
    fn put(&mut self, string: &[u8], invert: bool) -> Result<(), &'static str> {
        let end = self.filled + string.len();
        let to = self
            .bytes
            .get_mut(self.filled..end)
            .ok_or(STRINGS_OVERRUN)?;
        if invert {
            for (to, &b) in to.iter_mut().zip(string) {
                *to = !b;
            }
        } else {
            to.copy_from_slice(string);
        }
        self.filled = end;
        Ok(())
    }

    /// End row `row` of the piece where the bytes written so far end: an
    /// absolute offset, within the column's 4 GiB by construction.
    #[inline]
    fn end_row(&mut self, row: usize) {
        self.offsets[row] = self.base + self.filled as u32;
    }

    /// Whether the piece's strings are UTF-8, each on its own: the bytes
    /// as a whole, and every string boundary on a character's.
    fn is_utf8(&self) -> bool {
        let Ok(text) = std::str::from_utf8(self.bytes) else {
            return false;
        };
        let start = self.base;
        let mut ends = self.offsets.iter();
        ends.all(|&end| text.is_char_boundary(end.wrapping_sub(start) as usize))
    }
}

/// The output columns of an NSM → DSM conversion, sized before it starts.
pub struct ChunkBuilder {
    columns: Vec<VectorData>,
    /// Each VARCHAR column's offsets and bytes, in column order, sized
    /// when the columns are cut into pieces.
    strings: Vec<(Vec<u32>, Vec<u8>)>,
    rows: usize,
}

/// One consecutive row range of a [`ChunkBuilder`]'s columns, filled in
/// row order.
pub struct ChunkPiece<'a> {
    width: usize,
    /// Bytes per staged key; 0 when no column is decoded from a key.
    key_width: usize,
    rows: usize,
    /// Rows whose strings are in, and rows whose fixed-width values are.
    taken: usize,
    gathered: usize,
    passes: Vec<Pass<'a>>,
    strings: Vec<StringCol<'a>>,
    /// One mask per column, over this piece's rows.
    validity: Vec<Validity>,
}

/// What a filled piece leaves to be joined: its masks, by column, and
/// whether every string it wrote was checked UTF-8.
pub struct PieceTail {
    validity: Vec<Validity>,
    utf8: bool,
}

impl ChunkBuilder {
    /// Columns of `types` for `rows` rows.
    pub fn new(types: &[LogicalType], rows: usize) -> ChunkBuilder {
        let columns = types.iter().map(|&ty| presized(ty, rows)).collect();
        let varchars = types.iter().filter(|&&ty| ty == LogicalType::Varchar);
        let strings = varchars.map(|_| (Vec::new(), Vec::new())).collect();
        ChunkBuilder {
            columns,
            strings,
            rows,
        }
    }

    /// Cut the columns into `parts` consecutive pieces, piece `p` of
    /// `rows(p)` rows — which must add up to the builder's — each
    /// gathering column `c` from slot `c` of `layout`'s rows. `bytes(p, v)`
    /// is what the `v`-th VARCHAR column holds in piece `p`'s rows: each
    /// such column is sized once to the sum, and each piece writes exactly
    /// its share. [`HEAP_OVERFLOW`] if a column would pass 4 GiB.
    pub fn pieces<'a>(
        &'a mut self,
        layout: &RowLayout,
        (parts, rows): (usize, impl Fn(usize) -> usize),
        bytes: impl Fn(usize, usize) -> usize,
    ) -> Result<Vec<ChunkPiece<'a>>, &'static str> {
        self.pieces_from(layout, ColumnFrom::Slot, 0, (parts, rows), bytes)
    }

    /// [`ChunkBuilder::pieces`], column `c` taken from `from(c)`: a slot of
    /// `layout`'s rows, or a key column of the keys staged beside them,
    /// `key_width` bytes of each — what the key columns decoded need of it
    /// ([`ChunkPiece::gather_keyed`]).
    pub fn pieces_from<'a>(
        &'a mut self,
        layout: &RowLayout,
        from: impl Fn(usize) -> ColumnFrom<'a>,
        key_width: usize,
        (parts, rows): (usize, impl Fn(usize) -> usize),
        bytes: impl Fn(usize, usize) -> usize,
    ) -> Result<Vec<ChunkPiece<'a>>, &'static str> {
        let total = self.rows;
        let from = |col: usize| match from(col) {
            ColumnFrom::Slot(s) => From::Row(s, layout.offset(s), layout.null_flag(s)),
            ColumnFrom::Key {
                decoder,
                at,
                ranked,
            } => From::Key(decoder, at, ranked),
        };
        // Each VARCHAR column's bytes per piece, then the column sized to
        // their sum and cut after its first offset, which stays 0.
        let shares: Vec<usize> = (0..parts)
            .flat_map(|p| (0..self.strings.len()).map(move |v| (p, v)))
            .map(|(p, v)| bytes(p, v))
            .collect();
        let nv = self.strings.len();
        let mut rest = Vec::with_capacity(nv);
        for (v, (offsets, column)) in self.strings.iter_mut().enumerate() {
            let sum: usize = shares.iter().skip(v).step_by(nv).sum();
            heap_offset(sum as u64).ok_or(HEAP_OVERFLOW)?;
            *offsets = vec![0; total + 1];
            *column = vec![0; sum];
            rest.push((&mut offsets[1..], column.as_mut_slice(), 0u32));
        }
        let mut values: Vec<Option<Values<'a>>> =
            self.columns.iter_mut().map(Values::whole).collect();
        let mut pieces = Vec::with_capacity(parts);
        let mut covered = 0;
        for p in 0..parts {
            let n = rows(p);
            covered += n;
            let mut piece = ChunkPiece {
                width: layout.width(),
                key_width,
                rows: n,
                taken: 0,
                gathered: 0,
                passes: Vec::new(),
                strings: Vec::new(),
                validity: vec![Validity::new_valid(n); values.len()],
            };
            for (col, values) in values.iter_mut().enumerate() {
                let from = from(col);
                let Some(values) = values else {
                    let v = piece.strings.len();
                    let (offsets, column, base) = &mut rest[v];
                    let share = shares[p * nv + v];
                    let (these, later) = std::mem::take(offsets).split_at_mut(n);
                    let (bytes, after) = std::mem::take(column).split_at_mut(share);
                    let start = *base;
                    (*offsets, *column, *base) = (later, after, start + share as u32);
                    let (keyed, slot) = match from {
                        From::Row(s, slot, null) => (false, (s, slot, null)),
                        From::Key(..) => {
                            let into = Into::Strings(v);
                            piece.passes.push(Pass { col, from, into });
                            (true, (0, 0, None))
                        }
                    };
                    piece.strings.push(StringCol {
                        col: col as u32,
                        keyed,
                        slot,
                        offsets: these,
                        bytes,
                        base: start,
                        filled: 0,
                    });
                    continue;
                };
                piece.passes.push(Pass {
                    col,
                    from,
                    into: Into::Values(values.split_front(n)),
                });
            }
            pieces.push(piece);
        }
        assert_eq!(covered, total, "pieces must cover the builder's rows");
        Ok(pieces)
    }

    /// Join the filled pieces' tails, in piece order, into the chunk: one
    /// splice per mask, and each VARCHAR column's parts, as the pieces
    /// filled and checked them, made a column. A piece whose strings were
    /// not UTF-8 (rows from [`crate::RowBlock::from_raw_parts`] may carry
    /// any bytes) has its columns read lossily, string by string.
    #[expect(
        clippy::expect_used,
        reason = "every piece was filled to its row count (`ChunkPiece::finish` asserts it) and \
                  the pieces cover the builder's rows, so values and mask are both `rows` long, \
                  and so is every column"
    )]
    pub fn finish(self, tails: Vec<PieceTail>) -> DataChunk {
        let utf8 = tails.iter().all(|t| t.utf8);
        let mut masks: Vec<_> = tails.into_iter().map(|t| t.validity.into_iter()).collect();
        let rows = self.rows;
        let mut strings = self.strings.into_iter();
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
                VectorData::Varchar(_) => {
                    let (mut offsets, bytes) = strings.next().unwrap_or_default();
                    // Columns never cut into pieces hold no strings.
                    offsets.resize(rows + 1, 0);
                    VectorData::Varchar(if utf8 {
                        StringVec::from_checked_parts(offsets, bytes)
                    } else {
                        StringVec::from_parts_lossy(offsets, bytes)
                    })
                }
                fixed => fixed,
            };
            Vector::from_parts(data, validity).expect("equal lengths by construction")
        });
        DataChunk::from_columns(columns.collect()).expect("equal lengths by construction")
    }
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

    /// Take the next row's strings out of `heaps`, where `row`'s VARCHAR
    /// slots point. A NULL contributes an empty string and its slot bytes
    /// are never read. `Err` says why a slot cannot be followed
    /// ([`BAD_STRING_SLOT`]) or its string has no room in the piece
    /// ([`STRINGS_OVERRUN`]); the piece is then no longer usable.
    #[inline]
    pub fn push_strings(&mut self, row: &[u8], heaps: Heaps<'_>) -> Result<(), &'static str> {
        for c in self.strings.iter_mut().filter(|c| !c.keyed) {
            let (s, slot, null_at) = c.slot;
            if null_at.is_some_and(|null| row[null] != 0) {
                self.validity[c.col as usize].set_invalid(self.taken);
            } else {
                let off = u32::from_le_bytes(read_array(row, slot)) as usize;
                let len = u32::from_le_bytes(read_array(row, slot + 4)) as usize;
                let string = heaps.of(s).get(off..off.saturating_add(len));
                c.put(string.ok_or(BAD_STRING_SLOT)?, false)?;
            }
            c.end_row(self.taken);
        }
        self.taken += 1;
        Ok(())
    }

    /// Bytes per key the piece decodes columns from: 0 when it decodes
    /// none, and then needs no keys staged.
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// Take the next `n` rows — the rows whose strings were pushed and not
    /// yet gathered, in that order — from their `rows` and `keys`, staged
    /// back to back: one typed pass per column over the rows' slots, one
    /// decode pass per column given back by the keys. `Err` says why a key
    /// decodes to no value of its column ([`BAD_KEY_MARKER`], [`BAD_RANK`])
    /// or its string has no room in the piece ([`STRINGS_OVERRUN`]); the
    /// piece is then no longer usable.
    ///
    /// # Panics
    /// If that is more rows than the piece has left, or `rows` or `keys`
    /// holds fewer than `n`.
    pub fn gather_keyed(&mut self, rows: &[u8], keys: &[u8], n: usize) -> Result<(), &'static str> {
        if n == 0 {
            return Ok(());
        }
        let (at, kw) = (self.gathered, self.key_width);
        for pass in &mut self.passes {
            let validity = &mut self.validity[pass.col];
            match (pass.from, &mut pass.into) {
                (From::Row(_, slot, null), Into::Values(values)) => {
                    let rows = &rows[..n * self.width];
                    values.gather(rows, self.width, (slot, null), validity, at);
                }
                (From::Key(decoder, off, _), Into::Values(values)) => {
                    values.decode(keys, (kw, off), decoder, validity, (at, n));
                }
                (From::Key(decoder, off, ranked), Into::Strings(i)) => {
                    let Some(c) = self.strings.get_mut(*i) else {
                        continue;
                    };
                    let key = (keys, (kw, off), n);
                    unkey_strings(key, (decoder, ranked), c, validity, at)?;
                }
                // A row's strings are taken when it is named.
                (From::Row(..), Into::Strings(_)) => {}
            }
        }
        self.gathered += n;
        Ok(())
    }

    /// [`ChunkPiece::push_strings`] then [`ChunkPiece::gather_keyed`] for
    /// rows that lie back to back over `heaps`, [`BATCH_ROWS`] at a time,
    /// from a piece that decodes no key.
    pub fn push_rows(&mut self, rows: &[u8], heaps: Heaps<'_>) -> Result<(), &'static str> {
        for batch in rows.chunks(BATCH_ROWS * self.width.max(1)) {
            for row in batch.chunks_exact(self.width) {
                self.push_strings(row, heaps)?;
            }
            self.gather_keyed(batch, &[], batch.len() / self.width)?;
        }
        Ok(())
    }

    /// Close a filled piece: its VARCHAR columns must have filled their
    /// share exactly ([`STRINGS_SHORT`] otherwise), and are checked as
    /// UTF-8 here, on the thread that filled them — one pass per column.
    ///
    /// # Panics
    /// If the piece is not full.
    pub fn finish(self) -> Result<PieceTail, &'static str> {
        assert!(
            self.taken == self.rows && self.gathered == self.rows,
            "piece of {} rows closed at {} / {}",
            self.rows,
            self.taken,
            self.gathered
        );
        if self.strings.iter().any(|c| c.filled != c.bytes.len()) {
            return Err(STRINGS_SHORT);
        }
        Ok(PieceTail {
            utf8: self.strings.iter().all(StringCol::is_utf8),
            validity: self.validity,
        })
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

    /// The bytes of the `v`-th VARCHAR column's strings in rows `rows` of
    /// `block`.
    fn strings_in(block: &RowBlock, rows: std::ops::Range<usize>, v: usize) -> usize {
        let types = block.layout().types().iter().enumerate();
        let mut varchars = types.filter(|(_, &ty)| ty == LogicalType::Varchar);
        let (col, _) = varchars.nth(v).unwrap();
        let valid = rows.filter(|&r| !block.is_null(r, col));
        valid.map(|r| block.string_bytes(r, col).len()).sum()
    }

    /// `block` gathered through pieces of `counts` rows.
    fn in_pieces(block: &RowBlock, counts: &[usize]) -> DataChunk {
        let layout = block.layout();
        let mut builder = ChunkBuilder::new(layout.types(), block.len());
        let start = |p: usize| counts[..p].iter().sum::<usize>();
        let bytes = |p, v| strings_in(block, start(p)..start(p + 1), v);
        let shape = (counts.len(), |p: usize| counts[p]);
        let pieces = builder.pieces(layout, shape, bytes).unwrap();
        let mut at = 0;
        let mut tails = Vec::new();
        for mut piece in pieces {
            let bytes = &block.data()[at * layout.width()..][..piece.rows() * layout.width()];
            assert!(!piece.is_full() || piece.rows() == 0);
            piece.push_rows(bytes, Heaps::One(block.heap())).unwrap();
            assert!(piece.is_full());
            at += piece.rows();
            tails.push(piece.finish().unwrap());
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
        let mut pieces = builder.pieces(&layout, (1, |_| 1), |_, _| 0).unwrap();
        let mut row = vec![0u8; layout.width()];
        row[layout.offset(0)..][..4].copy_from_slice(&3u32.to_le_bytes());
        row[layout.offset(0) + 4..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            pieces[0].push_strings(&row, Heaps::One(b"abcdef")),
            Err(BAD_STRING_SLOT)
        );
    }

    #[test]
    fn strings_that_overrun_their_slice_are_an_error_not_a_write() {
        // Two pieces of one row each, given 2 and 3 bytes: a first row of
        // 3 bytes would write into the second piece's slice, and a row of
        // 2 where 3 were given leaves the slice short.
        let layout = RowLayout::new(&[LogicalType::Varchar]);
        let row = |off: u32, len: u32| {
            let mut row = vec![0u8; layout.width()];
            row[layout.offset(0)..][..4].copy_from_slice(&off.to_le_bytes());
            row[layout.offset(0) + 4..][..4].copy_from_slice(&len.to_le_bytes());
            row
        };
        let mut builder = ChunkBuilder::new(layout.types(), 2);
        let shares = [2, 3];
        let mut pieces = builder
            .pieces(&layout, (2, |_| 1), |p, _| shares[p])
            .unwrap();
        let heap = Heaps::One(b"abcdef");
        assert_eq!(
            pieces[0].push_strings(&row(0, 3), heap),
            Err(STRINGS_OVERRUN)
        );
        assert_eq!(pieces[1].push_strings(&row(0, 2), heap), Ok(()));
        pieces[1].gather_keyed(&row(0, 2), &[], 1).unwrap();
        assert_eq!(pieces.pop().unwrap().finish().err(), Some(STRINGS_SHORT));
        // A column past 4 GiB is cut into no pieces.
        let mut builder = ChunkBuilder::new(layout.types(), 2);
        let huge = |_, _| u32::MAX as usize;
        assert_eq!(
            builder.pieces(&layout, (2, |_| 1), huge).err(),
            Some(HEAP_OVERFLOW)
        );
    }

    #[test]
    #[should_panic(expected = "closed at")]
    fn an_unfilled_piece_does_not_close() {
        let layout = RowLayout::new(&[LogicalType::Int32]);
        let mut builder = ChunkBuilder::new(layout.types(), 2);
        let mut pieces = builder.pieces(&layout, (1, |_| 2), |_, _| 0).unwrap();
        assert!(pieces.pop().unwrap().finish().is_err());
    }

    #[test]
    fn columns_decode_from_keys_beside_row_slots_and_bad_keys_are_errors() {
        use rowsort_normkey::{encode_value_into, KeyColumn, KeyRange};
        use rowsort_vector::SortSpec;
        // Output: an INT decoded from a DESC range code, a VARCHAR from
        // a prefix that holds it whole, a rank-coded VARCHAR, and a
        // UINT32 from the rows' one slot.
        let int = KeyColumn::ranged(
            LogicalType::Int32,
            SortSpec::DESC,
            KeyRange {
                lo: 0x8000_0000 - 5,
                hi: 0x8000_0000 + 5,
                nulls: true,
            },
        );
        let text = KeyColumn::varchar_with_prefix(SortSpec::DESC, 3, 12);
        let ranked = KeyColumn::ranked(KeyColumn::varchar(SortSpec::ASC, 20), 2, false);
        let key_columns = [int, text, ranked];
        let offsets = [
            0,
            int.encoded_width(),
            int.encoded_width() + text.encoded_width(),
        ];
        let kw = offsets[2] + ranked.encoded_width();
        let dictionary = StringVec::from_parts_lossy(vec![0, 5, 10], b"appleberry".to_vec());
        let rows_of_rank = [1u32, 0];
        let mut types = vec![
            LogicalType::Int32,
            LogicalType::Varchar,
            LogicalType::Varchar,
        ];
        types.push(LogicalType::UInt32);
        let layout = RowLayout::new(&[LogicalType::UInt32]);
        let values = [
            (Value::Int32(-5), Value::from("ab"), 0u64, 7u32),
            (Value::Null, Value::Null, 1, 8),
            (Value::Int32(5), Value::from(""), 0, 9),
        ];
        let mut keys = vec![0u8; values.len() * kw];
        let mut rows = vec![0u8; values.len() * layout.width()];
        for (i, (n, s, rank, id)) in values.iter().enumerate() {
            let key = &mut keys[i * kw..(i + 1) * kw];
            encode_value_into(n, &int, &mut key[..offsets[1]]);
            encode_value_into(s, &text, &mut key[offsets[1]..offsets[2]]);
            let rank = Value::UInt64(*rank);
            let as_int =
                KeyColumn::ranged(LogicalType::UInt64, SortSpec::ASC, ranked.range.unwrap());
            encode_value_into(&rank, &as_int, &mut key[offsets[2]..]);
            let row = &mut rows[i * layout.width()..(i + 1) * layout.width()];
            row[layout.offset(0)..][..4].copy_from_slice(&id.to_le_bytes());
        }
        let gathered = |keys: &[u8]| {
            let mut builder = ChunkBuilder::new(&types, values.len());
            let from = |c: usize| match c {
                3 => ColumnFrom::Slot(0),
                k => ColumnFrom::Key {
                    decoder: KeyDecoder::new(&key_columns[k]),
                    at: offsets[k],
                    ranked: (k == 2).then_some(RankedStrings {
                        strings: &dictionary,
                        rows: &rows_of_rank,
                    }),
                },
            };
            let tail = {
                // "ab" and "", then "berry", "apple" and "berry".
                let shape = (1, |_| values.len());
                let strings = |_, v: usize| [2, 15][v];
                let mut pieces = builder.pieces_from(&layout, from, kw, shape, strings)?;
                let mut piece = pieces.pop().unwrap();
                for row in rows.chunks_exact(layout.width()) {
                    piece.push_strings(row, Heaps::One(&[])).unwrap();
                }
                piece.gather_keyed(&rows, keys, values.len())?;
                piece.finish()?
            };
            Ok::<_, &str>(builder.finish(vec![tail]))
        };
        let want: Vec<Vec<Value>> = values
            .iter()
            .map(|(n, s, rank, id)| {
                let name = ["berry", "apple"][*rank as usize];
                vec![n.clone(), s.clone(), Value::from(name), Value::UInt32(*id)]
            })
            .collect();
        assert_eq!(gathered(&keys).unwrap().to_rows(), want);
        // A rank past the dictionary, and a marker past the prefix: errors.
        let mut bad_rank = keys.clone();
        bad_rank[kw - 1] = 2;
        assert_eq!(gathered(&bad_rank).err(), Some(BAD_RANK));
        let mut bad_marker = keys.clone();
        bad_marker[offsets[2] - 1] = !13;
        assert_eq!(gathered(&bad_marker).err(), Some(BAD_KEY_MARKER));
    }
}
