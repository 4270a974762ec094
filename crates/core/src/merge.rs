//! The one k-way merge kernel (DESIGN.md §11.4): a tree of losers over
//! [`RunSource`]s emitting into a [`VectorSink`], with what its matches are
//! decided on — offset-value codes, the keys themselves, or nothing — as a
//! const parameter.
//!
//! Every merge of the sorter (`crate::sorter`) is this loop, once per key
//! range, with codes or without: where the head record lives is the only
//! thing that differs between merges. (The [`crate::systems`] profiles
//! keep their own merges: they model other engines.)

use crate::keys::word;
use crate::metrics::{Counter, CounterRegistry};
use crate::ovc::{self, MergeCodes};
use crate::pool::SortPool;
use crate::run::{ColumnSource, RowPlan, SortedRun, TableStats};
use crate::spill::SpillError;
use rowsort_algos::kway::{OvcLoserTree, OvcMatch};
use rowsort_algos::rows::copy_row;
use rowsort_normkey::{KeyDecoder, NormKeyLayout};
use rowsort_row::{
    ChunkBuilder, ChunkPiece, ColumnFrom, Heaps, PieceTail, RankedStrings, BATCH_ROWS,
};
use rowsort_vector::{DataChunk, LogicalType};
use std::cmp::Ordering;
use std::path::Path;

/// Lexicographically compare two equal-length byte-comparable keys with
/// big-endian word loads instead of a `memcmp` call. Overlapping windows
/// are sound here: when the leading window ties, the overlapped bytes are
/// known equal, so comparing the trailing window compares the remainder.
#[inline]
pub(crate) fn cmp_keys(a: &[u8], b: &[u8]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if (4..=8).contains(&n) {
        let a0 = u32::from_be_bytes(word::<4>(a, 0));
        let b0 = u32::from_be_bytes(word::<4>(b, 0));
        if a0 != b0 {
            return a0.cmp(&b0);
        }
        let a1 = u32::from_be_bytes(word::<4>(a, n - 4));
        let b1 = u32::from_be_bytes(word::<4>(b, n - 4));
        a1.cmp(&b1)
    } else if n > 8 && n <= 16 {
        let a0 = u64::from_be_bytes(word::<8>(a, 0));
        let b0 = u64::from_be_bytes(word::<8>(b, 0));
        if a0 != b0 {
            return a0.cmp(&b0);
        }
        let a1 = u64::from_be_bytes(word::<8>(a, n - 8));
        let b1 = u64::from_be_bytes(word::<8>(b, n - 8));
        a1.cmp(&b1)
    } else {
        a.cmp(b)
    }
}

/// One sorted input of a merge, positioned on its head record.
///
/// While not `exhausted`, `key` / `row` / `heap` describe the head: the
/// normalized key, the payload row, and the heap the row's VARCHAR slots
/// index into (a lone resident run's rows index into the input columns
/// instead, which its sink is given: [`VectorSink::new`]). `code` is the head's offset-value code relative to the
/// record before it in this source (the first record against −∞) — what
/// a run's code column stores. Only an OVC merge reads it: a key-coded
/// merge codes each head from its [`RunSource::key_window`], and an
/// uncoded one hands the tree `0` for every live head.
pub(crate) trait RunSource {
    fn exhausted(&self) -> bool;
    fn key(&self) -> &[u8];
    fn code(&self) -> u64;
    /// The 8 bytes from the head key's first, big-endian, zero past the
    /// end of the buffer the key lives in: one load, whose bytes past a
    /// short key [`ovc::key_mask`] masks off.
    fn key_window(&self) -> u64;
    fn row(&self) -> &[u8];
    fn heap(&self) -> &[u8];
    /// Step to the next record, or past the last one (`exhausted`). A
    /// file-backed source fetches, verifies and decodes here — and past
    /// its run's last record checks that the file ends — so this is
    /// where a corrupt or unreadable run surfaces.
    fn advance(&mut self) -> Result<(), SpillError>;
    /// Names the source in errors a sink raises about its records.
    fn path(&self) -> &Path;
}

/// A sink was handed more records than it was sized for: a run that
/// holds more records than it advertised, or a caller that miscounted.
const OUTPUT_FULL: &str = "merge output smaller than its inputs";

/// An in-memory cursor over rows `pos..end` of a borrowed [`SortedRun`] —
/// one key range of it, or all of it. The run's columns are held as
/// slices, so a head access is one bounds-checked index.
pub(crate) struct MemSource<'a> {
    keys: &'a [u8],
    codes: &'a [u8],
    rows: &'a [u8],
    heap: &'a [u8],
    kw: usize,
    width: usize,
    pos: usize,
    end: usize,
    /// The head's code. The range's first head is coded against −∞: its
    /// stored code is relative to a row the range does not hold (for row
    /// 0 the two agree). Later heads take the run's stored column.
    code: u64,
}

// The in-memory merge's speed hangs on this struct's size, not only on
// what its loop reads: holding a 32-byte `Heaps` for the 16-byte `heap`
// slice — a field no `ints_mem` path read — took that workload's merge
// from 29 to 37 ms a query (1 M `u32` rows, 2 threads, a 2-core host,
// three alternating rounds of `Engine::query_profiled`; CHANGES.md has
// the measurement). A change that grows a merge source changes this
// assertion and says what it measured.
const _: () = assert!(std::mem::size_of::<MemSource<'static>>() == 104);

impl<'a> MemSource<'a> {
    /// A cursor over rows `pos..end` of `run`.
    pub(crate) fn range(run: &'a SortedRun, pos: usize, end: usize) -> MemSource<'a> {
        let kw = run.key_width;
        let code = match run.keys.get(pos * kw..(pos + 1) * kw) {
            Some(key) if pos < end => ovc::initial_code(key, ovc::word_count(kw)),
            _ => 0,
        };
        MemSource {
            keys: &run.keys,
            codes: &run.ovc,
            rows: run.payload.data(),
            heap: run.payload.heap(),
            kw,
            width: run.payload.width(),
            pos,
            end,
            code,
        }
    }
}

impl RunSource for MemSource<'_> {
    #[inline]
    fn exhausted(&self) -> bool {
        self.pos >= self.end
    }
    #[inline]
    fn key(&self) -> &[u8] {
        &self.keys[self.pos * self.kw..(self.pos + 1) * self.kw]
    }
    #[inline]
    fn code(&self) -> u64 {
        self.code
    }
    #[inline]
    fn key_window(&self) -> u64 {
        ovc::key_window(self.keys, self.pos * self.kw)
    }
    #[inline]
    fn row(&self) -> &[u8] {
        &self.rows[self.pos * self.width..(self.pos + 1) * self.width]
    }
    #[inline]
    fn heap(&self) -> &[u8] {
        self.heap
    }
    #[inline]
    fn advance(&mut self) -> Result<(), SpillError> {
        self.pos += 1;
        self.code = ovc::read_code(self.codes, self.pos);
        Ok(())
    }
    fn path(&self) -> &Path {
        Path::new("<in-memory run>")
    }
}

/// Where a merge writes its winners: one key range's share of the output
/// columns ([`ChunkPiece`]). A winner's strings leave its source's heap at
/// once — a spilled run's is a block buffer the next `advance` may replace
/// — and its row bytes are staged, [`BATCH_ROWS`] at a time and with as
/// much of its key as the piece decodes columns from, for the piece's one
/// typed pass per column while the batch is still in L1. No merged row run
/// is ever built.
pub(crate) struct VectorSink<'a> {
    piece: ChunkPiece<'a>,
    /// Where the rows' strings are when they are not in their source's
    /// heap: a lone resident run's input columns.
    heaps: Option<Heaps<'a>>,
    /// Room for a batch of rows, then of their keys (one pooled buffer).
    staged: Vec<u8>,
    /// Where the keys start in `staged`, and rows staged.
    keys_at: usize,
    rows: usize,
}

impl<'a> VectorSink<'a> {
    /// A sink into `piece`, its rows' strings in `heaps` where given, else
    /// in each source's heap.
    pub(crate) fn new(
        piece: ChunkPiece<'a>,
        heaps: Option<Heaps<'a>>,
        pool: SortPool<'_>,
    ) -> VectorSink<'a> {
        let keys_at = BATCH_ROWS * piece.row_width();
        let batch = keys_at + BATCH_ROWS * piece.key_width();
        let mut staged = pool.get_bytes(batch);
        staged.resize(batch, 0);
        VectorSink {
            piece,
            heaps,
            staged,
            keys_at,
            rows: 0,
        }
    }

    /// Gather the staged rows into the piece: their slots, and the columns
    /// their keys give back. `path` names the source in an error.
    fn gather(&mut self, path: &Path) -> Result<(), SpillError> {
        let (width, kw, n) = (self.piece.row_width(), self.piece.key_width(), self.rows);
        let (rows, keys) = self.staged.split_at(self.keys_at);
        self.rows = 0;
        self.piece
            .gather_keyed(&rows[..n * width], &keys[..n * kw], n)
            .map_err(|detail| SpillError::corrupt(path, detail))
    }

    /// Gather the last, partial batch and close the piece (its strings
    /// are checked as UTF-8 here, on the merging thread). Strings that do
    /// not fill the bytes the range was given are corrupt: a run whose
    /// index and records disagree.
    pub(crate) fn finish(mut self, pool: SortPool<'_>) -> Result<PieceTail, SpillError> {
        let output = Path::new("<merge output>");
        self.gather(output)?;
        pool.put_bytes(self.staged);
        self.piece
            .finish()
            .map_err(|detail| SpillError::corrupt(output, detail))
    }

    /// Take the head record of `src` into the next row of the piece.
    #[inline]
    fn emit<S: RunSource>(&mut self, src: &S) -> Result<(), SpillError> {
        if self.piece.is_full() {
            return Err(SpillError::corrupt(src.path(), OUTPUT_FULL));
        }
        let row = src.row();
        // The record came out of a verified block or a run in memory, so
        // only a bug upstream fails here — as an error, not as an
        // out-of-bounds copy.
        self.piece
            .push_strings(row, self.heaps.unwrap_or(Heaps::One(src.heap())))
            .map_err(|detail| SpillError::corrupt(src.path(), detail))?;
        let (width, kw, i) = (row.len(), self.piece.key_width(), self.rows);
        copy_row(&mut self.staged[i * width..(i + 1) * width], row);
        if kw > 0 {
            let at = self.keys_at + i * kw;
            copy_row(&mut self.staged[at..at + kw], &src.key()[..kw]);
        }
        self.rows += 1;
        if self.rows == BATCH_ROWS {
            self.gather(src.path())?;
        }
        Ok(())
    }
}

/// Bytes a merge into vectors wrote to `chunk`'s columns: every fixed-width
/// value, a 4-byte offset per string, and the strings' bytes — the
/// `bytes_moved` of a row's last move, the same at every thread count.
pub(crate) fn column_bytes(chunk: &DataChunk) -> u64 {
    let bytes = |col: &rowsort_vector::Vector| match col.as_strings() {
        Some(strings) => 4 * strings.len() + strings.total_bytes(),
        None => col.logical_type().fixed_width().unwrap_or(0) * col.len(),
    };
    chunk.columns().iter().map(bytes).sum::<usize>() as u64
}

/// How one sort's merges compare two head records, and what a record
/// holds — derived once per sort from the key layout, not per merge or
/// per task.
#[derive(Clone, Copy)]
pub(crate) struct MergeOrder<'a> {
    /// Bytes per normalized key (identical across all runs of a sort).
    pub(crate) kw: usize,
    /// Byte-equal keys may hide unequal tuples (a truncated VARCHAR
    /// prefix, [`crate::keys::KeyBlock::tie_possible`]): consult the row
    /// plan's tie comparator on them.
    pub(crate) tie_possible: bool,
    /// The sort's payload row.
    pub(crate) rows: &'a RowPlan,
    /// The sort's key.
    pub(crate) key: &'a NormKeyLayout,
    /// The statistics the sort planned from, and its input: where a
    /// rank-coded column's ranks name strings, and where a lone resident
    /// run's rows keep theirs.
    pub(crate) table: &'a TableStats,
    pub(crate) input: &'a DataChunk,
}

impl<'a> MergeOrder<'a> {
    /// Where the output takes input column `c` from: a slot of the rows,
    /// or the key, which holds it exactly — a rank-coded column through
    /// the dictionary of the sort's statistics.
    pub(crate) fn column_from(&self, c: usize) -> ColumnFrom<'a> {
        match self.rows.from[c] {
            ColumnSource::Slot(slot) => ColumnFrom::Slot(slot),
            ColumnSource::Key(k) => {
                let column = &self.key.columns()[k];
                let ranked = (column.ty == LogicalType::Varchar && column.range.is_some())
                    .then(|| self.input.column(c).as_strings())
                    .flatten()
                    .map(|strings| RankedStrings {
                        strings,
                        rows: self.table.rank_rows(c),
                    });
                ColumnFrom::Key {
                    decoder: KeyDecoder::new(column),
                    at: self.key.offset(k),
                    ranked,
                }
            }
        }
    }

    /// `builder`'s columns cut into `parts` consecutive pieces, piece `p`
    /// of `rows(p)` rows whose `v`-th VARCHAR column holds `bytes(p, v)`
    /// bytes, every column taken from where [`MergeOrder::column_from`]
    /// says.
    pub(crate) fn pieces<'b>(
        &self,
        builder: &'b mut ChunkBuilder,
        shape: (usize, impl Fn(usize) -> usize),
        bytes: impl Fn(usize, usize) -> usize,
    ) -> Result<Vec<ChunkPiece<'b>>, &'static str>
    where
        'a: 'b,
    {
        let (key, row) = (self.key, self.rows);
        // The sinks stage each key only up to the end of the last column
        // they decode: `strings_mem`'s 1-byte rank of a 27-byte key.
        let decoded = row.from.iter().filter_map(|f| match *f {
            ColumnSource::Key(k) => Some(key.offset(k) + key.columns()[k].encoded_width()),
            ColumnSource::Slot(_) => None,
        });
        let staged = decoded.max().unwrap_or(0);
        let from = |c| self.column_from(c);
        builder.pieces_from(&row.layout, from, staged, shape, bytes)
    }
}

/// Comparator work done by one merge, flushed to the registry by the
/// caller (a relaxed atomic add per comparison would put a contended
/// cache line in the hottest loop of the sort).
#[derive(Default)]
pub(crate) struct MergeStats {
    pub(crate) cmps: u64,
    pub(crate) ovc_resolved: u64,
    pub(crate) key_bytes: u64,
}

impl MergeStats {
    /// Add this merge's comparator work to `metrics`.
    pub(crate) fn flush(&self, metrics: &CounterRegistry) {
        metrics.add(Counter::MergeCmps, self.cmps);
        metrics.add(Counter::MergeCmpsOvcResolved, self.ovc_resolved);
        metrics.add(Counter::MergeKeyBytesTouched, self.key_bytes);
    }
}

impl MergeOrder<'_> {
    /// One loser-tree match between live heads `a` and `b` whose codes
    /// `ca`, `cb` tie (the tree settles unequal codes itself, and counts
    /// them). Under OVC only the suffix past the shared coded word is
    /// compared. Key codes tie only on byte-equal keys, so no key byte is
    /// read, and the loser keeps its code: it is its key, whoever beat it
    /// (`compare_update` would re-code it to 0 against the winner, which
    /// no later head's key code is relative to). Uncoded, every live code
    /// is `0`, so every match comes here as a whole-key compare. Whatever
    /// the codes, the row tiebreak runs only on full key equality, and a
    /// full tie goes to the lower input (`a_first`) — a stable merge by
    /// run index, so every kind of code merges the same rows in the same
    /// order.
    #[inline]
    fn play<const CODES: u8, S: RunSource>(
        &self,
        (a, ca): (&S, u64),
        (b, cb): (&S, u64),
        a_first: bool,
        stats: &mut MergeStats,
    ) -> OvcMatch {
        stats.cmps += 1;
        let (ord, loser_code) = if CODES == MergeCodes::Ovc as u8 {
            let r = ovc::compare_update(a.key(), ca, b.key(), cb, ovc::word_count(self.kw));
            stats.ovc_resolved += u64::from(r.resolved);
            stats.key_bytes += r.key_bytes;
            (r.ord, r.loser_code)
        } else if CODES == MergeCodes::Key as u8 {
            // Byte-equal keys: the run index or the row comparator settles
            // the match, not the codes (as `compare_update` counts a tie
            // its suffix scan finds equal) — with no key byte read.
            (Ordering::Equal, ca)
        } else {
            stats.key_bytes += 2 * self.kw as u64;
            (cmp_keys(a.key(), b.key()), 0)
        };
        let ord = match ord {
            Ordering::Equal if self.tie_possible => {
                self.rows
                    .tie_cmp
                    .compare(a.row(), a.heap(), b.row(), b.heap())
            }
            ord => ord,
        };
        OvcMatch {
            a_beats_b: ord == Ordering::Less || (ord == Ordering::Equal && a_first),
            loser_code,
        }
    }
}

/// Merge `rows` records from `sources` into `sink`: ⌈log₂ k⌉ matches per
/// emitted record, each record moved once. One source drains straight
/// through (a one-leaf tree plays no matches); none emits nothing. An
/// exhausted source enters the tree as its fence, so the one exhaustion
/// check is per emitted record, not per match.
///
/// Under [`MergeCodes::Ovc`] every source must carry codes, heads coded
/// against −∞ — the common base the tournament starts from. After an
/// emission the winner's next head is coded against the record just
/// emitted, the same base every resident loser on its root path was
/// re-coded against. Under [`MergeCodes::Key`] a head's code is its key
/// and has no base at all.
///
/// On return every source has been advanced past its last record, so
/// a file-backed source whose range ends its run has checked that the
/// file ends there before the output escapes.
pub(crate) fn merge_kway<const CODES: u8, S: RunSource>(
    order: &MergeOrder<'_>,
    tree: &mut OvcLoserTree,
    sources: &mut [S],
    rows: usize,
    sink: &mut VectorSink<'_>,
) -> Result<MergeStats, SpillError> {
    let mut stats = MergeStats::default();
    if sources.is_empty() {
        return Ok(stats);
    }
    let mask = ovc::key_mask(order.kw);
    let srcs = &*sources;
    let mut decided = tree.rebuild(
        srcs.len(),
        |i| leaf_code::<CODES, S>(&srcs[i], mask),
        |a, b, ca, cb| order.play::<CODES, S>((&srcs[a], ca), (&srcs[b], cb), a < b, &mut stats),
    );
    for _ in 0..rows {
        let w = tree.winner();
        sink.emit(&sources[w])?;
        sources[w].advance()?;
        let srcs = &*sources;
        decided += tree.replay(
            w,
            leaf_code::<CODES, S>(&srcs[w], mask),
            &mut |a, b, ca, cb| {
                order.play::<CODES, S>((&srcs[a], ca), (&srcs[b], cb), a < b, &mut stats)
            },
        );
    }
    // A match the tree settled on unequal codes is one compare, resolved
    // on the codes — as `compare_update` counts it (none uncoded: every
    // live head is coded 0 there, so codes never differ).
    stats.cmps += decided;
    stats.ovc_resolved += decided;
    for src in sources.iter_mut().filter(|s| !s.exhausted()) {
        src.advance()?;
    }
    Ok(stats)
}

/// [`merge_kway`] on the codes `codes` names: the one place a merge's
/// choice of codes becomes the kernel's const parameter.
pub(crate) fn merge_coded<S: RunSource>(
    codes: MergeCodes,
    order: &MergeOrder<'_>,
    tree: &mut OvcLoserTree,
    sources: &mut [S],
    rows: usize,
    sink: &mut VectorSink<'_>,
) -> Result<MergeStats, SpillError> {
    const NONE: u8 = MergeCodes::None as u8;
    const OVC: u8 = MergeCodes::Ovc as u8;
    const KEY: u8 = MergeCodes::Key as u8;
    match codes {
        MergeCodes::None => merge_kway::<NONE, S>(order, tree, sources, rows, sink),
        MergeCodes::Ovc => merge_kway::<OVC, S>(order, tree, sources, rows, sink),
        MergeCodes::Key => merge_kway::<KEY, S>(order, tree, sources, rows, sink),
    }
}

/// The code `src`'s head enters the tree with: the fence once it is
/// exhausted, its stored code under OVC, its key masked by `mask` under
/// key codes (never the fence: a key code's low byte is zero), else `0` —
/// a source may carry a nonzero code in an uncoded merge (a range's
/// first head is coded against −∞ either way), and the tree would let
/// that code decide a match.
#[inline]
fn leaf_code<const CODES: u8, S: RunSource>(src: &S, mask: u64) -> u64 {
    if src.exhausted() {
        OvcLoserTree::FENCE
    } else if CODES == MergeCodes::Ovc as u8 {
        src.code()
    } else if CODES == MergeCodes::Key as u8 {
        src.key_window() & mask
    } else {
        0
    }
}
