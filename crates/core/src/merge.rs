//! The one k-way merge kernel (DESIGN.md §11.4): a tree of losers over
//! [`RunSource`]s emitting into a [`VectorSink`], with offset-value coding
//! as a const parameter.
//!
//! Every merge of the sorter (`crate::sorter`) is this loop, once per key
//! range, with codes or without: where the head record lives is the only
//! thing that differs between merges. (The [`crate::systems`] profiles
//! keep their own merges: they model other engines.)

use crate::comparator::FusedRowComparator;
use crate::keys::word;
use crate::metrics::{Counter, CounterRegistry};
use crate::ovc;
use crate::pool::SortPool;
use crate::run::SortedRun;
use crate::spill::SpillError;
use rowsort_algos::kway::{OvcLoserTree, OvcMatch};
use rowsort_row::{ChunkPiece, PieceTail, BATCH_ROWS};
use rowsort_vector::DataChunk;
use std::cmp::Ordering;
use std::path::Path;

/// Copy a small runtime-length slice with a pair of overlapping
/// fixed-width loads/stores instead of a `memcpy` call — the sink stages
/// one row (~8–24 bytes) per winner, where the call overhead of a
/// runtime-length `memcpy` dominates the copy itself.
#[inline]
fn copy_small(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = src.len();
    if n >= 16 && n <= 32 {
        let a = u128::from_ne_bytes(word::<16>(src, 0));
        let b = u128::from_ne_bytes(word::<16>(src, n - 16));
        dst[..16].copy_from_slice(&a.to_ne_bytes());
        dst[n - 16..].copy_from_slice(&b.to_ne_bytes());
    } else if n >= 8 && n < 16 {
        let a = u64::from_ne_bytes(word::<8>(src, 0));
        let b = u64::from_ne_bytes(word::<8>(src, n - 8));
        dst[..8].copy_from_slice(&a.to_ne_bytes());
        dst[n - 8..].copy_from_slice(&b.to_ne_bytes());
    } else if n >= 4 && n < 8 {
        let a = u32::from_ne_bytes(word::<4>(src, 0));
        let b = u32::from_ne_bytes(word::<4>(src, n - 4));
        dst[..4].copy_from_slice(&a.to_ne_bytes());
        dst[n - 4..].copy_from_slice(&b.to_ne_bytes());
    } else {
        dst.copy_from_slice(src);
    }
}

/// Lexicographically compare two equal-length byte-comparable keys with
/// big-endian word loads instead of a `memcmp` call. Overlapping windows
/// are sound here: when the leading window ties, the overlapped bytes are
/// known equal, so comparing the trailing window compares the remainder.
#[inline]
pub(crate) fn cmp_keys(a: &[u8], b: &[u8]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if n >= 4 && n <= 8 {
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
/// index into. `code` is the head's offset-value code relative to the
/// record before it in this source (the first record against −∞) — what
/// a run's code column stores. Only a coded merge reads it: without OVC
/// the kernel hands the tree `0` for every live head instead.
pub(crate) trait RunSource {
    fn exhausted(&self) -> bool;
    fn key(&self) -> &[u8];
    fn code(&self) -> u64;
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
/// — and its row bytes are staged, [`BATCH_ROWS`] at a time, for the
/// piece's one typed pass per column while the batch is still in L1. No
/// merged row run is ever built.
pub(crate) struct VectorSink<'a> {
    piece: ChunkPiece<'a>,
    /// Room for a batch of rows (pooled), `filled` bytes of it staged.
    staged: Vec<u8>,
    filled: usize,
}

impl<'a> VectorSink<'a> {
    pub(crate) fn new(piece: ChunkPiece<'a>, pool: SortPool<'_>) -> VectorSink<'a> {
        let batch = BATCH_ROWS * piece.row_width();
        let mut staged = pool.get_bytes(batch);
        staged.resize(batch, 0);
        VectorSink {
            piece,
            staged,
            filled: 0,
        }
    }

    /// Gather the last, partial batch and close the piece (its strings
    /// are checked as UTF-8 here, on the merging thread).
    pub(crate) fn finish(mut self, pool: SortPool<'_>) -> PieceTail {
        self.piece.gather(&self.staged[..self.filled]);
        pool.put_bytes(self.staged);
        self.piece.finish()
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
            .push_strings(row, src.heap())
            .map_err(|detail| SpillError::corrupt(src.path(), detail))?;
        let end = self.filled + row.len();
        copy_small(&mut self.staged[self.filled..end], row);
        self.filled = end;
        if end == self.staged.len() {
            self.piece.gather(&self.staged);
            self.filled = 0;
        }
        Ok(())
    }
}

/// What each VARCHAR column of `input` holds in bytes, by column — what a
/// sort of `input` into vectors should expect its output columns to hold
/// ([`rowsort_row::ChunkBuilder::pieces`]); 0 for other columns.
pub(crate) fn string_bytes(input: &DataChunk) -> impl Fn(usize) -> usize + '_ {
    |col| {
        input
            .column(col)
            .as_strings()
            .map_or(0, |s| s.total_bytes())
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

/// How one sort's merges compare two head records — derived once per
/// sort from the key layout, not per merge or per task.
pub(crate) struct MergeOrder<'a> {
    /// Bytes per normalized key (identical across all runs of a sort).
    pub(crate) kw: usize,
    /// Byte-equal keys may hide unequal tuples (a truncated VARCHAR
    /// prefix, [`crate::keys::KeyBlock::tie_possible`]): consult `tie_cmp` on
    /// them.
    pub(crate) tie_possible: bool,
    pub(crate) tie_cmp: &'a FusedRowComparator,
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
    /// compared; without it every live code is `0`, so every match comes
    /// here as a whole-key compare. Either way the row tiebreak
    /// runs only on full key equality, and a full tie goes to the lower
    /// input (`a_first`) — a stable merge by run index, so OVC on and off
    /// merge the same rows in the same order.
    #[inline]
    fn play<const OVC: bool, S: RunSource>(
        &self,
        (a, ca): (&S, u64),
        (b, cb): (&S, u64),
        a_first: bool,
        stats: &mut MergeStats,
    ) -> OvcMatch {
        stats.cmps += 1;
        let (ord, loser_code) = if OVC {
            let r = ovc::compare_update(a.key(), ca, b.key(), cb, ovc::word_count(self.kw));
            stats.ovc_resolved += u64::from(r.resolved);
            stats.key_bytes += r.key_bytes;
            (r.ord, r.loser_code)
        } else {
            stats.key_bytes += 2 * self.kw as u64;
            (cmp_keys(a.key(), b.key()), 0)
        };
        let ord = match ord {
            Ordering::Equal if self.tie_possible => {
                self.tie_cmp.compare(a.row(), a.heap(), b.row(), b.heap())
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
/// With `OVC` every source must carry codes, heads coded against −∞ — the
/// common base the tournament starts from. After an emission the winner's
/// next head is coded against the record just emitted, the same base
/// every resident loser on its root path was re-coded against.
///
/// On return every source has been advanced past its last record, so
/// a file-backed source whose range ends its run has checked that the
/// file ends there before the output escapes.
pub(crate) fn merge_kway<const OVC: bool, S: RunSource>(
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
    let srcs = &*sources;
    let mut decided = tree.rebuild(
        srcs.len(),
        |i| leaf_code::<OVC, S>(&srcs[i]),
        |a, b, ca, cb| order.play::<OVC, S>((&srcs[a], ca), (&srcs[b], cb), a < b, &mut stats),
    );
    for _ in 0..rows {
        let w = tree.winner();
        sink.emit(&sources[w])?;
        sources[w].advance()?;
        let srcs = &*sources;
        decided += tree.replay(w, leaf_code::<OVC, S>(&srcs[w]), &mut |a, b, ca, cb| {
            order.play::<OVC, S>((&srcs[a], ca), (&srcs[b], cb), a < b, &mut stats)
        });
    }
    // A match the tree settled on unequal codes is one compare, resolved
    // on the codes — as `compare_update` counts it (none without OVC:
    // every live head is coded 0 there, so codes never differ).
    stats.cmps += decided;
    stats.ovc_resolved += decided;
    for src in sources.iter_mut().filter(|s| !s.exhausted()) {
        src.advance()?;
    }
    Ok(stats)
}

/// The code `src`'s head enters the tree with: the fence once it is
/// exhausted, its stored code under `OVC`, else `0` — a source may carry
/// a nonzero code without OVC (a range's first head is coded against −∞
/// either way), and the tree would let that code decide a match.
#[inline]
fn leaf_code<const OVC: bool, S: RunSource>(src: &S) -> u64 {
    if src.exhausted() {
        OvcLoserTree::FENCE
    } else if OVC {
        src.code()
    } else {
        0
    }
}
