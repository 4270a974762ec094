//! Out-of-core sorting — the paper's §IX future work: the one sorter
//! (DESIGN.md §11) with runs that are encoded, so performance degrades
//! gracefully instead of the query failing.
//!
//! What this facade adds to the sorter: where a finished run goes. Each
//! is *spilled* as self-contained records (`key ‖ code ‖ payload row ‖
//! string segment`) in hash-sealed blocks of at most 64 KiB, streamed
//! through one pooled buffer; what the merge needs to find its way around
//! a file — one index entry per block, the run's sample keys — stays in
//! memory beside the run handle ([`Run`]). The merge reads a run through
//! a [`RunCursor`] that decodes one record at a time in place from its
//! current verified block, and cuts it from its block index plus one
//! block read per splitter. At most [`SPILL_WORKERS`] workers build runs,
//! from buffers that end with the spill phase, so run generation holds at
//! most that many runs at any core count.
//!
//! Storage is reached only through the [`SpillIo`] trait (`std::fs` by
//! default, a fault-injecting in-memory backend in tests), and the spill
//! path defends itself (DESIGN.md §8):
//!
//! * every block of a run file ends in an xxHash64 of its bytes, seeded
//!   with its ordinal and verified before a record is decoded from it —
//!   truncation, bit flips, misplaced blocks or trailing garbage surface
//!   as a typed [`SpillError::Corrupt`], never as wrong rows; nothing
//!   read from a file sizes an allocation, steers a seek or sets a count;
//! * transient write failures are retried with doubling backoff
//!   ([`MAX_WRITE_RETRIES`], from [`RETRY_BACKOFF`]);
//! * out-of-space errors degrade the sort to runs kept in memory — the
//!   same runs, encoded as they would have been on disk — instead of
//!   failing the query;
//! * a drop-guard deletes every spilled file on all exit paths, and
//!   deletions that *fail* are counted in `spill_cleanup_failed` so leaks
//!   are observable rather than silent.

use crate::keys::word;
use crate::merge::{cmp_keys, MergeOrder, RunSource};
use crate::metrics::{Counter, CounterRegistry, Metrics, Phase, SortProfile};
use crate::ovc;
use crate::pool::{BufferPool, SortPool};
use crate::resources::SortResources;
use crate::run::{KeyPlan, RowPlan, SortedRun, TableStats};
use crate::sorter::{lower_bound, MergePlan, SorterCore, StoredRun};
use crate::spill::{SpillError, SpillIo, SpillOp, StdFs};
use crate::workers::WorkerPool;
use rowsort_algos::rows::copy_row;
use rowsort_testkit::hash::XxHash64;
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::cmp::Ordering;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed for the block checksums ("ROWSORT!" as bytes), so they are
/// distinguishable from unseeded digests of the same bytes. Block `b` is
/// hashed under `SPILL_CHECKSUM_SEED ^ b`: a valid block in the wrong
/// place fails like a damaged one.
const SPILL_CHECKSUM_SEED: u64 = 0x524F_5753_4F52_5421;

/// Most bytes in one run-file block, its header (block 0) and hash
/// included: a reader's pooled buffer is exactly the pool's 64 KiB class.
/// A record that alone exceeds it gets a block of its own.
const BLOCK_BYTES: usize = 64 * 1024;

/// Bytes of xxHash64 closing every block.
const HASH_BYTES: usize = 8;

/// Magic prefix of every run file ("RowSort RuN"). The 8-byte header —
/// magic, format version, feature flags — opens block 0 and is hashed
/// with it, so a tampered header is caught even when its fields happen
/// to parse.
const SPILL_MAGIC: [u8; 4] = *b"RSRN";

/// Run-file format version. Version 2 added the header and the optional
/// per-record offset-value code; version 3 replaced the whole-file
/// checksum trailer with hash-sealed blocks; version 4 narrowed the
/// record's row to the columns its key does not give back (the sort's
/// [`RowPlan`](crate::run::RowPlan)). Other versions are rejected as
/// corrupt rather than mis-parsed.
const SPILL_VERSION: u16 = 4;

/// Header flag bit 0: each record carries an 8-byte offset-value code
/// (LE `u64`) between its key and its payload row. Set where the sort
/// stores codes: OVC on and a key of 8 bytes or more (a shorter key is
/// its own code).
const SPILL_FLAG_OVC: u16 = 1;

/// Bytes of run-file header (magic ‖ version ‖ flags) before block 0's
/// first record.
const HEADER_BYTES: usize = 8;

/// Most workers that build and spill runs at once, whatever
/// [`ExternalSortOptions::merge_threads`] says: run generation holds at
/// most this many runs. Two is the count every spill measurement was
/// taken at (ROADMAP 4(e)); the merge keeps every worker.
pub const SPILL_WORKERS: usize = 2;

/// How many times a transient write failure (interrupted, timed out,
/// would-block) is retried before the sort gives up on the run.
pub const MAX_WRITE_RETRIES: usize = 3;

/// Sleep before the first retry of a run file's write; doubles on each
/// subsequent one.
pub const RETRY_BACKOFF: Duration = Duration::from_micros(250);

/// Tuning for the external sorter.
#[derive(Debug, Clone)]
pub struct ExternalSortOptions {
    /// Rows per run (the "memory limit"; the paper's DuckDB uses bytes,
    /// rows are equivalent for a fixed schema): run `i` is input rows
    /// `[i · memory_limit_rows, (i + 1) · memory_limit_rows)` at any thread
    /// count. Every spill worker holds one run while it builds and writes
    /// it, so run generation keeps at most
    /// `min(merge_threads, SPILL_WORKERS) × memory_limit_rows` rows
    /// resident ([`SPILL_WORKERS`]).
    pub memory_limit_rows: usize,
    /// Directory for spill files (defaults to the system temp dir).
    pub spill_dir: Option<PathBuf>,
    /// Spill an offset-value code per record and merge through the
    /// OVC-aware loser tree (DESIGN.md §10). On by default; off, the same
    /// tree plays whole-key compares, the reference the oracle holds the
    /// coded merge to.
    pub ovc: bool,
    /// Worker threads. The spill phase claims runs whole on at most
    /// [`SPILL_WORKERS`] of them; the merge runs range-partitioned on all
    /// of them (DESIGN.md §11). Run files and output are bit-identical at
    /// any thread count. Defaults to [`crate::pipeline::default_threads`].
    pub merge_threads: usize,
}

impl Default for ExternalSortOptions {
    fn default() -> Self {
        ExternalSortOptions {
            memory_limit_rows: 1 << 17,
            spill_dir: None,
            ovc: true,
            merge_threads: crate::pipeline::default_threads(),
        }
    }
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// An external-memory relational sorter.
///
/// ```
/// use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
/// use rowsort_vector::{DataChunk, OrderBy, Value, Vector};
///
/// let chunk = DataChunk::from_columns(vec![Vector::from_i32s(
///     (0..1000).rev().collect(),
/// )])
/// .unwrap();
/// let sorter = ExternalSorter::new(
///     chunk.types(),
///     OrderBy::ascending(1),
///     ExternalSortOptions { memory_limit_rows: 100, ..Default::default() },
/// );
/// let sorted = sorter.sort(&chunk).unwrap(); // 10 spilled runs, merged
/// assert_eq!(sorted.row(0), vec![Value::Int32(0)]);
/// assert_eq!(sorted.row(999), vec![Value::Int32(999)]);
/// ```
pub struct ExternalSorter {
    /// Its pool recycles the merge sinks' row batches and the encoder's
    /// and cursors' block buffers. Run-generation buffers are not there:
    /// they come from a pool that lives for the spill phase, so none is
    /// held under the merge.
    core: SorterCore,
    options: ExternalSortOptions,
    io: Arc<dyn SpillIo>,
}

/// One spilled run file. The `Drop` impl is the cleanup guarantee:
/// whatever path the sort exits through, every run file is deleted — and
/// a deletion that fails is counted in `spill_cleanup_failed` instead of
/// being silently ignored.
struct SpilledRun {
    path: PathBuf,
    io: Arc<dyn SpillIo>,
    metrics: Arc<CounterRegistry>,
}

impl Drop for SpilledRun {
    fn drop(&mut self) {
        if let Err(err) = self.io.delete(&self.path) {
            // Already gone (e.g. the backend reaped it) is a clean state,
            // not a leak; anything else means a temp file survived us.
            if err.kind() != io::ErrorKind::NotFound {
                self.metrics.add(Counter::SpillCleanupFailed, 1);
            }
        }
    }
}

/// One block of an encoded run, as the encoder laid it down.
#[derive(Clone, Copy)]
struct BlockMeta {
    /// Byte offset of the block in the run's encoding.
    off: u64,
    /// Its length, header (block 0) and hash included.
    len: usize,
    /// Records of the run before the block's first.
    rows_before: usize,
}

/// What the encoder remembers of a run it wrote: the totals and one entry
/// per block. It lives in memory beside the run's bytes and is the only
/// thing the merge trusts — block lengths, seek targets, row counts and
/// output sizes all come from here, never from the file, whose every
/// block is verified against its hash before a record of it is used.
#[derive(Clone)]
struct RunIndex {
    rows: usize,
    /// Length of the encoding: where the file must end.
    bytes: u64,
    blocks: Vec<BlockMeta>,
    /// The key of every block's first record, `key_width` bytes each.
    first_keys: Vec<u8>,
}

impl RunIndex {
    /// Seal the open block — the last one indexed — by writing its hash
    /// into the last `HASH_BYTES` of `block`, send it to `out`, and note
    /// its length.
    fn close_block(&mut self, block: &mut [u8], out: &mut dyn Write) -> io::Result<()> {
        let ordinal = self.blocks.len().saturating_sub(1) as u64;
        let (body, hash) = block.split_at_mut(block.len() - HASH_BYTES);
        let digest = XxHash64::hash(body, SPILL_CHECKSUM_SEED ^ ordinal);
        hash.copy_from_slice(&digest.to_le_bytes());
        if let Some(meta) = self.blocks.last_mut() {
            meta.len = block.len();
        }
        self.bytes += block.len() as u64;
        out.write_all(block)
    }
}

/// One sorted run as the merge sees it: where its encoded bytes live, its
/// block index, and its sample keys, copied from the sorted run at encode
/// time (`key_width` bytes each). Index and samples cost nothing to
/// capture while the run is hot; they let the merge choose range
/// splitters, cut every run at them and pre-size its output without
/// scanning any file.
struct Run {
    samples: Vec<u8>,
    index: RunIndex,
    store: RunStore,
}

/// Where a run's encoded bytes live: normally a spilled file, or — after
/// spill space is exhausted — the same encoded bytes held in memory.
/// Both shapes are read back through the identical [`RunCursor`] code
/// path.
enum RunStore {
    Spilled(SpilledRun),
    Memory(Vec<u8>),
}

impl Run {
    /// Names the run in errors.
    fn path(&self) -> &Path {
        match &self.store {
            RunStore::Spilled(r) => &r.path,
            RunStore::Memory(_) => Path::new("<in-memory run>"),
        }
    }

    /// The boundary before block `b`'s first record — the run's end for
    /// `b` past its last block, so `cut_at_block(0)` is its start even
    /// when it is empty.
    fn cut_at_block(&self, b: usize) -> RangeCut {
        match self.index.blocks.get(b) {
            Some(meta) => RangeCut {
                index: meta.rows_before,
                block: b,
                in_off: if b == 0 { HEADER_BYTES } else { 0 },
            },
            None => RangeCut {
                index: self.index.rows,
                block: self.index.blocks.len(),
                in_off: 0,
            },
        }
    }
}

/// An encoded run: cut from its block index plus a walk of one block,
/// read by a [`RunCursor`] from wherever its bytes live.
impl StoredRun for Run {
    type Cut = RangeCut;
    type Source<'r> = RunCursor<'r>;
    const BUILDERS: usize = SPILL_WORKERS;
    const LONE_RUN_CODED: bool = true;

    fn sample_keys(&self, kw: usize) -> impl Iterator<Item = &[u8]> {
        self.samples.chunks_exact(kw.max(1))
    }
    fn bounds(&self) -> [RangeCut; 2] {
        [self.cut_at_block(0), self.cut_at_block(usize::MAX)]
    }
    fn rows_before(cut: RangeCut) -> usize {
        cut.index
    }

    /// The index's first keys narrow the search to one block — the last
    /// whose first key is below the splitter — and a cursor over that
    /// block alone (read once, verified like any other) walks to the
    /// record. A splitter at or below the run's first key cuts at its
    /// start without a read; a block walked to its end cuts at the next.
    fn cut_at(
        &self,
        core: &SorterCore,
        order: MergeOrder<'_>,
        splitter: &[u8],
    ) -> Result<RangeCut, SpillError> {
        let below = lower_bound(&self.index.first_keys, order.kw, splitter);
        let Some(b) = below.checked_sub(1) else {
            return Ok(self.cut_at_block(0));
        };
        let [lo, hi] = [self.cut_at_block(b), self.cut_at_block(b + 1)];
        let mut cur = self.source(core, order, [lo, hi])?;
        let mut cut = lo;
        while !cur.exhausted() && cmp_keys(cur.key(), splitter) == Ordering::Less {
            cut.index += 1;
            cur.advance()?;
            cut.in_off = cur.rec;
        }
        Ok(if cur.exhausted() { hi } else { cut })
    }

    /// A cursor over the run's records between two of its cuts,
    /// positioned on the first; `order.kw`-byte keys, with a code per
    /// record if the sorter stores codes for them, and `order.rows`' rows.
    /// The stored code of the first record is relative to its predecessor,
    /// which a range starting inside the run does not hold, so it is
    /// re-coded against −∞ — the base the loser tree's leaves start from
    /// (for the run's first record the two agree). An empty span opens
    /// nothing: the range before it that ends the run checks that the file
    /// ends there.
    fn source<'r>(
        &'r self,
        core: &'r SorterCore,
        order: MergeOrder<'r>,
        [lo, hi]: [RangeCut; 2],
    ) -> Result<RunCursor<'r>, SpillError> {
        let kw = order.kw;
        let remaining = hi.index.saturating_sub(lo.index);
        // Where the range's first block starts; at the run's end, where
        // the file must.
        let off = self
            .index
            .blocks
            .get(lo.block)
            .map_or(self.index.bytes, |b| b.off);
        // The index says the file reaches `off`: one that does not has
        // been truncated, however the backend reports it.
        let truncated = || {
            let detail = format!("truncated: file ends before byte {off}, where a block starts");
            SpillError::corrupt(self.path(), detail)
        };
        let reader: Box<dyn Read + Send + 'r> = match &self.store {
            _ if remaining == 0 => Box::new(io::empty()),
            RunStore::Spilled(r) => {
                core.metrics.add(Counter::SpillSkippedBytes, off);
                match r.io.open_at(&r.path, off) {
                    Ok(reader) => reader,
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        return Err(truncated());
                    }
                    Err(e) => return Err(SpillError::io(SpillOp::Read, &r.path, &e)),
                }
            }
            RunStore::Memory(bytes) => {
                let at = usize::try_from(off).map_err(|_| truncated())?;
                Box::new(bytes.get(at..).ok_or_else(truncated)?)
            }
        };
        let mut c = RunCursor {
            reader,
            run: self,
            core,
            buf: if remaining > 0 {
                core.pool().get_bytes(BLOCK_BYTES)
            } else {
                Vec::new()
            },
            end: 0,
            next_block: lo.block,
            remaining,
            exhausted: false,
            ends_run: remaining > 0 && hi.index == self.index.rows,
            rec: 0,
            row_at: 0,
            seg_at: 0,
            next: 0,
            code: 0,
            kw,
            rows: order.rows,
            width: order.rows.layout.width(),
            has_ovc: core.codes(kw).stored(),
            arity: ovc::word_count(kw),
            decoded: 0,
            fetched: 0,
        };
        if c.remaining > 0 {
            c.fetch_block()?;
            // The first block resumes at the cut, not at its first record.
            c.next = lo.in_off;
        }
        c.advance()?;
        if c.has_ovc && !c.exhausted {
            c.code = ovc::initial_code(c.key(), c.arity);
        }
        Ok(c)
    }
}

/// One range boundary within one run.
#[derive(Clone, Copy)]
struct RangeCut {
    /// Records of the run before this boundary.
    index: usize,
    /// The block holding the boundary record (one past the last block at
    /// the run's end).
    block: usize,
    /// Offset of the boundary record within that block.
    in_off: usize,
}

/// The run-file header for a run with (`ovc`) or without code column.
fn header_bytes(ovc: bool) -> [u8; HEADER_BYTES] {
    let flags = if ovc { SPILL_FLAG_OVC } else { 0 };
    let [m0, m1, m2, m3] = SPILL_MAGIC;
    let [v0, v1] = SPILL_VERSION.to_le_bytes();
    let [f0, f1] = flags.to_le_bytes();
    [m0, m1, m2, m3, v0, v1, f0, f1]
}

/// Validate the 8-byte run-file header opening block 0 against what the
/// merge expects: magic, version, flag bits, and whether records carry
/// codes.
fn check_header(header: &[u8], expect_ovc: bool, path: &Path) -> Result<(), SpillError> {
    let magic: [u8; 4] = word(header, 0);
    let version = u16::from_le_bytes(word(header, 4));
    let flags = u16::from_le_bytes(word(header, 6));
    let file_ovc = flags & SPILL_FLAG_OVC != 0;
    let detail = if magic != SPILL_MAGIC {
        format!("bad run-file magic {magic:02x?}")
    } else if version != SPILL_VERSION {
        format!("unsupported run-file version {version} (expected {SPILL_VERSION})")
    } else if flags & !SPILL_FLAG_OVC != 0 {
        format!("unknown run-file flags {flags:#06x}")
    } else if file_ovc != expect_ovc {
        format!("run-file OVC flag is {file_ovc} but the merge expected {expect_ovc}")
    } else {
        return Ok(());
    };
    Err(SpillError::corrupt(path, detail))
}

/// A reader over records `lo..hi` of one run, serving the head record as
/// slices of the block it sits in. Each block is fetched with one read of
/// its indexed length into one pooled buffer and verified against its
/// hash before anything is decoded from it, so every record the merge
/// sees comes from verified bytes; the sink's gather into the output
/// columns is the only time a record moves.
struct RunCursor<'a> {
    reader: Box<dyn Read + Send + 'a>,
    run: &'a Run,
    /// The sorter: the pool the buffer comes from, the registry counted
    /// into.
    core: &'a SorterCore,
    /// The current block: `buf[..end]` is its records (behind the header
    /// in block 0), the hash follows.
    buf: Vec<u8>,
    end: usize,
    /// Ordinal of the next block to fetch.
    next_block: usize,
    /// Records of the range not yet decoded.
    remaining: usize,
    exhausted: bool,
    /// The range ends where the run does: the file must too.
    ends_run: bool,
    /// Offsets in `buf` of the head record's start, payload row and
    /// string segment, and of the record after it.
    rec: usize,
    row_at: usize,
    seg_at: usize,
    next: usize,
    /// Offset-value code of the head record, relative to the record
    /// before it in this range (the first record is coded against −∞).
    /// Only meaningful when the run stores codes: a key of 7 bytes or
    /// fewer is its own code, and its records carry none.
    code: u64,
    kw: usize,
    /// The rows' plan: where each VARCHAR slot and null flag sit, for
    /// checking the head record's strings against its segment.
    rows: &'a RowPlan,
    width: usize,
    has_ovc: bool,
    /// Key word count, for structural validation of decoded codes.
    arity: usize,
    /// Records decoded and bytes fetched, flushed to the registry on drop.
    decoded: u64,
    fetched: u64,
}

impl<'a> RunCursor<'a> {
    fn corrupt(&self, detail: impl Into<String>) -> SpillError {
        SpillError::corrupt(self.run.path(), detail)
    }

    /// The little-endian integer at `at` in the current block. It came
    /// out of a run file: until it has been compared against the block's
    /// end (a length) or its record's segment (a string slot), or checked
    /// for plausibility (a code), it is untrusted.
    fn block_u32(&self, at: usize) -> u32 {
        u32::from_le_bytes(word(&self.buf, at))
    }

    fn block_u64(&self, at: usize) -> u64 {
        u64::from_le_bytes(word(&self.buf, at))
    }

    /// Read the next block of the run into the buffer — its length comes
    /// from the index — and verify it: the hash over everything before
    /// it, under the block's own seed, and in block 0 the header. A file
    /// that ends early is corrupt (the index knows how long it must be),
    /// any other failure to read is an I/O error.
    fn fetch_block(&mut self) -> Result<(), SpillError> {
        let b = self.next_block;
        let Some(&meta) = self.run.index.blocks.get(b) else {
            return Err(self.corrupt("range reaches past the run's last block"));
        };
        let data_start = if b == 0 { HEADER_BYTES } else { 0 };
        if meta.len < data_start + HASH_BYTES {
            return Err(self.corrupt(format!("block {b} is shorter than its framing")));
        }
        let end = meta.len - HASH_BYTES;
        self.buf.resize(meta.len, 0);
        match self.reader.read_exact(&mut self.buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(self.corrupt(format!("truncated: file ends inside block {b}")));
            }
            Err(e) => return Err(SpillError::io(SpillOp::Read, self.run.path(), &e)),
        }
        self.fetched += meta.len as u64;
        if b == 0 {
            check_header(&self.buf[..HEADER_BYTES], self.has_ovc, self.run.path())?;
        }
        let stored = u64::from_le_bytes(word(&self.buf, end));
        let computed = XxHash64::hash(&self.buf[..end], SPILL_CHECKSUM_SEED ^ b as u64);
        if stored != computed {
            return Err(self.corrupt(format!(
                "checksum mismatch in block {b}: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        self.end = end;
        self.next = data_start;
        self.next_block = b + 1;
        Ok(())
    }

    /// After the run's last record nothing may follow.
    fn probe_eof(&mut self) -> Result<(), SpillError> {
        let mut probe = [0u8; 1];
        match self.reader.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(self.corrupt("trailing bytes after the run's last block")),
            Err(e) => Err(SpillError::io(SpillOp::Read, self.run.path(), &e)),
        }
    }
}

impl RunSource for RunCursor<'_> {
    #[inline]
    fn exhausted(&self) -> bool {
        self.exhausted
    }
    #[inline]
    fn key(&self) -> &[u8] {
        &self.buf[self.rec..self.rec + self.kw]
    }
    #[inline]
    fn code(&self) -> u64 {
        self.code
    }
    /// A record's key is followed by at least its row's length word, and
    /// the block by its hash: the 8-byte load never needs the padding.
    #[inline]
    fn key_window(&self) -> u64 {
        ovc::key_window(&self.buf, self.rec)
    }
    #[inline]
    fn row(&self) -> &[u8] {
        &self.buf[self.row_at..self.row_at + self.width]
    }
    /// The current record's string segment; the row's VARCHAR slots hold
    /// offsets relative to it.
    #[inline]
    fn heap(&self) -> &[u8] {
        &self.buf[self.seg_at..self.next]
    }
    fn path(&self) -> &Path {
        self.run.path()
    }

    /// Step to the next record of the range, fetching and verifying the
    /// next block when the current one is used up; past the last record,
    /// mark the cursor exhausted (and, at the run's end, check that the
    /// file ends too). A record — code, length word and segment included
    /// — must end inside its verified block, and every string its row
    /// points at inside its segment.
    fn advance(&mut self) -> Result<(), SpillError> {
        if self.remaining == 0 {
            self.exhausted = true;
            return if self.ends_run {
                self.probe_eof()
            } else {
                Ok(())
            };
        }
        if self.next == self.end {
            self.fetch_block()?;
        }
        let rec = self.next;
        let row_at = rec + self.kw + if self.has_ovc { 8 } else { 0 };
        let seg_at = row_at + self.width + 4;
        if seg_at > self.end {
            return Err(self.corrupt("record runs past the end of its block"));
        }
        if self.has_ovc {
            let code = self.block_u64(rec + self.kw);
            // A decoded offset past the key's word count can never be
            // produced by the encoder: reject it before the merge
            // consumes it.
            if !ovc::code_plausible(code, self.arity) {
                return Err(self.corrupt(format!("implausible offset-value code {code:#018x}")));
            }
            self.code = code;
        }
        let seg_len = self.block_u32(seg_at - 4) as usize;
        let next = seg_at.saturating_add(seg_len);
        if next > self.end {
            return Err(self.corrupt(format!(
                "segment length {seg_len} runs past the end of its block"
            )));
        }
        // The tie comparator and the sink slice the segment by these
        // slots; a NULL's slot is never read.
        let layout = &self.rows.layout;
        for &s in &self.rows.varlen {
            if self.buf[row_at + layout.null_offset(s)] != 0 {
                continue;
            }
            let slot = row_at + layout.offset(s);
            let off = self.block_u32(slot) as usize;
            let len = self.block_u32(slot + 4) as usize;
            if off.saturating_add(len) > seg_len {
                let c = self.rows.columns[s];
                return Err(self.corrupt(format!(
                    "VARCHAR slot of column {c} ({len} bytes at {off}) runs past its \
                     {seg_len}-byte segment"
                )));
            }
        }
        (self.rec, self.row_at, self.seg_at, self.next) = (rec, row_at, seg_at, next);
        self.remaining -= 1;
        self.decoded += 1;
        Ok(())
    }
}

impl Drop for RunCursor<'_> {
    fn drop(&mut self) {
        let metrics = &self.core.metrics;
        metrics.add(Counter::SpillRecordsDecoded, self.decoded);
        metrics.add(Counter::SpillReadBytes, self.fetched);
        self.core.pool().put_bytes(std::mem::take(&mut self.buf));
    }
}

impl ExternalSorter {
    /// Plan an external sort of a relation with columns `types` by `order`,
    /// spilling through `std::fs`.
    pub fn new(
        types: Vec<LogicalType>,
        order: OrderBy,
        options: ExternalSortOptions,
    ) -> ExternalSorter {
        ExternalSorter::with_spill_io(types, order, options, Arc::new(StdFs))
    }

    /// As [`ExternalSorter::new`], but spilling through an explicit
    /// [`SpillIo`] backend (tests and the stress harness inject faults
    /// here). A zero row budget or thread count clamps to 1.
    pub fn with_spill_io(
        types: Vec<LogicalType>,
        order: OrderBy,
        options: ExternalSortOptions,
        io: Arc<dyn SpillIo>,
    ) -> ExternalSorter {
        let crew = WorkerPool::new(options.merge_threads.max(1));
        ExternalSorter::on_crew(types, order, options, io, Arc::new(crew))
    }

    /// As [`ExternalSorter::with_spill_io`], on the crew of `set`, whose
    /// thread count replaces `options.merge_threads`. The buffers stay the
    /// sorter's own: what a spilling sort pools is not yet counted against
    /// any budget, so it must end with the sorter (DESIGN.md §6).
    pub fn with_resources(
        types: Vec<LogicalType>,
        order: OrderBy,
        options: ExternalSortOptions,
        io: Arc<dyn SpillIo>,
        set: &SortResources,
    ) -> ExternalSorter {
        ExternalSorter::on_crew(types, order, options, io, Arc::clone(&set.crew))
    }

    fn on_crew(
        types: Vec<LogicalType>,
        order: OrderBy,
        options: ExternalSortOptions,
        io: Arc<dyn SpillIo>,
        crew: Arc<WorkerPool>,
    ) -> ExternalSorter {
        let own = SortResources {
            pool: Arc::new(BufferPool::new()),
            crew,
        };
        let run_rows = options.memory_limit_rows;
        ExternalSorter {
            core: SorterCore::new(types, order, run_rows, options.ovc, own),
            options,
            io,
        }
    }

    /// The profile recorded by the most recent [`ExternalSorter::sort`].
    pub fn last_profile(&self) -> SortProfile {
        self.core.last_profile()
    }

    /// Cumulative counters across every sort run by this sorter.
    pub fn metrics(&self) -> Metrics {
        self.core.metrics.snapshot()
    }

    fn spill_path(&self) -> PathBuf {
        let dir = self
            .options
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let id = SPILL_COUNTER.fetch_add(1, AtomicOrdering::AcqRel);
        dir.join(format!("rowsort-spill-{}-{}.run", std::process::id(), id))
    }

    /// Sort `input`, spilling sorted runs whenever the row budget is
    /// reached, then stream-merge the runs.
    ///
    /// Failures come back as typed [`SpillError`]s: I/O failures name the
    /// operation and the run file; corruption detected by read-back
    /// verification is [`SpillError::Corrupt`]. On any error every spill
    /// file already written is deleted by the run drop-guards before this
    /// returns.
    pub fn sort(&self, input: &DataChunk) -> Result<DataChunk, SpillError> {
        self.sort_with_stats(input, None)
    }

    /// [`ExternalSorter::sort`], planned from `lent` when `input` is a
    /// table's rows as they lie and `lent` that table's statistics
    /// ([`SortPipeline::sort_with_stats`](crate::pipeline::SortPipeline::sort_with_stats)).
    pub fn sort_with_stats(
        &self,
        input: &DataChunk,
        lent: Option<&TableStats>,
    ) -> Result<DataChunk, SpillError> {
        // The key blocks hold a run's worth of entries each: like the run
        // buffers, they end with the spill phase, so the plan is the sort's.
        // The merge keeps the rest of it: the key it decodes columns from,
        // and the statistics whose dictionaries name a rank's string.
        let mut plan = KeyPlan::default();
        let Some(start) = self.core.begin(input, &mut plan, lent) else {
            return Ok(DataChunk::new(&self.core.types));
        };
        let order = self.core.merge_order(&plan);
        let runs = {
            let _spill = self.core.metrics.time_phase(Phase::Spill);
            self.spill(input, &plan, lent)?
        };
        plan.release_entries();
        let planned = (&plan, plan.table(lent));
        let out = self
            .merge_runs(&runs, order, planned, input)
            .inspect_err(|err| {
                if matches!(err, SpillError::Corrupt { .. }) {
                    self.core.metrics.add(Counter::SpillChecksumFailed, 1);
                }
            })?;
        self.core.publish(start, input.len(), "external", order.kw);
        Ok(out)
    }

    /// The spill phase: the sorter's runs, each encoded and written by the
    /// worker that built it ([`ExternalSorter::spill_run`]) before it
    /// claims the next. Run buffers come from a pool that ends with the
    /// phase, like `plan`'s key blocks, so no dead run set sits under the
    /// merge; its hits and misses are the sort's. Once spill space runs
    /// out (`degraded`), the same runs stay in memory, encoded as they
    /// would have been on disk.
    fn spill(
        &self,
        input: &DataChunk,
        plan: &KeyPlan,
        lent: Option<&TableStats>,
    ) -> Result<Vec<Run>, SpillError> {
        let planned = (plan, plan.table(lent));
        let rows = self.core.row_plan(plan);
        let phase_pool = BufferPool::new();
        let pool = SortPool {
            pool: &phase_pool,
            metrics: &self.core.metrics,
        };
        let degraded = AtomicBool::new(false);
        let mut runs = Vec::new();
        let slots = &mut Vec::new();
        self.core
            .generate(input, planned, pool, (slots, &mut runs), |run, claimed| {
                let metrics = &self.core.metrics;
                metrics.add(
                    Counter::SpillGenerateNs,
                    claimed.elapsed().as_nanos() as u64,
                );
                let generated = Instant::now();
                let spilled = self.spill_run(&run, rows, &degraded);
                metrics.add(Counter::SpillWriteNs, generated.elapsed().as_nanos() as u64);
                run.recycle(pool);
                spilled
            })?;
        Ok(runs)
    }

    /// Encode one sorted run into `out` as hash-sealed blocks of
    /// self-contained records, one block at a time through one pooled
    /// buffer, and return its index. The encoding is identical whether
    /// the run lands on disk or stays in memory; an error is `out`'s (and
    /// costs the pool that buffer).
    ///
    /// Each block takes as many records as fit, and at least one: a
    /// division by the record size when the rows hold no strings, else a
    /// running sum of record sizes. The buffer is sized for the block
    /// before a record is written — it grows only for a block longer than
    /// any before it, and each block is laid over the last — and each
    /// record's key, code and row are copied into their places.
    ///
    /// Where the sort's merge codes are stored, each record carries its
    /// offset-value code relative to the record before it — the run's
    /// code column, computed while the keys were hot from the run sort, so
    /// the spill merge starts with codes instead of deriving them. A key
    /// of 7 bytes or fewer is its own code: its records carry none.
    fn encode_run(
        &self,
        run: &SortedRun,
        rows: &RowPlan,
        out: &mut dyn Write,
    ) -> io::Result<RunIndex> {
        let (layout, pool) = (&rows.layout, self.core.pool());
        let (varlen, payload) = (&rows.varlen, &run.payload);
        let mut buf = pool.get_bytes(BLOCK_BYTES);
        let width = layout.width();
        let kw = run.key_width;
        let use_ovc = self.core.codes(kw).stored();
        // Key, code, row and segment length; the segment follows.
        let fixed = kw + if use_ovc { 8 } else { 0 } + width + 4;
        // Record `i`'s segment: its row's non-NULL strings, column by
        // column.
        let strings = |i: usize| {
            let valid = varlen.iter().filter(move |&&c| !payload.is_null(i, c));
            valid.map(move |&c| (c, payload.string_bytes(i, c)))
        };
        let mut index = RunIndex {
            rows: run.len(),
            bytes: 0,
            blocks: Vec::new(),
            first_keys: Vec::new(),
        };
        // The header travels with block 0 (an empty run encodes to
        // nothing).
        let mut start = HEADER_BYTES;
        buf.extend_from_slice(&header_bytes(use_ovc));
        let mut first = 0;
        while first < run.len() {
            let room = BLOCK_BYTES - HASH_BYTES - start;
            let left = run.len() - first;
            let (rows, bytes) = if varlen.is_empty() {
                let rows = (room / fixed).clamp(1, left);
                (rows, rows * fixed)
            } else {
                let (mut rows, mut bytes) = (0, 0);
                for i in first..run.len() {
                    let record = fixed + strings(i).map(|(_, s)| s.len()).sum::<usize>();
                    if rows > 0 && bytes + record > room {
                        break;
                    }
                    (rows, bytes) = (rows + 1, bytes + record);
                }
                (rows, bytes)
            };
            index.blocks.push(BlockMeta {
                off: index.bytes,
                len: 0,
                rows_before: first,
            });
            index
                .first_keys
                .extend_from_slice(&run.keys[first * kw..(first + 1) * kw]);
            // Every block is written over the one before: the buffer is
            // zeroed only when a block is longer than any before it.
            let end = start + bytes + HASH_BYTES;
            if buf.len() < end {
                buf.resize(end, 0);
            }
            let mut at = start;
            for i in first..first + rows {
                copy_row(&mut buf[at..at + kw], &run.keys[i * kw..(i + 1) * kw]);
                at += kw;
                if use_ovc {
                    copy_row(&mut buf[at..at + 8], &run.ovc[i * 8..(i + 1) * 8]);
                    at += 8;
                }
                let row_at = at;
                copy_row(&mut buf[at..at + width], payload.row(i));
                let seg_at = at + width + 4;
                // Each string's slot gets its offset in this record's
                // segment.
                at = seg_at;
                for (c, string) in strings(i) {
                    let slot = row_at + layout.offset(c);
                    let off = (at - seg_at) as u32;
                    buf[slot..slot + 4].copy_from_slice(&off.to_le_bytes());
                    copy_row(&mut buf[at..at + string.len()], string);
                    at += string.len();
                }
                let seg_len = (at - seg_at) as u32;
                buf[seg_at - 4..seg_at].copy_from_slice(&seg_len.to_le_bytes());
            }
            index.close_block(&mut buf[..end], out)?;
            (start, first) = (0, first + rows);
        }
        pool.put_bytes(buf);
        Ok(index)
    }

    /// Stream `run`'s encoding into a fresh run file.
    fn try_write_file(
        &self,
        path: &Path,
        run: &SortedRun,
        rows: &RowPlan,
    ) -> Result<RunIndex, SpillError> {
        let mut w = self
            .io
            .create(path)
            .map_err(|e| SpillError::io(SpillOp::Create, path, &e))?;
        let index = self
            .encode_run(run, rows, &mut *w)
            .map_err(|e| SpillError::io(SpillOp::Write, path, &e))?;
        w.flush()
            .map_err(|e| SpillError::io(SpillOp::Flush, path, &e))?;
        Ok(index)
    }

    /// Encode one sorted run and place it: on disk under the retry /
    /// degradation policy, or in memory once spill space is gone —
    /// `degraded`, which every worker of the phase reads before each
    /// attempt and sets when its own write finds the disk full (a run
    /// already writing when another sets it finishes its file, or
    /// degrades itself). A retry encodes again — the sorted run is still
    /// resident — so no attempt ever holds the run's encoding whole.
    fn spill_run(
        &self,
        run: &SortedRun,
        rows: &RowPlan,
        degraded: &AtomicBool,
    ) -> Result<Run, SpillError> {
        let metrics = &self.core.metrics;
        let mut attempt = 0;
        let mut backoff = RETRY_BACKOFF;
        let (index, store) = loop {
            if degraded.load(AtomicOrdering::SeqCst) {
                metrics.add(Counter::SpillMemFallbackRuns, 1);
                let mut bytes = Vec::new();
                let index = self.encode_run(run, rows, &mut bytes).map_err(|e| {
                    SpillError::io(SpillOp::Write, Path::new("<in-memory run>"), &e)
                })?;
                break (index, RunStore::Memory(bytes));
            }
            // The guard deletes a partially written file after a failure.
            let file = SpilledRun {
                path: self.spill_path(),
                io: Arc::clone(&self.io),
                metrics: Arc::clone(metrics),
            };
            match self.try_write_file(&file.path, run, rows) {
                Ok(index) => {
                    metrics.add(Counter::SpilledRuns, 1);
                    metrics.add(Counter::SpilledBytes, index.bytes);
                    break (index, RunStore::Spilled(file));
                }
                Err(err) => {
                    drop(file);
                    if err.is_no_space() {
                        // Degradation ladder, rung 2: no point retrying a
                        // full disk — keep this and later runs in memory.
                        degraded.store(true, AtomicOrdering::SeqCst);
                    } else if err.is_transient() && attempt < MAX_WRITE_RETRIES {
                        attempt += 1;
                        metrics.add(Counter::SpillRetries, 1);
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    } else {
                        return Err(err);
                    }
                }
            }
        };
        metrics.add(Counter::BytesMoved, index.bytes);
        // The resident run's own sample keys, copied: the planner picks
        // the same splitters whichever way a run is stored.
        let samples = run.sample_keys(run.key_width).flatten().copied().collect();
        Ok(Run {
            samples,
            index,
            store,
        })
    }

    /// The spill merge: the sorter's range merges over cursors into the
    /// run files, straight into the output columns (DESIGN.md §11). Each
    /// range's cursors verify every block they read — and every block
    /// holds a record of some range — so every block of every run has
    /// been verified before the output escapes.
    fn merge_runs(
        &self,
        runs: &[Run],
        order: MergeOrder<'_>,
        planned: (&KeyPlan, &TableStats),
        input: &DataChunk,
    ) -> Result<DataChunk, SpillError> {
        let mut plan = MergePlan::default();
        let phase = Phase::SpillMerge;
        let chunk =
            self.core
                .merge_into_vectors(order, (runs, &mut plan), planned, input, phase)?;
        let metrics = &self.core.metrics;
        metrics.add(Counter::SpillMergePartitions, plan.parts as u64);
        metrics.add(Counter::MergeMaxRangeRows, plan.max_range_rows() as u64);
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyBlock;
    use crate::merge::{merge_coded, MemSource, MergeStats, VectorSink};
    use crate::ovc::MergeCodes;
    use crate::testutil::{assert_sorted_permutation, pseudo_random};
    use rowsort_algos::kway::OvcLoserTree;
    use rowsort_row::{ChunkBuilder, RowBlock};
    use rowsort_testkit::faultfs::{FaultFs, FaultKind, FaultSchedule, FaultSpec};
    use rowsort_testkit::prop::{full, Runner};
    use rowsort_testkit::Rng;
    use rowsort_vector::{OrderByColumn, SortSpec, Value, Vector};
    use std::sync::{Condvar, Mutex};

    fn check_against_in_memory(chunk: &DataChunk, order: &OrderBy, budget: usize) {
        let external = ExternalSorter::new(
            chunk.types(),
            order.clone(),
            ExternalSortOptions {
                memory_limit_rows: budget,
                ..Default::default()
            },
        )
        .sort(chunk)
        .expect("external sort succeeds");
        assert_sorted_permutation(&external, chunk, order, "external");
    }

    #[test]
    fn single_run_no_merge_needed() {
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(100, 7, 50))]).unwrap();
        check_against_in_memory(&chunk, &OrderBy::ascending(1), 1_000_000);
    }

    #[test]
    fn empty_input() {
        let chunk = DataChunk::new(&[LogicalType::UInt32]);
        let sorter = ExternalSorter::new(
            chunk.types(),
            OrderBy::ascending(1),
            ExternalSortOptions::default(),
        );
        assert!(sorter.sort(&chunk).unwrap().is_empty());
    }

    #[test]
    fn spill_files_are_cleaned_up() {
        // A directory of its own: tests run in parallel, and the other
        // sorters in this binary spill into the shared temp dir.
        let dir = std::env::temp_dir().join(format!("rowsort-cleanup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(5_000, 8, 100))]).unwrap();
        let sorter = ExternalSorter::new(
            chunk.types(),
            OrderBy::ascending(1),
            ExternalSortOptions {
                memory_limit_rows: 500,
                spill_dir: Some(dir.clone()),
                ..Default::default()
            },
        );
        let _ = sorter.sort(&chunk).unwrap();
        assert_eq!(sorter.metrics().counter(Counter::SpilledRuns), 10);
        let left = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(left, 0, "spill files removed after the sort");
    }

    impl ExternalSorter {
        /// A cursor over the records of `run` between two of its cuts.
        fn open_cursor<'r>(
            &'r self,
            run: &'r Run,
            order: MergeOrder<'r>,
            span: [RangeCut; 2],
        ) -> Result<RunCursor<'r>, SpillError> {
            run.source(&self.core, order, span)
        }

        /// `sort()`'s merge of `runs`, spilled from `input` under `plan`.
        fn merge_planned(
            &self,
            runs: &[Run],
            plan: &KeyPlan,
            input: &DataChunk,
        ) -> Result<DataChunk, SpillError> {
            let order = self.core.merge_order(plan);
            self.merge_runs(runs, order, (plan, plan.table(None)), input)
        }
    }

    /// `sort()`'s preparation: the key planned for `chunk`, and its row.
    fn plan(sorter: &ExternalSorter, chunk: &DataChunk) -> KeyPlan {
        let mut plan = KeyPlan::default();
        let (types, order) = (&sorter.core.types, &sorter.core.order);
        plan.plan(types, order, chunk, None, &|phase| phase(0));
        sorter.core.pick_rows(&mut plan);
        plan
    }

    /// `sort()`'s spill phase: `chunk` as spilled runs under the sorter's
    /// row budget, and the plan they were built from.
    fn build_spilled_runs(sorter: &ExternalSorter, chunk: &DataChunk) -> (Vec<Run>, KeyPlan) {
        let plan = plan(sorter, chunk);
        (sorter.spill(chunk, &plan, None).unwrap(), plan)
    }

    /// All of `chunk` as one sorted run, straight from the run generator.
    fn whole_run(sorter: &ExternalSorter, chunk: &DataChunk) -> SortedRun {
        let (core, plan) = (&sorter.core, plan(sorter, chunk));
        let planned = (&plan, plan.table(None));
        core.make_run(core.pool(), planned, chunk, (0, chunk.len()), true)
    }

    /// `run`, built under `plan`, encoded into memory, as the ENOSPC rung
    /// of the ladder leaves it.
    fn memory_run(sorter: &ExternalSorter, plan: &KeyPlan, run: &SortedRun) -> Run {
        let rows = sorter.core.row_plan(plan);
        sorter.spill_run(run, rows, &AtomicBool::new(true)).unwrap()
    }

    /// The encoded bytes of an in-memory run.
    fn bytes_of(run: &Run) -> &[u8] {
        match &run.store {
            RunStore::Memory(bytes) => bytes,
            RunStore::Spilled(_) => panic!("expected an in-memory run"),
        }
    }

    /// The bytes of a spilled run's file.
    fn file_bytes(run: &Run) -> Vec<u8> {
        let RunStore::Spilled(file) = &run.store else {
            panic!("expected a spilled run");
        };
        let mut bytes = Vec::new();
        let mut reader = file.io.open(&file.path).unwrap();
        reader.read_to_end(&mut bytes).unwrap();
        bytes
    }

    /// `run`'s index over other bytes — what a merge sees when the file
    /// changed behind the sorter's back.
    fn with_bytes(run: &Run, bytes: Vec<u8>) -> Run {
        Run {
            samples: run.samples.clone(),
            index: run.index.clone(),
            store: RunStore::Memory(bytes),
        }
    }

    /// Recompute the hash closing block `b` of `bytes`, so a mutation
    /// inside the block reaches the checks behind the hash.
    fn reseal(bytes: &mut [u8], index: &RunIndex, b: usize) {
        let meta = index.blocks[b];
        let block = &mut bytes[meta.off as usize..meta.off as usize + meta.len];
        let end = block.len() - HASH_BYTES;
        let digest = XxHash64::hash(&block[..end], SPILL_CHECKSUM_SEED ^ b as u64);
        block[end..].copy_from_slice(&digest.to_le_bytes());
    }

    /// A mixed-width chunk: two VARCHAR columns (empty strings, long
    /// strings, NULLs) around fixed-width key/payload columns.
    fn stringy_chunk(rows: usize, seed: u64) -> DataChunk {
        let mut chunk = DataChunk::new(&[
            LogicalType::Varchar,
            LogicalType::UInt32,
            LogicalType::Varchar,
            LogicalType::Int32,
        ]);
        let r = pseudo_random(rows, seed, 1000);
        for (i, &v) in r.iter().enumerate() {
            let a = match v % 7 {
                0 => Value::Null,
                1 => Value::from(""),
                2 => Value::from("x".repeat((v % 60) as usize)),
                _ => Value::from(format!("str_{v}")),
            };
            let b = if v % 11 == 0 {
                Value::Null
            } else {
                Value::from(format!("tail{}", v % 5))
            };
            chunk
                .push_row(&[a, Value::UInt32(v), b, Value::Int32(i as i32)])
                .unwrap();
        }
        chunk
    }

    /// The spill-file record format round-trips exactly: reading a run of
    /// several blocks back reproduces every key, every fixed-width row
    /// byte, and every string segment that was written; the index the
    /// encoder kept describes the blocks it wrote; and the cursor's final
    /// advance finds nothing left over in the file.
    #[test]
    fn spill_record_format_roundtrip() {
        // `stringy_chunk`'s first column holds few enough strings to be
        // rank-coded into a 4-byte key, which stores no codes; with each
        // row's index appended it keeps a prefix, and the key is wide
        // enough for the run file to carry its offset-value codes.
        let chunk = stringy_chunk(6_000, 11);
        let distinct: Vec<Value> = (0..chunk.len())
            .map(|i| match chunk.column(0).get(i) {
                Value::Varchar(s) => Value::Varchar(format!("{s}/{i}")),
                other => other,
            })
            .collect();
        let mut columns = chunk.columns().to_vec();
        columns[0] = Vector::from_values(LogicalType::Varchar, &distinct).unwrap();
        let chunk = DataChunk::from_columns(columns).unwrap();
        let order = OrderBy::new(vec![
            OrderByColumn {
                column: 1,
                spec: SortSpec::new(
                    rowsort_vector::SortOrder::Ascending,
                    rowsort_vector::NullOrder::NullsLast,
                ),
            },
            OrderByColumn {
                column: 0,
                spec: SortSpec::new(
                    rowsort_vector::SortOrder::Descending,
                    rowsort_vector::NullOrder::NullsFirst,
                ),
            },
        ]);
        let sorter = ExternalSorter::new(
            chunk.types(),
            order,
            ExternalSortOptions {
                ovc: true,
                ..Default::default()
            },
        );
        // The key holds the integer exactly and ends at the truncated
        // string: the row keeps the three other columns.
        let planned = plan(&sorter, &chunk);
        let rows = sorter.core.row_plan(&planned);
        assert_eq!((rows.exact, rows.columns.as_slice()), (1, &[0, 2, 3][..]));
        let (layout, varlen) = (&rows.layout, rows.varlen.clone());
        let width = layout.width();

        // One run covering the whole chunk, sorted here independently of
        // the run generator; keep the blocks to compare.
        let mut payload = RowBlock::with_capacity(Arc::clone(layout), chunk.len());
        payload.append_columns_range(&chunk, |slot| rows.columns[slot], 0, chunk.len());
        let order = &sorter.core.order;
        let mut keys = KeyBlock::planned(&chunk, order);
        keys.append_chunk(&chunk);
        let tie_cmp = &rows.tie_cmp;
        keys.sort(|a, b| {
            tie_cmp.compare(
                payload.row(a as usize),
                payload.heap(),
                payload.row(b as usize),
                payload.heap(),
            )
        });
        let run = sorter
            .spill_run(&whole_run(&sorter, &chunk), rows, &AtomicBool::new(false))
            .unwrap();
        assert_eq!(run.row_count(), chunk.len());

        // The index against the file: blocks of at most `BLOCK_BYTES` laid
        // end to end, each sealed under its own ordinal, and what is
        // recorded of each block's first record.
        let file = file_bytes(&run);
        assert_eq!(file[..HEADER_BYTES], header_bytes(true));
        assert_eq!(file.len() as u64, run.index.bytes);
        assert!(run.index.blocks.len() >= 3, "a run of several blocks");
        let mut at = 0u64;
        for (b, meta) in run.index.blocks.iter().enumerate() {
            assert_eq!(
                meta.off,
                at,
                "block {b} follows block {}",
                b.wrapping_sub(1)
            );
            assert!(meta.len <= BLOCK_BYTES, "block {b} is {} bytes", meta.len);
            let block = &file[at as usize..at as usize + meta.len];
            let (body, hash) = block.split_at(meta.len - HASH_BYTES);
            let digest = XxHash64::hash(body, SPILL_CHECKSUM_SEED ^ b as u64);
            assert_eq!(hash, digest.to_le_bytes(), "block {b} hash");
            at += meta.len as u64;
        }
        assert_eq!(at, run.index.bytes);

        // Bytes of the offset word rewritten per record; everything else in
        // the row must survive the round trip untouched.
        let mut fixed_byte = vec![true; width];
        for &c in &varlen {
            let at = layout.offset(c);
            fixed_byte[at..at + 4].fill(false);
        }

        let kw = keys.key_width();
        let arity = ovc::word_count(kw);
        let merge_order = sorter.core.merge_order(&planned);
        let mut cur = sorter.open_cursor(&run, merge_order, run.bounds()).unwrap();
        let mut prev_key: Vec<u8> = Vec::new();
        let mut blocks_seen = 0;
        for i in 0..run.row_count() {
            assert!(!cur.exhausted(), "record {i} missing");
            assert_eq!(cur.key(), keys.key(i), "key {i} differs");
            assert!(prev_key.as_slice() <= cur.key(), "run not sorted at {i}");
            if let Some(meta) = run.index.blocks.get(blocks_seen) {
                if meta.rows_before == i {
                    let first_key = &run.index.first_keys[blocks_seen * kw..][..kw];
                    assert_eq!(first_key, cur.key(), "block {blocks_seen} first key");
                    blocks_seen += 1;
                }
            }
            // The spilled OVC column round-trips: record i's code is the
            // code of key i relative to key i-1 (row 0 against −∞).
            let want_code = if i == 0 {
                ovc::initial_code(keys.key(0), arity)
            } else {
                ovc::code_rel(keys.key(i), keys.key(i - 1), arity)
            };
            assert_eq!(cur.code, want_code, "record {i} OVC code differs");
            assert!(ovc::code_plausible(cur.code, arity), "record {i} code");
            let rid = keys.row_id(i) as usize;
            let orig = payload.row(rid);
            for b in 0..width {
                if fixed_byte[b] {
                    assert_eq!(cur.row()[b], orig[b], "record {i} row byte {b}");
                }
            }
            for &c in &varlen {
                if payload.is_null(rid, c) {
                    continue;
                }
                let at = layout.offset(c);
                let off = u32::from_le_bytes(word(cur.row(), at)) as usize;
                let len = u32::from_le_bytes(word(cur.row(), at + 4)) as usize;
                assert!(
                    off + len <= cur.heap().len(),
                    "segment out of bounds at {i}"
                );
                assert_eq!(
                    &cur.heap()[off..off + len],
                    payload.string_bytes(rid, c),
                    "record {i} column {c} string differs"
                );
            }
            prev_key = cur.key().to_vec();
            // The final advance rejects trailing bytes; `unwrap` is the
            // assertion.
            cur.advance().unwrap();
        }
        assert!(cur.exhausted());
        assert_eq!(blocks_seen, run.index.blocks.len());

        // A key of 7 bytes or fewer is its own merge code, and its records
        // carry none: `catalog_spill`'s shape — five INT columns, keyed by
        // four that range-code in 5 bytes — spills 17 bytes a record (the
        // key, an 8-byte row of the one column the key does not hold, the
        // length word of an empty segment) where the whole 32-byte row
        // made it 41, and an 8-byte code 49.
        let catalog = rowsort_datagen::tpcds::catalog_sales(2_000, 10.0, 0x000F_1616).data;
        let by = OrderBy::new((1..=4).map(OrderByColumn::asc).collect());
        let options = ExternalSortOptions {
            ovc: true,
            ..Default::default()
        };
        let sorter = ExternalSorter::new(catalog.types(), by, options);
        let sorted = whole_run(&sorter, &catalog);
        let planned = plan(&sorter, &catalog);
        let width = sorter.core.row_plan(&planned).layout.width();
        assert_eq!((sorted.key_width, width), (5, 8));
        assert!(sorted.ovc.is_empty(), "no code column");
        let run = memory_run(&sorter, &planned, &sorted);
        let bytes = bytes_of(&run);
        assert_eq!(bytes[..HEADER_BYTES], header_bytes(false));
        let framing = HEADER_BYTES + HASH_BYTES * run.index.blocks.len();
        assert_eq!(bytes.len() - framing, 17 * catalog.len(), "17-byte records");
    }

    /// The string-free twin of the layout check above: with no VARCHAR
    /// column every record is `fixed` bytes, so block `b` holds exactly
    /// the records that fit — one more would pass `BLOCK_BYTES` — and the
    /// bytes are the header, the records and the hash. Each run reads back
    /// through a cursor, every block verified against its hash, key for
    /// key and row for row. Returns the block lengths.
    fn check_fixed_run_layout(sorter: &ExternalSorter, chunk: &DataChunk) -> Vec<usize> {
        let sorted = whole_run(sorter, chunk);
        let planned = plan(sorter, chunk);
        let kw = sorted.key_width;
        let width = sorter.core.row_plan(&planned).layout.width();
        let code = if sorter.core.codes(kw).stored() { 8 } else { 0 };
        let fixed = kw + code + width + 4;
        let run = memory_run(sorter, &planned, &sorted);
        let (bytes, index) = (bytes_of(&run), &run.index);
        assert_eq!(bytes.len() as u64, index.bytes);
        let mut ends: Vec<usize> = index.blocks.iter().skip(1).map(|m| m.rows_before).collect();
        ends.push(index.rows);
        for (b, (meta, end)) in index.blocks.iter().zip(ends).enumerate() {
            let records = end - meta.rows_before;
            let header = if b == 0 { HEADER_BYTES } else { 0 };
            assert!(records > 0, "block {b} is empty");
            assert_eq!(meta.len, header + records * fixed + HASH_BYTES, "block {b}");
            assert!(meta.len <= BLOCK_BYTES, "block {b} is {} bytes", meta.len);
            if end < index.rows {
                assert!(
                    meta.len + fixed > BLOCK_BYTES,
                    "block {b} had room for another"
                );
            }
            let block = &bytes[meta.off as usize..meta.off as usize + meta.len];
            let (body, hash) = block.split_at(meta.len - HASH_BYTES);
            let digest = XxHash64::hash(body, SPILL_CHECKSUM_SEED ^ b as u64);
            assert_eq!(hash, digest.to_le_bytes(), "block {b} hash");
            let first_key = &index.first_keys[b * kw..(b + 1) * kw];
            assert_eq!(first_key, &sorted.keys[meta.rows_before * kw..][..kw]);
        }
        let order = sorter.core.merge_order(&planned);
        let mut cur = sorter.open_cursor(&run, order, run.bounds()).unwrap();
        for i in 0..sorted.len() {
            assert!(!cur.exhausted(), "record {i} missing");
            assert_eq!(cur.key(), &sorted.keys[i * kw..(i + 1) * kw], "key {i}");
            assert_eq!(cur.row(), sorted.payload.row(i), "row {i}");
            assert!(cur.heap().is_empty(), "record {i} has a segment");
            cur.advance().unwrap();
        }
        assert!(cur.exhausted());
        index.blocks.iter().map(|m| m.len).collect()
    }

    #[test]
    fn fixed_width_runs_fill_their_blocks_exactly() {
        let sorter = |chunk: &DataChunk| {
            let options = ExternalSortOptions {
                ovc: true,
                ..Default::default()
            };
            ExternalSorter::new(chunk.types(), OrderBy::ascending(1), options)
        };
        // A 4-byte key over a 16-byte row (the BIGINT the key does not
        // hold): 24-byte records, of which block 0 takes 2 730 behind the
        // header and fills all 64 KiB.
        let keys = |rows: usize| pseudo_random(rows, 31, u32::MAX);
        let chunk = |keys: Vec<u32>| {
            let payload = Vector::from_i64s((0..keys.len() as i64).collect());
            DataChunk::from_columns(vec![Vector::from_u32s(keys), payload]).unwrap()
        };
        let full = chunk(keys(2 * 2_730 + 17));
        let blocks = check_fixed_run_layout(&sorter(&full), &full);
        assert_eq!(blocks[0], BLOCK_BYTES, "block 0 filled to the byte");
        assert_eq!(blocks.len(), 3);
        // One row: one block, header, record and hash.
        let one = chunk(keys(1));
        assert_eq!(check_fixed_run_layout(&sorter(&one), &one).len(), 1);

        // Every key column holds one value: the key is 0 bytes wide, and a
        // record is the row and its segment length alone.
        let same = chunk(vec![7; 6_000]);
        let kw = whole_run(&sorter(&same), &same).key_width;
        assert_eq!(kw, 0, "a one-value key column codes in no bytes");
        let blocks = check_fixed_run_layout(&sorter(&same), &same);
        assert_eq!(blocks.len(), 2, "6 000 records of 20 bytes");
        // A code column too (OVC on, a key of 8 bytes or more).
        let wide = DataChunk::from_columns(vec![
            Vector::from_u32s(keys(5_000)),
            Vector::from_u32s(keys(5_000).into_iter().rev().collect()),
            Vector::from_i64s((0..5_000).collect()),
        ])
        .unwrap();
        let by_two = ExternalSorter::new(
            wide.types(),
            OrderBy::ascending(2),
            ExternalSortOptions {
                ovc: true,
                ..Default::default()
            },
        );
        assert!(by_two
            .core
            .codes(whole_run(&by_two, &wide).key_width)
            .stored());
        check_fixed_run_layout(&by_two, &wide);
    }

    /// Regression: a zero row budget used to leave the run-generation loop
    /// unable to advance (`end = start + 0`), so `sort` never terminated.
    /// The budget must clamp to one row — a degenerate but valid external
    /// sort with one spilled run per input row.
    #[test]
    fn zero_memory_budget_clamps_to_one_row_runs() {
        let keys = pseudo_random(64, 13, 32);
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(keys.clone())]).unwrap();
        let sorter = ExternalSorter::new(
            chunk.types(),
            OrderBy::ascending(1),
            ExternalSortOptions {
                memory_limit_rows: 0,
                ..Default::default()
            },
        );
        let sorted = sorter.sort(&chunk).unwrap();
        let mut expect = keys;
        expect.sort_unstable();
        let got: Vec<u32> = (0..sorted.len())
            .map(|i| match sorted.row(i)[0] {
                Value::UInt32(v) => v,
                ref other => panic!("unexpected value {other:?}"),
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn external_sort_records_profile_and_spill_counters() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(4_000, 14, 512))])
            .unwrap();
        let sorter = ExternalSorter::new(
            chunk.types(),
            OrderBy::ascending(1),
            ExternalSortOptions {
                memory_limit_rows: 1_000,
                ..Default::default()
            },
        );
        let _ = sorter.sort(&chunk).unwrap();
        let profile = sorter.last_profile();
        assert_eq!(profile.operator, "external");
        assert_eq!(profile.rows, 4_000);
        assert!(profile.total_ns > 0);
        let m = &profile.metrics;
        assert_eq!(m.counter(Counter::SortCalls), 1);
        assert_eq!(m.counter(Counter::RowsSorted), 4_000);
        assert_eq!(m.counter(Counter::SpilledRuns), 4);
        assert_eq!(m.counter(Counter::RunsGenerated), 4);
        // Every record is key + row + length word at minimum; the key
        // holds the one column, so the row has no bytes.
        assert_eq!(profile.row_width, 0);
        let record = (profile.key_width + profile.row_width + 4) as u64;
        assert!(m.counter(Counter::SpilledBytes) >= 4_000 * record);
        assert_eq!(m.counter(Counter::SpillRetries), 0);
        assert_eq!(m.counter(Counter::SpillCleanupFailed), 0);
        assert_eq!(m.counter(Counter::SpillMemFallbackRuns), 0);
        assert_eq!(m.counter(Counter::SpillChecksumFailed), 0);
        assert!(m.phase(Phase::Spill) > 0, "spill phase timed");
        assert!(m.phase(Phase::SpillMerge) > 0, "merge phase timed");
        assert!(m.phase_total_ns() <= profile.total_ns);
        // A second sort accumulates in the registry but the profile is a
        // per-sort delta.
        let _ = sorter.sort(&chunk).unwrap();
        assert_eq!(sorter.last_profile().metrics.counter(Counter::SortCalls), 1);
        assert_eq!(sorter.metrics().counter(Counter::SortCalls), 2);
    }

    // ---- partitioned-merge coverage ------------------------------------

    /// Degenerate merges take the fast paths: zero runs yield an empty
    /// chunk and one run streams through without a loser tree — neither
    /// builds a degenerate tree or tries to partition, at any thread count.
    #[test]
    fn zero_and_single_run_merges_take_fast_paths() {
        let chunk = stringy_chunk(400, 17);
        let order = OrderBy::new(vec![OrderByColumn::asc(0), OrderByColumn::asc(1)]);
        let sorter = ExternalSorter::new(
            chunk.types(),
            order.clone(),
            ExternalSortOptions {
                merge_threads: 4,
                ..Default::default()
            },
        );
        let (runs, plan) = build_spilled_runs(&sorter, &chunk);
        assert_eq!(runs.len(), 1, "one budget-sized morsel, one run");

        let empty = sorter.merge_planned(&[], &plan, &chunk).unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.types(), chunk.types());

        let merged = sorter.merge_planned(&runs, &plan, &chunk).unwrap();
        assert_eq!(merged.len(), 400);
        assert_sorted_permutation(&merged, &chunk, &order, "single-run merge");
        // Neither merge can split across threads: one partition counted
        // per merge call, two calls above.
        assert_eq!(sorter.metrics().counter(Counter::SpillMergePartitions), 2);
    }

    // ---- the spill phase on the worker pool ------------------------------

    /// Run `i` is input rows `[i · limit, (i + 1) · limit)` whoever claims
    /// it: the run files are byte-identical, index by index, at every
    /// thread count — with and without codes, fixed-width rows and
    /// VARCHARs, prefix- and rank-coded — and the rows merged from them
    /// with them.
    #[test]
    fn run_files_are_byte_identical_across_thread_counts() {
        let keys = pseudo_random(5_000, 51, 700);
        let payload: Vec<u32> = (0..5_000).collect();
        let ints =
            DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(payload)])
                .unwrap();
        // Its third column holds five strings and NULL: a key coded by
        // their ranks.
        let by_tail = OrderBy::new(vec![OrderByColumn::desc(2), OrderByColumn::asc(1)]);
        let tables = [
            ("fixed-width", ints, OrderBy::ascending(1)),
            ("varchar", stringy_chunk(5_000, 52), OrderBy::ascending(2)),
            ("rank-coded varchar", stringy_chunk(5_000, 52), by_tail),
        ];
        let ranked = KeyBlock::planned(&tables[2].1, &tables[2].2);
        assert!(ranked.layout().columns()[0].range.is_some(), "a ranked key");
        for (name, chunk, order) in &tables {
            for ovc in [false, true] {
                let spill_with = |merge_threads: usize| {
                    let options = ExternalSortOptions {
                        memory_limit_rows: 311,
                        ovc,
                        merge_threads,
                        ..Default::default()
                    };
                    let sorter = ExternalSorter::new(chunk.types(), order.clone(), options);
                    let (runs, plan) = build_spilled_runs(&sorter, chunk);
                    let files: Vec<Vec<u8>> = runs.iter().map(file_bytes).collect();
                    let sorted = sorter.merge_planned(&runs, &plan, chunk).unwrap();
                    (files, sorted)
                };
                let (files, sorted) = spill_with(1);
                assert_eq!(files.len(), 5_000usize.div_ceil(311));
                assert_sorted_permutation(&sorted, chunk, order, name);
                for threads in [2, 3, 8] {
                    let what = format!("{name}, ovc={ovc}, threads={threads}");
                    let (got_files, got_sorted) = spill_with(threads);
                    assert_eq!(got_files.len(), files.len(), "{what}: run count");
                    for (i, (got, want)) in got_files.iter().zip(&files).enumerate() {
                        assert!(got == want, "{what}: run file {i} differs");
                    }
                    assert!(got_sorted == sorted, "{what}: sorted output differs");
                }
            }
        }
    }

    /// A hard write error stops the claiming: with every file failing, each
    /// of the two workers creates the one it had claimed and no more — not
    /// all sixteen — the error is typed, and nothing leaks. (Every file
    /// fails so that the bound does not lean on the scheduler: were it the
    /// first alone, how many runs the other worker finished before the
    /// failure registered would be a race.)
    #[test]
    fn a_hard_write_error_stops_further_claims() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(4_000, 53, 100))])
            .unwrap();
        let threads = 2;
        let hard = FaultKind::WriteError(io::ErrorKind::Other);
        let fs = FaultFs::new(FaultSchedule {
            specs: (0..16).map(|file| wspec(file, 0, hard)).collect(),
            disk_capacity: None,
        });
        let sorter = ExternalSorter::with_spill_io(
            chunk.types(),
            OrderBy::ascending(1),
            ExternalSortOptions {
                memory_limit_rows: 250,
                merge_threads: threads,
                ..Default::default()
            },
            Arc::new(fs.clone()),
        );
        let err = sorter.sort(&chunk).expect_err("hard error must surface");
        assert!(
            matches!(
                err,
                SpillError::Io {
                    op: SpillOp::Write,
                    kind: io::ErrorKind::Other,
                    ..
                }
            ),
            "want a write error, got {err:?}"
        );
        // Run 0 was claimed first, so its failure is the one reported.
        assert!(err.path().contains("rowsort-spill-"), "{err}");
        let created = fs.stats().files_created;
        assert!(
            (1..=threads as u64).contains(&created),
            "{created} files created by {threads} workers after a hard failure"
        );
        assert_eq!(sorter.metrics().counter(Counter::SpilledRuns), 0);
        drop(sorter);
        assert!(fs.live_files().is_empty(), "leaked: {:?}", fs.live_files());
    }

    /// One run to claim, or one thread to claim with, runs the claiming
    /// loop on the calling thread: the pool is never spawned. More of both
    /// spawns it once, for both phases.
    #[test]
    fn one_run_or_one_thread_spawns_no_worker() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(4_000, 54, 100))])
            .unwrap();
        let sort_with = |memory_limit_rows: usize, merge_threads: usize| {
            let options = ExternalSortOptions {
                memory_limit_rows,
                merge_threads,
                ..Default::default()
            };
            let sorter = ExternalSorter::new(chunk.types(), OrderBy::ascending(1), options);
            let _ = sorter.sort(&chunk).unwrap();
            let m = sorter.last_profile().metrics;
            assert!(
                m.counter(Counter::SpillGenerateNs) > 0,
                "run generation clocked"
            );
            assert!(
                m.counter(Counter::SpillWriteNs) > 0,
                "encode + write clocked"
            );
            let spawned = sorter.core.set.crew.spawned();
            (spawned, m.counter(Counter::Broadcasts))
        };
        assert_eq!(sort_with(4_000, 4), (false, 0), "one run, four threads");
        assert_eq!(sort_with(250, 1), (false, 0), "sixteen runs, one thread");
        // The spill phase and the ranges: one broadcast each. (The cuts
        // are made on the calling thread.)
        assert_eq!(sort_with(250, 2), (true, 2), "sixteen runs, two threads");
    }

    /// What a [`GatedFs`] has seen: run files open for writing, the most
    /// ever open at once, and files closed.
    #[derive(Default)]
    struct Gate {
        open: usize,
        most: usize,
        closed: usize,
    }

    type SharedGate = Arc<(Mutex<Gate>, Condvar)>;

    /// A backend that holds each new run file open until one more than
    /// [`SPILL_WORKERS`] are open or 50 ms pass — a spill phase with more
    /// builders meets that writer, a capped one never does — and, with
    /// `full_above`, refuses a file's bytes past that many as a full disk
    /// once another file has been closed (or 2 s pass).
    struct GatedFs {
        inner: FaultFs,
        gate: SharedGate,
        full_above: Option<u64>,
    }

    /// A writer of [`GatedFs`].
    struct Gated {
        writer: Box<dyn Write + Send>,
        gate: SharedGate,
        written: u64,
        full_above: Option<u64>,
    }

    impl Write for Gated {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self
                .full_above
                .is_some_and(|n| self.written + buf.len() as u64 > n)
            {
                let (lock, closed) = &*self.gate;
                let wait = Duration::from_secs(2);
                let none_closed = |g: &mut Gate| g.closed == 0;
                drop(closed.wait_timeout_while(lock.lock().unwrap(), wait, none_closed));
                return Err(io::Error::new(io::ErrorKind::StorageFull, "gated: full"));
            }
            let n = self.writer.write(buf)?;
            self.written += n as u64;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.writer.flush()
        }
    }

    impl Drop for Gated {
        fn drop(&mut self) {
            let mut gate = self.gate.0.lock().unwrap();
            gate.open -= 1;
            gate.closed += 1;
            self.gate.1.notify_all();
        }
    }

    impl GatedFs {
        fn new(full_above: Option<u64>) -> GatedFs {
            GatedFs {
                inner: FaultFs::new(FaultSchedule::none()),
                gate: Arc::default(),
                full_above,
            }
        }
    }

    impl SpillIo for GatedFs {
        fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
            let writer = SpillIo::create(&self.inner, path)?;
            let (lock, opened) = &*self.gate;
            let mut gate = lock.lock().unwrap();
            gate.open += 1;
            gate.most = gate.most.max(gate.open);
            opened.notify_all();
            let wait = Duration::from_millis(50);
            let few = |g: &mut Gate| g.open <= SPILL_WORKERS;
            drop(opened.wait_timeout_while(gate, wait, few).unwrap());
            Ok(Box::new(Gated {
                writer,
                gate: Arc::clone(&self.gate),
                written: 0,
                full_above: self.full_above,
            }))
        }
        fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
            SpillIo::open(&self.inner, path)
        }
        fn delete(&self, path: &Path) -> io::Result<()> {
            SpillIo::delete(&self.inner, path)
        }
    }

    /// Run generation holds at most [`SPILL_WORKERS`] runs whatever the
    /// thread count: however many workers there are, no more than two
    /// ever write a run file at once, and the merge still uses them all.
    #[test]
    fn the_spill_phase_builds_on_at_most_two_workers() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(4_000, 55, 100))])
            .unwrap();
        let order = OrderBy::ascending(1);
        for threads in [2, 8] {
            let fs = Arc::new(GatedFs::new(None));
            let options = ExternalSortOptions {
                memory_limit_rows: 250,
                merge_threads: threads,
                ..Default::default()
            };
            let sorter =
                ExternalSorter::with_spill_io(chunk.types(), order.clone(), options, fs.clone());
            let out = sorter.sort(&chunk).unwrap();
            assert_sorted_permutation(&out, &chunk, &order, "gated");
            let most = fs.gate.0.lock().unwrap().most;
            assert!(
                most <= SPILL_WORKERS,
                "threads={threads}: {most} runs written at once"
            );
            let ranges = sorter
                .last_profile()
                .metrics
                .counter(Counter::SpillMergePartitions);
            assert_eq!(ranges, threads as u64, "the merge keeps every worker");
        }
    }

    /// A run kept in memory takes its index's place among spilled ones:
    /// run 0 (long strings) meets a full disk only after run 1 (short
    /// ones), written at the same time by the other worker, has its file,
    /// and ties still come out as a fault-free sort's do.
    #[test]
    fn a_degraded_run_merges_in_index_order() {
        let rows = 200u32;
        let mut chunk = DataChunk::new(&[LogicalType::UInt32, LogicalType::Varchar]);
        for i in 0..rows {
            let text = if i < rows / 2 {
                "x".repeat(300)
            } else {
                "y".into()
            };
            chunk
                .push_row(&[Value::UInt32(i % 7), Value::from(text)])
                .unwrap();
        }
        let order = OrderBy::ascending(1);
        let options = ExternalSortOptions {
            memory_limit_rows: rows as usize / 2,
            merge_threads: 2,
            ..Default::default()
        };
        let fs = Arc::new(GatedFs::new(Some(16 << 10)));
        let types = chunk.types();
        let sorter = ExternalSorter::with_spill_io(types, order.clone(), options.clone(), fs);
        let out = sorter.sort(&chunk).unwrap();
        let m = sorter.metrics();
        let placed = [Counter::SpillMemFallbackRuns, Counter::SpilledRuns].map(|c| m.counter(c));
        assert_eq!(placed, [1, 1], "run 0 in memory, run 1 in a file");
        let clean = ExternalSorter::new(chunk.types(), order, options).sort(&chunk);
        assert_eq!(out.to_rows(), clean.unwrap().to_rows());
    }

    // ---- the merge kernel across source kinds ---------------------------

    /// `key` left-aligned in a big-endian `u64`, byte by byte: what a key
    /// of 7 bytes or fewer merges on.
    fn key_as_code(key: &[u8]) -> u64 {
        let byte = |(i, &b): (usize, &u8)| u64::from(b) << (56 - 8 * i);
        key.iter().enumerate().map(byte).sum()
    }

    /// Merge `sources` through the kernel, on the codes the sorter
    /// chooses, into fresh columns of exactly `rows` rows, decoding what
    /// `order.rows` decodes from the key `plan` planned for `input`.
    fn kernel_merge<S: RunSource>(
        sorter: &ExternalSorter,
        (order, plan, input): (&MergeOrder<'_>, &KeyPlan, &DataChunk),
        sources: &mut [S],
        rows: usize,
    ) -> (DataChunk, MergeStats) {
        let core = &sorter.core;
        let mut builder = ChunkBuilder::new(&core.types, rows);
        let planned = (plan, plan.table(None));
        let pieces = core.pieces(&mut builder, *order, planned, input, [rows]);
        let piece = pieces.unwrap().pop().unwrap();
        let mut sink = VectorSink::new(piece, core.pool());
        let mut tree = OvcLoserTree::empty();
        let codes = core.codes(order.kw);
        let stats = merge_coded(codes, order, &mut tree, sources, rows, &mut sink)
            .expect("fault-free merge");
        assert!(
            sources.iter().all(|s| s.exhausted()),
            "a source was left open"
        );
        let tail = sink.finish(core.pool()).expect("fault-free gather");
        (builder.finish(vec![tail]), stats)
    }

    /// The kernel does not care where a run lives: the same runs merged
    /// from memory and from their encoded form yield the same bytes after
    /// the same comparisons — coded or not, at any fan-in, with an empty
    /// run among the inputs, and when every key ties. Nor does it care
    /// how much of a run a source covers: in-memory sources over the two
    /// sides of a key cut merge to the two halves of the same rows.
    #[test]
    fn kernel_output_and_comparisons_agree_across_source_kinds() {
        let types = [
            LogicalType::Varchar,
            LogicalType::UInt32,
            LogicalType::Varchar,
            LogicalType::Int32,
        ];
        let mut all_equal = DataChunk::new(&types);
        let mut all_null = DataChunk::new(&types);
        for i in 0..300 {
            let (tail, id) = (Value::from(format!("p{}", i % 9)), Value::Int32(i));
            // Distinct strings, so the planner codes them by prefix, not
            // by rank, that share more bytes than any prefix it plans.
            let same = Value::from(format!("the same truncated-prefix key, then {i}"));
            all_equal
                .push_row(&[same, Value::UInt32(7), tail.clone(), id.clone()])
                .unwrap();
            all_null
                .push_row(&[Value::Null, Value::Null, tail, id])
                .unwrap();
        }
        // A VARCHAR last among the keys: where its prefix is truncated
        // (not for all-NULL strings), byte-equal keys reach the
        // full-tuple comparator.
        let inputs = [
            ("mixed", stringy_chunk(600, 41), true),
            ("all-equal keys", all_equal, true),
            ("all-NULL keys", all_null, false),
        ];
        let by = OrderBy::new(vec![OrderByColumn::asc(1), OrderByColumn::asc(0)]);
        for (name, chunk, truncated) in &inputs {
            for ovc in [false, true] {
                let sorter = ExternalSorter::new(
                    chunk.types(),
                    by.clone(),
                    ExternalSortOptions {
                        ovc,
                        ..Default::default()
                    },
                );
                let plan = plan(&sorter, chunk);
                let order = sorter.core.merge_order(&plan);
                assert_eq!(order.tie_possible, *truncated, "{name}: tie_possible");
                for k in [1usize, 2, 3, 17] {
                    let what = format!("{name}, ovc={ovc}, k={k}");
                    let n = chunk.len();
                    let mut bounds: Vec<usize> = (0..=k).map(|i| i * n / k).collect();
                    if k >= 3 {
                        bounds[2] = bounds[1]; // run 1 is empty
                    }
                    let core = &sorter.core;
                    let sorted: Vec<SortedRun> = bounds
                        .windows(2)
                        .map(|w| {
                            let planned = (&plan, plan.table(None));
                            core.make_run(core.pool(), planned, chunk, (w[0], w[1]), true)
                        })
                        .collect();
                    let encoded: Vec<Run> = sorted
                        .iter()
                        .map(|run| memory_run(&sorter, &plan, run))
                        .collect();

                    let mut cursors: Vec<RunCursor<'_>> = encoded
                        .iter()
                        .map(|run| sorter.open_cursor(run, order, run.bounds()).unwrap())
                        .collect();
                    let merging = (&order, &plan, chunk);
                    let from_files = kernel_merge(&sorter, merging, &mut cursors, n);
                    let mut in_memory: Vec<MemSource<'_>> = sorted
                        .iter()
                        .map(|run| MemSource::range(run, 0, run.len()))
                        .collect();
                    // A whole run's first head: −∞ is what it is stored against.
                    let codes = sorter.core.codes(order.kw);
                    for (src, run) in in_memory.iter().zip(&sorted).filter(|_| codes.stored()) {
                        assert_eq!(src.code(), ovc::read_code(&run.ovc, 0), "{what}");
                    }
                    let from_memory = kernel_merge(&sorter, merging, &mut in_memory, n);

                    // The same runs cut in two at a key (the median of the
                    // longest run): every head is coded against −∞ — or is
                    // its own code, a key of 7 bytes or fewer — and the two
                    // ranges' merges concatenate to the whole one.
                    let kw = order.kw;
                    let longest = sorted.iter().max_by_key(|r| r.len()).unwrap();
                    let mid = longest.len() / 2;
                    let splitter = longest.keys[mid * kw..(mid + 1) * kw].to_vec();
                    let cut = |run: &SortedRun| lower_bound(&run.keys, kw, &splitter);
                    let arity = ovc::word_count(kw);
                    let mut halves = Vec::new();
                    for side in 0..2 {
                        let span = |run: &SortedRun| match side {
                            0 => (0, cut(run)),
                            _ => (cut(run), run.len()),
                        };
                        let mut ranged: Vec<MemSource<'_>> = sorted
                            .iter()
                            .map(|run| MemSource::range(run, span(run).0, span(run).1))
                            .collect();
                        for src in ranged.iter().filter(|s| !s.exhausted()) {
                            let (head, want) = match codes {
                                MergeCodes::Key => {
                                    (src.key_window() & ovc::key_mask(kw), key_as_code(src.key()))
                                }
                                _ => (src.code(), ovc::initial_code(src.key(), arity)),
                            };
                            assert_eq!(head, want, "{what}");
                        }
                        let rows: usize = sorted.iter().map(|r| span(r).1 - span(r).0).sum();
                        let (half, _) = kernel_merge(&sorter, merging, &mut ranged, rows);
                        halves.extend(half.to_rows());
                    }
                    assert_eq!(halves, from_memory.0.to_rows(), "{what}: ranged");

                    assert_eq!(from_files.0, from_memory.0, "{what}: vectors differ");
                    let counts = |s: &MergeStats| (s.cmps, s.ovc_resolved, s.key_bytes);
                    assert_eq!(
                        counts(&from_files.1),
                        counts(&from_memory.1),
                        "{what}: comparator work differs"
                    );
                    assert_eq!(from_files.1.cmps == 0, k == 1, "{what}: cmps");

                    // And it is the sorter's own answer.
                    let whole = ExternalSorter::new(
                        chunk.types(),
                        by.clone(),
                        ExternalSortOptions {
                            memory_limit_rows: n.div_ceil(k),
                            ovc,
                            merge_threads: 1,
                            ..Default::default()
                        },
                    );
                    let want = whole.sort(chunk).unwrap();
                    if k < 3 {
                        // (With the empty run the cut points differ, and
                        // with them the order among full ties.)
                        assert_eq!(from_memory.0, want, "{what}");
                    }
                    assert_eq!(from_memory.0.len(), want.len(), "{what}: row count");
                }
            }
        }
    }

    /// Keys of every width from 1 to 8 bytes merge alike on key codes, on
    /// offset-value codes and uncoded, from memory and from encoded runs:
    /// the rows a stable merge by run index emits, after the same number
    /// of comparisons. Each set of runs has an empty one among them, and
    /// holds random keys over a few byte values (every run ending on an
    /// all-`0xFF` key, at 8 bytes the loser tree's fence), one key
    /// throughout, all-zero keys (all NULL, NULLs first) or all-`0xFF`
    /// keys (all NULL, NULLs last). Only keys of 7 bytes or fewer are
    /// merged on key codes: an 8-byte one is offset-value coded.
    #[test]
    fn short_keys_merge_alike_on_key_codes_offset_value_codes_and_none() {
        let sorter_with = |ovc: bool, key_codes: bool| {
            let options = ExternalSortOptions {
                ovc,
                ..Default::default()
            };
            let mut sorter =
                ExternalSorter::new(vec![LogicalType::UInt32], OrderBy::ascending(1), options);
            sorter.core.key_codes = key_codes;
            sorter
        };
        // The sorter's own choice, offset-value codes, none.
        let sorters = [
            sorter_with(true, true),
            sorter_with(true, false),
            sorter_with(false, true),
        ];
        let mut rng = Rng::seed_from_u64(0x4B45_5943_4F44);
        let cases = ["mixed", "one key", "all-zero", "all-0xFF"];
        for kw in 1..=8usize {
            let chosen = sorters.each_ref().map(|s| s.core.codes(kw));
            let short = if kw <= ovc::KEY_CODE_BYTES {
                MergeCodes::Key
            } else {
                MergeCodes::Ovc
            };
            assert_eq!(
                chosen,
                [short, MergeCodes::Ovc, MergeCodes::None],
                "{kw}-byte keys"
            );
            for case in cases {
                let what = format!("{kw}-byte keys, {case}");
                let one: Vec<u8> = (0..kw).map(|_| rng.next_u32() as u8).collect();
                let key = |rng: &mut Rng| match case {
                    "mixed" => (0..kw)
                        .map(|_| [0x00, 0x01, 0x7F, 0xFE, 0xFF][rng.below(5) as usize])
                        .collect(),
                    "one key" => one.clone(),
                    "all-zero" => vec![0x00; kw],
                    _ => vec![0xFF; kw],
                };
                // Five runs, run 1 empty; row ids number the rows in run order.
                let mut runs: Vec<Vec<Vec<u8>>> = Vec::new();
                for r in 0..5 {
                    let len = if r == 1 { 0 } else { rng.range(20usize, 60) };
                    let mut keys: Vec<Vec<u8>> = (0..len).map(|_| key(&mut rng)).collect();
                    keys.sort();
                    if case == "mixed" {
                        if let Some(last) = keys.last_mut() {
                            last.fill(0xFF);
                        }
                    }
                    runs.push(keys);
                }
                let rows: usize = runs.iter().map(Vec::len).sum();
                // A stable merge by run index: keys in order, ties by run.
                let mut want: Vec<(&[u8], u32)> = Vec::new();
                let mut id = 0u32;
                for keys in &runs {
                    for key in keys {
                        want.push((key, id));
                        id += 1;
                    }
                }
                want.sort_by(|a, b| a.0.cmp(b.0));
                let want: Vec<u32> = want.iter().map(|&(_, id)| id).collect();
                let ids = |chunk: &DataChunk| -> Vec<u32> {
                    let id = |row: Vec<Value>| match row[..] {
                        [Value::UInt32(id)] => id,
                        _ => panic!("row {row:?}"),
                    };
                    chunk.to_rows().into_iter().map(id).collect()
                };

                let mut cmps = Vec::new();
                // The keys are made up, so the row keeps every column: the
                // row plan that decodes nothing, and no planned key.
                let (plan, input) = (KeyPlan::default(), DataChunk::new(&[LogicalType::UInt32]));
                for (sorter, codes) in sorters.iter().zip(chosen) {
                    let core = &sorter.core;
                    let full = &core.row_plans[0];
                    assert_eq!(full.exact, 0);
                    let mut first_id = 0u32;
                    let sorted: Vec<SortedRun> = runs
                        .iter()
                        .map(|keys| {
                            let ids = (first_id..first_id + keys.len() as u32).collect();
                            first_id += keys.len() as u32;
                            let chunk =
                                DataChunk::from_columns(vec![Vector::from_u32s(ids)]).unwrap();
                            let mut payload = RowBlock::with_capacity(Arc::clone(&full.layout), 0);
                            payload.append_chunk(&chunk);
                            let keys = keys.concat();
                            let mut codes_column = Vec::new();
                            if codes.stored() {
                                codes_column.resize(8 * payload.len(), 0);
                                ovc::fill_run_codes(&keys, kw, &mut codes_column);
                            }
                            SortedRun {
                                rows: payload.len(),
                                keys,
                                key_width: kw,
                                ovc: codes_column,
                                payload,
                            }
                        })
                        .collect();
                    let order = MergeOrder {
                        kw,
                        tie_possible: false,
                        rows: full,
                    };
                    let merging = (&order, &plan, &input);
                    let mut in_memory: Vec<MemSource<'_>> = sorted
                        .iter()
                        .map(|run| MemSource::range(run, 0, run.len()))
                        .collect();
                    let from_memory = kernel_merge(sorter, merging, &mut in_memory, rows);
                    let encoded: Vec<Run> = sorted
                        .iter()
                        .map(|run| sorter.spill_run(run, full, &AtomicBool::new(true)).unwrap())
                        .collect();
                    let mut cursors: Vec<RunCursor<'_>> = encoded
                        .iter()
                        .map(|run| sorter.open_cursor(run, order, run.bounds()).unwrap())
                        .collect();
                    let from_files = kernel_merge(sorter, merging, &mut cursors, rows);
                    let what = format!("{what}, {} codes", codes.name());
                    for (merged, from) in [(&from_memory, "memory"), (&from_files, "files")] {
                        assert_eq!(ids(&merged.0), want, "{what}, from {from}: rows");
                        cmps.push((merged.1.cmps, format!("{what}, from {from}")));
                    }
                    let counts = |s: &MergeStats| (s.cmps, s.ovc_resolved, s.key_bytes);
                    assert_eq!(counts(&from_files.1), counts(&from_memory.1), "{what}");
                    if codes == MergeCodes::Key {
                        // Unequal keys decided on the codes, and no key
                        // byte read.
                        let stats = &from_memory.1;
                        assert_eq!(stats.key_bytes, 0, "{what}");
                        let distinct = case == "mixed" && rows > 0;
                        assert_eq!(stats.ovc_resolved > 0, distinct, "{what}");
                    }
                }
                for (n, from) in &cmps {
                    assert_eq!(*n, cmps[0].0, "{from}: merge_cmps, against {}", cmps[0].1);
                }
            }
        }
    }

    // ---- fault-injection coverage (the hardened paths) -----------------

    /// A sorter spilling into a fresh fault-injecting filesystem.
    fn faulty_sorter(
        chunk: &DataChunk,
        order: &OrderBy,
        budget: usize,
        schedule: FaultSchedule,
    ) -> (ExternalSorter, FaultFs) {
        let fs = FaultFs::new(schedule);
        let sorter = ExternalSorter::with_spill_io(
            chunk.types(),
            order.clone(),
            ExternalSortOptions {
                memory_limit_rows: budget,
                ..Default::default()
            },
            Arc::new(fs.clone()),
        );
        (sorter, fs)
    }

    fn wspec(file: usize, at_byte: u64, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            file,
            at_byte,
            bit: 0,
            kind,
        }
    }

    /// A truncated run file is rejected by verification with a typed
    /// corruption error — and no spill file survives the failed sort.
    #[test]
    fn truncated_run_file_is_detected() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(2_000, 21, 300))])
            .unwrap();
        let order = OrderBy::ascending(1);
        let (sorter, fs) = faulty_sorter(
            &chunk,
            &order,
            500,
            FaultSchedule {
                specs: vec![wspec(1, 64, FaultKind::ShortRead)],
                disk_capacity: None,
            },
        );
        let err = sorter.sort(&chunk).expect_err("truncation must surface");
        assert!(
            matches!(err, SpillError::Corrupt { .. }),
            "want Corrupt, got {err:?}"
        );
        assert!(err.path().contains("rowsort-spill-"), "path context: {err}");
        assert_eq!(sorter.metrics().counter(Counter::SpillChecksumFailed), 1);
        drop(sorter);
        assert!(fs.live_files().is_empty(), "leaked: {:?}", fs.live_files());
    }

    /// Bit flips anywhere in a run file — keys, rows, length words, or a
    /// block hash — surface as typed corruption, never as wrong rows.
    #[test]
    fn bit_flipped_run_file_is_detected() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(2_000, 22, 300))])
            .unwrap();
        let order = OrderBy::ascending(1);
        // Sweep flip positions across the file (the header's magic, the
        // first key, mid-stream, deep into the file).
        for (at_byte, bit) in [(3u64, 7u8), (9, 0), (1500, 4), (4000, 1)] {
            let (sorter, fs) = faulty_sorter(
                &chunk,
                &order,
                500,
                FaultSchedule {
                    specs: vec![FaultSpec {
                        file: 2,
                        at_byte,
                        bit,
                        kind: FaultKind::BitFlip,
                    }],
                    disk_capacity: None,
                },
            );
            match sorter.sort(&chunk) {
                Ok(out) => {
                    // Only acceptable if the flip landed beyond the file
                    // (never fired) — then the output must be correct.
                    assert_eq!(fs.stats().bit_flips, 0, "flip fired but sort succeeded");
                    assert_sorted_permutation(&out, &chunk, &order, "unfired flip");
                }
                Err(err) => {
                    assert!(
                        matches!(err, SpillError::Corrupt { .. }),
                        "byte {at_byte} bit {bit}: want Corrupt, got {err:?}"
                    );
                    assert_eq!(
                        sorter.metrics().counter(Counter::SpillChecksumFailed),
                        1,
                        "byte {at_byte} bit {bit}"
                    );
                }
            }
            drop(sorter);
            assert!(fs.live_files().is_empty(), "leaked: {:?}", fs.live_files());
        }
    }

    /// Transient write failures are absorbed by retry-with-backoff: the
    /// sort succeeds, the retries are counted, nothing leaks.
    #[test]
    fn transient_write_errors_are_retried() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(1_000, 23, 100))])
            .unwrap();
        let order = OrderBy::ascending(1);
        // Two consecutive creation ordinals fail: the first run's write and
        // its first retry. The second retry (ordinal 2) succeeds.
        let (sorter, fs) = faulty_sorter(
            &chunk,
            &order,
            250,
            FaultSchedule {
                specs: vec![
                    wspec(0, 0, FaultKind::WriteError(io::ErrorKind::TimedOut)),
                    wspec(1, 100, FaultKind::WriteError(io::ErrorKind::WouldBlock)),
                ],
                disk_capacity: None,
            },
        );
        let out = sorter.sort(&chunk).expect("retries absorb the faults");
        assert_sorted_permutation(&out, &chunk, &order, "survived faults");
        assert_eq!(sorter.metrics().counter(Counter::SpillRetries), 2);
        assert_eq!(sorter.metrics().counter(Counter::SpilledRuns), 4);
        drop(sorter);
        assert!(fs.live_files().is_empty(), "leaked: {:?}", fs.live_files());
    }

    /// A non-transient write failure is not retried: it surfaces as a
    /// typed I/O error naming the operation, with nothing leaked.
    #[test]
    fn hard_write_error_fails_typed() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(1_000, 24, 100))])
            .unwrap();
        let order = OrderBy::ascending(1);
        let (sorter, fs) = faulty_sorter(
            &chunk,
            &order,
            250,
            FaultSchedule {
                specs: vec![wspec(2, 50, FaultKind::WriteError(io::ErrorKind::Other))],
                disk_capacity: None,
            },
        );
        let err = sorter.sort(&chunk).expect_err("hard error must surface");
        match &err {
            SpillError::Io { op, kind, .. } => {
                assert_eq!(*op, SpillOp::Write);
                assert_eq!(*kind, io::ErrorKind::Other);
            }
            other => panic!("want Io, got {other:?}"),
        }
        assert_eq!(sorter.metrics().counter(Counter::SpillRetries), 0);
        drop(sorter);
        assert!(fs.live_files().is_empty(), "leaked: {:?}", fs.live_files());
    }

    /// Exhausted spill space degrades to in-memory runs instead of
    /// failing: the sort completes and matches the in-memory oracle, and
    /// the fallback is visible in the metrics.
    #[test]
    fn enospc_degrades_to_in_memory_runs() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(4_000, 25, 500))])
            .unwrap();
        let order = OrderBy::ascending(1);
        // Capacity fits roughly two of the eight ~500-row runs.
        let (sorter, fs) = faulty_sorter(
            &chunk,
            &order,
            500,
            FaultSchedule {
                specs: vec![],
                disk_capacity: Some(16 * 1024),
            },
        );
        let out = sorter.sort(&chunk).expect("degradation absorbs ENOSPC");
        assert_sorted_permutation(&out, &chunk, &order, "survived faults");
        let m = sorter.metrics();
        assert!(
            m.counter(Counter::SpillMemFallbackRuns) > 0,
            "fallback used"
        );
        assert!(fs.stats().enospc_errors > 0, "capacity actually hit");
        drop(sorter);
        assert!(fs.live_files().is_empty(), "leaked: {:?}", fs.live_files());
    }

    /// A run file that vanishes before the merge (tmp-reaper race) is a
    /// typed read error carrying the file's path — satellite coverage for
    /// `RunCursor` open losing context.
    #[test]
    fn vanished_run_file_error_names_the_path() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(1_000, 26, 100))])
            .unwrap();
        let order = OrderBy::ascending(1);
        let (sorter, fs) = faulty_sorter(
            &chunk,
            &order,
            250,
            FaultSchedule {
                specs: vec![wspec(1, 0, FaultKind::DeleteOnClose)],
                disk_capacity: None,
            },
        );
        let err = sorter.sort(&chunk).expect_err("vanished file must surface");
        match &err {
            SpillError::Io { op, kind, path, .. } => {
                assert_eq!(*op, SpillOp::Read);
                assert_eq!(*kind, io::ErrorKind::NotFound);
                assert!(path.contains("rowsort-spill-"), "path context: {path}");
            }
            other => panic!("want Io, got {other:?}"),
        }
        drop(sorter);
        // The double-delete (drop guard after delete-on-close) is clean:
        // a NotFound cleanup is not a failure.
        assert!(fs.live_files().is_empty());
    }

    /// Failed spill-file deletions are counted, not silently ignored —
    /// the leak is observable as `spill_cleanup_failed == live files`.
    #[test]
    fn cleanup_failures_are_counted() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(1_000, 27, 100))])
            .unwrap();
        let order = OrderBy::ascending(1);
        let (sorter, fs) = faulty_sorter(
            &chunk,
            &order,
            250,
            FaultSchedule {
                specs: vec![wspec(2, 0, FaultKind::DeleteError)],
                disk_capacity: None,
            },
        );
        let out = sorter
            .sort(&chunk)
            .expect("delete fault does not break the sort");
        assert_sorted_permutation(&out, &chunk, &order, "survived faults");
        let leaked = sorter.metrics().counter(Counter::SpillCleanupFailed);
        assert_eq!(leaked, 1, "one deletion failed");
        drop(sorter);
        assert_eq!(
            fs.live_files().len() as u64,
            leaked,
            "every leak is accounted for"
        );
    }

    // ---- offset-value coded spill merges (DESIGN.md §10) ----------------

    /// With long-shared-prefix keys most merge comparisons resolve on the
    /// code compare alone, and the counters show it: a high resolved rate
    /// and far fewer key bytes touched than two full keys per compare.
    #[test]
    fn ovc_merge_resolves_most_comparisons_on_codes() {
        let mut chunk = DataChunk::new(&[LogicalType::Varchar, LogicalType::UInt32]);
        let r = pseudo_random(4_000, 32, 1_000_000);
        for (i, &v) in r.iter().enumerate() {
            chunk
                .push_row(&[
                    Value::from(format!("warehouse_eu_{v:07}")),
                    Value::UInt32(i as u32),
                ])
                .unwrap();
        }
        let order = OrderBy::ascending(1);
        let sorter = ExternalSorter::new(
            chunk.types(),
            order,
            ExternalSortOptions {
                memory_limit_rows: 500,
                ovc: true,
                ..Default::default()
            },
        );
        let _ = sorter.sort(&chunk).unwrap();
        let m = sorter.last_profile().metrics;
        let cmps = m.counter(Counter::MergeCmps);
        let resolved = m.counter(Counter::MergeCmpsOvcResolved);
        assert!(cmps > 0, "merge ran");
        assert!(resolved <= cmps);
        assert!(
            resolved * 2 > cmps,
            "codes should resolve most comparisons: {resolved}/{cmps}"
        );
    }

    /// A run file whose header advertises the wrong OVC flag for the merge
    /// reading it is structurally corrupt — surfaced before any record is
    /// trusted.
    #[test]
    fn ovc_header_flag_mismatch_is_corrupt() {
        let chunk = stringy_chunk(400, 33);
        let sorter = ExternalSorter::new(
            chunk.types(),
            OrderBy::ascending(2),
            ExternalSortOptions {
                ovc: true,
                ..Default::default()
            },
        );
        let (runs, plan) = build_spilled_runs(&sorter, &chunk);
        // The same plan with OVC off expects code-free run files.
        let plain = ExternalSorter::new(
            chunk.types(),
            OrderBy::ascending(2),
            ExternalSortOptions {
                ovc: false,
                ..Default::default()
            },
        );
        let err = plain
            .open_cursor(&runs[0], plain.core.merge_order(&plan), runs[0].bounds())
            .err()
            .expect("flag mismatch must surface");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
    }

    /// A code whose decoded offset exceeds the key's word count can never
    /// be produced by the encoder; the cursor rejects it structurally on
    /// the record that carries it, whatever the block's hash says.
    #[test]
    fn implausible_ovc_code_is_rejected_per_record() {
        let chunk = stringy_chunk(64, 34);
        let order = OrderBy::ascending(2);
        let sorter = ExternalSorter::new(
            chunk.types(),
            order,
            ExternalSortOptions {
                ovc: true,
                ..Default::default()
            },
        );
        let sorted = whole_run(&sorter, &chunk);
        let planned = plan(&sorter, &chunk);
        let clean = memory_run(&sorter, &planned, &sorted);
        let mut bytes = bytes_of(&clean).to_vec();
        let kw = sorted.key_width;
        // Overwrite record 0's code (right after the 8-byte header and the
        // key) with an offset no encoder can emit, under a hash that
        // vouches for it: the structural check alone is left to object.
        let at = HEADER_BYTES + kw;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bytes, &clean.index, 0);
        let run = with_bytes(&clean, bytes);
        let err = sorter
            .open_cursor(&run, sorter.core.merge_order(&planned), run.bounds())
            .err()
            .expect("implausible code must surface");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
        assert!(err.to_string().contains("implausible"), "got {err}");
    }

    /// Other magic, other versions and unknown header flags are rejected
    /// as corrupt rather than mis-parsed as records.
    #[test]
    fn bad_header_is_corrupt() {
        let chunk = stringy_chunk(32, 35);
        let sorter = ExternalSorter::new(
            chunk.types(),
            OrderBy::ascending(2),
            ExternalSortOptions {
                ovc: true,
                ..Default::default()
            },
        );
        let (runs, plan) = build_spilled_runs(&sorter, &chunk);
        let order = sorter.core.merge_order(&plan);
        let bytes = file_bytes(&runs[0]);
        for mutate in [
            // Wrong magic.
            &(|b: &mut Vec<u8>| b[0] = b'X') as &dyn Fn(&mut Vec<u8>),
            // Future version.
            &|b: &mut Vec<u8>| b[4] = 99,
            // Unknown flag bit.
            &|b: &mut Vec<u8>| b[6] |= 0x80,
        ] {
            let mut broken = bytes.clone();
            mutate(&mut broken);
            let run = with_bytes(&runs[0], broken);
            let err = sorter
                .open_cursor(&run, order, run.bounds())
                .err()
                .expect("bad header must surface");
            assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
        }
    }

    // ---- structure-aware corruption (DESIGN.md §8.3) ---------------------

    /// A copy of `run` whose bytes are `bytes`: in memory, or as a file on
    /// `fs` (which has no seek, so ranged opens go through `open_at`'s
    /// default skip loop).
    fn place(run: &Run, bytes: Vec<u8>, fs: Option<&FaultFs>) -> Run {
        let Some(fs) = fs else {
            return with_bytes(run, bytes);
        };
        let id = SPILL_COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
        let path = PathBuf::from(format!("mutated-{id}.run"));
        let io: Arc<dyn SpillIo> = Arc::new(fs.clone());
        io.create(&path).unwrap().write_all(&bytes).unwrap();
        let metrics = Arc::new(CounterRegistry::new());
        let spilled = SpilledRun { path, io, metrics };
        Run {
            store: RunStore::Spilled(spilled),
            ..with_bytes(run, Vec::new())
        }
    }

    /// Byte ranges of record `j` of block `b` in a run's encoding, in
    /// record order: key, code (empty without OVC), row, length word,
    /// string segment.
    fn record_fields(
        bytes: &[u8],
        index: &RunIndex,
        (b, j): (usize, usize),
        (kw, width, ovc): (usize, usize, bool),
    ) -> [std::ops::Range<usize>; 5] {
        let mut at = index.blocks[b].off as usize + if b == 0 { HEADER_BYTES } else { 0 };
        for skip in (0..=j).rev() {
            let code_at = at + kw;
            let row_at = code_at + if ovc { 8 } else { 0 };
            let len_at = row_at + width;
            let seg_at = len_at + 4;
            let next = seg_at + u32::from_le_bytes(word(bytes, len_at)) as usize;
            if skip == 0 {
                return [
                    at..code_at,
                    code_at..row_at,
                    row_at..len_at,
                    len_at..seg_at,
                    seg_at..next,
                ];
            }
            at = next;
        }
        panic!("the loop returns at record j")
    }

    /// One seeded mutation of a run's encoding: a bit flipped in a chosen
    /// field, a block moved, repeated or lost, the file cut short or
    /// grown. `resealed` flips a bit of a record — its key, code, row,
    /// length word or segment — and re-seals the block, so the flip
    /// reaches the checks behind the hash. Returns what was done, for the
    /// failure message.
    fn mutate(
        rng: &mut Rng,
        bytes: &mut Vec<u8>,
        index: &RunIndex,
        shape: (usize, usize, bool),
        resealed: bool,
    ) -> String {
        let blocks = &index.blocks;
        let b = rng.below(blocks.len() as u64) as usize;
        let span = |b: usize| blocks[b].off as usize..blocks[b].off as usize + blocks[b].len;
        let rows_in =
            blocks.get(b + 1).map_or(index.rows, |n| n.rows_before) - blocks[b].rows_before;
        let j = rng.below(rows_in as u64) as usize;
        let [key, code, row, seg_len, seg] = record_fields(bytes, index, (b, j), shape);
        let kind = if resealed {
            rng.range_inclusive(1, 5)
        } else {
            rng.below(13)
        };
        let flip = match kind {
            0 => Some((0..HEADER_BYTES, "header")),
            1 => Some((key, "key")),
            2 if shape.2 => Some((code, "code")),
            2 | 3 => Some((row, "row")),
            4 => Some((seg_len, "segment length")),
            5 if seg.is_empty() => Some((seg_len, "segment length")),
            5 => Some((seg, "segment")),
            6 => Some((span(b).end - HASH_BYTES..span(b).end, "block hash")),
            _ => None,
        };
        if let Some((range, what)) = flip {
            let (at, bit) = (rng.range(range.start, range.end), rng.below(8));
            bytes[at] ^= 1 << bit;
            if resealed {
                reseal(bytes, index, b);
            }
            return format!("flip bit {bit} of byte {at} ({what} of record {j}, block {b})");
        }
        match kind {
            7 => {
                let other = (b + 1 + rng.below(blocks.len() as u64 - 1) as usize) % blocks.len();
                let (lo, hi) = (b.min(other), b.max(other));
                let mut swapped = bytes[..span(lo).start].to_vec();
                swapped.extend_from_slice(&bytes[span(hi)]);
                swapped.extend_from_slice(&bytes[span(lo).end..span(hi).start]);
                swapped.extend_from_slice(&bytes[span(lo)]);
                swapped.extend_from_slice(&bytes[span(hi).end..]);
                *bytes = swapped;
                format!("swap blocks {lo} and {hi}")
            }
            8 => {
                let copy = bytes[span(b)].to_vec();
                bytes.splice(span(b).end..span(b).end, copy);
                format!("duplicate block {b}")
            }
            9 => {
                bytes.drain(span(b));
                format!("drop block {b}")
            }
            10 => {
                bytes.truncate(span(b).start);
                format!("truncate before block {b}")
            }
            11 => {
                let at = rng.range(span(b).start + 1, span(b).end);
                bytes.truncate(at);
                format!("truncate at byte {at}, inside block {b}")
            }
            _ => {
                let extra = rng.range_inclusive(1usize, 16);
                bytes.extend(rng.bytes(extra));
                format!("append {extra} bytes")
            }
        }
    }

    /// Spilled runs of one relation, re-encoded in memory, a sorter that
    /// merges them at each of 1, 2 and 4 threads, and the rows the clean
    /// runs merge to.
    struct Fixture {
        sorters: Vec<ExternalSorter>,
        runs: Vec<Run>,
        rows: Vec<Vec<Value>>,
        /// The plan the runs were built from.
        plan: KeyPlan,
    }

    /// The mutation properties' relation, and its fixtures: keyed by an
    /// integer and a VARCHAR without and with OVC, and by three integers
    /// that range-code in 5 bytes, with OVC — a key that is its own merge
    /// code, whose records carry none. Three runs of at least three
    /// blocks each: the first key holds both its columns exactly, so its
    /// records are the narrow row of the other three.
    fn mutation_fixtures() -> (DataChunk, Vec<Fixture>) {
        let stringy = stringy_chunk(13_500, 43);
        let nullable: Vec<Value> = (0..stringy.len() as i32)
            .map(|i| match i % 5 {
                0 => Value::Null,
                _ => Value::Int32(i * 7_919 % 101),
            })
            .collect();
        let mut columns = stringy.columns().to_vec();
        columns.push(Vector::from_values(LogicalType::Int32, &nullable).unwrap());
        let chunk = DataChunk::from_columns(columns).unwrap();
        let by = OrderBy::new(vec![OrderByColumn::asc(1), OrderByColumn::asc(0)]);
        let by_ints = OrderBy::new([1, 4, 3].map(OrderByColumn::asc).to_vec());
        assert_eq!(KeyBlock::planned(&chunk, &by_ints).key_width(), 5);
        let fixtures = [(&by, false), (&by, true), (&by_ints, true)]
            .into_iter()
            .map(|(by, ovc)| {
                let sorter_at = |merge_threads| {
                    let options = ExternalSortOptions {
                        memory_limit_rows: 4_500,
                        ovc,
                        merge_threads,
                        ..Default::default()
                    };
                    ExternalSorter::new(chunk.types(), by.clone(), options)
                };
                let sorters: Vec<ExternalSorter> = [1, 2, 4].into_iter().map(sorter_at).collect();
                let (runs, plan) = build_spilled_runs(&sorters[0], &chunk);
                let order = sorters[0].core.merge_order(&plan);
                // The same runs again, encoded in memory.
                let runs: Vec<Run> = runs
                    .iter()
                    .map(|run| with_bytes(run, file_bytes(run)))
                    .collect();
                assert!(runs.iter().all(|r| r.index.blocks.len() >= 3));
                // Records carry a code only where the key is not its own.
                let header = header_bytes(ovc && order.kw > ovc::KEY_CODE_BYTES);
                assert!(runs.iter().all(|r| bytes_of(r)[..HEADER_BYTES] == header));
                let rows = sorters[0]
                    .merge_planned(&runs, &plan, &chunk)
                    .unwrap()
                    .to_rows();
                Fixture {
                    sorters,
                    runs,
                    rows,
                    plan,
                }
            })
            .collect();
        (chunk, fixtures)
    }

    /// What [`record_fields`] and [`mutate`] need to know of run `r`'s
    /// records: key width, row width, and whether they carry codes.
    fn record_shape(fix: &Fixture, r: usize) -> (usize, usize, bool) {
        let (sorter, index) = (&fix.sorters[0], &fix.runs[r].index);
        let kw = index.first_keys.len() / index.blocks.len();
        (
            kw,
            sorter.core.row_plan(&fix.plan).layout.width(),
            sorter.core.codes(kw).stored(),
        )
    }

    /// Merge `fix`'s runs with run `r`'s bytes replaced — in memory, or as
    /// a file on `fs` — at every thread count, and hold each outcome to
    /// `accept`.
    fn merge_replaced(
        fix: &Fixture,
        chunk: &DataChunk,
        (r, bytes): (usize, &[u8]),
        fs: Option<&FaultFs>,
        accept: impl Fn(Result<DataChunk, SpillError>) -> Result<(), String>,
    ) -> Result<(), String> {
        for sorter in &fix.sorters {
            let mut runs: Vec<Run> = fix
                .runs
                .iter()
                .map(|run| with_bytes(run, bytes_of(run).to_vec()))
                .collect();
            runs[r] = place(&fix.runs[r], bytes.to_vec(), fs);
            let threads = sorter.core.set.threads();
            accept(sorter.merge_planned(&runs, &fix.plan, chunk))
                .map_err(|e| format!("threads={threads}: {e}"))?;
        }
        Ok(())
    }

    /// Run files are untrusted: whatever happens to one between spill and
    /// merge — a bit flipped in the header, a key, a code, a row, a length
    /// word, a string or a block hash; a block swapped, duplicated or
    /// dropped; the file truncated or grown — the merge answers
    /// [`SpillError::Corrupt`], at any thread count and whether the run
    /// is a file or in memory. (Or, for a mutation that changes nothing,
    /// the unmutated rows.) Never a panic, an I/O error, or another row.
    #[test]
    fn run_file_mutations_are_corrupt_or_harmless() {
        let (chunk, fixtures) = mutation_fixtures();
        let fs = FaultFs::new(FaultSchedule::none());

        // Merge the fixture's runs with run `r` replaced, at every thread
        // count: corrupt, or the clean rows.
        let merge_all = |fix: &Fixture, r: usize, bytes: &[u8], on_fs: bool, strict: bool| {
            let fs = on_fs.then_some(&fs);
            merge_replaced(fix, &chunk, (r, bytes), fs, |out| match out {
                Err(SpillError::Corrupt { .. }) => Ok(()),
                Err(err) => Err(format!("want Corrupt, got {err:?}")),
                Ok(_) if strict => Err("merged a damaged run".to_string()),
                Ok(out) if out.to_rows() != fix.rows => Err("merged to other rows".to_string()),
                Ok(_) => Ok(()),
            })
        };

        // Unmutated, the runs merge to the same rows at every thread count
        // and from either store.
        for fix in &fixtures {
            for on_fs in [false, true] {
                merge_all(fix, 0, bytes_of(&fix.runs[0]), on_fs, false).unwrap();
            }
        }

        // Every truncation — before each block and inside it — is corrupt:
        // the index knows how long the file must be, so a range opened
        // past the new end is truncation too, not an I/O error.
        for fix in &fixtures {
            for (r, run) in fix.runs.iter().enumerate() {
                for meta in &run.index.blocks {
                    for cut in [meta.off as usize, meta.off as usize + meta.len / 2] {
                        for on_fs in [false, true] {
                            merge_all(fix, r, &bytes_of(run)[..cut], on_fs, true).unwrap_or_else(
                                |e| panic!("run {r} cut to {cut} bytes, on_fs={on_fs}: {e}"),
                            );
                        }
                    }
                }
            }
        }

        Runner::new("run_file_mutations_are_corrupt_or_harmless")
            .cases(128)
            .run(&full::<u64>(), |&seed| {
                let mut rng = Rng::seed_from_u64(seed);
                let fix = &fixtures[rng.below(fixtures.len() as u64) as usize];
                let r = rng.below(fix.runs.len() as u64) as usize;
                let on_fs = rng.chance(0.5);
                let mut bytes = bytes_of(&fix.runs[r]).to_vec();
                let shape = record_shape(fix, r);
                let what = mutate(&mut rng, &mut bytes, &fix.runs[r].index, shape, false);
                let changed = bytes != bytes_of(&fix.runs[r]);
                merge_all(fix, r, &bytes, on_fs, changed)
                    .map_err(|e| format!("run {r}, on_fs={on_fs}, {what}: {e}"))
            });
    }

    /// A run file whose hash vouches for damaged records — a hostile
    /// writer, or an encoder bug, since the hash is no signature — still
    /// meets the record checks behind the hash: a bit flipped in a
    /// record's key, code, row, length word or string segment, with its
    /// block re-sealed, merges to [`SpillError::Corrupt`] or to every row
    /// of the relation (a changed key or payload may sort or read
    /// differently), at any thread count, with or without codes, from
    /// memory or from a file. Never a panic, and never another error.
    #[test]
    fn resealed_record_mutations_are_corrupt_or_complete() {
        let (chunk, fixtures) = mutation_fixtures();
        let fs = FaultFs::new(FaultSchedule::none());
        let corrupt_or_complete = |out: Result<DataChunk, SpillError>| match out {
            Err(SpillError::Corrupt { .. }) => Ok(()),
            Err(err) => Err(format!("want Corrupt, got {err:?}")),
            Ok(out) if out.len() != chunk.len() => Err(format!("merged {} rows", out.len())),
            Ok(_) => Ok(()),
        };

        Runner::new("resealed_record_mutations_are_corrupt_or_complete")
            .cases(128)
            .run(&full::<u64>(), |&seed| {
                let mut rng = Rng::seed_from_u64(seed);
                let fix = &fixtures[rng.below(fixtures.len() as u64) as usize];
                let r = rng.below(fix.runs.len() as u64) as usize;
                let on_fs = rng.chance(0.5);
                let mut bytes = bytes_of(&fix.runs[r]).to_vec();
                let shape = record_shape(fix, r);
                let what = mutate(&mut rng, &mut bytes, &fix.runs[r].index, shape, true);
                let fs = on_fs.then_some(&fs);
                merge_replaced(fix, &chunk, (r, &bytes), fs, corrupt_or_complete)
                    .map_err(|e| format!("run {r}, on_fs={on_fs}, {what}: {e}"))
            });

        // Corrupt, saying `detail`.
        let corrupt_saying = |detail: String| {
            move |out: Result<DataChunk, SpillError>| match out {
                Err(err @ SpillError::Corrupt { .. }) if err.to_string().contains(&detail) => {
                    Ok(())
                }
                out => Err(format!(
                    "want Corrupt saying `{detail}`, got {:?}",
                    out.err()
                )),
            }
        };

        // Three damaged records of the first block of run 0, each under a
        // valid hash: a segment length past the block, a VARCHAR slot past
        // its segment, and a record whose fixed part runs past the block
        // (the record before it grown to end one byte short of the end).
        for fix in &fixtures {
            let rows = fix.sorters[0].core.row_plan(&fix.plan);
            let (index, layout) = (&fix.runs[0].index, &rows.layout);
            let clean = bytes_of(&fix.runs[0]);
            let fields = |j| record_fields(clean, index, (0, j), record_shape(fix, 0));
            let damaged = |edit: &dyn Fn(&mut [u8])| {
                let mut bytes = clean.to_vec();
                edit(&mut bytes);
                reseal(&mut bytes, index, 0);
                bytes
            };
            let put = |b: &mut [u8], at: usize, v: usize| {
                b[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes());
            };
            let [_, _, row, seg_len, seg] = fields(0);
            let long_segment = damaged(&|b| put(b, seg_len.start, BLOCK_BYTES));
            // The first VARCHAR slot of the row, and the column it holds.
            let c = rows.varlen[0];
            let slot = row.start + layout.offset(c);
            let long_string = damaged(&|b| {
                b[row.start + layout.null_offset(c)] = 0;
                put(b, slot, 0);
                put(b, slot + 4, seg.len() + 1);
            });
            let last = index.blocks[1].rows_before - 1;
            let [_, _, _, prev_len, prev_seg] = fields(last - 1);
            let [last_key, _, _, _, last_seg] = fields(last);
            let grown = prev_seg.len() + last_seg.end - last_key.start - 1;
            let short_record = damaged(&|b| put(b, prev_len.start, grown));
            let string_column = format!("VARCHAR slot of column {}", rows.columns[c]);
            for (bytes, detail) in [
                (long_segment, "segment length".to_owned()),
                (long_string, string_column),
                (
                    short_record,
                    "record runs past the end of its block".to_owned(),
                ),
            ] {
                for fs in [None, Some(&fs)] {
                    let says = corrupt_saying(detail.clone());
                    merge_replaced(fix, &chunk, (0, &bytes), fs, says).unwrap();
                }
            }
        }
    }
}
