//! Out-of-core sorting — the paper's §IX future work, implemented and
//! hardened against a hostile disk.
//!
//! The sort operator is a pipeline breaker: it must materialize its input,
//! and a main-memory engine that cannot either fails the query or falls off
//! a performance cliff. The paper's future-work section proposes using the
//! unified row format to "offload the data to secondary storage in a
//! unified way" so performance degrades gracefully. [`ExternalSorter`]
//! does exactly that:
//!
//! 1. **Run generation** under a row budget: each run is built by the
//!    in-memory pipeline's own run generator ([`crate::run`]), then
//!    *spilled* to a temporary file as self-contained records
//!    (`key ‖ payload row ‖ per-row string segment`), so a run's memory is
//!    back in the pool before the next run is built.
//! 2. **Streaming merge**: the shared merge kernel ([`crate::merge`]) over
//!    buffered run readers pops one record at a time; peak memory during
//!    the merge is one buffer pair per run plus the output. With more
//!    than one merge thread the key space is
//!    cut into disjoint ranges at splitter keys sampled from the runs
//!    (DESIGN.md §11), a verifying scan locates each run's range
//!    boundaries, and the persistent worker pool merges every range
//!    independently into pre-sized slots of one shared output — the
//!    concatenation is bit-identical to the single-threaded merge.
//!
//! Storage is reached only through the [`SpillIo`] trait (`std::fs` by
//! default, a fault-injecting in-memory backend in tests), and the spill
//! path defends itself (DESIGN.md §8):
//!
//! * every run file carries an xxHash64 trailer, verified streamingly as
//!   the merge reads it back — truncation, bit flips, or trailing garbage
//!   surface as a typed [`SpillError::Corrupt`], never as wrong rows;
//! * transient write failures are retried with doubling backoff
//!   ([`ExternalSortOptions::max_write_retries`]);
//! * out-of-space errors degrade the sort to fewer/larger in-memory runs
//!   instead of failing the query;
//! * a drop-guard deletes every spilled file on all exit paths, and
//!   deletions that *fail* are counted in `spill_cleanup_failed` so leaks
//!   are observable rather than silent.

use crate::comparator::FusedRowComparator;
use crate::keys::KeyBlock;
use crate::merge::{
    choose_splitters, merge_kway, plan_parts, sample_positions, MergeOrder, MergeStats, RunSource,
    SegmentSink,
};
use crate::metrics::{emit_trace, Counter, CounterRegistry, Metrics, Phase, SortProfile};
use crate::ovc;
use crate::pool::BufferPool;
use crate::run::{varchar_stats, RunGenerator, SortedRun};
use crate::spill::{ReadAhead, SpillError, SpillIo, SpillOp, StdFs};
use crate::workers::WorkerPool;
use rowsort_algos::kway::OvcLoserTree;
use rowsort_row::{RowBlock, RowLayout};
use rowsort_testkit::hash::XxHash64;
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Seed for the per-run xxHash64 checksum ("ROWSORT!" as bytes), so spill
/// trailers are distinguishable from unseeded digests of the same bytes.
const SPILL_CHECKSUM_SEED: u64 = 0x524F_5753_4F52_5421;

/// Upper bound on one record's string-segment length. A corrupted length
/// word must not translate into a multi-gigabyte allocation before the
/// checksum gets a chance to reject the file.
const MAX_SEG_BYTES: usize = 1 << 28;

/// Magic prefix of every run file ("RowSort RuN"). The 8-byte header —
/// magic, format version, feature flags — is hashed into the trailer like
/// every record byte, so a tampered header is caught even when its fields
/// happen to parse.
const SPILL_MAGIC: [u8; 4] = *b"RSRN";

/// Run-file format version. Version 2 added the header itself and the
/// optional per-record offset-value code; version-1 files (headerless)
/// are rejected as corrupt rather than mis-parsed.
const SPILL_VERSION: u16 = 2;

/// Header flag bit 0: each record carries an 8-byte offset-value code
/// (LE `u64`) between its key and its payload row.
const SPILL_FLAG_OVC: u16 = 1;

/// Bytes of run-file header (magic ‖ version ‖ flags) before the first
/// record — the byte offset every partition scan starts from.
const HEADER_BYTES: u64 = 8;

/// Tuning for the external sorter.
#[derive(Debug, Clone)]
pub struct ExternalSortOptions {
    /// Maximum rows held in memory during run generation (the "memory
    /// limit"; the paper's DuckDB uses bytes, rows are equivalent for a
    /// fixed schema).
    pub memory_limit_rows: usize,
    /// Directory for spill files (defaults to the system temp dir).
    pub spill_dir: Option<PathBuf>,
    /// How many times a transient write failure (interrupted, timed out,
    /// would-block) is retried before the sort gives up on the run.
    pub max_write_retries: usize,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub retry_backoff: Duration,
    /// Spill an offset-value code per record and merge through the
    /// OVC-aware loser tree (DESIGN.md §10). Defaults to
    /// [`crate::pipeline::default_ovc`] (`ROWSORT_OVC=0` disables).
    pub ovc: bool,
    /// Worker threads for the spill-merge phase. With more than one, the
    /// merge is range-partitioned across the persistent worker pool
    /// (DESIGN.md §11); output is bit-identical at any thread count.
    /// Defaults to [`crate::pipeline::default_threads`].
    pub merge_threads: usize,
}

impl Default for ExternalSortOptions {
    fn default() -> Self {
        ExternalSortOptions {
            memory_limit_rows: 1 << 17,
            spill_dir: None,
            max_write_retries: 3,
            retry_backoff: Duration::from_micros(250),
            ovc: crate::pipeline::default_ovc(),
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
    types: Vec<LogicalType>,
    order: OrderBy,
    options: ExternalSortOptions,
    layout: Arc<RowLayout>,
    /// Full-tuple comparator for VARCHAR-prefix tie resolution, built once.
    tie_cmp: FusedRowComparator,
    /// Columns holding out-of-row (VARCHAR) data.
    varlen_cols: Vec<usize>,
    io: Arc<dyn SpillIo>,
    metrics: Arc<CounterRegistry>,
    profile: Mutex<SortProfile>,
    /// Recycles merge output buffers and read-ahead blocks, so repeated
    /// sorts through one sorter reach a zero-allocation steady state.
    pool: Arc<BufferPool>,
    /// Merge workers, spawned lazily on the first partitioned merge so
    /// single-threaded (or never-partitioned) sorters spawn no threads.
    workers: OnceLock<WorkerPool>,
}

/// One spilled run file and the metadata to read it back. The `Drop` impl
/// is the cleanup guarantee: whatever path the sort exits through, every
/// run file is deleted — and a deletion that fails is counted in
/// `spill_cleanup_failed` instead of being silently ignored.
struct SpilledRun {
    path: PathBuf,
    rows: usize,
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

/// One sorted run as the merge sees it: where its encoded bytes live, the
/// splitter-candidate keys sampled from it at encode time (the keys at
/// its [`sample_positions`], `key_width` bytes each) and the total of its
/// records' string segments. Samples and total cost nothing to capture
/// while the run is hot; they let the merge choose range splitters and
/// pre-size its output heap without reading any file.
struct Run {
    samples: Vec<u8>,
    heap_bytes: u64,
    store: RunStore,
}

/// Where a run's encoded bytes live: normally a spilled file, or — after
/// spill space is exhausted — the same encoded bytes held in memory.
/// Both shapes are read back through the identical [`RunCursor`] code
/// path.
enum RunStore {
    Spilled(SpilledRun),
    Memory { bytes: Vec<u8>, rows: usize },
}

impl Run {
    fn rows(&self) -> usize {
        match &self.store {
            RunStore::Spilled(r) => r.rows,
            RunStore::Memory { rows, .. } => *rows,
        }
    }
}

/// How a [`RunCursor`] reads its run.
#[derive(Clone, Copy, PartialEq)]
enum CursorMode {
    /// The whole file from its header: every byte read is checksummed,
    /// and the advance past the last record verifies the trailer.
    Verifying,
    /// One range of a run: the reader is positioned at the range's first
    /// record and stops before the trailer, so there is no header parse
    /// and no checksum — the partition scan that computed the range
    /// boundaries already verified every byte of the file.
    Ranged,
}

/// The byte stream under a [`RunCursor`]: the reader plus everything a
/// read must update or report.
struct RunReader<'a> {
    reader: Box<dyn Read + Send + 'a>,
    path: PathBuf,
    hasher: XxHash64,
    /// Bytes consumed from the reader so far — the stream offset of the
    /// next unread byte.
    consumed: u64,
    /// Whether reads feed the checksum ([`CursorMode::Verifying`]).
    verify: bool,
}

impl RunReader<'_> {
    /// `read_exact` into `buf`, tracking the stream offset, feeding the
    /// checksum (verifying cursors only), and translating errors: an
    /// early EOF is corruption (the file is shorter than its record
    /// count promises), everything else is an I/O failure.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), SpillError> {
        match self.reader.read_exact(buf) {
            Ok(()) => {
                if self.verify {
                    self.hasher.write(buf);
                }
                self.consumed += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(SpillError::corrupt(
                &self.path,
                "truncated: file ends before its advertised record count",
            )),
            Err(e) => Err(SpillError::io(SpillOp::Read, &self.path, &e)),
        }
    }
}

/// A reader over one run, holding the current record and a streaming
/// checksum of every byte read. The cursor reads exactly its advertised
/// record count; the advance past the last record checks the xxHash64
/// trailer and rejects trailing garbage, so by the time a merge drains
/// all cursors every run file has been fully verified.
struct RunCursor<'a> {
    src: RunReader<'a>,
    remaining: usize,
    /// Stream offset where the current record starts; the partition scan
    /// reads it to locate range seams.
    record_off: u64,
    key: Vec<u8>,
    /// Offset-value code of the current record, relative to the record
    /// before it in this run (the first record is coded against −∞).
    /// Only meaningful when the run carries the OVC column.
    code: u64,
    has_ovc: bool,
    /// Key word count, for structural validation of decoded codes.
    arity: usize,
    row: Vec<u8>,
    heap: Vec<u8>,
}

impl<'a> RunCursor<'a> {
    /// A cursor over `rows` records of `kw`-byte keys and `width`-byte
    /// rows, positioned on the first. `ovc` says whether records carry a
    /// code: a verifying cursor checks the header agrees, a ranged one
    /// takes it on trust. A ranged cursor's first record is coded against
    /// its predecessor, which lives in the previous range, so it is
    /// re-coded against −∞ — the base the loser tree's leaves start from.
    fn open(
        reader: Box<dyn Read + Send + 'a>,
        path: PathBuf,
        rows: usize,
        (kw, width, ovc): (usize, usize, bool),
        mode: CursorMode,
    ) -> Result<RunCursor<'a>, SpillError> {
        let mut c = RunCursor {
            src: RunReader {
                reader,
                path,
                hasher: XxHash64::with_seed(SPILL_CHECKSUM_SEED),
                consumed: 0,
                verify: mode == CursorMode::Verifying,
            },
            remaining: rows,
            record_off: 0,
            key: vec![0; kw],
            code: 0,
            has_ovc: ovc,
            arity: ovc::word_count(kw),
            row: vec![0; width],
            heap: Vec::new(),
        };
        if mode == CursorMode::Verifying {
            c.read_header()?;
        }
        c.advance()?;
        if mode == CursorMode::Ranged && c.has_ovc && !c.exhausted() {
            c.code = ovc::initial_code(&c.key, c.arity);
        }
        Ok(c)
    }

    /// Parse and validate the 8-byte run-file header. Structural checks
    /// (magic, version, flag bits) run before any record is trusted; the
    /// header bytes also feed the checksum, so even a header rewritten to
    /// parse cleanly fails trailer verification.
    fn read_header(&mut self) -> Result<(), SpillError> {
        let mut magic = [0u8; 4];
        self.src.fill(&mut magic)?;
        if magic != SPILL_MAGIC {
            return Err(SpillError::corrupt(
                &self.src.path,
                format!("bad run-file magic {magic:02x?}"),
            ));
        }
        let mut word = [0u8; 2];
        self.src.fill(&mut word)?;
        let version = u16::from_le_bytes(word);
        if version != SPILL_VERSION {
            return Err(SpillError::corrupt(
                &self.src.path,
                format!("unsupported run-file version {version} (expected {SPILL_VERSION})"),
            ));
        }
        self.src.fill(&mut word)?;
        let flags = u16::from_le_bytes(word);
        if flags & !SPILL_FLAG_OVC != 0 {
            return Err(SpillError::corrupt(
                &self.src.path,
                format!("unknown run-file flags {flags:#06x}"),
            ));
        }
        let file_ovc = flags & SPILL_FLAG_OVC != 0;
        if file_ovc != self.has_ovc {
            return Err(SpillError::corrupt(
                &self.src.path,
                format!(
                    "run-file OVC flag is {file_ovc} but the merge expected {}",
                    self.has_ovc
                ),
            ));
        }
        Ok(())
    }

    /// After the last record: the next 8 bytes must be the xxHash64 of
    /// everything before them, and nothing may follow.
    fn verify_trailer(&mut self) -> Result<(), SpillError> {
        let RunReader {
            reader,
            path,
            hasher,
            ..
        } = &mut self.src;
        let computed = hasher.finish();
        let mut trailer = [0u8; 8];
        match reader.read_exact(&mut trailer) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(SpillError::corrupt(
                    path,
                    "truncated: checksum trailer missing",
                ));
            }
            Err(e) => return Err(SpillError::io(SpillOp::Read, path, &e)),
        }
        let stored = u64::from_le_bytes(trailer);
        if stored != computed {
            return Err(SpillError::corrupt(
                path,
                format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
            ));
        }
        let mut probe = [0u8; 1];
        match reader.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(SpillError::corrupt(
                path,
                "trailing bytes after the checksum trailer",
            )),
            Err(e) => Err(SpillError::io(SpillOp::Read, path, &e)),
        }
    }
}

impl RunSource for RunCursor<'_> {
    fn exhausted(&self) -> bool {
        self.remaining == usize::MAX
    }
    fn key(&self) -> &[u8] {
        &self.key
    }
    fn code(&self) -> u64 {
        self.code
    }
    fn row(&self) -> &[u8] {
        &self.row
    }
    /// The current record's string segment; the row's VARCHAR slots hold
    /// offsets relative to it.
    fn heap(&self) -> &[u8] {
        &self.heap
    }
    fn path(&self) -> &Path {
        &self.src.path
    }

    /// Read the next record into the cursor (or verify the trailer and
    /// mark exhausted).
    fn advance(&mut self) -> Result<(), SpillError> {
        self.record_off = self.src.consumed;
        if self.remaining == 0 {
            self.remaining = usize::MAX;
            if !self.src.verify {
                // Ranged cursor: the range ends mid-file; the trailer (if
                // any follows) belongs to the verifying scan, not to us.
                return Ok(());
            }
            return self.verify_trailer();
        }
        self.remaining -= 1;
        self.src.fill(&mut self.key)?;
        if self.has_ovc {
            let mut code_buf = [0u8; 8];
            self.src.fill(&mut code_buf)?;
            let code = u64::from_le_bytes(code_buf);
            // Structural bound, like the segment-length check: a decoded
            // offset past the key's word count can never be produced by
            // the encoder, so reject it before the merge consumes it
            // (the checksum would also catch it, but only at run end).
            if !ovc::code_plausible(code, self.arity) {
                return Err(SpillError::corrupt(
                    &self.src.path,
                    format!("implausible offset-value code {code:#018x}"),
                ));
            }
            self.code = code;
        }
        self.src.fill(&mut self.row)?;
        let mut len_buf = [0u8; 4];
        self.src.fill(&mut len_buf)?;
        let seg_len = u32::from_le_bytes(len_buf) as usize;
        if seg_len > MAX_SEG_BYTES {
            // A flipped bit in the length word must not become a huge
            // allocation; reject structurally before trusting it.
            return Err(SpillError::corrupt(
                &self.src.path,
                format!("segment length {seg_len} exceeds the {MAX_SEG_BYTES}-byte bound"),
            ));
        }
        self.heap.resize(seg_len, 0);
        self.src.fill(&mut self.heap)?;
        Ok(())
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
    /// here).
    pub fn with_spill_io(
        types: Vec<LogicalType>,
        order: OrderBy,
        mut options: ExternalSortOptions,
        io: Arc<dyn SpillIo>,
    ) -> ExternalSorter {
        // A zero budget would leave the run-generation loop unable to make
        // progress (each run would cover zero rows); degrade to one-row runs.
        options.memory_limit_rows = options.memory_limit_rows.max(1);
        options.merge_threads = options.merge_threads.max(1);
        let layout = Arc::new(RowLayout::new(&types));
        let tie_cmp = FusedRowComparator::new(&layout, &order);
        let varlen_cols = (0..types.len())
            .filter(|&c| types[c] == LogicalType::Varchar)
            .collect();
        let metrics = Arc::new(CounterRegistry::new());
        ExternalSorter {
            types,
            order,
            options,
            layout,
            tie_cmp,
            varlen_cols,
            io,
            pool: Arc::new(BufferPool::with_metrics(Arc::clone(&metrics))),
            metrics,
            profile: Mutex::new(SortProfile::zeroed()),
            workers: OnceLock::new(),
        }
    }

    /// The persistent merge-worker pool, spawned on first use.
    fn workers(&self) -> &WorkerPool {
        self.workers.get_or_init(|| {
            WorkerPool::with_metrics(self.options.merge_threads, Arc::clone(&self.metrics))
        })
    }

    /// The profile recorded by the most recent [`ExternalSorter::sort`].
    pub fn last_profile(&self) -> SortProfile {
        match self.profile.lock() {
            Ok(p) => *p,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }

    /// Cumulative counters across every sort run by this sorter.
    pub fn metrics(&self) -> Metrics {
        self.metrics.snapshot()
    }

    fn spill_path(&self) -> PathBuf {
        let dir = self
            .options
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let id = SPILL_COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
        dir.join(format!("rowsort-spill-{}-{}.run", std::process::id(), id))
    }

    /// What run generation borrows from this sorter.
    fn run_generator(&self) -> RunGenerator<'_> {
        RunGenerator {
            types: &self.types,
            order: &self.order,
            layout: &self.layout,
            tie_cmp: &self.tie_cmp,
            pool: &self.pool,
            metrics: &self.metrics,
            ovc: self.options.ovc,
        }
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
        let n = input.len();
        if n == 0 {
            return Ok(DataChunk::new(&self.types));
        }
        let sort_start = Instant::now();
        let before = self.metrics.snapshot();
        let mut stats = Vec::new();
        let keys = {
            let _prepare = self.metrics.time_phase(Phase::Prepare);
            varchar_stats(input, &mut stats);
            // The one key block every run of this sort is encoded in; its
            // layout also fixes how the merge compares keys.
            KeyBlock::new(&self.types, &self.order, |c| stats[c])
        };
        let order = self.merge_order(&keys);
        let key_blocks = Mutex::new(vec![keys]);

        let runs = {
            let _spill = self.metrics.time_phase(Phase::Spill);
            self.generate_spilled_runs(input, &stats, &key_blocks)?
        };
        let merged = {
            let _merge = self.metrics.time_phase(Phase::SpillMerge);
            self.merge_runs(&runs, &order)
        };
        let out = match merged {
            Ok(out) => out,
            Err(err) => {
                if matches!(err, SpillError::Corrupt { .. }) {
                    self.metrics.add(Counter::SpillChecksumFailed, 1);
                }
                return Err(err);
            }
        };
        self.metrics.record_sort(n as u64);
        let profile = SortProfile {
            operator: "external",
            rows: n as u64,
            total_ns: sort_start.elapsed().as_nanos() as u64,
            metrics: self.metrics.snapshot().since(&before),
        };
        match self.profile.lock() {
            Ok(mut p) => *p = profile,
            Err(poisoned) => *poisoned.into_inner() = profile,
        }
        emit_trace(&profile);
        Ok(out)
    }

    /// How this sort's merges compare records, from the layout of the key
    /// block its runs are encoded in.
    fn merge_order(&self, keys: &KeyBlock) -> MergeOrder<'_> {
        MergeOrder {
            kw: keys.key_width(),
            tie_possible: keys.tie_possible(),
            tie_cmp: &self.tie_cmp,
        }
    }

    /// Phase 1: generate and spill runs within the row budget, one run
    /// resident at a time — each run's buffers are back in the pool
    /// before the next is built. Once spill space runs out (`degraded`),
    /// runs stay in memory and the budget doubles — fewer, larger runs,
    /// since the row budget no longer buys file descriptors back.
    fn generate_spilled_runs(
        &self,
        input: &DataChunk,
        stats: &[usize],
        key_blocks: &Mutex<Vec<KeyBlock>>,
    ) -> Result<Vec<Run>, SpillError> {
        let gen = self.run_generator();
        let budget = self.options.memory_limit_rows;
        let mut degraded = false;
        let mut runs: Vec<Run> = Vec::new();
        let mut start = 0;
        while start < input.len() {
            let step = if degraded {
                budget.saturating_mul(2)
            } else {
                budget
            };
            let end = (start + step).min(input.len());
            // Codes always: run files carry them whenever the sort uses
            // OVC, however many runs it ends up with.
            let run = gen.make_run(input, start, end, stats, key_blocks, true);
            let spilled = self.spill_run(&run, &mut degraded);
            run.recycle(&self.pool);
            runs.push(spilled?);
            start = end;
        }
        Ok(runs)
    }

    /// Whether run files carry the offset-value code column: requested by
    /// options and meaningful (a zero-width key has nothing to code).
    fn use_ovc(&self, kw: usize) -> bool {
        self.options.ovc && kw > 0
    }

    /// Encode one sorted run as self-contained records plus the xxHash64
    /// trailer, returning the bytes and the total of the records' string
    /// segments. The encoding is identical whether the run lands on disk
    /// or stays in memory.
    ///
    /// With OVC enabled each record carries its offset-value code relative
    /// to the record before it — the run's code column, computed while
    /// the keys were hot from the run sort, so the spill merge starts
    /// with codes instead of deriving them.
    fn encode_run(&self, run: &SortedRun) -> (Vec<u8>, u64) {
        let width = self.layout.width();
        let kw = run.key_width;
        let use_ovc = self.use_ovc(kw);
        let per_row = kw + width + 4 + if use_ovc { 8 } else { 0 };
        let mut out: Vec<u8> = Vec::with_capacity(8 + run.len() * per_row + 8);
        out.extend_from_slice(&SPILL_MAGIC);
        out.extend_from_slice(&SPILL_VERSION.to_le_bytes());
        let flags = if use_ovc { SPILL_FLAG_OVC } else { 0 };
        out.extend_from_slice(&flags.to_le_bytes());
        let mut row_buf = vec![0u8; width];
        let mut seg: Vec<u8> = Vec::new();
        let mut heap_bytes = 0u64;
        for i in 0..run.len() {
            out.extend_from_slice(&run.keys[i * kw..(i + 1) * kw]);
            if use_ovc {
                out.extend_from_slice(&run.ovc[i * 8..(i + 1) * 8]);
            }
            row_buf.copy_from_slice(run.payload.row(i));
            // Rewrite heap offsets to be relative to this record's segment.
            seg.clear();
            for &c in &self.varlen_cols {
                if run.payload.is_null(i, c) {
                    continue;
                }
                let at = self.layout.offset(c);
                let new_off = seg.len() as u32;
                seg.extend_from_slice(run.payload.string_bytes(i, c));
                row_buf[at..at + 4].copy_from_slice(&new_off.to_le_bytes());
            }
            out.extend_from_slice(&row_buf);
            out.extend_from_slice(&(seg.len() as u32).to_le_bytes());
            out.extend_from_slice(&seg);
            heap_bytes += seg.len() as u64;
        }
        let digest = XxHash64::hash(&out, SPILL_CHECKSUM_SEED);
        out.extend_from_slice(&digest.to_le_bytes());
        (out, heap_bytes)
    }

    /// Write `bytes` to a fresh run file in one shot.
    fn try_write_file(&self, path: &Path, bytes: &[u8]) -> Result<(), SpillError> {
        let mut w = self
            .io
            .create(path)
            .map_err(|e| SpillError::io(SpillOp::Create, path, &e))?;
        w.write_all(bytes)
            .map_err(|e| SpillError::io(SpillOp::Write, path, &e))?;
        w.flush()
            .map_err(|e| SpillError::io(SpillOp::Flush, path, &e))?;
        Ok(())
    }

    /// Delete a partially written file after a failure, counting (not
    /// hiding) deletions that themselves fail.
    fn cleanup_partial(&self, path: &Path) {
        if let Err(err) = self.io.delete(path) {
            if err.kind() != io::ErrorKind::NotFound {
                self.metrics.add(Counter::SpillCleanupFailed, 1);
            }
        }
    }

    /// A sorted run's splitter-candidate keys, captured while the keys are
    /// hot from the run sort (none for a zero-width key).
    fn sample_keys(run: &SortedRun) -> Vec<u8> {
        let kw = run.key_width;
        let mut out = Vec::new();
        for i in sample_positions(run.len()) {
            out.extend_from_slice(&run.keys[i * kw..(i + 1) * kw]);
        }
        out
    }

    /// Encode one sorted run and place it: on disk under the retry /
    /// degradation policy, or in memory once spill space is gone.
    fn spill_run(&self, run: &SortedRun, degraded: &mut bool) -> Result<Run, SpillError> {
        let (bytes, heap_bytes) = self.encode_run(run);
        let samples = Self::sample_keys(run);
        let rows = run.len();
        self.metrics.add(Counter::BytesMoved, bytes.len() as u64);
        let placed = |store| Run {
            samples,
            heap_bytes,
            store,
        };
        if *degraded {
            self.metrics.add(Counter::SpillMemFallbackRuns, 1);
            return Ok(placed(RunStore::Memory { bytes, rows }));
        }
        let mut attempt = 0;
        let mut backoff = self.options.retry_backoff;
        loop {
            let path = self.spill_path();
            match self.try_write_file(&path, &bytes) {
                Ok(()) => {
                    self.metrics.add(Counter::SpilledRuns, 1);
                    self.metrics.add(Counter::SpilledBytes, bytes.len() as u64);
                    return Ok(placed(RunStore::Spilled(SpilledRun {
                        path,
                        rows,
                        io: Arc::clone(&self.io),
                        metrics: Arc::clone(&self.metrics),
                    })));
                }
                Err(err) => {
                    self.cleanup_partial(&path);
                    if err.is_no_space() {
                        // Degradation ladder, rung 2: no point retrying a
                        // full disk — keep this and later runs in memory.
                        *degraded = true;
                        self.metrics.add(Counter::SpillMemFallbackRuns, 1);
                        return Ok(placed(RunStore::Memory { bytes, rows }));
                    }
                    if err.is_transient() && attempt < self.options.max_write_retries {
                        attempt += 1;
                        self.metrics.add(Counter::SpillRetries, 1);
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                        continue;
                    }
                    return Err(err);
                }
            }
        }
    }

    /// Open a cursor over `run`, with double-buffered read-ahead for
    /// spilled runs (in-memory runs are already a slice): over the whole
    /// file, verifying, or — given a range's starting byte offset and
    /// record count from the partition scan — over that range only.
    fn open_cursor<'r>(
        &self,
        run: &'r Run,
        kw: usize,
        range: Option<(u64, usize)>,
    ) -> Result<RunCursor<'r>, SpillError> {
        let shape = (kw, self.layout.width(), self.use_ovc(kw));
        let (mode, byte_off, rows) = match range {
            None => (CursorMode::Verifying, 0, run.rows()),
            Some((byte_off, rows)) => (CursorMode::Ranged, byte_off, rows),
        };
        match &run.store {
            RunStore::Spilled(r) => {
                let opened = match mode {
                    CursorMode::Verifying => r.io.open(&r.path),
                    CursorMode::Ranged => {
                        self.metrics.add(Counter::SpillSeamSkipBytes, byte_off);
                        r.io.open_at(&r.path, byte_off)
                    }
                };
                let reader = opened.map_err(|e| SpillError::io(SpillOp::Read, &r.path, &e))?;
                let reader: Box<dyn Read + Send + 'r> =
                    Box::new(ReadAhead::new(reader, &self.pool, &self.metrics));
                RunCursor::open(reader, r.path.clone(), rows, shape, mode)
            }
            RunStore::Memory { bytes, .. } => RunCursor::open(
                Box::new(&bytes[byte_off as usize..]),
                PathBuf::from("<in-memory run>"),
                rows,
                shape,
                mode,
            ),
        }
    }

    /// How many key ranges to cut the merge into, and the splitters
    /// between them: the shared planner's answer ([`plan_parts`],
    /// [`choose_splitters`]) over the samples taken at spill time — one
    /// range, no splitters, when no run has any.
    fn plan_ranges(&self, runs: &[Run], kw: usize, total: usize) -> (usize, Vec<u8>) {
        let mut splitters = Vec::new();
        let parts = plan_parts(self.options.merge_threads, kw, runs.len(), total);
        if parts > 1 {
            let mut samples: Vec<&[u8]> = runs
                .iter()
                .flat_map(|r| r.samples.chunks_exact(kw))
                .collect();
            choose_splitters(&mut samples, parts, &mut splitters);
        }
        (splitters.len().checked_div(kw).unwrap_or(0) + 1, splitters)
    }

    /// Phase A of the partitioned merge: one verifying pass over `run`
    /// locating, for every splitter, the first record whose key is `>=`
    /// that splitter (the streaming equivalent of a lower-bound binary
    /// search — runs are sequential files, so the seam search rides the
    /// verification scan the merge needs anyway). Returns `parts + 1`
    /// cuts: record index, byte offset, and heap bytes before each range
    /// boundary, bracketed by the run's start and end. Every byte of the
    /// file — checksum trailer included — is verified here, so Phase B
    /// range cursors can skip verification entirely.
    fn scan_run(
        &self,
        run: &Run,
        kw: usize,
        splitters: &[u8],
        parts: usize,
    ) -> Result<RunScan, SpillError> {
        let mut cur = self.open_cursor(run, kw, None)?;
        let mut cuts: Vec<RangeCut> = Vec::with_capacity(parts + 1);
        cuts.push(RangeCut {
            index: 0,
            byte_off: HEADER_BYTES,
            heap_before: 0,
        });
        let mut heap_before: u64 = 0;
        let mut index = 0usize;
        let mut next_split = 0usize;
        while !cur.exhausted() {
            while next_split + 1 < parts
                && &splitters[next_split * kw..(next_split + 1) * kw] <= cur.key.as_slice()
            {
                cuts.push(RangeCut {
                    index,
                    byte_off: cur.record_off,
                    heap_before,
                });
                next_split += 1;
            }
            heap_before += cur.heap.len() as u64;
            index += 1;
            cur.advance()?;
        }
        // Splitters beyond every key in this run cut at the end, and the
        // final sentinel closes the last range.
        let end = RangeCut {
            index,
            byte_off: cur.record_off,
            heap_before,
        };
        while cuts.len() < parts + 1 {
            cuts.push(end);
        }
        Ok(RunScan { cuts })
    }

    /// Run `job(i)` for every `i < n` on the merge workers and return the
    /// results in index order — so which failure a merge reports (the
    /// lowest index that failed) does not depend on worker scheduling.
    fn run_jobs<T: Send>(
        &self,
        n: usize,
        job: impl Fn(usize) -> Result<T, SpillError> + Sync,
    ) -> Result<Vec<T>, SpillError> {
        let slots: Vec<Mutex<Option<Result<T, SpillError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        self.workers().broadcast(&|_w| loop {
            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
            if i >= n {
                break;
            }
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(job(i));
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            // The broadcast fills every slot before returning; an empty
            // one means the pool lost a job, which must surface as a
            // typed error, not a panic on a worker thread.
            let res = slot.into_inner().unwrap_or_else(|e| e.into_inner());
            out.push(res.ok_or_else(lost_job)??);
        }
        Ok(out)
    }

    /// Phase 2: streaming k-way merge over the runs (DESIGN.md §11), into
    /// one pooled output sized exactly before a row is merged.
    ///
    /// With one partition the calling thread merges whole files through
    /// verifying cursors: each run is read once, every trailer is checked
    /// before the output escapes, and the output heap is sized from the
    /// segment totals recorded at spill time.
    ///
    /// With more, Phase A scans every run once (in parallel, verifying
    /// checksums) to locate each splitter's seam — record index, byte
    /// offset, heap bytes — per run. The cuts give every range's exact
    /// row and heap size, so each worker writes its range's disjoint
    /// slice directly: the concatenation needs no fix-up pass and is
    /// bit-identical to the one-partition merge. Phase B merges each
    /// range over ranged cursors seeked to the seam offsets
    /// ([`SpillIo::open_at`]).
    fn merge_runs(&self, runs: &[Run], order: &MergeOrder<'_>) -> Result<DataChunk, SpillError> {
        let kw = order.kw;
        let width = self.layout.width();
        let total: usize = runs.iter().map(|r| r.rows()).sum();
        let (parts, splitters) = self.plan_ranges(runs, kw, total);
        self.metrics
            .add(Counter::SpillMergePartitions, parts as u64);
        if runs.is_empty() {
            // All rows fit nowhere — no runs means no rows.
            return Ok(DataChunk::new(&self.types));
        }

        // Every range's exact size: its records and their string bytes.
        let (scans, sizes): (Vec<RunScan>, Vec<(usize, u64)>) = if parts > 1 {
            let scans = self.run_jobs(runs.len(), |r| {
                self.scan_run(&runs[r], kw, &splitters, parts)
            })?;
            let sizes = (0..parts)
                .map(|p| {
                    scans.iter().fold((0, 0), |(rows, heap), s| {
                        let (lo, hi) = (s.cuts[p], s.cuts[p + 1]);
                        (
                            rows + hi.index - lo.index,
                            heap + hi.heap_before - lo.heap_before,
                        )
                    })
                })
                .collect();
            (scans, sizes)
        } else {
            let heap_bytes = runs.iter().map(|r| r.heap_bytes).sum();
            (Vec::new(), vec![(total, heap_bytes)])
        };
        debug_assert_eq!(sizes.iter().map(|s| s.0).sum::<usize>(), total);
        let max_range = sizes.iter().map(|s| s.0).max().unwrap_or(0);
        self.metrics
            .add(Counter::MergeMaxRangeRows, max_range as u64);
        let total_heap = sizes.iter().map(|s| s.1).sum::<u64>() as usize;

        let mut out_data = self.pool.get_bytes(total * width);
        out_data.resize(total * width, 0);
        let mut out_heap = self.pool.get_bytes(total_heap);
        out_heap.resize(total_heap, 0);
        {
            // One shared output cut into each range's disjoint slices of
            // both areas, plus the heap slice's offset in the whole heap:
            // whichever worker claims range `p` takes slot `p`.
            let mut rest = (&mut out_data[..], &mut out_heap[..]);
            let mut heap_base = 0u64;
            let slots: Vec<Mutex<Option<RangeOutput<'_>>>> = sizes
                .iter()
                .map(|&(rows, heap_bytes)| {
                    let (data, data_rest) = std::mem::take(&mut rest.0).split_at_mut(rows * width);
                    let (heap, heap_rest) =
                        std::mem::take(&mut rest.1).split_at_mut(heap_bytes as usize);
                    rest = (data_rest, heap_rest);
                    let slot = (data, heap, heap_base);
                    heap_base += heap_bytes;
                    Mutex::new(Some(slot))
                })
                .collect();
            let merge_one = |p: usize| {
                let slot = slots[p].lock().unwrap_or_else(|e| e.into_inner()).take();
                let (data, heap, heap_base) = slot.ok_or_else(lost_job)?;
                let range = (parts > 1).then_some((&scans[..], p));
                self.merge_range(runs, range, order, data, heap, heap_base)
            };
            // One partition merges on the calling thread: a sorter that
            // never partitions never spawns the worker pool.
            let stats = if parts == 1 {
                vec![merge_one(0)?]
            } else {
                self.run_jobs(parts, merge_one)?
            };
            for s in stats {
                s.flush(&self.metrics);
            }
        }

        let block = RowBlock::from_raw_parts(Arc::clone(&self.layout), out_data, out_heap);
        let chunk = block.to_chunk();
        let (data, heap) = block.into_raw_parts();
        self.pool.put_bytes(data);
        self.pool.put_bytes(heap);
        Ok(chunk)
    }

    /// Merge whole runs (`range` is `None`: verifying cursors) or one key
    /// range of them (`range` names the partition scans and the range:
    /// cursors opened at the seam byte offsets the scan computed) into
    /// `data` and `heap`, the output slices the records fill exactly;
    /// `heap_base` is `heap`'s offset in the full output heap. Runs with
    /// no rows in the range are skipped (the survivors keep their
    /// relative order, so the tree's lower-index tie-break agrees with
    /// the global stability rule — byte-equal keys never straddle a range
    /// boundary).
    fn merge_range(
        &self,
        runs: &[Run],
        range: Option<(&[RunScan], usize)>,
        order: &MergeOrder<'_>,
        data: &mut [u8],
        heap: &mut [u8],
        heap_base: u64,
    ) -> Result<MergeStats, SpillError> {
        let mut cursors: Vec<RunCursor<'_>> = Vec::with_capacity(runs.len());
        for (r, run) in runs.iter().enumerate() {
            let span = match range {
                None => None,
                Some((scans, part)) => {
                    let cut = scans[r].cuts[part];
                    let rows = scans[r].cuts[part + 1].index - cut.index;
                    if rows == 0 {
                        continue;
                    }
                    Some((cut.byte_off, rows))
                }
            };
            cursors.push(self.open_cursor(run, order.kw, span)?);
        }
        let width = self.layout.width();
        let rows_in = data.len() / width;
        let mut sink = SegmentSink {
            rows: data.chunks_exact_mut(width),
            heap,
            heap_pos: 0,
            heap_base,
            layout: &self.layout,
            varlen_cols: &self.varlen_cols,
        };
        let mut tree = OvcLoserTree::empty();
        if self.use_ovc(order.kw) {
            merge_kway::<true, _, _>(order, &mut tree, &mut cursors, rows_in, &mut sink)
        } else {
            merge_kway::<false, _, _>(order, &mut tree, &mut cursors, rows_in, &mut sink)
        }
    }
}

/// A merge job or its output slot that the worker pool never delivered.
fn lost_job() -> SpillError {
    SpillError::io(
        SpillOp::Read,
        Path::new("<merge>"),
        &io::Error::other("a merge job was never run"),
    )
}

/// One range's share of the merge output: its row slots, its heap slice,
/// and that slice's offset in the whole output heap.
type RangeOutput<'a> = (&'a mut [u8], &'a mut [u8], u64);

/// One range boundary within one run, as located by the Phase A scan.
#[derive(Clone, Copy)]
struct RangeCut {
    /// Records of the run before this boundary.
    index: usize,
    /// Byte offset of the boundary record's start (file end for the
    /// final sentinel).
    byte_off: u64,
    /// String-segment bytes of the run before this boundary.
    heap_before: u64,
}

/// Per-run partition plan: `parts + 1` cuts bracketing every range.
struct RunScan {
    cuts: Vec<RangeCut>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{lower_bound, MemSource};
    use rowsort_testkit::faultfs::{FaultFs, FaultKind, FaultSchedule, FaultSpec};
    use rowsort_vector::{OrderByColumn, SortSpec, Value, Vector};
    use std::cmp::Ordering;

    fn pseudo_random(n: usize, seed: u64, modk: u32) -> Vec<u32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as u32) % modk
            })
            .collect()
    }

    fn in_memory_reference(chunk: &DataChunk, order: &OrderBy) -> DataChunk {
        crate::pipeline::SortPipeline::new(
            chunk.types(),
            order.clone(),
            crate::pipeline::SortOptions::default(),
        )
        .sort(chunk)
    }

    fn assert_same_multiset_sorted(external: &DataChunk, in_memory: &DataChunk, order: &OrderBy) {
        // Both are valid orderings; key columns must agree exactly, and the
        // multisets must match.
        assert_eq!(external.len(), in_memory.len());
        for w in external.to_rows().windows(2) {
            assert_ne!(order.compare_rows(&w[0], &w[1]), Ordering::Greater);
        }
        let canon = |c: &DataChunk| {
            let mut rows: Vec<String> = c.to_rows().iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(canon(external), canon(in_memory));
    }

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
        assert_same_multiset_sorted(&external, &in_memory_reference(chunk, order), order);
    }

    #[test]
    fn external_sort_matches_in_memory_fixed_width() {
        let keys = pseudo_random(20_000, 5, 1000);
        let payload: Vec<u32> = keys.iter().map(|k| k ^ 0xABCD).collect();
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(payload)])
                .unwrap();
        // 20k rows under a 3k-row budget: 7 spilled runs.
        check_against_in_memory(&chunk, &OrderBy::ascending(1), 3_000);
    }

    #[test]
    fn external_sort_with_strings_and_nulls() {
        let mut chunk = DataChunk::new(&[LogicalType::Varchar, LogicalType::Int32]);
        let r = pseudo_random(5_000, 6, 40);
        for (i, &v) in r.iter().enumerate() {
            let s = if v % 13 == 0 {
                Value::Null
            } else {
                Value::from(format!("name_{v}"))
            };
            chunk.push_row(&[s, Value::Int32(i as i32)]).unwrap();
        }
        let order = OrderBy::new(vec![OrderByColumn {
            column: 0,
            spec: SortSpec::new(
                rowsort_vector::SortOrder::Descending,
                rowsort_vector::NullOrder::NullsFirst,
            ),
        }]);
        check_against_in_memory(&chunk, &order, 700);
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

    /// `sort()`'s preparation: the VARCHAR statistics of `chunk` and the
    /// key-block cache planned for them.
    fn plan(sorter: &ExternalSorter, chunk: &DataChunk) -> (Vec<usize>, Mutex<Vec<KeyBlock>>) {
        let mut stats = Vec::new();
        varchar_stats(chunk, &mut stats);
        let block = KeyBlock::new(&sorter.types, &sorter.order, |c| stats[c]);
        (stats, Mutex::new(vec![block]))
    }

    /// `sort()`'s run-generation phase: `chunk` as spilled runs under the
    /// sorter's row budget, and how their merge compares records.
    fn build_spilled_runs<'s>(
        sorter: &'s ExternalSorter,
        chunk: &DataChunk,
    ) -> (Vec<Run>, MergeOrder<'s>) {
        let (stats, key_blocks) = plan(sorter, chunk);
        let order = sorter.merge_order(&key_blocks.lock().unwrap()[0]);
        let runs = sorter
            .generate_spilled_runs(chunk, &stats, &key_blocks)
            .unwrap();
        (runs, order)
    }

    /// All of `chunk` as one sorted run, straight from the run generator.
    fn whole_run(sorter: &ExternalSorter, chunk: &DataChunk) -> SortedRun {
        let (stats, key_blocks) = plan(sorter, chunk);
        sorter
            .run_generator()
            .make_run(chunk, 0, chunk.len(), &stats, &key_blocks, true)
    }

    /// An in-memory run over already-encoded bytes (no samples).
    fn memory_run(bytes: Vec<u8>, rows: usize) -> Run {
        Run {
            samples: Vec::new(),
            heap_bytes: 0,
            store: RunStore::Memory { bytes, rows },
        }
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

    /// The spill-file record format round-trips exactly: reading a run back
    /// reproduces every key, every fixed-width row byte, and every string
    /// segment that was written — and the cursor's final advance verifies
    /// the checksum trailer with nothing left over in the file.
    #[test]
    fn spill_record_format_roundtrip() {
        let chunk = stringy_chunk(512, 11);
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
        let width = sorter.layout.width();
        let varlen = sorter.varlen_cols.clone();

        // One run covering the whole chunk, sorted here independently of
        // the run generator; keep the blocks to compare.
        let stats: Vec<usize> = (0..sorter.types.len())
            .map(|c| {
                chunk
                    .column(c)
                    .as_strings()
                    .map(|s| s.max_len())
                    .unwrap_or(0)
            })
            .collect();
        let mut payload = RowBlock::with_capacity(Arc::clone(&sorter.layout), chunk.len());
        payload.append_chunk(&chunk);
        let mut keys = KeyBlock::new(&sorter.types, &sorter.order, |c| stats[c]);
        keys.append_chunk(&chunk);
        let tie_cmp = FusedRowComparator::new(&sorter.layout, &sorter.order);
        keys.sort(|a, b| {
            tie_cmp.compare(
                payload.row(a as usize),
                payload.heap(),
                payload.row(b as usize),
                payload.heap(),
            )
        });
        let mut degraded = false;
        let run = sorter
            .spill_run(&whole_run(&sorter, &chunk), &mut degraded)
            .unwrap();
        assert_eq!(run.rows(), chunk.len());

        // Bytes of the offset word rewritten per record; everything else in
        // the row must survive the round trip untouched.
        let mut fixed_byte = vec![true; width];
        for &c in &varlen {
            let at = sorter.layout.offset(c);
            for b in at..at + 4 {
                fixed_byte[b] = false;
            }
        }

        let kw = keys.key_width();
        let arity = ovc::word_count(kw);
        let mut cur = sorter.open_cursor(&run, kw, None).unwrap();
        let mut prev_key: Vec<u8> = Vec::new();
        for i in 0..run.rows() {
            assert!(!cur.exhausted(), "record {i} missing");
            assert_eq!(cur.key.as_slice(), keys.key(i), "key {i} differs");
            assert!(
                prev_key.as_slice() <= cur.key.as_slice(),
                "run not sorted at {i}"
            );
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
                    assert_eq!(cur.row[b], orig[b], "record {i} row byte {b}");
                }
            }
            for &c in &varlen {
                if payload.is_null(rid, c) {
                    continue;
                }
                let at = sorter.layout.offset(c);
                let off = u32::from_le_bytes(cur.row[at..at + 4].try_into().unwrap()) as usize;
                let len = u32::from_le_bytes(cur.row[at + 4..at + 8].try_into().unwrap()) as usize;
                assert!(off + len <= cur.heap.len(), "segment out of bounds at {i}");
                assert_eq!(
                    &cur.heap[off..off + len],
                    payload.string_bytes(rid, c),
                    "record {i} column {c} string differs"
                );
            }
            prev_key = cur.key.clone();
            // The final advance reads and verifies the checksum trailer and
            // rejects trailing bytes; `unwrap` is the assertion.
            cur.advance().unwrap();
        }
        assert!(cur.exhausted());
    }

    /// Under a small row budget every spilled run is individually sorted,
    /// run sizes add up to the input, and each file parses to exactly its
    /// advertised record count.
    #[test]
    fn spilled_runs_sorted_under_small_budget() {
        let chunk = stringy_chunk(2_000, 12);
        let order = OrderBy::ascending(2);
        let sorter = ExternalSorter::new(
            chunk.types(),
            order,
            ExternalSortOptions {
                memory_limit_rows: 123,
                ..Default::default()
            },
        );
        let budget = 123;
        let (runs, order) = build_spilled_runs(&sorter, &chunk);
        assert_eq!(runs.len(), chunk.len().div_ceil(budget));
        let total: usize = runs.iter().map(|r| r.rows()).sum();
        assert_eq!(total, chunk.len());
        for (ri, run) in runs.iter().enumerate() {
            assert!(run.rows() <= budget, "run {ri} exceeds the row budget");
            let mut cur = sorter.open_cursor(run, order.kw, None).unwrap();
            let mut prev: Vec<u8> = Vec::new();
            for i in 0..run.rows() {
                assert!(!cur.exhausted(), "run {ri} record {i} missing");
                assert!(
                    prev.as_slice() <= cur.key.as_slice(),
                    "run {ri} out of order at record {i}"
                );
                prev = cur.key.clone();
                cur.advance().unwrap();
            }
            assert!(cur.exhausted(), "run {ri} has extra records");
        }
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
        // Every record is key + row + length word at minimum.
        assert!(m.counter(Counter::SpilledBytes) >= 4_000 * 8);
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

    #[test]
    fn graceful_degradation_budget_sweep() {
        // Same result at every budget, from heavy spilling to none.
        let keys = pseudo_random(4_000, 9, 64);
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(keys)]).unwrap();
        let order = OrderBy::ascending(1);
        let reference = ExternalSorter::new(
            chunk.types(),
            order.clone(),
            ExternalSortOptions {
                memory_limit_rows: 1 << 20,
                ..Default::default()
            },
        )
        .sort(&chunk)
        .unwrap();
        for budget in [37, 256, 1000, 4_000] {
            let got = ExternalSorter::new(
                chunk.types(),
                order.clone(),
                ExternalSortOptions {
                    memory_limit_rows: budget,
                    ..Default::default()
                },
            )
            .sort(&chunk)
            .unwrap();
            assert_eq!(got.to_rows(), reference.to_rows(), "budget {budget}");
        }
    }

    // ---- partitioned-merge coverage ------------------------------------

    /// The range-partitioned merge is bit-identical to the single-threaded
    /// merge at every thread count, with and without offset-value codes —
    /// same rows, same order, same tie resolution across seam boundaries.
    #[test]
    fn partitioned_merge_is_bit_identical_across_thread_counts() {
        let chunk = stringy_chunk(3_000, 5);
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
        for ovc in [false, true] {
            let sort_with = |threads: usize| {
                let sorter = ExternalSorter::new(
                    chunk.types(),
                    order.clone(),
                    ExternalSortOptions {
                        memory_limit_rows: 200,
                        ovc,
                        merge_threads: threads,
                        ..Default::default()
                    },
                );
                let out = sorter.sort(&chunk).unwrap().to_rows();
                (out, sorter.metrics())
            };
            let (reference, _) = sort_with(1);
            for threads in [2, 4, 8] {
                let (got, m) = sort_with(threads);
                assert_eq!(got, reference, "ovc={ovc} threads={threads}");
                assert!(
                    m.counter(Counter::SpillMergePartitions) >= 2,
                    "ovc={ovc} threads={threads}: merge did not partition \
                     ({} partitions)",
                    m.counter(Counter::SpillMergePartitions)
                );
                assert!(
                    m.counter(Counter::SpillReadaheadHits) > 0,
                    "ovc={ovc} threads={threads}: read-ahead never hit"
                );
            }
        }
    }

    /// Degenerate merges take the fast paths: zero runs yield an empty
    /// chunk and one run streams through without a loser tree — neither
    /// builds a degenerate tree or tries to partition, at any thread count.
    #[test]
    fn zero_and_single_run_merges_take_fast_paths() {
        let chunk = stringy_chunk(400, 17);
        // Truncatable VARCHAR last among the keys: a truncated prefix
        // followed by another key column mis-compares (known encoding
        // gap, see ROADMAP.md) and would fail the sortedness check below
        // for reasons unrelated to the merge fast paths under test.
        let order = OrderBy::new(vec![OrderByColumn::asc(1), OrderByColumn::asc(0)]);
        let sorter = ExternalSorter::new(
            chunk.types(),
            order.clone(),
            ExternalSortOptions {
                merge_threads: 4,
                ..Default::default()
            },
        );
        let (runs, merge_order) = build_spilled_runs(&sorter, &chunk);
        assert_eq!(runs.len(), 1, "one budget-sized morsel, one run");

        let empty = sorter.merge_runs(&[], &merge_order).unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.types(), chunk.types());

        let merged = sorter.merge_runs(&runs, &merge_order).unwrap();
        assert_eq!(merged.len(), 400);
        let got = merged.to_rows();
        let canon = |rows: &[Vec<Value>]| {
            let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(
            canon(&got),
            canon(&chunk.to_rows()),
            "rows lost or invented"
        );
        for (i, w) in got.windows(2).enumerate() {
            assert_ne!(
                order.compare_rows(&w[0], &w[1]),
                std::cmp::Ordering::Greater,
                "single-run merge not sorted at {i}: {:?} > {:?}",
                w[0],
                w[1]
            );
        }
        // Neither merge can split across threads: one partition counted
        // per merge call, two calls above.
        assert_eq!(sorter.metrics().counter(Counter::SpillMergePartitions), 2);
    }

    /// All-NULL sort keys collapse every splitter to the same byte string;
    /// the partition planner must degrade gracefully (one range gets all
    /// rows) and stay bit-identical to the single-threaded merge.
    #[test]
    fn all_null_keys_merge_identically_across_thread_counts() {
        let mut chunk = DataChunk::new(&[LogicalType::Varchar, LogicalType::Int32]);
        for i in 0..3_000i32 {
            chunk.push_row(&[Value::Null, Value::Int32(i)]).unwrap();
        }
        let order = OrderBy::ascending(1);
        let sort_with = |threads: usize| {
            ExternalSorter::new(
                chunk.types(),
                order.clone(),
                ExternalSortOptions {
                    memory_limit_rows: 250,
                    merge_threads: threads,
                    ..Default::default()
                },
            )
            .sort(&chunk)
            .unwrap()
            .to_rows()
        };
        let reference = sort_with(1);
        assert_eq!(reference.len(), 3_000);
        for threads in [2, 4, 8] {
            assert_eq!(sort_with(threads), reference, "threads={threads}");
        }
    }

    // ---- the merge kernel across source kinds ---------------------------

    /// Merge `sources` through the kernel into fresh output areas of
    /// exactly `rows` rows and `heap_bytes` string bytes.
    fn kernel_merge<S: RunSource>(
        sorter: &ExternalSorter,
        order: &MergeOrder<'_>,
        sources: &mut [S],
        (rows, heap_bytes): (usize, u64),
    ) -> (Vec<u8>, Vec<u8>, MergeStats) {
        let width = sorter.layout.width();
        let mut data = vec![0u8; rows * width];
        let mut heap = vec![0u8; heap_bytes as usize];
        let mut sink = SegmentSink {
            rows: data.chunks_exact_mut(width),
            heap: &mut heap,
            heap_pos: 0,
            heap_base: 0,
            layout: &sorter.layout,
            varlen_cols: &sorter.varlen_cols,
        };
        let mut tree = OvcLoserTree::empty();
        let stats = if sorter.use_ovc(order.kw) {
            merge_kway::<true, _, _>(order, &mut tree, sources, rows, &mut sink)
        } else {
            merge_kway::<false, _, _>(order, &mut tree, sources, rows, &mut sink)
        }
        .expect("fault-free merge");
        assert!(
            sources.iter().all(|s| s.exhausted()),
            "a source was left open"
        );
        (data, heap, stats)
    }

    /// The string bytes rows `lo..hi` of `run` reference.
    fn heap_bytes_of(sorter: &ExternalSorter, run: &SortedRun, lo: usize, hi: usize) -> u64 {
        let strings = |i: usize| {
            let live = sorter
                .varlen_cols
                .iter()
                .filter(move |&&c| !run.payload.is_null(i, c));
            live.map(move |&c| run.payload.string_bytes(i, c).len() as u64)
        };
        (lo..hi).flat_map(strings).sum()
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
            let same = Value::from("the same truncated-prefix key");
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
                let (stats, key_blocks) = plan(&sorter, chunk);
                let order = sorter.merge_order(&key_blocks.lock().unwrap()[0]);
                assert_eq!(order.tie_possible, *truncated, "{name}: tie_possible");
                for k in [1usize, 2, 3, 17] {
                    let what = format!("{name}, ovc={ovc}, k={k}");
                    let n = chunk.len();
                    let mut bounds: Vec<usize> = (0..=k).map(|i| i * n / k).collect();
                    if k >= 3 {
                        bounds[2] = bounds[1]; // run 1 is empty
                    }
                    let gen = sorter.run_generator();
                    let sorted: Vec<SortedRun> = bounds
                        .windows(2)
                        .map(|w| gen.make_run(chunk, w[0], w[1], &stats, &key_blocks, true))
                        .collect();
                    let encoded: Vec<Run> = sorted
                        .iter()
                        .map(|run| {
                            let (bytes, heap_bytes) = sorter.encode_run(run);
                            Run {
                                heap_bytes,
                                ..memory_run(bytes, run.len())
                            }
                        })
                        .collect();
                    let size = (n, encoded.iter().map(|r| r.heap_bytes).sum());

                    let mut cursors: Vec<RunCursor<'_>> = encoded
                        .iter()
                        .map(|run| sorter.open_cursor(run, order.kw, None).unwrap())
                        .collect();
                    let from_files = kernel_merge(&sorter, &order, &mut cursors, size);
                    let mut in_memory: Vec<MemSource<'_>> = sorted
                        .iter()
                        .map(|run| MemSource::range(run, 0, run.len()))
                        .collect();
                    // A whole run's first head: −∞ is what it is stored against.
                    for (src, run) in in_memory.iter().zip(&sorted).filter(|_| ovc) {
                        assert_eq!(src.code(), ovc::read_code(&run.ovc, 0), "{what}");
                    }
                    let from_memory = kernel_merge(&sorter, &order, &mut in_memory, size);

                    // The same runs cut in two at a key (the median of the
                    // longest run): every head is coded against −∞, and the
                    // two ranges' merges concatenate to the whole one.
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
                            assert_eq!(src.code(), ovc::initial_code(src.key(), arity), "{what}");
                        }
                        let rows: usize = sorted.iter().map(|r| span(r).1 - span(r).0).sum();
                        let heap: u64 = sorted
                            .iter()
                            .map(|r| heap_bytes_of(&sorter, r, span(r).0, span(r).1))
                            .sum();
                        let (data, heap, _) =
                            kernel_merge(&sorter, &order, &mut ranged, (rows, heap));
                        let block =
                            RowBlock::from_raw_parts(Arc::clone(&sorter.layout), data, heap);
                        halves.extend(block.to_chunk().to_rows());
                    }
                    let whole = RowBlock::from_raw_parts(
                        Arc::clone(&sorter.layout),
                        from_memory.0.clone(),
                        from_memory.1.clone(),
                    );
                    assert_eq!(halves, whole.to_chunk().to_rows(), "{what}: ranged");

                    assert_eq!(from_files.0, from_memory.0, "{what}: rows differ");
                    assert_eq!(from_files.1, from_memory.1, "{what}: heaps differ");
                    let counts = |s: &MergeStats| (s.cmps, s.ovc_resolved, s.key_bytes);
                    assert_eq!(
                        counts(&from_files.2),
                        counts(&from_memory.2),
                        "{what}: comparator work differs"
                    );
                    assert_eq!(from_files.2.cmps == 0, k == 1, "{what}: cmps");

                    // And it is the sorter's own answer.
                    let block = RowBlock::from_raw_parts(
                        Arc::clone(&sorter.layout),
                        from_memory.0,
                        from_memory.1,
                    );
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
                        assert_eq!(block.to_chunk().to_rows(), want.to_rows(), "{what}");
                    }
                    assert_eq!(block.len(), want.len(), "{what}: row count");
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
                retry_backoff: Duration::from_micros(10),
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

    /// Bit flips anywhere in a run file — keys, rows, length words, or the
    /// trailer itself — surface as typed corruption, never as wrong rows.
    #[test]
    fn bit_flipped_run_file_is_detected() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(2_000, 22, 300))])
            .unwrap();
        let order = OrderBy::ascending(1);
        let reference = in_memory_reference(&chunk, &order);
        // Sweep flip positions across the record stream (byte 3 of a key,
        // mid-row, a length word, deep into the file).
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
                    assert_same_multiset_sorted(&out, &reference, &order);
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
        assert_same_multiset_sorted(&out, &in_memory_reference(&chunk, &order), &order);
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

    /// Exhausted spill space degrades to in-memory runs (with a doubled
    /// budget) instead of failing: the sort completes and matches the
    /// in-memory oracle, and the fallback is visible in the metrics.
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
        assert_same_multiset_sorted(&out, &in_memory_reference(&chunk, &order), &order);
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
        assert_same_multiset_sorted(&out, &in_memory_reference(&chunk, &order), &order);
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

    fn sort_with_ovc(chunk: &DataChunk, order: &OrderBy, budget: usize, ovc: bool) -> DataChunk {
        ExternalSorter::new(
            chunk.types(),
            order.clone(),
            ExternalSortOptions {
                memory_limit_rows: budget,
                ovc,
                ..Default::default()
            },
        )
        .sort(chunk)
        .expect("external sort succeeds")
    }

    /// The OVC merge must be a pure optimization: with the same run-index
    /// stability rule on full ties, OVC on and off produce bit-identical
    /// output — for duplicate-heavy keys, VARCHAR ties, and NULLs alike.
    #[test]
    fn ovc_on_off_external_outputs_identical() {
        let chunk = stringy_chunk(3_000, 31);
        let order = OrderBy::new(vec![
            OrderByColumn {
                column: 2,
                spec: SortSpec::new(
                    rowsort_vector::SortOrder::Ascending,
                    rowsort_vector::NullOrder::NullsLast,
                ),
            },
            OrderByColumn {
                column: 1,
                spec: SortSpec::new(
                    rowsort_vector::SortOrder::Descending,
                    rowsort_vector::NullOrder::NullsFirst,
                ),
            },
        ]);
        for budget in [311, 1_000, 4_000] {
            let plain = sort_with_ovc(&chunk, &order, budget, false);
            let coded = sort_with_ovc(&chunk, &order, budget, true);
            assert_eq!(coded.to_rows(), plain.to_rows(), "budget {budget}");
        }
    }

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
        let (runs, order) = build_spilled_runs(&sorter, &chunk);
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
            .open_cursor(&runs[0], order.kw, None)
            .err()
            .expect("flag mismatch must surface");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
    }

    /// A code whose decoded offset exceeds the key's word count can never
    /// be produced by the encoder; the cursor rejects it structurally on
    /// the record that carries it, without waiting for the trailer.
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
        let (mut bytes, _) = sorter.encode_run(&sorted);
        let kw = sorted.key_width;
        // Overwrite record 0's code (right after the 8-byte header and the
        // key) with an offset no encoder can emit.
        let at = 8 + kw;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let run = memory_run(bytes, chunk.len());
        let err = sorter
            .open_cursor(&run, kw, None)
            .err()
            .expect("implausible code must surface");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
    }

    /// Version-1 (headerless) files and unknown header flags are rejected
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
        let (runs, order) = build_spilled_runs(&sorter, &chunk);
        let RunStore::Spilled(spilled) = &runs[0].store else {
            panic!("expected a spilled run");
        };
        let mut reader = spilled.io.open(&spilled.path).unwrap();
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).unwrap();
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
            let run = memory_run(broken, runs[0].rows());
            let err = sorter
                .open_cursor(&run, order.kw, None)
                .err()
                .expect("bad header must surface");
            assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
        }
    }
}
