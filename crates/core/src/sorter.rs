//! The one sorter behind both public sorters (DESIGN.md §11). What
//! [`SortPipeline`](crate::pipeline::SortPipeline) and
//! [`ExternalSorter`](crate::external::ExternalSorter) share is written
//! here once:
//!
//! * the prologue and epilogue — plan the key, then publish the sort's
//!   profile and trace line ([`SorterCore::begin`], [`SorterCore::publish`]);
//! * the run loop — run `i` is input rows `[i·run_rows, (i+1)·run_rows)`,
//!   claimed whole in index order ([`SorterCore::generate`]);
//! * the range planner — splitters picked from every run's sample keys,
//!   every run cut at each ([`SorterCore::plan_ranges`]);
//! * the merge driver — key ranges claimed in order, each merged by the
//!   one kernel into its own piece of the output columns
//!   ([`SorterCore::merge_into_vectors`]).
//!
//! Where a finished run lives is the one difference, and it is a type:
//! [`StoredRun`]. The pipeline's runs stay resident ([`SortedRun`], cut by
//! binary search, read by [`MemSource`]); the external sorter's are
//! encoded (`external::Run`, cut from its block index, read by
//! `RunCursor`). The planner and the driver are generic over it, so an
//! in-memory merge monomorphizes the kernel over `MemSource` alone.

use crate::comparator::FusedRowComparator;
use crate::merge::{
    cmp_keys, column_bytes, merge_kway, string_bytes, MemSource, MergeOrder, RunSource, VectorSink,
};
use crate::metrics::{emit_trace, Counter, CounterRegistry, Metrics, Phase, SortProfile};
use crate::pool::SortPool;
use crate::resources::SortResources;
use crate::run::{KeyPlan, SortedRun};
use crate::spill::{SpillError, SpillOp};
use rowsort_algos::kway::OvcLoserTree;
use rowsort_row::{ChunkBuilder, ChunkPiece, PieceTail, RowLayout};
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::cmp::Ordering;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A finished run, wherever it lives: what the planner and the merge
/// driver need of it.
pub(crate) trait StoredRun: Send + Sync + 'static {
    /// A boundary inside the run: the rows before it, and whatever a
    /// source needs to start there.
    type Cut: Copy + Send + Sync;
    /// A reader over the rows between two cuts.
    type Source<'r>: RunSource + Send
    where
        Self: 'r;
    /// Most workers that build runs of this kind at once.
    const BUILDERS: usize;
    /// Whether a sort of one run codes it. A merge of one run plays no
    /// match, but a run file's format may carry the codes anyway.
    const LONE_RUN_CODED: bool;

    /// The run's splitter candidates: its keys at [`sample_positions`].
    fn sample_keys(&self, kw: usize) -> impl Iterator<Item = &[u8]>;
    /// The cuts at the run's start and end.
    fn bounds(&self) -> [Self::Cut; 2];
    /// Rows of the run before `cut`.
    fn rows_before(cut: Self::Cut) -> usize;
    /// Where `splitter` cuts the run: before its first key `>=` it.
    fn cut_at(
        &self,
        core: &SorterCore,
        kw: usize,
        splitter: &[u8],
    ) -> Result<Self::Cut, SpillError>;
    /// A source over the rows between two cuts.
    fn source<'r>(
        &'r self,
        core: &'r SorterCore,
        kw: usize,
        span: [Self::Cut; 2],
    ) -> Result<Self::Source<'r>, SpillError>;

    fn row_count(&self) -> usize {
        let [_, end] = self.bounds();
        Self::rows_before(end)
    }
}

/// A resident run: cut by binary search over its key column, read in place.
impl StoredRun for SortedRun {
    type Cut = usize;
    type Source<'r> = MemSource<'r>;
    const BUILDERS: usize = usize::MAX;
    const LONE_RUN_CODED: bool = false;

    fn sample_keys(&self, kw: usize) -> impl Iterator<Item = &[u8]> {
        sample_positions(self.len()).map(move |i| &self.keys[i * kw..(i + 1) * kw])
    }
    fn bounds(&self) -> [usize; 2] {
        [0, self.len()]
    }
    fn rows_before(cut: usize) -> usize {
        cut
    }
    fn cut_at(&self, _: &SorterCore, kw: usize, splitter: &[u8]) -> Result<usize, SpillError> {
        Ok(lower_bound(&self.keys, kw, splitter))
    }
    fn source<'r>(
        &'r self,
        _: &'r SorterCore,
        _: usize,
        [lo, hi]: [usize; 2],
    ) -> Result<MemSource<'r>, SpillError> {
        Ok(MemSource::range(self, lo, hi))
    }
}

/// When a sort began, what its registry held then, and the prefix it
/// planned: what [`SorterCore::publish`] turns into its profile.
pub(crate) struct SortStart {
    at: Instant,
    before: Metrics,
    varchar_prefix: u32,
}

/// One run's outcome, in the slot of its index.
pub(crate) type RunSlot<R> = Mutex<Option<Result<R, SpillError>>>;

/// What one key range's merge keeps from sort to sort: its tree, and its
/// sources' vector. The sources borrow the sort's runs, so between sorts
/// the vector is empty and only its allocation survives ([`recycle_vec`]).
type RangeScratch<R> = Mutex<(OvcLoserTree, Vec<<R as StoredRun>::Source<'static>>)>;

/// A merge's key ranges: the splitters between them, every run's
/// `parts + 1` cuts (rows `c[p]..c[p + 1]` of a run fall in range `p`),
/// and a [`RangeScratch`] per range — all rebuilt in place per sort.
pub(crate) struct MergePlan<R: StoredRun> {
    /// The runs' sample keys (empty between sorts).
    samples: Vec<&'static [u8]>,
    splitters: Vec<u8>,
    cuts: Vec<R::Cut>,
    pub(crate) parts: usize,
    ranges: Vec<RangeScratch<R>>,
}

impl<R: StoredRun> Default for MergePlan<R> {
    fn default() -> Self {
        MergePlan {
            samples: Vec::new(),
            splitters: Vec::new(),
            cuts: Vec::new(),
            parts: 1,
            ranges: Vec::new(),
        }
    }
}

impl<R: StoredRun> MergePlan<R> {
    /// Rows of range `p` over all runs.
    pub(crate) fn range_rows(&self, p: usize) -> usize {
        let in_range = |c: &[R::Cut]| R::rows_before(c[p + 1]) - R::rows_before(c[p]);
        self.cuts.chunks_exact(self.parts + 1).map(in_range).sum()
    }

    /// Rows of the largest range: `rows / parts` when the splitters cut
    /// evenly, up to all of them when one key value holds most.
    pub(crate) fn max_range_rows(&self) -> usize {
        let rows = (0..self.parts).map(|p| self.range_rows(p));
        rows.max().unwrap_or(0)
    }
}

/// What both sorters are made of: the plan of a sort, its options, the
/// buffer pool and the worker crew it borrows, and the metrics.
pub(crate) struct SorterCore {
    pub(crate) types: Vec<LogicalType>,
    pub(crate) order: OrderBy,
    pub(crate) layout: Arc<RowLayout>,
    /// Full-tuple comparator for VARCHAR-prefix tie resolution, built once.
    pub(crate) tie_cmp: FusedRowComparator,
    /// Columns whose row slots reference the heap.
    pub(crate) varlen_cols: Vec<usize>,
    /// Rows per run, at least 1.
    run_rows: usize,
    ovc: bool,
    /// The buffer pool every buffer of a sort comes from and goes back
    /// to, and the crew its phases run on: the sorter's own, or shared
    /// (DESIGN.md §6).
    pub(crate) set: SortResources,
    /// Lock-free counters and phase clocks, preallocated here so recording
    /// during a sort allocates nothing (DESIGN.md §7).
    pub(crate) metrics: Arc<CounterRegistry>,
    /// The most recent sort's profile (overwritten in place — `Copy`).
    profile: Mutex<SortProfile>,
}

impl SorterCore {
    /// A sorter of relations with columns `types` by `order`, drawing its
    /// buffers from `set`'s pool and running its phases on `set`'s crew;
    /// zero `run_rows` clamps to 1.
    pub(crate) fn new(
        types: Vec<LogicalType>,
        order: OrderBy,
        run_rows: usize,
        ovc: bool,
        set: SortResources,
    ) -> SorterCore {
        let layout = Arc::new(RowLayout::new(&types));
        let tie_cmp = FusedRowComparator::new(&layout, &order);
        let varlen_cols = (0..types.len())
            .filter(|&c| types[c] == LogicalType::Varchar)
            .collect();
        let metrics = Arc::new(CounterRegistry::new());
        SorterCore {
            types,
            order,
            layout,
            tie_cmp,
            varlen_cols,
            run_rows: run_rows.max(1),
            ovc,
            set,
            metrics,
            profile: Mutex::new(SortProfile::zeroed()),
        }
    }

    /// The buffer pool as this sorter's sorts draw on it: their hits and
    /// misses count in its registry, whoever shares the pool.
    pub(crate) fn pool(&self) -> SortPool<'_> {
        SortPool {
            pool: &self.set.pool,
            metrics: &self.metrics,
        }
    }

    /// Run `phase` on every worker of the crew, counted in this sorter's
    /// registry: one broadcast, and its wall time — which includes any
    /// wait for another sorter's phase on a shared crew.
    fn broadcast(&self, phase: &(dyn Fn(usize) + Sync)) {
        let start = Instant::now();
        self.set.crew.broadcast(phase);
        self.metrics.add(Counter::Broadcasts, 1);
        let ns = start.elapsed().as_nanos() as u64;
        self.metrics.add(Counter::BroadcastNs, ns);
    }

    /// The profile of the most recent completed sort (zeroed before the
    /// first one). A `Copy` snapshot — reading it allocates nothing.
    pub(crate) fn last_profile(&self) -> SortProfile {
        *self.profile.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether runs with `kw`-byte keys carry offset-value codes: asked
    /// for, and a key to code.
    pub(crate) fn coded(&self, kw: usize) -> bool {
        self.ovc && kw > 0
    }

    /// How the sort planned in `plan` compares records in its merges.
    pub(crate) fn merge_order(&self, plan: &KeyPlan) -> MergeOrder<'_> {
        let blocks = plan.key_blocks.lock().unwrap_or_else(|e| e.into_inner());
        let first = blocks.first();
        MergeOrder {
            kw: first.map_or(0, |b| b.key_width()),
            tie_possible: first.is_some_and(|b| b.tie_possible()),
            tie_cmp: &self.tie_cmp,
        }
    }

    /// Start a sort of `input`: check its schema and plan its key
    /// ([`Phase::Prepare`]). `None` for an empty input, which records
    /// nothing.
    pub(crate) fn begin(&self, input: &DataChunk, plan: &mut KeyPlan) -> Option<SortStart> {
        // Element-wise so the schema check allocates nothing in steady
        // state (`input.types()` would collect a fresh Vec per sort).
        assert!(
            input.column_count() == self.types.len()
                && input
                    .columns()
                    .iter()
                    .zip(&self.types)
                    .all(|(col, &ty)| col.logical_type() == ty),
            "input schema mismatch"
        );
        if input.is_empty() {
            return None;
        }
        let (at, before) = (Instant::now(), self.metrics.snapshot());
        {
            let _prepare = self.metrics.time_phase(Phase::Prepare);
            plan.plan(&self.types, &self.order, input);
        }
        let varchar_prefix = plan.varchar_prefix();
        Some(SortStart {
            at,
            before,
            varchar_prefix,
        })
    }

    /// Finish a sort of `rows` rows by `operator`: count it, and publish
    /// its profile and trace line.
    pub(crate) fn publish(
        &self,
        start: SortStart,
        rows: usize,
        operator: &'static str,
        key_width: usize,
    ) {
        self.metrics.record_sort(rows as u64);
        let profile = SortProfile {
            operator,
            rows: rows as u64,
            total_ns: start.at.elapsed().as_nanos() as u64,
            key_width: key_width as u32,
            varchar_prefix: start.varchar_prefix,
            metrics: self.metrics.snapshot().since(&start.before),
        };
        *self.profile.lock().unwrap_or_else(|e| e.into_inner()) = profile;
        emit_trace(&profile);
    }

    /// Run generation into `runs`: run `i` is input rows
    /// `[i·run_rows, (i+1)·run_rows)` whatever the thread count, claimed
    /// whole in index order by up to [`StoredRun::BUILDERS`] workers,
    /// built from `pool` with `plan`'s key blocks, and handed to `place`
    /// with the moment it was claimed. Outcomes land in the slot of their
    /// index, so run order is schedule-independent. A failure stops
    /// further claims, and the error returned is the lowest failed
    /// index's: every run below a claimed one was claimed before it and
    /// runs to its end. One run or one worker runs the loop on the
    /// calling thread, and the crew is not asked.
    pub(crate) fn generate<R: StoredRun>(
        &self,
        input: &DataChunk,
        plan: &KeyPlan,
        pool: SortPool<'_>,
        (slots, runs): (&mut Vec<RunSlot<R>>, &mut Vec<R>),
        place: impl Fn(SortedRun, Instant) -> Result<R, SpillError> + Sync,
    ) -> Result<(), SpillError> {
        let (n, run_rows) = (input.len(), self.run_rows);
        let count = n.div_ceil(run_rows);
        if slots.len() < count {
            slots.resize_with(count, Default::default);
        }
        // A lone resident run goes straight to output without a merge, so
        // its code column would have no reader.
        let with_codes = count > 1 || R::LONE_RUN_CODED;
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots = &slots[..count];
        let claim = |worker: usize| {
            if worker >= R::BUILDERS {
                return;
            }
            while !failed.load(AtomicOrdering::SeqCst) {
                let i = next.fetch_add(1, AtomicOrdering::SeqCst);
                if i >= count {
                    break;
                }
                let (lo, claimed) = (i * run_rows, Instant::now());
                let rows = (lo, (lo + run_rows).min(n));
                let placed = place(self.make_run(pool, plan, input, rows, with_codes), claimed);
                failed.fetch_or(placed.is_err(), AtomicOrdering::SeqCst);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(placed);
            }
        };
        if self.set.threads().min(R::BUILDERS).min(count) > 1 {
            self.broadcast(&claim);
        } else {
            claim(0);
        }
        runs.clear();
        runs.reserve(count);
        for slot in slots {
            // Slots fill in claim order up to the first failure; an empty
            // one before it is a run no worker delivered.
            match slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                Some(Ok(run)) => runs.push(run),
                Some(Err(err)) => return Err(err),
                None => return Err(lost_run()),
            }
        }
        Ok(())
    }

    /// Cut `runs` into the key ranges one pass of merges fills
    /// independently (DESIGN.md §11.3): the thread count, capped so every
    /// range covers at least [`MIN_ROWS_PER_RANGE`] rows on average, and
    /// one range for a lone run or a zero-width key (nothing to cut by).
    /// `parts − 1` splitters are evenly spaced picks from every run's
    /// sample keys, sorted together, and every run is cut at each. Range
    /// `p` holds the keys in `[splitter[p−1], splitter[p])`, so byte-equal
    /// keys never straddle a cut, and the ranges concatenate to the stable
    /// merge by run index that one tree over whole runs produces.
    fn plan_ranges<R: StoredRun>(
        &self,
        kw: usize,
        runs: &[R],
        plan: &mut MergePlan<R>,
    ) -> Result<(), SpillError> {
        let total: usize = runs.iter().map(R::row_count).sum();
        plan.splitters.clear();
        plan.cuts.clear();
        let threads = self.set.threads();
        let parts = if threads > 1 && kw > 0 && runs.len() > 1 {
            threads.min(total / MIN_ROWS_PER_RANGE).max(1)
        } else {
            1
        };
        if parts > 1 {
            let mut keys: Vec<&[u8]> = std::mem::take(&mut plan.samples);
            for run in runs {
                keys.extend(run.sample_keys(kw));
            }
            keys.sort_unstable();
            for j in 1..parts {
                if let Some(key) = keys.get(j * keys.len() / parts) {
                    plan.splitters.extend_from_slice(key);
                }
            }
            plan.samples = recycle_vec(keys);
        }
        plan.cuts.reserve(runs.len() * (parts + 1));
        for run in runs {
            let [start, end] = run.bounds();
            plan.cuts.push(start);
            for splitter in plan.splitters.chunks_exact(kw.max(1)) {
                plan.cuts.push(run.cut_at(self, kw, splitter)?);
            }
            plan.cuts.push(end);
        }
        plan.parts = plan.splitters.len().checked_div(kw).unwrap_or(0) + 1;
        if plan.ranges.len() < plan.parts {
            plan.ranges.resize_with(plan.parts, Default::default);
        }
        Ok(())
    }

    /// Merge every range of a plan into its piece of the output columns,
    /// on the worker pool — one range on the calling thread. Ranges are
    /// claimed in order under one lock, each with the next of `pieces`
    /// (disjoint by construction, whichever worker gets which), and merged
    /// through a [`VectorSink`]; range `p` leaves its piece's tail in
    /// `tails[p]`. A failure stops further claims and the lowest failed
    /// range's error is returned.
    fn merge_ranges<'c, R: StoredRun>(
        &self,
        order: &MergeOrder<'_>,
        runs: &[R],
        plan: &MergePlan<R>,
        pieces: impl Iterator<Item = ChunkPiece<'c>> + Send,
        tails: &[Mutex<Option<PieceTail>>],
    ) -> Result<(), SpillError> {
        let coded = self.coded(order.kw) && runs.len() > 1;
        // The next range, the pieces left, and the lowest failed range.
        let state = Mutex::new((0, pieces, None::<(usize, SpillError)>));
        let body = |_worker: usize| loop {
            let (p, rows, piece) = {
                let mut next = state.lock().unwrap_or_else(|e| e.into_inner());
                if next.2.is_some() {
                    break;
                }
                let Some(piece) = next.1.next() else { break };
                let p = next.0;
                next.0 += 1;
                (p, plan.range_rows(p), piece)
            };
            let mut sink = VectorSink::new(piece, self.pool());
            match self.merge_range(order, coded, runs, plan, (p, rows), &mut sink) {
                Ok(()) => {
                    let tail = sink.finish(self.pool());
                    *tails[p].lock().unwrap_or_else(|e| e.into_inner()) = Some(tail);
                }
                Err(err) => {
                    let failed = &mut state.lock().unwrap_or_else(|e| e.into_inner()).2;
                    if failed.as_ref().is_none_or(|(q, _)| p < *q) {
                        *failed = Some((p, err));
                    }
                }
            }
        };
        if plan.parts == 1 {
            body(0);
        } else {
            self.broadcast(&body);
        }
        let (_, _, failed) = state.into_inner().unwrap_or_else(|e| e.into_inner());
        failed.map_or(Ok(()), |(_, err)| Err(err))
    }

    /// Merge the `rows` rows of range `p` into `sink`: one source per run,
    /// between its cuts `p` and `p + 1` (a run with none there is an
    /// exhausted leaf), through the kernel once — on codes when `coded`.
    fn merge_range<R: StoredRun>(
        &self,
        order: &MergeOrder<'_>,
        coded: bool,
        runs: &[R],
        plan: &MergePlan<R>,
        (p, rows): (usize, usize),
        sink: &mut VectorSink<'_>,
    ) -> Result<(), SpillError> {
        if rows == 0 {
            return Ok(());
        }
        let mut range = plan.ranges[p].lock().unwrap_or_else(|e| e.into_inner());
        let (tree, sources) = &mut *range;
        let mut cursors: Vec<R::Source<'_>> = recycle_vec(std::mem::take(sources));
        cursors.reserve(runs.len());
        for (run, c) in runs.iter().zip(plan.cuts.chunks_exact(plan.parts + 1)) {
            cursors.push(run.source(self, order.kw, [c[p], c[p + 1]])?);
        }
        let stats = if coded {
            merge_kway::<true, _>(order, tree, &mut cursors, rows, sink)
        } else {
            merge_kway::<false, _>(order, tree, &mut cursors, rows, sink)
        }?;
        stats.flush(&self.metrics);
        *sources = recycle_vec(cursors);
        Ok(())
    }

    /// Merge `runs` straight into the result's columns (DESIGN.md §11.4),
    /// clocked as `phase`: plan the ranges, size every column exactly,
    /// merge each range into its piece ([`SorterCore::merge_ranges`]) — the
    /// gather runs on every merge worker — and join the pieces' strings and
    /// validity masks on one thread afterwards, clocked as
    /// [`Phase::Gather`]. `input`'s string columns say how many bytes to
    /// expect. A lone run is one range, drained on the calling thread.
    pub(crate) fn merge_into_vectors<R: StoredRun>(
        &self,
        order: &MergeOrder<'_>,
        runs: &[R],
        plan: &mut MergePlan<R>,
        input: &DataChunk,
        phase: Phase,
    ) -> Result<DataChunk, SpillError> {
        let merge_timer = self.metrics.time_phase(phase);
        self.plan_ranges(order.kw, runs, plan)?;
        let total: usize = runs.iter().map(R::row_count).sum();
        let mut builder = ChunkBuilder::new(&self.types, total);
        let tails: Vec<Mutex<Option<PieceTail>>> =
            (0..plan.parts).map(|_| Mutex::new(None)).collect();
        {
            let rows = (0..plan.parts).map(|p| plan.range_rows(p));
            let pieces = builder.pieces(&self.layout, rows, string_bytes(input));
            self.merge_ranges(order, runs, plan, pieces.into_iter(), &tails)?;
        }
        drop(merge_timer);

        let _join = self.metrics.time_phase(Phase::Gather);
        let tails = tails
            .into_iter()
            .filter_map(|t| t.into_inner().unwrap_or_else(|e| e.into_inner()));
        let chunk = builder.finish(tails.collect());
        // A row's one move after run generation: its values into columns.
        self.metrics.add(Counter::BytesMoved, column_bytes(&chunk));
        Ok(chunk)
    }
}

/// A run no worker delivered: only a worker that died mid-phase leaves a
/// slot empty, and the broadcast re-raises that panic first — but a lost
/// run must surface typed, never as a shorter output.
fn lost_run() -> SpillError {
    let detail = std::io::Error::other("a run was never built");
    SpillError::io(SpillOp::Write, Path::new("<run generation>"), &detail)
}

/// Splitter candidates sampled per run. 32 evenly spaced keys per run give
/// the planner `32 × runs` sorted candidates — plenty for a near-even cut
/// at any plausible thread count, for a few hundred bytes per run.
const MERGE_SAMPLES_PER_RUN: usize = 32;

/// Minimum rows per key range. Below this the per-range overhead (a tree
/// and a source per run, for spilled runs a block buffer and a cut block
/// read too) outweighs the parallelism, so the range count is capped at
/// `total / 256`.
const MIN_ROWS_PER_RANGE: usize = 256;

/// The rows of an `n`-row sorted run whose keys are its splitter
/// candidates: up to [`MERGE_SAMPLES_PER_RUN`] evenly spaced indices
/// `j·n/s`.
fn sample_positions(n: usize) -> impl Iterator<Item = usize> {
    let s = n.min(MERGE_SAMPLES_PER_RUN);
    (0..s).map(move |j| j * n / s)
}

/// The cut a splitter makes in a sorted key column of `kw`-byte keys: the
/// index of the first key `>= splitter`. (A spilled run's column is its
/// blocks' first keys: the search names the one block to walk for the
/// cut, by the same rule.)
pub(crate) fn lower_bound(keys: &[u8], kw: usize, splitter: &[u8]) -> usize {
    let (mut lo, mut hi) = (0, keys.len() / kw);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp_keys(&keys[mid * kw..(mid + 1) * kw], splitter) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// An empty vector in `v`'s allocation, whatever lifetime its elements
/// borrowed for: how per-sort scratch that holds borrows (merge sources,
/// sample keys) is kept across sorts without a lifetime in the sorter's
/// type. Collecting an emptied vector's `into_iter` reuses its buffer
/// when the element layouts match (they differ only in a lifetime here);
/// were that ever to stop holding, this would still be correct and
/// `zero_alloc.rs` would report the allocation.
fn recycle_vec<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().filter_map(|_| None).collect()
}
