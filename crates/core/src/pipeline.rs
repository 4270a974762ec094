//! DuckDB's full parallel sorting pipeline (paper Figure 11), merging in
//! one k-way pass.
//!
//! ```text
//! vectors ──► 8-byte-aligned payload rows + normalized keys (per worker)
//!         ──► thread-local radix sort (+ comparator in key-equal ranges) ⇒ sorted runs
//!         ──► one k-way merge per key range, ranges across threads,
//!             winners gathered straight into the output vectors
//! ```
//!
//! Run generation dominates the comparison count (§II: with k runs of n/k
//! rows, `n·log(n) − n·log(k)` of the `n·log(n)` comparisons happen during
//! run generation), so each worker sorts its own runs locally. The merge
//! phase is one pass at any thread count: the key space is cut into one
//! range per thread, and each range is a tree-of-losers merge — rows move
//! once (DESIGN.md §10). With [`SortOptions::ovc`] (the default) its
//! matches mostly resolve on one `u64` offset-value code compare instead
//! of a whole-key `memcmp`; with it off the same tree plays whole-key
//! compares. (The paper merges with a cascade of 2-way merges split along
//! Merge Path diagonals, which moves every row log₂ k times.)
//!
//! In steady state the pipeline is **allocation-free and
//! thread-spawn-free** (DESIGN.md §6): every transient buffer — key runs,
//! payload blocks, the radix scratch, merge outputs — comes from a
//! [`BufferPool`] that survives across runs and repeated
//! [`SortPipeline::sort`] calls, and phases execute on a persistent
//! [`WorkerPool`] spawned once per pipeline. The merge writes winners
//! straight into a disjoint part of a pre-sized output — there is no
//! intermediate `(block, row)` pick pass — and for [`SortPipeline::sort`]
//! that output is the result's columns themselves ([`VectorSink`]):
//! the only relation-sized allocation of a warm sort, and no merged row
//! run behind it. [`SortPipeline::sort_rows`] keeps the row output, for
//! callers that want rows and as the twin the vectors are checked against.
//!
//! Output is deterministic: runs land in morsel-indexed slots; key ranges
//! are cut where keys differ, so their concatenation is the one stable
//! merge by run index — so the result, including the order within ties,
//! is bit-identical for any thread count and with `ovc` on or off.

use crate::comparator::FusedRowComparator;
use crate::keys::{KeyBlock, VarcharStat};
use crate::merge::{
    choose_splitters, column_bytes, lower_bound, merge_kway, plan_parts, recycle_vec,
    sample_positions, string_bytes, ConcatSink, MemSource, MergeOrder, MergeSink, VectorSink,
};
use crate::metrics::{emit_trace, Counter, CounterRegistry, Metrics, Phase, SortProfile};
use crate::pool::BufferPool;
use crate::run::{planned_prefix, varchar_stats, PrefixSampler, RunGenerator, SortedRun};
use crate::workers::WorkerPool;
use rowsort_algos::kway::OvcLoserTree;
use rowsort_row::{heap_base, ChunkBuilder, PieceTail, RowBlock, RowLayout};
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Worker threads to use when [`SortOptions`] does not pin a count: the
/// `ROWSORT_THREADS` environment variable if set to an integer
/// (`ROWSORT_THREADS=0` clamps to 1 rather than panicking downstream),
/// otherwise [`std::thread::available_parallelism`] — so the engine's
/// ORDER BY is parallel out of the box instead of silently single-threaded.
pub fn default_threads() -> usize {
    if let Some(n) = rowsort_testkit::env::env_count("ROWSORT_THREADS") {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Whether merges use offset-value coding when [`SortOptions`] does not
/// pin it: on unless the `ROWSORT_OVC` environment variable disables it
/// (any of `0`/`false`/`off`/`no`, trimmed and case-insensitive — the
/// shared [`rowsort_testkit::env`] convention) — the escape hatch for
/// A/B runs and for ruling OVC out when debugging a merge (DESIGN.md
/// §10). Unrecognized spellings keep the default rather than silently
/// flipping the knob.
pub fn default_ovc() -> bool {
    rowsort_testkit::env::env_flag("ROWSORT_OVC", true)
}

/// Tuning knobs for the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct SortOptions {
    /// Worker threads for run generation and merging.
    pub threads: usize,
    /// Rows per thread-local sorted run (DuckDB sorts once a thread's
    /// collected data reaches a threshold; 128 Ki rows here).
    pub run_rows: usize,
    /// Code every run's keys as offset-value codes, so that most matches
    /// of the range-partitioned k-way merge resolve on one `u64` compare
    /// (DESIGN.md §10). Off, the same tree plays whole-key compares.
    /// Output is bit-identical either way.
    pub ovc: bool,
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions {
            threads: default_threads(),
            run_rows: 1 << 17,
            ovc: default_ovc(),
        }
    }
}

impl SortOptions {
    /// Single-threaded with a custom run size (used by tests/benches).
    pub fn single_with_run_rows(run_rows: usize) -> SortOptions {
        SortOptions {
            threads: 1,
            run_rows,
            ..SortOptions::default()
        }
    }
}

/// What one key range's merge keeps from sort to sort. The cursors borrow
/// the sort's runs, so between sorts the vector is empty and only its
/// allocation survives ([`recycle_vec`]).
#[derive(Default)]
struct RangeScratch {
    tree: OvcLoserTree,
    sources: Vec<MemSource<'static>>,
}

/// Reusable per-sort working state, retained inside the pipeline so a
/// steady-state sort allocates nothing.
#[derive(Default)]
struct Scratch {
    /// VARCHAR key-column statistics of the current input, by column.
    stats: Vec<VarcharStat>,
    /// Statistics the pooled key blocks were planned for; when an input's
    /// stats differ, the cached blocks are discarded (their normalized-key
    /// layout would no longer match).
    key_stats: Vec<VarcharStat>,
    /// The prefix estimator's sample table.
    sampler: PrefixSampler,
    /// Morsel-indexed run slots: worker `m` writes run `m` here, so run
    /// order (and thus the merge's tie order) is schedule-independent.
    run_slots: Vec<Mutex<Option<SortedRun>>>,
    /// The runs to merge, in morsel order.
    runs: Vec<SortedRun>,
    /// Range-merge state (DESIGN.md §10.3), all reused so the steady
    /// state allocates nothing: the runs' sample keys (empty between
    /// sorts, like a range's cursors) and the splitters picked from them,
    /// every run's `parts + 1` cuts, every run's base in the output heap,
    /// and a tree plus cursor vector per key range.
    samples: Vec<&'static [u8]>,
    splitters: Vec<u8>,
    cuts: Vec<usize>,
    heap_bases: Vec<u32>,
    ranges: Vec<Mutex<RangeScratch>>,
    /// Pooled key blocks (kept whole to also reuse their layout planning).
    key_blocks: Mutex<Vec<KeyBlock>>,
}

/// The relational sort operator.
///
/// ```
/// use rowsort_core::pipeline::{SortOptions, SortPipeline};
/// use rowsort_vector::{DataChunk, OrderBy, Value, Vector};
///
/// let chunk = DataChunk::from_columns(vec![
///     Vector::from_u32s(vec![3, 1, 2]),        // key
///     Vector::from_strings(["c", "a", "b"]),   // payload
/// ])
/// .unwrap();
/// let pipeline = SortPipeline::new(
///     chunk.types(),
///     OrderBy::ascending(1),
///     SortOptions::default(),
/// );
/// let sorted = pipeline.sort(&chunk);
/// assert_eq!(sorted.row(0), vec![Value::UInt32(1), Value::from("a")]);
/// assert_eq!(sorted.row(2), vec![Value::UInt32(3), Value::from("c")]);
/// ```
pub struct SortPipeline {
    types: Vec<LogicalType>,
    order: OrderBy,
    options: SortOptions,
    layout: Arc<RowLayout>,
    /// Full-tuple comparator for VARCHAR-prefix tie resolution, built once.
    tie_cmp: FusedRowComparator,
    /// Columns whose row slots reference the heap (offset fixup in merges).
    varlen_cols: Vec<usize>,
    pool: BufferPool,
    /// Spawned lazily on the first parallel phase, then reused for life.
    workers: OnceLock<WorkerPool>,
    /// Reusable working state. Concurrent `sort` calls on one pipeline
    /// serialize on this lock (each call uses the whole scratch).
    scratch: Mutex<Scratch>,
    /// Lock-free counters and phase clocks, preallocated here so
    /// recording during a sort allocates nothing (DESIGN.md §7).
    metrics: Arc<CounterRegistry>,
    /// The most recent sort's profile (overwritten in place — `Copy`).
    profile: Mutex<SortProfile>,
}

impl SortPipeline {
    /// Plan a sort of a relation with columns `types` by `order`.
    /// `threads == 0` or `run_rows == 0` are clamped to 1 — both would
    /// otherwise divide by zero in morsel splitting / worker spawn.
    pub fn new(types: Vec<LogicalType>, order: OrderBy, mut options: SortOptions) -> SortPipeline {
        options.threads = options.threads.max(1);
        options.run_rows = options.run_rows.max(1);
        let layout = Arc::new(RowLayout::new(&types));
        let tie_cmp = FusedRowComparator::new(&layout, &order);
        let varlen_cols = (0..types.len())
            .filter(|&c| types[c] == LogicalType::Varchar)
            .collect();
        let metrics = Arc::new(CounterRegistry::new());
        SortPipeline {
            types,
            order,
            options,
            layout,
            tie_cmp,
            varlen_cols,
            pool: BufferPool::with_metrics(Arc::clone(&metrics)),
            workers: OnceLock::new(),
            scratch: Mutex::new(Scratch::default()),
            metrics,
            profile: Mutex::new(SortProfile::zeroed()),
        }
    }

    /// Sort a materialized input relation, returning it fully sorted: the
    /// merge's winners are gathered straight into the result's columns.
    /// [`Phase::Merge`] therefore contains the conversion back to vectors,
    /// and [`Phase::Gather`] clocks only what is left of it afterwards, the
    /// join of the key ranges' strings and validity masks.
    pub fn sort(&self, input: &DataChunk) -> DataChunk {
        let sorted = self.sort_with(input, "vectors", |scratch| {
            self.merge_into_vectors(scratch, input)
        });
        sorted.unwrap_or_else(|| DataChunk::new(&self.types))
    }

    /// Sort `input`, returning the merged run in row form. Dropping the
    /// result returns its buffers to the pipeline's pool; in steady state
    /// (after a warm-up sort of similar shape) this call performs zero
    /// heap allocations.
    pub fn sort_rows(&self, input: &DataChunk) -> SortedRows<'_> {
        SortedRows {
            pipeline: self,
            run: self
                .sort_with(input, "rows", |scratch| self.merge_runs(scratch))
                .flatten(),
        }
    }

    /// The sort up to its merge, which `merge` supplies: check the schema,
    /// plan the key, generate the runs, merge them through `merge` — into
    /// the `sink` it names — and publish the sort's profile and trace
    /// line. `None` for an empty input, which records nothing.
    fn sort_with<T>(
        &self,
        input: &DataChunk,
        sink: &'static str,
        merge: impl FnOnce(&mut Scratch) -> T,
    ) -> Option<T> {
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
        let mut guard = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let scratch = &mut *guard;
        let sort_start = Instant::now();
        let before = self.metrics.snapshot();
        {
            let _prepare = self.metrics.time_phase(Phase::Prepare);
            varchar_stats(input, &self.order, &mut scratch.sampler, &mut scratch.stats);
            if scratch.stats != scratch.key_stats {
                // Cached key blocks were planned for different VARCHAR
                // stats; their layout no longer applies.
                scratch
                    .key_blocks
                    .get_mut()
                    .unwrap_or_else(|e| e.into_inner())
                    .clear();
                scratch.key_stats.clear();
                scratch.key_stats.extend_from_slice(&scratch.stats);
            }
        }
        {
            let _gen = self.metrics.time_phase(Phase::RunGeneration);
            self.generate_runs(input, scratch);
        }
        let key_width = scratch.runs.first().map_or(0, |r| r.key_width);
        let sorted = merge(scratch);
        self.metrics.record_sort(input.len() as u64);
        let profile = SortProfile {
            operator: "pipeline",
            sink,
            rows: input.len() as u64,
            total_ns: sort_start.elapsed().as_nanos() as u64,
            key_width: key_width as u32,
            varchar_prefix: planned_prefix(&scratch.stats),
            metrics: self.metrics.snapshot().since(&before),
        };
        *self.profile.lock().unwrap_or_else(|e| e.into_inner()) = profile;
        emit_trace(&profile);
        Some(sorted)
    }

    /// Buffer-pool `(hits, misses)` counters — a steady-state sort serves
    /// every buffer from the pool (hits grow, misses do not).
    pub fn pool_stats(&self) -> (usize, usize) {
        (self.pool.hits(), self.pool.misses())
    }

    /// The profile of the most recent completed sort (zeroed before the
    /// first one). A `Copy` snapshot — reading it allocates nothing.
    pub fn last_profile(&self) -> SortProfile {
        *self.profile.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Cumulative [`Metrics`] across every sort this pipeline has run.
    pub fn metrics(&self) -> Metrics {
        self.metrics.snapshot()
    }

    /// What run generation borrows from this pipeline.
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

    /// The persistent phase crew (spawned on first use).
    fn worker_pool(&self) -> &WorkerPool {
        self.workers.get_or_init(|| {
            WorkerPool::with_metrics(self.options.threads, Arc::clone(&self.metrics))
        })
    }

    /// Phase 1: morsel-parallel run generation. Each completed run is
    /// written to its morsel-indexed slot, so the resulting run order is
    /// identical for every schedule and thread count.
    fn generate_runs(&self, input: &DataChunk, scratch: &mut Scratch) {
        let n = input.len();
        let run_rows = self.options.run_rows;
        let morsels = n.div_ceil(run_rows);
        if scratch.run_slots.len() < morsels {
            scratch.run_slots.resize_with(morsels, Default::default);
        }
        let Scratch {
            ref stats,
            ref run_slots,
            ref mut runs,
            ref key_blocks,
            ..
        } = *scratch;

        let gen = self.run_generator();
        let next = AtomicUsize::new(0);
        let body = |_worker: usize| loop {
            let m = next.fetch_add(1, AtomicOrdering::Relaxed);
            if m >= morsels {
                break;
            }
            let lo = m * run_rows;
            // A lone run goes straight to output without a merge, so its
            // code column would have no reader — skip computing it.
            let run = gen.make_run(
                input,
                lo,
                (lo + run_rows).min(n),
                stats,
                key_blocks,
                morsels > 1,
            );
            *run_slots[m].lock().unwrap_or_else(|e| e.into_inner()) = Some(run);
        };
        if self.options.threads.min(morsels) <= 1 {
            body(0);
        } else {
            self.worker_pool().broadcast(&body);
        }

        runs.clear();
        for slot in run_slots[..morsels].iter() {
            let run = slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                // lint:allow(R010): the phase-1 barrier completes before
                // this runs, and phase 1 fills every slot exactly once.
                .expect("every morsel slot is filled by phase 1");
            runs.push(run);
        }
    }

    /// Whether `runs` merge on offset-value codes: `ovc` on, a key to
    /// code and something to merge — the runs that carry a code column
    /// ([`RunGenerator::make_run`]). Any other merge plays the same tree
    /// with whole-key compares.
    fn coded(&self, runs: &[SortedRun]) -> bool {
        let kw = runs.first().map_or(0, |r| r.key_width);
        self.options.ovc && kw > 0 && runs.len() > 1
    }

    /// Phase 2 of [`SortPipeline::sort_rows`]: merge the runs into one row
    /// run ([`SortPipeline::merge_ranges`]). A lone run is that row run
    /// already.
    fn merge_runs(&self, scratch: &mut Scratch) -> Option<SortedRun> {
        let _merge = self.metrics.time_phase(Phase::Merge);
        if scratch.runs.len() > 1 {
            Some(self.merge_ranges(scratch))
        } else {
            scratch.runs.pop()
        }
    }

    /// Phase 2 of [`SortPipeline::sort`]: merge the runs straight into the
    /// result's columns (DESIGN.md §10.3). The output is cut into ranges
    /// ([`SortPipeline::plan_ranges`]) whose row counts are exact, so each
    /// range owns a disjoint piece of every exactly pre-sized column and
    /// the worker pool fills the pieces independently through
    /// [`VectorSink`]s: the gather runs on every merge worker, batch by
    /// batch, and what is left for one thread afterwards — clocked as
    /// [`Phase::Gather`] — is one byte copy per range and VARCHAR column
    /// and a splice of the validity masks. `input`'s string columns say
    /// how many bytes to expect. The lone run of an input no longer than
    /// `run_rows` has nothing to merge and drains through the same sink as
    /// one range, on the calling thread.
    fn merge_into_vectors(&self, scratch: &mut Scratch, input: &DataChunk) -> DataChunk {
        let merge_timer = self.metrics.time_phase(Phase::Merge);
        let parts = self.plan_ranges(scratch);
        let total: usize = scratch.runs.iter().map(|r| r.len()).sum();
        let mut builder = ChunkBuilder::new(&self.types, total);
        let tails: Vec<Mutex<Option<PieceTail>>> = (0..parts).map(|_| Mutex::new(None)).collect();
        {
            let Scratch {
                runs, cuts, ranges, ..
            } = &*scratch;
            let range_rows = |p| range_rows(cuts, parts, p);
            let rows = (0..parts).map(range_rows);
            let pieces = builder.pieces(&self.layout, rows, string_bytes(input));
            let mut pieces = pieces.into_iter();
            let claim = move |_rows| Some(VectorSink::new(pieces.next()?, &self.pool));
            let done = |p: usize, sink: VectorSink<'_>| {
                let tail = sink.finish(&self.pool);
                *tails[p].lock().unwrap_or_else(|e| e.into_inner()) = Some(tail);
            };
            self.merge_each_range((runs, cuts, ranges), parts, claim, done);
        }
        for run in scratch.runs.drain(..) {
            run.recycle(&self.pool);
        }
        drop(merge_timer);

        let _join = self.metrics.time_phase(Phase::Gather);
        let tails = tails
            .into_iter()
            .filter_map(|t| t.into_inner().unwrap_or_else(|e| e.into_inner()));
        let chunk = builder.finish(tails.collect());
        // A row's one move after run generation: its values into columns.
        self.metrics.add(Counter::BytesMoved, column_bytes(&chunk));
        chunk
    }

    /// Cut the runs into the `parts` ranges one pass of merges fills
    /// independently; `scratch.cuts` then holds every run's `parts + 1`
    /// cuts (rows `c[p]..c[p + 1]` of a run fall in range `p`).
    ///
    /// Several runs are cut by key (DESIGN.md §10.3): `parts − 1` splitters
    /// picked from evenly spaced samples of the runs' key columns cut every
    /// run by lower-bound binary search. Byte-equal keys never straddle a
    /// cut, so the ranges concatenate to the stable merge by run index that
    /// one tree over whole runs produces; a key value held by more than
    /// `1/parts` of the rows makes its range that much larger than its
    /// share ([`Counter::MergeMaxRangeRows`]). A lone run has nothing to
    /// cut by and is one range.
    fn plan_ranges(&self, scratch: &mut Scratch) -> usize {
        let Scratch {
            ref runs,
            ref mut samples,
            ref mut splitters,
            ref mut cuts,
            ref mut ranges,
            ..
        } = *scratch;
        let kw = runs.first().map_or(0, |r| r.key_width);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        splitters.clear();
        cuts.clear();
        let parts = plan_parts(self.options.threads, kw, runs.len(), total);
        if parts > 1 {
            let mut keys: Vec<&[u8]> = std::mem::take(samples);
            for run in runs.iter() {
                let rows = sample_positions(run.len());
                keys.extend(rows.map(|i| &run.keys[i * kw..(i + 1) * kw]));
            }
            choose_splitters(&mut keys, parts, splitters);
            *samples = recycle_vec(keys);
        }
        for run in runs.iter() {
            cuts.push(0);
            let cut = |s| lower_bound(&run.keys, kw, s);
            cuts.extend(splitters.chunks_exact(kw.max(1)).map(cut));
            cuts.push(run.len());
        }
        let parts = splitters.len().checked_div(kw).unwrap_or(0) + 1;
        if ranges.len() < parts {
            ranges.resize_with(parts, Default::default);
        }
        parts
    }

    /// Merge every range of a plan ([`SortPipeline::plan_ranges`]) into the
    /// sink `claim` hands out for it, on the worker pool — `parts == 1` on
    /// the calling thread. Ranges are claimed in order under one lock,
    /// `claim(rows)` taking the range's share off the front of whatever
    /// output it guards (slices disjoint by construction, whichever worker
    /// gets which); `done` gets each sink back once its range is in.
    /// [`SortPipeline::coded`] runs merge on their codes, any others on
    /// whole keys; a lone run drains straight through the kernel's
    /// one-leaf tree. Several runs count one merge round of `parts` tasks.
    fn merge_each_range<K: MergeSink>(
        &self,
        (runs, cuts, ranges): (&[SortedRun], &[usize], &[Mutex<RangeScratch>]),
        parts: usize,
        claim: impl FnMut(usize) -> Option<K> + Send,
        done: impl Fn(usize, K) + Sync,
    ) {
        let coded = self.coded(runs);
        let (kw, tie_possible) = runs
            .first()
            .map_or((0, false), |r| (r.key_width, r.tie_possible));
        let order = MergeOrder {
            kw,
            tie_possible,
            tie_cmp: &self.tie_cmp,
        };
        let unclaimed = Mutex::new((0, claim));
        let body = |_worker: usize| loop {
            let (p, rows, mut sink) = {
                let mut next = unclaimed.lock().unwrap_or_else(|e| e.into_inner());
                let p = next.0;
                if p >= parts {
                    break;
                }
                let rows = range_rows(cuts, parts, p);
                let Some(sink) = (next.1)(rows) else { break };
                next.0 += 1;
                (p, rows, sink)
            };
            if rows > 0 {
                let mut range = ranges[p].lock().unwrap_or_else(|e| e.into_inner());
                let RangeScratch { tree, sources } = &mut *range;
                let mut cursors: Vec<MemSource<'_>> = std::mem::take(sources);
                let run_cuts = runs.iter().zip(cuts.chunks_exact(parts + 1));
                cursors.extend(run_cuts.map(|(run, c)| MemSource::range(run, c[p], c[p + 1])));
                let merged = if coded {
                    merge_kway::<true, _, _>(&order, tree, &mut cursors, rows, &mut sink)
                } else {
                    merge_kway::<false, _, _>(&order, tree, &mut cursors, rows, &mut sink)
                };
                merged
                    // lint:allow(R010): in-memory sources never fail to
                    // advance, their rows' strings lie in their own heaps,
                    // and the sink holds exactly the range's rows.
                    .expect("in-memory merge is infallible")
                    .flush(&self.metrics);
                *sources = recycle_vec(cursors);
            }
            done(p, sink);
        };
        if parts == 1 {
            body(0);
        } else {
            self.worker_pool().broadcast(&body);
        }
        if runs.len() > 1 {
            let max_range = (0..parts).map(|p| range_rows(cuts, parts, p)).max();
            self.metrics.add(Counter::MergeRounds, 1);
            self.metrics.add(Counter::MergeTasks, parts as u64);
            self.metrics
                .add(Counter::MergeMaxRangeRows, max_range.unwrap_or(0) as u64);
        }
    }

    /// Merge two or more runs into one row run in one pass of
    /// tree-of-losers merges, one per key range: each range claims its
    /// slice of the one pre-sized row area. Each row moves once at any
    /// thread count, ⌈log₂ k⌉ matches apiece, and no key column is
    /// written: nothing reads the merged run's keys.
    ///
    /// Output order is the stable merge by run index whatever `parts` is
    /// (a full tie goes to the lower leaf), so it is bit-identical with
    /// codes or without, and the output heap is the run heaps concatenated
    /// in run order.
    fn merge_ranges(&self, scratch: &mut Scratch) -> SortedRun {
        let parts = self.plan_ranges(scratch);
        let Scratch {
            ref mut runs,
            ref cuts,
            ref mut heap_bases,
            ref ranges,
            ..
        } = *scratch;
        let width = self.layout.width();
        let (kw, tie_possible) = runs
            .first()
            .map_or((0, false), |r| (r.key_width, r.tie_possible));
        let total: usize = runs.iter().map(|r| r.len()).sum();

        // Rows from run `w` get their heap offsets shifted by that run's
        // base in the output heap. A shifted offset is below the total, so
        // the total is what must fit a slot.
        let heap_bytes: usize = runs.iter().map(|r| r.payload.heap().len()).sum();
        heap_base(heap_bytes);
        let mut heap = self.pool.get_bytes(heap_bytes);
        heap_bases.clear();
        for run in runs.iter() {
            heap_bases.push(heap_base(heap.len()));
            heap.extend_from_slice(run.payload.heap());
        }
        let mut data = self.pool.get_bytes(total * width);
        data.resize(total * width, 0);
        {
            let mut rest = &mut data[..];
            let heap_base = &**heap_bases;
            let claim = move |rows: usize| {
                let (out, tail) = std::mem::take(&mut rest).split_at_mut(rows * width);
                rest = tail;
                Some(ConcatSink {
                    rows: out.chunks_exact_mut(width),
                    heap_base,
                    layout: &self.layout,
                    varlen_cols: &self.varlen_cols,
                })
            };
            self.merge_each_range((runs, cuts, ranges), parts, claim, |_, _| ());
        }
        // A row's one move writes `width` bytes.
        self.metrics
            .add(Counter::BytesMoved, (total * width) as u64);

        for run in runs.drain(..) {
            run.recycle(&self.pool);
        }
        SortedRun {
            keys: Vec::new(),
            key_width: kw,
            tie_possible,
            ovc: Vec::new(),
            payload: RowBlock::from_raw_parts(Arc::clone(&self.layout), data, heap),
        }
    }
}

/// Rows of range `p` over all runs, `cuts` holding `parts + 1` cuts per run.
fn range_rows(cuts: &[usize], parts: usize, p: usize) -> usize {
    let in_range = |c: &[usize]| c[p + 1] - c[p];
    cuts.chunks_exact(parts + 1).map(in_range).sum()
}

/// A sorted relation in row form, borrowed from its pipeline's buffer
/// pool: dropping it recycles the buffers, which is what makes repeated
/// sorts allocation-free.
pub struct SortedRows<'a> {
    pipeline: &'a SortPipeline,
    run: Option<SortedRun>,
}

impl SortedRows<'_> {
    /// Number of sorted rows.
    pub fn len(&self) -> usize {
        self.run.as_ref().map_or(0, |r| r.len())
    }

    /// `true` iff the input held no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted payload rows (`None` for an empty input).
    pub fn payload(&self) -> Option<&RowBlock> {
        self.run.as_ref().map(|r| &r.payload)
    }

    /// Convert back to vectors (NSM → DSM); the pipeline's final step.
    pub fn to_chunk(&self) -> DataChunk {
        match &self.run {
            Some(run) => run.payload.to_chunk(),
            None => DataChunk::new(&self.pipeline.types),
        }
    }
}

impl Drop for SortedRows<'_> {
    fn drop(&mut self) {
        if let Some(run) = self.run.take() {
            run.recycle(&self.pipeline.pool);
        }
    }
}

/// Convenience: sort `input` by `order` with default options.
pub fn sort_chunk(input: &DataChunk, order: &OrderBy) -> DataChunk {
    SortPipeline::new(input.types(), order.clone(), SortOptions::default()).sort(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_sorted_permutation, pseudo_random};
    use rowsort_vector::{OrderByColumn, SortSpec, Value, Vector};

    fn assert_sorted_equal(got: &DataChunk, chunk: &DataChunk, order: &OrderBy) {
        assert_sorted_permutation(got, chunk, order, "pipeline");
    }

    #[test]
    fn single_run_radix_path() {
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(10_000, 1, 1_000))])
                .unwrap();
        let order = OrderBy::ascending(1);
        let got = sort_chunk(&chunk, &order);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn multiple_runs_merge() {
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(pseudo_random(5_000, 2, 64)),
            Vector::from_u32s(pseudo_random(5_000, 3, 64)),
        ])
        .unwrap();
        let order = OrderBy::ascending(2);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions::single_with_run_rows(700),
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn parallel_sort_matches_sequential() {
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(pseudo_random(20_000, 4, 128)),
            Vector::from_u32s(pseudo_random(20_000, 5, 128)),
        ])
        .unwrap();
        let order = OrderBy::ascending(2);
        let seq = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 1,
                run_rows: 1500,
                ..SortOptions::default()
            },
        )
        .sort(&chunk);
        let par = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 4,
                run_rows: 1500,
                ..SortOptions::default()
            },
        )
        .sort(&chunk);
        assert_sorted_equal(&par, &chunk, &order);
        // Key columns must agree exactly (payload order within ties may
        // differ between schedules, but here all columns are keys).
        assert_eq!(seq.to_rows(), par.to_rows());
    }

    #[test]
    fn output_bit_identical_across_thread_counts() {
        // Non-key payload creates observable tie order: with morsel-slot
        // runs and key ranges cut where keys differ, the whole output (tie
        // order included) must match for any thread count.
        let keys = pseudo_random(9_000, 21, 40); // heavy ties
        let payload: Vec<u32> = (0..9_000).collect();
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(payload)])
                .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        let reference = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 1,
                run_rows: 512,
                ..SortOptions::default()
            },
        )
        .sort(&chunk);
        for threads in [2, 3, 4] {
            let got = SortPipeline::new(
                chunk.types(),
                order.clone(),
                SortOptions {
                    threads,
                    run_rows: 512,
                    ..SortOptions::default()
                },
            )
            .sort(&chunk);
            assert_eq!(
                reference.to_rows(),
                got.to_rows(),
                "threads={threads} diverged from single-threaded output"
            );
        }
    }

    #[test]
    fn repeated_sorts_hit_the_pool() {
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(30_000, 33, 1 << 30))])
                .unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 1,
                run_rows: 4_000,
                ..SortOptions::default()
            },
        );
        let first = pipeline.sort(&chunk);
        let (_, misses_after_warmup) = pipeline.pool_stats();
        let second = pipeline.sort(&chunk);
        let (hits, misses) = pipeline.pool_stats();
        assert_eq!(first.to_rows(), second.to_rows());
        assert_eq!(
            misses, misses_after_warmup,
            "steady-state sort allocated fresh buffers"
        );
        assert!(hits > 0, "steady-state sort never hit the pool");
        assert_sorted_equal(&second, &chunk, &order);
    }

    #[test]
    fn varchar_stat_change_invalidates_pooled_key_blocks() {
        let order = OrderBy::ascending(1);
        let short =
            DataChunk::from_columns(vec![Vector::from_strings(["b", "a", "c", "d"])]).unwrap();
        let long = DataChunk::from_columns(vec![Vector::from_strings([
            "prefix_very_long_AAAA",
            "prefix_very_long_AAAB",
            "prefix_very_long_AAAA",
            "zz",
        ])])
        .unwrap();
        let pipeline = SortPipeline::new(
            short.types(),
            order.clone(),
            SortOptions::single_with_run_rows(2),
        );
        let got_short = pipeline.sort(&short);
        assert_sorted_equal(&got_short, &short, &order);
        // Longer strings change the VARCHAR prefix stat: cached key blocks
        // must be rebuilt, not reused with the stale layout.
        let got_long = pipeline.sort(&long);
        assert_sorted_equal(&got_long, &long, &order);
        let got_short_again = pipeline.sort(&short);
        assert_sorted_equal(&got_short_again, &short, &order);
    }

    #[test]
    fn sorts_strings_with_prefix_ties() {
        let strings = vec![
            "prefix_very_long_AAAA",
            "prefix_very_long_AAAB",
            "prefix_very_long_AAAA",
            "zz",
            "",
            "prefix_very",
        ];
        let chunk = DataChunk::from_columns(vec![Vector::from_strings(strings.clone())]).unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions::single_with_run_rows(2),
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn sorts_mixed_schema_with_nulls() {
        let mut chunk = DataChunk::new(&[
            LogicalType::Varchar,
            LogicalType::Int32,
            LogicalType::Float64,
        ]);
        let mut state = 77u64;
        for i in 0..3_000i32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (state >> 33) as u32;
            let name = if r.is_multiple_of(11) {
                Value::Null
            } else {
                Value::from(format!("name{}", r % 37))
            };
            let year = if r.is_multiple_of(13) {
                Value::Null
            } else {
                Value::Int32(1924 + (r % 69) as i32)
            };
            chunk
                .push_row(&[name, year, Value::Float64(i as f64 * 0.5)])
                .unwrap();
        }
        let order = OrderBy::new(vec![
            OrderByColumn {
                column: 0,
                spec: SortSpec::DESC,
            },
            OrderByColumn {
                column: 1,
                spec: SortSpec::ASC,
            },
        ]);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 3,
                run_rows: 257,
                ..SortOptions::default()
            },
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn empty_input() {
        let chunk = DataChunk::new(&[LogicalType::UInt32]);
        let got = sort_chunk(&chunk, &OrderBy::ascending(1));
        assert!(got.is_empty());
    }

    #[test]
    fn single_row() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(vec![42])]).unwrap();
        let got = sort_chunk(&chunk, &OrderBy::ascending(1));
        assert_eq!(got.row(0), vec![Value::UInt32(42)]);
    }

    #[test]
    fn odd_run_count_merges() {
        // 5 runs: a tree of losers over an odd number of leaves.
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(501, 9, 50))]).unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions::single_with_run_rows(101),
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn payload_follows_keys() {
        // Non-key payload column must arrive reordered with its row.
        let keys = pseudo_random(2_000, 10, 100);
        let payload: Vec<u32> = keys.iter().map(|k| k * 7 + 1).collect();
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(payload)])
                .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions::single_with_run_rows(300),
        );
        let got = pipeline.sort(&chunk);
        for i in 0..got.len() {
            let row = got.row(i);
            let (k, p) = match (&row[0], &row[1]) {
                (Value::UInt32(k), Value::UInt32(p)) => (*k, *p),
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(p, k * 7 + 1, "payload detached from its key at row {i}");
        }
    }

    #[test]
    fn zero_threads_and_zero_run_rows_clamp_to_one() {
        // Regression: `SortOptions { threads: 0, .. }` used to trip an
        // assert (and without it would divide by zero in morsel
        // splitting); both knobs now clamp to 1 and the sort completes.
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(500, 41, 100))]).unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 0,
                run_rows: 0,
                ..SortOptions::default()
            },
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn rowsort_threads_env_zero_clamps_to_one() {
        // Regression: `ROWSORT_THREADS=0` must mean "1 thread", not fall
        // through to hardware parallelism or panic downstream.
        std::env::set_var("ROWSORT_THREADS", "0");
        let got = default_threads();
        std::env::remove_var("ROWSORT_THREADS");
        assert_eq!(got, 1);
    }

    #[test]
    fn sort_populates_profile_and_metrics() {
        use crate::metrics::{Counter, Phase};
        let n = 5_000usize;
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(n, 51, 1 << 20))])
            .unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 1,
                run_rows: 700, // 8 runs, merged in one round
                ..SortOptions::default()
            },
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);

        let profile = pipeline.last_profile();
        assert_eq!(profile.operator, "pipeline");
        assert_eq!(profile.rows, n as u64);
        assert!(profile.total_ns > 0);
        let m = &profile.metrics;
        assert_eq!(m.counter(Counter::SortCalls), 1);
        assert_eq!(m.counter(Counter::RowsSorted), n as u64);
        assert_eq!(m.counter(Counter::RunsGenerated), 8);
        assert_eq!(m.counter(Counter::RadixSorts), 8, "u32 keys take radix");
        assert!(m.counter(Counter::RadixPasses) >= 8);
        // All 8 runs merge in one k-way tree-of-losers round, with OVC on
        // or off.
        assert_eq!(m.counter(Counter::MergeRounds), 1);
        assert_eq!(m.counter(Counter::MergeTasks), 1);
        assert!(
            m.counter(Counter::MergeCmps) > 0,
            "merge loop counts compares"
        );
        assert!(
            m.counter(Counter::MergeCmpsOvcResolved) <= m.counter(Counter::MergeCmps),
            "OVC-resolved compares are a subset of all compares"
        );
        if SortOptions::default().ovc {
            // Distinct-heavy u32 keys: the vast majority of merge
            // comparisons must resolve on the code alone.
            assert!(
                m.counter(Counter::MergeCmpsOvcResolved) * 2 > m.counter(Counter::MergeCmps),
                "OVC resolved {} of {} merge compares",
                m.counter(Counter::MergeCmpsOvcResolved),
                m.counter(Counter::MergeCmps)
            );
        }
        assert!(m.counter(Counter::BytesMoved) > 0);
        assert!(m.counter(Counter::PoolMisses) > 0, "cold sort allocates");
        assert!(m.phase(Phase::RunGeneration) > 0);
        assert!(m.phase(Phase::Merge) > 0);
        // Coordinator-measured phases partition the sort: their sum can
        // never exceed the total wall time.
        let active =
            m.phase(Phase::Prepare) + m.phase(Phase::RunGeneration) + m.phase(Phase::Merge);
        assert!(active <= profile.total_ns);
        // `sort` converts back to vectors: that stage is clocked too, and
        // counted in the total.
        assert!(m.phase(Phase::Gather) > 0);
        assert_eq!(m.phase_total_ns(), active + m.phase(Phase::Gather));
        assert!(m.phase_total_ns() <= profile.total_ns);

        // The second sort's delta counts only itself; the pool is warm.
        let _again = pipeline.sort(&chunk);
        let second = pipeline.last_profile();
        assert_eq!(second.metrics.counter(Counter::SortCalls), 1);
        assert!(second.metrics.counter(Counter::PoolHits) > 0);
        // Cumulative registry saw both sorts.
        assert_eq!(pipeline.metrics().counter(Counter::SortCalls), 2);
        let text = pipeline.metrics().render();
        assert!(text.contains("counter.rows_sorted: 10000"), "{text}");
        assert!(text.contains("phase.run_generation_ns:"), "{text}");
        assert!(text.contains("phase.gather_ns:"), "{text}");

        // `sort_rows` stops before the gather, and reports what it always
        // did.
        drop(pipeline.sort_rows(&chunk));
        let rows_only = pipeline.last_profile();
        assert_eq!(rows_only.metrics.phase(Phase::Gather), 0);
        assert!(rows_only.metrics.phase(Phase::Merge) > 0);
    }

    #[test]
    fn ovc_output_bit_identical_to_plain_merge() {
        // OVC changes how merge comparisons are computed, never their
        // outcome: whole output (tie order included) must match with it
        // on and off, across thread counts and both key shapes.
        let n = 7_000;
        let keys = pseudo_random(n, 91, 300); // heavy ties
        let strings: Vec<String> = keys
            .iter()
            .map(|k| format!("shared_prefix_{:06}", k % 40))
            .collect();
        let payload: Vec<u32> = (0..n as u32).collect();
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(keys),
            Vector::from_strings(strings.iter().map(|s| s.as_str())),
            Vector::from_u32s(payload),
        ])
        .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(1), OrderByColumn::asc(0)]);
        for threads in [1, 3] {
            let base = SortOptions {
                threads,
                run_rows: 600, // 12 runs
                ovc: false,
            };
            let plain = SortPipeline::new(chunk.types(), order.clone(), base).sort(&chunk);
            let coded = SortPipeline::new(
                chunk.types(),
                order.clone(),
                SortOptions { ovc: true, ..base },
            )
            .sort(&chunk);
            assert_eq!(
                plain.to_rows(),
                coded.to_rows(),
                "threads={threads}: OVC merge diverged from plain merge"
            );
        }
    }

    #[test]
    fn strings_survive_many_run_merges() {
        // VARCHAR payload from 14 runs: each row's string comes from its
        // own run's heap — copied into the column by `sort`, reached
        // through an offset shifted by its run's base by `sort_rows`.
        let n = 4_000;
        let keys = pseudo_random(n, 14, 500);
        let strings: Vec<String> = keys.iter().map(|k| format!("val_{k:05}")).collect();
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(keys.clone()),
            Vector::from_strings(strings.iter().map(|s| s.as_str())),
        ])
        .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 2,
                run_rows: 300, // 14 runs
                ..SortOptions::default()
            },
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
        for i in 0..got.len() {
            let row = got.row(i);
            let (k, s) = match (&row[0], &row[1]) {
                (Value::UInt32(k), Value::Varchar(s)) => (*k, s.clone()),
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(s, format!("val_{k:05}"), "string detached at row {i}");
        }
        let rows = pipeline.sort_rows(&chunk).to_chunk();
        assert_eq!(rows.to_rows(), got.to_rows(), "the row twin differs");
    }
}
