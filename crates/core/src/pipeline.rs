//! The in-memory sort: the one sorter (DESIGN.md §11) with runs that stay
//! resident — [`SortedRun`]s, cut by binary search over their key columns
//! and merged from place, each row moved once, straight into the result's
//! columns.
//!
//! What this facade adds: its options, the scratch that makes a warm sort
//! allocation-free (DESIGN.md §6) — key plan, run slots, merge plan, all
//! rebuilt in place — and [`SortPipeline::sort_rows`], the row output kept
//! beside the vectors for callers that want rows and as the twin the
//! vectors are checked against.

use crate::merge::{ConcatSink, MergeOrder};
use crate::metrics::{Counter, Metrics, Phase, SortProfile};
use crate::resources::SortResources;
use crate::run::{KeyPlan, SortedRun};
use crate::sorter::{MergePlan, RunSlot, SorterCore};
use crate::spill::SpillError;
use rowsort_row::{heap_base, RowBlock};
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::sync::{Arc, Mutex};

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

/// Rows per run when [`SortOptions`] does not pin it.
pub(crate) const DEFAULT_RUN_ROWS: usize = 1 << 17;

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
            run_rows: DEFAULT_RUN_ROWS,
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

/// Reusable per-sort working state, retained inside the pipeline so a
/// steady-state sort allocates nothing.
#[derive(Default)]
struct Scratch {
    plan: KeyPlan,
    /// Run `i`'s slot, and the runs in index order.
    slots: Vec<RunSlot<SortedRun>>,
    runs: Vec<SortedRun>,
    merge: MergePlan<SortedRun>,
    /// Every run's base in a merged row run's heap ([`ConcatSink`]).
    heap_bases: Vec<u32>,
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
    core: SorterCore,
    /// Concurrent `sort` calls on one pipeline serialize on this lock
    /// (each call uses the whole scratch).
    scratch: Mutex<Scratch>,
}

impl SortPipeline {
    /// Plan a sort of a relation with columns `types` by `order`, on a
    /// buffer pool and a worker crew of its own. `threads == 0` or
    /// `run_rows == 0` are clamped to 1.
    pub fn new(types: Vec<LogicalType>, order: OrderBy, options: SortOptions) -> SortPipeline {
        let set = SortResources::new(options.threads);
        SortPipeline::with_resources(types, order, options, &set)
    }

    /// As [`SortPipeline::new`], drawing buffers from `set`'s pool and
    /// running phases on `set`'s crew, whose thread count replaces
    /// `options.threads` (DESIGN.md §6).
    pub fn with_resources(
        types: Vec<LogicalType>,
        order: OrderBy,
        options: SortOptions,
        set: &SortResources,
    ) -> SortPipeline {
        let SortOptions { run_rows, ovc, .. } = options;
        SortPipeline {
            core: SorterCore::new(types, order, run_rows, ovc, set.clone()),
            scratch: Mutex::new(Scratch::default()),
        }
    }

    /// Sort a materialized input relation, returning it fully sorted: the
    /// merge's winners are gathered straight into the result's columns.
    /// [`Phase::Merge`] therefore contains the conversion back to vectors,
    /// and [`Phase::Gather`] clocks only what is left of it afterwards, the
    /// join of the key ranges' strings and validity masks.
    pub fn sort(&self, input: &DataChunk) -> DataChunk {
        let sorted = self.sort_with(input, "vectors", |scratch, order| {
            let Scratch { runs, merge, .. } = scratch;
            let core = &self.core;
            core.merge_into_vectors(order, runs, merge, input, Phase::Merge)
        });
        sorted.unwrap_or_else(|| DataChunk::new(&self.core.types))
    }

    /// Sort `input`, returning the merged run in row form. Dropping the
    /// result returns its buffers to the pipeline's pool; in steady state
    /// (after a warm-up sort of similar shape) this call performs zero
    /// heap allocations.
    pub fn sort_rows(&self, input: &DataChunk) -> SortedRows<'_> {
        let run = self.sort_with(input, "rows", |scratch, order| {
            let _merge = self.core.metrics.time_phase(Phase::Merge);
            match scratch.runs.len() {
                0 | 1 => Ok(scratch.runs.pop()),
                _ => self.merge_rows(scratch, order).map(Some),
            }
        });
        SortedRows {
            pipeline: self,
            run: run.flatten(),
        }
    }

    /// The sort up to its merge, which `merge` supplies: plan the key,
    /// generate the runs, merge them through `merge` — into the `sink` it
    /// names — recycle them, and publish the sort's profile and trace
    /// line. `None` for an empty input, which records nothing.
    fn sort_with<T>(
        &self,
        input: &DataChunk,
        sink: &'static str,
        merge: impl FnOnce(&mut Scratch, &MergeOrder<'_>) -> Result<T, SpillError>,
    ) -> Option<T> {
        let mut guard = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let scratch = &mut *guard;
        let start = self.core.begin(input, &mut scratch.plan)?;
        let order = self.core.merge_order(&scratch.plan);
        {
            let _gen = self.core.metrics.time_phase(Phase::RunGeneration);
            let runs = (&mut scratch.slots, &mut scratch.runs);
            let pool = self.core.pool();
            resident(
                self.core
                    .generate(input, &scratch.plan, pool, runs, |run, _| Ok(run)),
            );
        }
        let run_count = scratch.runs.len();
        let sorted = resident(merge(scratch, &order));
        if run_count > 1 {
            let m = &self.core.metrics;
            m.add(Counter::MergeRounds, 1);
            m.add(Counter::MergeTasks, scratch.merge.parts as u64);
            m.add(
                Counter::MergeMaxRangeRows,
                scratch.merge.max_range_rows() as u64,
            );
        }
        for run in scratch.runs.drain(..) {
            run.recycle(self.core.pool());
        }
        self.core
            .publish(start, input.len(), ("pipeline", sink), order.kw);
        Some(sorted)
    }

    /// Merge two or more runs into one row run: one pass of the sorter's
    /// range merges, each range claiming its slice of the one pre-sized
    /// row area through a [`ConcatSink`]. Each row moves once, and no key
    /// column is written: nothing reads the merged run's keys. The output
    /// heap is the run heaps concatenated in run order.
    fn merge_rows(
        &self,
        scratch: &mut Scratch,
        order: &MergeOrder<'_>,
    ) -> Result<SortedRun, SpillError> {
        let Scratch {
            runs,
            merge,
            heap_bases,
            ..
        } = scratch;
        self.core.plan_ranges(order.kw, runs, merge)?;
        let (pool, layout) = (self.core.pool(), &self.core.layout);
        let width = layout.width();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        // Rows from run `w` get their heap offsets shifted by that run's
        // base in the output heap. A shifted offset is below the total, so
        // the total is what must fit a slot.
        let heap_bytes: usize = runs.iter().map(|r| r.payload.heap().len()).sum();
        heap_base(heap_bytes);
        let mut heap = pool.get_bytes(heap_bytes);
        heap_bases.clear();
        heap_bases.reserve(runs.len());
        for run in runs.iter() {
            heap_bases.push(heap_base(heap.len()));
            heap.extend_from_slice(run.payload.heap());
        }
        let mut data = pool.get_bytes(total * width);
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
                    layout,
                    varlen_cols: &self.core.varlen_cols,
                })
            };
            self.core
                .merge_ranges(order, runs, merge, claim, |_, _| ())?;
        }
        // A row's one move writes `width` bytes.
        self.core
            .metrics
            .add(Counter::BytesMoved, (total * width) as u64);
        Ok(SortedRun {
            keys: Vec::new(),
            key_width: order.kw,
            ovc: Vec::new(),
            payload: RowBlock::from_raw_parts(Arc::clone(layout), data, heap),
        })
    }

    /// Buffer-pool `(hits, misses)` counters — a steady-state sort serves
    /// every buffer from the pool (hits grow, misses do not). A shared
    /// pool counts every sorter's requests; a sort's own are in its
    /// profile.
    pub fn pool_stats(&self) -> (usize, usize) {
        let pool = &self.core.set.pool;
        (pool.hits(), pool.misses())
    }

    /// The profile of the most recent completed sort (zeroed before the
    /// first one). A `Copy` snapshot — reading it allocates nothing.
    pub fn last_profile(&self) -> SortProfile {
        self.core.last_profile()
    }

    /// Cumulative [`Metrics`] across every sort this pipeline has run.
    pub fn metrics(&self) -> Metrics {
        self.core.metrics.snapshot()
    }
}

/// The value of a sort over resident runs, which cannot fail: their
/// sources never fail to advance, their rows' strings lie in their own
/// heaps, and every sink holds exactly its range's rows.
fn resident<T>(sorted: Result<T, SpillError>) -> T {
    // lint:allow(R010): resident runs are placed, cut and merged without
    // a fallible step; an error here is a bug upstream, reported loudly.
    sorted.expect("a sort of resident runs is infallible")
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
            None => DataChunk::new(&self.pipeline.core.types),
        }
    }
}

impl Drop for SortedRows<'_> {
    fn drop(&mut self) {
        if let Some(run) = self.run.take() {
            run.recycle(self.pipeline.core.pool());
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
    fn sorters_sharing_a_set_count_their_own_traffic() {
        use crate::metrics::Counter;
        let ints = DataChunk::from_columns(vec![
            Vector::from_u32s(pseudo_random(6_000, 61, 1 << 20)),
            Vector::from_u32s((0..6_000).collect()),
        ])
        .unwrap();
        let names: Vec<String> = pseudo_random(4_000, 62, 900)
            .iter()
            .map(|k| format!("name_{k:04}"))
            .collect();
        let strings = DataChunk::from_columns(vec![Vector::from_strings(&names)]).unwrap();
        let inputs = [&ints, &strings];
        let options = |threads| SortOptions {
            threads,
            run_rows: 700,
            ovc: true,
        };
        let on = |set: &SortResources, chunk: &DataChunk| {
            let order = OrderBy::ascending(1);
            SortPipeline::with_resources(chunk.types(), order, options(set.threads()), set)
        };
        let counts = |p: &SortPipeline| {
            let m = p.last_profile().metrics;
            let c = |c| m.counter(c);
            [c(Counter::Broadcasts), c(Counter::PoolMisses)]
        };

        // Two threads: each sort's broadcasts are its own, as on a set of
        // its own.
        let alone = inputs.map(|chunk| {
            let p = SortPipeline::new(chunk.types(), OrderBy::ascending(1), options(2));
            p.sort(chunk);
            counts(&p)[0]
        });
        assert!(alone.iter().all(|&b| b > 0), "{alone:?}");
        let set = SortResources::new(2);
        let shared = inputs.map(|chunk| on(&set, chunk));
        for _ in 0..2 {
            for (i, (p, chunk)) in shared.iter().zip(inputs).enumerate() {
                assert_eq!(p.sort(chunk).to_rows().len(), chunk.len());
                assert_eq!(counts(p)[0], alone[i], "input {i}");
            }
        }

        // One thread, so buffers return in one order: each sorter's first
        // sort misses, its second of the shape takes every buffer from the
        // pool — the other sorter's traffic in between counts elsewhere.
        let set = SortResources::new(1);
        let shared = inputs.map(|chunk| on(&set, chunk));
        for round in 0..2 {
            for (i, (p, chunk)) in shared.iter().zip(inputs).enumerate() {
                p.sort(chunk);
                let misses = counts(p)[1];
                assert_eq!(
                    misses == 0,
                    round == 1,
                    "input {i}, round {round}: {misses}"
                );
            }
        }
        let (hits, misses) = shared[0].pool_stats();
        assert_eq!(shared[1].pool_stats(), (hits, misses), "one pool");
        let profiles = shared.iter().map(|p| p.metrics());
        let counted: u64 = profiles.map(|m| m.counter(Counter::PoolMisses)).sum();
        assert_eq!(counted, misses as u64, "every miss counted once");
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
