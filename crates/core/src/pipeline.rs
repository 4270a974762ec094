//! The in-memory sort: the one sorter (DESIGN.md §11) with runs that stay
//! resident — [`SortedRun`]s, cut by binary search over their key columns
//! and merged from place, each row moved once, straight into the result's
//! columns.
//!
//! What this facade adds: its options, and the scratch that makes a warm
//! sort take every buffer from the pool (DESIGN.md §6) — key plan, run
//! slots, merge plan, all rebuilt in place.

use crate::metrics::{Counter, Metrics, Phase, SortProfile};
use crate::resources::SortResources;
use crate::run::{KeyPlan, SortedRun, TableStats};
use crate::sorter::{MergePlan, RunSlot, SorterCore};
use crate::spill::SpillError;
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::marker::PhantomData;
use std::sync::Mutex;

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
            ovc: true,
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
/// steady-state sort allocates only its result and the merge's fixed
/// bookkeeping (`tests/zero_alloc.rs` names each allocation).
#[derive(Default)]
struct Scratch {
    plan: KeyPlan,
    /// Run `i`'s slot, and the runs in index order.
    slots: Vec<RunSlot<SortedRun>>,
    runs: Vec<SortedRun>,
    merge: MergePlan<SortedRun>,
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

    /// Sort a materialized input relation, returning it fully sorted: plan
    /// the key, generate the runs, and merge them straight into the
    /// result's columns. [`Phase::Merge`] therefore contains the
    /// conversion back to vectors, and [`Phase::Gather`] clocks only what
    /// is left of it afterwards, the join of the key ranges' strings and
    /// validity masks. An empty input records no sort. The key is planned
    /// from statistics the sort takes of `input` afresh.
    pub fn sort(&self, input: &DataChunk) -> DataChunk {
        self.sort_with_stats(input, None)
    }

    /// [`SortPipeline::sort`], planned from `lent` when `input` is a
    /// table's rows as they lie and `lent` that table's statistics: what
    /// an earlier sort took of them is read, not taken again, and what
    /// this sort takes stays there for the next ([`TableStats`]). `None`
    /// plans from statistics taken of `input` afresh.
    pub fn sort_with_stats(&self, input: &DataChunk, lent: Option<&TableStats>) -> DataChunk {
        let core = &self.core;
        let mut guard = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let Scratch {
            plan,
            slots,
            runs,
            merge,
        } = &mut *guard;
        let Some(start) = core.begin(input, plan, lent) else {
            return DataChunk::new(&core.types);
        };
        let order = core.merge_order(plan);
        {
            let _gen = core.metrics.time_phase(Phase::RunGeneration);
            let (planned, placed) = ((&*plan, plan.table(lent)), (slots, &mut *runs));
            resident(core.generate(input, planned, core.pool(), placed, |run, _| Ok(run)));
        }
        let sorted = resident(core.merge_into_vectors(&order, runs, merge, input, Phase::Merge));
        if runs.len() > 1 {
            let m = &core.metrics;
            m.add(Counter::MergeRounds, 1);
            m.add(Counter::MergeTasks, merge.parts as u64);
            m.add(Counter::MergeMaxRangeRows, merge.max_range_rows() as u64);
        }
        for run in runs.drain(..) {
            run.recycle(core.pool());
        }
        core.publish(start, input.len(), "pipeline", order.kw);
        sorted
    }

    /// [`SortPipeline::sort`], wrapped. Kept, hidden, for the benchmark's
    /// adapter (`benchmark/src/adapter.rs`) until it calls `sort` itself
    /// (ROADMAP 1(e)); nothing else should call it.
    #[doc(hidden)]
    pub fn sort_rows(&self, input: &DataChunk) -> SortedRows<'_> {
        SortedRows {
            chunk: self.sort(input),
            pipeline: PhantomData,
        }
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
#[expect(
    clippy::expect_used,
    reason = "resident runs are placed, cut and merged without a fallible step; an error here \
              is a bug upstream, reported loudly"
)]
fn resident<T>(sorted: Result<T, SpillError>) -> T {
    sorted.expect("a sort of resident runs is infallible")
}

/// What [`SortPipeline::sort_rows`] returns: the sorted vectors, under
/// the lifetime the benchmark's adapter names. Kept, hidden, with it.
#[doc(hidden)]
pub struct SortedRows<'a> {
    chunk: DataChunk,
    pipeline: PhantomData<&'a SortPipeline>,
}

impl SortedRows<'_> {
    /// A copy of the sorted vectors.
    pub fn to_chunk(&self) -> DataChunk {
        self.chunk.clone()
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
    use rowsort_vector::{Value, Vector};

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
        // All 8 runs merge in one k-way tree-of-losers round.
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
        // Distinct-heavy u32 keys: the vast majority of merge comparisons
        // must resolve on the code alone.
        assert!(
            m.counter(Counter::MergeCmpsOvcResolved) * 2 > m.counter(Counter::MergeCmps),
            "OVC resolved {} of {} merge compares",
            m.counter(Counter::MergeCmpsOvcResolved),
            m.counter(Counter::MergeCmps)
        );
        assert!(m.counter(Counter::BytesMoved) > 0);
        assert!(m.counter(Counter::PoolMisses) > 0, "cold sort allocates");
        assert!(m.phase(Phase::RunGeneration) > 0);
        assert!(m.phase(Phase::Merge) > 0);
        // Coordinator-measured phases partition the sort: their sum can
        // never exceed the total wall time.
        let active =
            m.phase(Phase::Prepare) + m.phase(Phase::RunGeneration) + m.phase(Phase::Merge);
        assert!(active <= profile.total_ns);
        // What is left of the conversion back to vectors after the merge
        // is clocked too, and counted in the total.
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
    }
}
