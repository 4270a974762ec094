//! Zero-dependency observability for the sort pipeline (DESIGN.md §7).
//!
//! The paper's whole argument is phase-by-phase timing (Figures 2–14), so
//! the pipeline reports where time and bytes go the same way: a lock-free
//! [`CounterRegistry`] of atomic counters and phase clocks lives inside
//! each [`SortPipeline`](crate::pipeline::SortPipeline) /
//! [`ExternalSorter`](crate::external::ExternalSorter), and every sort
//! leaves behind a [`SortProfile`] — the delta of two [`Metrics`]
//! snapshots plus the sort's wall time.
//!
//! Four surfaces consume it:
//!
//! 1. `EXPLAIN ANALYZE` in the engine annotates its operator tree with
//!    per-operator timings, row counts, and the sort-phase breakdown;
//! 2. `ROWSORT_TRACE=1` emits one JSON line per sort (via
//!    `testkit::json`, no serde) to stderr, or appended to
//!    `ROWSORT_TRACE_FILE`;
//! 3. [`Metrics::render`] is a plain-text dump for tests;
//! 4. `bench_gate` compares the last profile's deterministic counters
//!    with the checked-in `BENCH_counters.json` for exact equality.
//!
//! The subsystem obeys the zero-alloc steady-state invariant: the
//! registry is a fixed block of atomics preallocated at pipeline
//! construction, [`PhaseTimer`] is a stack-only scope guard, and
//! [`Metrics`]/[`SortProfile`] are `Copy` arrays. Only trace *emission*
//! allocates, and only when `ROWSORT_TRACE` is set (the `zero_alloc`
//! test runs without it and pins a warm sort's allocations — its result's
//! buffers and the merge's bookkeeping — with metrics recording live).

use std::fs::OpenOptions;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use rowsort_testkit::json::Json;

/// Declare a metrics enum whose variants index the registry, each with the
/// snake_case name trace JSON and text dumps use: the enum, its `COUNT`,
/// `ALL` in declaration order (= registry index order) and `name`, from one
/// list, so that adding or renaming a variant is one edit.
macro_rules! metric_enum {
    ($(#[$meta:meta])* pub enum $ty:ident { $($(#[$doc:meta])* $variant:ident => $name:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$doc])* $variant,)*
        }

        impl $ty {
            /// Number of variants (array dimension of the registry).
            pub const COUNT: usize = [$($name),*].len();

            /// All variants, in declaration order (= registry index order).
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$variant),*];

            /// The snake_case name used in trace JSON and text dumps.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

metric_enum! {
    /// Wall-clock phases of a sort, measured on the coordinating thread.
    /// Pipeline sorts use the first four (they partition `sort` almost
    /// exactly, so their sum ≈ total sort time); external sorts use
    /// `Prepare`, `Gather` and the last two the same way. Both sorters
    /// gather into vectors inside their merge phase, on every merge worker;
    /// `Gather` is what remains after it.
    pub enum Phase {
        /// Column statistics + key-layout preparation before run generation.
        Prepare => "prepare",
        /// Morsel-parallel run generation (stage, encode keys, local sort,
        /// payload reorder).
        RunGeneration => "run_generation",
        /// Merging the runs in one range-partitioned k-way pass, codes or no
        /// codes, straight into the output columns — Figure 11's NSM → DSM
        /// stage included.
        Merge => "merge",
        /// Joining the key ranges' pieces of the output columns after a merge
        /// into vectors: one byte copy per range and VARCHAR column, one
        /// splice per validity mask, single-threaded.
        Gather => "gather",
        /// External sort: building and writing spilled runs, whole runs
        /// claimed by the worker pool; what the workers were busy with is
        /// [`Counter::SpillGenerateNs`] and [`Counter::SpillWriteNs`].
        Spill => "spill",
        /// External sort: the streaming loser-tree merge of spilled runs.
        SpillMerge => "spill_merge",
    }
}

metric_enum! {
    /// Monotonic event counters recorded across all layers of a sort.
    pub enum Counter {
        /// Completed `SortPipeline::sort` / `ExternalSorter::sort` calls.
        SortCalls => "sort_calls",
        /// Input rows across all sort calls.
        RowsSorted => "rows_sorted",
        /// Bytes staged, encoded, reordered, or merged (row + key areas).
        BytesMoved => "bytes_moved",
        /// Buffer-pool requests served from a free list.
        PoolHits => "pool_hits",
        /// Buffer-pool requests that fell through to allocation.
        PoolMisses => "pool_misses",
        /// Thread-local run sorts the radix sort over the key bytes decided
        /// alone: no key-equal range needed the comparator.
        RadixSorts => "radix_sorts",
        /// Scatter passes performed by the radix sort of every run, whichever
        /// of [`Counter::RadixSorts`] and [`Counter::PdqSorts`] counted it.
        RadixPasses => "radix_passes",
        /// Thread-local run sorts in which at least one key-equal range went
        /// to pdqsort with the full-tuple comparator (a truncated VARCHAR
        /// prefix; [`Counter::RunTieRanges`] and [`Counter::RunTieRows`] say
        /// how much of the run).
        PdqSorts => "pdq_sorts",
        /// Sorted runs produced by run generation.
        RunsGenerated => "runs_generated",
        /// Passes the in-memory merge phase made over the rows: one per
        /// pipeline sort of two or more runs, with offset-value codes or
        /// without.
        MergeRounds => "merge_rounds",
        /// Tasks that pass was cut into: its key ranges
        /// ([`Counter::MergeMaxRangeRows`] is the largest). Both this and
        /// [`Counter::MergeRounds`] are read by name (`merge_rounds`,
        /// `merge_tasks`) by rowbench's replay ledger
        /// (`benchmark/src/replay.rs`), so they stay while it does.
        MergeTasks => "merge_tasks",
        /// Parallel-phase broadcasts through the worker pool.
        Broadcasts => "broadcasts",
        /// Wall time of those broadcasts (entry to last-worker completion).
        BroadcastNs => "broadcast_ns",
        /// Runs spilled by the external sorter.
        SpilledRuns => "spilled_runs",
        /// Bytes written into spill files.
        SpilledBytes => "spilled_bytes",
        /// Transient spill-write failures absorbed by retry-with-backoff.
        SpillRetries => "spill_retries",
        /// Spill-file deletions that failed (each one is a leaked temp file).
        SpillCleanupFailed => "spill_cleanup_failed",
        /// Runs kept in memory because spill space was exhausted.
        SpillMemFallbackRuns => "spill_mem_fallback_runs",
        /// Run files rejected by read-back verification (checksum mismatch,
        /// truncation, or a structurally impossible record).
        SpillChecksumFailed => "spill_checksum_failed",
        /// Key comparisons performed by the loser-tree merges (range planning
        /// excluded).
        MergeCmps => "merge_cmps",
        /// Of those, comparisons resolved by the offset-value code alone —
        /// a single `u64` compare, no key bytes read (DESIGN.md §10).
        MergeCmpsOvcResolved => "merge_cmps_ovc_resolved",
        /// Key bytes actually read by merge comparisons: full key width per
        /// `memcmp`-style compare without OVC, only the post-tie suffix scan
        /// with OVC.
        MergeKeyBytesTouched => "merge_key_bytes_touched",
        /// Key ranges the partitioned spill merge cut the run files into
        /// (1 per sort when the merge ran single-threaded).
        SpillMergePartitions => "spill_merge_partitions",
        /// Records the spill merge's cursors (cut walks included) decoded in
        /// place from a block already read and verified — no backend I/O
        /// call, no copy. Its JSON key, `spill_readahead_hits`, is from when a
        /// read-ahead wrapper counted buffered reads; the benchmark reads the
        /// key by name, so it is renamed with it (ROADMAP 1(e)).
        SpillRecordsDecoded => "spill_readahead_hits",
        /// Run-file bytes skipped (seeked over) to position cursors at the
        /// block their range or cut walk starts in — the I/O cost of the
        /// range boundaries.
        SpillSkippedBytes => "spill_skipped_bytes",
        /// Rows in the largest key range of a range-partitioned k-way merge,
        /// in memory or spilled (one range: all of them). Added once per
        /// pass, and a sort makes one pass, so a sort's profile reads it as
        /// that sort's largest range: `rows / ranges` when the splitters cut
        /// evenly, up to `rows` when one key value holds most of them.
        MergeMaxRangeRows => "merge_max_range_rows",
        /// Run bytes the spill merge fetched: every block a range cursor or
        /// a cut walk read. Over [`Counter::SpilledBytes`] it is how many
        /// times the merge read what the sort wrote — 1.0 at one merge
        /// thread, a block or two per run and splitter more above that.
        SpillReadBytes => "spill_read_bytes",
        /// Key-equal ranges (two rows or more whose normalized keys are
        /// byte-equal under a truncated VARCHAR prefix) that run generation
        /// sorted with the full-tuple comparator.
        RunTieRanges => "run_tie_ranges",
        /// Rows inside those ranges: over [`Counter::RowsSorted`], the share
        /// of the input the key prefix failed to order.
        RunTieRows => "run_tie_rows",
        /// Time the external sort's spill workers (the least of
        /// `merge_threads`, `SPILL_WORKERS` and the runs there were to
        /// claim) spent building sorted runs (`make_run`), summed over
        /// them — busy time, where [`Phase::Spill`] is the coordinating
        /// thread's wall time.
        SpillGenerateNs => "spill_generate_ns",
        /// Time they spent encoding runs and writing them out (`spill_run`,
        /// retries and their backoff included), summed the same way.
        SpillWriteNs => "spill_write_ns",
    }
}

/// Log₂ buckets of the per-call row-count histogram: bucket *i* counts
/// sort calls with `bit_length(rows) == i` (bucket 0 is empty inputs),
/// clamped into the last bucket beyond 2³⁸ rows.
pub const HIST_BUCKETS: usize = 40;

/// A fixed, lock-free block of atomic counters, phase clocks, and
/// histogram buckets. One registry lives inside each pipeline/sorter;
/// recording is a relaxed atomic add — no locks, no allocation, safe
/// from any worker thread.
pub struct CounterRegistry {
    phase_ns: [AtomicU64; Phase::COUNT],
    counters: [AtomicU64; Counter::COUNT],
    rows_hist: [AtomicU64; HIST_BUCKETS],
}

impl CounterRegistry {
    /// A zeroed registry. All storage is inline; nothing grows later.
    pub const fn new() -> CounterRegistry {
        CounterRegistry {
            phase_ns: [const { AtomicU64::new(0) }; Phase::COUNT],
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            rows_hist: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Add `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Add elapsed nanoseconds to a phase clock.
    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one completed sort call over `rows` input rows: bumps
    /// [`Counter::SortCalls`], [`Counter::RowsSorted`], and the row-count
    /// histogram bucket.
    pub fn record_sort(&self, rows: u64) {
        self.add(Counter::SortCalls, 1);
        self.add(Counter::RowsSorted, rows);
        let bucket = (u64::BITS - rows.leading_zeros()) as usize;
        self.rows_hist[bucket.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// A scope guard that clocks the enclosed region into `phase` when it
    /// drops. Stack-only: safe inside the zero-alloc steady state.
    pub fn time_phase(&self, phase: Phase) -> PhaseTimer<'_> {
        PhaseTimer {
            registry: self,
            phase,
            start: Instant::now(),
        }
    }

    /// A point-in-time copy of every counter. Two snapshots subtract into
    /// a per-sort delta (see [`Metrics::since`]).
    pub fn snapshot(&self) -> Metrics {
        let mut m = Metrics::zeroed();
        for (out, src) in m.phase_ns.iter_mut().zip(self.phase_ns.iter()) {
            *out = src.load(Ordering::Relaxed);
        }
        for (out, src) in m.counters.iter_mut().zip(self.counters.iter()) {
            *out = src.load(Ordering::Relaxed);
        }
        for (out, src) in m.rows_hist.iter_mut().zip(self.rows_hist.iter()) {
            *out = src.load(Ordering::Relaxed);
        }
        m
    }
}

impl Default for CounterRegistry {
    fn default() -> Self {
        CounterRegistry::new()
    }
}

/// Times a region into a phase clock on drop. Created by
/// [`CounterRegistry::time_phase`].
pub struct PhaseTimer<'a> {
    registry: &'a CounterRegistry,
    phase: Phase,
    start: Instant,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.registry.add_phase_ns(self.phase, ns);
    }
}

/// A `Copy` snapshot of a [`CounterRegistry`] — fixed arrays, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Nanoseconds per phase, indexed by [`Phase`] discriminant.
    pub phase_ns: [u64; Phase::COUNT],
    /// Counter values, indexed by [`Counter`] discriminant.
    pub counters: [u64; Counter::COUNT],
    /// Row-count histogram (see [`HIST_BUCKETS`]).
    pub rows_hist: [u64; HIST_BUCKETS],
}

impl Metrics {
    /// An all-zero snapshot.
    pub const fn zeroed() -> Metrics {
        Metrics {
            phase_ns: [0; Phase::COUNT],
            counters: [0; Counter::COUNT],
            rows_hist: [0; HIST_BUCKETS],
        }
    }

    /// Nanoseconds recorded for `phase`.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Sum of all phase clocks.
    pub fn phase_total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Element-wise `self - earlier` (saturating): the activity between
    /// two snapshots of the same registry.
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        let mut d = *self;
        for (out, prev) in d.phase_ns.iter_mut().zip(earlier.phase_ns.iter()) {
            *out = out.saturating_sub(*prev);
        }
        for (out, prev) in d.counters.iter_mut().zip(earlier.counters.iter()) {
            *out = out.saturating_sub(*prev);
        }
        for (out, prev) in d.rows_hist.iter_mut().zip(earlier.rows_hist.iter()) {
            *out = out.saturating_sub(*prev);
        }
        d
    }

    /// Plain-text dump, one `name: value` line per non-zero phase,
    /// counter, and histogram bucket (zero lines are skipped so tests and
    /// humans see only what happened).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for phase in Phase::ALL {
            let ns = self.phase(phase);
            if ns > 0 {
                out.push_str(&format!("phase.{}_ns: {}\n", phase.name(), ns));
            }
        }
        for counter in Counter::ALL {
            let v = self.counter(counter);
            if v > 0 {
                out.push_str(&format!("counter.{}: {}\n", counter.name(), v));
            }
        }
        for (bucket, &count) in self.rows_hist.iter().enumerate() {
            if count > 0 {
                let lo: u64 = if bucket == 0 { 0 } else { 1 << (bucket - 1) };
                out.push_str(&format!("hist.rows[>={lo}]: {count}\n"));
            }
        }
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::zeroed()
    }
}

/// Everything one sort left behind: wall time, input rows, and the
/// [`Metrics`] delta it produced. Stored pre-allocated inside the
/// pipeline and overwritten per sort (`Copy`, no heap).
#[derive(Debug, Clone, Copy)]
pub struct SortProfile {
    /// Which operator produced this profile: `"pipeline"` or
    /// `"external"`.
    pub operator: &'static str,
    /// Input rows of this sort call.
    pub rows: u64,
    /// Wall time of the whole call, nanoseconds.
    pub total_ns: u64,
    /// Bytes per normalized key in the layout this sort planned.
    pub key_width: u32,
    /// The longest VARCHAR prefix in that key, as sized from the input's
    /// strings (12 is the paper's rule); 0 without a VARCHAR key column.
    pub varchar_prefix: u32,
    /// Counter/phase deltas recorded during the call.
    pub metrics: Metrics,
}

impl SortProfile {
    /// An empty profile (no sort recorded yet).
    pub const fn zeroed() -> SortProfile {
        SortProfile {
            operator: "none",
            rows: 0,
            total_ns: 0,
            key_width: 0,
            varchar_prefix: 0,
            metrics: Metrics::zeroed(),
        }
    }

    /// The trace-schema JSON object for this profile: `event`,
    /// `operator`, `rows`, `total_ns`, `key_width`, `varchar_prefix`, plus
    /// nested `phases` and `counters` objects (every field numeric; see
    /// DESIGN.md §7.5 for the schema contract `trace_smoke` validates in
    /// CI).
    pub fn to_json(&self) -> Json {
        let phases: Vec<(String, Json)> = Phase::ALL
            .iter()
            .map(|&p| (p.name().to_owned(), Json::Num(self.metrics.phase(p) as f64)))
            .collect();
        let counters: Vec<(String, Json)> = Counter::ALL
            .iter()
            .map(|&c| {
                (
                    c.name().to_owned(),
                    Json::Num(self.metrics.counter(c) as f64),
                )
            })
            .collect();
        Json::obj(vec![
            ("event", Json::str("sort")),
            ("operator", Json::str(self.operator)),
            ("rows", Json::Num(self.rows as f64)),
            ("total_ns", Json::Num(self.total_ns as f64)),
            ("key_width", Json::Num(f64::from(self.key_width))),
            ("varchar_prefix", Json::Num(f64::from(self.varchar_prefix))),
            ("phases", Json::Obj(phases)),
            ("counters", Json::Obj(counters)),
        ])
    }

    /// One-line human summary (used by `EXPLAIN ANALYZE` annotations).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: rows={} total={:.3}ms",
            self.operator,
            self.rows,
            self.total_ns as f64 / 1e6
        );
        for phase in Phase::ALL {
            let ns = self.metrics.phase(phase);
            if ns > 0 {
                out.push_str(&format!(" {}={:.3}ms", phase.name(), ns as f64 / 1e6));
            }
        }
        out
    }
}

impl Default for SortProfile {
    fn default() -> Self {
        SortProfile::zeroed()
    }
}

/// Whether `ROWSORT_TRACE` asked for per-sort JSON trace lines, under
/// the shared [`rowsort_testkit::env`] flag convention (off by default).
/// Read once per process (first call allocates for the env lookup;
/// warm-up sorts absorb that before any zero-alloc measurement).
pub fn trace_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| rowsort_testkit::env::env_flag("ROWSORT_TRACE", false))
}

/// Emit one trace line for a finished sort, if tracing is on: appended
/// to `ROWSORT_TRACE_FILE` when set (created on first write), else
/// printed to stderr. Failures to write are ignored — tracing must
/// never fail a sort.
pub fn emit_trace(profile: &SortProfile) {
    if !trace_enabled() {
        return;
    }
    let line = profile.to_json().render();
    match std::env::var("ROWSORT_TRACE_FILE") {
        Ok(path) if !path.is_empty() => {
            if let Ok(mut file) = OpenOptions::new().create(true).append(true).open(&path) {
                let _ = writeln!(file, "{line}");
            }
        }
        _ => eprintln!("{line}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_phases_accumulate() {
        let reg = CounterRegistry::new();
        reg.add(Counter::RowsSorted, 10);
        reg.add(Counter::RowsSorted, 5);
        reg.add_phase_ns(Phase::Merge, 100);
        let m = reg.snapshot();
        assert_eq!(m.counter(Counter::RowsSorted), 15);
        assert_eq!(m.phase(Phase::Merge), 100);
        assert_eq!(m.phase(Phase::Prepare), 0);
    }

    #[test]
    fn snapshot_delta_isolates_a_region() {
        let reg = CounterRegistry::new();
        reg.add(Counter::SortCalls, 3);
        let before = reg.snapshot();
        reg.add(Counter::SortCalls, 2);
        reg.add_phase_ns(Phase::RunGeneration, 42);
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.counter(Counter::SortCalls), 2);
        assert_eq!(delta.phase(Phase::RunGeneration), 42);
    }

    #[test]
    fn phase_timer_records_on_drop() {
        let reg = CounterRegistry::new();
        {
            let _t = reg.time_phase(Phase::Prepare);
            std::hint::black_box(0u64);
        }
        // Elapsed time is platform-dependent but the clock must have
        // been touched (Instant is monotonic; >= 0 is all we can pin —
        // assert the timer ran by timing a real spin below).
        let spin_start = Instant::now();
        {
            let _t = reg.time_phase(Phase::Merge);
            while spin_start.elapsed().as_nanos() < 1000 {}
        }
        assert!(reg.snapshot().phase(Phase::Merge) >= 1000);
    }

    #[test]
    fn record_sort_buckets_by_log2() {
        let reg = CounterRegistry::new();
        reg.record_sort(0); // bucket 0
        reg.record_sort(1); // bucket 1
        reg.record_sort(1000); // bucket 10 (2^9 <= 1000 < 2^10)
        let m = reg.snapshot();
        assert_eq!(m.counter(Counter::SortCalls), 3);
        assert_eq!(m.counter(Counter::RowsSorted), 1001);
        assert_eq!(m.rows_hist[0], 1);
        assert_eq!(m.rows_hist[1], 1);
        assert_eq!(m.rows_hist[10], 1);
    }

    #[test]
    fn render_lists_only_nonzero_lines() {
        let reg = CounterRegistry::new();
        reg.add(Counter::PoolHits, 7);
        reg.add_phase_ns(Phase::Spill, 9);
        let text = reg.snapshot().render();
        assert!(text.contains("counter.pool_hits: 7"));
        assert!(text.contains("phase.spill_ns: 9"));
        assert!(!text.contains("pool_misses"));
    }

    #[test]
    fn profile_json_matches_trace_schema() {
        let reg = CounterRegistry::new();
        reg.add_phase_ns(Phase::RunGeneration, 60);
        reg.add_phase_ns(Phase::Merge, 40);
        reg.record_sort(128);
        let profile = SortProfile {
            operator: "pipeline",
            rows: 128,
            total_ns: 110,
            key_width: 36,
            varchar_prefix: 20,
            metrics: reg.snapshot(),
        };
        let parsed = Json::parse(&profile.to_json().render()).unwrap();
        assert_eq!(parsed.get("event").unwrap().as_str(), Some("sort"));
        assert_eq!(parsed.get("operator").unwrap().as_str(), Some("pipeline"));
        assert_eq!(parsed.get("rows").unwrap().as_f64(), Some(128.0));
        assert_eq!(parsed.get("total_ns").unwrap().as_f64(), Some(110.0));
        assert_eq!(parsed.get("key_width").unwrap().as_f64(), Some(36.0));
        assert_eq!(parsed.get("varchar_prefix").unwrap().as_f64(), Some(20.0));
        let phases = parsed.get("phases").unwrap();
        for phase in Phase::ALL {
            assert!(
                phases.get(phase.name()).and_then(Json::as_f64).is_some(),
                "missing phase {}",
                phase.name()
            );
        }
        let counters = parsed.get("counters").unwrap();
        for counter in Counter::ALL {
            assert!(
                counters
                    .get(counter.name())
                    .and_then(Json::as_f64)
                    .is_some(),
                "missing counter {}",
                counter.name()
            );
        }
        let phase_sum: f64 = Phase::ALL
            .iter()
            .map(|p| phases.get(p.name()).unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(phase_sum, 100.0);
    }

    #[test]
    fn profile_render_is_one_line() {
        let profile = SortProfile {
            operator: "external",
            rows: 5,
            total_ns: 2_000_000,
            ..SortProfile::zeroed()
        };
        let line = profile.render();
        assert!(line.starts_with("external: rows=5"));
        assert!(!line.contains('\n'));
    }
}
