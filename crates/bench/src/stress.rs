//! Differential stress harness for the hardened spill pipeline.
//!
//! Each iteration derives everything — schema, data, sort keys, memory
//! budget, and fault schedule — from one seed, runs the external sorter
//! against a fault-injecting [`FaultFs`], and checks it against an
//! in-memory oracle (the same relation also goes through the in-memory
//! [`SortPipeline`] under the iteration's options, where no fault can
//! reach it and the oracle must simply agree):
//!
//! * **Survival**: when the sort returns `Ok`, its output must be the
//!   same multiset as the input, sorted under the iteration's ORDER BY.
//!   Injected faults the sorter absorbed (retried writes, ENOSPC
//!   degradation, double deletes) must be invisible in the result.
//! * **Failure**: when the sort returns `Err`, the error must be a
//!   typed [`SpillError`](rowsort_core::SpillError) consistent with the
//!   metrics (a corrupt run file is counted as a checksum failure), and
//!   the sort must not have been recorded as completed.
//! * **Always**: no leaked run files — every live file in the fault
//!   filesystem is accounted for by the `spill_cleanup_failed` counter
//!   (a fault that made deletion itself fail).
//!
//! Violations carry the iteration seed, so any failure reproduces with
//! `stress --iters 1 --seed <seed>`.

use std::sync::Arc;
use std::time::Duration;

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::metrics::Counter;
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_core::spill::SpillError;
use rowsort_testkit::faultfs::{FaultFs, FaultSchedule};
use rowsort_testkit::json::Json;
use rowsort_testkit::rng::splitmix64;
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, LogicalType, OrderBy, OrderByColumn, Value};

/// Stress-run configuration.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Iterations to run.
    pub iters: u64,
    /// Base seed; iteration `i` runs under `mix(seed, i)`.
    pub seed: u64,
    /// The seed as the user wrote it (echoed in reports).
    pub seed_text: String,
}

/// How one iteration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The sort survived injection and matched the oracle.
    Survived,
    /// The sort failed with a typed I/O error.
    FailedIo,
    /// The sort failed with a typed corruption error.
    FailedCorrupt,
}

/// The result of one seeded iteration.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// The iteration's own seed (reproduces it alone).
    pub seed: u64,
    /// How the sort ended.
    pub outcome: Outcome,
    /// Rows in the generated relation.
    pub rows: usize,
    /// Faults from the schedule that actually fired.
    pub faults_fired: u64,
    /// Run files left behind because injected faults blocked deletion
    /// (must equal the sorter's `spill_cleanup_failed` counter).
    pub leaked_files: u64,
    /// Whether the sorter degraded to in-memory runs (ENOSPC ladder).
    pub degraded: bool,
    /// Invariant violations (empty on a clean iteration).
    pub violations: Vec<String>,
}

/// Aggregated results over a whole run.
#[derive(Debug, Clone, Default)]
pub struct StressReport {
    /// Iterations run.
    pub iters: u64,
    /// Iterations that survived and matched the oracle.
    pub survived: u64,
    /// Iterations that failed with a typed I/O error.
    pub failed_io: u64,
    /// Iterations that failed with a typed corruption error.
    pub failed_corrupt: u64,
    /// Iterations where the sorter degraded to in-memory runs.
    pub degraded: u64,
    /// Total injected faults that fired.
    pub faults_fired: u64,
    /// Total run files whose deletion an injected fault blocked.
    pub cleanup_failures: u64,
    /// Every violation, each prefixed with its iteration seed.
    pub violations: Vec<String>,
}

impl StressReport {
    /// Render as the JSON artifact CI uploads.
    pub fn to_json(&self, config: &StressConfig) -> Json {
        Json::obj(vec![
            ("seed", Json::str(config.seed_text.clone())),
            ("seed_value", Json::Num(config.seed as f64)),
            ("iters", Json::Num(self.iters as f64)),
            ("survived", Json::Num(self.survived as f64)),
            ("failed_io", Json::Num(self.failed_io as f64)),
            ("failed_corrupt", Json::Num(self.failed_corrupt as f64)),
            ("degraded", Json::Num(self.degraded as f64)),
            ("faults_fired", Json::Num(self.faults_fired as f64)),
            ("cleanup_failures", Json::Num(self.cleanup_failures as f64)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Parse a seed argument: hex (with or without `0x`), else decimal, else
/// any string at all, hashed. `0xR0WS0RT` is not valid hex — it hashes.
pub fn parse_seed(text: &str) -> u64 {
    let hex = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0X"))
        .unwrap_or(text);
    if let Ok(v) = u64::from_str_radix(hex, 16) {
        return v;
    }
    if let Ok(v) = text.parse::<u64>() {
        return v;
    }
    let mut state = 0x5EED_0F57_3E55_0001u64 ^ text.len() as u64;
    let mut out = 0;
    for b in text.bytes() {
        state = state.wrapping_add(b as u64).rotate_left(7);
        out ^= splitmix64(&mut state);
    }
    out
}

/// The seed for iteration `i` of a run seeded with `base`.
pub fn iteration_seed(base: u64, i: u64) -> u64 {
    let mut s = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

const COL_TYPES: [LogicalType; 4] = [
    LogicalType::Int32,
    LogicalType::Int64,
    LogicalType::UInt32,
    LogicalType::Varchar,
];

/// A random relation (1–4 columns, 0–4000 rows, ~5% NULLs) and a random
/// ORDER BY over a shuffled subset of its columns.
fn random_relation(rng: &mut Rng) -> (DataChunk, OrderBy) {
    let ncols = rng.range_inclusive(1usize, 4);
    let types: Vec<LogicalType> = (0..ncols).map(|_| *rng.pick(&COL_TYPES)).collect();
    let rows = rng.below(4001) as usize;
    let charset: Vec<char> = "abcdefghijklmnop-0123456789".chars().collect();
    let mut chunk = DataChunk::new(&types);
    let mut row: Vec<Value> = Vec::with_capacity(ncols);
    for _ in 0..rows {
        row.clear();
        for ty in &types {
            let v = if rng.chance(0.05) {
                Value::Null
            } else {
                match ty {
                    // Narrow domains on purpose: duplicate keys exercise
                    // tie resolution and equal-key merge paths.
                    LogicalType::Int32 => Value::Int32(rng.range_inclusive(-50i32, 50)),
                    LogicalType::Int64 => Value::Int64(rng.range_inclusive(-1_000i64, 1_000)),
                    LogicalType::UInt32 => Value::UInt32(rng.below(10_000) as u32),
                    LogicalType::Varchar => {
                        let len = rng.below(13) as usize;
                        Value::Varchar(rng.string_from(&charset, len))
                    }
                    other => unreachable!("not generated: {other:?}"),
                }
            };
            row.push(v);
        }
        chunk.push_row(&row).expect("row matches schema");
    }
    let mut cols: Vec<usize> = (0..ncols).collect();
    rng.shuffle(&mut cols);
    let nkeys = rng.range_inclusive(1usize, ncols);
    let keys = cols[..nkeys]
        .iter()
        .map(|&c| {
            if rng.chance(0.5) {
                OrderByColumn::asc(c)
            } else {
                OrderByColumn::desc(c)
            }
        })
        .collect();
    (chunk, OrderBy::new(keys))
}

/// Sort `chunk`'s rows with the oracle: materialize and stable-sort under
/// `order` — no spilling, no I/O, nothing the fault schedule can touch.
fn oracle_rows(chunk: &DataChunk, order: &OrderBy) -> Vec<Vec<Value>> {
    let mut rows = chunk.to_rows();
    rows.sort_by(|a, b| order.compare_rows(a, b));
    rows
}

/// A canonical form for multiset comparison: render and fully sort.
fn canonical(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// Whether `rows` are in `order`.
fn is_sorted(rows: &[Vec<Value>], order: &OrderBy) -> bool {
    rows.windows(2)
        .all(|w| order.compare_rows(&w[0], &w[1]) != std::cmp::Ordering::Greater)
}

/// Run one seeded iteration: generate, inject, sort, check.
pub fn run_iteration(seed: u64) -> IterationReport {
    let mut rng = Rng::seed_from_u64(seed);
    let (chunk, order) = random_relation(&mut rng);
    let rows = chunk.len();
    let budget = rng.range_inclusive(16usize, 600);
    // Half the iterations spill and merge with offset-value codes, half
    // without — the OVC column must survive fault injection exactly like
    // the rest of the record (checksum-verified, truncation → Corrupt,
    // never wrong rows).
    let ovc = rng.chance(0.5);
    // Random merge parallelism: the range-partitioned merge must behave
    // exactly like the single-threaded one under every fault schedule.
    let merge_threads = rng.range_inclusive(1usize, 4);

    // Rough sizing for fault placement: the schedule only needs its
    // offsets to land inside the file/byte ranges the sort will produce.
    let expected_files = rows / budget + 2;
    let est_row_bytes = 16 * chunk.column_count() as u64 + 16;
    let expected_bytes = (rows as u64 + 1) * est_row_bytes;
    let schedule = FaultSchedule::generate(&mut rng, expected_files, expected_bytes);

    let fs = FaultFs::new(schedule);
    let sorter = ExternalSorter::with_spill_io(
        chunk.types(),
        order.clone(),
        ExternalSortOptions {
            memory_limit_rows: budget,
            spill_dir: None,
            max_write_retries: 3,
            retry_backoff: Duration::from_micros(5),
            ovc,
            merge_threads,
        },
        Arc::new(fs.clone()),
    );

    let result = sorter.sort(&chunk);
    let metrics = sorter.metrics();
    let stats = fs.stats();
    let mut violations = Vec::new();
    let mut check = |ok: bool, msg: &str| {
        if !ok {
            violations.push(format!("seed {seed:#018x}: {msg}"));
        }
    };

    let oracle = canonical(&oracle_rows(&chunk, &order));

    // The in-memory sorter on the same relation, with the budget as its
    // run size: the seeded schema × NULL × duplicate generator reaches the
    // range-partitioned in-memory merge (and, `ovc` off, the cascade) on
    // every iteration. Its rows may not depend on the thread count.
    let in_memory = |threads: usize| {
        let options = SortOptions {
            threads,
            run_rows: budget,
            ovc,
        };
        let pipeline = SortPipeline::new(chunk.types(), order.clone(), options);
        pipeline.sort(&chunk).to_rows()
    };
    let got = in_memory(merge_threads);
    check(
        is_sorted(&got, &order),
        "in-memory output not sorted under ORDER BY",
    );
    check(
        canonical(&got) == oracle,
        "in-memory output is not the input multiset",
    );
    check(
        merge_threads == 1 || got == in_memory(1),
        &format!(
            "in-memory sort at {merge_threads} threads diverged from the \
             single-threaded row sequence"
        ),
    );

    let outcome = match &result {
        Ok(sorted) => {
            check(
                sorted.len() == rows,
                &format!("row count changed: {} in, {} out", rows, sorted.len()),
            );
            let got = sorted.to_rows();
            check(is_sorted(&got, &order), "output not sorted under ORDER BY");
            check(
                canonical(&got) == oracle,
                "output is not the input multiset",
            );
            // Bit-identity oracle: a fault-free single-threaded sort of the
            // same relation under the same budget must produce the exact
            // same row sequence — range partitioning may not reorder ties.
            // Skipped when the ENOSPC ladder degraded this sort to
            // in-memory fallback runs: fallback changes the run
            // composition, and rows that compare Equal on every ORDER BY
            // column (the comparator never reads payload columns) then
            // legitimately surface in a different relative order than the
            // fault-free reference. The multiset and sortedness checks
            // above still cover the degraded path.
            if merge_threads > 1 && metrics.counter(Counter::SpillMemFallbackRuns) == 0 {
                let single = ExternalSorter::with_spill_io(
                    chunk.types(),
                    order.clone(),
                    ExternalSortOptions {
                        memory_limit_rows: budget,
                        spill_dir: None,
                        max_write_retries: 3,
                        retry_backoff: Duration::from_micros(5),
                        ovc,
                        merge_threads: 1,
                    },
                    Arc::new(FaultFs::new(FaultSchedule::none())),
                );
                let reference = single
                    .sort(&chunk)
                    .expect("fault-free single-threaded sort cannot fail");
                check(
                    got == reference.to_rows(),
                    &format!(
                        "partitioned merge ({merge_threads} threads) diverged \
                         from the single-threaded row sequence"
                    ),
                );
            }
            check(
                rows == 0 || metrics.counter(Counter::SortCalls) == 1,
                "surviving sort not recorded in metrics",
            );
            Outcome::Survived
        }
        Err(err) => {
            check(
                !err.path().is_empty(),
                "spill error does not name the failing file",
            );
            check(
                metrics.counter(Counter::SortCalls) == 0,
                "failed sort recorded as completed",
            );
            match err {
                SpillError::Corrupt { .. } => {
                    check(
                        metrics.counter(Counter::SpillChecksumFailed) >= 1,
                        "corruption error without a checksum-failure count",
                    );
                    Outcome::FailedCorrupt
                }
                SpillError::Io { .. } => Outcome::FailedIo,
            }
        }
    };

    // The leak invariant holds on every path, success or failure: a live
    // file is legitimate only if deleting it failed (injected fault), and
    // every such failure is counted.
    let leaked = fs.live_files().len() as u64;
    let cleanup_failed = metrics.counter(Counter::SpillCleanupFailed);
    check(
        leaked == cleanup_failed,
        &format!("leaked {leaked} run files but counted {cleanup_failed} cleanup failures"),
    );

    IterationReport {
        seed,
        outcome,
        rows,
        faults_fired: stats.faults_fired(),
        leaked_files: leaked,
        degraded: metrics.counter(Counter::SpillMemFallbackRuns) > 0,
        violations,
    }
}

/// Run the full differential loop.
pub fn run(config: &StressConfig) -> StressReport {
    let mut report = StressReport {
        iters: config.iters,
        ..StressReport::default()
    };
    for i in 0..config.iters {
        // A single-iteration run takes the seed raw: violation messages
        // print the post-mix iteration seed, so `--iters 1 --seed <that>`
        // must call run_iteration with it unchanged to actually replay
        // the failing iteration (mixing it again would run a different
        // relation and schedule).
        let iter = if config.iters == 1 {
            run_iteration(config.seed)
        } else {
            run_iteration(iteration_seed(config.seed, i))
        };
        match iter.outcome {
            Outcome::Survived => report.survived += 1,
            Outcome::FailedIo => report.failed_io += 1,
            Outcome::FailedCorrupt => report.failed_corrupt += 1,
        }
        report.degraded += iter.degraded as u64;
        report.faults_fired += iter.faults_fired;
        report.cleanup_failures += iter.leaked_files;
        report.violations.extend(iter.violations);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_accepts_hex_decimal_and_arbitrary_text() {
        assert_eq!(parse_seed("0x2a"), 42);
        assert_eq!(parse_seed("2a"), 42);
        assert_eq!(parse_seed("0X2A"), 42);
        assert_eq!(parse_seed("97"), 0x97, "hex wins over decimal");
        assert_eq!(parse_seed("zz9"), parse_seed("zz9"));
        // The canonical CI seed is NOT valid hex; it hashes.
        assert_ne!(parse_seed("0xR0WS0RT"), 0);
        assert_ne!(parse_seed("0xR0WS0RT"), parse_seed("0xR0WS0RU"));
    }

    #[test]
    fn iterations_are_deterministic() {
        let seed = parse_seed("0xR0WS0RT");
        for i in 0..4 {
            let s = iteration_seed(seed, i);
            let a = run_iteration(s);
            let b = run_iteration(s);
            assert_eq!(a.outcome, b.outcome, "seed {s:#x}");
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.faults_fired, b.faults_fired);
            assert_eq!(a.leaked_files, b.leaked_files);
            assert_eq!(a.violations, b.violations);
        }
    }

    #[test]
    fn smoke_run_holds_invariants() {
        let config = StressConfig {
            iters: 12,
            seed: parse_seed("0xR0WS0RT"),
            seed_text: "0xR0WS0RT".to_owned(),
        };
        let report = run(&config);
        assert_eq!(report.iters, 12);
        assert_eq!(
            report.survived + report.failed_io + report.failed_corrupt,
            12
        );
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        // The JSON artifact round-trips through testkit's parser.
        let json = report.to_json(&config).render();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("iters").and_then(Json::as_f64), Some(12.0));
        assert_eq!(parsed.get("seed").and_then(Json::as_str), Some("0xR0WS0RT"));
    }

    #[test]
    fn a_schedule_free_iteration_always_survives() {
        // Iteration seeds whose generated schedule happens to be empty
        // must survive; scan a few seeds and require at least one clean
        // survival so the oracle path is known-exercised.
        let mut survived = 0;
        for s in 0..8u64 {
            let iter = run_iteration(iteration_seed(0xDEAD_BEEF, s));
            assert!(iter.violations.is_empty(), "{:#?}", iter.violations);
            survived += (iter.outcome == Outcome::Survived) as u64;
        }
        assert!(survived > 0, "no iteration survived out of 8");
    }
}
