//! Physical operators.
//!
//! Operators exchange one whole relation each, not a stream of chunks:
//! every node consumes its input's complete result and returns its own as
//! a `Relation`, a `Cow<DataChunk>`. A `Scan` *lends* the catalog's table
//! and copies nothing. A node that only reads its input (sort, filter,
//! count, join) reads it by reference, whoever owns it. A node that
//! builds rows returns them *owned*, and the next node may take them
//! apart: project moves columns out, the window operator pushes its number
//! column on. So between SQL text and the sorter a sorted query makes the
//! two relation-sized moves of the paper's Figure 11 — vectors → rows
//! inside the sort, rows → vectors out of it — and no others (the ledger
//! is in DESIGN.md §7.6). Only a plan whose root is still borrowed
//! (`SELECT * FROM t`) clones, once, because the caller gets an owned
//! relation.
//!
//! The sort operator delegates to a configurable [`SystemProfile`], so the
//! same query can be executed "as DuckDB", "as ClickHouse", etc. — the
//! §VII experiments in one engine.

use crate::catalog::Catalog;
use crate::plan::{LogicalPlan, ResolvedPredicate};
use crate::sql::CmpOp;
use crate::{EngineError, Result};
use rowsort_core::external::{ExternalSortOptions, ExternalSorter, SPILL_WORKERS};
use rowsort_core::metrics::{Counter, Phase, RUN_STAGES};
use rowsort_core::spill::StdFs;
use rowsort_core::systems::{sort_with_system_profiled, SystemProfile};
use rowsort_core::{SortProfile, SortResources};
use rowsort_vector::{DataChunk, OrderBy, Vector};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Which system's sort-operator configuration to use.
    pub profile: SystemProfile,
    /// Worker threads available to parallel operators. Defaults to
    /// [`rowsort_core::default_threads`]: the `ROWSORT_THREADS` environment
    /// variable if set, otherwise the machine's available parallelism.
    pub threads: usize,
    /// When set, pipeline-breaking sorts run through the external
    /// (spilling) sorter instead of the in-memory system profile.
    pub spill: Option<SpillExecOptions>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            profile: SystemProfile::RowsortDb,
            threads: rowsort_core::default_threads(),
            spill: None,
        }
    }
}

/// External-sort configuration for the engine: the subset of
/// [`ExternalSortOptions`] a session controls (retry tuning keeps the
/// sorter's hardened defaults).
#[derive(Debug, Clone)]
pub struct SpillExecOptions {
    /// Rows per spilled run. Run generation holds one run per spill
    /// worker, and there are `min(threads, SPILL_WORKERS)` of them
    /// ([`ExecOptions::threads`], [`SPILL_WORKERS`]).
    pub memory_limit_rows: usize,
    /// Directory for spill files (defaults to the system temp dir).
    pub spill_dir: Option<PathBuf>,
}

/// Per-operator statistics collected by `EXPLAIN ANALYZE`, in pre-order.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Operator label (same text as [`LogicalPlan::explain`]).
    pub label: String,
    /// Depth in the plan tree (root = 0).
    pub depth: usize,
    /// Rows this operator emitted.
    pub rows: u64,
    /// Inclusive wall-clock time (this operator and its inputs).
    pub elapsed_ns: u64,
    /// Operator-specific annotation (e.g. sort phase attribution).
    pub detail: String,
    /// A Sort or WindowRowNumber node's own sort profile, when its sorter
    /// keeps one (the full pipeline and the external sorter): what
    /// `detail` summarizes.
    pub sort: Option<SortProfile>,
}

/// Pre-order operator stats being collected during a profiled execution.
struct Profiler {
    entries: Vec<NodeStats>,
    depth: usize,
}

/// What operators hand each other: one whole relation, lent by the
/// catalog until some operator has to build rows of its own.
type Relation<'a> = Cow<'a, DataChunk>;

/// What a query runs under: the session's options, and the resource set
/// its sorts borrow.
type Session<'s> = (&'s ExecOptions, &'s SortResources);

/// Execute a plan, returning the result relation. Its sorts run on a
/// buffer pool and a worker crew of their own, built for this call.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog, options: &ExecOptions) -> Result<DataChunk> {
    execute_on(plan, catalog, options, &SortResources::new(options.threads))
}

/// As [`execute`], with every sort borrowing `set`'s crew — and, in memory,
/// its buffer pool (DESIGN.md §6). `set` has [`ExecOptions::threads`]
/// workers.
pub fn execute_on(
    plan: &LogicalPlan,
    catalog: &Catalog,
    options: &ExecOptions,
    set: &SortResources,
) -> Result<DataChunk> {
    let mut prof = None;
    Ok(exec_plan(plan, catalog, (options, set), &mut prof)?.into_owned())
}

/// As [`execute_on`], additionally returning per-operator row counts and
/// timings — the executor half of `EXPLAIN ANALYZE`.
pub fn execute_profiled(
    plan: &LogicalPlan,
    catalog: &Catalog,
    options: &ExecOptions,
    set: &SortResources,
) -> Result<(DataChunk, Vec<NodeStats>)> {
    let mut prof = Some(Profiler {
        entries: Vec::new(),
        depth: 0,
    });
    let out = exec_plan(plan, catalog, (options, set), &mut prof)?.into_owned();
    Ok((out, prof.map(|p| p.entries).unwrap_or_default()))
}

/// Render profiled-execution stats as an annotated plan tree.
pub fn render_analyze(stats: &[NodeStats]) -> String {
    let mut out = String::new();
    for s in stats {
        let pad = "  ".repeat(s.depth);
        out.push_str(&format!(
            "{pad}{}  [rows={} time={:.3}ms{}]\n",
            s.label,
            s.rows,
            s.elapsed_ns as f64 / 1e6,
            s.detail
        ));
    }
    out
}

/// Operator label for one node, matching [`LogicalPlan::explain`] lines.
fn node_label(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { table } => format!("Scan {table}"),
        LogicalPlan::Filter { predicates, .. } => {
            format!("Filter ({} conjuncts)", predicates.len())
        }
        LogicalPlan::Sort { order, .. } => format!("Sort ({} keys)", order.len()),
        LogicalPlan::Project { columns, .. } => format!("Project {columns:?}"),
        LogicalPlan::Limit { limit, offset, .. } => {
            format!("Limit limit={limit:?} offset={offset}")
        }
        LogicalPlan::CountStar { .. } => "CountStar".to_owned(),
        LogicalPlan::SortMergeJoin {
            left_col,
            right_col,
            ..
        } => format!("SortMergeJoin (left.{left_col} = right.{right_col})"),
        LogicalPlan::WindowRowNumber { order, .. } => {
            format!("WindowRowNumber ({} keys)", order.len())
        }
    }
}

/// Run generation's stage clocks in brackets, ` [scatter 1.000ms encode
/// …]`: the busy time of the workers that built runs, summed over them.
/// Nothing when the sort built no run.
fn write_run_stages(s: &mut String, profile: &SortProfile) {
    use std::fmt::Write;
    let stages = RUN_STAGES.map(|(c, name)| (name, profile.metrics.counter(c)));
    if stages.iter().all(|&(_, ns)| ns == 0) {
        return;
    }
    for (i, (name, ns)) in stages.into_iter().enumerate() {
        let open = if i == 0 { " [" } else { " " };
        let _ = write!(s, "{open}{name} {:.3}ms", ns as f64 / 1e6);
    }
    s.push(']');
}

/// Per-phase sort-time attribution for a Sort node's annotation, from the
/// sort operator's own [`SortProfile`] and the `threads` it
/// was given.
fn sort_detail(profile: &SortProfile, threads: usize) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let ms = |ns: u64| ns as f64 / 1e6;
    for ph in Phase::ALL {
        let ns = profile.metrics.phase(ph);
        if ns == 0 {
            continue;
        }
        let _ = write!(s, " {}={:.3}ms", ph.name(), ms(ns));
        if ph == Phase::RunGeneration {
            write_run_stages(&mut s, profile);
        }
        // Behind the spill phase's wall time, what its workers were busy
        // with inside it, summed over them: building runs (stage by
        // stage), and encoding plus writing them. A worker per thread up
        // to the spill phase's cap, or per run if fewer.
        if ph == Phase::Spill {
            let runs = profile.metrics.counter(Counter::SpilledRuns)
                + profile.metrics.counter(Counter::SpillMemFallbackRuns);
            let generate = ms(profile.metrics.counter(Counter::SpillGenerateNs));
            let _ = write!(s, " (generate {generate:.3}ms");
            write_run_stages(&mut s, profile);
            let _ = write!(
                s,
                ", write {:.3}ms busy, {} workers)",
                ms(profile.metrics.counter(Counter::SpillWriteNs)),
                runs.min(threads.min(SPILL_WORKERS) as u64),
            );
        }
    }
    // The key the sort planned: its width — over the plain width when
    // range-coding integer columns narrowed it — and the VARCHAR prefix
    // sized from the input's strings when there is one (12 is the paper's
    // rule).
    if profile.key_width < profile.key_width_plain {
        let (planned, plain) = (profile.key_width, profile.key_width_plain);
        let _ = write!(s, " key={planned}B/{plain}B");
    } else if profile.key_width > 0 {
        let _ = write!(s, " key={}B", profile.key_width);
    }
    if profile.varchar_prefix > 0 {
        let _ = write!(s, " prefix={}", profile.varchar_prefix);
    }
    // Rows that prefix failed to order: run generation handed them to
    // the full-tuple comparator, one key-equal range at a time.
    let tie_rows = profile.metrics.counter(Counter::RunTieRows);
    if tie_rows > 0 {
        let ranges = profile.metrics.counter(Counter::RunTieRanges);
        let _ = write!(s, " tie_rows={tie_rows} tie_ranges={ranges}");
    }
    // Offset-value coding effectiveness (DESIGN.md §10): the share of
    // merge comparisons the code compare resolved without touching key
    // suffix bytes, and what the codes were — offset-value codes, the keys
    // themselves (keys of 7 bytes or fewer), or none. Only shown when the
    // sort actually merged.
    let cmps = profile.metrics.counter(Counter::MergeCmps);
    if cmps > 0 {
        let resolved = profile.metrics.counter(Counter::MergeCmpsOvcResolved);
        let _ = write!(
            s,
            " ovc_hit={:.1}% code={}",
            resolved as f64 * 100.0 / cmps as f64,
            profile.merge_codes.name()
        );
    }
    // The in-memory merge, when the sort had runs to merge: one k-way pass
    // over key ranges, and how evenly it split.
    let counter = |c| profile.metrics.counter(c);
    if counter(Counter::MergeRounds) > 0 {
        let _ = write!(
            s,
            " merge=kway runs={} ranges={} max_range={}",
            counter(Counter::RunsGenerated),
            counter(Counter::MergeTasks),
            short_count(counter(Counter::MergeMaxRangeRows))
        );
    }
    // Range-partitioned merge shape: how many disjoint key ranges the
    // spilled-run merge ran in parallel, and how many times over it read
    // what the sort had spilled — 1.00x when every run file is read once,
    // a little more for the blocks at the seams between ranges.
    let parts = profile.metrics.counter(Counter::SpillMergePartitions);
    if parts > 1 {
        let _ = write!(s, " spill_parts={parts}");
    }
    let spilled = profile.metrics.counter(Counter::SpilledBytes);
    if spilled > 0 {
        let read = profile.metrics.counter(Counter::SpillReadBytes);
        let _ = write!(s, " reread={:.2}x", read as f64 / spilled as f64);
    }
    // Buffers the sort had to allocate: a cold engine's first query of a
    // shape misses, the next one of that shape takes all from the pool.
    if counter(Counter::PoolHits) + counter(Counter::PoolMisses) > 0 {
        let _ = write!(s, " pool_misses={}", counter(Counter::PoolMisses));
    }
    s
}

/// A row count for a one-line annotation: exact below ten thousand, then
/// rounded to thousands (`501k`) or millions (`12M`).
fn short_count(n: u64) -> String {
    match n {
        0..=9_999 => n.to_string(),
        10_000..=9_999_999 => format!("{}k", (n + 500) / 1_000),
        _ => format!("{}M", (n + 500_000) / 1_000_000),
    }
}

/// Sort a materialized relation under the session's options: the
/// configured in-memory system profile by default, or the external
/// (spilling) sorter when [`ExecOptions::spill`] is set, with spill
/// failures surfacing as [`EngineError::Spill`].
///
/// Any panic escaping the sort machinery — including panics re-raised
/// from worker-pool threads — is contained here and converted to
/// [`EngineError::Internal`], so one poisoned sort job fails its own
/// query but leaves the engine (and the worker pool) usable.
fn sort_relation(
    all: &DataChunk,
    order: &OrderBy,
    (options, set): Session<'_>,
) -> Result<(DataChunk, Option<SortProfile>)> {
    let run = || match &options.spill {
        Some(spill) => {
            // The session's crew runs the spill and its merge too; the
            // sorter's buffers stay its own (DESIGN.md §6).
            let sorter = ExternalSorter::with_resources(
                all.types(),
                order.clone(),
                ExternalSortOptions {
                    memory_limit_rows: spill.memory_limit_rows,
                    spill_dir: spill.spill_dir.clone(),
                    merge_threads: set.threads(),
                    ..ExternalSortOptions::default()
                },
                Arc::new(StdFs),
                set,
            );
            let sorted = sorter.sort(all).map_err(EngineError::Spill)?;
            Ok((sorted, Some(sorter.last_profile())))
        }
        None => {
            let (sorted, profile) = sort_with_system_profiled(options.profile, all, order, set);
            Ok((sorted, profile))
        }
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_owned());
        Err(EngineError::Internal(format!("sort panicked: {msg}")))
    })
}

/// Execute one node, recording a [`NodeStats`] entry when profiling.
fn exec_plan<'a>(
    plan: &LogicalPlan,
    catalog: &'a Catalog,
    session: Session<'_>,
    prof: &mut Option<Profiler>,
) -> Result<Relation<'a>> {
    let slot = match prof {
        Some(p) => {
            p.entries.push(NodeStats {
                label: node_label(plan),
                depth: p.depth,
                rows: 0,
                elapsed_ns: 0,
                detail: String::new(),
                sort: None,
            });
            p.depth += 1;
            Some(p.entries.len() - 1)
        }
        None => None,
    };
    let start = Instant::now();
    let mut sort = None;
    let result = exec_node(plan, catalog, session, prof, &mut sort);
    if let (Some(i), Some(p)) = (slot, prof.as_mut()) {
        p.depth -= 1;
        if let Ok(relation) = &result {
            let entry = &mut p.entries[i];
            entry.elapsed_ns = start.elapsed().as_nanos() as u64;
            entry.rows = relation.len() as u64;
            if let Some(profile) = &sort {
                entry.detail = sort_detail(profile, session.1.threads());
            }
            entry.sort = sort;
        }
    }
    result
}

fn exec_node<'a>(
    plan: &LogicalPlan,
    catalog: &'a Catalog,
    session: Session<'_>,
    prof: &mut Option<Profiler>,
    sort: &mut Option<SortProfile>,
) -> Result<Relation<'a>> {
    let owned = |columns: Vec<Vector>| {
        let relation =
            DataChunk::from_columns(columns).map_err(|e| EngineError::Internal(e.to_string()))?;
        Ok(Cow::Owned(relation))
    };
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog
                .get(table)
                .ok_or_else(|| EngineError::UnknownTable(table.clone()))?;
            Ok(Cow::Borrowed(&t.data))
        }
        LogicalPlan::Filter { input, predicates } => {
            let input = exec_plan(input, catalog, session, prof)?;
            Ok(Cow::Owned(filter_chunk(&input, predicates)))
        }
        LogicalPlan::Project { input, columns } => {
            match exec_plan(input, catalog, session, prof)? {
                Cow::Borrowed(input) => {
                    owned(columns.iter().map(|&i| input.column(i).clone()).collect())
                }
                Cow::Owned(input) => {
                    // Nobody else holds these columns: move each out at
                    // its last mention (`SELECT a, a` clones the first).
                    let mut source = input.into_columns();
                    let picked = columns.iter().enumerate().map(|(at, &i)| {
                        if columns[at + 1..].contains(&i) {
                            source[i].clone()
                        } else {
                            let emptied = Vector::new(source[i].logical_type());
                            std::mem::replace(&mut source[i], emptied)
                        }
                    });
                    owned(picked.collect())
                }
            }
        }
        LogicalPlan::Sort { input, order } => {
            // Pipeline breaker: the sorter reads the input where it lies
            // (scattering morsels of it into rows) and returns new vectors.
            let input = exec_plan(input, catalog, session, prof)?;
            let sorted;
            (sorted, *sort) = sort_relation(&input, order, session)?;
            Ok(Cow::Owned(sorted))
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let input = exec_plan(input, catalog, session, prof)?;
            Ok(apply_limit(input, *limit, *offset))
        }
        LogicalPlan::CountStar { input } => {
            let count = exec_plan(input, catalog, session, prof)?.len();
            owned(vec![Vector::from_i64s(vec![count as i64])])
        }
        LogicalPlan::SortMergeJoin {
            left,
            right,
            left_col,
            right_col,
            ..
        } => {
            let l = exec_plan(left, catalog, session, prof)?;
            let r = exec_plan(right, catalog, session, prof)?;
            let joined = sort_merge_join(&l, &r, *left_col, *right_col, session)?;
            Ok(Cow::Owned(joined))
        }
        LogicalPlan::WindowRowNumber { input, order } => {
            let input = exec_plan(input, catalog, session, prof)?;
            let sorted;
            (sorted, *sort) = sort_relation(&input, order, session)?;
            let numbers = Vector::from_i64s((1..=sorted.len() as i64).collect());
            let mut columns = sorted.into_columns();
            columns.push(numbers);
            owned(columns)
        }
    }
}

/// Sort both inputs by their join key and merge, emitting the cross
/// product of each equal-key group. NULL keys never match (SQL equality).
///
/// This is the operation the paper's §V-B points at: the merge walks two
/// *sorted* streams and needs a full key comparison per step — the access
/// pattern that rules out the subsort trick and motivates normalized keys.
fn sort_merge_join(
    left: &DataChunk,
    right: &DataChunk,
    left_col: usize,
    right_col: usize,
    session: Session<'_>,
) -> Result<DataChunk> {
    use rowsort_vector::OrderByColumn;
    let l_order = OrderBy::new(vec![OrderByColumn::asc(left_col)]);
    let r_order = OrderBy::new(vec![OrderByColumn::asc(right_col)]);
    let (l, _) = sort_relation(left, &l_order, session)?;
    let (r, _) = sort_relation(right, &r_order, session)?;

    // Each output row as a row of each side: one `take` per side builds
    // the output.
    let (mut li, mut rj) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() && j < r.len() {
        let a = l.column(left_col).get(i);
        let b = r.column(right_col).get(j);
        // ASC NULLS LAST puts NULLs at the end; they never join.
        if a.is_null() || b.is_null() {
            break;
        }
        match a.compare_non_null(&b) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Find both equal-key groups, emit their cross product.
                let i_end = (i..l.len())
                    .find(|&x| {
                        let v = l.column(left_col).get(x);
                        v.is_null() || v.compare_non_null(&a) != Ordering::Equal
                    })
                    .unwrap_or(l.len());
                let j_end = (j..r.len())
                    .find(|&x| {
                        let v = r.column(right_col).get(x);
                        v.is_null() || v.compare_non_null(&b) != Ordering::Equal
                    })
                    .unwrap_or(r.len());
                for left_row in i..i_end {
                    li.extend(std::iter::repeat_n(left_row, j_end - j));
                    rj.extend(j..j_end);
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    let mut columns = l.take(&li).into_columns();
    columns.extend(r.take(&rj).into_columns());
    DataChunk::from_columns(columns).map_err(|e| EngineError::Internal(e.to_string()))
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

fn filter_chunk(chunk: &DataChunk, predicates: &[ResolvedPredicate]) -> DataChunk {
    let keep: Vec<usize> = (0..chunk.len())
        .filter(|&row| predicates.iter().all(|p| row_matches(chunk, row, p)))
        .collect();
    chunk.take(&keep)
}

fn row_matches(chunk: &DataChunk, row: usize, p: &ResolvedPredicate) -> bool {
    match p {
        ResolvedPredicate::IsNull { column, negated } => {
            chunk.column(*column).is_valid(row) == *negated
        }
        ResolvedPredicate::Compare { column, op, value } => {
            let v = chunk.column(*column).get(row);
            if v.is_null() {
                return false; // SQL three-valued logic: NULL never matches
            }
            let ord = v.compare_non_null(value);
            match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Limit / Offset
// ---------------------------------------------------------------------------

/// Rows `offset..offset + limit` of `input`: the relation itself, untouched,
/// when that is all of it, otherwise one slice.
fn apply_limit(input: Relation<'_>, limit: Option<u64>, offset: u64) -> Relation<'_> {
    let n = input.len();
    let start = usize::try_from(offset).unwrap_or(usize::MAX).min(n);
    let take = limit.map_or(n - start, |l| {
        usize::try_from(l).unwrap_or(usize::MAX).min(n - start)
    });
    if take == n {
        input
    } else {
        Cow::Owned(input.slice(start, start + take))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Table;
    use crate::Engine;
    use rowsort_core::ovc::MergeCodes;
    use rowsort_vector::Value;

    fn engine() -> Engine {
        let mut e = Engine::new();
        let data = DataChunk::from_columns(vec![
            Vector::from_i32s(vec![3, 1, 2, 5, 4]),
            Vector::from_strings(["c", "a", "b", "e", "d"]),
        ])
        .unwrap();
        e.register_table(Table::new("t", vec!["id".into(), "name".into()], data));
        e
    }

    #[test]
    fn select_star_returns_all() {
        let e = engine();
        let r = e.query("SELECT * FROM t").unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.column_count(), 2);
    }

    #[test]
    fn order_by_sorts() {
        let e = engine();
        let r = e.query("SELECT id FROM t ORDER BY id").unwrap();
        let ids: Vec<Value> = (0..5).map(|i| r.row(i)[0].clone()).collect();
        assert_eq!(ids, (1..=5).map(Value::Int32).collect::<Vec<_>>());
    }

    #[test]
    fn order_by_non_projected() {
        let e = engine();
        let r = e.query("SELECT id FROM t ORDER BY name DESC").unwrap();
        assert_eq!(r.row(0), vec![Value::Int32(5)]); // name 'e'
        assert_eq!(r.row(4), vec![Value::Int32(1)]); // name 'a'
    }

    #[test]
    fn where_filters() {
        let e = engine();
        let r = e
            .query("SELECT id FROM t WHERE id >= 3 ORDER BY id")
            .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(0), vec![Value::Int32(3)]);
        let r = e.query("SELECT id FROM t WHERE name = 'b'").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), vec![Value::Int32(2)]);
    }

    #[test]
    fn limit_offset() {
        let e = engine();
        let r = e
            .query("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 1")
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), vec![Value::Int32(2)]);
        assert_eq!(r.row(1), vec![Value::Int32(3)]);
    }

    #[test]
    fn papers_count_offset_query() {
        let e = engine();
        let r = e
            .query("SELECT count(*) FROM (SELECT id FROM t ORDER BY name OFFSET 1) s")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), vec![Value::Int64(4)], "5 rows minus OFFSET 1");
    }

    #[test]
    fn count_without_offset_still_counts() {
        let e = engine();
        let r = e
            .query("SELECT count(*) FROM (SELECT id FROM t ORDER BY name) s")
            .unwrap();
        assert_eq!(r.row(0), vec![Value::Int64(5)]);
    }

    #[test]
    fn all_profiles_agree_end_to_end() {
        let sql = "SELECT id FROM t WHERE id <> 4 ORDER BY name DESC";
        let mut results = Vec::new();
        for p in SystemProfile::ALL {
            let mut e = engine();
            e.options_mut().profile = p;
            results.push(e.query(sql).unwrap().to_rows());
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn is_null_predicates() {
        let mut e = Engine::new();
        let mut data = DataChunk::new(&[rowsort_vector::LogicalType::Int32]);
        for v in [Value::Int32(1), Value::Null, Value::Int32(3)] {
            data.push_row(&[v]).unwrap();
        }
        e.register_table(Table::new("n", vec!["x".into()], data));
        let r = e.query("SELECT * FROM n WHERE x IS NULL").unwrap();
        assert_eq!(r.len(), 1);
        let r = e.query("SELECT * FROM n WHERE x IS NOT NULL").unwrap();
        assert_eq!(r.len(), 2);
        // Comparison never matches NULL.
        let r = e.query("SELECT * FROM n WHERE x <> 1").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), vec![Value::Int32(3)]);
    }

    #[test]
    fn topn_query_matches_full_sort() {
        let e = engine();
        let top = e
            .query("SELECT id FROM t ORDER BY id DESC LIMIT 3")
            .unwrap();
        let full = e.query("SELECT id FROM t ORDER BY id DESC").unwrap();
        assert_eq!(top.to_rows(), full.to_rows()[..3].to_vec());
    }

    #[test]
    fn empty_table_queries() {
        let mut e = Engine::new();
        let data = DataChunk::new(&[rowsort_vector::LogicalType::Int32]);
        e.register_table(Table::new("empty", vec!["x".into()], data));
        assert_eq!(e.query("SELECT * FROM empty ORDER BY x").unwrap().len(), 0);
        assert_eq!(
            e.query("SELECT count(*) FROM empty").unwrap().row(0),
            vec![Value::Int64(0)]
        );
        assert_eq!(
            e.query("SELECT x FROM empty ORDER BY x DESC LIMIT 5")
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            e.query("SELECT count(*) FROM (SELECT x FROM empty ORDER BY x OFFSET 1) t")
                .unwrap()
                .row(0),
            vec![Value::Int64(0)]
        );
    }

    #[test]
    fn limit_zero_and_huge_offset() {
        let e = engine();
        assert_eq!(e.query("SELECT * FROM t LIMIT 0").unwrap().len(), 0);
        assert_eq!(e.query("SELECT * FROM t OFFSET 100").unwrap().len(), 0);
        assert_eq!(
            e.query("SELECT id FROM t ORDER BY id LIMIT 0 OFFSET 2")
                .unwrap()
                .len(),
            0
        );
    }

    fn join_engine() -> Engine {
        let mut e = Engine::new();
        let orders = DataChunk::from_columns(vec![
            Vector::from_i32s(vec![1, 2, 3, 4]),     // o_id
            Vector::from_i32s(vec![10, 20, 10, 30]), // o_cust
        ])
        .unwrap();
        e.register_table(Table::new(
            "orders",
            vec!["o_id".into(), "o_cust".into()],
            orders,
        ));
        let mut cust = DataChunk::new(&[
            rowsort_vector::LogicalType::Int32,
            rowsort_vector::LogicalType::Varchar,
        ]);
        for (id, name) in [(10, Some("alice")), (20, Some("bob")), (40, Some("carol"))] {
            cust.push_row(&[
                Value::Int32(id),
                name.map(Value::from).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        // A NULL key on each side must never match.
        cust.push_row(&[Value::Null, Value::from("ghost")]).unwrap();
        e.register_table(Table::new(
            "customers",
            vec!["c_id".into(), "c_name".into()],
            cust,
        ));
        e
    }

    #[test]
    fn sort_merge_join_basic() {
        let e = join_engine();
        let r = e
            .query(
                "SELECT o_id, c_name FROM orders JOIN customers ON o_cust = c_id \
                 ORDER BY o_id",
            )
            .unwrap();
        assert_eq!(r.len(), 3, "order 4 (cust 30) and NULL key drop out");
        assert_eq!(r.row(0), vec![Value::Int32(1), Value::from("alice")]);
        assert_eq!(r.row(1), vec![Value::Int32(2), Value::from("bob")]);
        assert_eq!(r.row(2), vec![Value::Int32(3), Value::from("alice")]);
    }

    #[test]
    fn join_matches_reference_nested_loop() {
        use crate::reference::execute_reference;
        use crate::{plan, sql};
        let e = join_engine();
        let sql_text = "SELECT o_id, c_name FROM orders JOIN customers ON o_cust = c_id";
        let logical = plan::build(&sql::parse(sql_text).unwrap(), e.catalog()).unwrap();
        let expected = execute_reference(&logical, e.catalog()).unwrap();
        let got = e.query(sql_text).unwrap().to_rows();
        let canon = |mut rows: Vec<Vec<Value>>| {
            let mut v: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(canon(got), canon(expected));
    }

    #[test]
    fn join_with_qualified_keys_and_collisions() {
        let mut e = Engine::new();
        let a = DataChunk::from_columns(vec![Vector::from_i32s(vec![1, 2])]).unwrap();
        e.register_table(Table::new("a", vec!["id".into()], a));
        let b = DataChunk::from_columns(vec![Vector::from_i32s(vec![2, 3])]).unwrap();
        e.register_table(Table::new("b", vec!["id".into()], b));
        // Both sides have "id": output names must be qualified.
        let r = e.query("SELECT a.id FROM a JOIN b ON a.id = b.id").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), vec![Value::Int32(2)]);
    }

    #[test]
    fn join_duplicate_keys_cross_product() {
        let mut e = Engine::new();
        let l = DataChunk::from_columns(vec![Vector::from_i32s(vec![7, 7])]).unwrap();
        e.register_table(Table::new("l", vec!["k".into()], l));
        let r = DataChunk::from_columns(vec![Vector::from_i32s(vec![7, 7, 7])]).unwrap();
        e.register_table(Table::new("r", vec!["k".into()], r));
        let out = e
            .query("SELECT count(*) FROM (SELECT l.k FROM l JOIN r ON l.k = r.k) t")
            .unwrap();
        assert_eq!(out.row(0), vec![Value::Int64(6)], "2 x 3 cross product");
    }

    #[test]
    fn row_number_window() {
        let e = engine();
        let r = e
            .query(
                "SELECT id, row_number() OVER (ORDER BY name DESC) FROM t \
                 ORDER BY row_number",
            )
            .unwrap();
        // name desc: e,d,c,b,a -> ids 5,4,3,2,1 numbered 1..5.
        for (i, expected_id) in [5, 4, 3, 2, 1].iter().enumerate() {
            assert_eq!(
                r.row(i),
                vec![Value::Int32(*expected_id), Value::Int64(i as i64 + 1)]
            );
        }
    }

    #[test]
    fn row_number_matches_reference() {
        use crate::reference::execute_reference;
        use crate::{plan, sql};
        let e = engine();
        let sql_text = "SELECT id, row_number() OVER (ORDER BY id DESC) FROM t";
        let logical = plan::build(&sql::parse(sql_text).unwrap(), e.catalog()).unwrap();
        let expected = execute_reference(&logical, e.catalog()).unwrap();
        assert_eq!(e.query(sql_text).unwrap().to_rows(), expected);
    }

    fn varchar_lines(chunk: &DataChunk) -> String {
        (0..chunk.len())
            .map(|i| match &chunk.row(i)[0] {
                Value::Varchar(s) => s.clone(),
                other => panic!("expected varchar line, got {other:?}"),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn explain_returns_plan_without_executing() {
        let e = engine();
        let r = e
            .query("EXPLAIN SELECT id FROM t ORDER BY id LIMIT 2")
            .unwrap();
        let text = varchar_lines(&r);
        // `ORDER BY … LIMIT` is a Limit over the one sorter.
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        assert!(lines[0].starts_with("Limit limit=Some(2)"), "{text}");
        assert!(lines[1].starts_with("Project"), "{text}");
        assert_eq!(lines[2], "Sort (1 keys)", "{text}");
        assert!(text.contains("Scan t"), "{text}");
        assert!(
            !text.contains("rows="),
            "EXPLAIN has no runtime stats: {text}"
        );
    }

    #[test]
    fn explain_analyze_reports_rows_timings_and_sort_phases() {
        let e = engine();
        let r = e
            .query("EXPLAIN ANALYZE SELECT id FROM t WHERE id >= 2 ORDER BY name DESC")
            .unwrap();
        let text = varchar_lines(&r);
        assert!(text.contains("Scan t  [rows=5"), "{text}");
        assert!(text.contains("Filter (1 conjuncts)  [rows=4"), "{text}");
        assert!(text.contains("Sort (1 keys)  [rows=4"), "{text}");
        assert!(text.contains("time="), "{text}");
        assert!(text.contains("ms"), "{text}");
        // The Sort node carries the sort operator's own phase attribution.
        assert!(text.contains("run_generation="), "{text}");
        // Pre-order indentation: Scan is the deepest node.
        let scan_line = text.lines().find(|l| l.contains("Scan")).unwrap();
        assert!(scan_line.starts_with("      "), "{text}");
        // The engine's first sort allocated its buffers; the next sort of
        // the same shape takes every one from the engine's pool.
        let misses = |text: &str| {
            let (_, tail) = text.split_once(" pool_misses=").expect(text);
            tail.split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .to_owned()
        };
        assert_ne!(misses(&text), "0", "{text}");
        let again = e
            .query("EXPLAIN ANALYZE SELECT id FROM t WHERE id >= 3 ORDER BY name DESC")
            .unwrap();
        assert_eq!(misses(&varchar_lines(&again)), "0");
        // `ORDER BY … LIMIT`: the Limit's input is the Sort, with its phases.
        let text = varchar_lines(
            &e.query("EXPLAIN ANALYZE SELECT id FROM t ORDER BY id DESC LIMIT 3")
                .unwrap(),
        );
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("Limit limit=Some(3) offset=0  [rows=3"),
            "{text}"
        );
        let sort = lines
            .iter()
            .find(|l| l.contains("Sort (1 keys)"))
            .expect(&text);
        assert!(sort.contains("[rows=5"), "{text}");
        assert!(sort.contains("run_generation="), "{text}");
    }

    #[test]
    fn explain_analyze_shows_the_window_sort() {
        let e = engine();
        let text = varchar_lines(
            &e.query("EXPLAIN ANALYZE SELECT id, row_number() OVER (ORDER BY name) FROM t")
                .unwrap(),
        );
        let window = text
            .lines()
            .find(|l| l.contains("WindowRowNumber (1 keys)  [rows=5"))
            .expect(&text);
        assert!(window.contains("run_generation="), "{text}");
    }

    #[test]
    fn sort_detail_names_the_merge_shape() {
        let detail = |counters: &[(Counter, u64)]| {
            let mut profile = rowsort_core::SortProfile::zeroed();
            for &(c, v) in counters {
                profile.metrics.counters[c as usize] = v;
            }
            sort_detail(&profile, 2)
        };
        let kway = detail(&[
            (Counter::RunsGenerated, 8),
            (Counter::MergeRounds, 1),
            (Counter::MergeTasks, 2),
            (Counter::MergeMaxRangeRows, 501_234),
        ]);
        assert_eq!(kway, " merge=kway runs=8 ranges=2 max_range=501k");
        // OVC off: the same pass, every compare a whole-key one.
        let plain = detail(&[
            (Counter::RunsGenerated, 8),
            (Counter::MergeRounds, 1),
            (Counter::MergeTasks, 1),
            (Counter::MergeMaxRangeRows, 8_000),
            (Counter::MergeCmps, 24_000),
        ]);
        assert_eq!(
            plain,
            " ovc_hit=0.0% code=none merge=kway runs=8 ranges=1 max_range=8000"
        );
        // A coded merge names its codes: a key of 7 bytes or fewer is its
        // own (here every compare was between unequal keys); a wider one
        // is offset-value coded.
        let coded = |merge_codes, resolved| {
            let mut profile = rowsort_core::SortProfile::zeroed();
            profile.merge_codes = merge_codes;
            profile.metrics.counters[Counter::MergeCmps as usize] = 24_000;
            profile.metrics.counters[Counter::MergeCmpsOvcResolved as usize] = resolved;
            sort_detail(&profile, 2)
        };
        assert_eq!(coded(MergeCodes::Key, 24_000), " ovc_hit=100.0% code=key");
        assert_eq!(coded(MergeCodes::Ovc, 18_000), " ovc_hit=75.0% code=ovc");
        // One run never merges; a spill merge reports `spill_parts=`.
        assert_eq!(detail(&[(Counter::RunsGenerated, 1)]), "");
        let spilled = [
            (Counter::SpillMergePartitions, 2),
            (Counter::MergeMaxRangeRows, 9_999),
        ];
        assert_eq!(detail(&spilled), " spill_parts=2");
        // ... and how many times over it read what was spilled.
        let reread = [
            (Counter::SpillMergePartitions, 2),
            (Counter::SpilledBytes, 32_004_096),
            (Counter::SpillReadBytes, 34_099_456),
        ];
        assert_eq!(detail(&reread), " spill_parts=2 reread=1.07x");
        // The spill phase: wall time, then the workers' busy time in it.
        let mut spilling = rowsort_core::SortProfile::zeroed();
        spilling.metrics.phase_ns[Phase::Spill as usize] = 41_500_000;
        spilling.metrics.counters[Counter::SpillGenerateNs as usize] = 52_250_000;
        spilling.metrics.counters[Counter::SpillWriteNs as usize] = 29_000_000;
        spilling.metrics.counters[Counter::SpilledRuns as usize] = 14;
        spilling.metrics.counters[Counter::SpillMemFallbackRuns as usize] = 2;
        assert_eq!(
            sort_detail(&spilling, 2),
            " spill=41.500ms (generate 52.250ms, write 29.000ms busy, 2 workers)"
        );
        // Run generation's stages, after the phase that built the runs.
        let stage_ns = [9_000_000, 3_500_000, 18_250_000, 6_000_000, 7_125_000];
        let stages = " [scatter 9.000ms encode 3.500ms sort 18.250ms strip+code 6.000ms \
                      reorder 7.125ms]";
        for ((counter, _), ns) in RUN_STAGES.into_iter().zip(stage_ns) {
            spilling.metrics.counters[counter as usize] = ns;
        }
        assert_eq!(
            sort_detail(&spilling, 2),
            format!(" spill=41.500ms (generate 52.250ms{stages}, write 29.000ms busy, 2 workers)")
        );
        let mut in_memory = spilling;
        in_memory.metrics.phase_ns[Phase::Spill as usize] = 0;
        in_memory.metrics.phase_ns[Phase::RunGeneration as usize] = 30_000_000;
        assert!(
            sort_detail(&in_memory, 2).starts_with(&format!(" run_generation=30.000ms{stages}"))
        );
        for (counter, _) in RUN_STAGES {
            spilling.metrics.counters[counter as usize] = 0;
        }
        // More threads than the spill phase's cap: the cap.
        assert!(sort_detail(&spilling, 32).contains("busy, 2 workers)"));
        // Fewer runs than workers: a worker per run.
        spilling.metrics.counters[Counter::SpilledRuns as usize] = 0;
        spilling.metrics.counters[Counter::SpillMemFallbackRuns as usize] = 1;
        assert!(sort_detail(&spilling, 32).contains("busy, 1 workers)"));
        // The planned key, and what its VARCHAR prefix left to the
        // comparator.
        let mut planned = rowsort_core::SortProfile::zeroed();
        planned.key_width = 36;
        planned.key_width_plain = 36;
        planned.varchar_prefix = 20;
        assert_eq!(sort_detail(&planned, 2), " key=36B prefix=20");
        // Range-coded integer columns narrowed the key: planned over plain.
        let mut ranged = rowsort_core::SortProfile::zeroed();
        (ranged.key_width, ranged.key_width_plain) = (5, 20);
        assert_eq!(sort_detail(&ranged, 2), " key=5B/20B");
        // A key of constant columns codes to no bytes at all.
        ranged.key_width = 0;
        assert_eq!(sort_detail(&ranged, 2), " key=0B/20B");
        planned.metrics.counters[Counter::RunTieRows as usize] = 5_584;
        planned.metrics.counters[Counter::RunTieRanges as usize] = 642;
        assert_eq!(
            sort_detail(&planned, 2),
            " key=36B prefix=20 tie_rows=5584 tie_ranges=642"
        );
        // What the sort took from the pool, and what it had to allocate.
        let pooled = detail(&[(Counter::PoolHits, 12), (Counter::PoolMisses, 3)]);
        assert_eq!(pooled, " pool_misses=3");
        assert_eq!(detail(&[(Counter::PoolHits, 12)]), " pool_misses=0");
        assert_eq!(short_count(9_999), "9999");
        assert_eq!(short_count(12_500_000), "13M");
    }

    #[test]
    fn explain_analyze_result_matches_plain_query_rows() {
        let e = engine();
        let sql = "SELECT count(*) FROM (SELECT id FROM t ORDER BY name OFFSET 1) s";
        // EXPLAIN ANALYZE runs the same plan: the CountStar node must
        // report the single aggregate output row.
        let text = varchar_lines(&e.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap());
        assert!(text.contains("CountStar  [rows=1"), "{text}");
        assert!(
            text.contains("Limit limit=None offset=1  [rows=4"),
            "{text}"
        );
    }

    #[test]
    fn limit_offset_boundaries_across_chunks() {
        use rowsort_vector::VECTOR_SIZE;
        // Three chunks' worth of rows so OFFSET can land exactly on a
        // chunk boundary.
        let n = 2 * VECTOR_SIZE + 3;
        let mut e = Engine::new();
        let data =
            DataChunk::from_columns(vec![Vector::from_i32s((0..n as i32).collect())]).unwrap();
        e.register_table(Table::new("big", vec!["x".into()], data));

        // OFFSET exactly one chunk: the first row kept is row VECTOR_SIZE.
        let r = e
            .query(&format!(
                "SELECT x FROM big ORDER BY x LIMIT 5 OFFSET {VECTOR_SIZE}"
            ))
            .unwrap();
        assert_eq!(r.len(), 5);
        for i in 0..5 {
            assert_eq!(r.row(i), vec![Value::Int32((VECTOR_SIZE + i) as i32)]);
        }

        // OFFSET past the end yields nothing; LIMIT 0 yields nothing.
        assert_eq!(
            e.query(&format!("SELECT x FROM big OFFSET {n}"))
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            e.query(&format!("SELECT x FROM big OFFSET {}", n + 1))
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            e.query("SELECT x FROM big ORDER BY x LIMIT 0 OFFSET 7")
                .unwrap()
                .len(),
            0
        );

        // LIMIT reaching exactly the end of the relation.
        let r = e
            .query(&format!(
                "SELECT x FROM big ORDER BY x LIMIT 3 OFFSET {}",
                n - 3
            ))
            .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(2), vec![Value::Int32(n as i32 - 1)]);
    }

    #[test]
    fn limit_over_sort_saturates_huge_limit_and_offset() {
        // u64::MAX is not a SQL literal (they are i64-ranged), so build the
        // plan by hand: `limit + offset` must saturate, not wrap around.
        let mut e = Engine::new();
        let input = DataChunk::from_columns(vec![Vector::from_i32s(vec![3, 1, 2])]).unwrap();
        e.register_table(Table::new("s", vec!["x".into()], input.clone()));
        for (offset, rows) in [(u64::MAX, 0), (5, 0), (0, 3)] {
            let plan = LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Sort {
                    input: Box::new(LogicalPlan::Scan { table: "s".into() }),
                    order: OrderBy::new(vec![rowsort_vector::OrderByColumn::asc(0)]),
                }),
                limit: Some(u64::MAX),
                offset,
            };
            let out = execute(&plan, e.catalog(), &ExecOptions::default()).unwrap();
            assert_eq!(out.len(), rows, "offset {offset}");
            if rows > 0 {
                assert_eq!(out.row(0), vec![Value::Int32(1)]);
            }
        }
        // And apply_limit with a saturating skip and no limit.
        let out = apply_limit(Cow::Borrowed(&input), None, u64::MAX);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn unoptimized_query_same_result() {
        let e = engine();
        let sql = "SELECT count(*) FROM (SELECT id FROM t ORDER BY name) s";
        assert_eq!(
            e.query(sql).unwrap().to_rows(),
            e.query_unoptimized(sql).unwrap().to_rows()
        );
    }

    /// A many-row engine so spill-enabled sorts actually produce several
    /// runs (memory_limit_rows below forces spilling).
    fn big_engine() -> Engine {
        let n = 4_000i32;
        let ids: Vec<i32> = (0..n).rev().collect();
        let names: Vec<String> = ids.iter().map(|i| format!("name-{:04}", i % 97)).collect();
        let data = DataChunk::from_columns(vec![
            Vector::from_i32s(ids),
            Vector::from_strings(names.iter().map(String::as_str)),
        ])
        .unwrap();
        let mut e = Engine::new();
        e.register_table(Table::new("big", vec!["id".into(), "name".into()], data));
        e
    }

    #[test]
    fn spill_enabled_query_matches_in_memory() {
        // `id` as a tie-breaker: duplicate names would otherwise leave the
        // within-group order unspecified (external vs in-memory sorts
        // break ties differently).
        let sql = "SELECT id FROM big WHERE id <> 17 ORDER BY name DESC, id";
        let expected = big_engine().query(sql).unwrap().to_rows();

        let mut e = big_engine();
        e.options_mut().spill = Some(SpillExecOptions {
            memory_limit_rows: 256, // 4k rows -> ~16 spilled runs
            spill_dir: None,
        });
        assert_eq!(e.query(sql).unwrap().to_rows(), expected);

        // Joins and window functions route through the same sort path.
        let sql =
            "SELECT id, row_number() OVER (ORDER BY id DESC) FROM big ORDER BY row_number LIMIT 3";
        let expected = big_engine().query(sql).unwrap().to_rows();
        assert_eq!(e.query(sql).unwrap().to_rows(), expected);
    }

    #[test]
    fn spill_create_failure_surfaces_typed_error() {
        let mut e = big_engine();
        e.options_mut().spill = Some(SpillExecOptions {
            memory_limit_rows: 256,
            spill_dir: Some(PathBuf::from("/nonexistent-rowsort-spill-dir/sub")),
        });
        let err = e.query("SELECT id FROM big ORDER BY name").unwrap_err();
        match err {
            EngineError::Spill(rowsort_core::SpillError::Io { op, ref path, .. }) => {
                assert_eq!(op, rowsort_core::SpillOp::Create);
                assert!(
                    path.contains("nonexistent-rowsort-spill-dir"),
                    "error should name the failing path: {path}"
                );
            }
            other => panic!("expected Spill(Io{{Create}}), got {other:?}"),
        }
        // The engine stays usable after the failed sort.
        assert_eq!(
            e.query("SELECT count(*) FROM big").unwrap().row(0),
            vec![Value::Int64(4_000)]
        );
    }

    #[test]
    fn panicking_sort_is_contained_as_internal_error() {
        use crate::plan::LogicalPlan;
        let e = engine();
        // A manually built plan with an out-of-range sort column: the sort
        // machinery (including its worker threads) panics on the bad
        // index. The executor must contain that panic to this one query.
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Scan { table: "t".into() }),
            order: OrderBy::new(vec![rowsort_vector::OrderByColumn::asc(99)]),
        };
        let err = execute(&plan, e.catalog(), &ExecOptions::default()).unwrap_err();
        match err {
            EngineError::Internal(msg) => {
                assert!(msg.contains("sort panicked"), "unexpected message: {msg}")
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // Regression: the pool and engine survive the poisoned sort — the
        // next (valid) query on the same engine runs normally.
        let r = e.query("SELECT id FROM t ORDER BY id").unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.row(0), vec![Value::Int32(1)]);
    }
}
