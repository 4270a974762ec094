//! System emulation profiles (paper §VII).
//!
//! The paper benchmarks DuckDB against four other analytical systems. With
//! full binaries, differences in parsers, optimizers, storage, and client
//! protocols muddy the comparison; here every profile runs inside one
//! engine and differs *only* in how its sort operator is configured —
//! exactly the design choices §VII attributes the end-to-end differences
//! to:
//!
//! | profile | emulates | format | local sort | merge |
//! |---|---|---|---|---|
//! | [`SystemProfile::RowsortDb`] | DuckDB | NSM + normalized keys (VARCHAR prefix sized from a collision sample) | radix, comparator (pdqsort) inside key-equal ranges | coded k-way per key range |
//! | [`SystemProfile::ColumnarJit`] | ClickHouse | DSM (sorts indices) | radix for a single integer key, else pdqsort tuple-at-a-time | k-way loser tree |
//! | [`SystemProfile::ColumnarSingle`] | MonetDB | DSM | single-threaded introsort, subsort per column | (single run) |
//! | [`SystemProfile::CompiledRows`] | HyPer | NSM | pdqsort, fused ("compiled") comparator, sorts pointers | k-way loser tree on pointers, payload gathered at output |
//! | [`SystemProfile::CompiledRowsV2`] | Umbra | NSM | as HyPer | cascaded 2-way on pointers |

use crate::comparator::FusedRowComparator;
use crate::pipeline::{SortOptions, SortPipeline, DEFAULT_RUN_ROWS};
use crate::resources::SortResources;
use crate::run::TableStats;
use rowsort_algos::kway::LoserTree;
use rowsort_algos::pdqsort::pdqsort;
use rowsort_algos::radix::lsd_radix_sort_rows;
use rowsort_algos::NoProbe;
use rowsort_normkey::{encode_column_into, KeyColumn};
use rowsort_row::{RowBlock, RowLayout};
use rowsort_vector::{
    DataChunk, LogicalType, OrderBy, OrderByColumn, Validity, Vector, VectorData,
};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::sync::Mutex;

/// Which system's sort-operator configuration to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemProfile {
    /// DuckDB: the full normalized-key row pipeline of this crate.
    RowsortDb,
    /// ClickHouse: columnar throughout; radix for one integer key,
    /// otherwise pdqsort with a tuple-at-a-time comparator; k-way merge.
    ColumnarJit,
    /// MonetDB: columnar, single-threaded, subsort across key columns.
    ColumnarSingle,
    /// HyPer: compiled row sort over pointers, parallel k-way merge,
    /// payload collected lazily at output.
    CompiledRows,
    /// Umbra: as HyPer with a cascaded 2-way pointer merge.
    CompiledRowsV2,
}

impl SystemProfile {
    /// All profiles in the order the paper's figures list the systems.
    pub const ALL: [SystemProfile; 5] = [
        SystemProfile::RowsortDb,
        SystemProfile::ColumnarJit,
        SystemProfile::ColumnarSingle,
        SystemProfile::CompiledRows,
        SystemProfile::CompiledRowsV2,
    ];

    /// Display label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            SystemProfile::RowsortDb => "rowsort(DuckDB-like)",
            SystemProfile::ColumnarJit => "columnar-jit(ClickHouse-like)",
            SystemProfile::ColumnarSingle => "columnar-1t(MonetDB-like)",
            SystemProfile::CompiledRows => "compiled-rows(HyPer-like)",
            SystemProfile::CompiledRowsV2 => "compiled-rows-v2(Umbra-like)",
        }
    }
}

/// Sort `input` by `order` the way the given system would.
pub fn sort_with_system(
    profile: SystemProfile,
    input: &DataChunk,
    order: &OrderBy,
    threads: usize,
) -> DataChunk {
    let set = SortResources::new(threads);
    sort_with_system_profiled(profile, input, order, &set, None).0
}

/// [`sort_with_system`] on `set`'s `threads` workers, also returning the
/// per-sort [`SortProfile`](crate::metrics::SortProfile) when the profile
/// runs the real pipeline (`RowsortDb`), whose sort borrows `set`'s
/// buffer pool and crew; the emulated systems are not instrumented and
/// return `None`. `EXPLAIN ANALYZE` uses this to annotate Sort operators
/// with the phase breakdown. `stats`, when given, are `input`'s table's
/// statistics, which the real pipeline plans its key from
/// ([`SortPipeline::sort_with_stats`]); the emulated systems plan nothing.
pub fn sort_with_system_profiled(
    profile: SystemProfile,
    input: &DataChunk,
    order: &OrderBy,
    set: &SortResources,
    stats: Option<&TableStats>,
) -> (DataChunk, Option<crate::metrics::SortProfile>) {
    let threads = set.threads();
    match profile {
        SystemProfile::RowsortDb => {
            // Not `SortOptions::default()`: its thread count, which the
            // crew's replaces, would cost a query the host's CPU probe.
            let options = SortOptions {
                threads,
                run_rows: DEFAULT_RUN_ROWS,
                ovc: true,
            };
            let pipeline = SortPipeline::with_resources(input.types(), order.clone(), options, set);
            let sorted = pipeline.sort_with_stats(input, stats);
            (sorted, Some(pipeline.last_profile()))
        }
        SystemProfile::ColumnarJit => (columnar_jit_sort(input, order, threads), None),
        SystemProfile::ColumnarSingle => (columnar_single_sort(input, order), None),
        SystemProfile::CompiledRows => (
            compiled_rows_sort(input, order, threads, MergeKind::KWay),
            None,
        ),
        SystemProfile::CompiledRowsV2 => (
            compiled_rows_sort(input, order, threads, MergeKind::Cascade2Way),
            None,
        ),
    }
}

/// Rows per thread-local run for the emulated systems.
const RUN_ROWS: usize = 1 << 17;

// ---------------------------------------------------------------------------
// Columnar comparator machinery (typed, no boxed values)
// ---------------------------------------------------------------------------

/// Per-key-column index comparator over DSM vectors.
type IdxCmp<'a> = Box<dyn Fn(u32, u32) -> Ordering + Send + Sync + 'a>;

fn column_idx_cmp<'a>(vec: &'a Vector, spec: rowsort_vector::SortSpec) -> IdxCmp<'a> {
    use rowsort_vector::NullOrder;
    let validity: &Validity = vec.validity();
    let all_valid = validity.all_valid();
    let null_cmp = move |a: usize, b: usize| -> Option<Ordering> {
        if all_valid {
            return None;
        }
        let (an, bn) = (!validity.is_valid(a), !validity.is_valid(b));
        match (an, bn) {
            (false, false) => None,
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(match spec.nulls {
                NullOrder::NullsFirst => Ordering::Less,
                NullOrder::NullsLast => Ordering::Greater,
            }),
            (false, true) => Some(match spec.nulls {
                NullOrder::NullsFirst => Ordering::Greater,
                NullOrder::NullsLast => Ordering::Less,
            }),
        }
    };
    macro_rules! cmp_closure {
        ($vals:expr, $cmp:expr) => {{
            let vals = $vals;
            let cmp = $cmp;
            Box::new(move |a: u32, b: u32| {
                let (a, b) = (a as usize, b as usize);
                if let Some(ord) = null_cmp(a, b) {
                    return ord;
                }
                spec.order.apply(cmp(&vals[a], &vals[b]))
            })
        }};
    }
    match vec.data() {
        VectorData::Boolean(v) => cmp_closure!(v, |a: &bool, b: &bool| a.cmp(b)),
        VectorData::Int8(v) => cmp_closure!(v, |a: &i8, b: &i8| a.cmp(b)),
        VectorData::Int16(v) => cmp_closure!(v, |a: &i16, b: &i16| a.cmp(b)),
        VectorData::Int32(v) => cmp_closure!(v, |a: &i32, b: &i32| a.cmp(b)),
        VectorData::Int64(v) => cmp_closure!(v, |a: &i64, b: &i64| a.cmp(b)),
        VectorData::UInt8(v) => cmp_closure!(v, |a: &u8, b: &u8| a.cmp(b)),
        VectorData::UInt16(v) => cmp_closure!(v, |a: &u16, b: &u16| a.cmp(b)),
        VectorData::UInt32(v) => cmp_closure!(v, |a: &u32, b: &u32| a.cmp(b)),
        VectorData::UInt64(v) => cmp_closure!(v, |a: &u64, b: &u64| a.cmp(b)),
        VectorData::Float32(v) => cmp_closure!(v, |a: &f32, b: &f32| a.total_cmp(b)),
        VectorData::Float64(v) => cmp_closure!(v, |a: &f64, b: &f64| a.total_cmp(b)),
        VectorData::Date(v) => cmp_closure!(v, |a: &i32, b: &i32| a.cmp(b)),
        VectorData::Timestamp(v) => cmp_closure!(v, |a: &i64, b: &i64| a.cmp(b)),
        VectorData::Varchar(v) => {
            let strings = v;
            Box::new(move |a: u32, b: u32| {
                let (a, b) = (a as usize, b as usize);
                if let Some(ord) = null_cmp(a, b) {
                    return ord;
                }
                spec.order
                    .apply(strings.get_bytes(a).cmp(strings.get_bytes(b)))
            })
        }
    }
}

fn columnar_comparators<'a>(input: &'a DataChunk, order: &OrderBy) -> Vec<IdxCmp<'a>> {
    order
        .keys
        .iter()
        .map(|k| column_idx_cmp(input.column(k.column), k.spec))
        .collect()
}

fn tuple_cmp(cmps: &[IdxCmp<'_>], a: u32, b: u32) -> Ordering {
    for c in cmps {
        let ord = c(a, b);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn gather_chunk(input: &DataChunk, order: &[u32]) -> DataChunk {
    let indices: Vec<usize> = order.iter().map(|&i| i as usize).collect();
    input.take(&indices)
}

// ---------------------------------------------------------------------------
// ClickHouse-like: columnar, radix for single int key, k-way merge
// ---------------------------------------------------------------------------

#[expect(
    clippy::unwrap_used,
    reason = "the runs lock is poisoned only by a run worker that panicked, and \
              `thread::scope` re-raises that panic before the lock is read again"
)]
fn columnar_jit_sort(input: &DataChunk, order: &OrderBy, threads: usize) -> DataChunk {
    let n = input.len();
    if n == 0 {
        return DataChunk::new(&input.types());
    }
    let radix_key = match order.keys.as_slice() {
        [key] => {
            let ty = input.types()[key.column];
            (ty.is_integer() || ty == LogicalType::Date).then_some(key)
        }
        _ => None,
    };

    // Thread-local run generation over morsels (index runs).
    let morsels = n.div_ceil(RUN_ROWS);
    let next = AtomicUsize::new(0);
    let runs: Mutex<Vec<Vec<u32>>> = Mutex::new(Vec::new());
    let cmps = columnar_comparators(input, order);
    let make_run = |lo: usize, hi: usize| -> Vec<u32> {
        if let Some(key) = radix_key {
            columnar_radix_run(input, key, lo, hi)
        } else {
            let mut idxs: Vec<u32> = (lo as u32..hi as u32).collect();
            pdqsort(&mut idxs, &mut |a: &u32, b: &u32| {
                tuple_cmp(&cmps, *a, *b) == Ordering::Less
            });
            idxs
        }
    };
    let workers = threads.min(morsels).max(1);
    if workers == 1 {
        let mut out = Vec::with_capacity(morsels);
        for m in 0..morsels {
            let lo = m * RUN_ROWS;
            out.push(make_run(lo, (lo + RUN_ROWS).min(n)));
        }
        *runs.lock().unwrap() = out;
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let m = next.fetch_add(1, AtomicOrdering::AcqRel);
                    if m >= morsels {
                        break;
                    }
                    let lo = m * RUN_ROWS;
                    let run = make_run(lo, (lo + RUN_ROWS).min(n));
                    runs.lock().unwrap().push(run);
                });
            }
        });
    }
    let runs = runs.into_inner().unwrap();

    // K-way merge of the index runs.
    let merged = kway_merge_indices(&runs, |a, b| tuple_cmp(&cmps, a, b));
    gather_chunk(input, &merged)
}

/// Radix sort of one integer key column: encode (normalized key, row id)
/// pairs and LSD-radix them — ClickHouse's single-column special case.
#[expect(
    clippy::unwrap_used,
    reason = "each row id is a 4-byte slice of its row"
)]
fn columnar_radix_run(input: &DataChunk, key: &OrderByColumn, lo: usize, hi: usize) -> Vec<u32> {
    let vec = input.column(key.column);
    let ty = vec.logical_type();
    let col = KeyColumn::fixed(ty, key.spec);
    let kw = col.encoded_width();
    let stride = kw + 4;
    let n = hi - lo;
    let mut data = vec![0u8; n * stride];
    let morsel = vec.slice(lo, hi);
    encode_column_into(&morsel, &col, &mut data, stride, 0, 0);
    for i in 0..n {
        let rid = (lo + i) as u32;
        data[i * stride + kw..i * stride + kw + 4].copy_from_slice(&rid.to_le_bytes());
    }
    lsd_radix_sort_rows(&mut data, stride, 0, kw, &NoProbe);
    (0..n)
        .map(|i| {
            u32::from_le_bytes(
                data[i * stride + kw..i * stride + kw + 4]
                    .try_into()
                    .unwrap(),
            )
        })
        .collect()
}

fn kway_merge_indices(runs: &[Vec<u32>], cmp: impl Fn(u32, u32) -> Ordering) -> Vec<u32> {
    let k = runs.len();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    if let [run] = runs {
        return run.clone();
    }
    let mut out = Vec::with_capacity(total);
    let mut pos = vec![0usize; k];
    let mut tree = {
        let pos_ref = &pos;
        LoserTree::new(
            k,
            |i| pos_ref[i] >= runs[i].len(),
            |a, b| cmp(runs[a][pos_ref[a]], runs[b][pos_ref[b]]) == Ordering::Less,
        )
    };
    for _ in 0..total {
        let w = tree.winner();
        out.push(runs[w][pos[w]]);
        pos[w] += 1;
        let pos_ref = &pos;
        tree.replay(w, &mut |i| pos_ref[i] >= runs[i].len(), &mut |a, b| {
            cmp(runs[a][pos_ref[a]], runs[b][pos_ref[b]]) == Ordering::Less
        });
    }
    out
}

// ---------------------------------------------------------------------------
// MonetDB-like: single-threaded columnar subsort
// ---------------------------------------------------------------------------

fn columnar_single_sort(input: &DataChunk, order: &OrderBy) -> DataChunk {
    use rowsort_algos::introsort::introsort;
    let n = input.len();
    if n == 0 {
        return DataChunk::new(&input.types());
    }
    let cmps = columnar_comparators(input, order);
    let mut idxs: Vec<u32> = (0..n as u32).collect();

    fn subsort(idxs: &mut [u32], cmps: &[IdxCmp<'_>], depth: usize) {
        if idxs.len() < 2 || depth >= cmps.len() {
            return;
        }
        let c = &cmps[depth];
        introsort(
            idxs,
            &mut |a: &u32, b: &u32| c(*a, *b) == Ordering::Less,
            &NoProbe,
        );
        if depth + 1 >= cmps.len() {
            return;
        }
        let mut run_start = 0;
        for i in 1..=idxs.len() {
            let tied = i < idxs.len() && c(idxs[i - 1], idxs[i]) == Ordering::Equal;
            if !tied {
                if i - run_start > 1 {
                    subsort(&mut idxs[run_start..i], cmps, depth + 1);
                }
                run_start = i;
            }
        }
    }
    subsort(&mut idxs, &cmps, 0);
    gather_chunk(input, &idxs)
}

// ---------------------------------------------------------------------------
// HyPer/Umbra-like: compiled rows, pointer sorts and merges
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum MergeKind {
    KWay,
    Cascade2Way,
}

#[expect(
    clippy::unwrap_used,
    reason = "the runs lock is poisoned only by a run worker that panicked, and \
              `thread::scope` re-raises that panic before the lock is read again; a \
              non-empty input makes at least one run, and the cascade leaves exactly one"
)]
fn compiled_rows_sort(
    input: &DataChunk,
    order: &OrderBy,
    threads: usize,
    merge: MergeKind,
) -> DataChunk {
    let n = input.len();
    if n == 0 {
        return DataChunk::new(&input.types());
    }
    // Materialize NSM rows once ("generated data types").
    let layout = Arc::new(RowLayout::new(&input.types()));
    let mut block = RowBlock::with_capacity(Arc::clone(&layout), n);
    for part in input.split_into_vectors() {
        block.append_chunk(&part);
    }
    let cmp = FusedRowComparator::new(&layout, order);
    let is_less = |a: u32, b: u32| -> bool {
        cmp.compare(
            block.row(a as usize),
            block.heap(),
            block.row(b as usize),
            block.heap(),
        ) == Ordering::Less
    };

    // Thread-local pointer sorts.
    let morsels = n.div_ceil(RUN_ROWS);
    let next = AtomicUsize::new(0);
    let runs: Mutex<Vec<Vec<u32>>> = Mutex::new(Vec::new());
    let workers = threads.min(morsels).max(1);
    let make_run = |lo: usize, hi: usize| -> Vec<u32> {
        let mut idxs: Vec<u32> = (lo as u32..hi as u32).collect();
        pdqsort(&mut idxs, &mut |a: &u32, b: &u32| is_less(*a, *b));
        idxs
    };
    if workers == 1 {
        let mut out = Vec::with_capacity(morsels);
        for m in 0..morsels {
            let lo = m * RUN_ROWS;
            out.push(make_run(lo, (lo + RUN_ROWS).min(n)));
        }
        *runs.lock().unwrap() = out;
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let m = next.fetch_add(1, AtomicOrdering::AcqRel);
                    if m >= morsels {
                        break;
                    }
                    let lo = m * RUN_ROWS;
                    let run = make_run(lo, (lo + RUN_ROWS).min(n));
                    runs.lock().unwrap().push(run);
                });
            }
        });
    }
    let mut runs = runs.into_inner().unwrap();

    // Merge pointers only; rows move once, at output.
    let merged: Vec<u32> = match merge {
        MergeKind::KWay => kway_merge_indices(&runs, |a, b| {
            cmp.compare(
                block.row(a as usize),
                block.heap(),
                block.row(b as usize),
                block.heap(),
            )
        }),
        MergeKind::Cascade2Way => {
            while runs.len() > 1 {
                let mut next_round = Vec::with_capacity(runs.len().div_ceil(2));
                let mut it = runs.into_iter();
                loop {
                    match (it.next(), it.next()) {
                        (Some(a), Some(b)) => {
                            let mut out = Vec::with_capacity(a.len() + b.len());
                            let (mut i, mut j) = (0, 0);
                            while i < a.len() && j < b.len() {
                                if is_less(b[j], a[i]) {
                                    out.push(b[j]);
                                    j += 1;
                                } else {
                                    out.push(a[i]);
                                    i += 1;
                                }
                            }
                            out.extend_from_slice(&a[i..]);
                            out.extend_from_slice(&b[j..]);
                            next_round.push(out);
                        }
                        (Some(a), None) => {
                            next_round.push(a);
                            break;
                        }
                        (None, _) => break,
                    }
                }
                runs = next_round;
            }
            runs.pop().unwrap()
        }
    };

    // Payload gathered once, when the operator's output is read.
    block.gather(&merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_sorted_permutation, pseudo_random};
    use rowsort_vector::{OrderByColumn, SortSpec, Value};

    fn check_profile(profile: SystemProfile, chunk: &DataChunk, order: &OrderBy, threads: usize) {
        let got = sort_with_system(profile, chunk, order, threads);
        assert_sorted_permutation(&got, chunk, order, profile.label());
    }

    #[test]
    fn all_profiles_sort_single_int_key() {
        let keys: Vec<i32> = pseudo_random(5_000, 1, 100_000)
            .into_iter()
            .map(|v| v as i32 - 50_000)
            .collect();
        let payload: Vec<u32> = (0..5_000).collect();
        let chunk =
            DataChunk::from_columns(vec![Vector::from_i32s(keys), Vector::from_u32s(payload)])
                .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        for p in SystemProfile::ALL {
            check_profile(p, &chunk, &order, 2);
        }
    }

    #[test]
    fn all_profiles_sort_multi_key_with_nulls() {
        let mut chunk = DataChunk::new(&[LogicalType::Int32, LogicalType::Int32]);
        let a = pseudo_random(3_000, 2, 16);
        let b = pseudo_random(3_000, 3, 16);
        for i in 0..3_000 {
            let va = if a[i] == 0 {
                Value::Null
            } else {
                Value::Int32(a[i] as i32)
            };
            let vb = if b[i] == 1 {
                Value::Null
            } else {
                Value::Int32(b[i] as i32)
            };
            chunk.push_row(&[va, vb]).unwrap();
        }
        let order = OrderBy::new(vec![
            OrderByColumn {
                column: 0,
                spec: SortSpec::DESC,
            },
            OrderByColumn::asc(1),
        ]);
        for p in SystemProfile::ALL {
            check_profile(p, &chunk, &order, 2);
        }
    }

    #[test]
    fn all_profiles_sort_strings() {
        let names = ["Smith", "Johnson", "Williams", "Brown", "Jones"];
        let strings: Vec<String> = pseudo_random(2_000, 4, 5)
            .iter()
            .map(|&i| names[i as usize].to_owned())
            .collect();
        let sk: Vec<i32> = (0..2_000).collect();
        let chunk =
            DataChunk::from_columns(vec![Vector::from_strings(strings), Vector::from_i32s(sk)])
                .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        for p in SystemProfile::ALL {
            check_profile(p, &chunk, &order, 2);
        }
    }

    #[test]
    fn all_profiles_sort_floats() {
        let floats: Vec<f64> = pseudo_random(2_000, 5, 1 << 20)
            .iter()
            .map(|&v| (v as f64 - 500_000.0) * 1e3)
            .collect();
        let chunk = DataChunk::from_columns(vec![Vector::from_f64s(floats)]).unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        for p in SystemProfile::ALL {
            check_profile(p, &chunk, &order, 1);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = SystemProfile::ALL.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn empty_input_all_profiles() {
        let chunk = DataChunk::new(&[LogicalType::Int32]);
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        for p in SystemProfile::ALL {
            let got = sort_with_system(p, &chunk, &order, 2);
            assert!(got.is_empty(), "{}", p.label());
        }
    }
}
