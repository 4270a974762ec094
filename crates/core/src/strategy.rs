//! The §IV–§VI design-space strategies over u32 key columns.
//!
//! These are the micro-benchmark kernels behind Figures 2–9: every
//! combination of
//!
//! * data format — DSM (sort an index array) vs NSM (physically move rows),
//! * comparison strategy — tuple-at-a-time (branching comparator over all
//!   key columns) vs subsort (one column per pass, recursing into ties),
//! * comparator binding — static/monomorphized ("compiled engine") vs
//!   dynamic per-column function calls ("interpreted engine"),
//! * algorithm — introsort (`std::sort`), merge sort (`std::stable_sort`),
//!   or pdqsort,
//!
//! plus the §VI normalized-key representations sorted with a `memcmp`
//! comparator or byte-wise radix sort.
//!
//! The entries Tables II/III and Figure 10 count take a [`Probe`]: the
//! kernel reports its moves and comparison branches, the comparators and
//! tie scans here their column reads and tie branches. Timed callers pass
//! `&NoProbe`. Merge sort and the typed pdqsort are not probed.

use crate::comparator::static_tuple_less;
use rowsort_algos::introsort::{introsort, introsort_rows};
use rowsort_algos::mergesort::{merge_sort, merge_sort_rows};
use rowsort_algos::pdqsort::{pdqsort, pdqsort_rows};
use rowsort_algos::radix::radix_sort_rows;
use rowsort_algos::rows::RowsMut;
use rowsort_algos::{NoProbe, Probe};
use std::cmp::Ordering;

/// Branch sites: the tie scan of a subsort, then the tuple comparators'
/// "this column ties" test, one per key column.
const SITE: u32 = 0x60;

/// Which sorting algorithm a strategy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Introspective sort — the paper's `std::sort`.
    Introsort,
    /// Stable merge sort — the paper's `std::stable_sort`.
    MergeSort,
    /// Pattern-defeating quicksort.
    Pdq,
}

fn sort_typed<T, F, P>(v: &mut [T], algo: Algo, is_less: &mut F, probe: &P)
where
    T: Clone,
    F: FnMut(&T, &T) -> bool,
    P: Probe,
{
    match algo {
        Algo::Introsort => introsort(v, is_less, probe),
        Algo::MergeSort => merge_sort(v, is_less),
        Algo::Pdq => pdqsort(v, is_less),
    }
}

fn sort_byte_rows<F: FnMut(&[u8], &[u8]) -> bool, P: Probe>(
    rows: &mut RowsMut<'_>,
    algo: Algo,
    is_less: &mut F,
    probe: &P,
) {
    match algo {
        Algo::Introsort => introsort_rows(rows, is_less, probe),
        Algo::MergeSort => merge_sort_rows(rows, is_less),
        Algo::Pdq => pdqsort_rows(rows, is_less, probe),
    }
}

/// `col[r]`, reported to `probe` as a load.
fn load<P: Probe>(col: &[u32], r: usize, probe: &P) -> u32 {
    probe.read(col, r, 1);
    col[r]
}

// ---------------------------------------------------------------------------
// DSM strategies: sort an index array
// ---------------------------------------------------------------------------

/// Columnar tuple-at-a-time: sort row indices with a comparator that walks
/// the key columns, randomly accessing each and branching on ties.
pub fn columnar_tuple<P: Probe>(cols: &[Vec<u32>], algo: Algo, probe: &P) -> Vec<u32> {
    let n = cols.first().map_or(0, Vec::len);
    let mut idxs: Vec<u32> = (0..n as u32).collect();
    cols.iter().for_each(|col| probe.buffer(col));
    probe.buffer(&idxs);
    let mut is_less = |a: &u32, b: &u32| -> bool {
        let (a, b) = (*a as usize, *b as usize);
        for (c, col) in (SITE + 1..).zip(cols) {
            let (x, y) = (load(col, a, probe), load(col, b, probe));
            if probe.branch(c, x != y) {
                return x < y;
            }
        }
        false
    };
    sort_typed(&mut idxs, algo, &mut is_less, probe);
    idxs
}

/// Columnar subsort: sort indices by one column at a time (single-column
/// comparator, no tie branch), then identify tied ranges and recurse into
/// them on the next column.
pub fn columnar_subsort<P: Probe>(cols: &[Vec<u32>], algo: Algo, probe: &P) -> Vec<u32> {
    let n = cols.first().map_or(0, Vec::len);
    let mut idxs: Vec<u32> = (0..n as u32).collect();
    cols.iter().for_each(|col| probe.buffer(col));
    probe.buffer(&idxs);
    subsort_indices(cols, &mut idxs, 0, algo, probe);
    idxs
}

fn subsort_indices<P: Probe>(
    cols: &[Vec<u32>],
    idxs: &mut [u32],
    col: usize,
    algo: Algo,
    probe: &P,
) {
    if idxs.len() < 2 || col >= cols.len() {
        return;
    }
    let column = &cols[col];
    let mut is_less =
        |a: &u32, b: &u32| load(column, *a as usize, probe) < load(column, *b as usize, probe);
    sort_typed(idxs, algo, &mut is_less, probe);
    if col + 1 >= cols.len() {
        return;
    }
    // Recurse into maximal tied runs.
    let mut run_start = 0;
    for i in 1..=idxs.len() {
        let tied = i < idxs.len() && {
            let (a, b) = (load(idxs, i - 1, probe), load(idxs, i, probe));
            let (x, y) = (
                load(column, a as usize, probe),
                load(column, b as usize, probe),
            );
            probe.branch(SITE, x == y)
        };
        if !tied {
            if i - run_start > 1 {
                subsort_indices(cols, &mut idxs[run_start..i], col + 1, algo, probe);
            }
            run_start = i;
        }
    }
}

// ---------------------------------------------------------------------------
// NSM strategies: physically move rows
// ---------------------------------------------------------------------------

/// A buffer of native-endian u32 rows — the generic NSM representation an
/// interpreted engine works with when it cannot generate a typed struct.
#[derive(Debug, Clone)]
pub struct ByteRows {
    /// Row-major bytes: row i at `data[i*ncols*4 .. (i+1)*ncols*4]`.
    pub data: Vec<u8>,
    /// Key columns per row.
    pub ncols: usize,
}

impl ByteRows {
    /// Convert DSM columns into NSM rows.
    pub fn from_cols(cols: &[Vec<u32>]) -> ByteRows {
        let n = cols.first().map_or(0, Vec::len);
        let ncols = cols.len();
        let mut data = Vec::with_capacity(n * ncols * 4);
        for r in 0..n {
            for col in cols {
                data.extend_from_slice(&col[r].to_le_bytes());
            }
        }
        ByteRows { data, ncols }
    }

    /// Bytes per row.
    pub fn width(&self) -> usize {
        self.ncols * 4
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width()
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Decode back to row-major u32 tuples (for verification).
    #[expect(
        clippy::unwrap_used,
        reason = "`chunks(4)` of a row of u32 keys yields 4-byte slices"
    )]
    pub fn to_tuples(&self) -> Vec<Vec<u32>> {
        self.data
            .chunks(self.width())
            .map(|row| {
                row.chunks(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect()
            })
            .collect()
    }
}

/// Key column `c` of `row`, reported to `probe` as a load.
#[inline]
#[expect(clippy::unwrap_used, reason = "the range is 4 bytes long")]
fn row_u32<P: Probe>(row: &[u8], c: usize, probe: &P) -> u32 {
    probe.read(row, c * 4, 4);
    u32::from_le_bytes(row[c * 4..c * 4 + 4].try_into().unwrap())
}

/// NSM tuple-at-a-time with a *fused* comparator: one function walks all
/// columns (the shape a compiled engine generates). Rows move physically.
pub fn row_tuple_fused<P: Probe>(rows: &mut ByteRows, algo: Algo, probe: &P) {
    let ncols = rows.ncols;
    let width = rows.width();
    probe.buffer(&rows.data);
    let mut view = RowsMut::new(&mut rows.data, width);
    let mut is_less = |a: &[u8], b: &[u8]| {
        for c in 0..ncols {
            let (x, y) = (row_u32(a, c, probe), row_u32(b, c, probe));
            if probe.branch(SITE + 1 + c as u32, x != y) {
                return x < y;
            }
        }
        false
    };
    sort_byte_rows(&mut view, algo, &mut is_less, probe);
}

/// NSM tuple-at-a-time with a *dynamic* comparator: one boxed function
/// call per key column on every comparison — the interpreted-engine
/// overhead of Figure 6.
pub fn row_tuple_dynamic(rows: &mut ByteRows, algo: Algo) {
    let width = rows.width();
    type ColFn = Box<dyn Fn(&[u8], &[u8]) -> Ordering>;
    let fns: Vec<ColFn> = (0..rows.ncols)
        .map(|c| {
            let f: ColFn = Box::new(move |a: &[u8], b: &[u8]| {
                row_u32(a, c, &NoProbe).cmp(&row_u32(b, c, &NoProbe))
            });
            f
        })
        .collect();
    let mut view = RowsMut::new(&mut rows.data, width);
    sort_byte_rows(
        &mut view,
        algo,
        &mut |a: &[u8], b: &[u8]| {
            for f in &fns {
                match f(a, b) {
                    Ordering::Less => return true,
                    Ordering::Greater => return false,
                    Ordering::Equal => continue,
                }
            }
            false
        },
        &NoProbe,
    );
}

/// NSM subsort: per-column passes with tie recursion, physically moving
/// rows each pass.
pub fn row_subsort<P: Probe>(rows: &mut ByteRows, algo: Algo, probe: &P) {
    let ncols = rows.ncols;
    let width = rows.width();
    let n = rows.len();
    probe.buffer(&rows.data);
    let mut view = RowsMut::new(&mut rows.data, width);
    row_subsort_range(&mut view, 0, n, 0, ncols, algo, probe);
}

fn row_subsort_range<P: Probe>(
    rows: &mut RowsMut<'_>,
    lo: usize,
    hi: usize,
    col: usize,
    ncols: usize,
    algo: Algo,
    probe: &P,
) {
    if hi - lo < 2 || col >= ncols {
        return;
    }
    {
        let mut range = rows.sub(lo, hi);
        let mut is_less = |a: &[u8], b: &[u8]| row_u32(a, col, probe) < row_u32(b, col, probe);
        sort_byte_rows(&mut range, algo, &mut is_less, probe);
    }
    if col + 1 >= ncols {
        return;
    }
    let mut run_start = lo;
    for i in lo + 1..=hi {
        let tied = i < hi && {
            let (x, y) = (
                row_u32(rows.row(i - 1), col, probe),
                row_u32(rows.row(i), col, probe),
            );
            probe.branch(SITE, x == y)
        };
        if !tied {
            if i - run_start > 1 {
                row_subsort_range(rows, run_start, i, col + 1, ncols, algo, probe);
            }
            run_start = i;
        }
    }
}

/// Convert columns to typed `[u32; N]` rows — the compiled engine's
/// generated `OrderKey` struct.
pub fn to_static_rows<const N: usize>(cols: &[Vec<u32>]) -> Vec<[u32; N]> {
    assert_eq!(cols.len(), N);
    let n = cols.first().map_or(0, Vec::len);
    (0..n)
        .map(|r| std::array::from_fn(|c| cols[c][r]))
        .collect()
}

/// NSM tuple-at-a-time with a fully *static* (monomorphized) comparator
/// over typed rows — the compiled-engine kernel.
pub fn row_tuple_static<const N: usize>(rows: &mut [[u32; N]], algo: Algo) {
    sort_typed(
        rows,
        algo,
        &mut |a: &[u32; N], b: &[u32; N]| static_tuple_less(a, b),
        &NoProbe,
    );
}

// ---------------------------------------------------------------------------
// §VI normalized-key strategies
// ---------------------------------------------------------------------------

/// Big-endian-encoded key rows comparable with `memcmp` (the micro-
/// benchmark's keys are non-NULL u32 columns, so no NULL bytes are
/// needed; widths match the raw rows).
#[derive(Debug, Clone)]
pub struct NormRows {
    /// Row-major encoded keys.
    pub data: Vec<u8>,
    /// Bytes per key.
    pub width: usize,
}

impl NormRows {
    /// Encode columns into normalized keys.
    pub fn from_cols(cols: &[Vec<u32>]) -> NormRows {
        let n = cols.first().map_or(0, Vec::len);
        let width = cols.len() * 4;
        let mut data = Vec::with_capacity(n * width);
        for r in 0..n {
            for col in cols {
                data.extend_from_slice(&col[r].to_be_bytes());
            }
        }
        NormRows { data, width }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// `true` iff there are no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Decode back to u32 tuples (for verification).
    #[expect(
        clippy::unwrap_used,
        reason = "`chunks(4)` of a row of u32 keys yields 4-byte slices"
    )]
    pub fn to_tuples(&self) -> Vec<Vec<u32>> {
        self.data
            .chunks(self.width)
            .map(|row| {
                row.chunks(4)
                    .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
                    .collect()
            })
            .collect()
    }
}

/// Sort normalized keys with a comparison sort using a dynamic `memcmp`
/// comparator (length known only at run time) — Figures 8 and 9's
/// comparison-based contender.
pub fn normkey_sort<P: Probe>(rows: &mut NormRows, algo: Algo, probe: &P) {
    let width = rows.width;
    probe.buffer(&rows.data);
    let mut view = RowsMut::new(&mut rows.data, width);
    let mut is_less = |a: &[u8], b: &[u8]| probe.less_bytes(a, b);
    sort_byte_rows(&mut view, algo, &mut is_less, probe);
}

/// Sort normalized keys with byte-wise radix sort (LSD for keys of up to
/// `LSD_MAX_KEY_BYTES` = 8 bytes, MSD otherwise) — no comparisons at all.
pub fn normkey_radix<P: Probe>(rows: &mut NormRows, probe: &P) {
    let width = rows.width;
    radix_sort_rows(&mut rows.data, width, 0, width, probe);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_algos::NoProbe;
    use rowsort_datagen::{key_columns, KeyDistribution};

    fn reference(cols: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let n = cols[0].len();
        let mut rows: Vec<Vec<u32>> = (0..n)
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect();
        rows.sort();
        rows
    }

    fn apply_perm(cols: &[Vec<u32>], perm: &[u32]) -> Vec<Vec<u32>> {
        perm.iter()
            .map(|&i| cols.iter().map(|c| c[i as usize]).collect())
            .collect()
    }

    fn workloads() -> Vec<Vec<Vec<u32>>> {
        let mut out = Vec::new();
        for dist in [
            KeyDistribution::Random,
            KeyDistribution::Correlated(0.5),
            KeyDistribution::Correlated(1.0),
        ] {
            for ncols in [1usize, 2, 4] {
                out.push(key_columns(dist, 2_000, ncols, 42));
            }
        }
        out
    }

    #[test]
    fn columnar_strategies_sort_correctly() {
        for cols in workloads() {
            let expected = reference(&cols);
            for algo in [Algo::Introsort, Algo::MergeSort, Algo::Pdq] {
                let p1 = columnar_tuple(&cols, algo, &NoProbe);
                assert_eq!(apply_perm(&cols, &p1), expected, "tuple {algo:?}");
                let p2 = columnar_subsort(&cols, algo, &NoProbe);
                assert_eq!(apply_perm(&cols, &p2), expected, "subsort {algo:?}");
            }
        }
    }

    #[test]
    fn row_strategies_sort_correctly() {
        for cols in workloads() {
            let expected = reference(&cols);
            for algo in [Algo::Introsort, Algo::MergeSort, Algo::Pdq] {
                let mut r = ByteRows::from_cols(&cols);
                row_tuple_fused(&mut r, algo, &NoProbe);
                assert_eq!(r.to_tuples(), expected, "fused {algo:?}");

                let mut r = ByteRows::from_cols(&cols);
                row_tuple_dynamic(&mut r, algo);
                assert_eq!(r.to_tuples(), expected, "dynamic {algo:?}");

                let mut r = ByteRows::from_cols(&cols);
                row_subsort(&mut r, algo, &NoProbe);
                assert_eq!(r.to_tuples(), expected, "subsort {algo:?}");
            }
        }
    }

    #[test]
    fn static_rows_sort_correctly() {
        let cols = key_columns(KeyDistribution::Correlated(0.5), 3_000, 4, 7);
        let expected = reference(&cols);
        for algo in [Algo::Introsort, Algo::MergeSort, Algo::Pdq] {
            let mut rows = to_static_rows::<4>(&cols);
            row_tuple_static(&mut rows, algo);
            let got: Vec<Vec<u32>> = rows.iter().map(|r| r.to_vec()).collect();
            assert_eq!(got, expected, "{algo:?}");
        }
    }

    #[test]
    fn normkey_strategies_sort_correctly() {
        for cols in workloads() {
            let expected = reference(&cols);
            for algo in [Algo::Introsort, Algo::Pdq] {
                let mut r = NormRows::from_cols(&cols);
                normkey_sort(&mut r, algo, &NoProbe);
                assert_eq!(r.to_tuples(), expected, "normkey {algo:?}");
            }
            let mut r = NormRows::from_cols(&cols);
            normkey_radix(&mut r, &NoProbe);
            assert_eq!(r.to_tuples(), expected, "normkey radix");
        }
    }

    #[test]
    fn all_strategies_agree_with_each_other() {
        let cols = key_columns(KeyDistribution::Correlated(0.75), 1_500, 3, 99);
        let expected = reference(&cols);
        let via_columnar = apply_perm(&cols, &columnar_tuple(&cols, Algo::Introsort, &NoProbe));
        let via_norm = {
            let mut r = NormRows::from_cols(&cols);
            normkey_radix(&mut r, &NoProbe);
            r.to_tuples()
        };
        assert_eq!(via_columnar, expected);
        assert_eq!(via_norm, expected);
    }

    #[test]
    fn single_column_single_row() {
        let cols = vec![vec![5u32]];
        assert_eq!(columnar_tuple(&cols, Algo::Introsort, &NoProbe), vec![0]);
        let mut r = NormRows::from_cols(&cols);
        normkey_radix(&mut r, &NoProbe);
        assert_eq!(r.to_tuples(), vec![vec![5]]);
    }
}
