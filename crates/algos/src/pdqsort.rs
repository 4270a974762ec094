//! Pattern-defeating quicksort (Orson Peters, 2021) — the state-of-the-art
//! comparison sort the paper benchmarks radix sort against (§VI-B).
//!
//! Features implemented, following the published algorithm:
//!
//! * median-of-3 pivots, upgraded to a *ninther* (median of 3 medians of 3)
//!   on ranges ≥ 50;
//! * detection of likely-sorted ranges via pivot-selection swap counting,
//!   finished off with a bounded partial insertion sort;
//! * detection of likely-reversed ranges (the range is reversed wholesale);
//! * an "equal elements" partition (`partition_left`) entered when the pivot
//!   equals the predecessor pivot, making duplicate-heavy inputs O(n·k) for
//!   k distinct values;
//! * BlockQuickSort-style branchless offset-buffer partitioning for typed
//!   slices (the Edelkamp & Weiß technique the paper cites for reducing
//!   branch mispredictions);
//! * deterministic pattern breaking on unbalanced partitions and a heapsort
//!   fallback after log₂(n) bad partitions, defeating quicksort killers.
//!
//! Two shapes are provided: [`pdqsort`] over `&mut [T]` and
//! [`pdqsort_rows`] over fixed-width byte rows (scalar partitioning — row
//! moves are `memcpy`-bound, which is the cost profile an interpreted
//! engine sees).

use crate::heapsort::{heapsort, heapsort_rows};
use crate::insertion::{insertion_sort, insertion_sort_rows, partial_insertion_sort};
use crate::probe::{NoProbe, Probe};
use crate::rows::RowsMut;

/// Ranges at or below this length use insertion sort (pdqsort's constant).
const INSERTION_THRESHOLD: usize = 24;
/// Ranges at or above this length use the ninther for pivot selection.
const SHORTEST_NINTHER: usize = 50;
/// Maximum move budget for the partial insertion sort probe.
const PARTIAL_INSERTION_LIMIT: usize = 8;
/// Pivot-selection swap count at which the range is deemed likely reversed.
const MAX_SWAPS: usize = 4 * 3;
/// Offset-buffer block size for the branchless partition.
const BLOCK: usize = 128;
/// Branch sites of the row sort: the predecessor-pivot test, the partial
/// insertion sort, pivot selection, the four scans of `partition_right_rows`
/// and the two of `partition_left_rows`.
const SITE: u32 = 0x40;

fn log2(n: usize) -> u32 {
    usize::BITS - n.leading_zeros()
}

/// Sort `v` with pattern-defeating quicksort.
///
/// ```
/// let mut v = [5u32, 1, 4, 1, 3];
/// rowsort_algos::pdqsort::pdqsort(&mut v, &mut |a, b| a < b);
/// assert_eq!(v, [1, 1, 3, 4, 5]);
/// ```
pub fn pdqsort<T, F>(v: &mut [T], is_less: &mut F)
where
    T: Clone,
    F: FnMut(&T, &T) -> bool,
{
    if v.len() <= 1 {
        return;
    }
    let limit = log2(v.len());
    recurse(v, is_less, None, limit);
}

fn recurse<T, F>(mut v: &mut [T], is_less: &mut F, mut pred: Option<T>, mut limit: u32)
where
    T: Clone,
    F: FnMut(&T, &T) -> bool,
{
    let mut was_balanced = true;
    let mut was_partitioned = true;
    loop {
        let len = v.len();
        if len <= INSERTION_THRESHOLD {
            insertion_sort(v, is_less, &NoProbe);
            return;
        }
        if limit == 0 {
            heapsort(v, is_less, &NoProbe);
            return;
        }
        // A previous bad partition suggests an adversarial pattern: shuffle
        // some elements to break it, and spend one unit of the bad-partition
        // budget.
        if !was_balanced {
            break_patterns(v);
            limit -= 1;
        }

        let (pivot_idx, likely_sorted) = choose_pivot(v, is_less);

        // If balanced, partitioned, and pivot selection saw no inversions,
        // the slice is probably (nearly) sorted: try to finish cheaply.
        if was_balanced && was_partitioned && likely_sorted {
            if let Some(sorted) = try_partial_sort(v, is_less) {
                if sorted {
                    return;
                }
            }
        }

        // Pivot equal to predecessor pivot ⇒ everything ≤ pivot here is
        // *equal* to it; sweep the equal run left and continue right.
        if let Some(p) = &pred {
            if !is_less(p, &v[pivot_idx]) {
                let mid = partition_left(v, pivot_idx, is_less);
                v = &mut v[mid..];
                continue;
            }
        }

        let (mid, already) = partition_right(v, pivot_idx, is_less);
        was_balanced = mid.min(len - mid) >= len / 8;
        was_partitioned = already;

        let (left, rest) = v.split_at_mut(mid);
        // `rest` starts at the pivot slot — partition_right returns
        // `mid < len`, so it is never empty.
        let Some((pivot_slot, right)) = rest.split_first_mut() else {
            return;
        };
        // lint:allow(R003): one pivot copy per partition step — O(log n)
        // clones per sort for the predecessor-pivot check, not per element.
        let pivot_val = pivot_slot.clone();
        if left.len() < right.len() {
            recurse(left, is_less, pred, limit);
            v = right;
            pred = Some(pivot_val);
        } else {
            recurse(right, is_less, Some(pivot_val), limit);
            v = left;
        }
    }
}

/// Attempt to sort an almost-sorted slice with a bounded insertion sort.
/// Returns `Some(true)` if the slice is now sorted, `Some(false)` if the
/// budget ran out.
fn try_partial_sort<T, F>(v: &mut [T], is_less: &mut F) -> Option<bool>
where
    F: FnMut(&T, &T) -> bool,
{
    Some(partial_insertion_sort(v, is_less, PARTIAL_INSERTION_LIMIT))
}

/// Pick a pivot index and report whether the slice looks already sorted.
/// Only index variables are permuted (plus a wholesale reverse when the
/// slice looks descending).
fn choose_pivot<T, F>(v: &mut [T], is_less: &mut F) -> (usize, bool)
where
    F: FnMut(&T, &T) -> bool,
{
    let len = v.len();
    let mut a = len / 4;
    let mut b = len / 2;
    let mut c = (len / 4) * 3;
    let mut swaps = 0usize;

    if len >= 8 {
        if len >= SHORTEST_NINTHER {
            let mut sort_adjacent = |x: &mut usize, swaps: &mut usize| {
                let mut lo = *x - 1;
                let mut mid = *x;
                let mut hi = *x + 1;
                sort3(v, &mut lo, &mut mid, &mut hi, is_less, swaps);
                *x = mid;
            };
            sort_adjacent(&mut a, &mut swaps);
            sort_adjacent(&mut b, &mut swaps);
            sort_adjacent(&mut c, &mut swaps);
        }
        sort3(v, &mut a, &mut b, &mut c, is_less, &mut swaps);
    }

    if swaps < MAX_SWAPS {
        (b, swaps == 0)
    } else {
        // More inversions than a random slice should show: likely reversed.
        v.reverse();
        (len - 1 - b, true)
    }
}

fn sort3<T, F>(
    v: &[T],
    a: &mut usize,
    b: &mut usize,
    c: &mut usize,
    is_less: &mut F,
    swaps: &mut usize,
) where
    F: FnMut(&T, &T) -> bool,
{
    let mut sort2 = |x: &mut usize, y: &mut usize, swaps: &mut usize| {
        if is_less(&v[*y], &v[*x]) {
            std::mem::swap(x, y);
            *swaps += 1;
        }
    };
    sort2(a, b, swaps);
    sort2(b, c, swaps);
    sort2(a, b, swaps);
}

/// Partition `v` so elements < pivot come first; pivot lands at the
/// returned index. Also reports whether the slice was already partitioned.
fn partition_right<T, F>(v: &mut [T], pivot_idx: usize, is_less: &mut F) -> (usize, bool)
where
    F: FnMut(&T, &T) -> bool,
{
    v.swap(0, pivot_idx);
    let Some((pivot, rest)) = v.split_first_mut() else {
        // An empty slice is trivially partitioned.
        return (0, true);
    };
    let pivot = &*pivot;

    // Cheap skip over already-correct prefix/suffix.
    let mut l = 0;
    let mut r = rest.len();
    while l < r && is_less(&rest[l], pivot) {
        l += 1;
    }
    while l < r && !is_less(&rest[r - 1], pivot) {
        r -= 1;
    }
    let already_partitioned = l >= r;
    let mid = l + partition_in_blocks(&mut rest[l..r], pivot, is_less);
    v.swap(0, mid);
    (mid, already_partitioned)
}

/// Branchless block partition (BlockQuickSort / Rust std style): element
/// comparisons feed offset buffers with data-independent control flow, and
/// misplaced pairs are swapped afterwards. Returns the number of elements
/// `< pivot`.
fn partition_in_blocks<T, F>(v: &mut [T], pivot: &T, is_less: &mut F) -> usize
where
    F: FnMut(&T, &T) -> bool,
{
    let mut l = 0usize;
    let mut block_l = BLOCK;
    let mut start_l = 0usize;
    let mut end_l = 0usize;
    let mut offsets_l = [0u8; BLOCK];

    let mut r = v.len();
    let mut block_r = BLOCK;
    let mut start_r = 0usize;
    let mut end_r = 0usize;
    let mut offsets_r = [0u8; BLOCK];

    loop {
        let is_done = r - l <= 2 * BLOCK;
        if is_done {
            let mut rem = r - l;
            if start_l < end_l || start_r < end_r {
                rem -= BLOCK;
            }
            if start_l < end_l {
                block_r = rem;
            } else if start_r < end_r {
                block_l = rem;
            } else {
                block_l = rem / 2;
                block_r = rem - block_l;
            }
        }

        if start_l == end_l {
            // Scan left block: record offsets of elements >= pivot.
            start_l = 0;
            end_l = 0;
            for i in 0..block_l {
                offsets_l[end_l] = i as u8;
                end_l += !is_less(&v[l + i], pivot) as usize;
            }
        }
        if start_r == end_r {
            // Scan right block: record offsets of elements < pivot
            // (offset i addresses v[r - 1 - i]).
            start_r = 0;
            end_r = 0;
            for i in 0..block_r {
                offsets_r[end_r] = i as u8;
                end_r += is_less(&v[r - 1 - i], pivot) as usize;
            }
        }

        let count = (end_l - start_l).min(end_r - start_r);
        for i in 0..count {
            debug_assert!(start_l < end_l && start_r < end_r);
            let a = l + offsets_l[start_l + i] as usize;
            let b = r - 1 - offsets_r[start_r + i] as usize;
            v.swap(a, b);
        }
        start_l += count;
        start_r += count;

        if start_l == end_l {
            l += block_l;
        }
        if start_r == end_r {
            r -= block_r;
        }
        if is_done {
            break;
        }
    }

    // At most one offset buffer still holds misplaced elements.
    if start_l < end_l {
        // Remaining left-block elements >= pivot: move them to the end.
        while start_l < end_l {
            end_l -= 1;
            v.swap(l + offsets_l[end_l] as usize, r - 1);
            r -= 1;
        }
        r
    } else if start_r < end_r {
        // Remaining right-block elements < pivot: move them to the front.
        while start_r < end_r {
            end_r -= 1;
            v.swap(l, r - 1 - offsets_r[end_r] as usize);
            l += 1;
        }
        l
    } else {
        l
    }
}

/// Partition elements *equal* to the pivot to the front. Requires that no
/// element is smaller than the pivot (guaranteed by the predecessor-pivot
/// check). Returns the index of the first element greater than the pivot.
fn partition_left<T, F>(v: &mut [T], pivot_idx: usize, is_less: &mut F) -> usize
where
    F: FnMut(&T, &T) -> bool,
{
    v.swap(0, pivot_idx);
    let Some((pivot, rest)) = v.split_first_mut() else {
        // An empty slice has no element greater than the pivot.
        return 0;
    };
    let pivot = &*pivot;
    let mut l = 0usize;
    let mut r = rest.len();
    loop {
        while l < r && !is_less(pivot, &rest[l]) {
            l += 1;
        }
        while l < r && is_less(pivot, &rest[r - 1]) {
            r -= 1;
        }
        if l >= r {
            break;
        }
        r -= 1;
        rest.swap(l, r);
        l += 1;
    }
    // v[1..=l] are equal to pivot; pivot itself sits at 0 — all fine to
    // leave in place. First strictly-greater element is at l + 1.
    l + 1
}

/// Deterministically shuffle a few elements to break adversarial patterns.
fn break_patterns<T>(v: &mut [T]) {
    let len = v.len();
    if len < 8 {
        return;
    }
    // Xorshift seeded by length: deterministic, cheap, good enough.
    let mut seed = len as u64 | 1;
    let mut rand = move || {
        seed ^= seed << 13;
        seed ^= seed >> 17;
        seed ^= seed << 5;
        seed
    };
    let modulus = len.next_power_of_two();
    for i in [len / 4, len / 2, 3 * len / 4] {
        let mut other = rand() as usize & (modulus - 1);
        if other >= len {
            other -= len;
        }
        v.swap(i, other);
    }
}

// ---------------------------------------------------------------------------
// Row variant
// ---------------------------------------------------------------------------

/// Pattern-defeating quicksort over fixed-width byte rows.
///
/// The partition is scalar: runtime-width rows are moved with `memcpy`, so
/// movement, not branch prediction, dominates — matching how DuckDB's
/// modified pdqsort treats normalized-key rows.
pub fn pdqsort_rows<F, P: Probe>(rows: &mut RowsMut<'_>, is_less: &mut F, probe: &P)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    if rows.len() <= 1 {
        return;
    }
    let limit = log2(rows.len());
    recurse_rows(rows, 0, rows.len(), is_less, None, limit, probe);
}

/// Sort rows `start..end`. `pred` is the index of the predecessor pivot:
/// a row already in its final place, outside the range, that nothing
/// sorted here moves — so it is read in place instead of copied.
fn recurse_rows<F, P: Probe>(
    rows: &mut RowsMut<'_>,
    mut start: usize,
    mut end: usize,
    is_less: &mut F,
    mut pred: Option<usize>,
    mut limit: u32,
    probe: &P,
) where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let mut was_balanced = true;
    loop {
        let len = end - start;
        if len <= INSERTION_THRESHOLD {
            insertion_sort_rows(&mut rows.sub(start, end), is_less, probe);
            return;
        }
        if limit == 0 {
            heapsort_rows(&mut rows.sub(start, end), is_less, probe);
            return;
        }
        if !was_balanced {
            break_patterns_rows(&mut rows.sub(start, end), probe);
            limit -= 1;
        }

        let (pivot_rel, likely_sorted) = {
            let mut range = rows.sub(start, end);
            choose_pivot_rows(&mut range, is_less, probe)
        };

        if was_balanced && likely_sorted {
            let sorted = {
                let mut range = rows.sub(start, end);
                partial_insertion_sort_rows(&mut range, is_less, PARTIAL_INSERTION_LIMIT, probe)
            };
            if sorted {
                return;
            }
        }

        if let Some(p) = pred {
            if !probe.branch(SITE, is_less(rows.row(p), rows.row(start + pivot_rel))) {
                let mid = {
                    let mut range = rows.sub(start, end);
                    partition_left_rows(&mut range, pivot_rel, is_less, probe)
                };
                start += mid;
                continue;
            }
        }

        let (mid_rel, _already) = {
            let mut range = rows.sub(start, end);
            partition_right_rows(&mut range, pivot_rel, is_less, probe)
        };
        let mid = start + mid_rel;
        was_balanced = mid_rel.min(len - mid_rel) >= len / 8;

        if mid - start < end - mid - 1 {
            recurse_rows(rows, start, mid, is_less, pred, limit, probe);
            start = mid + 1;
            pred = Some(mid);
        } else {
            recurse_rows(rows, mid + 1, end, is_less, Some(mid), limit, probe);
            end = mid;
        }
    }
}

fn partial_insertion_sort_rows<F, P: Probe>(
    rows: &mut RowsMut<'_>,
    is_less: &mut F,
    limit: usize,
    probe: &P,
) -> bool
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let mut budget = limit;
    let n = rows.len();
    for i in 1..n {
        let mut j = i;
        while j > 0 && probe.branch(SITE + 1, is_less(rows.row(j), rows.row(j - 1))) {
            if budget == 0 {
                return false;
            }
            rows.swap(j, j - 1, probe);
            budget -= 1;
            j -= 1;
        }
    }
    true
}

fn choose_pivot_rows<F, P: Probe>(
    rows: &mut RowsMut<'_>,
    is_less: &mut F,
    probe: &P,
) -> (usize, bool)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let len = rows.len();
    let mut a = len / 4;
    let mut b = len / 2;
    let mut c = (len / 4) * 3;
    let mut swaps = 0usize;

    if len >= 8 {
        if len >= SHORTEST_NINTHER {
            for x in [&mut a, &mut b, &mut c] {
                let mut lo = *x - 1;
                let mut mid = *x;
                let mut hi = *x + 1;
                sort3_rows(rows, &mut lo, &mut mid, &mut hi, is_less, &mut swaps, probe);
                *x = mid;
            }
        }
        sort3_rows(rows, &mut a, &mut b, &mut c, is_less, &mut swaps, probe);
    }

    if swaps < MAX_SWAPS {
        (b, swaps == 0)
    } else {
        reverse_rows(rows, probe);
        (len - 1 - b, true)
    }
}

fn sort3_rows<F, P: Probe>(
    rows: &RowsMut<'_>,
    a: &mut usize,
    b: &mut usize,
    c: &mut usize,
    is_less: &mut F,
    swaps: &mut usize,
    probe: &P,
) where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let mut sort2 = |x: &mut usize, y: &mut usize, swaps: &mut usize| {
        if probe.branch(SITE + 2, is_less(rows.row(*y), rows.row(*x))) {
            std::mem::swap(x, y);
            *swaps += 1;
        }
    };
    sort2(a, b, swaps);
    sort2(b, c, swaps);
    sort2(a, b, swaps);
}

fn reverse_rows<P: Probe>(rows: &mut RowsMut<'_>, probe: &P) {
    let n = rows.len();
    for i in 0..n / 2 {
        rows.swap(i, n - 1 - i, probe);
    }
}

fn partition_right_rows<F, P: Probe>(
    rows: &mut RowsMut<'_>,
    pivot_idx: usize,
    is_less: &mut F,
    probe: &P,
) -> (usize, bool)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    // The pivot stays at row 0 until the final swap: `l` never drops
    // below 1, so it is compared in place.
    rows.swap(0, pivot_idx, probe);
    let n = rows.len();
    let mut l = 1usize;
    let mut r = n;
    while l < r && probe.branch(SITE + 3, is_less(rows.row(l), rows.row(0))) {
        l += 1;
    }
    while l < r && !probe.branch(SITE + 4, is_less(rows.row(r - 1), rows.row(0))) {
        r -= 1;
    }
    let already = l >= r;
    while l < r {
        // rows[l] >= pivot and rows[r-1] < pivot at loop heads.
        rows.swap(l, r - 1, probe);
        l += 1;
        r -= 1;
        while l < r && probe.branch(SITE + 5, is_less(rows.row(l), rows.row(0))) {
            l += 1;
        }
        while l < r && !probe.branch(SITE + 6, is_less(rows.row(r - 1), rows.row(0))) {
            r -= 1;
        }
    }
    let mid = l - 1;
    rows.swap(0, mid, probe);
    (mid, already)
}

fn partition_left_rows<F, P: Probe>(
    rows: &mut RowsMut<'_>,
    pivot_idx: usize,
    is_less: &mut F,
    probe: &P,
) -> usize
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    // As in `partition_right_rows`, the pivot is read in place at row 0.
    rows.swap(0, pivot_idx, probe);
    let n = rows.len();
    let mut l = 1usize;
    let mut r = n;
    loop {
        while l < r && !probe.branch(SITE + 7, is_less(rows.row(0), rows.row(l))) {
            l += 1;
        }
        while l < r && probe.branch(SITE + 8, is_less(rows.row(0), rows.row(r - 1))) {
            r -= 1;
        }
        if l >= r {
            break;
        }
        r -= 1;
        rows.swap(l, r, probe);
        l += 1;
    }
    l
}

fn break_patterns_rows<P: Probe>(rows: &mut RowsMut<'_>, probe: &P) {
    let len = rows.len();
    if len < 8 {
        return;
    }
    let mut seed = len as u64 | 1;
    let mut rand = move || {
        seed ^= seed << 13;
        seed ^= seed >> 17;
        seed ^= seed << 5;
        seed
    };
    let modulus = len.next_power_of_two();
    for i in [len / 4, len / 2, 3 * len / 4] {
        let mut other = rand() as usize & (modulus - 1);
        if other >= len {
            other -= len;
        }
        rows.swap(i, other, probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<u32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u32
            })
            .collect()
    }

    fn check(mut v: Vec<u32>) {
        let mut expected = v.clone();
        expected.sort_unstable();
        pdqsort(&mut v, &mut |a, b| a < b);
        assert_eq!(v, expected);
    }

    #[test]
    fn sorts_adversarial_patterns() {
        check(vec![]);
        check(vec![1]);
        check(vec![2, 1]);
        check((0..10_000).collect());
        check((0..10_000).rev().collect());
        check(vec![42; 10_000]);
        check((0..5_000).chain((0..5_000).rev()).collect());
        check((0..10_000).map(|i| i % 2).collect());
        check((0..10_000).map(|i| i % 16).collect());
        // pipe organ with plateau
        check(
            (0..3_000)
                .chain(std::iter::repeat_n(3_000, 4_000))
                .chain((0..3_000).rev())
                .collect(),
        );
    }

    #[test]
    fn sorts_random_various_sizes() {
        for n in [10, 100, 1_000, 10_000, 100_000] {
            check(pseudo_random(n, n as u64));
        }
    }

    #[test]
    fn sorts_nearly_sorted() {
        let mut v: Vec<u32> = (0..10_000).collect();
        v.swap(100, 200);
        v.swap(5_000, 5_001);
        check(v);
    }

    #[test]
    fn duplicate_heavy_uses_equal_partition() {
        // 3 distinct values in 100k elements: must finish fast & correctly.
        check((0..100_000).map(|i| i % 3).collect());
    }

    #[test]
    fn partition_left_groups_equals() {
        let mut v = vec![5u32, 5, 7, 5, 9, 5, 6];
        let mid = partition_left(&mut v, 0, &mut |a, b| a < b);
        assert!(v[..mid].iter().all(|&x| x == 5));
        assert!(v[mid..].iter().all(|&x| x > 5));
        assert_eq!(mid, 4);
    }

    #[test]
    fn block_partition_counts_less() {
        let mut v: Vec<u32> = (0..1_000).rev().collect();
        let pivot = 500u32;
        let less = partition_in_blocks(&mut v, &pivot, &mut |a, b| a < b);
        assert_eq!(less, 500);
        assert!(v[..less].iter().all(|&x| x < 500));
        assert!(v[less..].iter().all(|&x| x >= 500));
    }

    #[test]
    fn block_partition_all_less() {
        let mut v: Vec<u32> = (0..300).collect();
        let pivot = 1_000u32;
        let less = partition_in_blocks(&mut v, &pivot, &mut |a, b| a < b);
        assert_eq!(less, 300);
    }

    #[test]
    fn block_partition_none_less() {
        let mut v: Vec<u32> = (0..300).collect();
        let pivot = 0u32;
        let less = partition_in_blocks(&mut v, &pivot, &mut |a, b| a < b);
        assert_eq!(less, 0);
    }

    #[test]
    fn rows_pdqsort_matches_typed() {
        for (n, modk) in [(100usize, 1u32 << 30), (5_000, 128), (20_000, 4)] {
            let keys: Vec<u32> = pseudo_random(n, 42).iter().map(|k| k % modk).collect();
            let mut data: Vec<u8> = keys.iter().flat_map(|k| k.to_be_bytes()).collect();
            let mut rows = RowsMut::new(&mut data, 4);
            pdqsort_rows(&mut rows, &mut |a, b| a < b, &NoProbe);
            let mut expected = keys.clone();
            expected.sort_unstable();
            for (i, k) in expected.iter().enumerate() {
                assert_eq!(rows.row(i), &k.to_be_bytes(), "n={n} modk={modk} row {i}");
            }
        }
    }

    #[test]
    fn rows_pdqsort_sorted_and_reverse() {
        for rev in [false, true] {
            let keys: Vec<u32> = if rev {
                (0..10_000).rev().collect()
            } else {
                (0..10_000).collect()
            };
            let mut data: Vec<u8> = keys.iter().flat_map(|k| k.to_be_bytes()).collect();
            let mut rows = RowsMut::new(&mut data, 4);
            pdqsort_rows(&mut rows, &mut |a, b| a < b, &NoProbe);
            for i in 0..10_000u32 {
                assert_eq!(rows.row(i as usize), &i.to_be_bytes());
            }
        }
    }

    #[test]
    fn rows_pdqsort_all_equal() {
        let mut data = vec![7u8; 8 * 10_000];
        let mut rows = RowsMut::new(&mut data, 8);
        pdqsort_rows(&mut rows, &mut |a, b| a < b, &NoProbe);
        assert!(data.iter().all(|&b| b == 7));
    }

    #[test]
    fn rows_pdqsort_wide_rows_payload_attached() {
        // 24-byte rows: 4-byte BE key + 20-byte payload derived from key.
        let keys = pseudo_random(3_000, 7);
        let mut data: Vec<u8> = keys
            .iter()
            .flat_map(|k| {
                let mut row = k.to_be_bytes().to_vec();
                row.extend((0..20).map(|i| (k.wrapping_add(i) & 0xFF) as u8));
                row
            })
            .collect();
        let mut rows = RowsMut::new(&mut data, 24);
        pdqsort_rows(&mut rows, &mut |a, b| a[..4] < b[..4], &NoProbe);
        for i in 0..rows.len() {
            let row = rows.row(i);
            let k = u32::from_be_bytes(row[..4].try_into().unwrap());
            for (j, &b) in row[4..].iter().enumerate() {
                assert_eq!(b, (k.wrapping_add(j as u32) & 0xFF) as u8);
            }
            if i > 0 {
                let prev = u32::from_be_bytes(rows.row(i - 1)[..4].try_into().unwrap());
                assert!(prev <= k);
            }
        }
    }
}
