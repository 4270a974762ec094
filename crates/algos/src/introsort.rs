//! Introspective sort (Musser 1997) — our stand-in for C++ `std::sort`.
//!
//! Median-of-three quicksort that switches to [`crate::heapsort`] past a
//! 2·log₂(n) recursion depth and to insertion sort for ranges of ≤ 16
//! elements. The paper uses `std::sort` for all of its §IV format
//! comparisons; per its methodology we only ever compare this
//! implementation against itself.

use crate::heapsort::{heapsort, heapsort_rows};
use crate::insertion::{insertion_sort, insertion_sort_rows};
use crate::probe::{less, swap, Probe};
use crate::rows::RowsMut;

/// Ranges at or below this length go straight to insertion sort.
const INSERTION_THRESHOLD: usize = 16;

/// Branch sites: median of three, then the partition's left and right scans.
const SITE: u32 = 0x10;

fn depth_limit(len: usize) -> u32 {
    2 * usize::BITS.saturating_sub(len.leading_zeros() + 1)
}

/// Sort `v` with introsort.
pub fn introsort<T, F, P: Probe>(v: &mut [T], is_less: &mut F, probe: &P)
where
    F: FnMut(&T, &T) -> bool,
{
    let limit = depth_limit(v.len());
    introsort_rec(v, is_less, limit, probe);
}

fn introsort_rec<T, F, P: Probe>(mut v: &mut [T], is_less: &mut F, mut limit: u32, probe: &P)
where
    F: FnMut(&T, &T) -> bool,
{
    loop {
        if v.len() <= INSERTION_THRESHOLD {
            insertion_sort(v, is_less, probe);
            return;
        }
        if limit == 0 {
            heapsort(v, is_less, probe);
            return;
        }
        limit -= 1;
        let p = hoare_partition(v, is_less, probe);
        // Recurse into the smaller side; iterate on the larger to bound
        // stack depth at O(log n).
        let (lo, rest) = v.split_at_mut(p);
        let hi = &mut rest[1..];
        if lo.len() < hi.len() {
            introsort_rec(lo, is_less, limit, probe);
            v = hi;
        } else {
            introsort_rec(hi, is_less, limit, probe);
            v = lo;
        }
    }
}

/// Move the median of `v[0]`, `v[mid]`, `v[last]` to `v[0]`.
fn median_of_three_to_front<T, F, P: Probe>(v: &mut [T], is_less: &mut F, probe: &P)
where
    F: FnMut(&T, &T) -> bool,
{
    let last = v.len() - 1;
    let mid = v.len() / 2;
    // Order (0, mid, last) so v[mid] holds the median, then swap to front.
    if less(v, mid, 0, is_less, probe, SITE) {
        swap(v, mid, 0, probe);
    }
    if less(v, last, mid, is_less, probe, SITE) {
        swap(v, last, mid, probe);
        if less(v, mid, 0, is_less, probe, SITE) {
            swap(v, mid, 0, probe);
        }
    }
    swap(v, 0, mid, probe);
}

/// Hoare partition with the pivot (median of three) parked at `v[0]`.
/// Returns the pivot's final index. Equal elements are split across both
/// sides, keeping the partition balanced on duplicate-heavy inputs.
fn hoare_partition<T, F, P: Probe>(v: &mut [T], is_less: &mut F, probe: &P) -> usize
where
    F: FnMut(&T, &T) -> bool,
{
    median_of_three_to_front(v, is_less, probe);
    let last = v.len() - 1;
    let mut i = 0usize;
    let mut j = last + 1;
    loop {
        loop {
            i += 1;
            if i > last || !less(v, i, 0, is_less, probe, SITE + 1) {
                break;
            }
        }
        loop {
            j -= 1;
            if j == 0 || !less(v, 0, j, is_less, probe, SITE + 2) {
                break;
            }
        }
        if i >= j {
            break;
        }
        swap(v, i, j, probe);
    }
    swap(v, 0, j, probe);
    j
}

/// Introsort over fixed-width byte rows, physically moving rows.
pub fn introsort_rows<F, P: Probe>(rows: &mut RowsMut<'_>, is_less: &mut F, probe: &P)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let limit = depth_limit(rows.len());
    introsort_rows_rec(rows, is_less, limit, probe);
}

fn introsort_rows_rec<F, P: Probe>(
    rows: &mut RowsMut<'_>,
    is_less: &mut F,
    mut limit: u32,
    probe: &P,
) where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let mut start = 0usize;
    let mut end = rows.len();
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
        limit -= 1;
        let p = {
            let mut range = rows.sub(start, end);
            hoare_partition_rows(&mut range, is_less, probe)
        };
        let pivot = start + p;
        // Recurse smaller side, loop on larger.
        if p < len - 1 - p {
            introsort_rows_rec(&mut rows.sub(start, pivot), is_less, limit, probe);
            start = pivot + 1;
        } else {
            introsort_rows_rec(&mut rows.sub(pivot + 1, end), is_less, limit, probe);
            end = pivot;
        }
    }
}

fn median_of_three_to_front_rows<F, P: Probe>(rows: &mut RowsMut<'_>, is_less: &mut F, probe: &P)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let last = rows.len() - 1;
    let mid = rows.len() / 2;
    if probe.branch(SITE, is_less(rows.row(mid), rows.row(0))) {
        rows.swap(mid, 0, probe);
    }
    if probe.branch(SITE, is_less(rows.row(last), rows.row(mid))) {
        rows.swap(last, mid, probe);
        if probe.branch(SITE, is_less(rows.row(mid), rows.row(0))) {
            rows.swap(mid, 0, probe);
        }
    }
    rows.swap(0, mid, probe);
}

fn hoare_partition_rows<F, P: Probe>(rows: &mut RowsMut<'_>, is_less: &mut F, probe: &P) -> usize
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    median_of_three_to_front_rows(rows, is_less, probe);
    let last = rows.len() - 1;
    let mut i = 0usize;
    let mut j = last + 1;
    loop {
        loop {
            i += 1;
            if i > last || !probe.branch(SITE + 1, is_less(rows.row(i), rows.row(0))) {
                break;
            }
        }
        loop {
            j -= 1;
            if j == 0 || !probe.branch(SITE + 2, is_less(rows.row(0), rows.row(j))) {
                break;
            }
        }
        if i >= j {
            break;
        }
        rows.swap(i, j, probe);
    }
    rows.swap(0, j, probe);
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;

    fn check(mut v: Vec<u32>) {
        let mut expected = v.clone();
        expected.sort_unstable();
        introsort(&mut v, &mut |a, b| a < b, &NoProbe);
        assert_eq!(v, expected);
    }

    #[test]
    fn sorts_adversarial_patterns() {
        check(vec![]);
        check(vec![1]);
        check((0..1000).rev().collect());
        check((0..1000).collect());
        check(vec![7; 1000]);
        check((0..500).chain((0..500).rev()).collect());
        check((0..1000).map(|i| i % 4).collect());
        // sawtooth
        check((0..1000).map(|i| i % 37).collect());
    }

    #[test]
    fn sorts_pseudo_random() {
        let mut state = 0x12345678u64;
        let v: Vec<u32> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u32
            })
            .collect();
        check(v);
    }

    #[test]
    fn descending_comparator() {
        let mut v = vec![1u32, 3, 2];
        introsort(&mut v, &mut |a, b| a > b, &NoProbe);
        assert_eq!(v, [3, 2, 1]);
    }

    #[test]
    fn rows_introsort_matches_typed() {
        // 6-byte rows: 2-byte big-endian key + 4-byte payload.
        let mut state = 99u64;
        let keys: Vec<u16> = (0..2000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u16 % 128
            })
            .collect();
        let mut data: Vec<u8> = keys
            .iter()
            .enumerate()
            .flat_map(|(i, k)| {
                let mut row = k.to_be_bytes().to_vec();
                row.extend_from_slice(&(i as u32).to_le_bytes());
                row
            })
            .collect();
        let mut rows = RowsMut::new(&mut data, 6);
        introsort_rows(&mut rows, &mut |a, b| a[..2] < b[..2], &NoProbe);
        let mut expected = keys.clone();
        expected.sort_unstable();
        for (i, k) in expected.iter().enumerate() {
            assert_eq!(&rows.row(i)[..2], &k.to_be_bytes());
        }
        // Payload stays attached: row's payload index must map back to its key.
        for i in 0..rows.len() {
            let row = rows.row(i);
            let orig = u32::from_le_bytes(row[2..6].try_into().unwrap()) as usize;
            assert_eq!(&row[..2], &keys[orig].to_be_bytes());
        }
    }

    #[test]
    fn rows_all_equal() {
        let mut data = vec![5u8; 3 * 100];
        let mut rows = RowsMut::new(&mut data, 3);
        introsort_rows(&mut rows, &mut |a, b| a < b, &NoProbe);
        assert!(data.iter().all(|&b| b == 5));
    }

    #[test]
    fn partition_splits_duplicates() {
        let mut v = vec![3u32; 64];
        let p = hoare_partition(&mut v, &mut |a, b| a < b, &NoProbe);
        // Balanced-ish split on all-equal input (the Hoare property).
        assert!(p > 16 && p < 48, "partition point {p} should be central");
    }
}
