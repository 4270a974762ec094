//! Insertion sort: the base case every other sort in this crate recurses to.

use crate::probe::{less, swap, Probe};
use crate::rows::RowsMut;

/// Branch sites: the typed and the row sort's "still smaller?" test.
const SITE: u32 = 0x30;

/// Sort `v` with insertion sort using an `is_less` predicate.
///
/// O(n²) worst case, but branch-friendly and allocation-free; optimal for
/// the short, mostly-sorted ranges quicksort variants hand it.
pub fn insertion_sort<T, F, P: Probe>(v: &mut [T], is_less: &mut F, probe: &P)
where
    F: FnMut(&T, &T) -> bool,
{
    for i in 1..v.len() {
        let mut j = i;
        while j > 0 && less(v, j, j - 1, is_less, probe, SITE) {
            swap(v, j, j - 1, probe);
            j -= 1;
        }
    }
}

/// Partial insertion sort: sorts `v` only if it takes at most `limit`
/// element moves, returning whether the slice ended up sorted.
///
/// This is pdqsort's cheap "is this pattern nearly sorted?" probe: on
/// already-sorted or nearly-sorted input it finishes the job; otherwise it
/// bails out quickly and lets partitioning proceed.
pub fn partial_insertion_sort<T, F>(v: &mut [T], is_less: &mut F, limit: usize) -> bool
where
    F: FnMut(&T, &T) -> bool,
{
    let mut budget = limit;
    for i in 1..v.len() {
        let mut j = i;
        while j > 0 && is_less(&v[j], &v[j - 1]) {
            if budget == 0 {
                return false;
            }
            v.swap(j, j - 1);
            budget -= 1;
            j -= 1;
        }
    }
    true
}

/// Insertion sort over fixed-width byte rows.
///
/// Moves each row into place with one rotation of the rows it passes,
/// mirroring how an interpreted engine moves whole tuples it cannot give
/// a compile-time type.
pub fn insertion_sort_rows<F, P: Probe>(rows: &mut RowsMut<'_>, is_less: &mut F, probe: &P)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    for i in 1..rows.len() {
        // Find insertion point scanning left; shift in one rotation.
        let mut j = i;
        while j > 0 && probe.branch(SITE + 1, is_less(rows.row(i), rows.row(j - 1))) {
            j -= 1;
        }
        rows.rotate_right(j, i + 1, probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;

    fn is_less_u32(a: &u32, b: &u32) -> bool {
        a < b
    }

    #[test]
    fn sorts_random() {
        let mut v = vec![5u32, 3, 8, 1, 9, 2, 7, 4, 6, 0];
        insertion_sort(&mut v, &mut is_less_u32, &NoProbe);
        assert_eq!(v, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn sorts_empty_and_single() {
        let mut v: Vec<u32> = vec![];
        insertion_sort(&mut v, &mut is_less_u32, &NoProbe);
        let mut v = vec![42u32];
        insertion_sort(&mut v, &mut is_less_u32, &NoProbe);
        assert_eq!(v, [42]);
    }

    #[test]
    fn sorts_duplicates() {
        let mut v = vec![2u32, 2, 1, 1, 3, 3, 2];
        insertion_sort(&mut v, &mut is_less_u32, &NoProbe);
        assert_eq!(v, [1, 1, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn is_stable() {
        // Sort pairs by first element only; second element records input order.
        let mut v = vec![(1u32, 0u32), (0, 1), (1, 2), (0, 3), (1, 4)];
        insertion_sort(&mut v, &mut |a, b| a.0 < b.0, &NoProbe);
        assert_eq!(v, [(0, 1), (0, 3), (1, 0), (1, 2), (1, 4)]);
    }

    #[test]
    fn partial_succeeds_on_sorted() {
        let mut v: Vec<u32> = (0..100).collect();
        assert!(partial_insertion_sort(&mut v, &mut is_less_u32, 8));
    }

    #[test]
    fn partial_succeeds_on_nearly_sorted() {
        let mut v: Vec<u32> = (0..100).collect();
        v.swap(10, 11);
        v.swap(50, 51);
        assert!(partial_insertion_sort(&mut v, &mut is_less_u32, 8));
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn partial_bails_on_random() {
        let mut v: Vec<u32> = (0..100).rev().collect();
        assert!(!partial_insertion_sort(&mut v, &mut is_less_u32, 8));
    }

    #[test]
    fn rows_insertion_sorts() {
        // 3-byte rows: single key byte + 2 payload bytes.
        let mut data = vec![
            3u8, 30, 31, //
            1, 10, 11, //
            2, 20, 21, //
        ];
        let mut rows = RowsMut::new(&mut data, 3);
        insertion_sort_rows(&mut rows, &mut |a, b| a[0] < b[0], &NoProbe);
        assert_eq!(data, vec![1, 10, 11, 2, 20, 21, 3, 30, 31]);
    }

    #[test]
    fn rows_insertion_is_stable() {
        // Key in byte 0; byte 1 is the original index.
        let mut data = vec![1u8, 0, 0, 1, 1, 2, 0, 3, 1, 4];
        let mut rows = RowsMut::new(&mut data, 2);
        insertion_sort_rows(&mut rows, &mut |a, b| a[0] < b[0], &NoProbe);
        assert_eq!(data, vec![0, 1, 0, 3, 1, 0, 1, 2, 1, 4]);
    }
}
