//! Heapsort: the O(n log n) worst-case fallback for introsort and pdqsort.

use crate::probe::{less, swap, Probe};
use crate::rows::RowsMut;

/// Branch sites: the larger child, then whether the root sinks.
const SITE: u32 = 0x20;

/// Sort `v` with heapsort.
pub fn heapsort<T, F, P: Probe>(v: &mut [T], is_less: &mut F, probe: &P)
where
    F: FnMut(&T, &T) -> bool,
{
    let n = v.len();
    for start in (0..n / 2).rev() {
        sift_down(v, start, n, is_less, probe);
    }
    for end in (1..n).rev() {
        swap(v, 0, end, probe);
        sift_down(v, 0, end, is_less, probe);
    }
}

fn sift_down<T, F, P: Probe>(v: &mut [T], mut root: usize, end: usize, is_less: &mut F, probe: &P)
where
    F: FnMut(&T, &T) -> bool,
{
    loop {
        let mut child = 2 * root + 1;
        if child >= end {
            return;
        }
        if child + 1 < end && less(v, child, child + 1, is_less, probe, SITE) {
            child += 1;
        }
        if !less(v, root, child, is_less, probe, SITE + 1) {
            return;
        }
        swap(v, root, child, probe);
        root = child;
    }
}

/// Heapsort over fixed-width byte rows.
pub fn heapsort_rows<F, P: Probe>(rows: &mut RowsMut<'_>, is_less: &mut F, probe: &P)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let n = rows.len();
    for start in (0..n / 2).rev() {
        sift_down_rows(rows, start, n, is_less, probe);
    }
    for end in (1..n).rev() {
        rows.swap(0, end, probe);
        sift_down_rows(rows, 0, end, is_less, probe);
    }
}

fn sift_down_rows<F, P: Probe>(
    rows: &mut RowsMut<'_>,
    mut root: usize,
    end: usize,
    is_less: &mut F,
    probe: &P,
) where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    loop {
        let mut child = 2 * root + 1;
        if child >= end {
            return;
        }
        if child + 1 < end && probe.branch(SITE, is_less(rows.row(child), rows.row(child + 1))) {
            child += 1;
        }
        if !probe.branch(SITE + 1, is_less(rows.row(root), rows.row(child))) {
            return;
        }
        rows.swap(root, child, probe);
        root = child;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;

    #[test]
    fn sorts_various_patterns() {
        let patterns: Vec<Vec<u32>> = vec![
            vec![],
            vec![1],
            vec![2, 1],
            (0..100).rev().collect(),
            (0..100).collect(),
            vec![5; 50],
            (0..50).chain((0..50).rev()).collect(), // organ pipe
        ];
        for mut v in patterns {
            let mut expected = v.clone();
            expected.sort_unstable();
            heapsort(&mut v, &mut |a, b| a < b, &NoProbe);
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn sorts_with_custom_order() {
        let mut v = vec![1u32, 5, 3];
        heapsort(&mut v, &mut |a, b| a > b, &NoProbe); // descending
        assert_eq!(v, [5, 3, 1]);
    }

    #[test]
    fn rows_heapsort() {
        let mut data: Vec<u8> = (0..64u8).rev().flat_map(|k| [k, k ^ 0xFF]).collect();
        let mut rows = RowsMut::new(&mut data, 2);
        heapsort_rows(&mut rows, &mut |a, b| a[0] < b[0], &NoProbe);
        for i in 0..64u8 {
            assert_eq!(
                rows.row(i as usize),
                &[i, i ^ 0xFF],
                "payload moved with key"
            );
        }
    }
}
