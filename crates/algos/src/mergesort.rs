//! Stable top-down merge sort — our stand-in for C++ `std::stable_sort`.
//!
//! The paper replicates every §IV experiment with `std::stable_sort` because
//! merge sort's mostly-*sequential* access pattern interacts differently
//! with DSM vs NSM than quicksort's partition-driven pattern. As with
//! introsort, this implementation is only ever compared against itself.

use crate::insertion::{insertion_sort, insertion_sort_rows};
use crate::probe::NoProbe;
use crate::rows::RowsMut;

/// Ranges at or below this length use insertion sort.
const INSERTION_THRESHOLD: usize = 16;

/// Sort `v` stably with merge sort. Requires `T: Clone` for the auxiliary
/// buffer (element types in this workspace are `Copy` indices or small
/// structs).
pub fn merge_sort<T, F>(v: &mut [T], is_less: &mut F)
where
    T: Clone,
    F: FnMut(&T, &T) -> bool,
{
    if v.len() <= 1 {
        return;
    }
    let mut buf: Vec<T> = v.to_vec();
    merge_sort_rec(v, &mut buf, is_less);
}

fn merge_sort_rec<T, F>(v: &mut [T], buf: &mut [T], is_less: &mut F)
where
    T: Clone,
    F: FnMut(&T, &T) -> bool,
{
    if v.len() <= INSERTION_THRESHOLD {
        insertion_sort(v, is_less, &NoProbe);
        return;
    }
    let mid = v.len() / 2;
    {
        let (vl, vr) = v.split_at_mut(mid);
        let (bl, br) = buf.split_at_mut(mid);
        merge_sort_rec(vl, bl, is_less);
        merge_sort_rec(vr, br, is_less);
    }
    // Merge v[..mid] and v[mid..] through buf.
    buf.clone_from_slice(v);
    let (left, right) = buf.split_at(mid);
    merge_into(left, right, v, is_less);
}

/// Stable two-way merge of sorted `left` and `right` into `out`.
/// Ties pick from `left`, preserving stability.
pub fn merge_into<T, F>(left: &[T], right: &[T], out: &mut [T], is_less: &mut F)
where
    T: Clone,
    F: FnMut(&T, &T) -> bool,
{
    debug_assert_eq!(left.len() + right.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_right = i >= left.len() || (j < right.len() && is_less(&right[j], &left[i]));
        if take_right {
            *slot = right[j].clone();
            j += 1;
        } else {
            *slot = left[i].clone();
            i += 1;
        }
    }
}

/// Stable merge sort over fixed-width byte rows.
pub fn merge_sort_rows<F>(rows: &mut RowsMut<'_>, is_less: &mut F)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let n = rows.len();
    if n <= 1 {
        return;
    }
    let w = rows.width();
    let mut buf = vec![0u8; n * w];
    merge_sort_rows_rec(rows, &mut buf, is_less);
}

fn merge_sort_rows_rec<F>(rows: &mut RowsMut<'_>, buf: &mut [u8], is_less: &mut F)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let n = rows.len();
    if n <= INSERTION_THRESHOLD {
        insertion_sort_rows(rows, is_less, &NoProbe);
        return;
    }
    let w = rows.width();
    let mid = n / 2;
    {
        let (mut left, mut right) = rows.split_at_mut(mid);
        let (bl, br) = buf.split_at_mut(mid * w);
        merge_sort_rows_rec(&mut left, bl, is_less);
        merge_sort_rows_rec(&mut right, br, is_less);
    }
    buf.copy_from_slice(rows.as_bytes());
    merge_rows_into(&buf[..mid * w], &buf[mid * w..], rows, is_less);
}

/// Stable two-way merge of two sorted row buffers into `out`.
pub fn merge_rows_into<F>(left: &[u8], right: &[u8], out: &mut RowsMut<'_>, is_less: &mut F)
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let w = out.width();
    debug_assert_eq!(left.len() + right.len(), out.len() * w);
    let (ln, rn) = (left.len() / w, right.len() / w);
    let (mut i, mut j) = (0, 0);
    for k in 0..out.len() {
        let take_right =
            i >= ln || (j < rn && is_less(&right[j * w..(j + 1) * w], &left[i * w..(i + 1) * w]));
        let src = if take_right {
            let s = &right[j * w..(j + 1) * w];
            j += 1;
            s
        } else {
            let s = &left[i * w..(i + 1) * w];
            i += 1;
            s
        };
        out.row_mut(k).copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_patterns() {
        let patterns: Vec<Vec<u32>> = vec![
            vec![],
            vec![1],
            (0..500).rev().collect(),
            (0..500).collect(),
            vec![9; 100],
            (0..300).map(|i| i % 7).collect(),
        ];
        for mut v in patterns {
            let mut expected = v.clone();
            expected.sort();
            merge_sort(&mut v, &mut |a, b| a < b);
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn is_stable() {
        // (key, original index); sort by key only.
        let mut v: Vec<(u32, usize)> = (0..200).map(|i| (i as u32 % 5, i)).collect();
        merge_sort(&mut v, &mut |a, b| a.0 < b.0);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "equal keys keep input order");
            }
        }
    }

    #[test]
    fn merge_into_basic() {
        let left = [1u32, 3, 5];
        let right = [2u32, 3, 6];
        let mut out = [0u32; 6];
        merge_into(&left, &right, &mut out, &mut |a, b| a < b);
        assert_eq!(out, [1, 2, 3, 3, 5, 6]);
    }

    #[test]
    fn rows_merge_sort_is_stable() {
        // Rows: 1-byte key + 1-byte original index.
        let mut data: Vec<u8> = (0..200u8).flat_map(|i| [i % 5, i]).collect();
        let mut rows = RowsMut::new(&mut data, 2);
        merge_sort_rows(&mut rows, &mut |a, b| a[0] < b[0]);
        for i in 1..rows.len() {
            let (prev, cur) = (rows.row(i - 1), rows.row(i));
            assert!(prev[0] <= cur[0]);
            if prev[0] == cur[0] {
                assert!(prev[1] < cur[1], "stability violated at {i}");
            }
        }
    }

    #[test]
    fn rows_merge_sort_random() {
        let mut state = 7u64;
        let keys: Vec<u8> = (0..1000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let mut data: Vec<u8> = keys.iter().flat_map(|&k| [k, k ^ 0x5A]).collect();
        let mut rows = RowsMut::new(&mut data, 2);
        merge_sort_rows(&mut rows, &mut |a, b| a[0] < b[0]);
        let mut expected = keys.clone();
        expected.sort();
        for (i, &k) in expected.iter().enumerate() {
            assert_eq!(rows.row(i), &[k, k ^ 0x5A]);
        }
    }
}
