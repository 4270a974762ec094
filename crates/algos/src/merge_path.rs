//! Merge Path (Green, Odeh & Birk 2014): diagonal partitioning that lets a
//! 2-way merge be split into independent, equal-sized pieces for parallel
//! execution — the technique DuckDB uses to keep its cascaded merge busy on
//! all threads once few runs remain (paper §VII, Figure 11).

/// Find the Merge-Path split of diagonal `diag` for merging two sorted
/// sequences of lengths `a_len` and `b_len`.
///
/// `b_less_a(j, i)` must return whether `b[j] < a[i]`. The returned pair
/// `(i, j)` satisfies `i + j == diag`, and the first `diag` elements of the
/// stable (A-priority) merge are exactly the merge of `a[..i]` and
/// `b[..j]`.
///
/// The search is a binary search over the diagonal: O(log(min(a_len,
/// b_len, diag))) comparisons.
pub fn merge_path_partition_by<F>(
    a_len: usize,
    b_len: usize,
    diag: usize,
    mut b_less_a: F,
) -> (usize, usize)
where
    F: FnMut(usize, usize) -> bool,
{
    assert!(diag <= a_len + b_len, "diagonal beyond total length");
    let mut lo = diag.saturating_sub(b_len);
    let mut hi = diag.min(a_len);
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = diag - i;
        // In-range: i < hi <= a_len, and 1 <= j <= b_len by construction.
        if !b_less_a(j - 1, i) {
            // a[i] <= b[j-1]: the crossing lies further right.
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    (lo, diag - lo)
}

/// Convenience wrapper over typed slices with an `is_less` comparator.
pub fn merge_path_partition<T, F>(a: &[T], b: &[T], diag: usize, is_less: &mut F) -> (usize, usize)
where
    F: FnMut(&T, &T) -> bool,
{
    merge_path_partition_by(a.len(), b.len(), diag, |j, i| is_less(&b[j], &a[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mergesort::merge_into;

    fn reference_merge(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; a.len() + b.len()];
        merge_into(a, b, &mut out, &mut |x, y| x < y);
        out
    }

    #[test]
    fn partition_prefix_property() {
        let a: Vec<u32> = (0..50).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..70).map(|i| i * 3 + 1).collect();
        let full = reference_merge(&a, &b);
        for diag in 0..=a.len() + b.len() {
            let (i, j) = merge_path_partition(&a, &b, diag, &mut |x, y| x < y);
            assert_eq!(i + j, diag);
            let prefix = reference_merge(&a[..i], &b[..j]);
            assert_eq!(prefix, full[..diag], "diag={diag}");
        }
    }

    #[test]
    fn partition_with_duplicates_is_stable() {
        let a = vec![1u32, 2, 2, 2, 3];
        let b = vec![2u32, 2, 4];
        let full = reference_merge(&a, &b);
        for diag in 0..=8 {
            let (i, j) = merge_path_partition(&a, &b, diag, &mut |x, y| x < y);
            let prefix = reference_merge(&a[..i], &b[..j]);
            assert_eq!(prefix, full[..diag], "diag={diag}");
        }
    }

    #[test]
    fn extreme_diagonals() {
        let a = vec![10u32, 20];
        let b = vec![1u32, 2, 3];
        assert_eq!(merge_path_partition(&a, &b, 0, &mut |x, y| x < y), (0, 0));
        assert_eq!(merge_path_partition(&a, &b, 5, &mut |x, y| x < y), (2, 3));
        // First three outputs are all from b.
        assert_eq!(merge_path_partition(&a, &b, 3, &mut |x, y| x < y), (0, 3));
    }

    #[test]
    fn empty_sides() {
        let a: Vec<u32> = vec![];
        let b = vec![1u32, 2];
        assert_eq!(merge_path_partition(&a, &b, 1, &mut |x, y| x < y), (0, 1));
        let a = vec![1u32, 2];
        let b: Vec<u32> = vec![];
        assert_eq!(merge_path_partition(&a, &b, 1, &mut |x, y| x < y), (1, 0));
    }
}
