//! What this crate's unit tests share: one seeded input source and one
//! reference check, so no test module re-types either. (The end-to-end
//! oracle over every entry point is `rowsort_bench::oracle`.)

use rowsort_vector::{DataChunk, OrderBy};
use std::cmp::Ordering;

/// `n` values below `modk` from a seeded LCG.
pub(crate) fn pseudo_random(n: usize, seed: u64, modk: u32) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % modk
        })
        .collect()
}

/// `got` is `input` sorted by `order`: in order under the reference
/// comparator and the same multiset of rows. Sorts need not be stable, so
/// the order within ties is left open.
pub(crate) fn assert_sorted_permutation(
    got: &DataChunk,
    input: &DataChunk,
    order: &OrderBy,
    what: &str,
) {
    let rows = got.to_rows();
    for (i, w) in rows.windows(2).enumerate() {
        assert_ne!(
            order.compare_rows(&w[0], &w[1]),
            Ordering::Greater,
            "{what}: out of order at row {i}: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    let canon = |c: &DataChunk| {
        let mut v: Vec<String> = c.to_rows().iter().map(|r| format!("{r:?}")).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(canon(got), canon(input), "{what}: row multiset differs");
}
