//! Property tests: every sorting algorithm in the crate agrees with the
//! standard library sort and produces a permutation of its input.

use rowsort_algos::heapsort::{heapsort, heapsort_rows};
use rowsort_algos::insertion::{insertion_sort, insertion_sort_rows};
use rowsort_algos::introsort::{introsort, introsort_rows};
use rowsort_algos::kway::{kway_merge, kway_merge_rows};
use rowsort_algos::mergesort::{merge_sort, merge_sort_rows};
use rowsort_algos::pdqsort::{pdqsort, pdqsort_rows};
use rowsort_algos::radix::{lsd_radix_sort_rows, msd_radix_sort_rows, radix_sort_rows};
use rowsort_algos::rows::RowsMut;
use rowsort_algos::NoProbe;
use rowsort_testkit::prop::{full, one_of, vec_of, BoxedGen, GenExt};
use rowsort_testkit::{prop, prop_assert_eq};

fn expect_sorted(input: &[u32]) -> Vec<u32> {
    let mut e = input.to_vec();
    e.sort();
    e
}

/// Input generator covering random, low-cardinality, sorted, and reversed.
fn input_gen() -> BoxedGen<Vec<u32>> {
    one_of(vec![
        vec_of(full::<u32>(), 0..400).boxed(),
        vec_of(0u32..4, 0..400).boxed(),
        vec_of(full::<u32>(), 0..400)
            .prop_map(|mut v| {
                v.sort_unstable();
                v
            })
            .boxed(),
        vec_of(full::<u32>(), 0..400)
            .prop_map(|mut v| {
                v.sort_unstable();
                v.reverse();
                v
            })
            .boxed(),
    ])
    .boxed()
}

fn rows_from_keys(keys: &[u32], width: usize) -> Vec<u8> {
    keys.iter()
        .enumerate()
        .flat_map(|(i, &k)| {
            let mut row = k.to_be_bytes().to_vec();
            row.resize(width, (i % 251) as u8);
            row
        })
        .collect()
}

fn keys_from_rows(data: &[u8], width: usize) -> Vec<u32> {
    data.chunks(width)
        .map(|r| u32::from_be_bytes(r[..4].try_into().unwrap()))
        .collect()
}

prop! {
    #![cases(128)]

    fn typed_sorts_agree_with_std(v in input_gen()) {
        let expected = expect_sorted(&v);
        for (name, f) in [
            ("insertion", insertion_sort::<u32, _, NoProbe> as fn(&mut [u32], &mut _, &_)),
            ("heapsort", heapsort::<u32, _, NoProbe>),
            ("introsort", introsort::<u32, _, NoProbe>),
        ] {
            let mut got = v.clone();
            f(&mut got, &mut |a: &u32, b: &u32| a < b, &NoProbe);
            prop_assert_eq!(&got, &expected, "{} diverged", name);
        }
        let mut got = v.clone();
        merge_sort(&mut got, &mut |a, b| a < b);
        prop_assert_eq!(&got, &expected, "merge_sort diverged");
        let mut got = v.clone();
        pdqsort(&mut got, &mut |a, b| a < b);
        prop_assert_eq!(&got, &expected, "pdqsort diverged");
    }

    fn row_sorts_agree_with_std(v in input_gen(), extra in 0usize..12) {
        let width = 4 + extra;
        let expected = expect_sorted(&v);
        macro_rules! check_row_sort {
            ($name:literal, $f:path $(, $probe:expr)?) => {{
                let mut data = rows_from_keys(&v, width);
                {
                    let mut rows = RowsMut::new(&mut data, width);
                    $f(&mut rows, &mut |a: &[u8], b: &[u8]| a[..4] < b[..4], $($probe)?);
                }
                prop_assert_eq!(
                    keys_from_rows(&data, width),
                    expected.clone(),
                    "{} diverged",
                    $name
                );
            }};
        }
        check_row_sort!("insertion_rows", insertion_sort_rows, &NoProbe);
        check_row_sort!("heapsort_rows", heapsort_rows, &NoProbe);
        check_row_sort!("introsort_rows", introsort_rows, &NoProbe);
        check_row_sort!("merge_sort_rows", merge_sort_rows);
        check_row_sort!("pdqsort_rows", pdqsort_rows, &NoProbe);
    }

    fn radix_sorts_agree_with_std(v in input_gen(), extra in 0usize..12) {
        let width = 4 + extra;
        let expected = expect_sorted(&v);
        for (name, f) in [
            ("lsd", lsd_radix_sort_rows::<NoProbe> as fn(&mut [u8], usize, usize, usize, &_)),
            ("msd", msd_radix_sort_rows),
            ("auto", radix_sort_rows),
        ] {
            let mut data = rows_from_keys(&v, width);
            f(&mut data, width, 0, 4, &NoProbe);
            prop_assert_eq!(keys_from_rows(&data, width), expected.clone(), "{} diverged", name);
        }
    }

    fn radix_wide_keys_match_memcmp_order(
        v in vec_of((full::<u32>(), 0u32..16), 0..200)
    ) {
        // 8-byte keys built from two BE u32s: byte order == tuple order.
        let width = 12;
        let mut data: Vec<u8> = v
            .iter()
            .flat_map(|&(a, b)| {
                let mut row = a.to_be_bytes().to_vec();
                row.extend_from_slice(&b.to_be_bytes());
                row.extend_from_slice(&[0u8; 4]);
                row
            })
            .collect();
        msd_radix_sort_rows(&mut data, width, 0, 8, &NoProbe);
        let mut expected: Vec<(u32, u32)> = v;
        expected.sort();
        for (i, row) in data.chunks(width).enumerate() {
            let a = u32::from_be_bytes(row[..4].try_into().unwrap());
            let b = u32::from_be_bytes(row[4..8].try_into().unwrap());
            prop_assert_eq!((a, b), expected[i]);
        }
    }

    fn kway_merge_matches_sorted_concat(
        runs in vec_of(vec_of(full::<u32>(), 0..60), 1..9)
    ) {
        let sorted_runs: Vec<Vec<u32>> = runs
            .iter()
            .map(|r| {
                let mut s = r.clone();
                s.sort_unstable();
                s
            })
            .collect();
        let refs: Vec<&[u32]> = sorted_runs.iter().map(|r| r.as_slice()).collect();
        let out = kway_merge(&refs, &mut |a, b| a < b);
        let mut expected: Vec<u32> = runs.into_iter().flatten().collect();
        expected.sort_unstable();
        prop_assert_eq!(out, expected);
    }

    fn kway_rows_matches_typed(
        runs in vec_of(vec_of(full::<u16>(), 0..40), 1..6)
    ) {
        let sorted_runs: Vec<Vec<u16>> = runs
            .iter()
            .map(|r| {
                let mut s = r.clone();
                s.sort_unstable();
                s
            })
            .collect();
        let byte_runs: Vec<Vec<u8>> = sorted_runs
            .iter()
            .map(|r| r.iter().flat_map(|k| k.to_be_bytes()).collect())
            .collect();
        let refs: Vec<&[u8]> = byte_runs.iter().map(|r| r.as_slice()).collect();
        let out = kway_merge_rows(&refs, 2, &mut |a, b| a < b);
        let got: Vec<u16> = out
            .chunks(2)
            .map(|r| u16::from_be_bytes(r.try_into().unwrap()))
            .collect();
        let mut expected: Vec<u16> = runs.into_iter().flatten().collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
