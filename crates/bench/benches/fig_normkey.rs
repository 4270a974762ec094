//! Wall-clock benches for the §VI normalized-key techniques (Figures 8, 9):
//! memcmp comparison sorts vs byte-wise radix sort on encoded keys.

use rowsort_algos::NoProbe;
use rowsort_core::strategy::{
    normkey_radix, normkey_sort, row_tuple_static, to_static_rows, Algo, NormRows,
};
use rowsort_datagen::{key_columns, KeyDistribution};
use rowsort_testkit::bench::{BenchmarkId, Harness};
use rowsort_testkit::{bench_group, bench_main};
use std::time::Duration;

const N: usize = 1 << 16;

fn bench_normkey(c: &mut Harness) {
    let mut group = c.benchmark_group("fig8-9_normkeys");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for dist in [
        KeyDistribution::Random,
        KeyDistribution::Correlated(0.5),
        KeyDistribution::Correlated(1.0),
    ] {
        for ncols in [1usize, 4] {
            let cols = key_columns(dist, N, ncols, 11);
            let tag = format!("{}/{}cols", dist.label(), ncols);
            group.bench_with_input(
                BenchmarkId::new("static_tuple_introsort", &tag),
                &cols,
                |b, cols| match ncols {
                    1 => b.iter_batched(
                        || to_static_rows::<1>(cols),
                        |mut r| row_tuple_static(&mut r, Algo::Introsort),
                        rowsort_testkit::bench::BatchSize::LargeInput,
                    ),
                    4 => b.iter_batched(
                        || to_static_rows::<4>(cols),
                        |mut r| row_tuple_static(&mut r, Algo::Introsort),
                        rowsort_testkit::bench::BatchSize::LargeInput,
                    ),
                    _ => unreachable!(),
                },
            );
            group.bench_with_input(
                BenchmarkId::new("normkey_memcmp_introsort", &tag),
                &cols,
                |b, cols| {
                    b.iter_batched(
                        || NormRows::from_cols(cols),
                        |mut r| normkey_sort(&mut r, Algo::Introsort, &NoProbe),
                        rowsort_testkit::bench::BatchSize::LargeInput,
                    )
                },
            );
            group.bench_with_input(
                BenchmarkId::new("normkey_memcmp_pdqsort", &tag),
                &cols,
                |b, cols| {
                    b.iter_batched(
                        || NormRows::from_cols(cols),
                        |mut r| normkey_sort(&mut r, Algo::Pdq, &NoProbe),
                        rowsort_testkit::bench::BatchSize::LargeInput,
                    )
                },
            );
            group.bench_with_input(BenchmarkId::new("normkey_radix", &tag), &cols, |b, cols| {
                b.iter_batched(
                    || NormRows::from_cols(cols),
                    |mut r| normkey_radix(&mut r, &NoProbe),
                    rowsort_testkit::bench::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

bench_group!(benches, bench_normkey);
bench_main!(benches);
