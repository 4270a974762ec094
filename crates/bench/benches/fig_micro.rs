//! Wall-clock benches for the §IV/§V micro-benchmarks (Figures 2–6):
//! every data format × comparison strategy combination on one input size.

use rowsort_algos::NoProbe;
use rowsort_core::strategy::{
    columnar_subsort, columnar_tuple, row_subsort, row_tuple_dynamic, row_tuple_fused,
    row_tuple_static, to_static_rows, Algo, ByteRows,
};
use rowsort_datagen::{key_columns, KeyDistribution};
use rowsort_testkit::bench::{BenchmarkId, Harness};
use rowsort_testkit::{bench_group, bench_main};
use std::time::Duration;

const N: usize = 1 << 16;

fn dists() -> Vec<KeyDistribution> {
    vec![KeyDistribution::Random, KeyDistribution::Correlated(0.5)]
}

fn bench_formats(c: &mut Harness) {
    let mut group = c.benchmark_group("fig2-5_formats");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for dist in dists() {
        for ncols in [1usize, 4] {
            let cols = key_columns(dist, N, ncols, 7);
            let tag = format!("{}/{}cols", dist.label(), ncols);
            for algo in [Algo::Introsort, Algo::MergeSort] {
                let alg = format!("{algo:?}");
                group.bench_with_input(
                    BenchmarkId::new(format!("columnar_tuple_{alg}"), &tag),
                    &cols,
                    |b, cols| b.iter(|| columnar_tuple(cols, algo, &NoProbe)),
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("columnar_subsort_{alg}"), &tag),
                    &cols,
                    |b, cols| b.iter(|| columnar_subsort(cols, algo, &NoProbe)),
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("row_tuple_{alg}"), &tag),
                    &cols,
                    |b, cols| {
                        b.iter_batched(
                            || ByteRows::from_cols(cols),
                            |mut r| row_tuple_fused(&mut r, algo, &NoProbe),
                            rowsort_testkit::bench::BatchSize::LargeInput,
                        )
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("row_subsort_{alg}"), &tag),
                    &cols,
                    |b, cols| {
                        b.iter_batched(
                            || ByteRows::from_cols(cols),
                            |mut r| row_subsort(&mut r, algo, &NoProbe),
                            rowsort_testkit::bench::BatchSize::LargeInput,
                        )
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_comparator_binding(c: &mut Harness) {
    let mut group = c.benchmark_group("fig6_comparator_binding");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for dist in dists() {
        for ncols in [1usize, 4] {
            let cols = key_columns(dist, N, ncols, 9);
            let tag = format!("{}/{}cols", dist.label(), ncols);
            group.bench_with_input(
                BenchmarkId::new("static", &tag),
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
            group.bench_with_input(BenchmarkId::new("dynamic", &tag), &cols, |b, cols| {
                b.iter_batched(
                    || ByteRows::from_cols(cols),
                    |mut r| row_tuple_dynamic(&mut r, Algo::Introsort),
                    rowsort_testkit::bench::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

bench_group!(benches, bench_formats, bench_comparator_binding);
bench_main!(benches);
