//! Ablation benches for the design choices DESIGN.md calls out:
//! VARCHAR prefix length, radix variant by key width, merge structure,
//! row alignment, and run size.

use rowsort_algos::kway::kway_merge_rows;
use rowsort_algos::mergesort::merge_rows_into;
use rowsort_algos::pdqsort::pdqsort_rows;
use rowsort_algos::radix::{lsd_radix_sort_rows, msd_radix_sort_rows};
use rowsort_algos::rows::RowsMut;
use rowsort_algos::NoProbe;
use rowsort_core::keys::KeyBlock;
use rowsort_datagen::tpcds;
use rowsort_row::{scatter, RowAlignment, RowLayout};
use rowsort_testkit::bench::{BenchmarkId, Harness};
use rowsort_testkit::{bench_group, bench_main};
use rowsort_vector::{DataChunk, OrderBy};
use std::sync::Arc;
use std::time::Duration;

fn pseudo_random_bytes(n: usize, width: usize, seed: u64, distinct: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(n * width);
    for _ in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let v = (state >> 16) % distinct.max(1);
        let mut row = vec![0u8; width];
        let bytes = v.to_be_bytes();
        let copy = width.min(8);
        row[..copy].copy_from_slice(&bytes[8 - copy..]);
        out.extend_from_slice(&row);
    }
    out
}

/// VARCHAR prefix length: short prefixes create ties (resolved against the
/// full strings); long prefixes inflate key width.
fn ablation_prefix(c: &mut Harness) {
    let mut group = c.benchmark_group("ablation_prefix");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let cust = tpcds::customer(100_000, 5);
    let names_idx = cust.column_index("c_last_name").unwrap();
    let col = cust.data.column(names_idx).clone();
    let chunk = DataChunk::from_columns(vec![col]).unwrap();
    let strings: Vec<String> = (0..chunk.len())
        .map(|i| match chunk.column(0).get(i) {
            rowsort_vector::Value::Varchar(s) => s,
            _ => String::new(),
        })
        .collect();
    for prefix in [2usize, 4, 8, 12] {
        group.bench_with_input(
            BenchmarkId::new("keyblock_sort", prefix),
            &prefix,
            |b, &prefix| {
                b.iter_batched(
                    || {
                        let order = OrderBy::ascending(1);
                        let mut kb = KeyBlock::new(&chunk.types(), &order, |_| prefix);
                        kb.append_chunk(&chunk);
                        kb
                    },
                    |mut kb| kb.sort(|a, b| strings[a as usize].cmp(&strings[b as usize])),
                    rowsort_testkit::bench::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

/// LSD vs MSD vs pdqsort(memcmp) across key widths — the basis of the
/// "LSD for ≤4 bytes, else MSD" rule.
fn ablation_radix(c: &mut Harness) {
    let mut group = c.benchmark_group("ablation_radix");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let n = 1 << 16;
    for width in [4usize, 8, 16, 32] {
        let data = pseudo_random_bytes(n, width, 77, 1 << 20);
        group.bench_with_input(BenchmarkId::new("lsd", width), &data, |b, data| {
            b.iter_batched(
                || data.clone(),
                |mut d| lsd_radix_sort_rows(&mut d, width, 0, width, &NoProbe),
                rowsort_testkit::bench::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("msd", width), &data, |b, data| {
            b.iter_batched(
                || data.clone(),
                |mut d| msd_radix_sort_rows(&mut d, width, 0, width, &NoProbe),
                rowsort_testkit::bench::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("pdq_memcmp", width), &data, |b, data| {
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    let mut rows = RowsMut::new(&mut d, width);
                    pdqsort_rows(&mut rows, &mut |a: &[u8], b: &[u8]| a < b, &NoProbe);
                },
                rowsort_testkit::bench::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Cascaded 2-way merge vs k-way loser tree over the same 8 sorted runs.
fn ablation_merge(c: &mut Harness) {
    let mut group = c.benchmark_group("ablation_merge");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let width = 8usize;
    let runs: Vec<Vec<u8>> = (0..8u64)
        .map(|i| {
            let mut d = pseudo_random_bytes(1 << 14, width, i + 1, 1 << 30);
            let mut rows = RowsMut::new(&mut d, width);
            pdqsort_rows(&mut rows, &mut |a: &[u8], b: &[u8]| a < b, &NoProbe);
            d
        })
        .collect();
    group.bench_function("kway_loser_tree", |b| {
        b.iter(|| {
            let refs: Vec<&[u8]> = runs.iter().map(|r| r.as_slice()).collect();
            kway_merge_rows(&refs, width, &mut |a: &[u8], b: &[u8]| a < b)
        })
    });
    group.bench_function("cascade_2way", |b| {
        b.iter(|| {
            let mut level: Vec<Vec<u8>> = runs.clone();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len() / 2);
                let mut it = level.into_iter();
                while let (Some(a), b) = (it.next(), it.next()) {
                    match b {
                        Some(b) => {
                            let mut out = vec![0u8; a.len() + b.len()];
                            let mut rows = RowsMut::new(&mut out, width);
                            merge_rows_into(&a, &b, &mut rows, &mut |x: &[u8], y: &[u8]| x < y);
                            next.push(out);
                        }
                        None => next.push(a),
                    }
                }
                level = next;
            }
            level.pop().unwrap()
        })
    });
    group.finish();
}

/// 8-byte-aligned vs packed rows: scatter + row sort.
fn ablation_align(c: &mut Harness) {
    let mut group = c.benchmark_group("ablation_align");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let cs = tpcds::catalog_sales(100_000, 10.0, 9);
    let chunk = cs.data.clone();
    for (label, alignment) in [
        ("aligned8", RowAlignment::Aligned8),
        ("packed", RowAlignment::Packed),
    ] {
        let layout = Arc::new(RowLayout::with_alignment(&chunk.types(), alignment));
        group.bench_function(BenchmarkId::new("scatter_sort", label), |b| {
            b.iter(|| {
                let block = scatter(&chunk, Arc::clone(&layout));
                let order: Vec<u32> = (0..block.len() as u32).rev().collect();
                block.reorder(&order)
            })
        });
    }
    group.finish();
}

/// Run-size sweep for the full pipeline: smaller thread-local runs sort
/// faster individually (cache-resident) but leave more merge work — the
/// §II trade-off in practice.
fn ablation_runsize(c: &mut Harness) {
    use rowsort_core::pipeline::{SortOptions, SortPipeline};
    use rowsort_datagen::{key_chunk, KeyDistribution};
    let mut group = c.benchmark_group("ablation_runsize");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let chunk = key_chunk(KeyDistribution::Correlated(0.5), 1 << 18, 2, 21);
    for run_rows in [1usize << 12, 1 << 14, 1 << 16, 1 << 18] {
        let pipeline = SortPipeline::new(
            chunk.types(),
            OrderBy::ascending(2),
            SortOptions::single_with_run_rows(run_rows),
        );
        group.bench_function(BenchmarkId::new("pipeline", run_rows), |b| {
            b.iter(|| pipeline.sort(&chunk))
        });
    }
    group.finish();
}

bench_group!(
    benches,
    ablation_prefix,
    ablation_radix,
    ablation_merge,
    ablation_align,
    ablation_runsize
);
bench_main!(benches);
