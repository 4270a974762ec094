//! Spilled-run merge bench: the external sort of the same 16 spilled runs
//! with the merge cut into one key range and into four (one code path:
//! one range is the cuts at each run's ends).
//!
//! Three workloads, the first two mirroring the pipeline bench's shapes:
//!
//! * `u32` — random u32 keys, the cheap-comparison case where merge cost
//!   is dominated by record movement and run-file I/O.
//! * `widekey` — three VARCHAR key columns with long shared prefixes and
//!   offset-value coding, the comparator-bound case.
//! * `catalog` — rowbench's `catalog_spill` shape: `catalog_sales` by its
//!   four nullable INT columns, a key range-coded in 5 of the plain 20
//!   bytes.
//!
//! `u32` and `widekey` run with `merge_threads` 1 and 4 over the same
//! input and budget (16 runs), so the `_t4` / `_t1` ratio is the
//! merge-phase parallel speedup on the host; `catalog` runs at 1. For interleaved A/B by hand:
//! `scripts/verify.sh` compiles this bench and never runs it; `bench_gate`
//! sorts the same inputs and compares their counters exactly with
//! `BENCH_counters.json`. Override row counts with
//! `ROWSORT_SPILL_ROWS=100000` for a quicker run.

use rowsort_bench::{u32_chunk, wide_key_chunk};
use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_datagen::tpcds;
use rowsort_testkit::bench::{BenchmarkId, Harness};
use rowsort_testkit::{bench_group, bench_main};
use rowsort_vector::{OrderBy, OrderByColumn};
use std::time::Duration;

fn sizes() -> Vec<usize> {
    std::env::var("ROWSORT_SPILL_ROWS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![400_000])
}

fn bench_spill_merge(c: &mut Harness) {
    let mut group = c.benchmark_group("spill_merge");
    group
        .sample_size(5)
        .measurement_time(Duration::from_secs(2));

    for &n in &sizes() {
        let budget = (n / 16).max(1);

        let chunk = u32_chunk(n, 0x5B11 ^ n as u64, true);
        let order = OrderBy::ascending(1);
        for (tag, threads) in [("u32_t1", 1usize), ("u32_t4", 4)] {
            let sorter = ExternalSorter::new(
                chunk.types(),
                order.clone(),
                ExternalSortOptions {
                    memory_limit_rows: budget,
                    merge_threads: threads,
                    ..Default::default()
                },
            );
            group.bench_function(BenchmarkId::new(tag, n), |b| {
                b.iter(|| sorter.sort(&chunk).expect("spill sort succeeds"))
            });
        }

        let chunk = wide_key_chunk(n, 0x5B12);
        let order = OrderBy::ascending(3);
        for (tag, threads) in [("widekey_t1", 1usize), ("widekey_t4", 4)] {
            let sorter = ExternalSorter::new(
                chunk.types(),
                order.clone(),
                ExternalSortOptions {
                    memory_limit_rows: budget,
                    ovc: true,
                    merge_threads: threads,
                    ..Default::default()
                },
            );
            group.bench_function(BenchmarkId::new(tag, n), |b| {
                b.iter(|| sorter.sort(&chunk).expect("spill sort succeeds"))
            });
        }

        let chunk = tpcds::catalog_sales(n, 10.0, 0x5B13).data;
        let order = OrderBy::new((1..=4).map(OrderByColumn::asc).collect());
        let sorter = ExternalSorter::new(
            chunk.types(),
            order,
            ExternalSortOptions {
                memory_limit_rows: budget,
                ovc: true,
                merge_threads: 1,
                ..Default::default()
            },
        );
        group.bench_function(BenchmarkId::new("catalog_t1", n), |b| {
            b.iter(|| sorter.sort(&chunk).expect("spill sort succeeds"))
        });
    }
    group.finish();
}

bench_group!(benches, bench_spill_merge);
bench_main!(benches);
