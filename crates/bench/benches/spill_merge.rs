//! Spilled-run merge bench: the external sort of the same 16 spilled runs
//! with the merge cut into one key range and into four (one code path:
//! one range is the cuts at each run's ends).
//!
//! Two workloads, mirroring the pipeline bench's shapes:
//!
//! * `u32` — random u32 keys, the cheap-comparison case where merge cost
//!   is dominated by record movement and run-file I/O.
//! * `widekey` — three VARCHAR key columns with long shared prefixes and
//!   offset-value coding, the comparator-bound case.
//!
//! Each workload runs with `merge_threads` 1 and 4 over the same input
//! and budget (16 runs), so the `_t4` / `_t1` ratio is the merge-phase
//! parallel speedup on the host. `scripts/verify.sh` gates the medians
//! against `BENCH_spill_merge.json`. Override row counts with
//! `ROWSORT_SPILL_ROWS=100000,400000` for a quicker smoke.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_testkit::bench::{BenchmarkId, Harness};
use rowsort_testkit::rng::Rng;
use rowsort_testkit::{bench_group, bench_main};
use rowsort_vector::{DataChunk, OrderBy, OrderByColumn, Value, Vector};
use std::time::Duration;

fn u32_chunk(n: usize, seed: u64) -> DataChunk {
    let mut rng = Rng::seed_from_u64(seed);
    let keys: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let payload: Vec<u32> = keys
        .iter()
        .map(|k| k.wrapping_mul(7).wrapping_add(1))
        .collect();
    DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(payload)]).unwrap()
}

fn wide_key_chunk(n: usize, seed: u64) -> DataChunk {
    let mut rng = Rng::seed_from_u64(seed);
    let mut chunk = DataChunk::new(&[
        rowsort_vector::LogicalType::Varchar,
        rowsort_vector::LogicalType::Varchar,
        rowsort_vector::LogicalType::Varchar,
    ]);
    for i in 0..n {
        let region = Value::from(if rng.chance(0.9) {
            "warehouse_eu"
        } else {
            "warehouse_us"
        });
        let segment = Value::from(format!("segment_{:02}", rng.below(8)));
        let id = Value::from(format!("{:012}", (i as u64) ^ (seed << 16)));
        chunk.push_row(&[region, segment, id]).unwrap();
    }
    chunk
}

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

        let chunk = u32_chunk(n, 0x5B11 ^ n as u64);
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
        let order = OrderBy::new(vec![
            OrderByColumn::asc(0),
            OrderByColumn::asc(1),
            OrderByColumn::asc(2),
        ]);
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
    }
    group.finish();
}

bench_group!(benches, bench_spill_merge);
bench_main!(benches);
