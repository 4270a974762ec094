//! End-to-end sort-pipeline bench on the Figure 12 default workload
//! (random u32 keys, 1–10 M rows) — the regression gate's workload.
//!
//! `scripts/verify.sh` runs this bench with `ROWSORT_BENCH_JSON` set and
//! compares the medians against the checked-in `BENCH_pipeline.json`
//! baseline (warn-only tolerance band, see `bench_gate`). Override the row
//! counts with `ROWSORT_PIPE_ROWS=1000000,4000000` for a quicker smoke.
//!
//! Each pipeline is constructed once and reused across iterations, so the
//! numbers measure the *steady state*: with the buffer pool and persistent
//! worker pool, iterations after the first run allocation-free.

use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_testkit::bench::{BenchmarkId, Harness};
use rowsort_testkit::rng::Rng;
use rowsort_testkit::{bench_group, bench_main};
use rowsort_vector::{DataChunk, OrderBy, OrderByColumn, Value, Vector};
use std::time::Duration;

/// Random u32 key column, plus an optional derived u32 payload column.
fn u32_chunk(n: usize, seed: u64, with_payload: bool) -> DataChunk {
    let mut rng = Rng::seed_from_u64(seed);
    let keys: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let mut cols = Vec::new();
    if with_payload {
        let payload: Vec<u32> = keys
            .iter()
            .map(|k| k.wrapping_mul(7).wrapping_add(1))
            .collect();
        cols.push(Vector::from_u32s(keys));
        cols.push(Vector::from_u32s(payload));
    } else {
        cols.push(Vector::from_u32s(keys));
    }
    DataChunk::from_columns(cols).unwrap()
}

/// The workload offset-value coding exists for: a multi-column VARCHAR
/// key whose leading columns are low-cardinality with long shared
/// prefixes, so nearly every merge comparison used to re-scan the same
/// prefix bytes before reaching the deciding suffix.
fn wide_key_chunk(n: usize, seed: u64) -> DataChunk {
    let mut rng = Rng::seed_from_u64(seed);
    let mut region = Vec::with_capacity(n);
    let mut segment = Vec::with_capacity(n);
    let mut id = Vec::with_capacity(n);
    for i in 0..n {
        region.push(Value::from(if rng.chance(0.9) {
            "warehouse_eu"
        } else {
            "warehouse_us"
        }));
        segment.push(Value::from(format!("segment_{:02}", rng.below(8))));
        id.push(Value::from(format!("{:012}", (i as u64) ^ (seed << 16))));
    }
    let mut chunk = DataChunk::new(&[
        rowsort_vector::LogicalType::Varchar,
        rowsort_vector::LogicalType::Varchar,
        rowsort_vector::LogicalType::Varchar,
    ]);
    for ((r, s), d) in region.into_iter().zip(segment).zip(id) {
        chunk.push_row(&[r, s, d]).unwrap();
    }
    chunk
}

fn sizes() -> Vec<usize> {
    std::env::var("ROWSORT_PIPE_ROWS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1_000_000, 4_000_000])
}

fn bench_pipeline(c: &mut Harness) {
    let mut group = c.benchmark_group("pipeline");
    group
        .sample_size(5)
        .measurement_time(Duration::from_secs(2));

    for &n in &sizes() {
        let chunk = u32_chunk(n, 0xF16_12 ^ n as u64, false);
        let order = OrderBy::ascending(1);
        let single = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 1,
                ..SortOptions::default()
            },
        );
        group.bench_function(BenchmarkId::new("u32_t1", n), |b| {
            b.iter(|| single.sort(&chunk))
        });
        // Two threads on every host, unlike `_tdef`: the coded merge cut
        // into two key ranges.
        let two = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 2,
                ..SortOptions::default()
            },
        );
        group.bench_function(BenchmarkId::new("u32_t2", n), |b| {
            b.iter(|| two.sort(&chunk))
        });
        let default = SortPipeline::new(chunk.types(), order, SortOptions::default());
        group.bench_function(BenchmarkId::new("u32_tdef", n), |b| {
            b.iter(|| default.sort(&chunk))
        });
    }

    // Key + payload column: exercises the payload reorder and merge gather.
    let n = sizes()[0];
    let chunk = u32_chunk(n, 0xF16_13, true);
    let pipeline = SortPipeline::new(
        chunk.types(),
        OrderBy::ascending(1),
        SortOptions {
            threads: 1,
            ..SortOptions::default()
        },
    );
    group.bench_function(BenchmarkId::new("u32_payload_t1", n), |b| {
        b.iter(|| pipeline.sort(&chunk))
    });

    // Wide multi-column VARCHAR keys with long shared prefixes — the
    // offset-value coding headline case. Small runs make the merge 64
    // ways so comparator work dominates; the coded sort merges them in
    // one tree-of-losers pass (`_t2`: one per key range, on two threads)
    // while the _novc twin pays the full six-round cascade with
    // whole-key compares.
    let n = sizes()[0].min(1_000_000);
    let chunk = wide_key_chunk(n, 0xF16_14);
    let order = OrderBy::new(vec![
        OrderByColumn::asc(0),
        OrderByColumn::asc(1),
        OrderByColumn::asc(2),
    ]);
    for (id, threads, ovc) in [
        ("widekey_ovc", 1, true),
        ("widekey_novc", 1, false),
        ("widekey_ovc_t2", 2, true),
    ] {
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads,
                run_rows: (n / 64).max(1),
                ovc,
            },
        );
        group.bench_function(BenchmarkId::new(id, n), |b| {
            b.iter(|| pipeline.sort(&chunk))
        });
    }
    group.finish();
}

bench_group!(benches, bench_pipeline);
bench_main!(benches);
