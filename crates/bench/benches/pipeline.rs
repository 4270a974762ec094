//! End-to-end sort-pipeline bench on the Figure 12 default workload
//! (random u32 keys, 1–10 M rows), plus the wide-key and long-string
//! shapes.
//!
//! For interleaved A/B by hand: `scripts/verify.sh` compiles this bench
//! and never runs it. What it gates is the work these ids do, not their
//! time — `bench_gate` sorts the same inputs (every id here but the
//! host-dependent `u32_tdef`) and compares their counters exactly with
//! `BENCH_counters.json`. Override the row counts with
//! `ROWSORT_PIPE_ROWS=250000` for a quicker run.
//!
//! Each pipeline is constructed once and reused across iterations, so the
//! numbers measure the *steady state*: with the buffer pool and persistent
//! worker pool, iterations after the first run allocation-free.

use rowsort_bench::{long_string_chunk, u32_chunk, wide_key_chunk, LONGSTR_STEM, TIEDSTR_STEM};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_testkit::bench::{BenchmarkId, Harness};
use rowsort_testkit::{bench_group, bench_main};
use rowsort_vector::OrderBy;
use std::time::Duration;

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
    // ways so comparator work dominates; every sort merges them in one
    // tree-of-losers pass (`_t2`: one per key range, on two threads), the
    // _novc twin with a whole-key compare at every match.
    let n = sizes()[0].min(1_000_000);
    let chunk = wide_key_chunk(n, 0xF16_14);
    let order = OrderBy::ascending(3);
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

    // One VARCHAR key beyond 12 bytes. `longstr`: the planner's sample
    // finds the 20-byte prefix that makes it exact, so runs are radix
    // sorts. `tiedstr`: the strings share more than any planned prefix,
    // so every row goes through the tie comparator, in run generation and
    // in the merge — the path `strings_mem` took before prefixes were
    // sized from data.
    let n = sizes()[0].min(1_000_000) / 4;
    for (id, stem) in [("longstr_t1", LONGSTR_STEM), ("tiedstr_t1", TIEDSTR_STEM)] {
        let chunk = long_string_chunk(n, 0xF16_15, stem);
        let pipeline = SortPipeline::new(
            chunk.types(),
            OrderBy::ascending(1),
            SortOptions {
                threads: 1,
                run_rows: (n / 4).max(1),
                ovc: true,
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
