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
//!
//! After the timed ids it prints the merge phase per fan-in (2, 8,
//! `widekey_ovc`'s 64–65 runs, `catalog_t1`'s 16 runs of five INT
//! columns, and `customer`'s 3 runs of rows with two strings each) as ns
//! per row and as a share of `memcpy` speed, then run generation's five
//! stage clocks for `u32_t1`, `u32x2_t1` (an 8-byte key, the one width
//! that is both short and offset-value coded), `longstr_t1`, `catalog_t1`
//! (`catalog_spill`'s four nullable INT keys), `customer` and
//! `customer_5k` (thousands of names) in ns per row, after the plan's
//! `prepare` clock — reports, never a gate.

use rowsort_bench::{long_string_chunk, u32_chunk, wide_key_chunk, LONGSTR_STEM, TIEDSTR_STEM};
use rowsort_core::metrics::{Counter, Phase, RUN_STAGES};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_datagen::tpcds;
use rowsort_testkit::bench::{BenchmarkId, Harness};
use rowsort_testkit::{bench_group, bench_main};
use rowsort_vector::{DataChunk, OrderBy, OrderByColumn};
use std::hint::black_box;
use std::time::{Duration, Instant};

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
        let chunk = u32_chunk(n, 0xF1612 ^ n as u64, false);
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
    let chunk = u32_chunk(n, 0xF1613, true);
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
    let chunk = wide_key_chunk(n, 0xF1614);
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
        let chunk = long_string_chunk(n, 0xF1615, stem);
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

/// Bytes a sort's merge writes into its output columns: every fixed-width
/// value, a 4-byte offset per string, and the strings' bytes.
fn column_bytes(chunk: &DataChunk) -> usize {
    let bytes = |col: &rowsort_vector::Vector| match col.as_strings() {
        Some(strings) => 4 * strings.len() + strings.total_bytes(),
        None => col.logical_type().fixed_width().unwrap_or(0) * col.len(),
    };
    chunk.columns().iter().map(bytes).sum()
}

/// `tpcds::customer` and the order `bench_gate`'s `engine/` ids sort it
/// by (last name, first name, birth year): rows that carry two strings
/// each, which the merge copies out of its runs' heaps. (Its three
/// leading columns would sort by `c_customer_sk`, which the table is
/// already in, so no run would read its strings out of order.)
fn customer_chunk(n: usize) -> (DataChunk, OrderBy) {
    let order = [2, 1, 3].map(OrderByColumn::asc).to_vec();
    (tpcds::customer(n, 0x000F_1617).data, OrderBy::new(order))
}

/// [`customer_chunk`] with thousands of first and last names, as TPC-DS
/// has, rather than 101 and 201 (`tpcds::customer_many_names`).
fn customer_many_names_chunk(n: usize) -> (DataChunk, OrderBy) {
    let order = [2, 1, 3].map(OrderByColumn::asc).to_vec();
    let table = tpcds::customer_many_names(n, 0x000F_1618);
    (table.data, OrderBy::new(order))
}

/// `catalog_spill`'s order: `catalog_sales` by its four nullable INT
/// columns, range-coded in 5 bytes.
fn catalog_order() -> OrderBy {
    OrderBy::new((1..=4).map(OrderByColumn::asc).collect())
}

/// Best of five single-threaded merge phases per fan-in, in ns per row,
/// and as a share of copy speed: the time one `copy_from_slice` of the
/// bytes the merge writes takes, over the merge phase's time (which
/// includes its gather into vectors).
fn report_merge_fan_in(_: &mut Harness) {
    const TRIALS: usize = 5;
    let n = sizes()[0].min(1_000_000);
    // The timed ids' inputs (seeds 0xF1612 and 0xF1614).
    let u32s = u32_chunk(n, 0x000F_1612 ^ n as u64, false);
    let wide = wide_key_chunk(n, 0x000F_1614);
    // `catalog_spill`'s shape in memory: a 5-byte key that is its own
    // merge code, as `u32`'s 4-byte one is, over rows of five INT columns.
    let catalog = tpcds::catalog_sales(n, 10.0, 0x000F_1616).data;
    let (customer, by_name) = customer_chunk(n);
    let cases = [
        ("u32", &u32s, OrderBy::ascending(1), n.div_ceil(2)),
        ("u32", &u32s, OrderBy::ascending(1), n.div_ceil(8)),
        ("widekey_ovc", &wide, OrderBy::ascending(3), (n / 64).max(1)),
        ("catalog_t1", &catalog, catalog_order(), n.div_ceil(16)),
        ("customer", &customer, by_name, n.div_ceil(3)),
    ];
    println!("merge phase by fan-in, {n} rows, 1 thread (best of {TRIALS}):");
    for (id, chunk, order, run_rows) in cases {
        let options = SortOptions {
            threads: 1,
            run_rows,
            ovc: true,
        };
        let pipeline = SortPipeline::new(chunk.types(), order, options);
        drop(pipeline.sort(chunk));
        let mut merge_ns = u64::MAX;
        for _ in 0..TRIALS {
            drop(black_box(pipeline.sort(chunk)));
            merge_ns = merge_ns.min(pipeline.last_profile().metrics.phase(Phase::Merge));
        }
        let fan_in = pipeline
            .last_profile()
            .metrics
            .counter(Counter::RunsGenerated);
        let bytes = column_bytes(chunk);
        let src = vec![1u8; bytes];
        let mut dst = vec![0u8; bytes];
        let mut copy_ns = u64::MAX;
        for _ in 0..TRIALS {
            let start = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            copy_ns = copy_ns.min(start.elapsed().as_nanos() as u64);
        }
        println!(
            "  {id:<12} fan-in {fan_in:>3}: {:>6.1} ns/row, {:>5.1} % of memcpy ({:.1} GB/s over {bytes} B)",
            merge_ns as f64 / n as f64,
            100.0 * copy_ns as f64 / merge_ns.max(1) as f64,
            bytes as f64 / copy_ns.max(1) as f64,
        );
    }
}

/// Run generation stage by stage for `u32_t1`, `u32x2_t1` (two random
/// u32 columns: an 8-byte key, whose code column `strip+code` fills),
/// `longstr_t1`, `catalog_t1`, `customer` (3 runs, so the reorder lays
/// out every run's strings in run order) and `customer_5k` (the same with
/// 3 000 first and 5 000 last names), at one thread: the plan's clock
/// (`prepare`: samples, integer ranges, dictionaries) and each stage's
/// (`RUN_STAGES`), best of five sorts, in ns per row, and the key each
/// planned. A report, never a gate.
fn report_run_stages(_: &mut Harness) {
    const TRIALS: usize = 5;
    let n = sizes()[0];
    let long_rows = n.min(1_000_000) / 4;
    // `catalog_spill`'s shape: four nullable INT keys, range-coded in 5
    // bytes where the plain key takes 20, in 16 runs.
    let catalog_rows = n.min(1_000_000) / 2;
    let (customer, by_name) = customer_chunk(n.min(1_000_000));
    let (customer_5k, by_name_5k) = customer_many_names_chunk(n.min(1_000_000));
    let cases = [
        (
            "u32_t1",
            u32_chunk(n, 0x000F_1612 ^ n as u64, false),
            OrderBy::ascending(1),
            1 << 17,
        ),
        (
            "u32x2_t1",
            u32_chunk(n, 0x000F_1613, true),
            OrderBy::ascending(2),
            1 << 17,
        ),
        (
            "longstr_t1",
            long_string_chunk(long_rows, 0x000F_1615, LONGSTR_STEM),
            OrderBy::ascending(1),
            (long_rows / 4).max(1),
        ),
        (
            "catalog_t1",
            tpcds::catalog_sales(catalog_rows, 10.0, 0x000F_1616).data,
            catalog_order(),
            (catalog_rows / 16).max(1),
        ),
        ("customer", customer, by_name, n.min(1_000_000).div_ceil(3)),
        (
            "customer_5k",
            customer_5k,
            by_name_5k,
            n.min(1_000_000).div_ceil(3),
        ),
    ];
    println!("run generation by stage, 1 thread, ns/row (best of {TRIALS}):");
    for (id, chunk, order, run_rows) in cases {
        let options = SortOptions {
            threads: 1,
            run_rows,
            ovc: true,
        };
        let pipeline = SortPipeline::new(chunk.types(), order, options);
        drop(pipeline.sort(&chunk));
        let (mut prepare, mut best) = (u64::MAX, [u64::MAX; RUN_STAGES.len()]);
        for _ in 0..TRIALS {
            drop(black_box(pipeline.sort(&chunk)));
            let metrics = pipeline.last_profile().metrics;
            prepare = prepare.min(metrics.phase(Phase::Prepare));
            for (b, (counter, _)) in best.iter_mut().zip(RUN_STAGES) {
                *b = (*b).min(metrics.counter(counter));
            }
        }
        let per_row = |ns: u64| ns as f64 / chunk.len() as f64;
        print!("  {id:<12} prepare {:.1}", per_row(prepare));
        for (&ns, (_, name)) in best.iter().zip(RUN_STAGES) {
            print!(" {name} {:.1}", per_row(ns));
        }
        let profile = pipeline.last_profile();
        let listed = (profile.dict_columns as usize).min(profile.dict_values.len());
        let dicts = &profile.dict_values[..listed];
        println!(
            "  key {}B/{}B dict {dicts:?}",
            profile.key_width, profile.key_width_plain
        );
    }
}

bench_group!(
    benches,
    bench_pipeline,
    report_merge_fan_in,
    report_run_stages
);
bench_main!(benches);
