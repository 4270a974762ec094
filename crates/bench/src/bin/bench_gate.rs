//! Counter gate: the work the gated bench ids do, compared exactly.
//!
//! ```text
//! bench_gate [--write]
//! ```
//!
//! Sorts the inputs of the `pipeline` bench at 250 000 rows and of the
//! `spill_merge` bench at 100 000 — every id whose options can be pinned;
//! `u32_tdef` takes the host's thread count and stays a bench only — once
//! each on a sorter warmed by two sorts, and compares the measured sort's
//! counters — and the key it planned — with the checked-in
//! `BENCH_counters.json` for exact equality. Each `engine/` id runs one
//! `ORDER BY` (`strings_limit_t1` with `LIMIT 10`) three times on one
//! `Engine` at one thread and pins the third query's sort: it starts on
//! the engine's warm buffer pool, so its `allocs` are the query's own
//! state and its output. The `sim/` ids run
//! Tables II/III and Figure 10 at 2^12 rows and pin what each approach
//! counted on the simulated CPU: `<approach>.l1_accesses`, `.l1_misses`,
//! `.branches` and `.branch_misses`.
//! Every option that shapes the work is spelled out per id, never taken
//! from `Default`, which reads `ROWSORT_THREADS` and `ROWSORT_OVC`: the
//! counts are the same on every host and under any environment.
//!
//! A difference prints `id counter: baseline → fresh` and exits 1: the
//! change altered how much work an algorithm does. Either that was the
//! point — say so and re-record with `--write` — or it is a regression no
//! clock on a shared host would have shown. Time is not read here; the
//! benches stay for interleaved A/B by hand.

use rowsort_bench::counters::{fig10_counts, table2_counts, table3_counts};
use rowsort_bench::{long_string_chunk, u32_chunk, wide_key_chunk, LONGSTR_STEM, TIEDSTR_STEM};
use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::metrics::{Counter, SortProfile};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_datagen::tpcds;
use rowsort_engine::{Engine, Table};
use rowsort_testkit::alloc::{allocation_count, CountingAllocator};
use rowsort_testkit::json::Json;
use rowsort_vector::{OrderBy, OrderByColumn};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The checked-in baseline, at the workspace root wherever the gate runs.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_counters.json");

/// Counters that two runs of one binary can disagree on: left out of the
/// file by name rather than compared with a tolerance.
const UNGATED: [(Counter, &str); 10] = [
    (
        Counter::PoolHits,
        "at threads > 1 a buffer is recycled before or after another worker asks for its class",
    ),
    (Counter::PoolMisses, "the other side of pool_hits"),
    (Counter::BroadcastNs, "a clock"),
    (Counter::SpillGenerateNs, "a clock"),
    (Counter::SpillWriteNs, "a clock"),
    (Counter::RunScatterNs, "a clock"),
    (Counter::RunEncodeNs, "a clock"),
    (Counter::RunSortNs, "a clock"),
    (Counter::RunStripCodeNs, "a clock"),
    (Counter::RunReorderNs, "a clock"),
];

/// What the measured sort of every id counted, keyed `(id, counter)`.
type Counts = BTreeMap<(String, String), u64>;

#[expect(
    clippy::exit,
    reason = "a CLI usage error ends the process with status 2"
)]
fn die(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
}

/// Warm the sorter behind `sort` with two sorts, then record the third's
/// counters under `id` — and, where the caller knows the count repeats,
/// the system allocations it made.
fn record(out: &mut Counts, id: &str, allocs: bool, mut sort: impl FnMut() -> SortProfile) {
    sort();
    sort();
    let before = allocation_count();
    let profile = sort();
    let allocated = allocation_count() - before;
    if allocs {
        out.insert((id.to_owned(), "allocs".to_owned()), allocated as u64);
    }
    let gated = Counter::ALL
        .into_iter()
        .filter(|c| UNGATED.iter().all(|(u, _)| u != c));
    for c in gated {
        let key = (id.to_owned(), c.name().to_owned());
        out.insert(key, profile.metrics.counter(c));
    }
    // The plan the counts were made under.
    for (name, planned) in [
        ("key_width", profile.key_width),
        ("varchar_prefix", profile.varchar_prefix),
    ] {
        out.insert((id.to_owned(), name.to_owned()), u64::from(planned));
    }
}

/// Every pinned id, with the inputs, seeds and options of its bench.
fn measure() -> Counts {
    let mut out = Counts::new();
    let n = 250_000;
    let u32s = u32_chunk(n, 0xF1612 ^ n as u64, false);
    let payload = u32_chunk(n, 0xF1613, true);
    let wide = wide_key_chunk(n, 0xF1614);
    let [long, tied] = [LONGSTR_STEM, TIEDSTR_STEM].map(|s| long_string_chunk(n / 4, 0xF1615, s));
    // Bench id, input, leading key columns, threads, run_rows, ovc.
    for (name, chunk, keys, threads, run_rows, ovc) in [
        ("u32_t1", &u32s, 1, 1, 1 << 17, true),
        ("u32_t2", &u32s, 1, 2, 1 << 17, true),
        ("u32_payload_t1", &payload, 1, 1, 1 << 17, true),
        ("widekey_ovc", &wide, 3, 1, n / 64, true),
        ("widekey_novc", &wide, 3, 1, n / 64, false),
        ("widekey_ovc_t2", &wide, 3, 2, n / 64, true),
        // A VARCHAR key beyond 12 bytes that the planned prefix makes
        // exact: radix alone, no row reaches the comparator.
        ("longstr_t1", &long, 1, 1, n / 16, true),
        // None of the ids above sorts a key-equal range with pdqsort; this
        // one sorts nothing else (`run_tie_rows` == rows).
        ("tiedstr_t1", &tied, 1, 1, n / 16, true),
    ] {
        let id = format!("pipeline/{name}/{}", chunk.len());
        let options = SortOptions {
            threads,
            run_rows,
            ovc,
        };
        let pipeline = SortPipeline::new(chunk.types(), OrderBy::ascending(keys), options);
        // Worker threads allocate on their own schedule; one thread does not.
        record(&mut out, &id, threads == 1, || {
            drop(pipeline.sort(chunk));
            pipeline.last_profile()
        });
    }

    let n = 100_000;
    let u32s = u32_chunk(n, 0x5B11 ^ n as u64, true);
    let wide = wide_key_chunk(n, 0x5B12);
    // `catalog_spill`'s shape: four nullable INT keys of 10, 20, 700 and
    // 100 values (scale factor 10), range-coded in 5 bytes of a plain 20.
    let catalog = tpcds::catalog_sales(n, 10.0, 0x5B13).data;
    let by_catalog_keys = OrderBy::new((1..=4).map(OrderByColumn::asc).collect());
    for (name, chunk, order, merge_threads) in [
        ("u32_t1", &u32s, OrderBy::ascending(1), 1),
        ("u32_t4", &u32s, OrderBy::ascending(1), 4),
        ("widekey_t1", &wide, OrderBy::ascending(3), 1),
        ("widekey_t4", &wide, OrderBy::ascending(3), 4),
        ("catalog_t1", &catalog, by_catalog_keys, 1),
    ] {
        let id = format!("spill_merge/{name}/{n}");
        let options = ExternalSortOptions {
            memory_limit_rows: n / 16,
            ovc: true,
            merge_threads,
            spill_dir: None,
            max_write_retries: 3,
            retry_backoff: Duration::from_micros(250),
        };
        let sorter = ExternalSorter::new(chunk.types(), order, options);
        // No allocation count at any thread count: every run builds its
        // file's path, and `Path::join` allocates three times under a
        // short temp directory and twice under a long one.
        record(&mut out, &id, false, || {
            let sorted = sorter.sort(chunk);
            drop(sorted.unwrap_or_else(|e| die(&format!("{id}: {e}"))));
            sorter.last_profile()
        });
    }

    // The engine's warm pool, the way `strings_mem` queries it: each query
    // builds a new sorter on the engine's set.
    let n = 8192;
    let customer = tpcds::customer(n, 0xE61);
    let mut engine = Engine::new();
    engine.options_mut().threads = 1;
    let names = customer
        .columns
        .iter()
        .map(|(name, _)| name.clone())
        .collect();
    engine.register_table(Table::new(customer.name, names, customer.data));
    // With `LIMIT 10` the query is a Limit over the same Sort: until the
    // sort stops early, it pays for the whole sort.
    let sql = "SELECT * FROM customer ORDER BY c_last_name, c_first_name, c_birth_year";
    for (name, sql) in [
        ("strings_t1", sql.to_owned()),
        ("strings_limit_t1", format!("{sql} LIMIT 10")),
    ] {
        let id = format!("engine/{name}/{n}");
        record(&mut out, &id, true, || {
            let (_, stats) = engine
                .query_profiled(&sql)
                .unwrap_or_else(|e| die(&format!("{id}: {e}")));
            let sort = stats.into_iter().find_map(|node| node.sort);
            sort.unwrap_or_else(|| die(&format!("{id}: no Sort node profile")))
        });
    }

    let n = 1 << 12;
    for (name, approaches) in [
        ("table2", table2_counts(n)),
        ("table3", table3_counts(n)),
        ("fig10", fig10_counts(n)),
    ] {
        for (approach, c) in approaches {
            for (counter, v) in [
                ("l1_accesses", c.l1_accesses),
                ("l1_misses", c.l1_misses),
                ("branches", c.branches),
                ("branch_misses", c.branch_misses),
            ] {
                out.insert(
                    (format!("sim/{name}/{n}"), format!("{approach}.{counter}")),
                    v,
                );
            }
        }
    }
    out
}

/// One JSON object per id and line, so a re-recording diffs id by id.
fn render(counts: &Counts) -> String {
    let mut ids: BTreeMap<&str, Vec<(String, Json)>> = BTreeMap::new();
    for ((id, counter), &v) in counts {
        let fields = ids.entry(id).or_default();
        fields.push((counter.clone(), Json::Num(v as f64)));
    }
    let lines: Vec<String> = ids
        .into_iter()
        .map(|(id, mut fields)| {
            fields.insert(0, ("id".to_owned(), Json::str(id)));
            Json::Obj(fields).render()
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

fn parse(text: &str) -> Option<Counts> {
    let doc = Json::parse(text).ok()?;
    let mut out = Counts::new();
    for entry in doc.as_arr()? {
        let Json::Obj(fields) = entry else {
            return None;
        };
        let id = entry.get("id")?.as_str()?;
        for (name, v) in fields.iter().filter(|(name, _)| name != "id") {
            out.insert((id.to_owned(), name.clone()), v.as_f64()? as u64);
        }
    }
    Some(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = match args.as_slice() {
        [] => false,
        [flag] if flag == "--write" => true,
        _ => die("usage: bench_gate [--write]"),
    };
    let fresh = measure();
    if write {
        std::fs::write(BASELINE, render(&fresh))
            .unwrap_or_else(|e| die(&format!("cannot write {BASELINE}: {e}")));
        println!("bench_gate: recorded {} counts in {BASELINE}", fresh.len());
        return;
    }
    let baseline = std::fs::read_to_string(BASELINE)
        .unwrap_or_else(|e| die(&format!("cannot read {BASELINE}: {e}")));
    let baseline = parse(&baseline)
        .unwrap_or_else(|| die(&format!("{BASELINE} is not a list of counter objects")));

    // The table CI keeps: what each id counted, zeros left out.
    print!("bench_gate: the measured sort of each id counted");
    let mut last_id = "";
    for ((id, counter), v) in fresh.iter().filter(|(_, &v)| v != 0) {
        if id != last_id {
            print!("\n  {id}");
            last_id = id;
        }
        print!(" {counter}={v}");
    }
    println!();
    for (counter, why) in UNGATED {
        println!("  not compared: {} ({why})", counter.name());
    }

    let show = |v: Option<&u64>| v.map_or("absent".to_owned(), u64::to_string);
    let mut differences = 0;
    let keys: BTreeSet<_> = baseline.keys().chain(fresh.keys()).collect();
    for key in keys {
        let (was, now) = (baseline.get(key), fresh.get(key));
        if was != now {
            println!("{} {}: {} → {}", key.0, key.1, show(was), show(now));
            differences += 1;
        }
    }
    if differences > 0 {
        println!(
            "bench_gate: {differences} of {} counts differ from BENCH_counters.json — the \
             change altered an algorithm's work; say so and re-record with --write, or fix it",
            fresh.len()
        );
        std::process::exit(1);
    }
    println!(
        "bench_gate: all {} counts equal BENCH_counters.json",
        fresh.len()
    );
}
