//! CI smoke test for the `ROWSORT_TRACE` observability pipeline.
//!
//! ```text
//! trace_smoke <trace-file.jsonl>
//! ```
//!
//! Turns tracing on, runs one in-memory pipeline sort (u32 keys, five runs
//! so the line carries a merge), one VARCHAR sort whose strings share more
//! bytes than any key prefix (so the line carries the tie path), one whose
//! 997 strings the key codes by rank (`dict_columns`, `dict_values`), one
//! spilling external sort, and three queries on one engine — a base
//! table's `ORDER BY` twice, the second planned from the statistics the
//! first took of the table (`stats_reused` above 0, where the first's and
//! every sorter's are 0), and the same `ORDER BY` over a `WHERE`, whose
//! sort plans its own (`stats_reused` 0) — then reads the trace file back
//! and validates every line against the documented schema (DESIGN.md
//! §7.5) with testkit's JSON parser: required fields, all phase and counter names
//! present and numeric, phase times that sum to no more than the sort's
//! wall time, a clocked `gather` (every sort hands vectors back), a
//! planned key (`key_width` no wider than `key_width_plain`,
//! `varchar_prefix`), a row of the columns the key does not give back
//! (`row_width` a multiple of 8, and `key_decoded_columns` at least 1
//! where no key column is a VARCHAR prefix), tie counters
//! (`run_tie_ranges`, `run_tie_rows`, `pdq_sorts`) that agree, and a merge
//! shape (`merge_rounds`, `merge_tasks`, `merge_max_range_rows`) that adds
//! up: every merge, in memory or spilled, is one k-way pass that reports
//! its largest key range. On the external line it also checks the spill
//! workers' busy time (`spill_generate_ns`, `spill_write_ns`): both
//! clocked, together no more than the phase once per worker. On every
//! line that built runs, run generation's five stage clocks
//! (`run_scatter_ns` … `run_reorder_ns`) are clocked, and on the external
//! line they add up to no more than `spill_generate_ns`. Exits
//! non-zero on any violation, so CI catches schema drift the moment it
//! happens.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter, SPILL_WORKERS};
use rowsort_core::metrics::{Counter, Phase, RUN_STAGES};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_engine::{Engine, Table};
use rowsort_testkit::json::Json;
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, OrderBy, Value, Vector};

#[expect(clippy::exit, reason = "a failed check ends the process with status 2")]
fn die(msg: &str) -> ! {
    eprintln!("trace_smoke: {msg}");
    std::process::exit(2);
}

fn num_field(obj: &Json, name: &str, line_no: usize) -> f64 {
    obj.get(name)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| die(&format!("line {line_no}: missing numeric field '{name}'")))
}

fn run_sorts() {
    let mut rng = Rng::seed_from_u64(0x7ace);
    let n = 100_000usize;
    let col: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let ints = DataChunk::from_columns(vec![Vector::from_u32s(col)]).unwrap();
    let five_runs = SortOptions {
        run_rows: 20_000,
        ..SortOptions::default()
    };
    let pipeline = SortPipeline::new(ints.types(), OrderBy::ascending(1), five_runs);
    drop(pipeline.sort(&ints));

    // Strings too many for a dictionary, and the same stem over 997 values,
    // which the key codes by rank.
    for values in [u32::MAX, 997] {
        let mut strings = DataChunk::new(&[rowsort_vector::LogicalType::Varchar]);
        for _ in 0..20_000 {
            let r = rng.next_u32();
            let v = if r.is_multiple_of(11) {
                Value::Null
            } else {
                Value::from(format!(
                    "a_name_that_outgrows_every_key_prefix_{}",
                    r % values
                ))
            };
            strings.push_row(&[v]).unwrap();
        }
        let pipeline = SortPipeline::new(
            strings.types(),
            OrderBy::ascending(1),
            SortOptions::default(),
        );
        drop(pipeline.sort(&strings));
    }

    let sorter = ExternalSorter::new(
        ints.types(),
        OrderBy::ascending(1),
        ExternalSortOptions {
            memory_limit_rows: 20_000,
            ..Default::default()
        },
    );
    drop(
        sorter
            .sort(&ints)
            .unwrap_or_else(|e| die(&format!("external sort failed: {e}"))),
    );

    let names = (0..20_000).map(|_| format!("name_{}", rng.next_u32() % 300));
    let people = DataChunk::from_columns(vec![
        Vector::from_strings(names),
        Vector::from_i32s((0..20_000).collect()),
    ])
    .unwrap();
    let mut engine = Engine::new();
    let columns = vec!["name".to_owned(), "id".to_owned()];
    engine.register_table(Table::new("people", columns, people));
    for sql in [
        "SELECT * FROM people ORDER BY name",
        "SELECT * FROM people ORDER BY name",
        "SELECT * FROM people WHERE id >= 10 ORDER BY name",
    ] {
        let result = engine.query(sql);
        drop(result.unwrap_or_else(|e| die(&format!("{sql}: {e}"))));
    }
}

/// Key columns of each engine query's sort the trace says were planned
/// from the table's statistics: the base table's first `ORDER BY` takes
/// them, its second reads them, and a sort over a `WHERE` takes its own.
const ENGINE_STATS_REUSED: [bool; 3] = [false, true, false];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        die("usage: trace_smoke <trace-file.jsonl>");
    };
    // Tracing reads its configuration once per process; set it before the
    // first sort. A stale file would double-count lines: start fresh.
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            die(&format!("cannot remove stale trace file {path}: {e}"));
        }
        _ => {}
    }
    std::env::set_var("ROWSORT_TRACE", "1");
    std::env::set_var("ROWSORT_TRACE_FILE", path);

    run_sorts();

    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read trace file {path}: {e}")));
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let sorts = 4 + ENGINE_STATS_REUSED.len();
    if lines.len() != sorts {
        die(&format!(
            "expected {sorts} trace lines ({sorts} sorts ran), got {}",
            lines.len()
        ));
    }

    let mut operators = Vec::new();
    let (mut merged_in_memory, mut tied, mut ranked) = (false, false, false);
    for (i, line) in lines.iter().enumerate() {
        let line_no = i + 1;
        let obj = Json::parse(line)
            .unwrap_or_else(|e| die(&format!("line {line_no}: invalid JSON: {e}")));
        let event = obj
            .get("event")
            .and_then(Json::as_str)
            .unwrap_or_else(|| die(&format!("line {line_no}: missing 'event'")));
        if event != "sort" {
            die(&format!("line {line_no}: unexpected event '{event}'"));
        }
        let operator = obj
            .get("operator")
            .and_then(Json::as_str)
            .unwrap_or_else(|| die(&format!("line {line_no}: missing 'operator'")))
            .to_owned();
        if operator != "pipeline" && operator != "external" {
            die(&format!("line {line_no}: unknown operator '{operator}'"));
        }
        let rows = num_field(&obj, "rows", line_no);
        let total_ns = num_field(&obj, "total_ns", line_no);
        if rows <= 0.0 || total_ns <= 0.0 {
            die(&format!("line {line_no}: rows/total_ns must be positive"));
        }

        let phases = obj
            .get("phases")
            .unwrap_or_else(|| die(&format!("line {line_no}: missing 'phases'")));
        let mut phase_sum = 0.0;
        for p in Phase::ALL {
            phase_sum += num_field(phases, p.name(), line_no);
        }
        let counters = obj
            .get("counters")
            .unwrap_or_else(|| die(&format!("line {line_no}: missing 'counters'")));
        for c in Counter::ALL {
            let _ = num_field(counters, c.name(), line_no);
        }

        // Phase timers nest strictly inside the sort call: their sum can
        // never exceed the wall time, and for a non-trivial sort the
        // timed phases are where the time actually goes.
        if phase_sum > total_ns {
            die(&format!(
                "line {line_no}: phases sum to {phase_sum}ns > total {total_ns}ns"
            ));
        }
        if phase_sum < 0.5 * total_ns {
            die(&format!(
                "line {line_no}: phases ({phase_sum}ns) attribute under half \
                 of total ({total_ns}ns)"
            ));
        }
        // Both sorters merge into vectors and join the ranges' pieces
        // afterwards, so every sort clocks a gather.
        if num_field(phases, Phase::Gather.name(), line_no) <= 0.0 {
            die(&format!(
                "line {line_no}: operator '{operator}' clocked no gather"
            ));
        }
        if num_field(counters, Counter::RowsSorted.name(), line_no) != rows {
            die(&format!("line {line_no}: rows_sorted counter != rows"));
        }

        // The planned key and the tie path. Every sort here has a key; an
        // integer key has no VARCHAR prefix and cannot tie; rows reach the
        // comparator in ranges of two or more, counted as a pdqsort run.
        let count = |c: Counter| num_field(counters, c.name(), line_no);
        let key_width = num_field(&obj, "key_width", line_no);
        let key_width_plain = num_field(&obj, "key_width_plain", line_no);
        let prefix = num_field(&obj, "varchar_prefix", line_no);
        // Range coding only ever narrows a key column.
        if key_width > key_width_plain {
            die(&format!(
                "line {line_no}: key_width {key_width} > key_width_plain {key_width_plain}"
            ));
        }
        // Rank-coded columns: a count, and that many distinct-string
        // counts up to four, each within a `u16` of ranks.
        let dict_columns = num_field(&obj, "dict_columns", line_no);
        let listed = obj.get("dict_values").and_then(Json::as_arr);
        let listed = listed.unwrap_or_else(|| die(&format!("line {line_no}: no 'dict_values'")));
        let values: Vec<f64> = listed.iter().filter_map(Json::as_f64).collect();
        if values.len() != listed.len()
            || values.len() as f64 != dict_columns.min(4.0)
            || values.iter().any(|&v| v > 65_536.0)
        {
            die(&format!(
                "line {line_no}: dict_columns {dict_columns}, dict_values {values:?}"
            ));
        }
        ranked |= dict_columns > 0.0;
        // Statistics an earlier sort of the table took: only the warm
        // engine query has any.
        let reused = num_field(&obj, "stats_reused", line_no);
        let warm = i.checked_sub(4).and_then(|q| ENGINE_STATS_REUSED.get(q));
        let warm = warm.copied().unwrap_or(false);
        if (reused > 0.0) != warm {
            let expected = if warm { "above 0" } else { "0" };
            die(&format!(
                "line {line_no}: stats_reused {reused}, expected {expected}"
            ));
        }
        // The row holds the columns the key does not give back, padded to
        // 8 bytes. A key of no VARCHAR prefix holds every key column
        // exactly: at least one left the row.
        let row_width = num_field(&obj, "row_width", line_no);
        let decoded = num_field(&obj, "key_decoded_columns", line_no);
        if row_width % 8.0 != 0.0 || (prefix == 0.0 && decoded < 1.0) {
            die(&format!(
                "line {line_no}: row_width {row_width}, key_decoded_columns {decoded}, \
                 varchar_prefix {prefix}"
            ));
        }
        let (tie_ranges, tie_rows) = (count(Counter::RunTieRanges), count(Counter::RunTieRows));
        if key_width <= 0.0 || prefix >= key_width {
            die(&format!(
                "line {line_no}: key_width {key_width}, varchar_prefix {prefix}"
            ));
        }
        if tie_rows > rows
            || tie_rows < 2.0 * tie_ranges
            || (tie_rows > 0.0) != (count(Counter::PdqSorts) > 0.0)
            || (prefix == 0.0 && tie_rows > 0.0)
        {
            die(&format!(
                "line {line_no}: {tie_rows} of {rows} rows in {tie_ranges} key-equal ranges, \
                 pdq_sorts {}, varchar_prefix {prefix}",
                count(Counter::PdqSorts)
            ));
        }
        tied |= tie_rows > 0.0;

        // Merge shape. Every merge is a k-way pass (the spill merge; the
        // in-memory merge of two or more runs, with codes or without) and
        // reports its largest key range, which holds at least an even
        // share of the rows and at most all of them; a pipeline sort that
        // made one is one round of `ranges` tasks.
        let max_range = count(Counter::MergeMaxRangeRows);
        let (rounds, ranges) = if operator == "external" {
            (1.0, count(Counter::SpillMergePartitions))
        } else {
            (count(Counter::MergeRounds), count(Counter::MergeTasks))
        };
        merged_in_memory |= operator == "pipeline" && rounds > 0.0;
        if rounds > 0.0 && max_range == 0.0 {
            die(&format!("line {line_no}: a merge reported no range"));
        }
        if max_range > 0.0 && (rounds != 1.0 || max_range > rows || max_range * ranges < rows) {
            die(&format!(
                "line {line_no}: largest of {ranges} ranges holds {max_range} of \
                 {rows} rows after {rounds} round(s)"
            ));
        }
        // The spill phase: its workers' busy time, summed over them, fits
        // in the phase's wall time once per worker (a worker per thread up
        // to the phase's cap, or per run if fewer) — and only an external
        // sort has any.
        let spill_ns = num_field(phases, Phase::Spill.name(), line_no);
        let runs = count(Counter::SpilledRuns) + count(Counter::SpillMemFallbackRuns);
        let threads = ExternalSortOptions::default().merge_threads as f64;
        let workers = runs.min(threads).min(SPILL_WORKERS as f64);
        let busy = [Counter::SpillGenerateNs, Counter::SpillWriteNs].map(count);
        let clocked = busy.iter().all(|&ns| ns > 0.0);
        if (operator == "external") != clocked || busy.iter().sum::<f64>() > workers * spill_ns {
            die(&format!(
                "line {line_no}: operator '{operator}' spent {spill_ns}ns in the spill phase, \
                 {workers} workers busy {busy:?}ns (generate, write)"
            ));
        }
        // Run generation's stage clocks: every sort here builds runs, so
        // each stage is clocked; in a spilled sort they are nested inside
        // the spill workers' generate time.
        let stages = RUN_STAGES.map(|(c, _)| count(c));
        if count(Counter::RunsGenerated) > 0.0 && stages.iter().any(|&ns| ns <= 0.0) {
            die(&format!(
                "line {line_no}: a sort that built runs left a stage unclocked: {stages:?}ns \
                 (scatter, encode, sort, strip+code, reorder)"
            ));
        }
        let generate = count(Counter::SpillGenerateNs);
        if operator == "external" && stages.iter().sum::<f64>() > generate {
            die(&format!(
                "line {line_no}: run stages {stages:?}ns add up to more than the spill \
                 workers' generate time {generate}ns"
            ));
        }
        operators.push(operator);
    }
    if !tied {
        die("no line carries the tie path (run_tie_rows is 0 on all)");
    }
    if !ranked {
        die("no line carries a rank-coded key (dict_columns is 0 on all)");
    }
    if !merged_in_memory {
        die("no pipeline line carries a merge (merge_rounds is 0 on all)");
    }

    if !operators.contains(&"pipeline".to_owned()) || !operators.contains(&"external".to_owned()) {
        die(&format!(
            "expected both operators in the trace, got {operators:?}"
        ));
    }
    println!(
        "trace_smoke: {} trace lines validated against the schema ({})",
        lines.len(),
        operators.join(", ")
    );
}
