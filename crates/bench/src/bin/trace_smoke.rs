//! CI smoke test for the `ROWSORT_TRACE` observability pipeline.
//!
//! ```text
//! trace_smoke <trace-file.jsonl>
//! ```
//!
//! Turns tracing on, runs one in-memory pipeline sort (u32 keys, five runs
//! so the line carries a merge), one VARCHAR sort whose strings share more
//! bytes than any key prefix (so the line carries the tie path), and one
//! spilling external sort, then reads the trace file back and validates
//! every line against the documented schema (DESIGN.md §7.5) with
//! testkit's JSON parser: required fields, all phase and counter names
//! present and numeric, phase times that sum to no more than the sort's
//! wall time, a clocked `gather` (every sort hands vectors back), a
//! planned key (`key_width` no wider than `key_width_plain`,
//! `varchar_prefix`) and tie counters
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

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::metrics::{Counter, Phase, RUN_STAGES};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
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

    let mut strings = DataChunk::new(&[rowsort_vector::LogicalType::Varchar]);
    for _ in 0..20_000 {
        let r = rng.next_u32();
        let v = if r.is_multiple_of(11) {
            Value::Null
        } else {
            Value::from(format!("a_name_that_outgrows_every_key_prefix_{}", r % 997))
        };
        strings.push_row(&[v]).unwrap();
    }
    let pipeline = SortPipeline::new(
        strings.types(),
        OrderBy::ascending(1),
        SortOptions::default(),
    );
    drop(pipeline.sort(&strings));

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
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        die("usage: trace_smoke <trace-file.jsonl>");
    };
    // Tracing reads its configuration once per process; set it before the
    // first sort. A stale file would double-count lines: start fresh.
    let _ = std::fs::remove_file(path);
    std::env::set_var("ROWSORT_TRACE", "1");
    std::env::set_var("ROWSORT_TRACE_FILE", path);

    run_sorts();

    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read trace file {path}: {e}")));
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() != 3 {
        die(&format!(
            "expected 3 trace lines (3 sorts ran), got {}",
            lines.len()
        ));
    }

    let mut operators = Vec::new();
    let (mut merged_in_memory, mut tied) = (false, false);
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
        // in the phase's wall time once per worker (a worker per thread,
        // or per run if fewer) — and only an external sort has any.
        let spill_ns = num_field(phases, Phase::Spill.name(), line_no);
        let runs = count(Counter::SpilledRuns) + count(Counter::SpillMemFallbackRuns);
        let workers = runs.min(ExternalSortOptions::default().merge_threads as f64);
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
