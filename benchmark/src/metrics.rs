//! The metrics the benchmark prints: name, unit, direction and, for the
//! end-to-end ones, the share by which a metric may worsen before a change
//! counts as a regression. `BENCHMARK.json` repeats this table; the
//! package's tests hold the two together.

/// One metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the engine sees, measured with tracing off, each with
/// its regression bound. The two time metrics are reported at reference
/// speed (`probe.rs`), which takes out the clock steps of the shared
/// reference host; what it cannot take out (neighbours' cache and memory
/// traffic) still moves identical runs by a fifth on a bad day, so their
/// bounds are the widest the contract allows (README.md, "Steadiness").
pub const END_TO_END: [(Metric, f64); 4] = [
    // Median over the pooled samples of the parts of `Engine::query`'s wall
    // time x host speed right after the query.
    (lower("query_ms_p50", "ms"), 0.25),
    // Process CPU time (user + system, all threads) of the timed loops x
    // host speed, per query: what a second thread or a page-fault storm
    // costs even when wall time falls.
    (lower("cpu_ms_per_query", "ms"), 0.25),
    // Peak live heap bytes during the timed loops, from the tracking
    // allocator. Exact for one seed; between seeds a string heap that
    // doubles at a power of two moves `small_sort` by 7 %.
    (lower("peak_heap_mb", "MiB"), 0.25),
    // Data generation + register_table + warm-up queries + oracle check of
    // the warm-up result (uncorrected): here so that work moved out of the
    // loop shows.
    (lower("setup_s", "s"), 0.25),
];

/// Single layers, from the traced run. No bounds: they explain, they do
/// not gate.
pub const PER_LAYER: [Metric; 73] = [
    lower("engine.parse_us", "us"),
    lower("engine.plan_us", "us"),
    lower("engine.exec_ms", "ms"),
    lower("engine.exec_self_ms", "ms"),
    lower("engine.exec_self_frac", "ratio"),
    lower("engine.allocs_per_query", "count"),
    lower("engine.alloc_mb_per_query", "MiB"),
    lower("engine.query_ms_p50", "ms"),
    lower("engine.query_ms_p90", "ms"),
    higher("engine.loop_mrows_per_s", "Mrows/s"),
    lower("engine.peak_rss_mb", "MiB"),
    lower("vector.materialize_ms", "ms"),
    lower("vector.split_ms", "ms"),
    lower("row.width_bytes", "B"),
    lower("row.scatter_ms", "ms"),
    higher("row.scatter_gbps", "GB/s"),
    lower("row.reorder_ms", "ms"),
    higher("row.reorder_gbps", "GB/s"),
    lower("row.gather_ms", "ms"),
    higher("row.gather_gbps", "GB/s"),
    lower("normkey.key_width_bytes", "B"),
    lower("normkey.encode_ms", "ms"),
    higher("normkey.encode_gbps", "GB/s"),
    lower("algos.run_sort_ms", "ms"),
    higher("algos.run_sort_mrows_per_s", "Mrows/s"),
    lower("algos.radix_runs", "count"),
    lower("algos.pdq_runs", "count"),
    lower("algos.radix_passes", "count"),
    lower("core.pipeline.new_us", "us"),
    lower("core.pipeline.sort_rows_cold_ms", "ms"),
    lower("core.pipeline.sort_rows_warm_ms", "ms"),
    lower("core.pipeline.to_chunk_ms", "ms"),
    lower("core.pipeline.phase_prepare_ms", "ms"),
    lower("core.pipeline.phase_run_generation_ms", "ms"),
    lower("core.pipeline.phase_merge_ms", "ms"),
    lower("core.pipeline.bytes_moved_per_row", "B/row"),
    lower("core.pipeline.runs_generated", "count"),
    lower("core.pipeline.merge_rounds", "count"),
    lower("core.pipeline.merge_tasks", "count"),
    lower("core.pipeline.merge_cmps_per_row", "cmp/row"),
    higher("core.pipeline.merge_ovc_resolved_frac", "ratio"),
    lower("core.pipeline.merge_key_bytes_per_cmp", "B/cmp"),
    lower("core.pool.misses_cold", "count"),
    higher("core.pool.hit_frac_warm", "ratio"),
    lower("core.pool.cold_penalty_ms", "ms"),
    lower("core.workers.broadcasts", "count"),
    lower("core.workers.broadcast_ms", "ms"),
    higher("core.workers.parallel_speedup", "ratio"),
    lower("core.external.sort_ms", "ms"),
    lower("core.external.phase_spill_ms", "ms"),
    lower("core.external.phase_spill_merge_ms", "ms"),
    lower("core.external.spilled_runs", "count"),
    higher("core.external.merge_partitions", "count"),
    lower("core.external.merge_cmps_per_row", "cmp/row"),
    higher("core.external.readahead_hits", "count"),
    lower("core.external.vs_mem_ratio", "ratio"),
    lower("core.spill.bytes_written", "B"),
    lower("core.spill.bytes_read", "B"),
    lower("core.spill.written_per_input_byte", "ratio"),
    lower("core.spill.read_per_written_byte", "ratio"),
    lower("core.spill.write_calls", "count"),
    lower("core.spill.read_calls", "count"),
    lower("core.spill.write_busy_ms", "ms"),
    lower("core.spill.read_busy_ms", "ms"),
    lower("core.spill.files_created", "count"),
    lower("core.spill.files_deleted", "count"),
    lower("core.spill.retries", "count"),
    lower("core.spill.checksum_failed", "count"),
    higher("host.nproc", "count"),
    higher("host.memcpy_gbps", "GB/s"),
    higher("host.speed_frac", "ratio"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.replay_gap_frac", "ratio"),
];

/// Counts that must repeat exactly between two runs on one seed.
pub const EXACT_COUNTS: [&str; 7] = [
    "core.pipeline.bytes_moved_per_row",
    "core.pipeline.runs_generated",
    "core.pipeline.merge_rounds",
    "core.external.spilled_runs",
    "core.spill.bytes_written",
    "core.spill.bytes_read",
    "core.spill.files_created",
];
