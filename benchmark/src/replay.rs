//! The traced run: each query as the engine runs it, then the same sort
//! replayed layer by layer through the public functions of `crates/*`.
//!
//! Three phases, each over the same query numbers, in the order that
//! keeps each under the conditions it is meant to show. While a phase
//! holds large buffers, freed memory stays in the process and the next
//! query skips its page faults — the engine, one query at a time, does not
//! have that luck. So the engine's own queries come first, then the sorts
//! on a fresh pipeline as the engine makes one per query, and only then
//! the phase that keeps warm buffers of its own.
//!
//! 1. `query` roots: `engine.parse`, `engine.plan`, `engine.exec`, each
//!    next to an untraced `Engine::query` that gives the tracing overhead.
//! 2. `replay` roots: `core.pipeline.new`, `.sort_rows_cold`, `.to_chunk`,
//!    `.sort_rows_warm`, and `core.external.sort` where the workload spills.
//! 3. `replay` roots: `core.pipeline.sort_rows_warm_1t`, then per run
//!    `row.scatter`, `normkey.encode`, `algos.run_sort`, `row.reorder`,
//!    `row.gather`, and finally `vector.materialize` and `vector.split`.

use crate::adapter::{
    default_run_rows, external_new, external_profile, external_sort, materialize, pipeline_new,
    pipeline_profile, pipeline_sort_rows, row_width, sorted_to_chunk, split, DataChunk, Json,
    KeySortAlgo, LogicalType, OrderBy, Session, SpillConfig, SpillIo, Stages,
};
use crate::metrics::PER_LAYER;
use crate::oracle::{fingerprint, Fingerprint};
use crate::run::{median, scratch_dir, THREADS};
use crate::spill_io::{CountingIo, SpillStats};
use crate::trace::Tracer;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// At most this many queries are traced.
const MAX_TRACED: usize = 10;
/// At least this many, however short the run.
const MIN_TRACED: usize = 3;
/// Share of the replay's seconds the first phase may use; the other two
/// then follow with as many iterations, which on every workload take less.
const QUERY_PHASE_SHARE: f64 = 0.3;

/// Per-iteration values of each per-layer metric; the run reports medians.
#[derive(Default)]
pub struct Ledger(BTreeMap<&'static str, Vec<f64>>);

impl Ledger {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Push a figure read by key from a profile; an absent key is left
    /// out (and printed as 0 with a warning) so that a later split of
    /// the program's phases cannot break the benchmark's build.
    pub fn push_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(value) = value {
            self.push(name, value);
        }
    }

    /// Every per-layer metric by name: the median of what was pushed
    /// (`spills`: whether the workload's sorts spill).
    pub fn medians(&self, spills: bool) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|metric| {
                let spill_only = metric.name.starts_with("core.external.")
                    || metric.name.starts_with("core.spill.");
                let value = match self.0.get(metric.name) {
                    Some(values) => median(values),
                    None if spill_only && !spills => 0.0,
                    None => {
                        eprintln!(
                            "rowbench: warning: no figure for {}, printing 0",
                            metric.name
                        );
                        0.0
                    }
                };
                (metric.name, value)
            })
            .collect()
    }
}

fn profile_num(profile: &Json, group: &str, key: &str) -> Option<f64> {
    profile.get(group)?.get(key)?.as_f64()
}

fn counter(profile: &Json, key: &str) -> Option<f64> {
    profile_num(profile, "counters", key)
}

fn phase_ms(profile: &Json, key: &str) -> Option<f64> {
    profile_num(profile, "phases", key).map(|ns| ns / 1e6)
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(num), Some(den)) if den > 0.0 => Some(num / den),
        (Some(_), Some(_)) => Some(0.0),
        _ => None,
    }
}

/// GB/s of moving `bytes` in `ms`.
fn gbps(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / (ms * 1e6)
}

/// What the traced run found.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub ledger: Ledger,
}

/// One traced run over a registered table.
pub struct Replay<'a> {
    pub session: &'a Session,
    pub workload: &'static Workload,
    pub spill: Option<&'a SpillConfig>,
    pub expected: Fingerprint,
    pub seconds: f64,
}

/// The sort under the statement, and where the phases write.
struct Phases<'a> {
    replay: &'a Replay<'a>,
    input: &'a DataChunk,
    order: OrderBy,
    types: Vec<LogicalType>,
    /// Rows per run, as long as the engine's own path makes them.
    run_rows: usize,
    ledger: Ledger,
    tracer: Tracer,
    failed: u64,
}

impl Replay<'_> {
    /// Trace queries and replay their sort; writes the span file.
    pub fn run(&self) -> Result<Traced, String> {
        let session = self.session;
        let plan = session.plan(&session.parse(self.workload.sql)?)?;
        let (input, order) = session
            .sort_input(&plan)
            .ok_or("the statement does not sort a base table")?;
        let run_rows = self
            .spill
            .map_or_else(default_run_rows, |s| s.memory_limit_rows);
        let runs = input.len().div_ceil(run_rows);
        let mut phases = Phases {
            replay: self,
            input,
            order,
            types: input.types(),
            run_rows,
            ledger: Ledger::default(),
            tracer: Tracer::with_capacity(MAX_TRACED * (16 + 5 * runs)),
            failed: 0,
        };
        let exec_ms = phases.queries()?;
        let warm_ms = phases.sorts(&exec_ms)?;
        phases.stages(&warm_ms)?;

        let path = scratch_dir()?.join(format!("trace-{}.jsonl", self.workload.name));
        phases
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(Traced {
            attempted: exec_ms.len() as u64,
            failed: phases.failed,
            ledger: phases.ledger,
        })
    }
}

impl Phases<'_> {
    fn check(&mut self, result: &Result<DataChunk, String>) {
        if !matches!(result, Ok(chunk) if fingerprint(chunk) == self.replay.expected) {
            self.failed += 1;
        }
    }

    /// Phase 1: the query as the engine runs it. Returns `engine.exec`'s
    /// milliseconds per traced query.
    fn queries(&mut self) -> Result<Vec<f64>, String> {
        let (session, sql) = (self.replay.session, self.replay.workload.sql);
        let deadline = Duration::from_secs_f64(self.replay.seconds * QUERY_PHASE_SHARE);
        let started = Instant::now();
        let mut exec = Vec::with_capacity(MAX_TRACED);
        while exec.len() < MAX_TRACED && (exec.len() < MIN_TRACED || started.elapsed() < deadline) {
            let sent = Instant::now();
            let untraced = session.query(sql);
            let untraced_ms = sent.elapsed().as_secs_f64() * 1e3;
            self.check(&untraced);
            drop(untraced);

            self.tracer.start_query(exec.len() as u32 + 1);
            let root = self.tracer.begin("query");
            let (statement, parse_ms) = self.tracer.span("engine.parse", || session.parse(sql));
            let statement = statement?;
            let (plan, plan_ms) = self.tracer.span("engine.plan", || session.plan(&statement));
            let plan = plan?;
            let (result, exec_ms) = self.tracer.span("engine.exec", || session.exec(&plan));
            let query_ms = self.tracer.end(root);
            self.check(&result);
            self.ledger.push("engine.parse_us", parse_ms * 1e3);
            self.ledger.push("engine.plan_us", plan_ms * 1e3);
            self.ledger.push("engine.exec_ms", exec_ms);
            self.ledger
                .push("trace.overhead_frac", query_ms / untraced_ms - 1.0);
            exec.push(exec_ms);
        }
        Ok(exec)
    }

    /// Phase 2: the sort as the engine's Sort node runs it, on a fresh
    /// pipeline (or external sorter) per query. Returns the warm in-memory
    /// sort's milliseconds per query.
    fn sorts(&mut self, exec_ms: &[f64]) -> Result<Vec<f64>, String> {
        let (input, rows) = (self.input, self.input.len());
        let rows_f = Some(rows as f64);
        let spill_stats = Arc::new(SpillStats::default());
        let order = &self.order.clone();
        let mut warm = Vec::with_capacity(exec_ms.len());
        for (query, &exec_ms) in exec_ms.iter().enumerate() {
            self.tracer.start_query(query as u32 + 1);
            let root = self.tracer.begin("replay");
            let (types, run_rows) = (self.types.clone(), self.run_rows);
            let (pipeline, new_ms) = self.tracer.span("core.pipeline.new", || {
                pipeline_new(types, order, THREADS, run_rows)
            });
            let (sorted, cold_ms) = self.tracer.span("core.pipeline.sort_rows_cold", || {
                pipeline_sort_rows(&pipeline, input)
            });
            let cold = pipeline_profile(&pipeline);
            let (chunk, to_chunk_ms) = self
                .tracer
                .span("core.pipeline.to_chunk", || sorted_to_chunk(&sorted));
            self.check(&Ok(chunk));
            drop(sorted);
            let (sorted, warm_ms) = self.tracer.span("core.pipeline.sort_rows_warm", || {
                pipeline_sort_rows(&pipeline, input)
            });
            drop(sorted);
            let profile = pipeline_profile(&pipeline);
            drop(pipeline);

            // What `engine.exec` spent in the sort; the rest is its own.
            let mut sort_ms = new_ms + cold_ms + to_chunk_ms;
            if let Some(spill) = self.replay.spill {
                let io: Arc<dyn SpillIo> = Arc::new(CountingIo::new(Arc::clone(&spill_stats)));
                let sorter = external_new(self.types.clone(), order, spill, THREADS, io);
                let (external, external_ms) = self
                    .tracer
                    .span("core.external.sort", || external_sort(&sorter, input));
                self.check(&external);
                drop(external);
                sort_ms = external_ms;
                let profile = external_profile(&sorter);
                drop(sorter);
                self.external(&profile, &spill_stats, external_ms, warm_ms + to_chunk_ms)?;
            }
            self.tracer.end(root);

            let ledger = &mut self.ledger;
            ledger.push("engine.exec_self_ms", exec_ms - sort_ms);
            ledger.push("engine.exec_self_frac", (exec_ms - sort_ms) / exec_ms);
            ledger.push("core.pipeline.new_us", new_ms * 1e3);
            ledger.push("core.pipeline.sort_rows_cold_ms", cold_ms);
            ledger.push("core.pipeline.sort_rows_warm_ms", warm_ms);
            ledger.push("core.pipeline.to_chunk_ms", to_chunk_ms);
            for (name, phase) in [
                ("core.pipeline.phase_prepare_ms", "prepare"),
                ("core.pipeline.phase_run_generation_ms", "run_generation"),
                ("core.pipeline.phase_merge_ms", "merge"),
            ] {
                ledger.push_opt(name, phase_ms(&profile, phase));
            }
            for (name, key) in [
                ("core.pipeline.runs_generated", "runs_generated"),
                ("core.pipeline.merge_rounds", "merge_rounds"),
                ("core.pipeline.merge_tasks", "merge_tasks"),
                ("core.workers.broadcasts", "broadcasts"),
            ] {
                ledger.push_opt(name, counter(&profile, key));
            }
            ledger.push_opt(
                "core.pipeline.bytes_moved_per_row",
                ratio(counter(&profile, "bytes_moved"), rows_f),
            );
            let cmps = counter(&profile, "merge_cmps");
            ledger.push_opt("core.pipeline.merge_cmps_per_row", ratio(cmps, rows_f));
            ledger.push_opt(
                "core.pipeline.merge_ovc_resolved_frac",
                ratio(counter(&profile, "merge_cmps_ovc_resolved"), cmps),
            );
            ledger.push_opt(
                "core.pipeline.merge_key_bytes_per_cmp",
                ratio(counter(&profile, "merge_key_bytes_touched"), cmps),
            );
            let hits = counter(&profile, "pool_hits");
            let requests = hits
                .zip(counter(&profile, "pool_misses"))
                .map(|(h, m)| h + m);
            ledger.push_opt("core.pool.misses_cold", counter(&cold, "pool_misses"));
            ledger.push_opt("core.pool.hit_frac_warm", ratio(hits, requests));
            ledger.push("core.pool.cold_penalty_ms", cold_ms - warm_ms);
            ledger.push_opt(
                "core.workers.broadcast_ms",
                counter(&profile, "broadcast_ns").map(|ns| ns / 1e6),
            );
            warm.push(warm_ms);
        }
        Ok(warm)
    }

    /// The external sorter's and the counting `SpillIo`'s figures for one
    /// sort of `sort_ms`, against `mem_ms` for the same rows in memory.
    fn external(
        &mut self,
        profile: &Json,
        stats: &SpillStats,
        sort_ms: f64,
        mem_ms: f64,
    ) -> Result<(), String> {
        let io = stats.take();
        if io.files_created != io.files_deleted {
            return Err(format!(
                "{} run files created, {} deleted",
                io.files_created, io.files_deleted
            ));
        }
        let rows = self.input.len();
        let input_bytes = (rows * row_width(&self.types)) as f64;
        let ledger = &mut self.ledger;
        ledger.push("core.external.sort_ms", sort_ms);
        for (name, phase) in [
            ("core.external.phase_spill_ms", "spill"),
            ("core.external.phase_spill_merge_ms", "spill_merge"),
        ] {
            ledger.push_opt(name, phase_ms(profile, phase));
        }
        for (name, key) in [
            ("core.external.spilled_runs", "spilled_runs"),
            ("core.external.merge_partitions", "spill_merge_partitions"),
            ("core.external.readahead_hits", "spill_readahead_hits"),
            ("core.spill.retries", "spill_retries"),
            ("core.spill.checksum_failed", "spill_checksum_failed"),
        ] {
            ledger.push_opt(name, counter(profile, key));
        }
        ledger.push_opt(
            "core.external.merge_cmps_per_row",
            ratio(counter(profile, "merge_cmps"), Some(rows as f64)),
        );
        ledger.push("core.external.vs_mem_ratio", sort_ms / mem_ms);
        let (written, read) = (io.bytes_written as f64, io.bytes_read as f64);
        ledger.push("core.spill.bytes_written", written);
        ledger.push("core.spill.bytes_read", read);
        ledger.push("core.spill.written_per_input_byte", written / input_bytes);
        ledger.push_opt(
            "core.spill.read_per_written_byte",
            ratio(Some(read), Some(written)),
        );
        ledger.push("core.spill.write_calls", io.write_calls as f64);
        ledger.push("core.spill.read_calls", io.read_calls as f64);
        ledger.push("core.spill.write_busy_ms", io.write_busy_ns as f64 / 1e6);
        ledger.push("core.spill.read_busy_ms", io.read_busy_ns as f64 / 1e6);
        ledger.push("core.spill.files_created", io.files_created as f64);
        ledger.push("core.spill.files_deleted", io.files_deleted as f64);
        Ok(())
    }

    /// Phase 3: run generation one call per stage and run, over buffers
    /// kept warm the way the pipeline's pool keeps its own, and the
    /// engine's own vector work round the sort.
    fn stages(&mut self, warm_ms: &[f64]) -> Result<(), String> {
        let (input, rows, run_rows) = (self.input, self.input.len(), self.run_rows);
        let mut stages = Stages::new(input, &self.order, run_rows.min(rows));
        let one_thread = pipeline_new(self.types.clone(), &self.order, 1, run_rows);
        let sorted_chunk = sorted_to_chunk(&pipeline_sort_rows(&one_thread, input));
        let width = row_width(&self.types);
        let row_bytes = rows * width;
        for (query, &warm_ms) in warm_ms.iter().enumerate() {
            self.tracer.start_query(query as u32 + 1);
            let tracer = &mut self.tracer;
            let root = tracer.begin("replay");
            let (sorted, one_thread_ms) = tracer.span("core.pipeline.sort_rows_warm_1t", || {
                pipeline_sort_rows(&one_thread, input)
            });
            drop(sorted);
            let own_ms = phase_ms(&pipeline_profile(&one_thread), "run_generation");

            let mut stage_ms = [0.0; 5];
            let (mut radix_runs, mut pdq_runs, mut radix_passes) = (0u64, 0u64, 0u64);
            let mut lo = 0;
            while lo < rows {
                let hi = (lo + run_rows).min(rows);
                stage_ms[0] += tracer
                    .span("row.scatter", || stages.scatter(input, lo, hi))
                    .1;
                stage_ms[1] += tracer
                    .span("normkey.encode", || stages.encode(input, lo, hi))
                    .1;
                let (algo, ms) = tracer.span("algos.run_sort", || stages.run_sort());
                stage_ms[2] += ms;
                match algo {
                    KeySortAlgo::Radix { passes } => {
                        radix_runs += 1;
                        radix_passes += passes;
                    }
                    KeySortAlgo::Pdq => pdq_runs += 1,
                    KeySortAlgo::Noop => {}
                }
                stage_ms[3] += tracer.span("row.reorder", || stages.reorder()).1;
                stage_ms[4] += tracer.span("row.gather", || stages.gather()).1;
                lo = hi;
            }
            let [scatter_ms, encode_ms, run_sort_ms, reorder_ms, gather_ms] = stage_ms;
            let vectors = split(input);
            let (all, materialize_ms) =
                tracer.span("vector.materialize", || materialize(&self.types, &vectors));
            drop((all?, vectors));
            let (vectors, split_ms) = tracer.span("vector.split", || split(&sorted_chunk));
            drop(vectors);
            tracer.end(root);

            let ledger = &mut self.ledger;
            ledger.push("vector.materialize_ms", materialize_ms);
            ledger.push("vector.split_ms", split_ms);
            ledger.push("row.width_bytes", width as f64);
            ledger.push("row.scatter_ms", scatter_ms);
            ledger.push("row.scatter_gbps", gbps(row_bytes, scatter_ms));
            ledger.push("row.reorder_ms", reorder_ms);
            ledger.push("row.reorder_gbps", gbps(row_bytes, reorder_ms));
            ledger.push("row.gather_ms", gather_ms);
            ledger.push("row.gather_gbps", gbps(row_bytes, gather_ms));
            ledger.push("normkey.key_width_bytes", stages.key_width() as f64);
            ledger.push("normkey.encode_ms", encode_ms);
            ledger.push(
                "normkey.encode_gbps",
                gbps(rows * stages.key_stride(), encode_ms),
            );
            ledger.push("algos.run_sort_ms", run_sort_ms);
            ledger.push(
                "algos.run_sort_mrows_per_s",
                rows as f64 / (run_sort_ms * 1e3),
            );
            ledger.push("algos.radix_runs", radix_runs as f64);
            ledger.push("algos.pdq_runs", pdq_runs as f64);
            ledger.push("algos.radix_passes", radix_passes as f64);
            ledger.push("core.workers.parallel_speedup", one_thread_ms / warm_ms);
            // How much of the program's own run-generation phase the
            // staged, single-threaded view from outside leaves unexplained.
            let staged_ms = scatter_ms + encode_ms + run_sort_ms + reorder_ms;
            ledger.push_opt(
                "trace.replay_gap_frac",
                own_ms.map(|own| 1.0 - staged_ms / own),
            );
        }
        Ok(())
    }
}
