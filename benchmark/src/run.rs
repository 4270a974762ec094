//! Running one workload.
//!
//! The load is one client thread in a closed loop: the next query is sent
//! when the previous result has been checked. A run is split into parts,
//! each a child process that regenerates the data from the seed, warms up
//! and measures its share of the run's seconds; the parent pools their
//! samples. Query time shifts by several per cent from process to process
//! (allocator and address-space state), which no number of samples inside
//! one process averages out; parts also give the run several set-ups,
//! whose median is `setup_s`. Wall and CPU time are reported at reference
//! speed (`probe.rs`).

use crate::adapter::{DataChunk, Json, Session, SpillConfig};
use crate::alloc;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::oracle::{fingerprint, Fingerprint, Oracle};
use crate::probe;
use crate::replay::{Ledger, Replay};
use crate::workload::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Sort threads of the engine under test, pinned: the reference host has
/// two cores.
pub const THREADS: usize = 2;
/// Child processes an untraced run is split into.
const PARTS: usize = 3;
/// Queries before anything is timed; the last one's result is checked in full.
const WARMUPS: usize = 3;
/// A part times at least this many queries however short its seconds.
const MIN_QUERIES: usize = 3;
/// Share of a traced run's seconds spent in the untraced loop that gives
/// the `engine.*` loop figures.
const TRACED_LOOP_SHARE: f64 = 0.3;
/// Clock ticks per second of `/proc/self/stat` (USER_HZ, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// What to run.
#[derive(Clone, Copy)]
pub struct Config {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies the workload's row count (tests run small).
    pub scale: f64,
}

/// The pooled result of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
}

impl Outcome {
    /// The value of the metric called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }

    /// The result line the benchmark contract asks for.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(m, value)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.unit)),
                ]);
                (m.name.to_owned(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let at = q * (n - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        }
    }
}

/// The directory of the running executable: inside the build directory,
/// so what the benchmark writes stays in the checkout and out of git.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .map(PathBuf::from)
        .ok_or_else(|| "executable has no parent directory".to_owned())
}

/// The spill directory of one child, removed when the child is done.
struct SpillDir(PathBuf);

impl SpillDir {
    fn create() -> Result<SpillDir, String> {
        let dir = scratch_dir()?.join(format!("rowbench-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(SpillDir(dir))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("rowbench: could not remove {}: {e}", self.0.display());
        }
    }
}

/// User + system CPU time of this process, all threads, in milliseconds.
fn process_cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let fields = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = fields.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(utime), Some(stime)) => Ok((utime + stime) * 1e3 / TICKS_PER_S),
        _ => Err("/proc/self/stat: no utime/stime".to_owned()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// GB/s of a 64 MiB `copy_from_slice`, best of three: the yardstick the
/// `*_gbps` figures are read against.
fn memcpy_gbps() -> f64 {
    const LEN: usize = 64 << 20;
    let src = vec![1u8; LEN];
    let mut dst = vec![0u8; LEN];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    LEN as f64 / 1e9 / best
}

// ---------------------------------------------------------------------------
// The child: one part of a run
// ---------------------------------------------------------------------------

/// What one timed loop measured.
struct Loop {
    samples_ms: Vec<f64>,
    /// The host's speed right after each sample (`probe::speed`).
    speeds: Vec<f64>,
    failed: u64,
    cpu_ms: f64,
    wall_s: f64,
    peak_heap_bytes: usize,
    alloc_calls: usize,
    alloc_bytes: usize,
    /// The last result, for the full oracle check.
    last: Option<DataChunk>,
}

impl Loop {
    /// The loop's ungated figures and the host's, for the per-layer ledger.
    fn diagnostics(&self, rows: usize, peak_rss_mb: Option<f64>, ledger: &mut Ledger) {
        let queries = self.samples_ms.len() as f64;
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        ledger.push("engine.allocs_per_query", self.alloc_calls as f64 / queries);
        ledger.push(
            "engine.alloc_mb_per_query",
            self.alloc_bytes as f64 / queries / (1 << 20) as f64,
        );
        ledger.push("engine.query_ms_p50", median(&self.samples_ms));
        ledger.push("engine.query_ms_p90", percentile(&self.samples_ms, 0.9));
        ledger.push(
            "engine.loop_mrows_per_s",
            queries * rows as f64 / self.wall_s / 1e6,
        );
        ledger.push_opt("engine.peak_rss_mb", peak_rss_mb);
        ledger.push("host.nproc", nproc as f64);
        ledger.push("host.speed_frac", median(&self.speeds));
        ledger.push("host.memcpy_gbps", memcpy_gbps());
    }
}

/// Send `sql` in a closed loop for `seconds`, checking every result
/// against `expected` outside the timed span.
fn timed_loop(
    session: &Session,
    sql: &str,
    expected: Fingerprint,
    seconds: f64,
) -> Result<Loop, String> {
    // Room for a part's samples without weighing on `peak_heap_mb`.
    let mut samples_ms = Vec::with_capacity(1 << 12);
    let mut speeds = Vec::with_capacity(1 << 12);
    let (mut failed, mut last) = (0, None);
    let deadline = Duration::from_secs_f64(seconds);
    alloc::reset_peak();
    let heap_before = alloc::read();
    let cpu_before = process_cpu_ms()?;
    let started = Instant::now();
    loop {
        let sent = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| session.query(sql)));
        samples_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        speeds.push(probe::speed());
        let done = samples_ms.len() >= MIN_QUERIES && started.elapsed() >= deadline;
        match result {
            Ok(Ok(chunk)) if fingerprint(&chunk) == expected => {
                if done {
                    last = Some(chunk);
                }
            }
            _ => failed += 1,
        }
        if done {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = process_cpu_ms()? - cpu_before;
    let heap = alloc::read();
    Ok(Loop {
        samples_ms,
        speeds,
        failed,
        cpu_ms,
        wall_s,
        peak_heap_bytes: heap.peak_bytes,
        alloc_calls: heap.calls - heap_before.calls,
        alloc_bytes: heap.bytes - heap_before.bytes,
        last,
    })
}

/// Run one part in this process and return its report.
pub fn child(cfg: &Config) -> Result<Json, String> {
    let workload = cfg.workload;
    let started = Instant::now();
    let rows = workload.scaled_rows(cfg.scale);
    let (columns, data) = workload.generate(rows, cfg.seed);
    let spill_dir = workload
        .spill_runs
        .map(|_| SpillDir::create())
        .transpose()?;
    let spill = workload
        .spill_runs
        .zip(spill_dir.as_ref())
        .map(|(runs, dir)| SpillConfig {
            memory_limit_rows: (rows / runs).max(1),
            dir: dir.0.clone(),
        });
    let oracle = Oracle::new(&data, workload.order_by(&columns));
    let mut session = Session::new(THREADS, spill.as_ref());
    session.register(workload.table, columns, data);
    let mut warm = None;
    for _ in 0..WARMUPS {
        warm = Some(session.query(workload.sql)?);
    }
    let warm = warm.ok_or("no warm-up query ran")?;
    oracle
        .verify(&warm)
        .map_err(|e| format!("warm-up result: {e}"))?;
    let expected = fingerprint(&warm);
    drop(warm);
    let setup_s = started.elapsed().as_secs_f64();

    let loop_seconds = if cfg.trace {
        cfg.seconds * TRACED_LOOP_SHARE
    } else {
        cfg.seconds
    };
    let mut timed = timed_loop(&session, workload.sql, expected, loop_seconds)?;
    let verified = match timed.last.take() {
        Some(last) => oracle.verify(&last).is_ok(),
        None => false,
    };
    let mut attempted = timed.samples_ms.len() as u64;
    let mut failed = timed.failed;
    let array = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
    let mut report = vec![
        ("setup_s", Json::Num(setup_s)),
        ("samples_ms", array(&timed.samples_ms)),
        ("speeds", array(&timed.speeds)),
        ("cpu_ms", Json::Num(timed.cpu_ms)),
        ("peak_heap_bytes", Json::Num(timed.peak_heap_bytes as f64)),
    ];
    if cfg.trace {
        // Before the replay's own buffers raise it.
        let peak_rss = peak_rss_mb();
        let replay = Replay {
            session: &session,
            workload,
            spill: spill.as_ref(),
            expected,
            seconds: cfg.seconds - loop_seconds,
        };
        let mut traced = replay.run()?;
        attempted += traced.attempted;
        failed += traced.failed;
        timed.diagnostics(rows, peak_rss, &mut traced.ledger);
        let layers = traced
            .ledger
            .medians(spill.is_some())
            .into_iter()
            .map(|(name, value)| (name.to_owned(), Json::Num(value)))
            .collect();
        report.push(("layers", Json::Obj(layers)));
    }
    report.push(("attempted", Json::Num(attempted as f64)));
    report.push(("failed", Json::Num(failed as f64)));
    report.push(("verified", Json::Bool(verified)));
    Ok(Json::obj(report))
}

// ---------------------------------------------------------------------------
// The parent: parts, pooled
// ---------------------------------------------------------------------------

/// Run one part as a child process and parse the report it prints.
fn spawn_part(cfg: &Config, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("one")
        .args(["--workload", cfg.workload.name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .args(["--scale", &cfg.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn part: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "part of {} failed: {}",
            cfg.workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("part printed nothing")?;
    Json::parse(line).map_err(|e| format!("part report: {e}"))
}

fn field(report: &Json, key: &str) -> Result<f64, String> {
    report
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("part report has no {key}"))
}

fn numbers(report: &Json, key: &str) -> Vec<f64> {
    let items = report.get(key).and_then(Json::as_arr).unwrap_or_default();
    items.iter().filter_map(Json::as_f64).collect()
}

/// Run the workload: its parts one after another, pooled.
pub fn measure(cfg: &Config) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < THREADS {
        eprintln!("rowbench: warning: {nproc} core(s) for {THREADS} pinned sort threads");
    }
    let parts = if cfg.trace { 1 } else { PARTS };
    let mut reports = Vec::with_capacity(parts);
    for _ in 0..parts {
        reports.push(spawn_part(cfg, cfg.seconds / parts as f64)?);
    }

    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    let (mut setups, mut samples) = (Vec::new(), Vec::new());
    let (mut cpu_ms, mut peak_heap_bytes) = (0.0, 0.0f64);
    for report in &reports {
        attempted += field(report, "attempted")?;
        failed += field(report, "failed")?;
        correct &= report.get("verified") == Some(&Json::Bool(true));
        setups.push(field(report, "setup_s")?);
        let part_samples = numbers(report, "samples_ms");
        let speeds = numbers(report, "speeds");
        // At reference speed: each sample by the host's speed right after
        // it, the loop's CPU time by the loop's median speed.
        samples.extend(
            part_samples
                .iter()
                .zip(&speeds)
                .map(|(ms, speed)| ms * speed),
        );
        cpu_ms += field(report, "cpu_ms")? * median(&speeds);
        peak_heap_bytes = peak_heap_bytes.max(field(report, "peak_heap_bytes")?);
    }
    let metrics = if cfg.trace {
        let layers = reports[0]
            .get("layers")
            .ok_or("traced part has no layers")?;
        PER_LAYER
            .iter()
            .map(|m| Ok((m, field(layers, m.name)?)))
            .collect::<Result<Vec<_>, String>>()?
    } else {
        END_TO_END
            .iter()
            .map(|(m, _)| {
                let value = match m.name {
                    "query_ms_p50" => median(&samples),
                    "cpu_ms_per_query" => cpu_ms / samples.len() as f64,
                    "peak_heap_mb" => peak_heap_bytes / (1 << 20) as f64,
                    _ => median(&setups),
                };
                (m, value)
            })
            .collect()
    };
    Ok(Outcome {
        correct: correct && failed == 0.0,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
    })
}
