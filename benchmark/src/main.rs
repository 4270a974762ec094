//! `rowbench`: SQL in, sorted chunk out, with a per-layer ledger.
//!
//! ```text
//! rowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result object (end-to-end metrics with --trace 0, per-layer with 1)
//! rowbench repeat --sets <n> [--seed <n>] [--seconds <s>]
//!     every workload, traced and untraced, <n> times over; with two or
//!     more sets, compares them against the bounds and the exact counts
//! rowbench describe
//!     prints BENCHMARK.json from the tables in workload.rs and metrics.rs
//! ```
//!
//! README.md describes the workloads, the metrics and how they interact.

mod adapter;
mod alloc;
mod metrics;
mod oracle;
mod probe;
mod replay;
mod run;
mod spill_io;
mod trace;
mod workload;

use adapter::Json;
use metrics::{Metric, END_TO_END, EXACT_COUNTS, PER_LAYER};
use run::{Config, Outcome};
use std::process::ExitCode;
use workload::WORKLOADS;

#[global_allocator]
static ALLOCATOR: alloc::TrackingAllocator = alloc::TrackingAllocator;

/// Seconds one run measures unless `--seconds` says otherwise
/// (`run_seconds` of BENCHMARK.json).
const RUN_SECONDS: u32 = 20;

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    sets: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        scale: 1.0,
        sets: 2,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") && cli.command.is_none() {
            cli.command = Some(arg.clone());
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = |what: &str| format!("{arg} {value}: not {what}");
        match arg.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                cli.scale = value.parse().map_err(|_| bad("a number"))?;
                if !(cli.scale > 0.0 && cli.scale <= 100.0) {
                    return Err(bad("between 0 and 100"));
                }
            }
            "--sets" => {
                cli.sets = value.parse().map_err(|_| bad("a whole number"))?;
                if !(1..=16).contains(&cli.sets) {
                    return Err(bad("between 1 and 16"));
                }
            }
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    Ok(cli)
}

fn config(cli: &Cli) -> Result<Config, String> {
    let name = cli.workload.as_deref().ok_or("--workload is required")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    Ok(Config {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: cli.scale,
    })
}

fn print_metrics(outcome: &Outcome) {
    for (metric, value) in &outcome.metrics {
        println!("{:<44} {:>16.4} {}", metric.name, value, metric.unit);
    }
}

/// Run every workload `sets` times, traced and untraced; with two or more
/// sets, fail on an end-to-end difference beyond its bound or on a count
/// that does not repeat.
fn repeat(cli: &Cli) -> Result<bool, String> {
    let mut sets: Vec<Vec<(Outcome, Outcome)>> = Vec::new();
    for set in 1..=cli.sets {
        let mut outcomes = Vec::new();
        for workload in &WORKLOADS {
            let mut cfg = Config {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: false,
                scale: cli.scale,
            };
            let end_to_end = run::measure(&cfg)?;
            cfg.trace = true;
            let per_layer = run::measure(&cfg)?;
            println!("== set {set}, {} (seed {}) ==", workload.name, cli.seed);
            for outcome in [&end_to_end, &per_layer] {
                println!(
                    "correct {}  attempted {}  failed {}",
                    outcome.correct, outcome.attempted, outcome.failed
                );
                print_metrics(outcome);
            }
            outcomes.push((end_to_end, per_layer));
        }
        sets.push(outcomes);
    }

    let mut ok = sets
        .iter()
        .flatten()
        .all(|(a, b)| a.correct && b.correct && a.failed + b.failed == 0);
    let Some((first, rest)) = sets.split_first() else {
        return Ok(ok);
    };
    for (number, other) in rest.iter().enumerate() {
        println!("== set 1 against set {} ==", number + 2);
        for (workload, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(other)) {
            for (metric, bound) in &END_TO_END {
                let (x, y) = (a.0.value(metric.name), b.0.value(metric.name));
                let (Some(x), Some(y)) = (x, y) else { continue };
                let diff = (y - x).abs() / x.min(y);
                let verdict = if diff <= *bound { "ok" } else { "BEYOND BOUND" };
                ok &= diff <= *bound;
                println!(
                    "{:<14} {:<18} {:>12.4} {:>12.4} {:<4} diff {:>6.2}%  bound {:>4.0}%  {verdict}",
                    workload.name,
                    metric.name,
                    x,
                    y,
                    metric.unit,
                    diff * 100.0,
                    bound * 100.0
                );
            }
            for name in EXACT_COUNTS {
                let (x, y) = (a.1.value(name), b.1.value(name));
                let verdict = if x == y { "equal" } else { "DIFFERENT" };
                ok &= x == y;
                println!(
                    "{:<14} {:<36} {:>14} {:>14}  {verdict}",
                    workload.name,
                    name,
                    x.unwrap_or(f64::NAN),
                    y.unwrap_or(f64::NAN)
                );
            }
        }
    }
    Ok(ok)
}

/// BENCHMARK.json, written from the tables the binary itself runs by.
fn describe() -> String {
    let better = |m: &Metric| {
        Json::str(if m.higher_is_better {
            "higher"
        } else {
            "lower"
        })
    };
    let metric = |m: &Metric| {
        vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", better(m)),
        ]
    };
    let lines = |entries: Vec<Json>| {
        let lines: Vec<String> = entries
            .iter()
            .map(|e| format!("    {}", e.render()))
            .collect();
        lines.join(",\n")
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(m, bound)| {
            let mut entry = metric(m);
            entry.push(("bound", Json::Num(*bound)));
            Json::obj(entry)
        })
        .collect();
    let per_layer = PER_LAYER.iter().map(|m| Json::obj(metric(m))).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        Json::Arr(command.map(Json::str).to_vec()).render(),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer)
    )
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    // Both sides of a comparison run the program's defaults.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("ROWSORT_"))
    {
        return Err(format!(
            "{} is set; rowbench measures the defaults, unset it",
            name.to_string_lossy()
        ));
    }
    let cli = parse_cli(args)?;
    match cli.command.as_deref() {
        None => {
            let outcome = run::measure(&config(&cli)?)?;
            print_metrics(&outcome);
            // A wrong result is reported in the object, not by the exit code.
            println!("{}", outcome.to_json().render());
            Ok(true)
        }
        Some("one") => {
            println!("{}", run::child(&config(&cli)?)?.render());
            Ok(true)
        }
        Some("repeat") => repeat(&cli),
        Some("describe") => {
            println!("{}", describe());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("rowbench: a result was wrong or a comparison failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("rowbench: {message}");
            ExitCode::FAILURE
        }
    }
}
