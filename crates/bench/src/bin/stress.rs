//! Differential spill-stress runner.
//!
//! ```text
//! stress --iters 50 --seed 0xR0WS0RT [--report target/perf/stress_report.json]
//! ```
//!
//! Runs the differential oracle's fault check over N seeds
//! ([`rowsort_bench::stress`]): each iteration draws one case from the
//! harness's generator, sorts it through the external sorter under the
//! case's fault schedule and holds the outcome to the reference sort.
//! Prints one summary line per run, writes the JSON report when asked,
//! and exits non-zero if any invariant was violated — with the
//! per-iteration seed in the message, so a failure reproduces with
//! `--iters 1 --seed <that seed>`.

use rowsort_bench::stress::{parse_seed, run, StressConfig};

#[expect(
    clippy::exit,
    reason = "a CLI usage error ends the process with status 2"
)]
fn die(msg: &str) -> ! {
    eprintln!("stress: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut iters: u64 = 50;
    let mut seed_text = "0xR0WS0RT".to_owned();
    let mut report_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--iters" => {
                iters = value("--iters")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --iters: {e}")))
            }
            "--seed" => seed_text = value("--seed"),
            "--report" => report_path = Some(value("--report")),
            "--help" | "-h" => {
                println!("usage: stress [--iters N] [--seed S] [--report PATH]");
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }

    let config = StressConfig {
        iters,
        seed: parse_seed(&seed_text),
        seed_text,
    };
    let report = run(&config);

    println!(
        "stress: {} iterations (seed {}): {} survived, {} failed typed-io, {} failed \
         typed-corrupt, {} degraded, {} faults fired, {} cleanup failures, {} violations",
        report.iters,
        config.seed_text,
        report.survived,
        report.failed_io,
        report.failed_corrupt,
        report.degraded,
        report.faults_fired,
        report.cleanup_failures,
        report.violations.len(),
    );

    if let Some(path) = &report_path {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, report.to_json(&config).render())
            .unwrap_or_else(|e| die(&format!("cannot write report {path}: {e}")));
        println!("stress: report written to {path}");
    }

    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("stress: VIOLATION: {v}");
        }
        eprintln!("stress: re-run a single failing iteration with --iters 1 --seed <seed above>");
        std::process::exit(1);
    }
}
