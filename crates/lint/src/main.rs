//! `rowsort-lint` — run the workspace analyzer from the command line.
//!
//! ```text
//! rowsort-lint [--root DIR] [--json] [--timing] [--explain RXXX]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.
//!
//! - `--json` emits one machine-readable document on stdout (CI uploads
//!   it as the findings artifact).
//! - `--timing` adds per-rule elapsed-ms and per-file lex-ms to the
//!   `--json` document (key `timing`); without `--json` it prints a
//!   human-readable timing table after the findings.
//! - `--explain RXXX` prints the long-form rationale for one rule.

use lint::{load_config, rules, run_workspace, Finding, Report};
use rowsort_testkit::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
    timing: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        timing: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--timing" => args.timing = true,
            "--explain" => {
                args.explain = Some(
                    it.next()
                        .ok_or("--explain requires a rule id (e.g. R010)")?,
                );
            }
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root requires a directory argument")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: rowsort-lint [--root DIR] [--json] [--timing] [--explain RXXX]".into(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn finding_json(f: &Finding) -> Json {
    Json::obj(vec![
        ("rule", Json::str(f.rule.clone())),
        ("path", Json::str(f.path.clone())),
        ("line", Json::Num(f.line as f64)),
        ("col", Json::Num(f.col as f64)),
        ("message", Json::str(f.message.clone())),
    ])
}

/// Round to 3 decimal places — microsecond resolution is plenty for a
/// timing report and keeps the JSON stable-width.
fn round_ms(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

/// The `timing` section of the `--json` document: accumulated elapsed
/// ms per rule, lex ms per file.
fn timing_json(t: &lint::Timing) -> Json {
    Json::obj(vec![
        (
            "rules_ms",
            Json::obj(
                t.rules_ms
                    .iter()
                    .map(|(r, ms)| (r.as_str(), Json::Num(round_ms(*ms))))
                    .collect(),
            ),
        ),
        (
            "lex_ms",
            Json::obj(
                t.lex_ms
                    .iter()
                    .map(|(p, ms)| (p.as_str(), Json::Num(round_ms(*ms))))
                    .collect(),
            ),
        ),
    ])
}

fn print_timing(t: &lint::Timing) {
    let mut rules: Vec<(&str, f64)> = t.rules_ms.iter().map(|(r, ms)| (r.as_str(), *ms)).collect();
    rules.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    println!("timing (rules, total ms):");
    for (rule, ms) in rules {
        println!("  {rule:<16} {:>9.3}", ms);
    }
    let mut files: Vec<(&str, f64)> = t.lex_ms.iter().map(|(p, ms)| (p.as_str(), *ms)).collect();
    files.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let total: f64 = files.iter().map(|(_, ms)| ms).sum();
    println!(
        "timing (lex, {:.3} ms over {} file(s); slowest 10):",
        total,
        files.len()
    );
    for (path, ms) in files.iter().take(10) {
        println!("  {path:<56} {:>9.3}", ms);
    }
}

/// `R003: 2, R013: 5`-style summary over every reported finding.
fn per_rule_counts(report: &Report) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for f in &report.errors {
        match counts.iter_mut().find(|(r, _)| *r == f.rule) {
            Some((_, n)) => *n += 1,
            None => counts.push((f.rule.clone(), 1)),
        }
    }
    counts.sort();
    counts
}

fn print_human(report: &Report) {
    for f in &report.errors {
        println!(
            "error[{}]: {}:{}:{}: {}",
            f.rule, f.path, f.line, f.col, f.message
        );
    }
    let counts = per_rule_counts(report);
    if !counts.is_empty() {
        let rendered: Vec<String> = counts.iter().map(|(r, n)| format!("{r}: {n}")).collect();
        println!("per-rule counts: {}", rendered.join(", "));
    }
    println!(
        "rowsort-lint: {} file(s) scanned, {} error(s)",
        report.files_scanned,
        report.errors.len()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("rowsort-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = &args.explain {
        return match rules::explain(rule) {
            Some(doc) => {
                println!("{doc}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "rowsort-lint: unknown rule `{rule}` (rules: R000, R003, R010, R011, R013)"
                );
                ExitCode::from(2)
            }
        };
    }

    let report = match load_config(&args.root).and_then(|cfg| run_workspace(&args.root, &cfg)) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("rowsort-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        let counts = per_rule_counts(&report);
        let mut fields = vec![
            ("files_scanned", Json::Num(report.files_scanned as f64)),
            (
                "findings",
                Json::Arr(report.errors.iter().map(finding_json).collect()),
            ),
            (
                "per_rule",
                Json::obj(
                    counts
                        .iter()
                        .map(|(r, n)| (r.as_str(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
        ];
        if args.timing {
            fields.push(("timing", timing_json(&report.timing)));
        }
        println!("{}", Json::obj(fields).render());
    } else {
        print_human(&report);
        if args.timing {
            print_timing(&report.timing);
        }
    }

    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
