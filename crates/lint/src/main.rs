//! `rowsort-lint` — run the workspace analyzer from the command line.
//!
//! ```text
//! rowsort-lint [--root DIR]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use lint::run_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<PathBuf, String> {
    let mut root = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(it.next().ok_or("--root requires a directory")?),
            "--help" | "-h" => return Err("usage: rowsort-lint [--root DIR]".into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let report = match parse_args().and_then(|root| run_workspace(&root)) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("rowsort-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    for f in &report.errors {
        println!(
            "error[{}]: {}:{}:{}: {}",
            f.rule, f.path, f.line, f.col, f.message
        );
    }
    println!(
        "rowsort-lint: {} file(s) scanned, {} error(s)",
        report.files_scanned,
        report.errors.len()
    );
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
