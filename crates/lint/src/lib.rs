//! rowsort-lint — in-tree static analysis for the rowsort workspace.
//!
//! A dependency-free analyzer built on a hand-rolled Rust lexer
//! ([`lexer`]). Analysis is one pass per file ([`rules::analyze_file`]):
//! each file is lexed once, and every rule reads that one token stream —
//! R003 allocation in hot loops, R010 literal subscripts in the
//! panic-free crates, R011 atomic-ordering discipline and R013 SAFETY
//! completeness.
//!
//! Together they hold the invariants the sorting paper's performance
//! claims rest on that no stock lint states: allocation-free hot loops,
//! sound atomic orderings, and SAFETY arguments that name what they argue
//! about. What clippy and rustc say is theirs: documented,
//! single-operation `unsafe` blocks, `unsafe` only where expected and
//! `process::exit` only in CLI mains (the root `Cargo.toml`); no
//! `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
//! outside tests in the four panic-free crates, no discarded
//! `#[must_use]` value in `rowsort-core`, and lossless casts in the key
//! encoder (each crate's `lib.rs`). What a rule cannot see — whether a
//! run file's bytes stay inside their bounds, whether an `unsafe` index
//! stays below its length — is held by runtime tests instead. See
//! `lint.toml` for rule scoping and `DESIGN.md` §9 for what holds each
//! invariant.
//!
//! Run it as `cargo run -p lint --release` (binary name `rowsort-lint`);
//! `scripts/verify.sh` treats a non-zero exit as a tier-1 failure.

pub mod config;
pub mod lexer;
pub mod rules;
mod toml_scan;

pub use config::Config;
pub use rules::Finding;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Wall-clock timing for a workspace run, surfaced by `--timing`.
///
/// Rule timings accumulate per rule across every file; lex timings are
/// one entry per `.rs` file. Collection is always on — two `Instant`
/// reads per rule invocation cost nothing next to the analysis itself —
/// and the CLI decides whether to render it.
#[derive(Debug, Default)]
pub struct Timing {
    /// `(rule id, accumulated elapsed ms)`, insertion-ordered.
    pub rules_ms: Vec<(String, f64)>,
    /// `(repo-relative path, lex elapsed ms)`.
    pub lex_ms: Vec<(String, f64)>,
}

impl Timing {
    /// Accumulate `ms` into the bucket for `rule`.
    pub fn add_rule(&mut self, rule: &str, ms: f64) {
        match self.rules_ms.iter_mut().find(|(r, _)| r == rule) {
            Some((_, total)) => *total += ms,
            None => self.rules_ms.push((rule.to_string(), ms)),
        }
    }

    /// Record the lex time for one file.
    pub fn add_lex(&mut self, path: &str, ms: f64) {
        self.lex_ms.push((path.to_string(), ms));
    }
}

/// Milliseconds elapsed since `t0`, for [`Timing`] buckets.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1000.0
}

/// Analyze one file's source text (a file that is not `.rs` yields
/// nothing). `rel_path` must be workspace-relative with `/` separators.
pub fn analyze_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    rules::analyze_file(rel_path, src, cfg, &mut Timing::default())
}

/// The result of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, sorted; any one fails the build.
    pub errors: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Per-rule and per-file wall-clock timings (`--timing` prints them).
    pub timing: Timing,
}

/// The files a workspace run scans: every `.rs` file under `root` outside
/// `[exclude]`, workspace-relative, sorted.
fn workspace_files(root: &Path, cfg: &Config) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    collect_files(root, root, cfg, &mut files)?;
    files.sort();
    Ok(files)
}

/// Walk the workspace rooted at `root`: the one analysis pass over every
/// file.
pub fn run_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = workspace_files(root, cfg)?;
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for rel in &files {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        let found = rules::analyze_file(rel, &src, cfg, &mut report.timing);
        report.errors.extend(found);
    }
    report
        .errors
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(report)
}

/// Directories never worth descending into, regardless of `lint.toml`.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "vendor"];

fn collect_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_unix(root, &path);
            if !Config::matches(&cfg.exclude, &rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators (lint findings and glob
/// patterns are platform-independent).
fn rel_unix(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Load `lint.toml` from the workspace root. A missing config is an
/// error: scoped rules without scopes silently check nothing.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    let src = fs::read_to_string(&path).map_err(|e| {
        format!(
            "read {}: {e} (lint.toml is required at the workspace root)",
            path.display()
        )
    })?;
    Ok(Config::parse(&src))
}
