//! rowsort-lint — in-tree static analysis for the rowsort workspace.
//!
//! A dependency-free analyzer built on a hand-rolled Rust lexer
//! ([`lexer`]), a recursive-descent parser ([`parser`] → [`ast`]) and a
//! per-crate call graph ([`callgraph`]). Analysis is one pass per crate
//! unit ([`rules::analyze_unit`]): each file is lexed and parsed once,
//! and every rule reads that one token stream and AST — R003 allocation
//! in hot loops, R010 panic reachability from `[hot-entry-points]` and
//! every function of a `[hot-paths]` file, R011 atomic-ordering
//! discipline, R012 spill-error observability and R013 SAFETY
//! completeness.
//!
//! Together they enforce the invariants the sorting paper's performance
//! claims rest on that no stock lint states: panic-free and
//! allocation-free hot paths, sound atomic orderings, observable spill
//! failures, and SAFETY arguments that name what they argue about. What
//! clippy and rustc say (documented, single-operation `unsafe` blocks,
//! `unsafe` only where expected, lossless casts in the key encoder,
//! `process::exit` only in CLI mains) is theirs, set in the root
//! `Cargo.toml`. What a rule cannot see — whether a run file's bytes
//! stay inside their bounds, whether an `unsafe` index stays below its
//! length — is held by runtime tests instead. See `lint.toml` for rule
//! scoping and `DESIGN.md` for the rationale per rule.
//!
//! Run it as `cargo run -p lint --release` (binary name `rowsort-lint`);
//! `scripts/verify.sh` treats a non-zero exit as a tier-1 failure.

pub mod ast;
pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod rules;
mod toml_scan;

pub use config::Config;
pub use rules::Finding;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Wall-clock timing for a workspace run, surfaced by `--timing`.
///
/// Rule timings accumulate per rule group across every file and crate
/// unit; parse timings are one entry per `.rs` file (its one lex + AST
/// parse). Collection is always on — two `Instant`
/// reads per rule invocation cost nothing next to the analysis itself —
/// and the CLI decides whether to render it.
#[derive(Debug, Default)]
pub struct Timing {
    /// `(rule id, accumulated elapsed ms)`, insertion-ordered.
    pub rules_ms: Vec<(String, f64)>,
    /// `(repo-relative path, lex+parse elapsed ms)`.
    pub parse_ms: Vec<(String, f64)>,
}

impl Timing {
    /// Accumulate `ms` into the bucket for `rule`.
    pub fn add_rule(&mut self, rule: &str, ms: f64) {
        match self.rules_ms.iter_mut().find(|(r, _)| r == rule) {
            Some((_, total)) => *total += ms,
            None => self.rules_ms.push((rule.to_string(), ms)),
        }
    }

    /// Record the lex+parse time for one file.
    pub fn add_parse(&mut self, path: &str, ms: f64) {
        self.parse_ms.push((path.to_string(), ms));
    }
}

/// Milliseconds elapsed since `t0`, for [`Timing`] buckets.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1000.0
}

/// Analyze one file's source text on its own, as a one-file crate unit
/// (a file that is not `.rs` yields nothing). `rel_path` must be
/// workspace-relative with `/` separators.
pub fn analyze_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let unit = [(rel_path.to_string(), src.to_string())];
    rules::analyze_unit(&unit, cfg, &mut Timing::default())
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
pub fn workspace_files(root: &Path, cfg: &Config) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    collect_files(root, root, cfg, &mut files)?;
    files.sort();
    Ok(files)
}

/// Walk the workspace rooted at `root`: the one analysis pass over every
/// crate unit, and the `[hot-entry-points]` entries whose file no unit
/// holds.
pub fn run_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = workspace_files(root, cfg)?;
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    // (unit name, files) in first-seen order; ordering findings come from
    // the final sort, but deterministic unit order keeps runs stable.
    let mut units: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        let unit = crate_unit(rel);
        match units.iter_mut().find(|(u, _)| *u == unit) {
            Some((_, fs)) => fs.push((rel.clone(), src)),
            None => units.push((unit, vec![(rel.clone(), src)])),
        }
    }
    for (_, unit_files) in &units {
        report
            .errors
            .extend(rules::analyze_unit(unit_files, cfg, &mut report.timing));
    }
    for (file, qual) in &cfg.hot_entries {
        if !files.contains(file) {
            report.errors.push(rules::unresolved_entry(cfg, file, qual));
        }
    }
    report
        .errors
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(report)
}

/// The crate unit a file belongs to: `crates/<name>/…` → `<name>`,
/// everything else (root `src/`, top-level scripts) → `root`. Call-graph
/// edges never cross units.
fn crate_unit(rel: &str) -> String {
    match rel.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or("root").to_string(),
        None => "root".to_string(),
    }
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
