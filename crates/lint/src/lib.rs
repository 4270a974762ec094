//! rowsort-lint — in-tree static analysis for the rowsort workspace.
//!
//! A dependency-free analyzer built on a hand-rolled Rust lexer
//! ([`lexer`]). Analysis is one pass per file ([`rules::analyze_file`]):
//! each file is lexed once, and both rules read that one token stream —
//! R011 atomic-ordering discipline and R013 SAFETY completeness.
//!
//! They hold what neither a stock lint nor a test states: that no atomic
//! outside the counter files is `Relaxed`, and that a SAFETY argument
//! names what it argues about. What clippy and rustc say is theirs (the
//! root `Cargo.toml`'s `[workspace.lints]` tables and the panic denies in
//! the `lib.rs` of the four sort crates), and what a run-time count says
//! is the tests': a warm sort's allocations (`zero_alloc*.rs`,
//! `bench_gate`'s `allocs`), a short slice (the oracle), a run file's
//! bounds (the mutation tests). The rules' scopes are consts in
//! [`rules`]; `DESIGN.md` §9 says what holds each invariant.
//!
//! Run it as `cargo run -p lint --release` (binary name `rowsort-lint`);
//! `scripts/verify.sh` treats a non-zero exit as a tier-1 failure.

pub mod lexer;
pub mod rules;

pub use rules::Finding;

use std::fs;
use std::path::Path;

/// The result of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, sorted; any one fails the build.
    pub errors: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Walk the workspace rooted at `root`: the one analysis pass over every
/// `.rs` file.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_files(root, "", &mut files)?;
    files.sort();
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for rel in &files {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        report.errors.extend(rules::analyze_file(rel, &src));
    }
    report
        .errors
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(report)
}

/// Directories never worth descending into.
const SKIP_DIRS: &[&str] = &["target", "vendor"];

/// Push the `.rs` files under `root/rel` (workspace-relative, with `/`
/// separators, so findings and [`rules::TEST_PATHS`] are
/// platform-independent).
fn collect_files(root: &Path, rel: &str, out: &mut Vec<String>) -> Result<(), String> {
    let dir = root.join(rel);
    let entries = fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let path = if rel.is_empty() {
            name.to_string()
        } else {
            format!("{rel}/{name}")
        };
        if entry.path().is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
