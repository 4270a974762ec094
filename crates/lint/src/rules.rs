//! The rule engine: one pass over a crate unit ([`analyze_unit`]) that
//! lexes and parses each file once and runs every rule — the token rules
//! R003 and R011 over each file's token stream, the AST/call-graph rules
//! R010, R012 and R013 over the unit.
//!
//! | rule | scope (from `lint.toml`) | invariant |
//! |------|--------------------------|-----------|
//! | R003 | `[hot-paths]` globs      | no allocation calls (`Vec::new`, `Box::new`, `to_vec`, `clone()`, `collect()`, `format!`) inside loop bodies |
//! | R010 | `[hot-entry-points]` and every function of a `[hot-paths]` file | nothing transitively reachable from a root may panic (call chain rendered in the finding); an entry naming no function is itself a finding |
//! | R011 | all but `[atomic-relaxed-allow]` | no `Ordering::Relaxed` on atomics (counters are allowlisted) |
//! | R012 | all but `[spill-cleanup-allow]`  | a discarded `Result<_, SpillError>` must be counted on a metrics counter in the same function |
//! | R013 | every `.rs` file         | an `unsafe` block's SAFETY comment names every pointer/index identifier used inside |
//!
//! What a stock lint says is left to it (the `[workspace.lints]` tables in
//! the root `Cargo.toml`, run by `cargo clippy`): a SAFETY comment on every
//! `unsafe` block and one unsafe operation per block, `unsafe` only where
//! an `#[expect(unsafe_code, …)]` names it, no bare `as` cast in
//! `rowsort-normkey`, and `process::exit` only where expected.
//! `scripts/verify.sh` checks the path-only dependency closure.
//!
//! `#[cfg(test)]` modules, `#[test]` functions, and whole files matching
//! `[test-paths]` are exempt from R003 and R010–R013: the invariants
//! guard the measured hot paths, not test scaffolding. Findings are
//! suppressed by `// lint:allow(RXXX): reason` on the same or the
//! preceding line; a suppression **must** carry a reason and must
//! silence a finding of every rule it names, or the suppression itself
//! becomes a finding (R000).

use crate::ast;
use crate::callgraph::{self, Graph, Target, UnitFile};
use crate::config::Config;
use crate::lexer::{lex, Tok, TokKind};
use crate::parser;
use crate::Timing;
use std::collections::HashSet;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `R010`.
    pub rule: String,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    fn new(rule: &str, path: &str, tok: &Tok, message: impl Into<String>) -> Finding {
        Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            message: message.into(),
        }
    }
}

struct FileCtx<'a> {
    path: &'a str,
    toks: &'a [Tok],
    /// Token-index ranges belonging to `#[cfg(test)]` mods / `#[test]` fns.
    test_ranges: Vec<(usize, usize)>,
    /// Whole file is test scaffolding (`lint.toml [test-paths]`).
    file_is_test: bool,
    /// Source lines covered by a comment (a multi-line block comment
    /// covers every line it spans).
    comment_lines: HashSet<u32>,
    /// Lines that open with an attribute (`#[…]`) — allowed between a
    /// SAFETY comment and the item it documents.
    attr_lines: HashSet<u32>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, toks: &'a [Tok], file_is_test: bool) -> FileCtx<'a> {
        let mut ctx = FileCtx {
            path,
            toks,
            test_ranges: test_ranges(toks),
            file_is_test,
            comment_lines: HashSet::new(),
            attr_lines: HashSet::new(),
        };
        let mut first_sig_on_line: HashSet<u32> = HashSet::new();
        for t in toks {
            if t.is_comment() {
                let span = t.text.matches('\n').count() as u32;
                ctx.comment_lines.extend(t.line..=t.line + span);
            } else if first_sig_on_line.insert(t.line) && t.is_punct('#') {
                ctx.attr_lines.insert(t.line);
            }
        }
        ctx
    }

    fn in_test(&self, idx: usize) -> bool {
        self.file_is_test || self.test_ranges.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// Index of the previous non-comment token.
    fn prev_sig(&self, idx: usize) -> Option<usize> {
        (0..idx).rev().find(|&j| !self.toks[j].is_comment())
    }

    /// Index of the next non-comment token.
    fn next_sig(&self, idx: usize) -> Option<usize> {
        (idx + 1..self.toks.len()).find(|&j| !self.toks[j].is_comment())
    }

    /// Is token `idx` the last segment of a `head::name` path whose
    /// `head` is one of `heads`?
    fn path_head_is(&self, idx: usize, heads: &[&str]) -> bool {
        let colon = |j: usize| self.prev_sig(j).filter(|&p| self.toks[p].is_punct(':'));
        (colon(idx).and_then(colon))
            .and_then(|q| self.prev_sig(q))
            .is_some_and(|r| heads.iter().any(|h| self.toks[r].is_ident(h)))
    }
}

/// A parsed `lint:allow` suppression.
#[derive(Debug)]
struct Suppression<'a> {
    /// File the comment sits in.
    path: &'a str,
    rules: Vec<String>,
    /// The rules named that have not silenced a finding yet.
    idle: Vec<String>,
    /// Source line this suppression covers.
    covers_line: u32,
    has_reason: bool,
    /// Position of the comment itself (an unused suppression is reported
    /// there).
    comment_line: u32,
    comment_col: u32,
}

/// Time one rule invocation into `timing`.
fn timed<T>(timing: &mut Timing, rule: &str, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    timing.add_rule(rule, crate::ms_since(t0));
    out
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Token-index ranges covered by `#[cfg(test)] mod … { … }` and
/// `#[test] fn … { … }`. Attributes like `#[cfg(not(test))]` do not count.
fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let attr_start = i;
        // Consume `#[ … ]` with bracket depth.
        let Some(open) = next_sig_from(toks, i) else {
            break;
        };
        if !toks[open].is_punct('[') {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut j = open;
        let mut attr_words: Vec<&str> = Vec::new();
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                attr_words.push(&t.text);
            }
            j += 1;
        }
        let is_test_attr = attr_words.contains(&"test") && !attr_words.contains(&"not");
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip further attributes and visibility to the item keyword.
        let mut k = j + 1;
        let mut item = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_comment() {
                k += 1;
            } else if t.is_punct('#') {
                // Nested attribute: skip its brackets.
                let mut d = 0i32;
                k += 1;
                while k < toks.len() {
                    if toks[k].is_punct('[') {
                        d += 1;
                    } else if toks[k].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                k += 1;
            } else if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "pub" | "crate" | "super" | "self" | "async"
                )
                || t.is_punct('(')
                || t.is_punct(')')
            {
                k += 1;
            } else if t.kind == TokKind::Ident && (t.text == "mod" || t.text == "fn") {
                item = Some(k);
                break;
            } else {
                break;
            }
        }
        let Some(item_idx) = item else {
            i = j + 1;
            continue;
        };
        // Find the body `{ … }` and mark the whole span.
        let mut b = item_idx;
        let mut open_brace = None;
        while b < toks.len() {
            if toks[b].is_punct('{') {
                open_brace = Some(b);
                break;
            }
            if toks[b].is_punct(';') {
                break; // `mod name;` — no body here
            }
            b += 1;
        }
        if let Some(ob) = open_brace {
            let mut d = 0i32;
            let mut e = ob;
            while e < toks.len() {
                if toks[e].is_punct('{') {
                    d += 1;
                } else if toks[e].is_punct('}') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                e += 1;
            }
            ranges.push((attr_start, e + 1));
            i = e + 1;
        } else {
            i = b + 1;
        }
    }
    ranges
}

fn next_sig_from(toks: &[Tok], idx: usize) -> Option<usize> {
    (idx + 1..toks.len()).find(|&j| !toks[j].is_comment())
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Parse `// lint:allow(R010): reason` comments. A suppression on its own
/// line covers the next line holding code; a trailing suppression covers
/// its own line. Missing reasons are reported as R000 findings.
fn collect_suppressions<'a>(
    ctx: &FileCtx<'a>,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression<'a>> {
    // Lines that contain at least one non-comment token.
    let code_lines: Vec<u32> = {
        let mut v: Vec<u32> = ctx
            .toks
            .iter()
            .filter(|t| !t.is_comment())
            .map(|t| t.line)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut out = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        // Anchor the directive at the start of the comment (after the
        // `//`/`//!`/`/*` sigils) so prose *mentioning* lint:allow — docs
        // like this file's — is not mistaken for a suppression.
        let body = t.text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(after) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = after.find(')') else {
            findings.push(Finding::new(
                "R000",
                ctx.path,
                t,
                "malformed lint:allow — missing ')'",
            ));
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() || !rules.iter().all(|r| valid_rule_id(r)) {
            findings.push(Finding::new(
                "R000",
                ctx.path,
                t,
                format!("lint:allow names unknown rule id(s): `{}`", &after[..close]),
            ));
            continue;
        }
        let tail = after[close + 1..].trim_start();
        let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        if !has_reason {
            findings.push(Finding::new(
                "R000",
                ctx.path,
                t,
                format!(
                    "lint:allow({}) requires a reason: `// lint:allow({}): why this is sound`",
                    rules.join(","),
                    rules.join(",")
                ),
            ));
        }
        // Trailing (code earlier on the same line) covers its own line;
        // a standalone comment covers the next code line.
        let trailing = ctx
            .toks
            .iter()
            .take(i)
            .any(|p| !p.is_comment() && p.line == t.line);
        let covers_line = if trailing {
            t.line
        } else {
            code_lines
                .iter()
                .copied()
                .find(|&l| l > t.line)
                .unwrap_or(t.line)
        };
        out.push(Suppression {
            path: ctx.path,
            idle: rules.clone(),
            rules,
            covers_line,
            has_reason,
            comment_line: t.line,
            comment_col: t.col,
        });
    }
    out
}

/// A suppression may name any rule that has an `--explain` entry, bar
/// R000 — the suppression rule itself.
fn valid_rule_id(r: &str) -> bool {
    r != "R000" && explain(r).is_some()
}

// ---------------------------------------------------------------------------
// R003 — no allocation inside loop bodies in hot paths
// ---------------------------------------------------------------------------

fn rule_r003(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    #[derive(PartialEq)]
    enum Brace {
        Plain,
        Loop,
    }
    let mut stack: Vec<Brace> = Vec::new();
    let mut loop_depth = 0usize;
    let mut paren_depth = 0i32;
    let mut pending_loop: Option<i32> = None;
    let mut pending_impl = false;

    for (i, t) in ctx.toks.iter().enumerate() {
        if t.is_comment() {
            continue;
        }
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "impl" => pending_impl = true,
                "for" => {
                    let hrtb = ctx.next_sig(i).is_some_and(|n| ctx.toks[n].is_punct('<'));
                    if !pending_impl && !hrtb {
                        pending_loop = Some(paren_depth);
                    }
                    pending_impl = false;
                }
                "while" | "loop" => pending_loop = Some(paren_depth),
                _ => {}
            },
            TokKind::Punct => match t.text.as_str() {
                "(" | "[" => paren_depth += 1,
                ")" | "]" => paren_depth -= 1,
                "{" => {
                    if pending_loop == Some(paren_depth) {
                        stack.push(Brace::Loop);
                        loop_depth += 1;
                        pending_loop = None;
                    } else {
                        stack.push(Brace::Plain);
                    }
                    pending_impl = false;
                }
                "}" => loop_depth -= usize::from(stack.pop() == Some(Brace::Loop)),
                _ => {}
            },
            _ => {}
        }
        if loop_depth == 0 || ctx.in_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        let method_call = |name: &str| -> bool {
            t.is_ident(name)
                && ctx.prev_sig(i).is_some_and(|p| ctx.toks[p].is_punct('.'))
                && ctx.next_sig(i).is_some_and(|n| ctx.toks[n].is_punct('('))
        };
        let assoc_new = t.is_ident("new") && ctx.path_head_is(i, &["Vec", "Box"]);
        let offending =
            if t.is_ident("format") && ctx.next_sig(i).is_some_and(|n| ctx.toks[n].is_punct('!')) {
                Some("format! allocates")
            } else if assoc_new {
                Some("Vec::new/Box::new allocates")
            } else if method_call("to_vec") || method_call("clone") || method_call("collect") {
                Some("per-iteration allocation")
            } else {
                None
            };
        if let Some(why) = offending {
            findings.push(Finding::new(
                "R003",
                ctx.path,
                t,
                format!(
                    "`{}` inside a loop body in a hot-path module ({why}) — \
                     hoist the allocation out of the loop",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// The pass: every rule over one crate unit
// ---------------------------------------------------------------------------

/// Analyze one crate unit (all its `.rs` files): each file is lexed and
/// parsed once, its test regions found once, and every rule runs — token
/// rules per file (in `[test-paths]` files too), AST and call-graph rules
/// over the unit's non-test code. `files` holds `(repo-relative
/// path, source)` pairs. Findings are suppression-filtered and sorted.
pub fn analyze_unit(files: &[(String, String)], cfg: &Config, timing: &mut Timing) -> Vec<Finding> {
    let mut ufs: Vec<UnitFile> = Vec::new();
    let mut toks_per_file: Vec<Vec<Tok>> = Vec::new();
    for (path, src) in files {
        if !path.ends_with(".rs") {
            continue;
        }
        let t0 = std::time::Instant::now();
        let toks = lex(src);
        let file = parser::parse(&toks);
        timing.add_parse(path, crate::ms_since(t0));
        ufs.push(UnitFile {
            path: path.clone(),
            file,
            is_test: Config::matches(&cfg.test_paths, path),
        });
        toks_per_file.push(toks);
    }
    let graph = Graph::build(&ufs);
    let mut findings = Vec::new();
    let mut sups: Vec<Suppression> = Vec::new();
    timed(timing, "R010", || {
        rule_r010(&ufs, &graph, cfg, &mut findings)
    });
    for (uf, toks) in ufs.iter().zip(&toks_per_file) {
        let ctx = FileCtx::new(&uf.path, toks, uf.is_test);
        sups.extend(collect_suppressions(&ctx, &mut findings));
        if Config::matches(&cfg.hot_paths, &uf.path) {
            timed(timing, "R003", || rule_r003(&ctx, &mut findings));
        }
        if uf.is_test {
            continue; // whole-file test scaffolding: deep rules exempt
        }
        if !Config::matches(&cfg.atomic_relaxed_allow, &uf.path) {
            timed(timing, "R011", || rule_r011(&ctx, &mut findings));
        }
        if !Config::matches(&cfg.spill_cleanup_allow, &uf.path) {
            timed(timing, "R012", || {
                rule_r012(&uf.path, &uf.file, &graph, &mut findings)
            });
        }
        timed(timing, "R013", || rule_r013(&ctx, &uf.file, &mut findings));
    }
    // One suppression pass, after all rules: an R010 finding can land in
    // any file of the unit. R000 is no valid id to name, so it survives.
    findings.retain(|f| {
        let mut silenced = false;
        for s in sups.iter_mut().filter(|s| {
            s.has_reason && s.covers_line == f.line && s.path == f.path && s.rules.contains(&f.rule)
        }) {
            s.idle.retain(|r| *r != f.rule);
            silenced = true;
        }
        !silenced
    });
    // A suppression is a reviewed claim about a finding; once the finding
    // is gone (or was never there) the claim guards nothing and hides the
    // next one to land on its line.
    for s in sups.iter().filter(|s| s.has_reason && !s.idle.is_empty()) {
        findings.push(Finding {
            rule: "R000".to_string(),
            path: s.path.to_string(),
            line: s.comment_line,
            col: s.comment_col,
            message: format!(
                "lint:allow({}) silences nothing — line {} has no such finding; \
                 delete the suppression",
                s.idle.join(","),
                s.covers_line
            ),
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    findings
}

// ---------------------------------------------------------------------------
// R010 — panic reachability from the hot roots
// ---------------------------------------------------------------------------

/// The finding for a `[hot-entry-points]` entry that names no non-test
/// function: the function it guarded was renamed or removed, and the
/// entry now guards nothing.
pub fn unresolved_entry(cfg: &Config, file: &str, qual: &str) -> Finding {
    Finding {
        rule: "R010".to_string(),
        path: "lint.toml".to_string(),
        line: cfg.hot_entries_line,
        col: 1,
        message: format!(
            "[hot-entry-points] entry `{file}:{qual}` names no non-test function — \
             a renamed or removed entry point is no longer guarded; update the entry"
        ),
    }
}

/// R010's roots are the `[hot-entry-points]` declared in this unit's
/// files plus every non-test function of a `[hot-paths]` file (the graph
/// holds no test functions). Entries of other units' files are theirs to
/// resolve.
fn rule_r010(ufs: &[UnitFile], graph: &Graph, cfg: &Config, findings: &mut Vec<Finding>) {
    let mut roots = Vec::new();
    for (file, qual) in &cfg.hot_entries {
        if !ufs.iter().any(|uf| uf.path == *file) {
            continue;
        }
        match graph.find(file, qual) {
            Some(i) => roots.push(i),
            None => findings.push(unresolved_entry(cfg, file, qual)),
        }
    }
    roots.extend(
        (0..graph.nodes.len()).filter(|&i| Config::matches(&cfg.hot_paths, &graph.nodes[i].file)),
    );
    findings.extend(graph.panic_reachability(&roots));
}

// ---------------------------------------------------------------------------
// R011 — atomic-ordering discipline
// ---------------------------------------------------------------------------

/// Flag `Ordering::Relaxed`. A Relaxed load/store is only sound for
/// values nothing else synchronizes on (statistics counters); anything
/// guarding a cross-thread handoff needs Acquire/Release. Counter files
/// are allowlisted via `[atomic-relaxed-allow]`; a justified Relaxed
/// elsewhere takes a reasoned `lint:allow(R011)`.
fn rule_r011(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if !ctx.in_test(i) && t.is_ident("Relaxed") && ctx.path_head_is(i, &["Ordering"]) {
            findings.push(Finding::new(
                "R011",
                ctx.path,
                t,
                "`Ordering::Relaxed` outside the counter allowlist — a Relaxed \
                 atomic cannot order a cross-thread handoff; use Acquire/Release \
                 (or allowlist the file in [atomic-relaxed-allow] if this is a \
                 pure statistics counter)",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// R012 — SpillError results must not be silently swallowed
// ---------------------------------------------------------------------------

/// Is this normalized return type a `Result<_, SpillError>`?
fn is_spill_result(ret: &str) -> bool {
    ret.starts_with("Result") && ret.contains("SpillError")
}

/// If `e` is a call that produces a `Result<_, SpillError>` (resolved
/// through the unit symbol table), return its anchor and a description.
fn spill_result_call(e: &ast::Expr, graph: &Graph) -> Option<(u32, u32, String)> {
    match e {
        ast::Expr::Call {
            callee, line, col, ..
        } => {
            let targets = graph.resolve(&callgraph::classify(callee));
            targets
                .iter()
                .any(|&i| is_spill_result(&graph.nodes[i].ret))
                .then(|| (*line, *col, format!("`{callee}(…)`")))
        }
        ast::Expr::Method {
            name,
            recv,
            line,
            col,
            ..
        } => {
            if name == "ok" {
                // `….ok()` with the Ok value unused swallows the error the
                // same way `let _ =` does.
                return spill_result_call(recv, graph)
                    .map(|(l, c, desc)| (l, c, format!("{desc}.ok()")));
            }
            let targets = graph.resolve(&Target::Method(name.clone()));
            targets
                .iter()
                .any(|&i| is_spill_result(&graph.nodes[i].ret))
                .then(|| (*line, *col, format!("`.{name}(…)`")))
        }
        _ => None,
    }
}

/// Flag discarded `Result<_, SpillError>` values (`let _ = …`, a bare
/// `…;` statement, `….ok();`) in functions that do not increment a
/// metrics counter. Spill cleanup is *allowed* to ignore I/O errors —
/// deleting a temp file that is already gone is fine — but the failure
/// must be observable, so the same function has to count it
/// (`metrics.add(Counter::…, 1)`).
fn rule_r012(path: &str, file: &ast::File, graph: &Graph, findings: &mut Vec<Finding>) {
    ast::for_each_fn(file, &mut |f, is_test| {
        if is_test {
            return;
        }
        let Some(body) = &f.body else { return };
        // Does this function count anything on a metrics counter?
        let mut counts = false;
        body.walk_exprs(&mut |e| {
            if let ast::Expr::Method { name, args, .. } = e {
                if name == "add"
                    && args.first().is_some_and(
                        |a| matches!(a, ast::Expr::Path { path } if path.starts_with("Counter")),
                    )
                {
                    counts = true;
                }
            }
        });
        if counts {
            return;
        }
        // Discard sites: `let _ = e;` and `e;` statements, at any block
        // depth inside the body.
        let mut discarded: Vec<&ast::Expr> = Vec::new();
        collect_discards(body, &mut discarded);
        for e in discarded {
            if let Some((line, col, desc)) = spill_result_call(e, graph) {
                findings.push(Finding {
                    rule: "R012".to_string(),
                    path: path.to_string(),
                    line,
                    col,
                    message: format!(
                        "{desc} returns Result<_, SpillError> and the value is \
                         discarded without incrementing a metrics counter — count \
                         the failure (metrics.add(Counter::…, 1)) on this path, \
                         handle the error, or allowlist the file in \
                         [spill-cleanup-allow]"
                    ),
                });
            }
        }
    });
}

/// Collect every discarded-value expression (`let _ = e;` and `e;`) in
/// a block and in every block nested in it (loop bodies, `if` arms,
/// plain and `unsafe` blocks, at any depth).
fn collect_discards<'a>(block: &'a ast::Block, out: &mut Vec<&'a ast::Expr>) {
    let mut blocks = vec![block];
    block.walk_exprs(&mut |e| match e {
        ast::Expr::Block(b) | ast::Expr::Unsafe { block: b, .. } => blocks.push(b),
        ast::Expr::Loop { body, .. } => blocks.push(body),
        ast::Expr::If { then, .. } => blocks.push(then),
        _ => {}
    });
    for stmt in blocks.iter().flat_map(|b| &b.stmts) {
        match stmt {
            ast::Stmt::Let {
                underscore: true,
                init: Some(e),
                ..
            } => out.push(e),
            ast::Stmt::Expr { expr, semi: true } => out.push(expr),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// R013 — unsafe-block budget and SAFETY completeness
// ---------------------------------------------------------------------------

/// Pointer methods whose receiver (and pointed-at arguments) a SAFETY
/// comment must argue about.
const PTR_METHODS: &[&str] = &[
    "add",
    "offset",
    "sub",
    "byte_add",
    "byte_offset",
    "read",
    "write",
    "read_unaligned",
    "write_unaligned",
    "copy_from",
    "copy_from_nonoverlapping",
    "copy_to",
    "copy_to_nonoverlapping",
    "get_unchecked",
    "get_unchecked_mut",
    "as_ref",
    "as_mut",
];

/// Free/associated functions with raw-pointer arguments.
fn is_ptr_call(callee: &str) -> bool {
    let last = callee.rsplit("::").next().unwrap_or(callee);
    match last {
        "from_raw_parts"
        | "from_raw_parts_mut"
        | "copy_nonoverlapping"
        | "write_bytes"
        | "transmute" => true,
        "read" | "write" | "copy" => {
            // Only the `ptr::` forms; `io::read` etc. are safe.
            callee.rsplit("::").nth(1).is_some_and(|m| m == "ptr")
        }
        _ => false,
    }
}

/// Does `text` contain `word` with identifier boundaries on both sides?
fn mentions_word(text: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(at) = text[start..].find(word) {
        let abs = start + at;
        let before_ok = abs == 0
            || !text[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + word.len();
        let after_ok = after >= text.len()
            || !text[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len().max(1);
    }
    false
}

/// Enforce SAFETY-comment completeness: the SAFETY comment attached to
/// every `unsafe` block (the contiguous comment run above, a trailing
/// comment, or comments inside the block) names every identifier that
/// feeds a raw pointer operation or `get_unchecked` index inside the
/// block.
fn rule_r013(ctx: &FileCtx, file: &ast::File, findings: &mut Vec<Finding>) {
    ast::for_each_fn(file, &mut |f, is_test| {
        if is_test {
            return;
        }
        let Some(body) = &f.body else { return };
        body.walk_exprs(&mut |e| {
            let ast::Expr::Unsafe { block, line, col } = e else {
                return;
            };
            let safety = safety_text(ctx, *line, block);
            if !safety.contains("SAFETY") {
                return; // absence of the comment is clippy's finding
            }
            let mut mentions: Vec<&str> = Vec::new();
            collect_ptr_mentions(block, &mut mentions);
            mentions.sort_unstable();
            mentions.dedup();
            let missing: Vec<&str> = mentions
                .into_iter()
                .filter(|m| !mentions_word(&safety, m))
                .collect();
            if !missing.is_empty() {
                findings.push(Finding {
                    rule: "R013".to_string(),
                    path: ctx.path.to_string(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "SAFETY comment for this unsafe block does not mention \
                         `{}` — name every identifier whose bounds/lifetime the \
                         argument relies on",
                        missing.join("`, `")
                    ),
                });
            }
        });
    });
}

/// The SAFETY-relevant comment text for an unsafe block at `line`: the
/// contiguous run of comment/attribute lines directly above, plus any
/// comments on the block's own lines (trailing or inside the braces).
fn safety_text(ctx: &FileCtx, line: u32, block: &ast::Block) -> String {
    // Walk the contiguous comment/attr run upward from the unsafe line.
    let mut top = line;
    while top > 1 && (ctx.comment_lines.contains(&(top - 1)) || ctx.attr_lines.contains(&(top - 1)))
    {
        top -= 1;
    }
    let mut text = String::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        let span = t.text.matches('\n').count() as u32;
        let above = t.line + span >= top && t.line < line;
        let on_open_line = t.line == line;
        let inside = i > block.tok_open && i < block.tok_close;
        if above || on_open_line || inside {
            text.push_str(&t.text);
            text.push('\n');
        }
    }
    text
}

/// Collect identifiers feeding raw-pointer operations in a block:
/// deref operands, receivers/arguments of pointer methods, arguments of
/// pointer free functions, and `get_unchecked` style indices.
fn collect_ptr_mentions<'a>(block: &'a ast::Block, out: &mut Vec<&'a str>) {
    block.walk_exprs(&mut |e| match e {
        ast::Expr::Unary { op: '*', expr } => {
            if let Some(root) = expr.root_ident() {
                out.push(root);
            }
        }
        ast::Expr::Method {
            recv, name, args, ..
        } if PTR_METHODS.contains(&name.as_str()) => {
            if let Some(root) = recv.root_ident() {
                out.push(root);
            }
            for a in args {
                if let Some(root) = a.root_ident() {
                    out.push(root);
                }
            }
        }
        ast::Expr::Call { callee, args, .. } if is_ptr_call(callee) => {
            for a in args {
                if let Some(root) = a.root_ident() {
                    out.push(root);
                }
            }
        }
        _ => {}
    });
}

// ---------------------------------------------------------------------------
// --explain documentation
// ---------------------------------------------------------------------------

/// Long-form documentation for `rowsort-lint --explain RXXX`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "R000" => {
            "R000 — malformed or reason-less suppression\n\n\
             `// lint:allow(RXXX): reason` disables a rule for one line. The\n\
             reason is mandatory: a suppression is a reviewed claim that the\n\
             flagged code is sound, and the claim has to be written down.\n\
             R000 fires on suppressions with no reason, unparseable syntax,\n\
             or unknown rule ids, and on a suppression that silences nothing:\n\
             every rule it names must have a finding on the covered line, or\n\
             the stale claim would hide the next finding to land there.\n\
             R000 itself cannot be suppressed."
        }
        "R003" => {
            "R003 — no allocation inside hot-path loops\n\n\
             Loop bodies in `[hot-paths]` files may not call `Vec::new`,\n\
             `Box::new`, `format!`, `.to_vec()`, `.clone()`, or `.collect()`.\n\
             Per-iteration allocation destroys the zero-allocation\n\
             steady-state the pipeline's buffer pool exists to provide —\n\
             hoist the allocation out of the loop or reuse a pooled buffer."
        }
        "R010" => {
            "R010 — panic-free hot-path reachability\n\n\
             For every entry point in `lint.toml [hot-entry-points]`\n\
             (format \"file.rs:Qualified::name\") and every non-test function\n\
             declared in a `[hot-paths]` file, no function transitively\n\
             reachable through the intra-crate call graph may contain\n\
             `panic!`/`unreachable!`/`todo!`/`unimplemented!`, `.unwrap()`,\n\
             `.expect()`, or slice-indexing by integer literal. The finding\n\
             renders the call chain from the root to the panic site. An\n\
             entry that names no non-test function is a finding at\n\
             `lint.toml`: a renamed entry point must not go unguarded.\n\n\
             The graph is conservative: `.method()` calls resolve to every\n\
             same-crate method with that name, so a finding can arrive via a\n\
             chain that cannot execute — suppress those with a reasoned\n\
             `lint:allow(R010)` on the panic site. Cross-crate edges are not\n\
             tracked; each crate declares its own entries."
        }
        "R011" => {
            "R011 — atomic-ordering discipline\n\n\
             `Ordering::Relaxed` provides no happens-before edge: a Relaxed\n\
             flag can be observed set before the data it guards is visible.\n\
             Only pure statistics counters (never synchronized on) may use\n\
             it, and those files are allowlisted in `[atomic-relaxed-allow]`.\n\
             Everywhere else use Acquire/Release (or justify the Relaxed\n\
             with a reasoned `lint:allow(R011)` naming why no data is\n\
             published through it)."
        }
        "R012" => {
            "R012 — SpillError results must stay observable\n\n\
             A call returning `Result<_, SpillError>` whose value is\n\
             discarded (`let _ = …`, a bare `…;` statement, `….ok()` with\n\
             the value unused) swallows an I/O failure. Cleanup paths are\n\
             allowed to *tolerate* such failures — deleting an already-gone\n\
             run file is fine — but the same function must make the failure\n\
             observable by incrementing a metrics counter\n\
             (`metrics.add(Counter::SpillCleanupFailed, 1)`). Files doing\n\
             sanctioned fire-and-forget cleanup can be allowlisted in\n\
             `[spill-cleanup-allow]`."
        }
        "R013" => {
            "R013 — SAFETY completeness\n\n\
             The SAFETY comment of an `unsafe` block (the run above the\n\
             block, a trailing comment, or comments inside it) must mention,\n\
             by name, every identifier that feeds a raw-pointer operation or\n\
             unchecked index inside the block. An argument that does not\n\
             name `ptr` says nothing about why `ptr` is valid. That the\n\
             comment exists, and that the block holds one unsafe operation,\n\
             is clippy's (`undocumented_unsafe_blocks`,\n\
             `multiple_unsafe_ops_per_block`)."
        }
        _ => return None,
    })
}
