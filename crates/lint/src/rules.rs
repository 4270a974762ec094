//! The rule engine: one pass over each file ([`analyze_file`]) that lexes
//! it once and runs every rule over its token stream.
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | R003 | `[hot-paths]` globs | no allocation calls (`Vec::new`, `Box::new`, `to_vec`, `clone()`, `collect()`, `format!`) inside loop bodies |
//! | R010 | [`PANIC_FREE_CRATES`] | no slice indexed by an integer literal (`v[0]`) |
//! | R011 | all but `[atomic-relaxed-allow]` | no `Ordering::Relaxed` on atomics (counters are allowlisted) |
//! | R013 | every `.rs` file | an `unsafe` block's SAFETY comment names every identifier its pointer operations use |
//!
//! What a stock lint says is left to it, run by `cargo clippy`: the
//! `[workspace.lints]` tables in the root `Cargo.toml` (a SAFETY comment
//! on every `unsafe` block and one unsafe operation per block, `unsafe`
//! only where an `#[expect(unsafe_code, …)]` names it, `process::exit`
//! only where expected) and the crate-level denies in the `lib.rs` of the
//! [`PANIC_FREE_CRATES`]: `unwrap`, `expect`, `panic!`, `unreachable!`,
//! `todo!` and `unimplemented!` outside tests in all four, a discarded
//! `#[must_use]` value (`let _ = …`, `….ok();`) in `rowsort-core`, and no
//! bare `as` cast in `rowsort-normkey`. rustc's `unused_must_use` under
//! `-D warnings` holds a bare `…;` statement. `scripts/verify.sh` checks
//! the path-only dependency closure.
//!
//! `#[cfg(test)]` modules, `#[test]` functions, and whole files matching
//! `[test-paths]` are exempt from R010, R011 and R013 (and `[test-paths]`
//! files from R003): the invariants guard the measured sort path, not
//! test scaffolding. Findings are suppressed by `// lint:allow(RXXX):
//! reason` on the same or the preceding line; a suppression **must**
//! carry a reason and must silence a finding of every rule it names, or
//! the suppression itself becomes a finding (R000).

use crate::config::Config;
use crate::lexer::{lex, Tok, TokKind};
use crate::Timing;
use std::collections::HashSet;

/// The crates (`crates/<name>/src`) whose non-test code must not panic:
/// R010 holds their literal subscripts, and each one's `lib.rs` denies
/// clippy's six panic lints.
pub const PANIC_FREE_CRATES: &[&str] = &["algos", "core", "normkey", "row"];

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

    /// Index of the token closing the bracket group that token `open`
    /// opens (`(`, `[` or `{`), or the end of the file if it never closes.
    fn closer(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for (j, t) in self.toks.iter().enumerate().skip(open) {
            match t.text.as_str() {
                _ if t.kind != TokKind::Punct => {}
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        self.toks.len()
    }

    /// Index of the token opening the bracket group that token `close`
    /// closes, or `None` if it never opens.
    fn opener(&self, close: usize) -> Option<usize> {
        let mut depth = 0usize;
        for j in (0..=close).rev() {
            let t = &self.toks[j];
            match t.text.as_str() {
                _ if t.kind != TokKind::Punct => {}
                ")" | "]" | "}" => depth += 1,
                "(" | "[" | "{" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// The first token of the postfix chain (`a.b(x)[i].c`, `ptr::f(y)`,
    /// `(e)`) that ends just before token `end`.
    fn chain_start(&self, end: usize) -> Option<usize> {
        let mut k = self.prev_sig(end)?;
        loop {
            let group = self.toks[k].is_punct(')') || self.toks[k].is_punct(']');
            if group {
                k = self.opener(k)?;
            }
            let Some(mut p) = self.prev_sig(k) else {
                return Some(k);
            };
            let prev = &self.toks[p];
            if prev.is_punct('.') || prev.is_punct(':') {
                while self.toks[p].is_punct('.') || self.toks[p].is_punct(':') {
                    p = self.prev_sig(p)?;
                }
                k = p;
            } else if group
                && (prev.kind == TokKind::Ident || prev.is_punct(')') || prev.is_punct(']'))
            {
                k = p; // a call or a subscript: its callee or base goes on
            } else {
                return Some(k);
            }
        }
    }

    /// The root of the postfix chain starting at token `start` — the last
    /// path segment or field it names before method calls
    /// (`self.buf.as_ptr()` → `buf`), a called function's name, or the
    /// root of a parenthesized operand; prefix `*`, `&` and `mut` are
    /// skipped — and the index of the first token after the chain.
    fn chain(&self, start: usize) -> (Option<&'a str>, usize) {
        let mut j = start;
        while self.toks[j].is_punct('*')
            || self.toks[j].is_punct('&')
            || self.toks[j].is_ident("mut")
        {
            match self.next_sig(j) {
                Some(n) => j = n,
                None => return (None, self.toks.len()),
            }
        }
        let mut root = None;
        // A path segment or field may come next (at the start, or after
        // `.` / `::`); a segment anywhere else ends the chain.
        let mut segment = true;
        let mut after_dot = false;
        loop {
            let t = &self.toks[j];
            if t.kind == TokKind::Ident && segment {
                let called = self.next_sig(j).is_some_and(|n| self.toks[n].is_punct('('));
                if !(after_dot && called) {
                    root = Some(t.text.as_str());
                }
                segment = false;
            } else if t.is_punct('(') || t.is_punct('[') {
                if segment && t.is_punct('(') {
                    root = self.next_sig(j).and_then(|n| self.chain(n).0);
                }
                segment = false;
                j = self.closer(j);
            } else if t.is_punct(':') || t.is_punct('.') {
                segment = true;
            } else if !t.is_punct('?') {
                return (root, j);
            }
            after_dot = t.is_punct('.');
            match self.next_sig(j) {
                Some(n) => j = n,
                None => return (root, self.toks.len()),
            }
        }
    }

    /// Push the root of each argument of the call group that token `open`
    /// opens whose whole expression is one chain (`p`, `src.as_ptr()`,
    /// not `i * w`).
    fn arg_roots(&self, open: usize, out: &mut Vec<&'a str>) {
        let close = self.closer(open);
        let mut arg = self.next_sig(open);
        while let Some(a) = arg.filter(|&a| a < close) {
            let (root, mut j) = self.chain(a);
            if j == close || (j < close && self.toks[j].is_punct(',')) {
                out.extend(root);
            }
            // On to the token after the next comma at this depth.
            while j < close && !self.toks[j].is_punct(',') {
                if self.toks[j].is_punct('(')
                    || self.toks[j].is_punct('[')
                    || self.toks[j].is_punct('{')
                {
                    j = self.closer(j);
                }
                j += 1;
            }
            arg = self.next_sig(j);
        }
    }
}

/// A parsed `lint:allow` suppression.
#[derive(Debug)]
struct Suppression {
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
fn collect_suppressions(ctx: &FileCtx, findings: &mut Vec<Finding>) -> Vec<Suppression> {
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
// The pass: every rule over one file
// ---------------------------------------------------------------------------

/// Analyze one file: it is lexed once, its test regions found once, and
/// every rule in scope runs over its tokens — R003 in `[test-paths]`
/// files too, the others over non-test code only. `path` is
/// workspace-relative with `/` separators; a file that is not `.rs`
/// yields nothing. Findings are suppression-filtered and sorted.
pub fn analyze_file(path: &str, src: &str, cfg: &Config, timing: &mut Timing) -> Vec<Finding> {
    if !path.ends_with(".rs") {
        return Vec::new();
    }
    let t0 = std::time::Instant::now();
    let toks = lex(src);
    timing.add_lex(path, crate::ms_since(t0));
    let ctx = FileCtx::new(path, &toks, Config::matches(&cfg.test_paths, path));
    let mut findings = Vec::new();
    let mut sups = collect_suppressions(&ctx, &mut findings);
    if Config::matches(&cfg.hot_paths, path) {
        timed(timing, "R003", || rule_r003(&ctx, &mut findings));
    }
    if !ctx.file_is_test {
        if in_panic_free_crate(path) {
            timed(timing, "R010", || rule_r010(&ctx, &mut findings));
        }
        if !Config::matches(&cfg.atomic_relaxed_allow, path) {
            timed(timing, "R011", || rule_r011(&ctx, &mut findings));
        }
        timed(timing, "R013", || rule_r013(&ctx, &mut findings));
    }
    // R000 is no valid id to name, so its findings survive.
    findings.retain(|f| {
        let mut silenced = false;
        for s in sups
            .iter_mut()
            .filter(|s| s.has_reason && s.covers_line == f.line && s.rules.contains(&f.rule))
        {
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
            path: path.to_string(),
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
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

// ---------------------------------------------------------------------------
// R010 — no literal subscript in the panic-free crates
// ---------------------------------------------------------------------------

/// Is `path` in the `src/` of one of the [`PANIC_FREE_CRATES`]?
fn in_panic_free_crate(path: &str) -> bool {
    PANIC_FREE_CRATES.iter().any(|c| {
        path.strip_prefix("crates/")
            .and_then(|rest| rest.strip_prefix(c))
            .is_some_and(|rest| rest.starts_with("/src/"))
    })
}

/// Keywords after which an expression starts: a `[` there opens an
/// array, not a subscript, and a `*` dereferences, not multiplies.
const BEFORE_EXPR: &[&str] = &[
    "mut", "in", "return", "break", "match", "if", "while", "else",
];

/// Flag `base[<integer literal>]`. The other panic sources — `unwrap`,
/// `expect`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` — are
/// clippy's, denied in each panic-free crate's `lib.rs`; no stock lint
/// names this one without flagging every subscript.
fn rule_r010(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_punct('[') || ctx.in_test(i) {
            continue;
        }
        let subscript = ctx.prev_sig(i).is_some_and(|p| {
            let p = &ctx.toks[p];
            p.is_punct(')')
                || p.is_punct(']')
                || (p.kind == TokKind::Ident && !BEFORE_EXPR.contains(&p.text.as_str()))
        });
        let literal = ctx
            .next_sig(i)
            .filter(|&n| ctx.toks[n].kind == TokKind::Num)
            .and_then(|n| ctx.next_sig(n))
            .is_some_and(|c| ctx.toks[c].is_punct(']'));
        if subscript && literal {
            findings.push(Finding::new(
                "R010",
                ctx.path,
                t,
                "slice indexed by an integer literal panics when it is shorter — \
                 destructure it (`let [a, ..] = …`) or use `.first()` / `.get(n)`",
            ));
        }
    }
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
// R013 — SAFETY completeness
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

/// Is token `idx`, an identifier followed by `(`, a free or associated
/// function with raw-pointer arguments? `read`/`write`/`copy` count only
/// as `ptr::` paths (`io::read` is safe).
fn is_ptr_call(ctx: &FileCtx, idx: usize) -> bool {
    match ctx.toks[idx].text.as_str() {
        "from_raw_parts"
        | "from_raw_parts_mut"
        | "copy_nonoverlapping"
        | "write_bytes"
        | "transmute" => true,
        "read" | "write" | "copy" => ctx.path_head_is(idx, &["ptr"]),
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
/// every `unsafe { … }` block (the contiguous comment run above, a
/// trailing comment, or comments inside the block) names every
/// identifier that feeds a raw pointer operation or `get_unchecked`
/// index inside the block.
fn rule_r013(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_ident("unsafe") || ctx.in_test(i) {
            continue;
        }
        let Some(open) = ctx.next_sig(i).filter(|&n| ctx.toks[n].is_punct('{')) else {
            continue; // `unsafe fn`, `unsafe impl`, `unsafe extern`
        };
        let close = ctx.closer(open);
        let safety = safety_text(ctx, t.line, open, close);
        if !safety.contains("SAFETY") {
            continue; // absence of the comment is clippy's finding
        }
        let mut mentions = ptr_mentions(ctx, open, close);
        mentions.sort_unstable();
        mentions.dedup();
        let missing: Vec<&str> = mentions
            .into_iter()
            .filter(|m| !mentions_word(&safety, m))
            .collect();
        if !missing.is_empty() {
            findings.push(Finding::new(
                "R013",
                ctx.path,
                t,
                format!(
                    "SAFETY comment for this unsafe block does not mention \
                     `{}` — name every identifier whose bounds/lifetime the \
                     argument relies on",
                    missing.join("`, `")
                ),
            ));
        }
    }
}

/// The SAFETY-relevant comment text for an unsafe block opening on `line`
/// at token `open`: the contiguous run of comment/attribute lines directly
/// above, plus any comments on the block's own line or inside its braces.
fn safety_text(ctx: &FileCtx, line: u32, open: usize, close: usize) -> String {
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
        let inside = i > open && i < close;
        if above || t.line == line || inside {
            text.push_str(&t.text);
            text.push('\n');
        }
    }
    text
}

/// The identifiers feeding raw-pointer operations between tokens `open`
/// and `close`: deref operands, receivers and arguments of pointer
/// methods, and arguments of pointer functions — each by the root of its
/// chain ([`FileCtx::chain`]).
fn ptr_mentions<'a>(ctx: &FileCtx<'a>, open: usize, close: usize) -> Vec<&'a str> {
    let mut out = Vec::new();
    for j in open + 1..close.min(ctx.toks.len()) {
        let t = &ctx.toks[j];
        let prev = ctx.prev_sig(j).map(|p| &ctx.toks[p]);
        let called = ctx.next_sig(j).filter(|&n| ctx.toks[n].is_punct('('));
        if t.is_punct('*') {
            let deref = prev.is_none_or(|p| {
                (p.kind == TokKind::Punct && !p.is_punct(')') && !p.is_punct(']'))
                    || (p.kind == TokKind::Ident && BEFORE_EXPR.contains(&p.text.as_str()))
            });
            // `*const T` / `*mut T` is a pointer type, not a dereference.
            let operand = ctx
                .next_sig(j)
                .filter(|&n| !ctx.toks[n].is_ident("const") && !ctx.toks[n].is_ident("mut"));
            if deref {
                out.extend(operand.and_then(|n| ctx.chain(n).0));
            }
        } else if t.kind != TokKind::Ident {
            continue;
        } else if let Some(args) = called {
            let method = prev.is_some_and(|p| p.is_punct('.'));
            if method && PTR_METHODS.contains(&t.text.as_str()) {
                let dot = ctx.prev_sig(j);
                out.extend(
                    dot.and_then(|d| ctx.chain_start(d))
                        .and_then(|s| ctx.chain(s).0),
                );
                ctx.arg_roots(args, &mut out);
            } else if !method && is_ptr_call(ctx, j) {
                ctx.arg_roots(args, &mut out);
            }
        }
    }
    out
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
            "R010 — no literal subscript in the panic-free crates\n\n\
             Non-test code of `rowsort-algos`, `rowsort-core`,\n\
             `rowsort-normkey` and `rowsort-row` may not index a slice by an\n\
             integer literal (`v[0]`): it panics when the slice is shorter.\n\
             Destructure it (`let [a, ..] = …`) or use `.first()` / `.get(n)`.\n\
             The crates' other panic sources are clippy's: each `lib.rs`\n\
             denies `unwrap_used`, `expect_used`, `panic`, `unreachable`,\n\
             `todo` and `unimplemented`, and a site that may panic carries an\n\
             `#[expect(clippy::…, reason = \"…\")]` that says why it does not.\n\
             No stock lint names a literal subscript without flagging every\n\
             subscript."
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
        "R013" => {
            "R013 — SAFETY completeness\n\n\
             The SAFETY comment of an `unsafe` block (the run above the\n\
             block, a trailing comment, or comments inside it) must mention,\n\
             by name, every identifier that feeds a raw-pointer operation\n\
             inside the block: a dereference's operand, a pointer method's\n\
             receiver and arguments (`add`, `read`, `get_unchecked`, …), a\n\
             pointer function's arguments (`ptr::copy`, `from_raw_parts`,\n\
             `transmute`, …). An argument that does not\n\
             name `ptr` says nothing about why `ptr` is valid. That the\n\
             comment exists, and that the block holds one unsafe operation,\n\
             is clippy's (`undocumented_unsafe_blocks`,\n\
             `multiple_unsafe_ops_per_block`)."
        }
        _ => return None,
    })
}
