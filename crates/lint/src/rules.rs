//! The rule engine: one pass over each file ([`analyze_file`]) that lexes
//! it once and runs every rule over its token stream.
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | R011 | all but [`RELAXED_ALLOWED`] | no `Relaxed` atomic ordering, by any path or alias (counters are allowlisted) |
//! | R013 | every `.rs` file | an `unsafe` block's SAFETY comment names every identifier its pointer operations use |
//!
//! What a stock lint says is left to it, run by `cargo clippy` over the
//! `[workspace.lints]` tables in the root `Cargo.toml` and the crate-level
//! denies in the `lib.rs` of `rowsort-algos`, `-core`, `-normkey` and
//! `-row`; what a run-time count says is left to the tests (DESIGN.md
//! §9).
//!
//! `#[cfg(test)]` modules, `#[test]` functions, and whole files under
//! [`TEST_PATHS`] are exempt: the invariants guard the measured sort
//! path, not test scaffolding. No finding can be silenced; code that
//! trips a rule is rewritten.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::HashSet;

/// Files that are test or bench scaffolding as a whole, exempt like
/// `#[cfg(test)]` items. A `*` stands for one path segment; a pattern
/// that ends in `/` covers everything under it. Core's `testutil.rs` is a
/// `#[cfg(test)] mod` the token pass sees as a plain file.
pub const TEST_PATHS: &[&str] = &[
    "crates/core/src/testutil.rs",
    "crates/*/tests/",
    "crates/*/benches/",
    "crates/bench/src/bin/",
    "tests/",
    "examples/",
];

/// The files where R011 lets `Relaxed` order an atomic: pure statistics
/// counters (metrics, pool hit/miss stats, the counting test allocator),
/// never a cross-thread handoff.
pub const RELAXED_ALLOWED: &[&str] = &[
    "crates/core/src/metrics.rs",
    "crates/core/src/pool.rs",
    "crates/testkit/src/alloc.rs",
];

/// Is the workspace-relative `path` under one of [`TEST_PATHS`]?
pub fn is_test_path(path: &str) -> bool {
    TEST_PATHS.iter().any(|pattern| {
        let mut segments = path.split('/');
        let dir = pattern.ends_with('/');
        let mut parts = pattern.trim_end_matches('/').split('/');
        parts.all(|p| segments.next().is_some_and(|s| p == "*" || p == s))
            && dir == segments.next().is_some()
    })
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `R011`.
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
    /// Source lines covered by a comment (a multi-line block comment
    /// covers every line it spans).
    comment_lines: HashSet<u32>,
    /// Lines that open with an attribute (`#[…]`) — allowed between a
    /// SAFETY comment and the item it documents.
    attr_lines: HashSet<u32>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, toks: &'a [Tok]) -> FileCtx<'a> {
        let mut ctx = FileCtx {
            path,
            toks,
            test_ranges: test_ranges(toks),
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
        self.test_ranges.iter().any(|&(s, e)| idx >= s && idx < e)
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
// The pass: every rule over one file
// ---------------------------------------------------------------------------

/// Analyze one file: it is lexed once, its test regions found once, and
/// every rule in scope runs over its non-test tokens. `path` is
/// workspace-relative with `/` separators; a file that is not `.rs`, or
/// is under [`TEST_PATHS`], yields nothing. Findings are sorted.
pub fn analyze_file(path: &str, src: &str) -> Vec<Finding> {
    if !path.ends_with(".rs") || is_test_path(path) {
        return Vec::new();
    }
    let toks = lex(src);
    let ctx = FileCtx::new(path, &toks);
    let mut findings = Vec::new();
    if !RELAXED_ALLOWED.contains(&path) {
        rule_r011(&ctx, &mut findings);
    }
    rule_r013(&ctx, &mut findings);
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

/// Keywords after which an expression starts: a `*` there dereferences,
/// not multiplies.
const BEFORE_EXPR: &[&str] = &[
    "mut", "in", "return", "break", "match", "if", "while", "else",
];

// ---------------------------------------------------------------------------
// R011 — atomic-ordering discipline
// ---------------------------------------------------------------------------

/// Flag every `Relaxed` token: `Ordering::Relaxed`, an aliased
/// `AtomicOrdering::Relaxed` and a `use`d bare `Relaxed` alike. A Relaxed
/// load or store is only sound for values nothing else synchronizes on
/// (statistics counters, whose files are [`RELAXED_ALLOWED`]); anything
/// guarding a cross-thread handoff needs Acquire/Release.
fn rule_r011(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.is_ident("Relaxed") && !ctx.in_test(i) {
            findings.push(Finding::new(
                "R011",
                ctx.path,
                t,
                "`Relaxed` atomic ordering outside the counter files — a Relaxed \
                 atomic cannot order a cross-thread handoff; use Acquire/Release \
                 (a pure statistics counter belongs in `rules::RELAXED_ALLOWED`)",
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
