//! Fixture-based rule tests: each fixture under `tests/fixtures/` holds
//! known-bad (and known-good) snippets; the assertions pin the exact
//! finding counts and locations, so lexer or rule regressions show up as
//! off-by-one line numbers or missing/extra findings.

use lint::{analyze_source, rules, Config, Timing};
use std::path::Path;

fn cfg() -> Config {
    Config {
        // Fixtures are analyzed under virtual paths: `hot/…` is in the
        // R003 scope and its functions are R010 roots, `enc/…` is in the
        // R004 scope.
        hot_paths: vec!["hot/**".to_string()],
        cast_strict: vec!["enc/**".to_string()],
        ..Config::default()
    }
}

/// `(rule, line)` pairs of all findings, in source order.
fn findings(path: &str, src: &str) -> Vec<(String, u32)> {
    analyze_source(path, src, &cfg())
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn r001_unsafe_without_safety_comment() {
    let mut got = findings("any/r001.rs", include_str!("fixtures/r001.rs"));
    // R013 reads the SAFETY comment on line 8 too; not this test's subject.
    got.retain(|(r, _)| r == "R001");
    assert_eq!(
        got,
        vec![("R001".to_string(), 14), ("R001".to_string(), 27)],
        "undocumented unsafe block and fn; documented ones pass, and \
         `unsafe` inside strings, raw strings, or nested comments is text"
    );
}

#[test]
fn r002_panics_and_literal_indexing_in_hot_paths() {
    let got = findings("hot/r002.rs", include_str!("fixtures/r002.rs"));
    let lines: Vec<u32> = got.iter().map(|(_, l)| *l).collect();
    assert!(got.iter().all(|(r, _)| r == "R010"), "{got:?}");
    assert_eq!(
        lines,
        vec![4, 5, 7, 9, 12],
        "unwrap, expect, panic!, v[0], e[1]; variable indexes, array \
         literals, #[cfg(test)] code, strings and comments are exempt"
    );
}

#[test]
fn r002_does_not_apply_outside_hot_paths() {
    assert!(findings("cold/r002.rs", include_str!("fixtures/r002.rs")).is_empty());
}

#[test]
fn r003_allocations_in_hot_loop_bodies() {
    let got = findings("hot/r003.rs", include_str!("fixtures/r003.rs"));
    assert!(got.iter().all(|(r, _)| r == "R003"), "{got:?}");
    let lines: Vec<u32> = got.iter().map(|(_, l)| *l).collect();
    assert_eq!(
        lines,
        vec![21, 22, 23, 24, 25, 31],
        "clone/to_vec/format!/Vec::new/collect in a for body and Box::new \
         in a while body; allocations outside loops, `impl … for`, and \
         `for<'a>` binders are exempt"
    );
}

#[test]
fn r004_bare_numeric_casts_in_cast_strict_paths() {
    let got = findings("enc/r004.rs", include_str!("fixtures/r004.rs"));
    assert_eq!(
        got,
        vec![("R004".to_string(), 4), ("R004".to_string(), 5)],
        "`as u32` and `as usize` flagged; `use … as Name` is not a cast"
    );
    assert!(findings("other/r004.rs", include_str!("fixtures/r004.rs")).is_empty());
}

#[test]
fn r006_exit_and_unsafe_impl() {
    let got = findings("any/r006.rs", include_str!("fixtures/r006.rs"));
    assert_eq!(
        got,
        vec![
            ("R006".to_string(), 7),
            ("R006".to_string(), 9),
            ("R006".to_string(), 12),
        ],
        "unsafe impl Send, unsafe impl Sync, process::exit; an unsafe impl \
         of another trait is not R006's concern"
    );
}

#[test]
fn r006_respects_allowlists() {
    let mut config = cfg();
    config.exit_allow = vec!["cli/**".to_string()];
    config.unsafe_impl_allow = vec!["cli/**".to_string()];
    let got = analyze_source("cli/r006.rs", include_str!("fixtures/r006.rs"), &config);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn suppressions_need_reasons() {
    let got = findings("hot/suppress.rs", include_str!("fixtures/suppress.rs"));
    assert_eq!(
        got,
        vec![
            ("R000".to_string(), 7),
            ("R010".to_string(), 8),
            ("R000".to_string(), 13),
        ],
        "reasoned suppressions (standalone and trailing) silence their \
         line; a reason-less lint:allow is itself a finding and does not \
         suppress; a reasoned one with nothing to silence is a finding at \
         the comment"
    );
}

#[test]
fn r005_manifest_audit() {
    let got: Vec<(String, u32)> = analyze_source(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/r005_bad.toml"),
        &cfg(),
    )
    .into_iter()
    .map(|f| (f.rule, f.line))
    .collect();
    assert!(got.iter().all(|(r, _)| r == "R005"), "{got:?}");
    let mut lines: Vec<u32> = got.iter().map(|(_, l)| *l).collect();
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![8, 9, 9, 12, 12, 12, 15, 15, 21],
        "registry versions, inline `version`/`git`/`branch` keys, dotted \
         tables, and target-specific sections are all caught; `path` and \
         `workspace = true` deps pass"
    );
}

#[test]
fn non_rust_non_manifest_files_are_ignored() {
    assert!(analyze_source("README.md", "v[0].unwrap()", &cfg()).is_empty());
}

/// `(declared, with a body)` counts of the `fn <ident>` token pairs
/// outside `macro_rules!` bodies (whose `fn $name` templates are not
/// items). A declaration has a body when its signature ends in `{`, not
/// `;`, outside every `(…)` / `[…]`.
fn fn_token_pairs(toks: &[lint::lexer::Tok]) -> (usize, usize) {
    let sig: Vec<&str> = (toks.iter().filter(|t| !t.is_comment()))
        .map(|t| t.text.as_str())
        .collect();
    let is_ident = |t: &str| t.starts_with(|c: char| c.is_alphabetic() || c == '_');
    let (mut i, mut declared, mut bodies) = (0, 0, 0);
    while i < sig.len() {
        if sig[i] == "macro_rules" {
            // `macro_rules! name { … }`: skip to the matching close.
            let mut depth = 0i32;
            i += 3;
            while i < sig.len() {
                match sig[i] {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    _ => {}
                }
                i += 1;
                if depth == 0 {
                    break;
                }
            }
            continue;
        }
        if sig[i] == "fn" && sig.get(i + 1).is_some_and(|t| is_ident(t)) {
            declared += 1;
            let mut depth = 0i32;
            for t in &sig[i + 2..] {
                match *t {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" | ";" if depth == 0 => {
                        bodies += usize::from(*t == "{");
                        break;
                    }
                    _ => {}
                }
            }
        }
        i += 1;
    }
    (declared, bodies)
}

#[test]
fn parser_yields_every_fn_item_of_every_scanned_file() {
    // R010 is the only panic check, and it sees exactly
    // the functions the parser yields: an item the parser drops (PR 15
    // found it losing the rest of an `impl`), or a body it mistakes for
    // a declaration (PR 17: `-> [u8; 4] {`), is unguarded code.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = lint::load_config(&root).expect("lint.toml loads");
    let mut total = (0, 0);
    for rel in lint::workspace_files(&root, &config).expect("walk runs") {
        if !rel.ends_with(".rs") {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel)).expect("file reads");
        let toks = lint::lexer::lex(&src);
        let mut parsed = (0, 0);
        lint::ast::for_each_fn(&lint::parser::parse(&toks), &mut |f, _| {
            parsed.0 += 1;
            parsed.1 += usize::from(f.body.is_some());
        });
        assert_eq!(
            fn_token_pairs(&toks),
            parsed,
            "{rel}: (fn items, bodies) lost by the parser"
        );
        total = (total.0 + parsed.0, total.1 + parsed.1);
    }
    println!("fn items parsed, with a body: {total:?}");
    assert!(total.0 > 1000, "walk found the workspace");
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = lint::load_config(&root).expect("lint.toml loads");
    let report = lint::run_workspace(&root, &config).expect("scan runs");
    assert!(
        report.errors.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .errors
            .iter()
            .map(|f| format!(
                "  [{}] {}:{}:{} {}",
                f.rule, f.path, f.line, f.col, f.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "walk found the workspace");
}

// ---------------------------------------------------------------------------
// Deep rules (R010–R013): AST + call-graph analysis over a crate unit.
// ---------------------------------------------------------------------------

/// Run the unit pass over virtual `(path, source)` files.
fn unit_findings(files: &[(&str, &str)], cfg: &Config) -> Vec<rules::Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    rules::analyze_unit(&owned, cfg, &mut Timing::default())
}

#[test]
fn r010_diamond_call_graph_reports_shortest_chain_once() {
    // entry -> {left, right} -> sink; sink panics. One finding, via the
    // BFS-shortest chain, anchored at the panic site's exact line/col.
    let src = "fn entry() { left(); right(); }\n\
               fn left() { sink(); }\n\
               fn right() { left(); sink(); }\n\
               fn sink(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
    let mut cfg = Config::default();
    cfg.hot_entries = vec![("unit/diamond.rs".to_string(), "entry".to_string())];
    let got = unit_findings(&[("unit/diamond.rs", src)], &cfg);
    assert_eq!(got.len(), 1, "{got:?}");
    let f = &got[0];
    assert_eq!(
        (f.rule.as_str(), f.path.as_str(), f.line, f.col),
        ("R010", "unit/diamond.rs", 5, 7)
    );
    assert!(
        f.message.contains("entry -> left -> sink"),
        "chain must render the shortest path: {}",
        f.message
    );
}

#[test]
fn r010_recursive_graph_terminates_and_reports() {
    let src = "fn entry() { step(0); }\n\
               fn step(n: u32) { if n > 0 { step(n - 1); } boom(); }\n\
               fn boom() { panic!(\"x\"); }\n";
    let mut cfg = Config::default();
    cfg.hot_entries = vec![("unit/rec.rs".to_string(), "entry".to_string())];
    let got = unit_findings(&[("unit/rec.rs", src)], &cfg);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].line, 3);
    assert!(
        got[0].message.contains("entry -> step -> boom"),
        "{}",
        got[0].message
    );
}

#[test]
fn r010_trait_method_chain_crosses_files_within_a_unit() {
    // The entry calls `.step()`; conservative method resolution reaches
    // the impl in the other file of the same unit.
    let a = "pub fn entry(x: crate::b::A) { x.step(); }\n";
    let b = "pub struct A;\n\
             impl A {\n    pub fn step(&self) { helper(); }\n}\n\
             fn helper(v: Vec<u32>) -> u32 {\n    v[0]\n}\n";
    let mut cfg = Config::default();
    cfg.hot_entries = vec![("unit/a.rs".to_string(), "entry".to_string())];
    let got = unit_findings(&[("unit/a.rs", a), ("unit/b.rs", b)], &cfg);
    assert_eq!(got.len(), 1, "{got:?}");
    let f = &got[0];
    assert_eq!((f.path.as_str(), f.line), ("unit/b.rs", 6));
    assert!(
        f.message.contains("entry -> A::step -> helper"),
        "{}",
        f.message
    );
}

#[test]
fn r010_entry_that_names_no_function_is_a_finding() {
    // A renamed entry point must not go silently unguarded: the unit
    // that owns the entry's file reports it, at lint.toml.
    let src = "fn entry() {}\n#[test]\nfn only_a_test() {}\n";
    let mut cfg = Config::default();
    cfg.hot_entries = vec![
        ("unit/a.rs".to_string(), "entry".to_string()),
        ("unit/a.rs".to_string(), "entyr".to_string()),
        ("unit/a.rs".to_string(), "only_a_test".to_string()),
        ("other/b.rs".to_string(), "another_units".to_string()),
    ];
    cfg.hot_entries_line = 7;
    let got = unit_findings(&[("unit/a.rs", src)], &cfg);
    let at: Vec<_> = got
        .iter()
        .map(|f| (f.rule.as_str(), f.path.as_str(), f.line))
        .collect();
    assert_eq!(at, vec![("R010", "lint.toml", 7); 2], "{got:?}");
    assert!(got[0].message.contains("`unit/a.rs:entyr`"), "{got:?}");
    assert!(
        got[1].message.contains("`unit/a.rs:only_a_test`"),
        "{got:?}"
    );
}

#[test]
fn r011_relaxed_ordering_flagged_unless_allowlisted() {
    let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let cfg = Config::default();
    let got = unit_findings(&[("unit/atomics.rs", src)], &cfg);
    assert_eq!(got.len(), 1);
    assert_eq!((got[0].rule.as_str(), got[0].line), ("R011", 1));
    let mut allowed = Config::default();
    allowed.atomic_relaxed_allow = vec!["unit/**".to_string()];
    assert!(unit_findings(&[("unit/atomics.rs", src)], &allowed).is_empty());
}

#[test]
fn r012_discarded_spill_result_needs_a_counter() {
    let bad = "impl Spill {\n\
               fn cleanup(&self) -> Result<(), SpillError> { Ok(()) }\n\
               fn close(&self) {\n    let _ = self.cleanup();\n}\n}\n";
    let good = "impl Spill {\n\
               fn cleanup(&self) -> Result<(), SpillError> { Ok(()) }\n\
               fn close(&self, m: &Metrics) {\n    let _ = self.cleanup();\n    m.add(Counter::SpillCleanupFailed, 1);\n}\n}\n";
    let cfg = Config::default();
    let got = unit_findings(&[("unit/spill.rs", bad)], &cfg);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!((got[0].rule.as_str(), got[0].line), ("R012", 4));
    assert!(unit_findings(&[("unit/spill.rs", good)], &cfg).is_empty());
}

#[test]
fn r013_unsafe_budget_and_safety_mentions() {
    // 9 statements > default budget of 8, and the SAFETY comment names
    // neither `p` (deref) nor `buf` (pointer-producing call receiver).
    let over = "fn f(p: *const u8, buf: &mut [u8]) {\n\
                // SAFETY: fine, trust me.\n\
                unsafe {\n\
                let a = 1; let b = 2; let c = 3; let d = 4; let e = 5;\n\
                let g = 6; let h = 7; let i = 8;\n\
                let v = *p;\n\
                }\n}\n";
    let cfg = Config::default();
    let got = unit_findings(&[("unit/unsafe.rs", over)], &cfg);
    let rules_hit: Vec<&str> = got.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules_hit.contains(&"R013"), "{got:?}");
    assert!(
        got.iter()
            .any(|f| f.message.contains("at most 8 statements") || f.message.contains("`p`")),
        "budget or mention finding expected: {got:?}"
    );
    let ok = "fn f(p: *const u8) {\n\
              // SAFETY: `p` is valid for reads, promised by the caller.\n\
              unsafe {\n    let v = *p;\n}\n}\n";
    assert!(unit_findings(&[("unit/unsafe_ok.rs", ok)], &cfg).is_empty());
}

#[test]
fn test_paths_exempt_deep_rules_but_not_token_rules() {
    let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let mut cfg = Config::default();
    cfg.test_paths = vec!["unit/tests/**".to_string()];
    assert!(unit_findings(&[("unit/tests/helper.rs", src)], &cfg).is_empty());
    // The same file outside [test-paths] is flagged.
    assert_eq!(unit_findings(&[("unit/src/helper.rs", src)], &cfg).len(), 1);
}

#[test]
fn explain_covers_every_rule_id() {
    for rule in [
        "R000", "R001", "R003", "R004", "R005", "R006", "R010", "R011", "R012", "R013",
    ] {
        assert!(
            rules::explain(rule).is_some(),
            "missing --explain text for {rule}"
        );
    }
    assert!(rules::explain("R999").is_none());
}

// ---------------------------------------------------------------------------
// Dataflow rules (R020–R023): CFG + abstract-state analysis.
// ---------------------------------------------------------------------------

/// Findings of one rule only, as `(path, line, col)` triples.
fn rule_findings(files: &[(&str, &str)], cfg: &Config, rule: &str) -> Vec<(String, u32, u32)> {
    unit_findings(files, cfg)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path.clone(), f.line, f.col))
        .collect()
}

fn taint_cfg() -> Config {
    let mut cfg = Config::default();
    cfg.taint_sources = vec![".read_exact".to_string(), "Self::fill".to_string()];
    cfg
}

#[test]
fn r020_unbounded_pointer_offset_flagged_with_chain() {
    let src = "fn bad(p: *mut u8, a: usize, b: usize) {\n\
               let idx = a + b;\n\
               // SAFETY: reviewed.\n\
               unsafe { p.add(idx).write(1); }\n}\n";
    let got = unit_findings(&[("unit/r020.rs", src)], &Config::default());
    let r020: Vec<_> = got.iter().filter(|f| f.rule == "R020").collect();
    assert_eq!(r020.len(), 1, "{got:?}");
    assert_eq!((r020[0].line, r020[0].col), (4, 12));
    assert!(
        r020[0].message.contains("`idx` = `a + b` (line 2)"),
        "finding must render the def-use chain: {}",
        r020[0].message
    );
}

#[test]
fn r020_len_derived_and_guarded_offsets_pass() {
    // Three justified shapes: derived from `.len()`, dominated by a
    // `debug_assert!` guard, and dominated by a branch on every path.
    let src = "fn ok(p: *mut u8, v: &[u8], i: usize) {\n\
               let n = v.len();\n\
               // SAFETY: n and i are in bounds of v.\n\
               unsafe { p.add(n).write(0); }\n\
               debug_assert!(i < v.len());\n\
               // SAFETY: asserted above.\n\
               unsafe { p.add(i).write(0); }\n\
               if i < v.len() {\n\
               // SAFETY: branch-guarded.\n\
               unsafe { p.add(i).write(0); }\n\
               }\n}\n";
    let got = rule_findings(&[("unit/r020ok.rs", src)], &Config::default(), "R020");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r020_guard_on_one_branch_does_not_cover_the_merge() {
    // Diamond: the bound holds on the then-edge only; after the merge
    // the offset is unguarded again.
    let src = "fn diamond(p: *mut u8, v: &[u8], i: usize, flip: bool) {\n\
               if flip {\n\
               if i >= v.len() { return; }\n\
               }\n\
               // SAFETY: reviewed.\n\
               unsafe { p.add(i).write(0); }\n}\n";
    let got = rule_findings(&[("unit/r020d.rs", src)], &Config::default(), "R020");
    assert_eq!(got, vec![("unit/r020d.rs".to_string(), 6, 12)]);
}

#[test]
fn r021_unsanitized_spill_length_reaches_resize() {
    // The exact shape of a spill segment decode, minus the cap.
    let src = "impl Reader {\n\
               fn advance(&mut self) -> Result<(), E> {\n\
               let mut len_buf = [0u8; 4];\n\
               self.inner.read_exact(&mut len_buf)?;\n\
               let seg_len = u32::from_le_bytes(len_buf) as usize;\n\
               self.heap.resize(seg_len, 0);\n\
               Ok(())\n}\n}\n";
    let got = rule_findings(&[("unit/r021.rs", src)], &taint_cfg(), "R021");
    assert_eq!(got, vec![("unit/r021.rs".to_string(), 6, 11)]);
}

#[test]
fn r021_cap_guard_and_min_sanitizer_launder_the_length() {
    // Same decode, but (a) guarded by a constant cap with an early
    // return, (b) clamped with `.min`. Both must come out clean.
    let guarded = "impl Reader {\n\
               fn advance(&mut self) -> Result<(), E> {\n\
               let mut len_buf = [0u8; 4];\n\
               self.inner.read_exact(&mut len_buf)?;\n\
               let seg_len = u32::from_le_bytes(len_buf) as usize;\n\
               if seg_len > MAX_SEG_BYTES { return Err(E::Corrupt); }\n\
               self.heap.resize(seg_len, 0);\n\
               Ok(())\n}\n}\n";
    let clamped = "impl Reader {\n\
               fn advance(&mut self) -> Result<(), E> {\n\
               let mut len_buf = [0u8; 4];\n\
               self.inner.read_exact(&mut len_buf)?;\n\
               let seg_len = (u32::from_le_bytes(len_buf) as usize).min(MAX_SEG_BYTES);\n\
               self.heap.resize(seg_len, 0);\n\
               Ok(())\n}\n}\n";
    for (name, src) in [("guarded", guarded), ("clamped", clamped)] {
        let got = rule_findings(&[("unit/r021ok.rs", src)], &taint_cfg(), "R021");
        assert!(got.is_empty(), "{name}: {got:?}");
    }
}

#[test]
fn r021_dynamic_source_wrapper_is_discovered() {
    // `read_len` returns tainted data; the fixed point promotes it to a
    // source, so its caller's unsanitized use is flagged.
    let src = "impl Reader {\n\
               fn read_len(&mut self) -> usize {\n\
               let mut b = [0u8; 4];\n\
               self.inner.read_exact(&mut b);\n\
               u32::from_le_bytes(b) as usize\n}\n\
               fn load(&mut self) {\n\
               let n = self.read_len();\n\
               self.buf.reserve(n);\n}\n}\n";
    let got = rule_findings(&[("unit/r021dyn.rs", src)], &taint_cfg(), "R021");
    assert_eq!(got, vec![("unit/r021dyn.rs".to_string(), 9, 10)]);
}

#[test]
fn r021_tainted_slice_index_flagged() {
    let src = "impl Reader {\n\
               fn pick(&mut self, v: &[u8]) -> u8 {\n\
               let mut b = [0u8; 4];\n\
               self.inner.read_exact(&mut b);\n\
               let i = u32::from_le_bytes(b) as usize;\n\
               v[i]\n}\n}\n";
    let got = rule_findings(&[("unit/r021ix.rs", src)], &taint_cfg(), "R021");
    assert_eq!(got, vec![("unit/r021ix.rs".to_string(), 6, 2)]);
}

#[test]
fn r022_broadcast_closure_offsets_by_worker_id_pass() {
    // Inline closure, closure behind a local, and a call one hop down:
    // all offsets derive from the id parameter or a fetch_add ticket.
    let src = "fn helper(dst: *mut u8, w: usize) {\n\
               // SAFETY: caller passes a worker-private index.\n\
               unsafe { dst.add(w).write(1); }\n}\n\
               fn run(pool: &WorkerPool, dst: *mut u8, tickets: &AtomicUsize) {\n\
               let body = |w: usize| {\n\
               let t = tickets.fetch_add(1, Ordering::Relaxed);\n\
               // SAFETY: ticket-disjoint.\n\
               unsafe { dst.add(t).write(0); }\n\
               helper(dst, w);\n\
               };\n\
               pool.broadcast(&body);\n}\n";
    let got = rule_findings(&[("unit/r022ok.rs", src)], &Config::default(), "R022");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r022_non_id_offset_in_broadcast_closure_flagged() {
    let src = "fn run(pool: &WorkerPool, dst: *mut u8, k: usize) {\n\
               pool.broadcast(&|w: usize| {\n\
               // SAFETY: reviewed.\n\
               unsafe { dst.add(k).write(0); }\n\
               });\n}\n";
    let got = rule_findings(&[("unit/r022.rs", src)], &Config::default(), "R022");
    assert_eq!(got, vec![("unit/r022.rs".to_string(), 4, 14)]);
}

#[test]
fn r022_interprocedural_hop_reports_in_the_callee() {
    // The closure forwards a non-id value into `helper`'s id-seeded
    // position? No — it forwards the id into one param and a plain
    // capture into the pointer math: the finding lands inside `helper`.
    let src = "fn helper(dst: *mut u8, w: usize, k: usize) {\n\
               // SAFETY: reviewed.\n\
               unsafe { dst.add(k).write(1); }\n}\n\
               fn run(pool: &WorkerPool, dst: *mut u8, k: usize) {\n\
               pool.broadcast(&|w: usize| helper(dst, w, k));\n}\n";
    let got = rule_findings(&[("unit/r022hop.rs", src)], &Config::default(), "R022");
    assert_eq!(got, vec![("unit/r022hop.rs".to_string(), 3, 14)]);
}

#[test]
fn r023_guard_lost_at_merge_flagged_diamond() {
    let src = "fn pick(v: &[u8], i: usize) -> u8 {\n\
               let mut x = 0;\n\
               if i < v.len() {\n\
               x = v[i];\n\
               }\n\
               x + v[i]\n}\n";
    let got = rule_findings(&[("unit/r023.rs", src)], &Config::default(), "R023");
    assert_eq!(got, vec![("unit/r023.rs".to_string(), 6, 6)]);
}

#[test]
fn r023_loop_carried_index_with_head_guard_passes() {
    // `i` is loop-carried (0 on entry, incremented on the backedge); the
    // head refinement re-establishes `i < v.len()` every iteration.
    let src = "fn sum(v: &[u8]) -> u32 {\n\
               let mut acc = 0u32;\n\
               let mut i = 0;\n\
               while i < v.len() {\n\
               acc += v[i] as u32;\n\
               i += 1;\n\
               }\n\
               acc\n}\n";
    let got = rule_findings(&[("unit/r023loop.rs", src)], &Config::default(), "R023");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r023_conjunction_guard_refines_both_comparisons() {
    // `i < a.len() && j < b.len()` arrives as one flattened chain; both
    // indexes inside the branch are covered, both after it are not.
    let src = "fn merge(a: &[u8], b: &[u8], i: usize, j: usize) -> u8 {\n\
               let mut x = 0;\n\
               if i < a.len() && j < b.len() {\n\
               x = a[i] + b[j];\n\
               }\n\
               x + a[i] + b[j]\n}\n";
    let got = rule_findings(&[("unit/r023and.rs", src)], &Config::default(), "R023");
    assert_eq!(
        got,
        vec![
            ("unit/r023and.rs".to_string(), 6, 6),
            ("unit/r023and.rs".to_string(), 6, 13)
        ]
    );
}

#[test]
fn dataflow_rules_are_suppressible_and_explained() {
    let src = "fn bad(p: *mut u8, a: usize) {\n\
               // SAFETY: reviewed.\n\
               // lint:allow(R020): offset proven in the caller's contract.\n\
               unsafe { p.add(a).write(1); }\n}\n";
    let got = rule_findings(&[("unit/r020sup.rs", src)], &Config::default(), "R020");
    assert!(got.is_empty(), "{got:?}");
    for rule in ["R020", "R021", "R022", "R023"] {
        let text = rules::explain(rule).expect(rule);
        assert!(text.starts_with(rule), "{text}");
    }
}
