//! Fixture-based rule tests: each fixture under `tests/fixtures/` holds
//! known-bad (and known-good) snippets; the assertions pin the exact
//! finding counts and locations, so lexer or rule regressions show up as
//! off-by-one line numbers or missing/extra findings.

use lint::{analyze_source, rules, Config, Timing};
use std::path::Path;

fn cfg() -> Config {
    Config {
        // Fixtures are analyzed under virtual paths: `hot/…` is in the
        // R003 scope and its functions are R010 roots.
        hot_paths: vec!["hot/**".to_string()],
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
fn non_rust_files_are_ignored() {
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
    let cfg = Config {
        hot_entries: vec![("unit/diamond.rs".to_string(), "entry".to_string())],
        ..Config::default()
    };
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
    let cfg = Config {
        hot_entries: vec![("unit/rec.rs".to_string(), "entry".to_string())],
        ..Config::default()
    };
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
    let cfg = Config {
        hot_entries: vec![("unit/a.rs".to_string(), "entry".to_string())],
        ..Config::default()
    };
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
    let cfg = Config {
        hot_entries: vec![
            ("unit/a.rs".to_string(), "entry".to_string()),
            ("unit/a.rs".to_string(), "entyr".to_string()),
            ("unit/a.rs".to_string(), "only_a_test".to_string()),
            ("other/b.rs".to_string(), "another_units".to_string()),
        ],
        hot_entries_line: 7,
        ..Config::default()
    };
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
    let allowed = Config {
        atomic_relaxed_allow: vec!["unit/**".to_string()],
        ..Config::default()
    };
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
fn r013_safety_comment_names_every_pointer_identifier() {
    // The SAFETY comment names neither `p` (deref) nor `buf` (pointer
    // method receiver); naming both passes.
    let vague = "fn f(p: *const u8, buf: &mut [u8]) {\n\
                 // SAFETY: fine, trust me.\n\
                 let v = unsafe { *p };\n\
                 // SAFETY: fine, trust me.\n\
                 let w = unsafe { buf.get_unchecked(0) };\n\
                 }\n";
    let got = unit_findings(&[("unit/unsafe.rs", vague)], &Config::default());
    let at: Vec<_> = got.iter().map(|f| (f.rule.as_str(), f.line)).collect();
    assert_eq!(at, vec![("R013", 3), ("R013", 5)], "{got:?}");
    assert!(got[0].message.contains("`p`"), "{got:?}");
    assert!(got[1].message.contains("`buf`"), "{got:?}");
    let ok = "fn f(p: *const u8) {\n\
              // SAFETY: `p` is valid for reads, promised by the caller.\n\
              unsafe {\n    let v = *p;\n}\n}\n";
    assert!(unit_findings(&[("unit/unsafe_ok.rs", ok)], &Config::default()).is_empty());
}

#[test]
fn test_paths_are_exempt() {
    let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let cfg = Config {
        test_paths: vec!["unit/tests/**".to_string()],
        ..Config::default()
    };
    assert!(unit_findings(&[("unit/tests/helper.rs", src)], &cfg).is_empty());
    // The same file outside [test-paths] is flagged.
    assert_eq!(unit_findings(&[("unit/src/helper.rs", src)], &cfg).len(), 1);
}

#[test]
fn explain_covers_every_rule_id() {
    for rule in ["R000", "R003", "R010", "R011", "R012", "R013"] {
        assert!(
            rules::explain(rule).is_some(),
            "missing --explain text for {rule}"
        );
    }
    assert!(rules::explain("R999").is_none());
}
