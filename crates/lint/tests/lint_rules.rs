//! Fixture-based rule tests: each fixture under `tests/fixtures/` holds
//! known-bad (and known-good) snippets; the assertions pin the exact
//! finding counts and locations, so lexer or rule regressions show up as
//! off-by-one line numbers or missing/extra findings.

use lint::{analyze_source, rules, Config};
use std::path::Path;

fn cfg() -> Config {
    Config {
        // Fixtures are analyzed under virtual paths: `hot/…` is in the
        // R003 scope, `crates/core/src/…` in R010's.
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
fn r010_literal_subscripts_in_panic_free_crates() {
    let got = findings("crates/core/src/r010.rs", include_str!("fixtures/r010.rs"));
    let lines: Vec<u32> = got.iter().map(|(_, l)| *l).collect();
    assert!(got.iter().all(|(r, _)| r == "R010"), "{got:?}");
    assert_eq!(
        lines,
        vec![4, 8, 8, 10],
        "v[0], both subscripts of w[1][0], e[1]; variable subscripts, array \
         literals, vec![…], #[cfg(test)] code, strings and comments are exempt"
    );
}

#[test]
fn r010_does_not_apply_outside_panic_free_crates() {
    let src = include_str!("fixtures/r010.rs");
    for path in [
        "crates/engine/src/r010.rs",
        "hot/r010.rs",
        "crates/core/benches/r010.rs",
    ] {
        assert!(findings(path, src).is_empty(), "{path}");
    }
}

#[test]
fn panic_free_crates_deny_the_panic_and_discard_lints() {
    // These denies are what keeps panics out of the four crates, and
    // swallowed spill errors out of the crates that sort, run queries and
    // drive both: one deleted line must not silently drop them.
    const PANICS: [&str; 6] = [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
    ];
    const DISCARDS: [&str; 2] = ["let_underscore_must_use", "unused_result_ok"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert_eq!(rules::PANIC_FREE_CRATES.len(), 4);
    let checks = rules::PANIC_FREE_CRATES.iter().map(|k| (*k, &PANICS[..]));
    let discarding = ["core", "engine", "bench"].map(|k| (k, &DISCARDS[..]));
    for (krate, lints) in checks.chain(discarding) {
        let rel = format!("crates/{krate}/src/lib.rs");
        let src = std::fs::read_to_string(root.join(&rel)).expect("lib.rs reads");
        let denied = crate_denies(&src);
        for lint in lints {
            assert!(
                denied.contains(&format!("clippy::{lint}")),
                "{rel} does not deny clippy::{lint}: {denied:?}"
            );
        }
    }
}

/// The lints named by a file's `#![deny(…)]` attributes (comments are
/// not attributes).
fn crate_denies(src: &str) -> Vec<String> {
    let toks: Vec<_> = lint::lexer::lex(src)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
    let mut denied = Vec::new();
    for i in 0..toks.len() {
        let opens = ["#", "!", "[", "deny", "("]
            .iter()
            .enumerate()
            .all(|(k, want)| toks.get(i + k).is_some_and(|t| t.text == *want));
        if !opens {
            continue;
        }
        let args = toks[i + 5..].iter().take_while(|t| !t.is_punct(')'));
        let text: String = args.map(|t| t.text.as_str()).collect();
        denied.extend(text.split(',').filter(|l| !l.is_empty()).map(String::from));
    }
    denied
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
    let got = findings(
        "crates/core/src/suppress.rs",
        include_str!("fixtures/suppress.rs"),
    );
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

#[test]
fn r011_relaxed_ordering_flagged_unless_allowlisted() {
    let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let cfg = Config::default();
    let got = analyze_source("unit/atomics.rs", src, &cfg);
    assert_eq!(got.len(), 1);
    assert_eq!((got[0].rule.as_str(), got[0].line), ("R011", 1));
    let allowed = Config {
        atomic_relaxed_allow: vec!["unit/**".to_string()],
        ..Config::default()
    };
    assert!(analyze_source("unit/atomics.rs", src, &allowed).is_empty());
}

#[test]
fn r013_safety_comment_names_every_pointer_identifier() {
    // (function body, identifiers the SAFETY comment fails to name). Each
    // pointer-operation form — a deref, a pointer method, a `ptr::`
    // function — with its comment above, trailing and inside the block.
    let cases: &[(&str, &[&str])] = &[
        // A deref, comment above.
        ("// SAFETY: fine, trust me.\nlet v = unsafe { *p };", &["p"]),
        ("// SAFETY: `p` is valid for reads.\nlet v = unsafe { *p };", &[]),
        // A pointer method: its receiver and each whole-chain argument.
        (
            "// SAFETY: fine, trust me.\nlet w = unsafe { buf.get_unchecked(i) };",
            &["buf", "i"],
        ),
        (
            "// SAFETY: `i < buf.len()`.\nlet w = unsafe { self.buf.as_ptr().add(i * 4) };",
            &[],
        ),
        // A `ptr::` function: each argument, by the root of its chain.
        (
            "// SAFETY: `n` bytes of src fit.\nunsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst, n) };",
            &["dst"],
        ),
        ("// SAFETY: fine.\nlet x = unsafe { ptr::read(p) };", &["p"]),
        // `io::read` is no pointer function, and `*const` no deref.
        ("// SAFETY: fine.\nlet x = unsafe { io::read(p) };", &[]),
        (
            "// SAFETY: `f` outlives its use.\nlet e = unsafe { std::mem::transmute::<*const u8, *const i8>(f) };",
            &[],
        ),
        // A trailing comment on the block's line.
        ("let v = unsafe { *p }; // SAFETY: fine, trust me.", &["p"]),
        ("let v = unsafe { *p }; // SAFETY: `p` is valid.", &[]),
        // A comment inside the block.
        ("unsafe {\n    // SAFETY: fine, trust me.\n    p.write(v)\n}", &["p", "v"]),
        ("unsafe {\n    // SAFETY: `p` is valid for writes of `v`.\n    p.write(v)\n}", &[]),
        // No SAFETY comment at all is clippy's finding, not R013's.
        ("let v = unsafe { *p };", &[]),
    ];
    for (body, missing) in cases {
        let src = format!("fn f() {{\n{body}\n}}\n");
        let got = analyze_source("unit/unsafe.rs", &src, &Config::default());
        assert!(got.iter().all(|f| f.rule == "R013"), "{body}: {got:?}");
        // The message names the missing identifiers as `a`, `b`.
        let named: Vec<&str> = (got.iter())
            .flat_map(|f| f.message.split('`').skip(1).step_by(2))
            .collect();
        assert_eq!(named, *missing, "{body}: {got:?}");
    }
    // A #[test] function's unsafe block is exempt.
    let test_fn = "#[test]\nfn t() {\n// SAFETY: fine.\nlet v = unsafe { *p };\n}\n";
    assert!(analyze_source("unit/unsafe.rs", test_fn, &Config::default()).is_empty());
}

#[test]
fn test_paths_are_exempt() {
    let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let cfg = Config {
        test_paths: vec!["unit/tests/**".to_string()],
        ..Config::default()
    };
    assert!(analyze_source("unit/tests/helper.rs", src, &cfg).is_empty());
    // The same file outside [test-paths] is flagged.
    assert_eq!(analyze_source("unit/src/helper.rs", src, &cfg).len(), 1);
}

#[test]
fn explain_covers_every_rule_id() {
    for rule in ["R000", "R003", "R010", "R011", "R013"] {
        assert!(
            rules::explain(rule).is_some(),
            "missing --explain text for {rule}"
        );
    }
    assert!(rules::explain("R012").is_none(), "R012 is clippy's");
    assert!(rules::explain("R999").is_none());
}
