//! Rule tests: each pins the exact findings of a table of snippets, so
//! lexer or rule regressions show up as missing or extra findings; and
//! the four sort crates' panic denies and the workspace's discard lints
//! are held in place.

use lint::rules::{self, analyze_file};
use std::path::Path;

/// The crates (`crates/<name>/src`) whose non-test code must not panic:
/// each one's `lib.rs` denies clippy's six panic lints.
const PANIC_FREE_CRATES: [&str; 4] = ["algos", "core", "normkey", "row"];

#[test]
fn panic_free_crates_deny_the_panic_and_discard_lints() {
    // These denies are what keeps panics out of the four crates, and
    // swallowed spill errors out of every crate and its tests: one deleted
    // line must not silently drop them.
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
    for krate in PANIC_FREE_CRATES {
        let rel = format!("crates/{krate}/src/lib.rs");
        let src = std::fs::read_to_string(root.join(&rel)).expect("lib.rs reads");
        let denied = crate_denies(&src);
        for lint in PANICS {
            assert!(
                denied.contains(&format!("clippy::{lint}")),
                "{rel} does not deny clippy::{lint}: {denied:?}"
            );
        }
    }
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("Cargo.toml reads");
    let table = workspace_clippy_lints(&manifest);
    for lint in DISCARDS {
        assert!(
            table.contains(&format!("{lint} = \"deny\"")),
            "[workspace.lints.clippy] does not deny {lint}: {table:?}"
        );
    }
}

/// The lines of a manifest's `[workspace.lints.clippy]` table, without
/// comments or blanks.
fn workspace_clippy_lints(manifest: &str) -> Vec<String> {
    let body = manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.lints.clippy]");
    let lines = body
        .skip(1)
        .map(str::trim)
        .take_while(|l| !l.starts_with('['));
    let entries = lines.filter(|l| !l.is_empty() && !l.starts_with('#'));
    entries.map(String::from).collect()
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
fn non_rust_files_are_ignored() {
    assert!(analyze_file("README.md", "c.load(Ordering::Relaxed)").is_empty());
}

#[test]
fn r011_relaxed_ordering_flagged_unless_allowlisted() {
    // (source, lines flagged): every spelling of Relaxed outside a test.
    let cases: &[(&str, &[u32])] = &[
        (
            "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }",
            &[1],
        ),
        (
            "use std::sync::atomic::Ordering as AtomicOrdering;\n\
             fn bump(c: &AtomicU64) { c.fetch_add(1, AtomicOrdering::Relaxed); }",
            &[2],
        ),
        (
            "use std::sync::atomic::Ordering::Relaxed;\n\
             fn bump(c: &AtomicU64) { c.fetch_add(1, Relaxed); }",
            &[1, 2],
        ),
        (
            "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::AcqRel); }",
            &[],
        ),
        (
            "#[test]\nfn t() { C.fetch_add(1, Ordering::Relaxed); }",
            &[],
        ),
    ];
    for (src, lines) in cases {
        let got = analyze_file("crates/core/src/atomics.rs", src);
        assert!(got.iter().all(|f| f.rule == "R011"), "{src}: {got:?}");
        let got: Vec<u32> = got.iter().map(|f| f.line).collect();
        assert_eq!(got, *lines, "{src}");
    }
    let src = cases[0].0;
    for allowed in rules::RELAXED_ALLOWED {
        assert!(analyze_file(allowed, src).is_empty(), "{allowed}");
    }
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
        let got = analyze_file("unit/unsafe.rs", &src);
        assert!(got.iter().all(|f| f.rule == "R013"), "{body}: {got:?}");
        // The message names the missing identifiers as `a`, `b`.
        let named: Vec<&str> = (got.iter())
            .flat_map(|f| f.message.split('`').skip(1).step_by(2))
            .collect();
        assert_eq!(named, *missing, "{body}: {got:?}");
    }
    // A #[test] function's unsafe block is exempt.
    let test_fn = "#[test]\nfn t() {\n// SAFETY: fine.\nlet v = unsafe { *p };\n}\n";
    assert!(analyze_file("unit/unsafe.rs", test_fn).is_empty());
}

#[test]
fn test_paths_are_exempt() {
    let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    for path in [
        "crates/core/src/testutil.rs",
        "crates/core/tests/helper.rs",
        "crates/row/benches/deep/helper.rs",
        "crates/bench/src/bin/stress.rs",
        "tests/integration.rs",
        "examples/quickstart.rs",
    ] {
        assert!(rules::is_test_path(path), "{path}");
        assert!(analyze_file(path, src).is_empty(), "{path}");
    }
    // The same file outside rules::TEST_PATHS is flagged.
    for path in [
        "crates/core/src/helper.rs",
        "crates/core/src/testutil.rs/x.rs",
        "crates/tests/helper.rs",
        "crates/bench/src/lib.rs",
        "benchmark/tests/x.rs",
    ] {
        assert!(!rules::is_test_path(path), "{path}");
        assert_eq!(analyze_file(path, src).len(), 1, "{path}");
    }
}
