//! Self-fuzz smoke: the analyzer must never panic, whatever bytes it is
//! fed.
//!
//! rowsort-lint runs on every verify invocation, so a lexer or rule panic
//! on weird-but-real source (half-deleted merge conflicts, truncated
//! files, non-UTF-8 replacement chars) would take tier-1 down with it.
//! Every rule walks tokens that may not balance; this test pins the "no
//! panic, ever" half of that contract:
//!
//! 1. every `.rs` file of the lint crate itself, run through a seeded
//!    byte-level mutator (delete / duplicate / splice junk / punctuate /
//!    truncate) and then every rule;
//! 2. pure random byte strings, analyzed both as `.rs` and as a
//!    `lint.toml` configuration.
//!
//! Everything derives from fixed seeds (testkit's splitmix64-seeded
//! PRNG), so a failure reproduces exactly: re-run with the printed file
//! and case index. No network, no wall-clock, no corpus files.

use lint::Config;
use rowsort_testkit::rng::Rng;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Mutated-source cases per input file. Each case applies 1–4 byte-level
/// edits, so ~6 cases per file covers every mutator arm several times
/// across the crate without dominating `cargo test -p lint` runtime.
const CASES_PER_FILE: usize = 6;
/// Pure-garbage cases (random byte strings up to 4 KiB).
const RANDOM_STRINGS: usize = 64;

/// The real workspace `lint.toml`, so scoped rules (hot paths) actually
/// fire on the mutated sources.
fn workspace_config() -> Config {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let src = fs::read_to_string(root.join("lint.toml")).expect("workspace lint.toml");
    Config::parse(&src)
}

/// Run the full analysis pipeline over one in-memory file and report
/// whether it panicked. The file is presented under a `crates/core/src/`
/// path so R010's scope is in play.
fn analyze_panics(rel: &str, src: &str, cfg: &Config) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        lint::analyze_source(rel, src, cfg).len()
    }))
    .is_err()
}

/// Byte-level mutator: 1–4 random edits, then lossy UTF-8 decode (the
/// analyzer takes `&str`; replacement characters are part of the attack
/// surface). Growth is capped at 2× the original so splice/duplicate
/// arms cannot balloon the corpus.
fn mutate(src: &[u8], rng: &mut Rng) -> String {
    const PUNCT: &[u8] = b"{}()[]<>&|!=+-*/.,;:'\"#";
    let cap = src.len().max(64) * 2;
    let mut buf = src.to_vec();
    let edits = 1 + rng.below(4) as usize;
    for _ in 0..edits {
        if buf.is_empty() {
            let n = rng.below(256) as usize + 1;
            buf = rng.bytes(n);
            continue;
        }
        let at = rng.below(buf.len() as u64) as usize;
        let len = (rng.below(64) as usize + 1).min(buf.len() - at);
        match rng.below(5) {
            0 => {
                buf.drain(at..at + len);
            }
            1 => {
                let chunk: Vec<u8> = buf[at..at + len].to_vec();
                if buf.len() + chunk.len() <= cap {
                    let dst = rng.below(buf.len() as u64 + 1) as usize;
                    buf.splice(dst..dst, chunk);
                }
            }
            2 => {
                let junk = rng.bytes(len);
                if buf.len() + junk.len() <= cap {
                    buf.splice(at..at, junk);
                }
            }
            3 => {
                for b in &mut buf[at..at + len] {
                    *b = *rng.pick(PUNCT);
                }
            }
            _ => {
                buf.truncate(at);
            }
        }
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// The lint crate's own sources, sorted for a stable mutation order.
fn own_sources() -> Vec<PathBuf> {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut paths: Vec<PathBuf> = fs::read_dir(&src_dir)
        .expect("read lint src dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 6,
        "expected the lint crate sources as fuzz corpus, found {}",
        paths.len()
    );
    paths
}

#[test]
fn mutated_workspace_sources_never_panic() {
    let cfg = workspace_config();
    let mut rng = Rng::seed_from_u64(0x5EED_F0DD_5EED_F0DD);
    for path in own_sources() {
        let src = fs::read(&path).expect("read corpus file");
        for case in 0..CASES_PER_FILE {
            let mutated = mutate(&src, &mut rng);
            assert!(
                !analyze_panics("crates/core/src/fuzzed.rs", &mutated, &cfg),
                "analyzer panicked on mutated {} (case {case})",
                path.display()
            );
        }
    }
}

#[test]
fn random_byte_strings_never_panic() {
    let cfg = workspace_config();
    let mut rng = Rng::seed_from_u64(0xB17E5);
    for case in 0..RANDOM_STRINGS {
        let n = rng.below(4096) as usize;
        let garbage = rng.bytes(n);
        let text = String::from_utf8_lossy(&garbage).into_owned();
        assert!(
            !analyze_panics("crates/core/src/fuzzed.rs", &text, &cfg),
            "analyzer panicked on random bytes (case {case})"
        );
        let config_panicked = catch_unwind(AssertUnwindSafe(|| Config::parse(&text))).is_err();
        assert!(
            !config_panicked,
            "lint.toml parse panicked on random bytes (case {case})"
        );
    }
}
