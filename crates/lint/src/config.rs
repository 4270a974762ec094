//! `lint.toml` — declares which paths each scoped rule applies to.
//!
//! ```toml
//! [hot-paths]            # R003 scope
//! globs = ["crates/algos/src/radix.rs", ...]
//!
//! [exclude]              # never scanned
//! globs = ["target/**"]
//!
//! [test-paths]           # whole files treated as test scaffolding
//! globs = ["crates/*/tests/**"]
//!
//! [atomic-relaxed-allow] # R011: Ordering::Relaxed permitted (counters)
//! globs = ["crates/core/src/metrics.rs"]
//! ```

use crate::toml_scan;

/// Parsed lint configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// R003 applies to files matching these globs.
    pub hot_paths: Vec<String>,
    /// Files excluded from all rules (e.g. lint test fixtures).
    pub exclude: Vec<String>,
    /// Whole files treated as test scaffolding: scanned (a `lint:allow`
    /// there is still checked) but exempt from every rule but R003,
    /// exactly like a `#[cfg(test)]` region.
    pub test_paths: Vec<String>,
    /// Files where `Ordering::Relaxed` is permitted (metrics counters).
    pub atomic_relaxed_allow: Vec<String>,
}

impl Config {
    /// Parse `lint.toml` text.
    pub fn parse(src: &str) -> Config {
        let mut cfg = Config::default();
        for item in toml_scan::scan(src) {
            if item.key != "globs" {
                continue;
            }
            let globs = toml_scan::array_strings(&item.value);
            match item.section.as_str() {
                "hot-paths" => cfg.hot_paths = globs,
                "exclude" => cfg.exclude = globs,
                "test-paths" => cfg.test_paths = globs,
                "atomic-relaxed-allow" => cfg.atomic_relaxed_allow = globs,
                _ => {}
            }
        }
        cfg
    }

    /// Does `path` (repo-relative, `/`-separated) match any glob in `set`?
    pub fn matches(set: &[String], path: &str) -> bool {
        set.iter().any(|g| glob_match(g, path))
    }
}

/// Match `path` against `pattern`. Supported syntax: `*` (within one path
/// segment), `**` (any number of segments, including zero), literal text.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => {
            // `**` may swallow zero or more whole segments.
            (0..=segs.len()).any(|k| match_segments(&pat[1..], &segs[k..]))
        }
        Some(p) => match segs.first() {
            Some(s) if match_one(p, s) => match_segments(&pat[1..], &segs[1..]),
            _ => false,
        },
    }
}

/// Match one path segment against a pattern segment with `*` wildcards.
fn match_one(pat: &str, seg: &str) -> bool {
    let pieces: Vec<&str> = pat.split('*').collect();
    if pieces.len() == 1 {
        return pat == seg;
    }
    let mut rest = seg;
    for (i, piece) in pieces.iter().enumerate() {
        if i == 0 {
            match rest.strip_prefix(piece) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if i == pieces.len() - 1 {
            return piece.is_empty() || rest.ends_with(piece);
        } else if piece.is_empty() {
            continue;
        } else {
            match rest.find(piece) {
                Some(at) => rest = &rest[at + piece.len()..],
                None => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_star() {
        assert!(glob_match(
            "crates/algos/src/radix.rs",
            "crates/algos/src/radix.rs"
        ));
        assert!(glob_match(
            "crates/bench/src/bin/*.rs",
            "crates/bench/src/bin/gen.rs"
        ));
        assert!(!glob_match(
            "crates/bench/src/bin/*.rs",
            "crates/bench/src/lib.rs"
        ));
    }

    #[test]
    fn double_star() {
        assert!(glob_match(
            "crates/normkey/src/**",
            "crates/normkey/src/encoding.rs"
        ));
        assert!(glob_match(
            "crates/normkey/src/**",
            "crates/normkey/src/deep/nest.rs"
        ));
        assert!(glob_match("target/**", "target/release/foo"));
        assert!(!glob_match(
            "crates/normkey/src/**",
            "crates/row/src/block.rs"
        ));
        assert!(glob_match(
            "**/fixtures/**",
            "crates/lint/tests/fixtures/r001_bad.rs"
        ));
    }

    #[test]
    fn parse_config() {
        let cfg = Config::parse(
            "[hot-paths]\nglobs = [\n \"a.rs\",\n \"b/**\",\n]\n[exclude]\nglobs = [\"t/**\"]\n",
        );
        assert_eq!(cfg.hot_paths, vec!["a.rs", "b/**"]);
        assert_eq!(cfg.exclude, vec!["t/**"]);
        assert!(Config::matches(&cfg.hot_paths, "b/x/y.rs"));
    }

    #[test]
    fn parse_scoped_sections() {
        let cfg = Config::parse(
            "[test-paths]\nglobs = [\"crates/*/tests/**\"]\n\
             [atomic-relaxed-allow]\nglobs = [\"crates/core/src/metrics.rs\"]\n",
        );
        assert!(Config::matches(&cfg.test_paths, "crates/core/tests/x.rs"));
        assert!(Config::matches(
            &cfg.atomic_relaxed_allow,
            "crates/core/src/metrics.rs"
        ));
    }
}
