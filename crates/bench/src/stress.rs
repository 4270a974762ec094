//! The differential oracle under faults, N seeds (DESIGN.md §8.5).
//!
//! Each iteration draws one [`Case`](crate::oracle::Case) — schema, data,
//! sort keys, memory budget, merge threads and fault schedule — from the
//! harness's generator under one seed, and runs
//! [`check_faults`](crate::oracle::check_faults) on it: the external
//! sorter against a fault-injecting `FaultFs`, `Ok` held to the reference
//! sort, `Err` held to a typed error consistent with the metrics, and no
//! leaked run file either way. The fault-free checks of the same
//! generator run as `cargo test -p rowsort-bench --test oracle`.
//!
//! Violations carry the iteration seed, so any failure reproduces with
//! `stress --iters 1 --seed <seed>`.

use crate::oracle::{check_faults, CaseGen, FaultReport};
use rowsort_core::SpillError;
use rowsort_testkit::json::Json;
use rowsort_testkit::prop::Gen;
use rowsort_testkit::rng::splitmix64;
use rowsort_testkit::Rng;

/// Stress-run configuration.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Iterations to run.
    pub iters: u64,
    /// Base seed; iteration `i` runs under `mix(seed, i)`.
    pub seed: u64,
    /// The seed as the user wrote it (echoed in reports).
    pub seed_text: String,
}

/// Aggregated results over a whole run.
#[derive(Debug, Clone, Default)]
pub struct StressReport {
    /// Iterations run.
    pub iters: u64,
    /// Iterations that survived and matched the oracle.
    pub survived: u64,
    /// Iterations that failed with a typed I/O error.
    pub failed_io: u64,
    /// Iterations that failed with a typed corruption error.
    pub failed_corrupt: u64,
    /// Iterations where the sorter degraded to in-memory runs.
    pub degraded: u64,
    /// Total injected faults that fired.
    pub faults_fired: u64,
    /// Total run files whose deletion an injected fault blocked.
    pub cleanup_failures: u64,
    /// Every violation, each prefixed with its iteration seed.
    pub violations: Vec<String>,
}

impl StressReport {
    /// Render as the JSON artifact CI uploads.
    pub fn to_json(&self, config: &StressConfig) -> Json {
        Json::obj(vec![
            ("seed", Json::str(config.seed_text.clone())),
            ("seed_value", Json::Num(config.seed as f64)),
            ("iters", Json::Num(self.iters as f64)),
            ("survived", Json::Num(self.survived as f64)),
            ("failed_io", Json::Num(self.failed_io as f64)),
            ("failed_corrupt", Json::Num(self.failed_corrupt as f64)),
            ("degraded", Json::Num(self.degraded as f64)),
            ("faults_fired", Json::Num(self.faults_fired as f64)),
            ("cleanup_failures", Json::Num(self.cleanup_failures as f64)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Parse a seed argument: hex (with or without `0x`), else decimal, else
/// any string at all, hashed. `0xR0WS0RT` is not valid hex — it hashes.
pub fn parse_seed(text: &str) -> u64 {
    let hex = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0X"))
        .unwrap_or(text);
    if let Ok(v) = u64::from_str_radix(hex, 16) {
        return v;
    }
    if let Ok(v) = text.parse::<u64>() {
        return v;
    }
    let mut state = 0x5EED_0F57_3E55_0001u64 ^ text.len() as u64;
    let mut out = 0;
    for b in text.bytes() {
        state = state.wrapping_add(b as u64).rotate_left(7);
        out ^= splitmix64(&mut state);
    }
    out
}

/// The seed for iteration `i` of a run seeded with `base`.
pub fn iteration_seed(base: u64, i: u64) -> u64 {
    let mut s = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Run one seeded iteration: generate, inject, sort, check. Violations
/// come back prefixed with `seed`.
pub fn run_iteration(seed: u64) -> FaultReport {
    let case = CaseGen { faults: true }.generate(&mut Rng::seed_from_u64(seed));
    let mut report = check_faults(&case);
    for violation in &mut report.violations {
        *violation = format!("seed {seed:#018x}: {violation}");
    }
    report
}

/// Run the full differential loop.
pub fn run(config: &StressConfig) -> StressReport {
    let mut report = StressReport {
        iters: config.iters,
        ..StressReport::default()
    };
    for i in 0..config.iters {
        // A single-iteration run takes the seed raw: violation messages
        // print the post-mix iteration seed, so `--iters 1 --seed <that>`
        // must call run_iteration with it unchanged to actually replay
        // the failing iteration (mixing it again would run a different
        // relation and schedule).
        let iter = if config.iters == 1 {
            run_iteration(config.seed)
        } else {
            run_iteration(iteration_seed(config.seed, i))
        };
        match iter.error {
            None => report.survived += 1,
            Some(SpillError::Io { .. }) => report.failed_io += 1,
            Some(SpillError::Corrupt { .. }) => report.failed_corrupt += 1,
        }
        report.degraded += iter.degraded as u64;
        report.faults_fired += iter.faults_fired;
        report.cleanup_failures += iter.leaked_files;
        report.violations.extend(iter.violations);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_accepts_hex_decimal_and_arbitrary_text() {
        assert_eq!(parse_seed("0x2a"), 42);
        assert_eq!(parse_seed("2a"), 42);
        assert_eq!(parse_seed("0X2A"), 42);
        assert_eq!(parse_seed("97"), 0x97, "hex wins over decimal");
        assert_eq!(parse_seed("zz9"), parse_seed("zz9"));
        // The canonical CI seed is NOT valid hex; it hashes.
        assert_ne!(parse_seed("0xR0WS0RT"), 0);
        assert_ne!(parse_seed("0xR0WS0RT"), parse_seed("0xR0WS0RU"));
    }

    /// A failed iteration's error with its run file's name left out: the
    /// name carries a process-wide counter, so two runs of one seed name
    /// different files. What failed, how, and the detail around the name
    /// are the seed's.
    fn unnamed(error: &Option<SpillError>) -> Option<String> {
        let shown = |e: &SpillError| format!("{e:?}").replace(e.path(), "<run file>");
        error.as_ref().map(shown)
    }

    #[test]
    fn iterations_are_deterministic() {
        let seed = parse_seed("0xR0WS0RT");
        for i in 0..4 {
            let s = iteration_seed(seed, i);
            let a = run_iteration(s);
            let b = run_iteration(s);
            assert_eq!(unnamed(&a.error), unnamed(&b.error), "seed {s:#x}");
            assert_eq!(a.faults_fired, b.faults_fired);
            assert_eq!(a.leaked_files, b.leaked_files);
            assert_eq!(a.violations, b.violations);
        }
    }

    #[test]
    fn smoke_run_holds_invariants() {
        let config = StressConfig {
            iters: 12,
            seed: parse_seed("0xR0WS0RT"),
            seed_text: "0xR0WS0RT".to_owned(),
        };
        let report = run(&config);
        assert_eq!(report.iters, 12);
        assert_eq!(
            report.survived + report.failed_io + report.failed_corrupt,
            12
        );
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        // The JSON artifact round-trips through testkit's parser.
        let json = report.to_json(&config).render();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("iters").and_then(Json::as_f64), Some(12.0));
        assert_eq!(parsed.get("seed").and_then(Json::as_str), Some("0xR0WS0RT"));
    }

    #[test]
    fn a_schedule_free_iteration_always_survives() {
        // Iteration seeds whose generated schedule happens to be empty
        // must survive; scan a few seeds and require at least one clean
        // survival so the oracle path is known-exercised.
        let mut survived = 0;
        for s in 0..8u64 {
            let iter = run_iteration(iteration_seed(0xDEAD_BEEF, s));
            assert!(iter.violations.is_empty(), "{:#?}", iter.violations);
            survived += iter.error.is_none() as u64;
        }
        assert!(survived > 0, "no iteration survived out of 8");
    }
}
