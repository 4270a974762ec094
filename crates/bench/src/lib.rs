//! The benchmark harness: one experiment per table/figure of the paper.
//!
//! Every experiment is a library function returning an
//! [`ExperimentResult`], so the `repro` binary can print it, integration
//! tests can smoke-test it at tiny scale, and the wall-clock benches can
//! reuse the same kernels. The inputs of the `pipeline` and `spill_merge`
//! benches are built here as well: `bench_gate` sorts the same rows and
//! gates their counters.
//!
//! # Scale
//!
//! Defaults are laptop-sized. Environment variables restore (or approach)
//! paper scale:
//!
//! | variable | default | paper | meaning |
//! |---|---|---|---|
//! | `ROWSORT_MAX_POW` | 18 | 24 | micro-benchmarks sweep 2^12 … 2^pow rows |
//! | `ROWSORT_SIM_POW` | 16 | 24 | rows for the simulated-counter experiments |
//! | `ROWSORT_E2E_ROWS` | 1000000 | 10000000 | Figure 12 step size (×1…×10) |
//! | `ROWSORT_SF_FRACTION` | 0.02 | 1.0 | fraction of TPC-DS cardinalities generated |
//! | `ROWSORT_THREADS` | 1 | 16+ | worker threads for end-to-end sorts |
//! | `ROWSORT_REPS` | 3 | 5 | repetitions; the median is reported |

pub mod counters;
pub mod endtoend;
pub mod info;
pub mod micro;
pub mod oracle;
pub mod stress;

use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, LogicalType, Value, Vector};
use std::time::{Duration, Instant};

/// Random `u32` keys, plus an optional derived `u32` payload column: the
/// movement-bound input of the `pipeline` and `spill_merge` benches and of
/// `bench_gate`, which must all sort the same rows under one id.
pub fn u32_chunk(n: usize, seed: u64, with_payload: bool) -> DataChunk {
    let mut rng = Rng::seed_from_u64(seed);
    let keys: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let payload = with_payload.then(|| {
        let derived = keys.iter().map(|k| k.wrapping_mul(7).wrapping_add(1));
        Vector::from_u32s(derived.collect())
    });
    let mut cols = vec![Vector::from_u32s(keys)];
    cols.extend(payload);
    DataChunk::from_columns(cols).unwrap()
}

/// The workload offset-value coding exists for: a three-column VARCHAR
/// key whose leading columns are low-cardinality with long shared
/// prefixes, so nearly every merge comparison used to re-scan the same
/// prefix bytes before reaching the deciding suffix.
pub fn wide_key_chunk(n: usize, seed: u64) -> DataChunk {
    let mut rng = Rng::seed_from_u64(seed);
    let mut chunk = DataChunk::new(&[LogicalType::Varchar; 3]);
    for i in 0..n {
        let region = Value::from(if rng.chance(0.9) {
            "warehouse_eu"
        } else {
            "warehouse_us"
        });
        let segment = Value::from(format!("segment_{:02}", rng.below(8)));
        let id = Value::from(format!("{:012}", (i as u64) ^ (seed << 16)));
        chunk.push_row(&[region, segment, id]).unwrap();
    }
    chunk
}

/// The stem of `pipeline/longstr_t1`'s strings: 14 bytes, so every string
/// collides under the paper's 12-byte prefix and the planner's sample
/// finds the prefix (all 20 bytes) that makes the column exact.
pub const LONGSTR_STEM: &str = "customer_name_";

/// The stem of `pipeline/tiedstr_t1`'s strings: longer than the longest
/// prefix the planner sizes (`rowsort_core::PREFIX_CAP`), so it keeps the
/// paper's 12 bytes, no key tells two rows apart and every row reaches the
/// full-tuple comparator — the irreducible-tie path.
pub const TIEDSTR_STEM: &str = "customer_of_the_eastern_warehouse_name_";

/// One VARCHAR key — `stem` and six digits, one row in 16 NULL — plus a
/// `u32` payload. Under [`LONGSTR_STEM`] run generation is a radix sort
/// over a 20-byte prefix the planner found in the data; under
/// [`TIEDSTR_STEM`] every key is byte-equal and run generation is the
/// comparison sort `strings_mem` used to be.
pub fn long_string_chunk(n: usize, seed: u64, stem: &str) -> DataChunk {
    let mut rng = Rng::seed_from_u64(seed);
    let mut chunk = DataChunk::new(&[LogicalType::Varchar, LogicalType::UInt32]);
    for i in 0..n {
        let name = match rng.below(16) {
            0 => Value::Null,
            _ => Value::from(format!("{stem}{:06}", rng.below(50_000))),
        };
        chunk.push_row(&[name, Value::UInt32(i as u32)]).unwrap();
    }
    chunk
}

/// Scale configuration, read from the environment once.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Micro-benchmarks sweep 2^12 … 2^max_pow rows.
    pub max_pow: u32,
    /// Rows (log2) for simulated-counter experiments.
    pub sim_pow: u32,
    /// Figure 12 row-count step (the paper uses 10 M).
    pub e2e_rows: usize,
    /// Fraction of the TPC-DS Table IV cardinality to generate.
    pub sf_fraction: f64,
    /// Worker threads for end-to-end experiments.
    pub threads: usize,
    /// Repetitions per measurement (median reported).
    pub reps: usize,
}

impl Scale {
    /// Read the scale from the environment (see module docs).
    pub fn from_env() -> Scale {
        fn get<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        Scale {
            max_pow: get("ROWSORT_MAX_POW", 18),
            sim_pow: get("ROWSORT_SIM_POW", 16),
            e2e_rows: get("ROWSORT_E2E_ROWS", 1_000_000),
            sf_fraction: get("ROWSORT_SF_FRACTION", 0.02),
            threads: get("ROWSORT_THREADS", 1),
            reps: get("ROWSORT_REPS", 3),
        }
    }

    /// A tiny scale for smoke tests.
    pub fn tiny() -> Scale {
        Scale {
            max_pow: 12,
            sim_pow: 10,
            e2e_rows: 5_000,
            sf_fraction: 0.0005,
            threads: 1,
            reps: 1,
        }
    }

    /// The micro-benchmark row-count sweep: powers of two from 2^12.
    pub fn row_sweep(&self) -> Vec<usize> {
        (12..=self.max_pow)
            .step_by(2)
            .map(|p| 1usize << p)
            .collect()
    }
}

/// Time `run` over a fresh `setup()` product, `reps` times; report the
/// median.
pub fn time_median<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut run: impl FnMut(T),
) -> Duration {
    let mut times = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let input = setup();
        let start = Instant::now();
        run(input);
        times.push(start.elapsed());
    }
    times.sort();
    times[times.len() / 2]
}

/// One reproduced table or figure: an id ("fig2"), a title, column
/// headers, and rows of formatted cells.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Short id matching the paper ("fig2", "table3", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-text notes (what to look for, paper expectation).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate().take(ncols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>w$}  "));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * ncols));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Format a ratio like the paper's relative-runtime cells.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}")
}

/// Format seconds.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sweep() {
        let s = Scale {
            max_pow: 16,
            ..Scale::tiny()
        };
        assert_eq!(s.row_sweep(), vec![1 << 12, 1 << 14, 1 << 16]);
    }

    #[test]
    fn time_median_times_something() {
        let d = time_median(3, || vec![0u8; 1000], |mut v| v.sort_unstable());
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn render_aligns() {
        let r = ExperimentResult {
            id: "figX".into(),
            title: "test".into(),
            header: vec!["a".into(), "bb".into()],
            rows: vec![vec!["1".into(), "2".into()]],
            notes: vec!["hello".into()],
        };
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("note: hello"));
    }
}
