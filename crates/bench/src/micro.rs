//! Micro-benchmark experiments: Figures 2–6, 8, 9.
//!
//! Measurement conventions follow the paper: each cell is the median of
//! `reps` runs on freshly generated data; "relative runtime" of approach A
//! compared to baseline B is `time(B) / time(A)` (so 2.00 means A finishes
//! in half the time, as in the paper's figures); only like-for-like
//! algorithms are compared (introsort vs introsort, merge sort vs merge
//! sort).

use crate::{fmt_ratio, time_median, ExperimentResult, Scale};
use rowsort_algos::NoProbe;
use rowsort_core::strategy::{
    columnar_subsort, columnar_tuple, normkey_radix, normkey_sort, row_subsort, row_tuple_dynamic,
    row_tuple_static, to_static_rows, Algo, ByteRows, NormRows,
};
use rowsort_datagen::{key_columns, KeyDistribution};
use std::time::Duration;

/// The key-column counts the paper sweeps.
pub const COL_SWEEP: [usize; 4] = [1, 2, 3, 4];

fn seed_for(dist_idx: usize, rows: usize, cols: usize) -> u64 {
    (dist_idx as u64) << 48 ^ (rows as u64) << 8 ^ cols as u64 ^ 0x5eed
}

fn time_columnar_tuple(cols: &[Vec<u32>], algo: Algo, reps: usize) -> Duration {
    time_median(
        reps,
        || (),
        |()| {
            std::hint::black_box(columnar_tuple(cols, algo, &NoProbe));
        },
    )
}

fn time_columnar_subsort(cols: &[Vec<u32>], algo: Algo, reps: usize) -> Duration {
    time_median(
        reps,
        || (),
        |()| {
            std::hint::black_box(columnar_subsort(cols, algo, &NoProbe));
        },
    )
}

fn time_row_fused_static(cols: &[Vec<u32>], algo: Algo, reps: usize) -> Duration {
    // Monomorphized per key-column count, like a compiled engine's
    // generated struct.
    macro_rules! run_n {
        ($n:literal) => {
            time_median(
                reps,
                || to_static_rows::<$n>(cols),
                |mut rows| {
                    row_tuple_static::<$n>(&mut rows, algo);
                    std::hint::black_box(rows.len());
                },
            )
        };
    }
    match cols.len() {
        1 => run_n!(1),
        2 => run_n!(2),
        3 => run_n!(3),
        4 => run_n!(4),
        n => panic!("unsupported key column count {n}"),
    }
}

fn time_row_dynamic(cols: &[Vec<u32>], algo: Algo, reps: usize) -> Duration {
    time_median(
        reps,
        || ByteRows::from_cols(cols),
        |mut rows| {
            row_tuple_dynamic(&mut rows, algo);
            std::hint::black_box(rows.len());
        },
    )
}

fn time_row_subsort(cols: &[Vec<u32>], algo: Algo, reps: usize) -> Duration {
    time_median(
        reps,
        || ByteRows::from_cols(cols),
        |mut rows| {
            row_subsort(&mut rows, algo, &NoProbe);
            std::hint::black_box(rows.len());
        },
    )
}

fn time_normkey_sort(cols: &[Vec<u32>], algo: Algo, reps: usize) -> Duration {
    time_median(
        reps,
        || NormRows::from_cols(cols),
        |mut rows| {
            normkey_sort(&mut rows, algo, &NoProbe);
            std::hint::black_box(rows.len());
        },
    )
}

fn time_normkey_radix(cols: &[Vec<u32>], reps: usize) -> Duration {
    time_median(
        reps,
        || NormRows::from_cols(cols),
        |mut rows| {
            normkey_radix(&mut rows, &NoProbe);
            std::hint::black_box(rows.len());
        },
    )
}

/// Shared sweep driver: for every (distribution, rows, key columns) cell,
/// compute one or more ratios.
fn sweep(
    scale: &Scale,
    series: &[&str],
    mut cell: impl FnMut(&[Vec<u32>], usize) -> Vec<f64>,
) -> Vec<Vec<String>> {
    let mut rows_out = Vec::new();
    for (di, dist) in KeyDistribution::SWEEP.iter().enumerate() {
        for &n in &scale.row_sweep() {
            for &nc in &COL_SWEEP {
                let cols = key_columns(*dist, n, nc, seed_for(di, n, nc));
                let ratios = cell(&cols, nc);
                debug_assert_eq!(ratios.len(), series.len());
                let mut row = vec![dist.label(), n.to_string(), nc.to_string()];
                row.extend(ratios.iter().map(|&r| fmt_ratio(r)));
                rows_out.push(row);
            }
        }
    }
    rows_out
}

fn header(series: &[&str]) -> Vec<String> {
    let mut h = vec!["distribution".into(), "rows".into(), "key_cols".into()];
    h.extend(series.iter().map(|s| s.to_string()));
    h
}

/// Figure 2 (introsort) / Figure 3 (merge sort): relative runtime of the
/// columnar subsort approach vs columnar tuple-at-a-time.
pub fn fig_2_3(scale: &Scale, algo: Algo) -> ExperimentResult {
    let series = ["subsort_vs_tuple"];
    let rows = sweep(scale, &series, |cols, _| {
        let tuple = time_columnar_tuple(cols, algo, scale.reps);
        let subsort = time_columnar_subsort(cols, algo, scale.reps);
        vec![tuple.as_secs_f64() / subsort.as_secs_f64()]
    });
    let (id, title) = match algo {
        Algo::Introsort => ("fig2", "columnar subsort vs tuple-at-a-time (introsort)"),
        Algo::MergeSort => ("fig3", "columnar subsort vs tuple-at-a-time (merge sort)"),
        Algo::Pdq => ("fig2-pdq", "columnar subsort vs tuple-at-a-time (pdqsort)"),
    };
    ExperimentResult {
        id: id.into(),
        title: title.into(),
        header: header(&series),
        rows,
        notes: vec![
            "ratio > 1 means subsort is faster (paper: grows with rows and key columns \
             on Correlated data; ≈1 on Random)"
                .into(),
        ],
    }
}

/// Figure 4 (introsort) / Figure 5 (merge sort): relative runtime of the
/// NSM approaches vs the columnar subsort baseline.
pub fn fig_4_5(scale: &Scale, algo: Algo) -> ExperimentResult {
    let series = ["row_tuple_vs_col_subsort", "row_subsort_vs_col_subsort"];
    let rows = sweep(scale, &series, |cols, _| {
        let baseline = time_columnar_subsort(cols, algo, scale.reps);
        let row_tuple = time_row_fused_static(cols, algo, scale.reps);
        let row_sub = time_row_subsort(cols, algo, scale.reps);
        vec![
            baseline.as_secs_f64() / row_tuple.as_secs_f64(),
            baseline.as_secs_f64() / row_sub.as_secs_f64(),
        ]
    });
    let (id, title) = match algo {
        Algo::Introsort => ("fig4", "row formats vs columnar subsort (introsort)"),
        Algo::MergeSort => ("fig5", "row formats vs columnar subsort (merge sort)"),
        Algo::Pdq => ("fig4-pdq", "row formats vs columnar subsort (pdqsort)"),
    };
    ExperimentResult {
        id: id.into(),
        title: title.into(),
        header: header(&series),
        rows,
        notes: vec![
            "ratio > 1 means the row format is faster; paper: rows win almost everywhere, \
             especially at large input sizes"
                .into(),
        ],
    }
}

/// Figure 6: dynamic per-column comparator vs static comparator, NSM rows.
pub fn fig_6(scale: &Scale) -> ExperimentResult {
    let series = ["dynamic_vs_static"];
    let rows = sweep(scale, &series, |cols, _| {
        let stat = time_row_fused_static(cols, Algo::Introsort, scale.reps);
        let dynamic = time_row_dynamic(cols, Algo::Introsort, scale.reps);
        vec![stat.as_secs_f64() / dynamic.as_secs_f64()]
    });
    ExperimentResult {
        id: "fig6".into(),
        title: "dynamic vs static tuple comparator on rows (introsort)".into(),
        header: header(&series),
        rows,
        notes: vec![
            "ratio < 1 means dynamic is slower; paper: roughly 0.5 (2x slower), worse \
             with more key columns"
                .into(),
        ],
    }
}

/// Figure 8: normalized keys + dynamic memcmp vs static tuple comparator.
pub fn fig_8(scale: &Scale) -> ExperimentResult {
    let series = ["normkey_dynamic_vs_static"];
    let rows = sweep(scale, &series, |cols, _| {
        let stat = time_row_fused_static(cols, Algo::Introsort, scale.reps);
        let norm = time_normkey_sort(cols, Algo::Introsort, scale.reps);
        vec![stat.as_secs_f64() / norm.as_secs_f64()]
    });
    ExperimentResult {
        id: "fig8".into(),
        title: "normalized-key dynamic memcmp vs static tuple comparator (introsort)".into(),
        header: header(&series),
        rows,
        notes: vec![
            "paper: normalized keys recover (and often beat) the static comparator, \
             especially with more key columns and higher correlation"
                .into(),
        ],
    }
}

/// Figure 9: radix sort vs pdqsort with a dynamic memcmp comparator, both
/// over normalized keys.
pub fn fig_9(scale: &Scale) -> ExperimentResult {
    let series = ["radix_vs_pdq_memcmp"];
    let rows = sweep(scale, &series, |cols, _| {
        let pdq = time_normkey_sort(cols, Algo::Pdq, scale.reps);
        let radix = time_normkey_radix(cols, scale.reps);
        vec![pdq.as_secs_f64() / radix.as_secs_f64()]
    });
    ExperimentResult {
        id: "fig9".into(),
        title: "radix sort vs pdqsort (dynamic memcmp) on normalized keys".into(),
        header: header(&series),
        rows,
        notes: vec![
            "paper: radix wins on Random (especially 1 key column) and most Correlated \
             inputs; pdqsort competitive only at the highest correlations"
                .into(),
        ],
    }
}
