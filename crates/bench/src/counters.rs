//! Simulated-counter experiments: Tables II & III and Figure 10.
//!
//! The paper reads hardware counters (`perf -e branch-misses,
//! L1-dcache-load-misses`) on a bare-metal Xeon; we substitute the
//! `rowsort-simcpu` cache/branch simulation (see DESIGN.md §2) and report
//! the same quantities. Absolute numbers differ from silicon; the ordering
//! relations the paper argues from are what these experiments reproduce.
//!
//! Each approach is the `core::strategy` entry Figures 2–9 time, run once
//! with a fresh [`SimCpu`] as its probe. `bench_gate` pins every count at
//! 2^12 rows.

use crate::{ExperimentResult, Scale};
use rowsort_core::strategy::{
    columnar_subsort, columnar_tuple, normkey_radix, normkey_sort, row_subsort, row_tuple_fused,
    Algo, ByteRows, NormRows,
};
use rowsort_datagen::{key_columns, KeyDistribution};
use rowsort_simcpu::{Counters, SimCpu};

/// One experiment's approaches, each with what its sort counted.
type Approaches = [(&'static str, Counters); 2];

fn correlated_cols(n: usize, ncols: usize) -> Vec<Vec<u32>> {
    key_columns(KeyDistribution::Correlated(0.5), n, ncols, 0xC0FFEE)
}

/// What `sort` counts on a fresh simulated CPU.
fn count(sort: impl FnOnce(&SimCpu)) -> Counters {
    let cpu = SimCpu::new();
    sort(&cpu);
    cpu.counters()
}

/// Table II's input at `n` rows: the *columnar* format sorted by
/// introsort, tuple-at-a-time vs subsort.
pub fn table2_counts(n: usize) -> Approaches {
    let cols = correlated_cols(n, 4);
    [
        (
            "tuple-at-a-time",
            count(|cpu| drop(columnar_tuple(&cols, Algo::Introsort, cpu))),
        ),
        (
            "subsort",
            count(|cpu| drop(columnar_subsort(&cols, Algo::Introsort, cpu))),
        ),
    ]
}

/// Table III's: the same two approaches over the *row* format.
pub fn table3_counts(n: usize) -> Approaches {
    let rows = ByteRows::from_cols(&correlated_cols(n, 4));
    [
        (
            "tuple-at-a-time",
            count(|cpu| row_tuple_fused(&mut rows.clone(), Algo::Introsort, cpu)),
        ),
        (
            "subsort",
            count(|cpu| row_subsort(&mut rows.clone(), Algo::Introsort, cpu)),
        ),
    ]
}

/// Figure 10's: 16-byte normalized keys sorted by pdqsort with a `memcmp`
/// comparator (Figure 9's contender) vs radix sort (MSD at this width).
pub fn fig10_counts(n: usize) -> Approaches {
    let keys = NormRows::from_cols(&correlated_cols(n, 4));
    [
        (
            "pdqsort(memcmp)",
            count(|cpu| normkey_sort(&mut keys.clone(), Algo::Pdq, cpu)),
        ),
        (
            "radix(MSD)",
            count(|cpu| normkey_radix(&mut keys.clone(), cpu)),
        ),
    ]
}

/// One row per approach: its label, then the named counters.
fn result(
    id: &str,
    title: String,
    header: &[&str],
    counts: Approaches,
    note: &str,
) -> ExperimentResult {
    let field = |c: &Counters, name: &str| match name {
        "l1_misses" => c.l1_misses,
        "branches" => c.branches,
        _ => c.branch_misses,
    };
    ExperimentResult {
        id: id.into(),
        title,
        header: header.iter().map(|h| h.to_string()).collect(),
        rows: counts
            .iter()
            .map(|(label, c)| {
                let values = header[1..].iter().map(|h| field(c, h).to_string());
                std::iter::once(label.to_string()).chain(values).collect()
            })
            .collect(),
        notes: vec![note.into()],
    }
}

/// Table II: L1 misses and branch mispredictions of sorting the *columnar*
/// format with tuple-at-a-time vs subsort (introsort, Correlated0.5,
/// 4 key columns).
pub fn table_2(scale: &Scale) -> ExperimentResult {
    result(
        "table2",
        format!(
            "sim. counters, columnar format, 2^{} rows x 4 key cols, Correlated0.5",
            scale.sim_pow
        ),
        &["approach", "l1_misses", "branch_misses"],
        table2_counts(1 << scale.sim_pow),
        "paper (Table II): subsort incurs fewer cache misses and fewer branch \
         mispredictions than tuple-at-a-time on correlated columnar data",
    )
}

/// Table III: the same two approaches over the *row* format.
pub fn table_3(scale: &Scale) -> ExperimentResult {
    result(
        "table3",
        format!(
            "sim. counters, row format, 2^{} rows x 4 key cols, Correlated0.5",
            scale.sim_pow
        ),
        &["approach", "l1_misses", "branch_misses"],
        table3_counts(1 << scale.sim_pow),
        "paper (Table III vs II): the row format incurs an order of magnitude fewer \
         cache misses than columnar; branch misses are similar across formats; \
         subsort has fewer branch misses, slightly more cache misses (tie re-scans)",
    )
}

/// Figure 10: cumulative counters of pdqsort-with-memcmp vs radix sort on
/// normalized keys (Correlated0.5, 4 key columns).
pub fn fig_10(scale: &Scale) -> ExperimentResult {
    result(
        "fig10",
        format!(
            "cumulative sim. counters, 2^{} rows x 4 key cols, Correlated0.5, normalized keys",
            scale.sim_pow
        ),
        &["algorithm", "l1_misses", "branches", "branch_misses"],
        fig10_counts(1 << scale.sim_pow),
        "paper (Fig. 10): radix has worse cache behaviour but vastly fewer branch \
         mispredictions (mostly branchless); MSD keeps the cache damage moderate",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_algos::radix::{lsd_radix_sort_rows, msd_radix_sort_rows};

    #[test]
    fn table2_orderings_hold_at_small_scale() {
        // Table II's branch-misprediction ordering on correlated data.
        let [(_, tuple), (_, subsort)] = table2_counts(1 << 13);
        let (tm, sm) = (tuple.branch_misses, subsort.branch_misses);
        assert!(sm < tm, "subsort {sm} < tuple {tm}");
    }

    #[test]
    fn rows_incur_fewer_cache_misses_than_columns() {
        // The paper's central Table II vs III observation, at reduced
        // scale: sorting rows misses the L1 far less than sorting columns.
        let n = 1 << 14;
        let (cm, rm) = (
            table2_counts(n)[0].1.l1_misses,
            table3_counts(n)[0].1.l1_misses,
        );
        assert!(
            cm > 2 * rm,
            "columnar misses {cm} should far exceed row misses {rm}"
        );
    }

    #[test]
    fn fig10_radix_is_nearly_branchless() {
        let [(_, pdq), (_, radix)] = fig10_counts(1 << 12);
        assert!(radix.branch_misses * 5 < pdq.branch_misses.max(1));
        // On 4-byte keys the radix sort is LSD, which has no data-dependent
        // branch at all.
        let mut keys = NormRows::from_cols(&correlated_cols(1 << 13, 1));
        let pdq = count(|cpu| normkey_sort(&mut keys.clone(), Algo::Pdq, cpu));
        let radix = count(|cpu| normkey_radix(&mut keys, cpu));
        let (qb, rb) = (pdq.branch_misses, radix.branch_misses);
        assert!(rb * 10 < qb.max(1), "radix {rb} vs pdqsort {qb}");
    }

    #[test]
    fn msd_has_fewer_cache_misses_than_lsd_on_wide_keys() {
        // The paper's reason for preferring MSD beyond 4 key bytes.
        let keys = NormRows::from_cols(&correlated_cols(1 << 13, 5));
        let width = keys.width;
        let lsd = count(|cpu| lsd_radix_sort_rows(&mut keys.data.clone(), width, 0, width, cpu));
        let msd = count(|cpu| msd_radix_sort_rows(&mut keys.data.clone(), width, 0, width, cpu));
        let (lm, mm) = (lsd.l1_misses, msd.l1_misses);
        assert!(mm < lm, "MSD {mm} should miss less than LSD {lm}");
    }

    #[test]
    fn counts_depend_on_the_input_alone() {
        // The probe lays every buffer out in `SimCpu::alloc`'s space, so a
        // second run — on another thread's stack, after unrelated
        // allocations moved the heap — counts exactly what the first did.
        let n = 1 << 12;
        let run = move || [table2_counts(n), table3_counts(n), fig10_counts(n)];
        let first = run();
        let second = std::thread::spawn(move || {
            let unrelated: Vec<Vec<u8>> = (1..64).map(|k| vec![0; k * 37]).collect();
            (run(), unrelated.len()).0
        });
        assert_eq!(first, second.join().expect("second run"));
    }
}
