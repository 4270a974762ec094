//! Walk the paper's §IV–§VI design space on one workload and print a
//! mini version of its figures: every (format × comparison strategy ×
//! comparator binding) combination, timed on the same data.
//!
//! Run with `cargo run --release --example design_space`.

use rowsort::algos::NoProbe;
use rowsort::core::strategy::{
    columnar_subsort, columnar_tuple, normkey_radix, normkey_sort, row_subsort, row_tuple_dynamic,
    row_tuple_static, to_static_rows, Algo, ByteRows, NormRows,
};
use rowsort::datagen::{key_columns, KeyDistribution};
use std::time::Instant;

fn time(label: &str, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let secs = start.elapsed().as_secs_f64();
    println!("{label:<42} {:>9.2} ms", secs * 1e3);
    secs
}

fn main() {
    let n = 1 << 18;
    let ncols = 4;
    let dist = KeyDistribution::Correlated(0.5);
    println!(
        "design space on {} rows x {} key columns, {} distribution\n",
        n,
        ncols,
        dist.label()
    );
    let cols = key_columns(dist, n, ncols, 42);

    println!("-- DSM (columnar): sort an index array --");
    let t_col_tuple = time("columnar tuple-at-a-time (introsort)", || {
        std::hint::black_box(columnar_tuple(&cols, Algo::Introsort, &NoProbe));
    });
    let t_col_sub = time("columnar subsort (introsort)", || {
        std::hint::black_box(columnar_subsort(&cols, Algo::Introsort, &NoProbe));
    });

    println!("\n-- NSM (rows): physically move tuples --");
    let t_row_static = time("row tuple-at-a-time, static cmp (compiled)", || {
        let mut rows = to_static_rows::<4>(&cols);
        row_tuple_static(&mut rows, Algo::Introsort);
        std::hint::black_box(rows.len());
    });
    let t_row_dyn = time("row tuple-at-a-time, dynamic cmp (interp.)", || {
        let mut rows = ByteRows::from_cols(&cols);
        row_tuple_dynamic(&mut rows, Algo::Introsort);
        std::hint::black_box(rows.len());
    });
    let t_row_sub = time("row subsort", || {
        let mut rows = ByteRows::from_cols(&cols);
        row_subsort(&mut rows, Algo::Introsort, &NoProbe);
        std::hint::black_box(rows.len());
    });

    println!("\n-- §VI: normalized keys (the interpreted engine's cure) --");
    let t_nk_pdq = time("normalized keys + pdqsort(memcmp)", || {
        let mut rows = NormRows::from_cols(&cols);
        normkey_sort(&mut rows, Algo::Pdq, &NoProbe);
        std::hint::black_box(rows.len());
    });
    let t_nk_radix = time("normalized keys + radix sort", || {
        let mut rows = NormRows::from_cols(&cols);
        normkey_radix(&mut rows, &NoProbe);
        std::hint::black_box(rows.len());
    });

    println!("\n-- the paper's narrative, in ratios --");
    println!(
        "rows beat columns:            row-static is {:.1}x faster than columnar tuple",
        t_col_tuple / t_row_static
    );
    println!(
        "interpretation overhead:      dynamic comparator is {:.1}x slower than static",
        t_row_dyn / t_row_static
    );
    println!(
        "normalized keys cure it:      normkey+pdq within {:.2}x of the compiled comparator",
        t_nk_pdq / t_row_static
    );
    println!(
        "radix goes further:           radix is {:.1}x faster than pdq(memcmp)",
        t_nk_pdq / t_nk_radix
    );
    println!(
        "(columnar subsort helped DSM: {:.2}x over columnar tuple; row subsort: {:.2}x over \
         dynamic rows)",
        t_col_tuple / t_col_sub,
        t_row_dyn / t_row_sub,
    );
}
