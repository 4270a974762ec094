//! Property tests: the sort pipeline and every system profile produce a
//! correctly ordered permutation of arbitrary typed inputs.

use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_core::systems::{sort_with_system, SystemProfile};
use rowsort_testkit::prop::PropResult;
use rowsort_testkit::{prop, prop_assert_eq, prop_assert_ne};
use rowsort_vector::{DataChunk, Value};
use std::cmp::Ordering;

mod common;
use common::{case_gen, Case};

fn float_safe(v: &Value) -> String {
    // NaN != NaN under PartialEq; compare via debug of bits for floats.
    match v {
        Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn check_sorted_permutation(got: &DataChunk, case: &Case) -> PropResult {
    let got_rows = got.to_rows();
    prop_assert_eq!(got_rows.len(), case.chunk.len());
    for w in got_rows.windows(2) {
        prop_assert_ne!(
            case.order.compare_rows(&w[0], &w[1]),
            Ordering::Greater,
            "out of order: {:?} then {:?}",
            &w[0],
            &w[1]
        );
    }
    let canon = |rows: Vec<Vec<Value>>| {
        let mut v: Vec<String> = rows
            .iter()
            .map(|r| r.iter().map(float_safe).collect::<Vec<_>>().join("|"))
            .collect();
        v.sort();
        v
    };
    prop_assert_eq!(canon(got_rows), canon(case.chunk.to_rows()));
    Ok(())
}

prop! {
    #![cases(64)]

    fn pipeline_sorts_arbitrary_input(case in case_gen(), run_rows in 1usize..64, threads in 1usize..4) {
        let pipeline = SortPipeline::new(
            case.chunk.types(),
            case.order.clone(),
            SortOptions { threads, run_rows, ..SortOptions::default() },
        );
        let got = pipeline.sort(&case.chunk);
        check_sorted_permutation(&got, &case)?;
    }

    fn system_profiles_sort_arbitrary_input(case in case_gen()) {
        for p in SystemProfile::ALL {
            let got = sort_with_system(p, &case.chunk, &case.order, 2);
            check_sorted_permutation(&got, &case)?;
        }
    }

    // Pool recycling must be invisible: sorting through a warmed-up
    // pipeline (second sort reuses pooled buffers) yields the same row
    // bytes as a fresh pipeline's first sort.
    fn pooled_buffers_do_not_change_output(case in case_gen(), run_rows in 1usize..64, threads in 1usize..4) {
        let options = SortOptions { threads, run_rows, ..SortOptions::default() };
        let warmed = SortPipeline::new(case.chunk.types(), case.order.clone(), options);
        drop(warmed.sort_rows(&case.chunk)); // populate the pool
        let pooled = warmed.sort_rows(&case.chunk);

        let fresh_pipeline = SortPipeline::new(case.chunk.types(), case.order.clone(), options);
        let fresh = fresh_pipeline.sort_rows(&case.chunk);

        match (pooled.payload(), fresh.payload()) {
            (None, None) => {}
            (Some(p), Some(f)) => {
                prop_assert_eq!(p.data(), f.data(), "payload rows differ after pooling");
                prop_assert_eq!(p.heap(), f.heap(), "heap bytes differ after pooling");
            }
            _ => prop_assert_eq!(pooled.len(), fresh.len()),
        }
    }

    // Determinism across parallelism: morsel-indexed run slots make the
    // output — including tie order — bit-identical for any thread count.
    fn output_identical_for_any_thread_count(case in case_gen(), run_rows in 1usize..64) {
        let reference_pipeline = SortPipeline::new(
            case.chunk.types(),
            case.order.clone(),
            SortOptions { threads: 1, run_rows, ..SortOptions::default() },
        );
        let reference = reference_pipeline.sort_rows(&case.chunk);
        for threads in [2usize, 4] {
            let pipeline = SortPipeline::new(
                case.chunk.types(),
                case.order.clone(),
                SortOptions { threads, run_rows, ..SortOptions::default() },
            );
            let got = pipeline.sort_rows(&case.chunk);
            match (got.payload(), reference.payload()) {
                (None, None) => {}
                (Some(g), Some(r)) => {
                    prop_assert_eq!(g.data(), r.data(), "rows differ at threads={}", threads);
                    prop_assert_eq!(g.heap(), r.heap(), "heap differs at threads={}", threads);
                }
                _ => prop_assert_eq!(got.len(), reference.len()),
            }
        }
    }
}
