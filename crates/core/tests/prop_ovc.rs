//! Differential property tests for offset-value coding (DESIGN.md §10):
//! OVC is a pure optimization, so enabling it must change *nothing*
//! observable — the pipeline's output bytes are bit-identical for every
//! key type × NULL order × direction × thread count, and the external
//! sorter's output rows are identical for every spill budget.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_testkit::{prop, prop_assert_eq};
use rowsort_vector::DataChunk;

mod common;
use common::{case_gen, Case};

fn make_pipeline(case: &Case, threads: usize, run_rows: usize, ovc: bool) -> SortPipeline {
    SortPipeline::new(
        case.chunk.types(),
        case.order.clone(),
        SortOptions {
            threads,
            run_rows,
            ovc,
        },
    )
}

prop! {
    #![cases(64)]

    // The tentpole correctness pin: for arbitrary schemas, directions,
    // NULL orders, thread counts, and run sizes, the OVC merge emits the
    // exact bytes the plain merge does.
    fn pipeline_ovc_on_off_bit_identical(case in case_gen(), run_rows in 1usize..64, threads in 1usize..4) {
        let plain_pipeline = make_pipeline(&case, threads, run_rows, false);
        let coded_pipeline = make_pipeline(&case, threads, run_rows, true);
        let plain = plain_pipeline.sort_rows(&case.chunk);
        let coded = coded_pipeline.sort_rows(&case.chunk);
        match (coded.payload(), plain.payload()) {
            (None, None) => {}
            (Some(c), Some(p)) => {
                prop_assert_eq!(c.data(), p.data(), "payload rows differ with OVC on");
                prop_assert_eq!(c.heap(), p.heap(), "heap bytes differ with OVC on");
            }
            _ => prop_assert_eq!(coded.len(), plain.len()),
        }
    }

    // The spilled OVC column and the OVC-aware loser tree must likewise
    // be invisible in the external sorter's output, at every spill
    // budget (many small runs through a single in-memory run).
    fn external_ovc_on_off_identical(case in case_gen(), budget in 1usize..200) {
        let sort = |ovc: bool| -> DataChunk {
            ExternalSorter::new(
                case.chunk.types(),
                case.order.clone(),
                ExternalSortOptions {
                    memory_limit_rows: budget,
                    ovc,
                    ..Default::default()
                },
            )
            .sort(&case.chunk)
            .expect("external sort succeeds")
        };
        let plain = sort(false);
        let coded = sort(true);
        prop_assert_eq!(coded.to_rows(), plain.to_rows(), "budget {}", budget);
    }
}
