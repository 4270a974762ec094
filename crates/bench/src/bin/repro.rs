//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [all | table1 | fig2 | fig3 | table2 | fig4 | fig5 | table3 |
//!        fig6 | fig8 | fig9 | fig10 | fig12 | fig13 | fig14 | table4 |
//!        model | external]
//! ```
//!
//! Scale is controlled by environment variables; see `rowsort-bench`'s
//! crate docs (`ROWSORT_MAX_POW`, `ROWSORT_SIM_POW`, `ROWSORT_E2E_ROWS`,
//! `ROWSORT_SF_FRACTION`, `ROWSORT_THREADS`, `ROWSORT_REPS`).

use rowsort_bench::{counters, endtoend, info, micro, ExperimentResult, Scale};
use rowsort_core::strategy::Algo;

fn run_one(id: &str, scale: &Scale) -> Option<ExperimentResult> {
    Some(match id {
        "table1" => info::table_1(scale),
        "fig2" => micro::fig_2_3(scale, Algo::Introsort),
        "fig3" => micro::fig_2_3(scale, Algo::MergeSort),
        "table2" => counters::table_2(scale),
        "fig4" => micro::fig_4_5(scale, Algo::Introsort),
        "fig5" => micro::fig_4_5(scale, Algo::MergeSort),
        "table3" => counters::table_3(scale),
        "fig6" => micro::fig_6(scale),
        "fig8" => micro::fig_8(scale),
        "fig9" => micro::fig_9(scale),
        "fig10" => counters::fig_10(scale),
        "fig12" => endtoend::fig_12(scale),
        "fig13" => endtoend::fig_13(scale),
        "fig14" => endtoend::fig_14(scale),
        "external" => endtoend::external_degradation(scale),
        "table4" => info::table_4(scale),
        "model" => info::model_table(scale),
        _ => return None,
    })
}

const ALL: [&str; 17] = [
    "table1", "table4", "model", "fig2", "fig3", "table2", "fig4", "fig5", "table3", "fig6",
    "fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "external",
];

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    eprintln!("scale: {scale:?}");
    for id in targets {
        match run_one(id, &scale) {
            Some(result) => {
                println!("{}", result.render());
            }
            None => {
                eprintln!("unknown experiment '{id}'. known: {}", ALL.join(", "));
                std::process::exit(2);
            }
        }
    }
}
