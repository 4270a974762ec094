//! The differential oracle as properties (DESIGN.md §8): every case comes
//! from `oracle::CaseGen`, every failure shrinks under `testkit::prop`'s
//! runner and prints `TESTKIT_SEED=<seed> cargo test <name>`. Check 1 runs
//! once per entry point, so a bug in what they share fails each of them.

use rowsort_bench::oracle::{self, CaseGen, Entry};
use rowsort_core::{KeyBlock, SystemProfile};
use rowsort_testkit::{prop, prop_assert};

const CLEAN: CaseGen = CaseGen { faults: false };
const FAULTY: CaseGen = CaseGen { faults: true };

prop! {
    #![cases(128)]

    fn pipeline_matches_reference(case in CLEAN) {
        oracle::check_reference(&case, &[Entry::Pipeline, Entry::PipelineRows])?;
    }

    fn external_matches_reference(case in CLEAN) {
        oracle::check_reference(&case, &[Entry::External])?;
    }

    fn engine_matches_reference_under_every_profile(case in CLEAN) {
        oracle::check_reference(&case, &SystemProfile::ALL.map(Entry::Engine))?;
    }

    fn engine_spill_matches_reference(case in CLEAN) {
        oracle::check_reference(&case, &[Entry::EngineSpill])?;
    }

    fn output_is_bit_identical_within_an_entry_point(case in CLEAN) {
        oracle::check_bit_identity(&case)?;
    }

    fn faults_are_survived_or_typed_and_leak_nothing(case in FAULTY) {
        let report = oracle::check_faults(&case);
        prop_assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    fn key_bytes_order_rows_the_way_compare_rows_does(case in CLEAN) {
        oracle::check_key_order(&case)?;
    }

    fn every_sorter_plans_the_same_key_for_one_input(case in CLEAN) {
        oracle::check_plan_is_input_wide(&case)?;
    }

    fn vectors_merged_into_equal_the_row_twins_converted(case in CLEAN) {
        oracle::check_sinks_agree(&case)?;
    }
}

#[test]
fn named_inputs_pass_every_check() {
    let mut entries = vec![Entry::Pipeline, Entry::PipelineRows, Entry::External];
    entries.extend(SystemProfile::ALL.map(Entry::Engine));
    entries.push(Entry::EngineSpill);
    for (name, case) in oracle::named_cases() {
        let checked = oracle::check_reference(&case, &entries)
            .and_then(|()| oracle::check_bit_identity(&case))
            .and_then(|()| oracle::check_key_order(&case))
            .and_then(|()| oracle::check_plan_is_input_wide(&case))
            .and_then(|()| oracle::check_sinks_agree(&case));
        assert_eq!(checked, Ok(()), "{name}");
        let violations = oracle::check_faults(&case).violations;
        assert!(violations.is_empty(), "{name}: {violations:#?}");
    }
}

/// Heap bytes that are not UTF-8 reach the NSM → DSM kernel only through
/// `RowBlock::from_raw_parts`, never through a sort: held to the same
/// answer whole, reordered and in pieces.
#[test]
fn a_raw_block_with_invalid_utf8_reads_lossily_string_by_string() {
    assert_eq!(oracle::check_lossy_block(), Ok(()));
}

/// Where the planner's sample finds no two strings that 12 bytes tie, it
/// plans the paper's 12-byte layout byte for byte, and the sort does the
/// work it did under that rule: the keys are `KeyBlock::new`'s.
#[test]
fn no_collision_in_the_sample_plans_the_twelve_byte_layout() {
    let case = oracle::no_twelve_byte_collision();
    let chunk = case.chunk();
    let longest = |c: usize| chunk.column(c).as_strings().map_or(0, |s| s.max_len());
    let mut paper = KeyBlock::new(&case.types, &case.order, longest);
    let mut planned = KeyBlock::planned(&chunk, &case.order);
    assert_eq!(planned.layout(), paper.layout());
    assert!(planned.tie_possible(), "the strings outgrow the prefix");
    paper.append_chunk(&chunk);
    planned.append_chunk(&chunk);
    for i in 0..chunk.len() {
        assert_eq!(planned.key(i), paper.key(i), "row {i}");
    }
}

/// A VARCHAR payload must not send an integer key's ties to the full-tuple
/// comparator: the same comparison count with and without the column, in
/// both sorters, coded and not.
#[test]
fn varchar_payload_does_not_change_an_integer_keyed_merge() {
    let [with_payload, bare] = oracle::int_key_with_and_without_payload();
    for ovc in [false, true] {
        let with = oracle::sorter_counters(&with_payload, 150, 1, ovc);
        assert_eq!(
            with,
            oracle::sorter_counters(&bare, 150, 1, ovc),
            "ovc={ovc}"
        );
        assert!(with[0][2] > 0, "no merge ran");
    }
}
