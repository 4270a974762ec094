//! Cross-crate integration tests: the whole stack, exercised through the
//! facade crate's public API.

use rowsort::core::model;
use rowsort::core::pipeline::{SortOptions, SortPipeline};
use rowsort::core::systems::{sort_with_system, SystemProfile};
use rowsort::datagen::{key_chunk, tpcds, KeyDistribution};
use rowsort::prelude::*;
use std::cmp::Ordering;

fn assert_sorted(chunk: &DataChunk, order: &OrderBy) {
    let rows = chunk.to_rows();
    for w in rows.windows(2) {
        assert_ne!(
            order.compare_rows(&w[0], &w[1]),
            Ordering::Greater,
            "out of order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn pipeline_sorts_paper_microbenchmark_data() {
    for dist in KeyDistribution::SWEEP {
        let chunk = key_chunk(dist, 20_000, 4, 7);
        let order = OrderBy::ascending(4);
        let sorted = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 2,
                run_rows: 3000,
                ..SortOptions::default()
            },
        )
        .sort(&chunk);
        assert_eq!(sorted.len(), chunk.len(), "{}", dist.label());
        assert_sorted(&sorted, &order);
    }
}

#[test]
fn all_system_profiles_agree_on_tpcds_customer() {
    let cust = tpcds::customer(8_000, 11);
    let order = OrderBy::new(vec![
        OrderByColumn {
            column: 2, // c_last_name
            spec: SortSpec::ASC,
        },
        OrderByColumn {
            column: 1, // c_first_name
            spec: SortSpec::ASC,
        },
        OrderByColumn {
            column: 0, // c_customer_sk: unique tiebreak => deterministic
            spec: SortSpec::ASC,
        },
    ]);
    let reference = sort_with_system(SystemProfile::RowsortDb, &cust.data, &order, 1);
    for p in SystemProfile::ALL {
        let got = sort_with_system(p, &cust.data, &order, 2);
        assert_eq!(got.to_rows(), reference.to_rows(), "{}", p.label());
    }
}

#[test]
fn end_to_end_sql_through_every_layer() {
    let cs = tpcds::catalog_sales(5_000, 10.0, 3);
    let mut engine = Engine::new();
    engine.register_table(Table::new(
        cs.name.clone(),
        cs.columns.iter().map(|(n, _)| n.clone()).collect(),
        cs.data.clone(),
    ));
    // The paper's benchmark query.
    let count = engine
        .query(
            "SELECT count(*) FROM (SELECT cs_item_sk FROM catalog_sales \
             ORDER BY cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk, cs_quantity \
             OFFSET 1) t",
        )
        .unwrap();
    assert_eq!(count.row(0), vec![Value::Int64(4_999)]);

    // `ORDER BY … LIMIT` agrees with the full sort's head.
    let top = engine
        .query("SELECT cs_item_sk FROM catalog_sales ORDER BY cs_quantity, cs_item_sk LIMIT 5")
        .unwrap();
    let full = engine
        .query("SELECT cs_item_sk FROM catalog_sales ORDER BY cs_quantity, cs_item_sk")
        .unwrap();
    assert_eq!(top.to_rows(), full.to_rows()[..5].to_vec());
}

#[test]
fn normalized_keys_match_comparator_semantics_through_pipeline() {
    // DESC NULLS FIRST on floats (total order incl. NaN) through the whole
    // pipeline.
    let mut chunk = DataChunk::new(&[LogicalType::Float64, LogicalType::Int32]);
    let vals = [
        Value::Float64(1.5),
        Value::Null,
        Value::Float64(f64::NAN),
        Value::Float64(f64::NEG_INFINITY),
        Value::Float64(-0.0),
        Value::Float64(0.0),
    ];
    for (i, v) in vals.iter().enumerate() {
        chunk
            .push_row(&[v.clone(), Value::Int32(i as i32)])
            .unwrap();
    }
    let order = OrderBy::new(vec![OrderByColumn {
        column: 0,
        spec: SortSpec::new(SortOrder::Descending, NullOrder::NullsFirst),
    }]);
    let sorted =
        SortPipeline::new(chunk.types(), order.clone(), SortOptions::default()).sort(&chunk);
    assert_sorted(&sorted, &order);
    assert_eq!(sorted.row(0)[1], Value::Int32(1), "NULL first");
    assert_eq!(sorted.row(1)[1], Value::Int32(2), "NaN above +inf in DESC");
    assert_eq!(sorted.row(5)[1], Value::Int32(3), "-inf last");
}

#[test]
fn model_predicts_run_generation_dominance() {
    // The §II claim that motivates the whole pipeline design.
    assert!(model::run_generation_fraction(1 << 24, 16) > 0.75);
    assert!(model::run_generation_fraction(1 << 24, 4096) < 0.85);
}

#[test]
fn dsm_nsm_round_trip_through_facade() {
    use rowsort::row::{scatter, RowLayout};
    use std::sync::Arc;
    let cust = tpcds::customer(500, 4);
    let layout = Arc::new(RowLayout::new(&cust.data.types()));
    let block = scatter(&cust.data, layout);
    assert_eq!(block.to_chunk(), cust.data);
}
