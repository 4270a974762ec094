//! A deliberately naive reference executor used as test-suite ground truth.
//!
//! It runs the same logical plans over boxed [`Value`] rows with obvious
//! row-at-a-time code and a stable comparison sort. Anything the vectorized
//! executor produces must match this (up to ordering within ties).

use crate::catalog::Catalog;
use crate::plan::{LogicalPlan, ResolvedPredicate};
use crate::sql::CmpOp;
use crate::{EngineError, Result};
use rowsort_vector::Value;
use std::cmp::Ordering;

/// Execute `plan` row-at-a-time, returning boxed rows.
pub fn execute_reference(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<Vec<Value>>> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog
                .get(table)
                .ok_or_else(|| EngineError::UnknownTable(table.clone()))?;
            Ok(t.data.to_rows())
        }
        LogicalPlan::Filter { input, predicates } => {
            let rows = execute_reference(input, catalog)?;
            Ok(rows
                .into_iter()
                .filter(|r| predicates.iter().all(|p| matches(r, p)))
                .collect())
        }
        LogicalPlan::Project { input, columns } => {
            let rows = execute_reference(input, catalog)?;
            Ok(rows
                .into_iter()
                .map(|r| columns.iter().map(|&c| r[c].clone()).collect())
                .collect())
        }
        LogicalPlan::Sort { input, order } => {
            let mut rows = execute_reference(input, catalog)?;
            rows.sort_by(|a, b| order.compare_rows(a, b));
            Ok(rows)
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let rows = execute_reference(input, catalog)?;
            let it = rows.into_iter().skip(*offset as usize);
            Ok(match limit {
                Some(l) => it.take(*l as usize).collect(),
                None => it.collect(),
            })
        }
        LogicalPlan::CountStar { input } => {
            let rows = execute_reference(input, catalog)?;
            Ok(vec![vec![Value::Int64(rows.len() as i64)]])
        }
        LogicalPlan::SortMergeJoin {
            left,
            right,
            left_col,
            right_col,
            ..
        } => {
            // Ground truth: a nested-loop join.
            let l = execute_reference(left, catalog)?;
            let r = execute_reference(right, catalog)?;
            let mut out = Vec::new();
            for lr in &l {
                if lr[*left_col].is_null() {
                    continue;
                }
                for rr in &r {
                    if rr[*right_col].is_null() {
                        continue;
                    }
                    if lr[*left_col].compare_non_null(&rr[*right_col]) == Ordering::Equal {
                        let mut row = lr.clone();
                        row.extend(rr.iter().cloned());
                        out.push(row);
                    }
                }
            }
            Ok(out)
        }
        LogicalPlan::WindowRowNumber { input, order } => {
            let mut rows = execute_reference(input, catalog)?;
            rows.sort_by(|a, b| order.compare_rows(a, b));
            Ok(rows
                .into_iter()
                .enumerate()
                .map(|(i, mut row)| {
                    row.push(Value::Int64(i as i64 + 1));
                    row
                })
                .collect())
        }
    }
}

fn matches(row: &[Value], p: &ResolvedPredicate) -> bool {
    match p {
        ResolvedPredicate::IsNull { column, negated } => row[*column].is_null() != *negated,
        ResolvedPredicate::Compare { column, op, value } => {
            let v = &row[*column];
            if v.is_null() {
                return false;
            }
            let ord = v.compare_non_null(value);
            match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            }
        }
    }
}
