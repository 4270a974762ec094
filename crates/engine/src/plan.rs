//! Logical plans, name resolution, and the optimizer.

use crate::catalog::Catalog;
use crate::sql::{CmpOp, FromClause, Literal, OrderItem, Query, SelectItem};
use crate::{EngineError, Result};
use rowsort_vector::{LogicalType, NullOrder, OrderBy, OrderByColumn, SortOrder, SortSpec, Value};

/// A WHERE conjunct with the column resolved and the literal coerced to
/// the column's type.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedPredicate {
    /// `col op literal`; NULL column values never satisfy a comparison.
    Compare {
        /// Column index in the input schema.
        column: usize,
        /// Operator.
        op: CmpOp,
        /// Coerced right-hand value (never NULL).
        value: Value,
    },
    /// `col IS [NOT] NULL`.
    IsNull {
        /// Column index in the input schema.
        column: usize,
        /// `IS NOT NULL` if true.
        negated: bool,
    },
}

/// A resolved logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Read a base table.
    Scan {
        /// Catalog table name.
        table: String,
    },
    /// Apply WHERE conjuncts.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The conjuncts.
        predicates: Vec<ResolvedPredicate>,
    },
    /// Fully sort the input.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Resolved ORDER BY.
        order: OrderBy,
    },
    /// Keep a subset of columns, in the given order.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Input-schema column indices to keep.
        columns: Vec<usize>,
    },
    /// Skip `offset` rows, then emit at most `limit` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows to emit (`None` = unbounded).
        limit: Option<u64>,
        /// Rows to skip first.
        offset: u64,
    },
    /// `COUNT(*)` over the input.
    CountStar {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// `a JOIN b ON a.x = b.y`, executed as a sort-merge join: both sides
    /// are sorted by their key, then merged with full-tuple key
    /// comparisons — the paper's §V-B example of why sorted data forces
    /// complete comparators.
    SortMergeJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join key column in the left schema.
        left_col: usize,
        /// Join key column in the right schema.
        right_col: usize,
        /// Output column names (collisions qualified as `table.column`).
        names: Vec<String>,
        /// Output column types.
        types: Vec<LogicalType>,
    },
    /// `row_number() OVER (ORDER BY …)`: sorts the input by the window
    /// order and appends a 1-based `row_number` BIGINT column.
    WindowRowNumber {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Window ordering.
        order: OrderBy,
    },
}

impl LogicalPlan {
    /// Output schema (column names and types) of this node.
    pub fn schema(&self, catalog: &Catalog) -> Result<(Vec<String>, Vec<LogicalType>)> {
        match self {
            LogicalPlan::Scan { table } => {
                let t = catalog
                    .get(table)
                    .ok_or_else(|| EngineError::UnknownTable(table.clone()))?;
                Ok((t.column_names.clone(), t.types()))
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(catalog),
            LogicalPlan::Project { input, columns } => {
                let (names, types) = input.schema(catalog)?;
                Ok((
                    columns.iter().map(|&c| names[c].clone()).collect(),
                    columns.iter().map(|&c| types[c]).collect(),
                ))
            }
            LogicalPlan::CountStar { .. } => {
                Ok((vec!["count".to_owned()], vec![LogicalType::Int64]))
            }
            LogicalPlan::SortMergeJoin { names, types, .. } => Ok((names.clone(), types.clone())),
            LogicalPlan::WindowRowNumber { input, .. } => {
                let (mut names, mut types) = input.schema(catalog)?;
                names.push("row_number".to_owned());
                types.push(LogicalType::Int64);
                Ok((names, types))
            }
        }
    }

    /// Render the plan as an indented tree (EXPLAIN-style).
    pub fn explain(&self) -> String {
        fn go(p: &LogicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match p {
                LogicalPlan::Scan { table } => {
                    out.push_str(&format!("{pad}Scan {table}\n"));
                }
                LogicalPlan::Filter { input, predicates } => {
                    out.push_str(&format!("{pad}Filter ({} conjuncts)\n", predicates.len()));
                    go(input, depth + 1, out);
                }
                LogicalPlan::Sort { input, order } => {
                    out.push_str(&format!("{pad}Sort ({} keys)\n", order.len()));
                    go(input, depth + 1, out);
                }
                LogicalPlan::Project { input, columns } => {
                    out.push_str(&format!("{pad}Project {columns:?}\n"));
                    go(input, depth + 1, out);
                }
                LogicalPlan::Limit {
                    input,
                    limit,
                    offset,
                } => {
                    out.push_str(&format!("{pad}Limit limit={limit:?} offset={offset}\n"));
                    go(input, depth + 1, out);
                }
                LogicalPlan::CountStar { input } => {
                    out.push_str(&format!("{pad}CountStar\n"));
                    go(input, depth + 1, out);
                }
                LogicalPlan::SortMergeJoin {
                    left,
                    right,
                    left_col,
                    right_col,
                    ..
                } => {
                    out.push_str(&format!(
                        "{pad}SortMergeJoin (left.{left_col} = right.{right_col})\n"
                    ));
                    go(left, depth + 1, out);
                    go(right, depth + 1, out);
                }
                LogicalPlan::WindowRowNumber { input, order } => {
                    out.push_str(&format!("{pad}WindowRowNumber ({} keys)\n", order.len()));
                    go(input, depth + 1, out);
                }
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

// ---------------------------------------------------------------------------
// Builder (name resolution)
// ---------------------------------------------------------------------------

/// Build a resolved plan from a parsed query.
pub fn build(query: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
    let (mut plan, names, types) = match &query.from {
        FromClause::Table(name) => {
            let t = catalog
                .get(name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            (
                LogicalPlan::Scan {
                    table: t.name.clone(),
                },
                t.column_names.clone(),
                t.types(),
            )
        }
        FromClause::Subquery(inner) => {
            let sub = build(inner, catalog)?;
            let (names, types) = sub.schema(catalog)?;
            (sub, names, types)
        }
        FromClause::Join {
            left,
            right,
            left_key,
            right_key,
        } => build_join(catalog, left, right, left_key, right_key)?,
    };

    // `row_number() OVER (ORDER BY ...)` extends the schema before the
    // outer ORDER BY / projection see it.
    let window_items: Vec<&Vec<OrderItem>> = query
        .select
        .iter()
        .filter_map(|s| match s {
            SelectItem::RowNumber(o) => Some(o),
            _ => None,
        })
        .collect();
    if window_items.len() > 1 {
        return Err(EngineError::Invalid(
            "at most one row_number() window is supported".into(),
        ));
    }
    let mut names = names;
    let mut types = types;
    if let Some(window_order) = window_items.first() {
        let resolve_base = |col: &str| -> Result<usize> {
            names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(col))
                .ok_or_else(|| EngineError::UnknownColumn(col.to_owned()))
        };
        let order = resolve_order(window_order, &resolve_base)?;
        plan = LogicalPlan::WindowRowNumber {
            input: Box::new(plan),
            order,
        };
        names.push("row_number".to_owned());
        types.push(LogicalType::Int64);
    }

    let resolve = |col: &str| -> Result<usize> {
        names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(col))
            .ok_or_else(|| EngineError::UnknownColumn(col.to_owned()))
    };

    if !query.predicates.is_empty() {
        let predicates = query
            .predicates
            .iter()
            .map(|p| resolve_predicate(p, &resolve, &types))
            .collect::<Result<Vec<_>>>()?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicates,
        };
    }

    if !query.order_by.is_empty() {
        let order = resolve_order(&query.order_by, &resolve)?;
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            order,
        };
    }

    // Projection sits above the sort: SQL lets ORDER BY reference columns
    // the SELECT list drops (the paper's catalog_sales query does exactly
    // that).
    let count_star = query.select.contains(&SelectItem::CountStar);
    if count_star {
        if query.select.len() != 1 {
            return Err(EngineError::Invalid(
                "count(*) cannot be mixed with other select items".into(),
            ));
        }
    } else if query.select.contains(&SelectItem::Star) {
        if query.select.len() > 1 {
            return Err(EngineError::Invalid(
                "`*` cannot be mixed with other select items".into(),
            ));
        }
    } else {
        let columns = query
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Column(c) => resolve(c),
                SelectItem::RowNumber(_) => Ok(names.len() - 1),
                _ => unreachable!(),
            })
            .collect::<Result<Vec<_>>>()?;
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            columns,
        };
    }

    if query.limit.is_some() || query.offset.is_some() {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit: query.limit,
            offset: query.offset.unwrap_or(0),
        };
    }

    if count_star {
        plan = LogicalPlan::CountStar {
            input: Box::new(plan),
        };
    }

    Ok(plan)
}

/// Resolve `a JOIN b ON x = y` into a SortMergeJoin plan node with a
/// collision-qualified output schema.
fn build_join(
    catalog: &Catalog,
    left: &str,
    right: &str,
    left_key: &crate::sql::ColumnRef,
    right_key: &crate::sql::ColumnRef,
) -> Result<(LogicalPlan, Vec<String>, Vec<LogicalType>)> {
    let lt = catalog
        .get(left)
        .ok_or_else(|| EngineError::UnknownTable(left.to_owned()))?;
    let rt = catalog
        .get(right)
        .ok_or_else(|| EngineError::UnknownTable(right.to_owned()))?;

    // A key reference binds to a side if its qualifier matches (or is
    // absent) and the column exists there.
    let find = |t: &crate::catalog::Table, key: &crate::sql::ColumnRef| -> Option<usize> {
        if let Some(q) = &key.table {
            if !q.eq_ignore_ascii_case(&t.name) {
                return None;
            }
        }
        t.column_index(&key.column)
    };
    let (left_col, right_col) = match (
        find(lt, left_key),
        find(rt, right_key),
        find(lt, right_key),
        find(rt, left_key),
    ) {
        (Some(l), Some(r), _, _) => (l, r),
        // The ON clause named the sides in the other order.
        (_, _, Some(l), Some(r)) => (l, r),
        _ => {
            return Err(EngineError::UnknownColumn(format!(
                "{}/{} in join condition",
                left_key.column, right_key.column
            )))
        }
    };

    // Output schema: left columns then right columns; names that appear on
    // both sides are qualified as `table.column`.
    let mut names = Vec::with_capacity(lt.column_names.len() + rt.column_names.len());
    for n in &lt.column_names {
        if rt.column_index(n).is_some() {
            names.push(format!("{}.{}", lt.name, n));
        } else {
            names.push(n.clone());
        }
    }
    for n in &rt.column_names {
        if lt.column_index(n).is_some() {
            names.push(format!("{}.{}", rt.name, n));
        } else {
            names.push(n.clone());
        }
    }
    let mut types = lt.types();
    types.extend(rt.types());

    let key_ty_l = lt.types()[left_col];
    let key_ty_r = rt.types()[right_col];
    if key_ty_l != key_ty_r {
        return Err(EngineError::Invalid(format!(
            "join key type mismatch: {key_ty_l} vs {key_ty_r}"
        )));
    }

    let plan = LogicalPlan::SortMergeJoin {
        left: Box::new(LogicalPlan::Scan {
            table: lt.name.clone(),
        }),
        right: Box::new(LogicalPlan::Scan {
            table: rt.name.clone(),
        }),
        left_col,
        right_col,
        names: names.clone(),
        types: types.clone(),
    };
    Ok((plan, names, types))
}

fn resolve_order(items: &[OrderItem], resolve: &impl Fn(&str) -> Result<usize>) -> Result<OrderBy> {
    let keys = items
        .iter()
        .map(|o| {
            let column = resolve(&o.column)?;
            let order = if o.desc {
                SortOrder::Descending
            } else {
                SortOrder::Ascending
            };
            // SQL default: NULLS LAST for ASC, NULLS FIRST for DESC
            // (matching DuckDB/Postgres behaviour).
            let nulls = match o.nulls_first {
                Some(true) => NullOrder::NullsFirst,
                Some(false) => NullOrder::NullsLast,
                None => {
                    if o.desc {
                        NullOrder::NullsFirst
                    } else {
                        NullOrder::NullsLast
                    }
                }
            };
            Ok(OrderByColumn {
                column,
                spec: SortSpec::new(order, nulls),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(OrderBy::new(keys))
}

fn resolve_predicate(
    p: &crate::sql::Predicate,
    resolve: &impl Fn(&str) -> Result<usize>,
    types: &[LogicalType],
) -> Result<ResolvedPredicate> {
    match p {
        crate::sql::Predicate::IsNull { column, negated } => Ok(ResolvedPredicate::IsNull {
            column: resolve(column)?,
            negated: *negated,
        }),
        crate::sql::Predicate::Compare {
            column,
            op,
            literal,
        } => {
            let idx = resolve(column)?;
            let ty = types[idx];
            let value = coerce(literal, ty).ok_or_else(|| {
                EngineError::Invalid(format!(
                    "cannot compare column '{column}' ({ty}) with {literal:?}"
                ))
            })?;
            Ok(ResolvedPredicate::Compare {
                column: idx,
                op: *op,
                value,
            })
        }
    }
}

fn coerce(literal: &Literal, ty: LogicalType) -> Option<Value> {
    Some(match (literal, ty) {
        (Literal::Int(v), LogicalType::Int8) => Value::Int8(i8::try_from(*v).ok()?),
        (Literal::Int(v), LogicalType::Int16) => Value::Int16(i16::try_from(*v).ok()?),
        (Literal::Int(v), LogicalType::Int32) => Value::Int32(i32::try_from(*v).ok()?),
        (Literal::Int(v), LogicalType::Int64) => Value::Int64(*v),
        (Literal::Int(v), LogicalType::UInt8) => Value::UInt8(u8::try_from(*v).ok()?),
        (Literal::Int(v), LogicalType::UInt16) => Value::UInt16(u16::try_from(*v).ok()?),
        (Literal::Int(v), LogicalType::UInt32) => Value::UInt32(u32::try_from(*v).ok()?),
        (Literal::Int(v), LogicalType::UInt64) => Value::UInt64(u64::try_from(*v).ok()?),
        (Literal::Int(v), LogicalType::Float32) => Value::Float32(*v as f32),
        (Literal::Int(v), LogicalType::Float64) => Value::Float64(*v as f64),
        (Literal::Int(v), LogicalType::Date) => Value::Date(i32::try_from(*v).ok()?),
        (Literal::Int(v), LogicalType::Timestamp) => Value::Timestamp(*v),
        (Literal::Float(v), LogicalType::Float32) => Value::Float32(*v as f32),
        (Literal::Float(v), LogicalType::Float64) => Value::Float64(*v),
        (Literal::Str(s), LogicalType::Varchar) => Value::Varchar(s.clone()),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

/// Apply the optimizer rule the paper's methodology section (§VII-A)
/// fights: **redundant-sort elimination**. A Sort feeding (transitively)
/// into an order-insensitive `COUNT(*)` with no Limit/Offset in between
/// does not affect the result and is removed. The paper's `OFFSET 1`
/// exists precisely to defeat this rule.
///
/// `ORDER BY … LIMIT` stays `Limit` over `Sort`: the one sorter, then a
/// slice.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    remove_pointless_sorts(plan, true)
}

fn remove_pointless_sorts(plan: LogicalPlan, order_matters: bool) -> LogicalPlan {
    match plan {
        LogicalPlan::CountStar { input } => LogicalPlan::CountStar {
            // Row count is order-insensitive.
            input: Box::new(remove_pointless_sorts(*input, false)),
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            // Limit/Offset select *which* rows: order below matters again.
            input: Box::new(remove_pointless_sorts(*input, true)),
            limit,
            offset,
        },
        LogicalPlan::Sort { input, order } => {
            if order_matters {
                LogicalPlan::Sort {
                    input: Box::new(remove_pointless_sorts(*input, order_matters)),
                    order,
                }
            } else {
                remove_pointless_sorts(*input, order_matters)
            }
        }
        LogicalPlan::Filter { input, predicates } => LogicalPlan::Filter {
            input: Box::new(remove_pointless_sorts(*input, order_matters)),
            predicates,
        },
        LogicalPlan::Project { input, columns } => LogicalPlan::Project {
            input: Box::new(remove_pointless_sorts(*input, order_matters)),
            columns,
        },
        LogicalPlan::SortMergeJoin {
            left,
            right,
            left_col,
            right_col,
            names,
            types,
        } => LogicalPlan::SortMergeJoin {
            // The join sorts both sides itself: any sort below is pointless.
            left: Box::new(remove_pointless_sorts(*left, false)),
            right: Box::new(remove_pointless_sorts(*right, false)),
            left_col,
            right_col,
            names,
            types,
        },
        LogicalPlan::WindowRowNumber { input, order } => LogicalPlan::WindowRowNumber {
            // The window sorts its input itself.
            input: Box::new(remove_pointless_sorts(*input, false)),
            order,
        },
        leaf @ LogicalPlan::Scan { .. } => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Table;
    use crate::sql::parse;
    use rowsort_vector::{DataChunk, Vector};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let data = DataChunk::from_columns(vec![
            Vector::from_i32s(vec![1, 2, 3]),
            Vector::from_strings(["a", "b", "c"]),
        ])
        .unwrap();
        c.register(Table::new("t", vec!["id".into(), "name".into()], data));
        c
    }

    fn plan_for(sql: &str) -> LogicalPlan {
        build(&parse(sql).unwrap(), &catalog()).unwrap()
    }

    fn has_sort(p: &LogicalPlan) -> bool {
        match p {
            LogicalPlan::Sort { .. } => true,
            LogicalPlan::Scan { .. } => false,
            LogicalPlan::SortMergeJoin { left, right, .. } => has_sort(left) || has_sort(right),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::WindowRowNumber { input, .. }
            | LogicalPlan::CountStar { input } => has_sort(input),
        }
    }

    #[test]
    fn unknown_names_error() {
        let c = catalog();
        assert!(matches!(
            build(&parse("SELECT * FROM nope").unwrap(), &c),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            build(&parse("SELECT zzz FROM t").unwrap(), &c),
            Err(EngineError::UnknownColumn(_))
        ));
        assert!(matches!(
            build(&parse("SELECT * FROM t ORDER BY zzz").unwrap(), &c),
            Err(EngineError::UnknownColumn(_))
        ));
    }

    #[test]
    fn order_by_non_projected_column() {
        // Sort below Project: ORDER BY name while selecting only id.
        let p = plan_for("SELECT id FROM t ORDER BY name");
        match &p {
            LogicalPlan::Project { input, columns } => {
                assert_eq!(columns, &vec![0]);
                assert!(matches!(**input, LogicalPlan::Sort { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn default_null_order_follows_direction() {
        let p = plan_for("SELECT * FROM t ORDER BY id DESC, name ASC");
        if let LogicalPlan::Sort { order, .. } = &p {
            assert_eq!(order.keys[0].spec.nulls, NullOrder::NullsFirst);
            assert_eq!(order.keys[1].spec.nulls, NullOrder::NullsLast);
        } else {
            panic!("expected sort, got {p:?}");
        }
    }

    #[test]
    fn optimizer_removes_sort_under_count() {
        let p = plan_for("SELECT count(*) FROM (SELECT id FROM t ORDER BY name) s");
        assert!(has_sort(&p), "unoptimized plan keeps the sort");
        let o = optimize(p);
        assert!(
            !has_sort(&o),
            "optimizer removes the pointless sort:\n{}",
            o.explain()
        );
    }

    #[test]
    fn offset_defeats_sort_elimination() {
        // The paper's trick: OFFSET 1 makes the sort semantically relevant.
        let p = plan_for("SELECT count(*) FROM (SELECT id FROM t ORDER BY name OFFSET 1) s");
        let o = optimize(p);
        assert!(
            has_sort(&o),
            "OFFSET keeps the sort alive:\n{}",
            o.explain()
        );
    }

    #[test]
    fn order_by_limit_stays_limit_over_sort() {
        // No Top-N operator: whatever the limit, `optimize` leaves the
        // plan `build` made, with the Project (when SELECT narrows the
        // columns) between the Limit and the Sort.
        for limit in [1, 100_000] {
            for (sql, projected) in [
                (format!("SELECT * FROM t ORDER BY id LIMIT {limit}"), false),
                (
                    format!("SELECT id FROM t ORDER BY name LIMIT {limit}"),
                    true,
                ),
            ] {
                let built = plan_for(&sql);
                let LogicalPlan::Limit { input, .. } = &built else {
                    panic!("{sql}: expected Limit, got {built:?}");
                };
                let sort = match (&**input, projected) {
                    (LogicalPlan::Project { input, .. }, true) => &**input,
                    (sort, false) => sort,
                    (other, _) => panic!("{sql}: expected Project, got {other:?}"),
                };
                assert!(matches!(sort, LogicalPlan::Sort { .. }), "{sql}");
                assert_eq!(optimize(built.clone()), built, "{sql}");
            }
        }
    }

    #[test]
    fn coercion_failures_are_invalid() {
        let c = catalog();
        assert!(matches!(
            build(&parse("SELECT * FROM t WHERE id = 'x'").unwrap(), &c),
            Err(EngineError::Invalid(_))
        ));
        assert!(matches!(
            build(&parse("SELECT * FROM t WHERE name < 3").unwrap(), &c),
            Err(EngineError::Invalid(_))
        ));
    }

    #[test]
    fn count_star_schema() {
        let c = catalog();
        let p = plan_for("SELECT count(*) FROM t");
        let (names, types) = p.schema(&c).unwrap();
        assert_eq!(names, vec!["count"]);
        assert_eq!(types, vec![LogicalType::Int64]);
    }

    #[test]
    fn count_star_mixed_is_invalid() {
        let c = catalog();
        assert!(matches!(
            build(&parse("SELECT count(*), id FROM t").unwrap(), &c),
            Err(EngineError::Invalid(_))
        ));
    }

    #[test]
    fn explain_renders_tree() {
        let p = plan_for("SELECT count(*) FROM (SELECT id FROM t ORDER BY name OFFSET 1) s");
        let text = optimize(p).explain();
        assert!(text.contains("CountStar"));
        assert!(text.contains("Sort"));
        assert!(text.contains("Scan t"));
    }
}
