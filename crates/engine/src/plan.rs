//! Sargable-predicate extraction and equi-join key detection: the
//! expression-shape half of planning.
//!
//! The paper's rule (§4.3) — *all predicate reads must go through an index
//! in the execute-order-in-parallel flow* — makes index selection a
//! correctness feature, not just a performance one: the chosen index range
//! doubles as the SSI predicate lock. This module recognises which
//! conjuncts can become index ranges (`sargable_conjunct`);
//! [`crate::planner::plan_scan`] is the one place that turns them into an
//! access path, for SELECT, UPDATE and DELETE alike.
//!
//! Everything here is a pure function of the statement, its parameters
//! and the catalog, so every replica extracts the same ranges.

use bcrdb_common::error::Result;
use bcrdb_common::schema::TableSchema;
use bcrdb_common::value::Value;
use bcrdb_sql::ast::{BinaryOp, Expr};
use bcrdb_storage::index::KeyRange;

use crate::expr::{eval, Env, RowSchema};
use crate::stats::TableStatsView;

/// Split an expression into its AND-conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(expr, &mut out);
    out
}

/// Is `e` a constant expression (literals/params only)? Those are safe to
/// evaluate at plan time.
pub(crate) fn is_const(e: &Expr) -> bool {
    let mut ok = true;
    e.walk(&mut |sub| {
        if matches!(sub, Expr::Column { .. }) {
            ok = false;
        }
        if let Expr::Function { name, .. } = sub {
            if bcrdb_sql::ast::is_aggregate_name(name) {
                ok = false;
            }
        }
    });
    ok
}

/// Evaluate a constant expression at plan time.
pub(crate) fn eval_const(e: &Expr, params: &[Value]) -> Result<Value> {
    let schema = RowSchema::default();
    let env = Env {
        schema: &schema,
        row: &[],
        params,
    };
    eval(e, &env)
}

/// Does a column expression refer to `alias` (or be unqualified) and name a
/// column of `schema`? Returns the ordinal.
fn column_of(e: &Expr, alias: &str, schema: &TableSchema) -> Option<usize> {
    if let Expr::Column { table, name } = e {
        if table.as_deref().is_none_or(|t| t == alias) {
            return schema.column_index(name);
        }
    }
    None
}

/// Rank an access path shape (stats-free structural fallback): lower is
/// better.
pub(crate) fn rank(range: &KeyRange) -> u8 {
    use std::ops::Bound;
    match (&range.low, &range.high) {
        (Bound::Included(l), Bound::Included(h)) if l == h => 0, // equality
        (Bound::Unbounded, Bound::Unbounded) => 3,
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => 2, // half-open
        _ => 1,                                             // bounded range
    }
}

/// Extract the sargable shape of one conjunct: `col op const`,
/// `const op col` or `col BETWEEN const AND const` over a column of
/// `schema` that has an index. Returns the column ordinal and key range.
pub(crate) fn sargable_conjunct(
    c: &Expr,
    alias: &str,
    schema: &TableSchema,
    params: &[Value],
) -> Result<Option<(usize, KeyRange)>> {
    match c {
        Expr::Binary { op, left, right } => {
            let (col, constant, op_oriented) = if let Some(col) = column_of(left, alias, schema) {
                if !is_const(right) {
                    return Ok(None);
                }
                (col, eval_const(right, params)?, *op)
            } else if let Some(col) = column_of(right, alias, schema) {
                if !is_const(left) {
                    return Ok(None);
                }
                // Flip the operator: const op col ≡ col flipped-op const.
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => *other,
                };
                (col, eval_const(left, params)?, flipped)
            } else {
                return Ok(None);
            };
            if constant.is_null() {
                return Ok(None); // NULL comparisons never match
            }
            let range = match op_oriented {
                BinaryOp::Eq => KeyRange::eq(constant),
                BinaryOp::Lt => KeyRange::less(constant, false),
                BinaryOp::LtEq => KeyRange::less(constant, true),
                BinaryOp::Gt => KeyRange::greater(constant, false),
                BinaryOp::GtEq => KeyRange::greater(constant, true),
                _ => return Ok(None),
            };
            if schema.index_on(col).is_none() {
                return Ok(None);
            }
            Ok(Some((col, range)))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let Some(col) = column_of(expr, alias, schema) else {
                return Ok(None);
            };
            if schema.index_on(col).is_none() || !is_const(low) || !is_const(high) {
                return Ok(None);
            }
            let lo = eval_const(low, params)?;
            let hi = eval_const(high, params)?;
            if lo.is_null() || hi.is_null() {
                return Ok(None);
            }
            Ok(Some((col, KeyRange::between(lo, hi))))
        }
        _ => Ok(None),
    }
}

/// Detect an equi-join `left_expr = right_table.col` inside an ON
/// condition. Returns (expression over the left side, right column
/// ordinal) if found. Extra conjuncts are evaluated as residual filters by
/// the executor.
///
/// Candidates are ranked by the right table's statistics: indexed
/// columns first (they enable the index-nested-loop join), then the
/// highest distinct count (each probe matches the fewest rows), then the
/// lowest column ordinal. A single-column primary key counts as fully
/// distinct even before any summary is sealed.
pub fn equi_join_key(
    on: &Expr,
    left_schema: &RowSchema,
    right_alias: &str,
    right_schema: &TableSchema,
    right_stats: &TableStatsView,
) -> Option<(Expr, usize)> {
    let mut candidates: Vec<(Expr, usize)> = Vec::new();
    for c in conjuncts(on) {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = c
        {
            // One side must be a genuine expression over the left relation
            // (pure literals are filters, not join keys), the other a
            // column of the right table.
            let left_in_left = resolves_in(left, left_schema) && has_column(left);
            if let (true, Some(col)) = (left_in_left, column_of(right, right_alias, right_schema)) {
                candidates.push(((**left).clone(), col));
                continue;
            }
            let right_in_left = resolves_in(right, left_schema) && has_column(right);
            if let (true, Some(col)) = (right_in_left, column_of(left, right_alias, right_schema)) {
                candidates.push(((**right).clone(), col));
            }
        }
    }
    // (indexed, distinct) score: bigger is better; ordinal breaks ties.
    let score = |col: usize| -> (bool, u64) {
        let indexed = right_schema.index_on(col).is_some();
        let distinct = if right_stats.is_unique(col) {
            u64::MAX
        } else {
            right_stats.column(col).map(|c| c.distinct).unwrap_or(0)
        };
        (indexed, distinct)
    };
    candidates
        .iter()
        .enumerate()
        .max_by(|(ia, (_, a)), (ib, (_, b))| {
            score(*a)
                .cmp(&score(*b))
                // Lower ordinal (then earlier conjunct) wins ties.
                .then_with(|| b.cmp(a))
                .then_with(|| ib.cmp(ia))
        })
        .map(|(_, c)| c.clone())
}

/// Does every column reference in `e` resolve in `schema`?
fn resolves_in(e: &Expr, schema: &RowSchema) -> bool {
    let mut ok = true;
    e.walk(&mut |sub| {
        if let Expr::Column { table, name } = sub {
            if schema.resolve(table.as_deref(), name).is_err() {
                ok = false;
            }
        }
    });
    ok
}

/// Does `e` contain at least one column reference?
fn has_column(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |sub| {
        if matches!(sub, Expr::Column { .. }) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_common::schema::{Column, DataType};
    use bcrdb_sql::parse_expression;

    use crate::planner::{plan_scan, ScanPlan};

    fn schema() -> TableSchema {
        let mut s = TableSchema::new(
            "inv",
            vec![
                Column::new("id", DataType::Int),
                Column::new("supplier", DataType::Text),
                Column::new("amount", DataType::Float),
            ],
            vec![0],
        )
        .unwrap();
        s.add_index("idx_supplier", "supplier").unwrap();
        s
    }

    /// The access path a write takes (`require_index`, as UPDATE/DELETE
    /// plan): the single `(column, range)` part, or `None` for a full
    /// scan.
    fn path_as(pred: &str, alias: &str, params: &[Value]) -> Option<(usize, KeyRange)> {
        let e = parse_expression(pred).unwrap();
        let s = schema();
        let stats = TableStatsView::empty(&s);
        match plan_scan(&s, alias, Some(&e), params, &stats, None, true)
            .unwrap()
            .plan
        {
            ScanPlan::Full => None,
            ScanPlan::Intersect(mut parts) if parts.len() == 1 => parts.pop(),
            other => panic!("expected a single-index or full scan, got {other:?}"),
        }
    }

    fn path(pred: &str, params: &[Value]) -> Option<(usize, KeyRange)> {
        path_as(pred, "inv", params)
    }

    #[test]
    fn equality_on_pk() {
        assert_eq!(path("id = 5", &[]), Some((0, KeyRange::eq(Value::Int(5)))));
    }

    #[test]
    fn param_and_flipped_comparisons() {
        let (_, range) = path("$1 = id", &[Value::Int(7)]).unwrap();
        assert_eq!(range, KeyRange::eq(Value::Int(7)));
        let (_, range) = path("10 > id", &[]).unwrap();
        assert_eq!(range, KeyRange::less(Value::Int(10), false));
    }

    #[test]
    fn between_and_range() {
        let (_, range) = path("id BETWEEN 2 AND 9", &[]).unwrap();
        assert_eq!(range, KeyRange::between(Value::Int(2), Value::Int(9)));
        assert_eq!(
            path("id >= 3 AND amount > 0", &[]),
            Some((0, KeyRange::greater(Value::Int(3), true)))
        );
    }

    #[test]
    fn equality_preferred_over_range() {
        // Documented tie-break: lowest estimated cost, then lowest column
        // ordinal. An equality estimates fewer rows than a half-open
        // range, so it costs less regardless of which conjunct came
        // first…
        let (column, _) = path("supplier = 'acme' AND id > 3", &[]).unwrap();
        assert_eq!(column, 1, "equality on secondary index beats pk range");
        // …and among equalities the unique pk estimates fewest rows.
        let (column, _) = path("id = 4 AND supplier = 'acme'", &[]).unwrap();
        assert_eq!(column, 0);
    }

    #[test]
    fn unindexed_or_unusable_predicates() {
        assert!(path("amount > 5.0", &[]).is_none(), "no index on amount");
        assert!(path("id + 1 = 5", &[]).is_none(), "not col-op-const shape");
        assert!(path("id = amount", &[]).is_none(), "both sides columns");
        assert!(path("id = NULL", &[]).is_none(), "null constant");
    }

    #[test]
    fn qualified_references_respect_alias() {
        assert!(path_as("other.id = 5", "inv", &[]).is_none());
        assert!(path_as("inv.id = 5", "inv", &[]).is_some());
    }

    #[test]
    fn equi_join_detection() {
        let left = RowSchema::new(vec![(Some("i".into()), "part_id".into())]);
        let right = schema();
        let stats = TableStatsView::empty(&right);
        let on = parse_expression("i.part_id = inv.id").unwrap();
        let (key_expr, col) = equi_join_key(&on, &left, "inv", &right, &stats).unwrap();
        assert_eq!(col, 0);
        assert_eq!(key_expr, Expr::qualified("i", "part_id"));
        // Reversed orientation.
        let on = parse_expression("inv.id = i.part_id").unwrap();
        let (_, col) = equi_join_key(&on, &left, "inv", &right, &stats).unwrap();
        assert_eq!(col, 0);
        // Non-equi: none.
        let on = parse_expression("i.part_id < inv.id").unwrap();
        assert!(equi_join_key(&on, &left, "inv", &right, &stats).is_none());
    }

    #[test]
    fn equi_join_ranks_by_distinct_count() {
        let left = RowSchema::new(vec![
            (Some("l".into()), "a".into()),
            (Some("l".into()), "b".into()),
        ]);
        let right = schema();
        let stats = TableStatsView::empty(&right);
        // Both right columns are indexed; the unique pk (id) outranks the
        // secondary index even though the supplier conjunct comes first.
        let on = parse_expression("l.a = inv.supplier AND l.b = inv.id").unwrap();
        let (key_expr, col) = equi_join_key(&on, &left, "inv", &right, &stats).unwrap();
        assert_eq!(col, 0);
        assert_eq!(key_expr, Expr::qualified("l", "b"));
    }
}
