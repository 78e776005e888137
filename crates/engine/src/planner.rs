//! The cost-based plan enumerator — the one planner for reads and writes.
//!
//! [`plan_scan`] enumerates the access paths one table scan could take —
//! full scan, single index scan, multi-index intersection of
//! AND-conjuncts, multi-index union of OR-disjuncts — costs each with
//! the [`crate::cost`] model over the snapshot-pinned statistics, and
//! picks the cheapest. A SELECT's base table and the target rows of an
//! UPDATE or DELETE are planned here alike, and the chosen [`ScanPlan`]
//! is exactly what [`bcrdb_txn::context::TxnCtx::scan`] executes. Ties
//! break structurally (fewest index parts, then lowest column ordinal)
//! so the choice is a pure function of the catalog and the sealed
//! statistics: every replica derives the same plan, which matters
//! because the plan's index ranges double as the SSI predicate locks
//! (§4.3).
//!
//! Covering is not a plan shape: when the statement consumes only the
//! column a single-index plan scans, [`ScanChoice::covering`] tells the
//! executor to project that column instead of copying rows.
//!
//! Join strategy (index-nested-loop vs. hash vs. sort-merge) is chosen
//! the same way, with the strict execute-order flow pinned to
//! index-nested-loop — the only strategy whose reads are all precise
//! index probes.

use std::ops::Bound;

use bcrdb_common::error::Result;
use bcrdb_common::schema::TableSchema;
use bcrdb_common::value::Value;
use bcrdb_sql::ast::{BinaryOp, Expr};
use bcrdb_storage::index::KeyRange;
pub use bcrdb_txn::context::ScanPlan;

use crate::cost;
use crate::plan::{conjuncts, eval_const, is_const, rank, sargable_conjunct};
use crate::stats::TableStatsView;

/// A costed plan choice.
#[derive(Clone, Debug)]
pub struct ScanChoice {
    /// The chosen access path, as [`bcrdb_txn::context::TxnCtx::scan`]
    /// executes it.
    pub plan: ScanPlan,
    /// The one column the statement consumes, when the plan is a single
    /// index scan on exactly that column: the executor projects it and
    /// never copies the rest of the row.
    pub covering: Option<usize>,
    /// Estimated rows the scan operator emits (before residual filters).
    pub est_rows: f64,
    /// Estimated cost in the model's row-visit units.
    pub cost: f64,
}

impl ScanChoice {
    fn full(rows: f64) -> ScanChoice {
        ScanChoice {
            plan: ScanPlan::Full,
            covering: None,
            est_rows: rows,
            cost: cost::full_scan_cost(rows),
        }
    }

    /// Structural tie-break key: fewest index parts, then lowest first
    /// column ordinal, then plan-kind order (intersect < union < full) —
    /// all catalog-derived, nothing positional.
    fn tie_key(&self) -> (usize, usize, u8) {
        match &self.plan {
            ScanPlan::Intersect(parts) => (parts.len(), parts[0].0, 0),
            ScanPlan::Union(parts) => (parts.len(), parts[0].0, 1),
            ScanPlan::Full => (usize::MAX, usize::MAX, 2),
        }
    }
}

/// Plan one table scan — a SELECT's base table or the targets of an
/// UPDATE/DELETE. `covering` names the only column the query consumes,
/// when there is exactly one — a single-index plan on that column then
/// copies just the key. With `require_index` a full scan is only chosen
/// when no index path exists at all: the strict execute-order flow sets
/// it because the scan layer rejects full scans there (§4.3), and writes
/// set it in every flow so the predicate lock they take is an index
/// range, never the whole table.
pub fn plan_scan(
    schema: &TableSchema,
    alias: &str,
    predicate: Option<&Expr>,
    params: &[Value],
    stats: &TableStatsView,
    covering: Option<usize>,
    require_index: bool,
) -> Result<ScanChoice> {
    let rows = cost::table_rows(stats);
    let mut candidates = vec![ScanChoice::full(rows)];

    let Some(pred) = predicate else {
        return Ok(candidates.pop().expect("full-scan candidate"));
    };

    // Sargable AND-conjuncts over indexed columns.
    let mut sargs: Vec<(usize, KeyRange, f64)> = Vec::new(); // (col, range, selectivity)
    for c in conjuncts(pred) {
        if let Some((col, range)) = sargable_conjunct(c, alias, schema, params)? {
            let sel = cost::selectivity(stats, col, &range);
            sargs.push((col, range, sel));
        }
    }

    // Single-index candidates.
    for (col, range, sel) in &sargs {
        let est = rows * sel;
        let cov = covering.filter(|c| c == col);
        candidates.push(ScanChoice {
            plan: ScanPlan::index(*col, range.clone()),
            covering: cov,
            est_rows: est,
            cost: cost::index_scan_cost(est, cov.is_some()),
        });
    }

    // Intersection: the most selective sarg per column, every column.
    let mut per_col: Vec<(usize, KeyRange, f64)> = Vec::new();
    for (col, range, sel) in &sargs {
        match per_col.iter_mut().find(|(c, _, _)| c == col) {
            Some(slot) if *sel < slot.2 => {
                slot.1 = range.clone();
                slot.2 = *sel;
            }
            Some(_) => {}
            None => per_col.push((*col, range.clone(), *sel)),
        }
    }
    per_col.sort_by_key(|(c, _, _)| *c);
    if per_col.len() >= 2 {
        let part_ests: Vec<f64> = per_col.iter().map(|(_, _, s)| rows * s).collect();
        let out_est = rows * per_col.iter().map(|(_, _, s)| s).product::<f64>();
        candidates.push(ScanChoice {
            plan: ScanPlan::Intersect(per_col.iter().map(|(c, r, _)| (*c, r.clone())).collect()),
            covering: None,
            est_rows: out_est,
            cost: cost::intersect_cost(&part_ests, out_est),
        });
    }

    // Union: any conjunct whose disjuncts (or IN list) are all sargable
    // covers a superset of the predicate's rows — the residual WHERE
    // filter re-applies the full predicate afterwards.
    for c in conjuncts(pred) {
        if let Some(parts) = union_parts(c, alias, schema, params)? {
            let ests: Vec<f64> = parts
                .iter()
                .map(|(col, r)| rows * cost::selectivity(stats, *col, r))
                .collect();
            let est = ests.iter().sum::<f64>().min(rows);
            candidates.push(ScanChoice {
                plan: ScanPlan::Union(parts),
                covering: None,
                est_rows: est,
                cost: cost::union_cost(&ests),
            });
        }
    }

    if require_index && candidates.len() > 1 {
        candidates.retain(|c| c.plan != ScanPlan::Full);
    }

    candidates.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then_with(|| a.tie_key().cmp(&b.tie_key()))
    });
    Ok(candidates.into_iter().next().expect("nonempty candidates"))
}

/// Split an expression into its OR-disjuncts.
fn disjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinaryOp::Or,
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

/// Index-union parts for one conjunct, if every one of its OR-disjuncts
/// (including IN-list members) is sargable over an indexed column.
/// Returns `None` when any disjunct would need a full scan, or when the
/// "union" would degenerate to fewer than two parts.
fn union_parts(
    conjunct: &Expr,
    alias: &str,
    schema: &TableSchema,
    params: &[Value],
) -> Result<Option<Vec<(usize, KeyRange)>>> {
    let mut parts: Vec<(usize, KeyRange)> = Vec::new();
    for d in disjuncts(conjunct) {
        if let Expr::InList {
            expr,
            list,
            negated: false,
        } = d
        {
            let Some((col, ranges)) = in_list_ranges(expr, list, alias, schema, params)? else {
                return Ok(None);
            };
            parts.extend(ranges.into_iter().map(|r| (col, r)));
            continue;
        }
        // The best-ranked sargable conjunct within the disjunct covers a
        // superset of the disjunct's rows.
        let mut best: Option<(usize, KeyRange)> = None;
        for c in conjuncts(d) {
            if let Some((col, range)) = sargable_conjunct(c, alias, schema, params)? {
                let better = match &best {
                    None => true,
                    Some((bcol, brange)) => (rank(&range), col) < (rank(brange), *bcol),
                };
                if better {
                    best = Some((col, range));
                }
            }
        }
        match best {
            Some(part) => parts.push(part),
            None => return Ok(None),
        }
    }
    Ok((parts.len() >= 2).then_some(parts))
}

/// `col IN (c1, c2, …)` over an indexed column with constant, non-NULL
/// members → one equality range per member.
fn in_list_ranges(
    expr: &Expr,
    list: &[Expr],
    alias: &str,
    schema: &TableSchema,
    params: &[Value],
) -> Result<Option<(usize, Vec<KeyRange>)>> {
    let col = match expr {
        Expr::Column { table, name } if table.as_deref().is_none_or(|t| t == alias) => {
            match schema.column_index(name) {
                Some(c) if schema.index_on(c).is_some() => c,
                _ => return Ok(None),
            }
        }
        _ => return Ok(None),
    };
    let mut ranges = Vec::with_capacity(list.len());
    for member in list {
        if !is_const(member) {
            return Ok(None);
        }
        let v = eval_const(member, params)?;
        if v.is_null() {
            continue; // `x IN (…, NULL, …)` members never match
        }
        ranges.push(KeyRange::eq(v));
    }
    Ok((!ranges.is_empty()).then_some((col, ranges)))
}

// ------------------------------------------------------------------ joins

/// Physical join strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// One index probe on the right table per left row.
    IndexNestedLoop,
    /// Materialize the right side into a hash table, probe per left row.
    Hash,
    /// Sort both sides on the join key and merge.
    SortMerge,
}

/// Choose the join strategy for an equi-join with `left_rows` already
/// materialized left rows against the right table. Returns the strategy
/// and the estimated output row count. The strict execute-order flow is
/// pinned to index-nested-loop whenever the right column is indexed —
/// the other strategies full-scan the right side, which that flow
/// forbids (§4.3).
pub fn choose_join_strategy(
    left_rows: usize,
    right_stats: &TableStatsView,
    right_col: usize,
    right_indexed: bool,
    strict: bool,
    order_matches_key: bool,
) -> (JoinStrategy, f64) {
    let n = left_rows as f64;
    let m = cost::table_rows(right_stats);
    let per_key = if right_stats.is_unique(right_col) {
        1.0
    } else if let Some(col) = right_stats.column(right_col) {
        col.count as f64 / col.distinct.max(1) as f64
    } else {
        m * cost::DEFAULT_EQ_SELECTIVITY
    };
    let est_out = n * per_key;

    if strict && right_indexed {
        return (JoinStrategy::IndexNestedLoop, est_out);
    }

    let mut best = (JoinStrategy::Hash, cost::hash_join_cost(n, m));
    if right_indexed {
        let inl = cost::inl_join_cost(n, per_key);
        if inl < best.1 {
            best = (JoinStrategy::IndexNestedLoop, inl);
        }
    }
    let credit = if order_matches_key { est_out } else { 0.0 };
    let sm = cost::sort_merge_join_cost(n, m, credit);
    if sm < best.1 {
        best = (JoinStrategy::SortMerge, sm);
    }
    (best.0, est_out)
}

// ---------------------------------------------------------------- explain

/// One node of an executed plan tree: what ran, what the planner
/// expected, what actually came out.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// Operator description.
    pub label: String,
    /// Planner's row estimate, when the cost model produced one.
    pub est: Option<u64>,
    /// Rows the operator actually emitted.
    pub actual: u64,
    /// Input operators.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Leaf node.
    pub fn leaf(label: impl Into<String>, est: Option<f64>, actual: usize) -> PlanNode {
        PlanNode {
            label: label.into(),
            est: est.map(|e| e.round().max(0.0) as u64),
            actual: actual as u64,
            children: Vec::new(),
        }
    }

    /// Wrap children under a new operator node.
    pub fn over(
        label: impl Into<String>,
        est: Option<f64>,
        actual: usize,
        children: Vec<PlanNode>,
    ) -> PlanNode {
        PlanNode {
            children,
            ..PlanNode::leaf(label, est, actual)
        }
    }

    /// Render the tree as indented lines (the EXPLAIN output rows).
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut Vec<String>) {
        let indent = "  ".repeat(depth);
        let line = match self.est {
            Some(est) => format!("{indent}{} (est={est} actual={})", self.label, self.actual),
            None => format!("{indent}{} (rows={})", self.label, self.actual),
        };
        out.push(line);
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }
}

/// Human-readable `column op value` form of one index range.
pub fn describe_range(schema: &TableSchema, column: usize, range: &KeyRange) -> String {
    let name = schema
        .columns
        .get(column)
        .map(|c| c.name.as_str())
        .unwrap_or("?");
    match (&range.low, &range.high) {
        (Bound::Included(l), Bound::Included(h)) if l == h => format!("{name} = {l}"),
        (Bound::Unbounded, Bound::Unbounded) => format!("{name}: all"),
        (low, high) => {
            let mut parts = Vec::new();
            match low {
                Bound::Included(v) => parts.push(format!("{name} >= {v}")),
                Bound::Excluded(v) => parts.push(format!("{name} > {v}")),
                Bound::Unbounded => {}
            }
            match high {
                Bound::Included(v) => parts.push(format!("{name} <= {v}")),
                Bound::Excluded(v) => parts.push(format!("{name} < {v}")),
                Bound::Unbounded => {}
            }
            parts.join(" AND ")
        }
    }
}

impl ScanChoice {
    /// Operator label for EXPLAIN output.
    pub fn label(&self, table: &str, schema: &TableSchema) -> String {
        let (op, parts, joiner) = match &self.plan {
            ScanPlan::Full => return format!("SeqScan {table}"),
            ScanPlan::Intersect(parts) if parts.len() == 1 => {
                let op = match self.covering {
                    Some(_) => "CoveringIndexScan",
                    None => "IndexScan",
                };
                (op, parts, "")
            }
            ScanPlan::Intersect(parts) => ("IndexIntersect", parts, " AND "),
            ScanPlan::Union(parts) => ("IndexUnion", parts, " OR "),
        };
        let desc: Vec<String> = parts
            .iter()
            .map(|(c, r)| describe_range(schema, *c, r))
            .collect();
        format!("{op} {table} [{}]", desc.join(joiner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_common::schema::{Column, DataType};
    use bcrdb_sql::parse_expression;
    use bcrdb_storage::stats::{ColumnSummary, TableSummary};

    /// inv(id Int pk, supplier Text indexed, amount Float unindexed).
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

    fn stats(rows: u64, suppliers: u64) -> TableStatsView {
        TableStatsView::with_summary(
            &schema(),
            TableSummary {
                rows,
                columns: vec![
                    (
                        0,
                        ColumnSummary {
                            distinct: rows,
                            count: rows,
                            min: Some(Value::Int(1)),
                            max: Some(Value::Int(rows as i64)),
                        },
                    ),
                    (
                        1,
                        ColumnSummary {
                            distinct: suppliers,
                            count: rows,
                            min: Some(Value::Text("a".into())),
                            max: Some(Value::Text("z".into())),
                        },
                    ),
                ],
            },
        )
    }

    fn plan(pred: &str, stats: &TableStatsView, covering: Option<usize>) -> ScanChoice {
        let e = parse_expression(pred).unwrap();
        plan_scan(&schema(), "inv", Some(&e), &[], stats, covering, false).unwrap()
    }

    #[test]
    fn or_on_indexed_column_becomes_index_union() {
        let s = stats(10_000, 50);
        let choice = plan("id = 1 OR id = 2", &s, None);
        let union = ScanPlan::Union(vec![
            (0, KeyRange::eq(Value::Int(1))),
            (0, KeyRange::eq(Value::Int(2))),
        ]);
        assert_eq!(choice.plan, union);
        assert!(choice.est_rows < 3.0);
        // A write (`require_index`) plans the same union — it used to be
        // a whole-table scan, which the execute-order flow rejects.
        let e = parse_expression("id = 1 OR id = 2").unwrap();
        let write = plan_scan(&schema(), "inv", Some(&e), &[], &s, None, true).unwrap();
        assert_eq!(write.plan, union);
    }

    #[test]
    fn in_list_becomes_index_union() {
        let s = stats(10_000, 50);
        let choice = plan("id IN (3, 5, 9)", &s, None);
        match choice.plan {
            ScanPlan::Union(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn union_requires_every_disjunct_sargable() {
        let s = stats(10_000, 50);
        // `amount` is unindexed: the OR cannot be a union; full scan wins.
        let choice = plan("id = 1 OR amount > 5.0", &s, None);
        assert_eq!(choice.plan, ScanPlan::Full);
    }

    #[test]
    fn selective_conjuncts_intersect() {
        // Two moderately selective conjuncts (~5% each) over a big table:
        // neither alone narrows much, but their intersection (~0.25%)
        // does — walking both indexes' entries beats faulting either
        // part's heap rows.
        let s = stats(100_000, 20);
        let choice = plan("supplier = 'acme' AND id BETWEEN 10 AND 5009", &s, None);
        match &choice.plan {
            ScanPlan::Intersect(parts) => {
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[0].0, 0, "parts ascend by column ordinal");
                assert_eq!(parts[1].0, 1);
            }
            other => panic!("expected intersection, got {other:?}"),
        }
    }

    #[test]
    fn weak_second_conjunct_stays_single_index() {
        // Equality on the pk selects one row; adding a second index part
        // only adds seek cost.
        let s = stats(100_000, 10);
        let choice = plan("id = 4 AND supplier = 'acme'", &s, None);
        assert_eq!(choice.plan, ScanPlan::index(0, KeyRange::eq(Value::Int(4))));
        assert_eq!(choice.covering, None);
    }

    #[test]
    fn covering_flag_set_only_for_the_consumed_column() {
        let s = stats(10_000, 50);
        let choice = plan("supplier = 'acme'", &s, Some(1));
        let by_supplier = ScanPlan::index(1, KeyRange::eq(Value::Text("acme".into())));
        assert_eq!(choice.plan, by_supplier);
        assert_eq!(choice.covering, Some(1));
        let choice = plan("supplier = 'acme'", &s, Some(0));
        assert_eq!(choice.plan, by_supplier);
        assert_eq!(choice.covering, None);
    }

    #[test]
    fn unselective_range_prefers_full_scan_with_stats() {
        // A range covering ~all of a table is cheaper as a seq scan…
        let s = stats(1000, 50);
        let choice = plan("id >= 1", &s, None);
        assert_eq!(choice.plan, ScanPlan::Full);
        // …unless the strict flow requires an index path.
        let e = parse_expression("id >= 1").unwrap();
        let strict = plan_scan(&schema(), "inv", Some(&e), &[], &s, None, true).unwrap();
        assert_eq!(
            strict.plan,
            ScanPlan::index(0, KeyRange::greater(Value::Int(1), true))
        );
    }

    #[test]
    fn join_strategy_boundaries() {
        let s = stats(100, 10);
        // Strict flow + indexed right column: always index-nested-loop.
        let (j, _) = choose_join_strategy(100, &s, 0, true, true, false);
        assert_eq!(j, JoinStrategy::IndexNestedLoop);
        // Small left side probing a big indexed table: INL wins.
        let big = stats(100_000, 10);
        let (j, _) = choose_join_strategy(10, &big, 0, true, false, false);
        assert_eq!(j, JoinStrategy::IndexNestedLoop);
        // Unindexed right column, no useful order: hash join.
        let (j, _) = choose_join_strategy(100, &s, 2, false, false, false);
        assert_eq!(j, JoinStrategy::Hash);
        // Same, but the query orders by the join key: sort-merge's output
        // order pays for itself.
        let (j, _) = choose_join_strategy(100, &s, 2, false, false, true);
        assert_eq!(j, JoinStrategy::SortMerge);
    }

    #[test]
    fn render_plan_tree() {
        let tree = PlanNode::over(
            "Sort [id]",
            None,
            2,
            vec![PlanNode::leaf("IndexScan inv [id = 4]", Some(1.2), 2)],
        );
        assert_eq!(
            tree.render(),
            vec![
                "Sort [id] (rows=2)".to_string(),
                "  IndexScan inv [id = 4] (est=1 actual=2)".to_string(),
            ]
        );
    }
}
