//! The statement executor.
//!
//! Executes parsed statements against a [`Catalog`] through a transaction
//! context. Every table scan — a SELECT's or the target rows of an
//! UPDATE/DELETE — is planned by [`crate::planner::plan_scan`] (full,
//! index, multi-index intersection/union) and read through the one
//! `TxnCtx::scan`; joins are index-nested-loop, hash or sort-merge —
//! all chosen by cost over snapshot-pinned statistics. On top sit
//! grouping with aggregates, HAVING, ORDER BY and
//! LIMIT: the surface the paper's three evaluation contracts need
//! (Appendix A) plus provenance scans (§4.2). Every SELECT builds a
//! [`PlanNode`] trace with estimated vs. actual row counts; `EXPLAIN`
//! executes the statement and returns that trace instead of the rows.
//!
//! DDL statements do **not** mutate the catalog immediately: they are
//! returned as [`CatalogOp`]s that the block processor applies during the
//! serial commit phase, so the catalog changes at the same block position
//! on every replica.

use std::collections::HashMap;
use std::sync::Arc;

use bcrdb_common::error::{Error, Result};
use bcrdb_common::schema::{Column, TableSchema};
use bcrdb_common::value::{Row, Value};
use bcrdb_crypto::identity::{Certificate, CertificateRegistry};
use bcrdb_sql::ast::{
    BinaryOp, Expr, FromClause, FunctionDef, InsertSource, Join, OrderItem, SelectItem, SelectStmt,
    Statement, TableRef,
};
use bcrdb_storage::catalog::Catalog;
use bcrdb_storage::index::KeyRange;
use bcrdb_storage::snapshot::ScanMode;
use bcrdb_storage::table::Table;
use bcrdb_txn::context::{TxnCtx, VisibleRow};

use crate::expr::{eval, Env, RowSchema};
use crate::plan::equi_join_key;
use crate::planner::{
    choose_join_strategy, plan_scan, JoinStrategy, PlanNode, ScanChoice, ScanPlan,
};
use crate::procedures::ContractRegistry;
use crate::provenance;
use crate::result::QueryResult;
use crate::stats::TableStatsView;

/// A deferred catalog mutation, applied at commit time.
#[derive(Clone, Debug, PartialEq)]
pub enum CatalogOp {
    /// CREATE TABLE.
    CreateTable(TableSchema),
    /// CREATE INDEX.
    CreateIndex {
        /// Target table.
        table: String,
        /// Index name.
        index: String,
        /// Indexed column name.
        column: String,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS flag.
        if_exists: bool,
    },
    /// CREATE [OR REPLACE] FUNCTION (deploying a smart contract).
    CreateFunction(FunctionDef),
    /// DROP FUNCTION.
    DropFunction {
        /// Contract name.
        name: String,
    },
    /// Register a user certificate (user-management system contracts,
    /// §3.7: "three more system smart contracts to create, delete, and
    /// update users with cryptographic credentials").
    RegisterCert(Certificate),
    /// Revoke a user certificate.
    RevokeCert {
        /// Certificate (user) name.
        name: String,
    },
}

impl CatalogOp {
    /// The catalog mutation a DDL statement asks for — the same op
    /// whether the statement arrives in a contract, a deployment or the
    /// genesis SQL. Queries and DML are an error.
    pub fn from_statement(stmt: &Statement) -> Result<CatalogOp> {
        Ok(match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => build_create_table(name, columns, primary_key)?,
            Statement::CreateIndex {
                name,
                table,
                column,
            } => CatalogOp::CreateIndex {
                table: table.clone(),
                index: name.clone(),
                column: column.clone(),
            },
            Statement::DropTable { name, if_exists } => CatalogOp::DropTable {
                name: name.clone(),
                if_exists: *if_exists,
            },
            Statement::CreateFunction(def) => CatalogOp::CreateFunction(def.clone()),
            Statement::DropFunction { name } => CatalogOp::DropFunction { name: name.clone() },
            other => return Err(Error::Analysis(format!("not a DDL statement: {other:?}"))),
        })
    }
}

/// Apply a catalog op (serial commit phase only).
pub fn apply_catalog_op(
    catalog: &Catalog,
    contracts: &ContractRegistry,
    certs: &CertificateRegistry,
    op: &CatalogOp,
) -> Result<()> {
    match op {
        CatalogOp::CreateTable(schema) => {
            catalog.create_table(schema.clone())?;
            Ok(())
        }
        CatalogOp::CreateIndex {
            table,
            index,
            column,
        } => catalog.get(table)?.add_index(index, column),
        CatalogOp::DropTable { name, if_exists } => catalog.drop_table(name, *if_exists),
        CatalogOp::CreateFunction(def) => contracts.install(def.clone()),
        CatalogOp::DropFunction { name } => contracts.remove(name),
        CatalogOp::RegisterCert(cert) => {
            certs.register(cert.clone());
            Ok(())
        }
        CatalogOp::RevokeCert { name } => {
            certs.revoke(name);
            Ok(())
        }
    }
}

/// What a statement did.
#[derive(Clone, Debug)]
pub enum StatementEffect {
    /// SELECT output.
    Rows(QueryResult),
    /// DML affected-row count.
    Count(usize),
    /// Deferred DDL.
    Catalog(CatalogOp),
}

impl StatementEffect {
    /// The query result, if this was a SELECT.
    pub fn rows(&self) -> Option<&QueryResult> {
        match self {
            StatementEffect::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// Statement executor bound to one transaction.
pub struct Executor<'a> {
    /// Table catalog.
    pub catalog: &'a Catalog,
    /// Transaction context (data access + conflict tracking).
    pub ctx: &'a TxnCtx,
    /// `$n` parameters.
    pub params: &'a [Value],
}

type Dataset = (RowSchema, Vec<Row>);

impl<'a> Executor<'a> {
    /// Create an executor.
    pub fn new(catalog: &'a Catalog, ctx: &'a TxnCtx, params: &'a [Value]) -> Executor<'a> {
        Executor {
            catalog,
            ctx,
            params,
        }
    }

    /// Execute one statement.
    pub fn execute(&self, stmt: &Statement) -> Result<StatementEffect> {
        match stmt {
            Statement::Select(sel) => Ok(StatementEffect::Rows(self.run_select(sel)?)),
            Statement::Insert {
                table,
                columns,
                source,
            } => Ok(StatementEffect::Count(self.run_insert(
                table,
                columns.as_deref(),
                source,
            )?)),
            Statement::Update {
                table,
                assignments,
                predicate,
            } => Ok(StatementEffect::Count(self.run_update(
                table,
                assignments,
                predicate.as_ref(),
            )?)),
            Statement::Delete { table, predicate } => Ok(StatementEffect::Count(
                self.run_delete(table, predicate.as_ref())?,
            )),
            Statement::Explain(inner) => Ok(StatementEffect::Rows(self.run_explain(inner)?)),
            ddl => Ok(StatementEffect::Catalog(CatalogOp::from_statement(ddl)?)),
        }
    }

    /// Execute the inner statement and return its plan trace (one `plan`
    /// text column, indented tree lines with estimated vs. actual row
    /// counts) instead of its rows.
    fn run_explain(&self, inner: &Statement) -> Result<QueryResult> {
        let Statement::Select(sel) = inner else {
            return Err(Error::Analysis(
                "EXPLAIN supports SELECT statements only".into(),
            ));
        };
        let (_, node) = self.run_select_traced(sel)?;
        Ok(QueryResult {
            columns: vec!["plan".to_string()],
            rows: node
                .render()
                .into_iter()
                .map(|line| vec![Value::Text(line)])
                .collect(),
        })
    }

    // ------------------------------------------------------------ SELECT

    /// Execute a SELECT.
    pub fn run_select(&self, sel: &SelectStmt) -> Result<QueryResult> {
        Ok(self.run_select_traced(sel)?.0)
    }

    /// Execute a SELECT and return the plan trace alongside the rows.
    fn run_select_traced(&self, sel: &SelectStmt) -> Result<(QueryResult, PlanNode)> {
        let (schema, mut rows, mut node) = match &sel.from {
            None => (
                RowSchema::default(),
                vec![Vec::new()],
                PlanNode::leaf("Values", None, 1),
            ),
            Some(fc) => {
                let ((schema, rows), node) = self.run_from(fc, sel)?;
                (schema, rows, node)
            }
        };

        // Residual WHERE filter.
        if let Some(pred) = &sel.predicate {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                let env = Env {
                    schema: &schema,
                    row: &row,
                    params: self.params,
                };
                if eval(pred, &env)?.is_truthy() {
                    kept.push(row);
                }
            }
            rows = kept;
            node = PlanNode::over("Filter", None, rows.len(), vec![node]);
        }

        let has_aggregates = !sel.group_by.is_empty()
            || sel.projections.iter().any(|p| match p {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || sel.having.as_ref().is_some_and(Expr::contains_aggregate);

        let mut result = if has_aggregates {
            self.run_aggregate(sel, &schema, rows)?
        } else {
            self.run_projection(sel, &schema, rows)?
        };
        let shape = if has_aggregates {
            "Aggregate"
        } else {
            "Project"
        };
        node = PlanNode::over(shape, None, result.rows.len(), vec![node]);
        if !sel.order_by.is_empty() {
            node = PlanNode::over("Sort", None, result.rows.len(), vec![node]);
        }

        // LIMIT.
        if let Some(limit_expr) = &sel.limit {
            let empty = RowSchema::default();
            let env = Env {
                schema: &empty,
                row: &[],
                params: self.params,
            };
            let n = eval(limit_expr, &env)?.as_i64()?;
            let n = usize::try_from(n.max(0)).unwrap_or(usize::MAX);
            result.rows.truncate(n);
            node = PlanNode::over("Limit", None, result.rows.len(), vec![node]);
        }
        Ok((result, node))
    }

    fn run_from(&self, fc: &FromClause, sel: &SelectStmt) -> Result<(Dataset, PlanNode)> {
        let predicate = sel.predicate.as_ref();
        // Covering scans only apply to a single-table FROM: with joins,
        // the other relations consume the base columns through the ON
        // conditions.
        let covering_ctx = fc.joins.is_empty().then_some(sel);
        let (mut dataset, mut node) = self.scan_table_ref(&fc.base, predicate, covering_ctx)?;
        for join in &fc.joins {
            let (d, n) = self.run_join((dataset, node), join, predicate, &sel.order_by)?;
            dataset = d;
            node = n;
        }
        Ok((dataset, node))
    }

    fn scan_table_ref(
        &self,
        tref: &TableRef,
        predicate: Option<&Expr>,
        covering_ctx: Option<&SelectStmt>,
    ) -> Result<(Dataset, PlanNode)> {
        if tref.history {
            let (schema, rows) = provenance::history_scan(self.catalog, self.ctx, tref)?;
            let actual = rows.len();
            let label = format!("HistoryScan {}", tref.effective_name());
            return Ok(((schema, rows), PlanNode::leaf(label, None, actual)));
        }
        let table = self.catalog.get(&tref.name)?;
        let alias = tref.effective_name().to_string();
        let table_schema = table.schema();
        let covering = covering_ctx.and_then(|sel| covering_candidate(sel, &alias, &table_schema));
        let strict = self.ctx.mode == ScanMode::Strict;
        let (choice, visible) =
            self.planned_scan(&table, &table_schema, &alias, predicate, covering, strict)?;
        let names = column_names(&table_schema);
        let node = PlanNode::leaf(
            choice.label(&alias, &table_schema),
            Some(choice.est_rows),
            visible.len(),
        );
        // Each version is released as soon as its values are copied out,
        // while it is still in cache.
        let dataset: Dataset = match choice.covering {
            // The index key alone satisfies the query: project just that
            // column instead of copying whole rows.
            Some(column) => (
                RowSchema::for_table(&alias, &[names[column].clone()]),
                visible
                    .into_iter()
                    .map(|r| vec![r.data()[column].clone()])
                    .collect(),
            ),
            None => (
                RowSchema::for_table(&alias, &names),
                visible.into_iter().map(|r| r.data().to_vec()).collect(),
            ),
        };
        Ok((dataset, node))
    }

    /// Plan one table scan and run it: the single place a statement's
    /// reads — and with them its predicate locks — are decided, for
    /// SELECT, UPDATE and DELETE alike.
    fn planned_scan(
        &self,
        table: &Arc<Table>,
        schema: &TableSchema,
        alias: &str,
        predicate: Option<&Expr>,
        covering: Option<usize>,
        require_index: bool,
    ) -> Result<(ScanChoice, Vec<VisibleRow>)> {
        let stats = TableStatsView::at(table, schema, self.ctx.snapshot.height);
        let choice = plan_scan(
            schema,
            alias,
            predicate,
            self.params,
            &stats,
            covering,
            require_index,
        )?;
        match &choice.plan {
            ScanPlan::Intersect(parts) | ScanPlan::Union(parts) if parts.len() > 1 => {
                self.catalog.on_multi_index_plan()
            }
            _ if choice.covering.is_some() => self.catalog.on_covering_plan(),
            _ => {}
        }
        let visible = self.ctx.scan(table, &choice.plan)?;
        Ok((choice, visible))
    }

    /// The rows an UPDATE or DELETE of `table` under `predicate` writes.
    /// Planned with `require_index` in every flow, so the lock a write
    /// takes is an index range whenever the predicate offers one.
    fn write_targets(
        &self,
        table: &Arc<Table>,
        schema: &TableSchema,
        predicate: Option<&Expr>,
    ) -> Result<(RowSchema, Vec<VisibleRow>)> {
        let row_schema = RowSchema::for_table(&schema.name, &column_names(schema));
        let (_, mut targets) =
            self.planned_scan(table, schema, &schema.name, predicate, None, true)?;
        if let Some(pred) = predicate {
            let mut kept = Vec::with_capacity(targets.len());
            for target in targets {
                let env = Env {
                    schema: &row_schema,
                    row: target.data(),
                    params: self.params,
                };
                if eval(pred, &env)?.is_truthy() {
                    kept.push(target);
                }
            }
            targets = kept;
        }
        Ok((row_schema, targets))
    }

    fn run_join(
        &self,
        left: (Dataset, PlanNode),
        join: &Join,
        where_pred: Option<&Expr>,
        order_by: &[OrderItem],
    ) -> Result<(Dataset, PlanNode)> {
        let ((left_schema, left_rows), left_node) = left;
        // Comma joins (`FROM a, b WHERE a.x = b.y`) carry their equi
        // condition in WHERE, not ON: mine both for the join key.
        let key_source = match where_pred {
            Some(p) => Expr::binary(BinaryOp::And, join.on.clone(), p.clone()),
            None => join.on.clone(),
        };
        if join.table.history {
            // Provenance joins materialize the history side and nested-loop.
            let (right_schema, right_rows) =
                provenance::history_scan(self.catalog, self.ctx, &join.table)?;
            let right_node = PlanNode::leaf(
                format!("HistoryScan {}", join.table.effective_name()),
                None,
                right_rows.len(),
            );
            let schema = left_schema.join(&right_schema);
            let rows = nested_loop(&schema, &left_rows, &right_rows, &join.on, self.params)?;
            let actual = rows.len();
            let node = PlanNode::over("NestedLoopJoin", None, actual, vec![left_node, right_node]);
            return Ok(((schema, rows), node));
        }

        let right_table = self.catalog.get(&join.table.name)?;
        let right_alias = join.table.effective_name().to_string();
        let right_table_schema = right_table.schema();
        let right_stats =
            TableStatsView::at(&right_table, &right_table_schema, self.ctx.snapshot.height);
        let names = column_names(&right_table_schema);
        let right_schema = RowSchema::for_table(&right_alias, &names);
        let combined = left_schema.join(&right_schema);

        let equi = equi_join_key(
            &key_source,
            &left_schema,
            &right_alias,
            &right_table_schema,
            &right_stats,
        );

        let Some((key_expr, right_col)) = &equi else {
            // No equi key: materialize the right side and nested-loop
            // (full scan: relaxed flows only — the strict mode of the EO
            // flow rejects it inside TxnCtx::scan).
            let right_rows: Vec<Row> = self
                .ctx
                .scan(&right_table, &ScanPlan::Full)?
                .into_iter()
                .map(|r| r.data().to_vec())
                .collect();
            let right_node =
                PlanNode::leaf(format!("SeqScan {right_alias}"), None, right_rows.len());
            let rows = nested_loop(&combined, &left_rows, &right_rows, &join.on, self.params)?;
            let actual = rows.len();
            let node = PlanNode::over("NestedLoopJoin", None, actual, vec![left_node, right_node]);
            return Ok(((combined, rows), node));
        };

        let right_indexed = right_table_schema.index_on(*right_col).is_some();
        let strict = self.ctx.mode == ScanMode::Strict;
        let order_matches = order_by.first().is_some_and(|o| &o.expr == key_expr);
        let (strategy, est_out) = choose_join_strategy(
            left_rows.len(),
            &right_stats,
            *right_col,
            right_indexed,
            strict,
            order_matches,
        );
        let key_name = &names[*right_col];

        if strategy == JoinStrategy::IndexNestedLoop {
            // Index nested-loop join: the per-key point scans register
            // precise predicate locks (EO-flow friendly).
            let mut out = Vec::new();
            for lrow in &left_rows {
                let env = Env {
                    schema: &left_schema,
                    row: lrow,
                    params: self.params,
                };
                let key = eval(key_expr, &env)?;
                if key.is_null() {
                    continue;
                }
                let probe = ScanPlan::index(*right_col, KeyRange::eq(key));
                for m in self.ctx.scan(&right_table, &probe)? {
                    let mut row = lrow.clone();
                    row.extend_from_slice(m.data());
                    let env = Env {
                        schema: &combined,
                        row: &row,
                        params: self.params,
                    };
                    if eval(&join.on, &env)?.is_truthy() {
                        out.push(row);
                    }
                }
            }
            let actual = out.len();
            let node = PlanNode::over(
                format!("IndexNestedLoopJoin {right_alias} [{key_name}]"),
                Some(est_out),
                actual,
                vec![left_node],
            );
            return Ok(((combined, out), node));
        }

        // Hash and sort-merge both materialize the right side (full scan:
        // relaxed flows only, as above).
        let right_rows: Vec<Row> = self
            .ctx
            .scan(&right_table, &ScanPlan::Full)?
            .into_iter()
            .map(|r| r.data().to_vec())
            .collect();
        let right_node = PlanNode::leaf(format!("SeqScan {right_alias}"), None, right_rows.len());

        let (out, op) = match strategy {
            JoinStrategy::SortMerge => (
                sort_merge_join(
                    &combined,
                    &left_schema,
                    &left_rows,
                    &right_rows,
                    *right_col,
                    key_expr,
                    &join.on,
                    self.params,
                )?,
                "SortMergeJoin",
            ),
            _ => {
                // Hash join on the equi key.
                let mut table_map: HashMap<Value, Vec<Row>> = HashMap::new();
                for rrow in &right_rows {
                    let key = rrow[*right_col].clone();
                    if !key.is_null() {
                        table_map.entry(key).or_default().push(rrow.clone());
                    }
                }
                let mut out = Vec::new();
                for lrow in &left_rows {
                    let env = Env {
                        schema: &left_schema,
                        row: lrow,
                        params: self.params,
                    };
                    let key = eval(key_expr, &env)?;
                    if key.is_null() {
                        continue;
                    }
                    if let Some(matches) = table_map.get(&key) {
                        for m in matches {
                            let mut row = lrow.clone();
                            row.extend(m.iter().cloned());
                            let env = Env {
                                schema: &combined,
                                row: &row,
                                params: self.params,
                            };
                            if eval(&join.on, &env)?.is_truthy() {
                                out.push(row);
                            }
                        }
                    }
                }
                (out, "HashJoin")
            }
        };
        let actual = out.len();
        let node = PlanNode::over(
            format!("{op} {right_alias} [{key_name}]"),
            Some(est_out),
            actual,
            vec![left_node, right_node],
        );
        Ok(((combined, out), node))
    }

    // -------------------------------------------------------- projection

    fn run_projection(
        &self,
        sel: &SelectStmt,
        schema: &RowSchema,
        rows: Vec<Row>,
    ) -> Result<QueryResult> {
        let columns = output_columns(&sel.projections, schema)?;
        let mut outputs: Vec<(Row, Row)> = Vec::with_capacity(rows.len()); // (input, output)
        for row in rows {
            let env = Env {
                schema,
                row: &row,
                params: self.params,
            };
            let mut out = Vec::with_capacity(columns.len());
            for item in &sel.projections {
                match item {
                    SelectItem::Wildcard => out.extend(row.iter().cloned()),
                    SelectItem::QualifiedWildcard(q) => {
                        let ords = schema.ordinals_for_qualifier(q);
                        if ords.is_empty() {
                            return Err(Error::Analysis(format!("unknown table alias {q}")));
                        }
                        out.extend(ords.into_iter().map(|i| row[i].clone()));
                    }
                    SelectItem::Expr { expr, .. } => out.push(eval(expr, &env)?),
                }
            }
            outputs.push((row, out));
        }

        if !sel.order_by.is_empty() {
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(outputs.len());
            for (input, output) in outputs {
                let keys =
                    self.order_keys(&sel.order_by, schema, &input, Some((&columns, &output)))?;
                keyed.push((keys, output));
            }
            sort_by_keys(&mut keyed, &sel.order_by);
            return Ok(QueryResult {
                columns,
                rows: keyed.into_iter().map(|(_, r)| r).collect(),
            });
        }
        Ok(QueryResult {
            columns,
            rows: outputs.into_iter().map(|(_, o)| o).collect(),
        })
    }

    fn order_keys(
        &self,
        order_by: &[OrderItem],
        schema: &RowSchema,
        input: &[Value],
        output: Option<(&[String], &[Value])>,
    ) -> Result<Vec<Value>> {
        let mut keys = Vec::with_capacity(order_by.len());
        for item in order_by {
            // A bare name may refer to an output alias.
            if let (Expr::Column { table: None, name }, Some((cols, out))) = (&item.expr, output) {
                if let Some(i) = cols.iter().position(|c| c == name) {
                    keys.push(out[i].clone());
                    continue;
                }
            }
            let env = Env {
                schema,
                row: input,
                params: self.params,
            };
            keys.push(eval(&item.expr, &env)?);
        }
        Ok(keys)
    }

    // ------------------------------------------------------- aggregation

    fn run_aggregate(
        &self,
        sel: &SelectStmt,
        schema: &RowSchema,
        rows: Vec<Row>,
    ) -> Result<QueryResult> {
        for item in &sel.projections {
            if matches!(
                item,
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)
            ) {
                return Err(Error::Analysis(
                    "wildcard projections are not valid in aggregate queries".into(),
                ));
            }
        }
        // Collect unique aggregate call expressions from every clause.
        let mut agg_exprs: Vec<Expr> = Vec::new();
        let mut collect = |e: &Expr| {
            e.walk(&mut |sub| {
                if let Expr::Function { name, .. } = sub {
                    if bcrdb_sql::ast::is_aggregate_name(name)
                        && !agg_exprs.iter().any(|a| a == sub)
                    {
                        agg_exprs.push(sub.clone());
                    }
                }
            });
        };
        for item in &sel.projections {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr);
            }
        }
        if let Some(h) = &sel.having {
            collect(h);
        }
        for o in &sel.order_by {
            collect(&o.expr);
        }

        // Group rows. BTreeMap gives deterministic group order.
        use std::collections::BTreeMap;
        struct Group {
            rep: Row,
            accs: Vec<AggAcc>,
        }
        let mut groups: BTreeMap<Vec<Value>, Group> = BTreeMap::new();
        for row in rows {
            let env = Env {
                schema,
                row: &row,
                params: self.params,
            };
            let mut key = Vec::with_capacity(sel.group_by.len());
            for g in &sel.group_by {
                key.push(eval(g, &env)?);
            }
            let group = match groups.get_mut(&key) {
                Some(g) => g,
                None => {
                    let accs = agg_exprs.iter().map(AggAcc::new).collect::<Result<_>>()?;
                    groups.entry(key.clone()).or_insert(Group {
                        rep: row.clone(),
                        accs,
                    });
                    groups.get_mut(&key).expect("just inserted")
                }
            };
            let env = Env {
                schema,
                row: &row,
                params: self.params,
            };
            for (acc, aexpr) in group.accs.iter_mut().zip(&agg_exprs) {
                acc.fold(aexpr, &env)?;
            }
        }
        // Aggregates without GROUP BY over zero rows: one empty group.
        if groups.is_empty() && sel.group_by.is_empty() {
            let accs = agg_exprs.iter().map(AggAcc::new).collect::<Result<_>>()?;
            groups.insert(
                Vec::new(),
                Group {
                    rep: Vec::new(),
                    accs,
                },
            );
        }

        let columns = output_columns(&sel.projections, schema)?;
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
        for group in groups.values() {
            // For the representative row of an empty table, pad with NULLs
            // so column references don't panic (they're meaningless there).
            let rep = if group.rep.is_empty() && schema.arity() > 0 {
                vec![Value::Null; schema.arity()]
            } else {
                group.rep.clone()
            };
            let agg_values: Vec<Value> = group
                .accs
                .iter()
                .map(AggAcc::finish)
                .collect::<Result<_>>()?;
            let env = Env {
                schema,
                row: &rep,
                params: self.params,
            };
            // HAVING.
            if let Some(h) = &sel.having {
                if !eval_with_aggs(h, &env, &agg_exprs, &agg_values)?.is_truthy() {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(columns.len());
            for item in &sel.projections {
                if let SelectItem::Expr { expr, .. } = item {
                    out.push(eval_with_aggs(expr, &env, &agg_exprs, &agg_values)?);
                }
            }
            let mut order_keys = Vec::with_capacity(sel.order_by.len());
            for o in &sel.order_by {
                // Output aliases first, then group-context evaluation.
                if let Expr::Column { table: None, name } = &o.expr {
                    if let Some(i) = columns.iter().position(|c| c == name) {
                        order_keys.push(out[i].clone());
                        continue;
                    }
                }
                order_keys.push(eval_with_aggs(&o.expr, &env, &agg_exprs, &agg_values)?);
            }
            keyed.push((order_keys, out));
        }
        if !sel.order_by.is_empty() {
            sort_by_keys(&mut keyed, &sel.order_by);
        }
        Ok(QueryResult {
            columns,
            rows: keyed.into_iter().map(|(_, r)| r).collect(),
        })
    }

    // --------------------------------------------------------------- DML

    fn run_insert(
        &self,
        table_name: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
    ) -> Result<usize> {
        let table = self.catalog.get(table_name)?;
        let schema = table.schema();
        let target_ordinals: Vec<usize> = match columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    schema.column_index(c).ok_or_else(|| {
                        Error::Analysis(format!("unknown column {c} in table {table_name}"))
                    })
                })
                .collect::<Result<_>>()?,
            None => (0..schema.arity()).collect(),
        };

        let value_rows: Vec<Row> = match source {
            InsertSource::Values(expr_rows) => {
                let empty = RowSchema::default();
                let mut out = Vec::with_capacity(expr_rows.len());
                for exprs in expr_rows {
                    let env = Env {
                        schema: &empty,
                        row: &[],
                        params: self.params,
                    };
                    let mut row = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        row.push(eval(e, &env)?);
                    }
                    out.push(row);
                }
                out
            }
            InsertSource::Select(sel) => self.run_select(sel)?.rows,
        };

        let mut count = 0;
        for values in value_rows {
            if values.len() != target_ordinals.len() {
                return Err(Error::Analysis(format!(
                    "INSERT into {table_name} expects {} values, got {}",
                    target_ordinals.len(),
                    values.len()
                )));
            }
            let mut row = vec![Value::Null; schema.arity()];
            for (ordinal, v) in target_ordinals.iter().zip(values) {
                row[*ordinal] = v;
            }
            let row = schema.check_row(row)?;
            self.ctx.insert(&table, row)?;
            count += 1;
        }
        Ok(count)
    }

    fn run_update(
        &self,
        table_name: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> Result<usize> {
        let table = self.catalog.get(table_name)?;
        let schema = table.schema();
        let assigned: Vec<(usize, &Expr)> = assignments
            .iter()
            .map(|(name, e)| {
                schema.column_index(name).map(|i| (i, e)).ok_or_else(|| {
                    Error::Analysis(format!("unknown column {name} in table {table_name}"))
                })
            })
            .collect::<Result<_>>()?;
        let (row_schema, targets) = self.write_targets(&table, &schema, predicate)?;
        for target in &targets {
            let env = Env {
                schema: &row_schema,
                row: target.data(),
                params: self.params,
            };
            let mut new_row = target.data().to_vec();
            for (ordinal, e) in &assigned {
                new_row[*ordinal] = eval(e, &env)?;
            }
            let new_row = schema.check_row(new_row)?;
            self.ctx.update(&table, target, new_row)?;
        }
        Ok(targets.len())
    }

    fn run_delete(&self, table_name: &str, predicate: Option<&Expr>) -> Result<usize> {
        let table = self.catalog.get(table_name)?;
        let (_, targets) = self.write_targets(&table, &table.schema(), predicate)?;
        for target in &targets {
            self.ctx.delete(&table, target)?;
        }
        Ok(targets.len())
    }
}

fn column_names(schema: &TableSchema) -> Vec<String> {
    schema.columns.iter().map(|c| c.name.clone()).collect()
}

fn nested_loop(
    combined: &RowSchema,
    left_rows: &[Row],
    right_rows: &[Row],
    on: &Expr,
    params: &[Value],
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for lrow in left_rows {
        for rrow in right_rows {
            let mut row = lrow.clone();
            row.extend(rrow.iter().cloned());
            let env = Env {
                schema: combined,
                row: &row,
                params,
            };
            if eval(on, &env)?.is_truthy() {
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// The single column ordinal a covering-index scan could serve, if the
/// whole statement consumes exactly one column of the scanned table.
/// Wildcards, unresolvable names and references to other qualifiers all
/// disqualify (conservatively — covering is an optimization, never a
/// requirement).
fn covering_candidate(sel: &SelectStmt, alias: &str, schema: &TableSchema) -> Option<usize> {
    if sel
        .projections
        .iter()
        .any(|p| !matches!(p, SelectItem::Expr { .. }))
    {
        return None; // wildcards need every column
    }
    let mut cols = std::collections::BTreeSet::new();
    let mut ok = true;
    let mut visit = |e: &Expr| {
        e.walk(&mut |sub| {
            if let Expr::Column { table, name } = sub {
                if table.as_deref().is_none_or(|t| t == alias) {
                    match schema.column_index(name) {
                        Some(i) => {
                            cols.insert(i);
                        }
                        None => ok = false,
                    }
                } else {
                    ok = false;
                }
            }
        });
    };
    for p in &sel.projections {
        if let SelectItem::Expr { expr, .. } = p {
            visit(expr);
        }
    }
    if let Some(p) = &sel.predicate {
        visit(p);
    }
    for g in &sel.group_by {
        visit(g);
    }
    if let Some(h) = &sel.having {
        visit(h);
    }
    for o in &sel.order_by {
        visit(&o.expr);
    }
    if !ok || cols.len() != 1 {
        return None;
    }
    cols.into_iter().next()
}

/// Sort-merge equi-join: sort both sides on the join key (total value
/// order, stable) and merge, cross-producting equal-key groups. NULL
/// keys never match. Output is ordered by the join key — exactly what a
/// downstream ORDER BY on that key wants.
#[allow(clippy::too_many_arguments)]
fn sort_merge_join(
    combined: &RowSchema,
    left_schema: &RowSchema,
    left_rows: &[Row],
    right_rows: &[Row],
    right_col: usize,
    key_expr: &Expr,
    on: &Expr,
    params: &[Value],
) -> Result<Vec<Row>> {
    let mut left_keyed: Vec<(Value, &Row)> = Vec::with_capacity(left_rows.len());
    for lrow in left_rows {
        let env = Env {
            schema: left_schema,
            row: lrow,
            params,
        };
        let key = eval(key_expr, &env)?;
        if !key.is_null() {
            left_keyed.push((key, lrow));
        }
    }
    left_keyed.sort_by(|(a, _), (b, _)| a.cmp_total(b));
    let mut right_keyed: Vec<(&Value, &Row)> = right_rows
        .iter()
        .filter(|r| !r[right_col].is_null())
        .map(|r| (&r[right_col], r))
        .collect();
    right_keyed.sort_by(|(a, _), (b, _)| a.cmp_total(b));

    let mut out = Vec::new();
    let (mut li, mut ri) = (0, 0);
    while li < left_keyed.len() && ri < right_keyed.len() {
        match left_keyed[li].0.cmp_total(right_keyed[ri].0) {
            std::cmp::Ordering::Less => li += 1,
            std::cmp::Ordering::Greater => ri += 1,
            std::cmp::Ordering::Equal => {
                let rend = right_keyed[ri..]
                    .iter()
                    .position(|(k, _)| k.cmp_total(&left_keyed[li].0).is_ne())
                    .map(|n| ri + n)
                    .unwrap_or(right_keyed.len());
                while li < left_keyed.len() && left_keyed[li].0.cmp_total(right_keyed[ri].0).is_eq()
                {
                    for (_, rrow) in &right_keyed[ri..rend] {
                        let mut row = left_keyed[li].1.clone();
                        row.extend(rrow.iter().cloned());
                        let env = Env {
                            schema: combined,
                            row: &row,
                            params,
                        };
                        if eval(on, &env)?.is_truthy() {
                            out.push(row);
                        }
                    }
                    li += 1;
                }
                ri = rend;
            }
        }
    }
    Ok(out)
}

fn sort_by_keys(keyed: &mut [(Vec<Value>, Row)], order_by: &[OrderItem]) {
    keyed.sort_by(|(a, _), (b, _)| {
        for (i, item) in order_by.iter().enumerate() {
            let ord = a[i].cmp_total(&b[i]);
            let ord = if item.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn output_columns(projections: &[SelectItem], schema: &RowSchema) -> Result<Vec<String>> {
    let mut out = Vec::new();
    for item in projections {
        match item {
            SelectItem::Wildcard => {
                out.extend(schema.columns().iter().map(|(_, n)| n.clone()));
            }
            SelectItem::QualifiedWildcard(q) => {
                let ords = schema.ordinals_for_qualifier(q);
                if ords.is_empty() {
                    return Err(Error::Analysis(format!("unknown table alias {q}")));
                }
                out.extend(ords.into_iter().map(|i| schema.columns()[i].1.clone()));
            }
            SelectItem::Expr { expr, alias } => out.push(match alias {
                Some(a) => a.clone(),
                None => default_column_name(expr),
            }),
        }
    }
    Ok(out)
}

fn default_column_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => "?column?".to_string(),
    }
}

/// Evaluate an expression in a group context: aggregate sub-expressions are
/// replaced by their precomputed values.
fn eval_with_aggs(
    expr: &Expr,
    env: &Env<'_>,
    agg_exprs: &[Expr],
    agg_values: &[Value],
) -> Result<Value> {
    if let Some(i) = agg_exprs.iter().position(|a| a == expr) {
        return Ok(agg_values[i].clone());
    }
    match expr {
        Expr::Binary { op, left, right } => {
            // Rebuild with substituted children via recursive evaluation.
            let l = eval_with_aggs(left, env, agg_exprs, agg_values)?;
            let r = eval_with_aggs(right, env, agg_exprs, agg_values)?;
            let le = Expr::Literal(l);
            let re = Expr::Literal(r);
            eval(&Expr::binary(*op, le, re), env)
        }
        Expr::Unary { op, operand } => {
            let v = eval_with_aggs(operand, env, agg_exprs, agg_values)?;
            eval(
                &Expr::Unary {
                    op: *op,
                    operand: Box::new(Expr::Literal(v)),
                },
                env,
            )
        }
        Expr::IsNull {
            expr: inner,
            negated,
        } => {
            let v = eval_with_aggs(inner, env, agg_exprs, agg_values)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        _ => eval(expr, env),
    }
}

/// Streaming aggregate accumulator.
enum AggAcc {
    Count(i64),
    CountExpr(i64),
    Sum(Option<Value>),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggAcc {
    fn new(expr: &Expr) -> Result<AggAcc> {
        let Expr::Function { name, args, star } = expr else {
            return Err(Error::internal("aggregate accumulator over non-function"));
        };
        let check_one_arg = || -> Result<()> {
            if *star || args.len() != 1 {
                return Err(Error::Analysis(format!("{name}() expects one argument")));
            }
            Ok(())
        };
        Ok(match name.as_str() {
            "count" if *star => AggAcc::Count(0),
            "count" => {
                check_one_arg()?;
                AggAcc::CountExpr(0)
            }
            "sum" => {
                check_one_arg()?;
                AggAcc::Sum(None)
            }
            "avg" => {
                check_one_arg()?;
                AggAcc::Avg { sum: 0.0, n: 0 }
            }
            "min" => {
                check_one_arg()?;
                AggAcc::Min(None)
            }
            "max" => {
                check_one_arg()?;
                AggAcc::Max(None)
            }
            other => return Err(Error::Analysis(format!("unknown aggregate {other}()"))),
        })
    }

    fn arg(expr: &Expr) -> &Expr {
        match expr {
            Expr::Function { args, .. } => &args[0],
            _ => unreachable!("checked in new()"),
        }
    }

    fn fold(&mut self, expr: &Expr, env: &Env<'_>) -> Result<()> {
        match self {
            AggAcc::Count(n) => *n += 1,
            AggAcc::CountExpr(n) => {
                if !eval(Self::arg(expr), env)?.is_null() {
                    *n += 1;
                }
            }
            AggAcc::Sum(acc) => {
                let v = eval(Self::arg(expr), env)?;
                if !v.is_null() {
                    *acc = Some(match acc.take() {
                        Some(cur) => cur.add(&v)?,
                        None => v,
                    });
                }
            }
            AggAcc::Avg { sum, n } => {
                let v = eval(Self::arg(expr), env)?;
                if !v.is_null() {
                    *sum += v.as_f64()?;
                    *n += 1;
                }
            }
            AggAcc::Min(acc) => {
                let v = eval(Self::arg(expr), env)?;
                if !v.is_null() {
                    let replace = acc.as_ref().is_none_or(|cur| v.cmp_total(cur).is_lt());
                    if replace {
                        *acc = Some(v);
                    }
                }
            }
            AggAcc::Max(acc) => {
                let v = eval(Self::arg(expr), env)?;
                if !v.is_null() {
                    let replace = acc.as_ref().is_none_or(|cur| v.cmp_total(cur).is_gt());
                    if replace {
                        *acc = Some(v);
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Result<Value> {
        Ok(match self {
            AggAcc::Count(n) | AggAcc::CountExpr(n) => Value::Int(*n),
            AggAcc::Sum(v) => v.clone().unwrap_or(Value::Null),
            AggAcc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            AggAcc::Min(v) | AggAcc::Max(v) => v.clone().unwrap_or(Value::Null),
        })
    }
}

fn build_create_table(
    name: &str,
    columns: &[bcrdb_sql::ast::ColumnDef],
    primary_key: &[String],
) -> Result<CatalogOp> {
    let cols: Vec<Column> = columns
        .iter()
        .map(|c| Column {
            name: c.name.clone(),
            dtype: c.dtype,
            nullable: c.nullable,
        })
        .collect();
    let mut pk: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| c.inline_pk)
        .map(|(i, _)| i)
        .collect();
    if !primary_key.is_empty() {
        if !pk.is_empty() {
            return Err(Error::Analysis(format!(
                "table {name}: both inline and table-level PRIMARY KEY given"
            )));
        }
        pk = primary_key
            .iter()
            .map(|n| {
                columns.iter().position(|c| &c.name == n).ok_or_else(|| {
                    Error::Analysis(format!("unknown PRIMARY KEY column {n} in table {name}"))
                })
            })
            .collect::<Result<_>>()?;
    }
    let mut schema = TableSchema::new(name, cols, pk)?;
    // PK columns are implicitly NOT NULL.
    for &i in &schema.primary_key.clone() {
        schema.columns[i].nullable = false;
    }
    Ok(CatalogOp::CreateTable(schema))
}
