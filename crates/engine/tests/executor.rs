//! End-to-end tests of the SQL executor against the MVCC storage engine,
//! including the three query shapes of the paper's evaluation contracts
//! (simple insert, complex join+aggregate, group-by/order-by/limit).

use std::sync::Arc;

use bcrdb_common::error::Error;
use bcrdb_common::value::Value;
use bcrdb_engine::exec::{apply_catalog_op, Executor, StatementEffect};
use bcrdb_engine::procedures::ContractRegistry;
use bcrdb_engine::result::QueryResult;
use bcrdb_sql::parse_statement;
use bcrdb_storage::catalog::Catalog;
use bcrdb_storage::snapshot::ScanMode;
use bcrdb_txn::context::TxnCtx;
use bcrdb_txn::ssi::{Flow, SsiManager};

struct Db {
    mgr: Arc<SsiManager>,
    catalog: Catalog,
    contracts: ContractRegistry,
    certs: Arc<bcrdb_crypto::identity::CertificateRegistry>,
    height: u64,
    commit_pos: u32,
}

impl Db {
    fn new() -> Db {
        Db {
            mgr: Arc::new(SsiManager::new()),
            catalog: Catalog::new(),
            contracts: ContractRegistry::new(),
            certs: bcrdb_crypto::identity::CertificateRegistry::new(),
            height: 0,
            commit_pos: 0,
        }
    }

    /// Run statements in one transaction and commit it as its own block.
    fn run(&mut self, sql: &str) -> Vec<StatementEffect> {
        self.run_with(sql, &[])
    }

    fn run_with(&mut self, sql: &str, params: &[Value]) -> Vec<StatementEffect> {
        self.try_run(sql, params).expect("statement should succeed")
    }

    fn try_run(&mut self, sql: &str, params: &[Value]) -> Result<Vec<StatementEffect>, Error> {
        let ctx = TxnCtx::begin(&self.mgr, self.height, ScanMode::Relaxed);
        let stmts = bcrdb_sql::parse_statements(sql)?;
        let exec = Executor::new(&self.catalog, &ctx, params);
        let mut effects = Vec::new();
        for s in &stmts {
            match exec.execute(s) {
                Ok(e) => effects.push(e),
                Err(e) => {
                    ctx.rollback();
                    return Err(e);
                }
            }
        }
        let block = self.height + 1;
        let outcome = ctx.apply_commit(block, self.commit_pos, Flow::OrderThenExecute);
        self.commit_pos += 1;
        if !outcome.is_committed() {
            panic!("commit unexpectedly failed: {outcome:?}");
        }
        self.height = block;
        // Apply deferred DDL at the commit point, like the block processor.
        for e in &effects {
            if let StatementEffect::Catalog(op) = e {
                apply_catalog_op(&self.catalog, &self.contracts, &self.certs, op).unwrap();
            }
        }
        Ok(effects)
    }

    /// Read-only query at the current height.
    fn query(&self, sql: &str) -> QueryResult {
        self.query_with(sql, &[])
    }

    fn query_with(&self, sql: &str, params: &[Value]) -> QueryResult {
        let ctx = TxnCtx::read_only(&self.mgr, self.height);
        let stmt = parse_statement(sql).unwrap();
        let exec = Executor::new(&self.catalog, &ctx, params);
        match exec.execute(&stmt).unwrap() {
            StatementEffect::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

fn ints(r: &QueryResult) -> Vec<Vec<i64>> {
    r.rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    Value::Float(f) => *f as i64,
                    other => panic!("not numeric: {other:?}"),
                })
                .collect()
        })
        .collect()
}

fn seed_invoices(db: &mut Db) {
    db.run("CREATE TABLE suppliers (id INT PRIMARY KEY, name TEXT NOT NULL, region TEXT NOT NULL)");
    db.run(
        "CREATE TABLE invoices (id INT PRIMARY KEY, supplier_id INT NOT NULL, amount FLOAT NOT NULL)",
    );
    db.run("CREATE INDEX idx_inv_supplier ON invoices (supplier_id)");
    db.run(
        "INSERT INTO suppliers VALUES (1, 'acme', 'emea'), (2, 'globex', 'apac'), (3, 'initech', 'emea')",
    );
    db.run(
        "INSERT INTO invoices VALUES \
           (10, 1, 100.0), (11, 1, 50.0), (12, 2, 75.0), (13, 2, 25.0), (14, 3, 200.0)",
    );
}

#[test]
fn create_insert_select_roundtrip() {
    let mut db = Db::new();
    db.run("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
    db.run("INSERT INTO t VALUES (2, 'b'), (1, 'a')");
    let r = db.query("SELECT id, name FROM t");
    // No ORDER BY: deterministic row-id order (insertion order here).
    assert_eq!(r.columns, vec!["id", "name"]);
    assert_eq!(r.rows.len(), 2);
    let r = db.query("SELECT id FROM t ORDER BY id");
    assert_eq!(ints(&r), vec![vec![1], vec![2]]);
}

#[test]
fn insert_with_column_list_fills_nulls() {
    let mut db = Db::new();
    db.run("CREATE TABLE t (id INT PRIMARY KEY, a TEXT, b INT)");
    db.run("INSERT INTO t (id, b) VALUES (1, 42)");
    let r = db.query("SELECT a, b FROM t WHERE id = 1");
    assert_eq!(r.rows[0][0], Value::Null);
    assert_eq!(r.rows[0][1], Value::Int(42));
    // Arity mismatch is an error.
    assert!(db.try_run("INSERT INTO t (id, b) VALUES (2)", &[]).is_err());
    // NOT NULL violation is an error.
    db.run("CREATE TABLE u (id INT PRIMARY KEY, req TEXT NOT NULL)");
    assert!(db.try_run("INSERT INTO u (id) VALUES (1)", &[]).is_err());
}

#[test]
fn where_filtering_and_index_paths() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    // Point lookup on the PK index.
    let r = db.query("SELECT amount FROM invoices WHERE id = 12");
    assert_eq!(r.rows, vec![vec![Value::Float(75.0)]]);
    // Range on PK.
    let r = db.query("SELECT id FROM invoices WHERE id BETWEEN 11 AND 13 ORDER BY id");
    assert_eq!(ints(&r), vec![vec![11], vec![12], vec![13]]);
    // Secondary index equality.
    let r = db.query("SELECT id FROM invoices WHERE supplier_id = 2 ORDER BY id");
    assert_eq!(ints(&r), vec![vec![12], vec![13]]);
    // Residual predicate on top of the index.
    let r = db.query("SELECT id FROM invoices WHERE supplier_id = 1 AND amount > 60 ORDER BY id");
    assert_eq!(ints(&r), vec![vec![10]]);
    // Unindexed predicate → full scan still correct (relaxed mode).
    let r = db.query("SELECT id FROM invoices WHERE amount < 60 ORDER BY id");
    assert_eq!(ints(&r), vec![vec![11], vec![13]]);
}

#[test]
fn parameters_flow_through() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    let r = db.query_with(
        "SELECT id FROM invoices WHERE supplier_id = $1 AND amount >= $2 ORDER BY id",
        &[Value::Int(1), Value::Float(60.0)],
    );
    assert_eq!(ints(&r), vec![vec![10]]);
}

#[test]
fn join_inner_and_comma_styles() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    let r = db.query(
        "SELECT s.name, i.amount FROM invoices i JOIN suppliers s ON i.supplier_id = s.id \
         WHERE s.region = 'emea' ORDER BY i.amount DESC",
    );
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][0], Value::Text("initech".into()));
    assert_eq!(r.rows[0][1], Value::Float(200.0));

    // Comma join with the condition in WHERE (Table 3 style).
    let r2 = db.query(
        "SELECT s.name, i.amount FROM invoices i, suppliers s \
         WHERE i.supplier_id = s.id AND s.region = 'emea' ORDER BY i.amount DESC",
    );
    assert_eq!(r.rows, r2.rows);
}

#[test]
fn complex_join_aggregate_into_third_table() {
    // The shape of the paper's complex-join contract: aggregate a join and
    // write the result to another table.
    let mut db = Db::new();
    seed_invoices(&mut db);
    db.run("CREATE TABLE region_totals (region TEXT PRIMARY KEY, total FLOAT)");
    db.run(
        "INSERT INTO region_totals \
         SELECT s.region, SUM(i.amount) FROM invoices i JOIN suppliers s \
         ON i.supplier_id = s.id GROUP BY s.region",
    );
    let r = db.query("SELECT region, total FROM region_totals ORDER BY region");
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Text("apac".into()));
    assert_eq!(r.rows[0][1], Value::Float(100.0));
    assert_eq!(r.rows[1][0], Value::Text("emea".into()));
    assert_eq!(r.rows[1][1], Value::Float(350.0));
}

#[test]
fn group_by_having_order_limit() {
    // The shape of the complex-group contract: aggregates over subgroups,
    // ORDER BY + LIMIT picking the max.
    let mut db = Db::new();
    seed_invoices(&mut db);
    let r = db.query(
        "SELECT supplier_id, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean, \
                MIN(amount) AS lo, MAX(amount) AS hi \
         FROM invoices GROUP BY supplier_id \
         HAVING COUNT(*) > 1 ORDER BY total DESC LIMIT 1",
    );
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(1));
    assert_eq!(r.rows[0][1], Value::Int(2));
    assert_eq!(r.rows[0][2], Value::Float(150.0));
    assert_eq!(r.rows[0][3], Value::Float(75.0));
    assert_eq!(r.rows[0][4], Value::Float(50.0));
    assert_eq!(r.rows[0][5], Value::Float(100.0));
}

#[test]
fn aggregates_over_empty_and_whole_table() {
    let mut db = Db::new();
    db.run("CREATE TABLE t (id INT PRIMARY KEY, x INT)");
    let r = db.query("SELECT COUNT(*), SUM(x), AVG(x), MIN(x) FROM t");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[0][1], Value::Null);
    assert_eq!(r.rows[0][2], Value::Null);
    assert_eq!(r.rows[0][3], Value::Null);

    db.run("INSERT INTO t VALUES (1, 5), (2, NULL), (3, 7)");
    let r = db.query("SELECT COUNT(*), COUNT(x), SUM(x) FROM t");
    assert_eq!(r.rows[0][0], Value::Int(3));
    assert_eq!(r.rows[0][1], Value::Int(2), "COUNT(expr) skips NULLs");
    assert_eq!(r.rows[0][2], Value::Int(12));
    // Arithmetic over aggregates.
    let r = db.query("SELECT SUM(x) * 2 + COUNT(*) FROM t");
    assert_eq!(r.rows[0][0], Value::Int(27));
}

#[test]
fn update_and_delete_with_predicates() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    let effects = db.run("UPDATE invoices SET amount = amount + 10 WHERE supplier_id = 1");
    match &effects[0] {
        StatementEffect::Count(n) => assert_eq!(*n, 2),
        other => panic!("expected count, got {other:?}"),
    }
    let r = db.query("SELECT amount FROM invoices WHERE id = 10");
    assert_eq!(r.rows[0][0], Value::Float(110.0));

    let effects = db.run("DELETE FROM invoices WHERE amount < 40");
    match &effects[0] {
        StatementEffect::Count(n) => assert_eq!(*n, 1), // id 13 (25.0)
        other => panic!("expected count, got {other:?}"),
    }
    let r = db.query("SELECT COUNT(*) FROM invoices");
    assert_eq!(r.rows[0][0], Value::Int(4));

    // An inverted range selects nothing, for reads and writes alike (the
    // index used to panic on it).
    let r = db.query("SELECT id FROM invoices WHERE id BETWEEN 14 AND 10");
    assert!(r.rows.is_empty());
    let effects = db.run("DELETE FROM invoices WHERE id BETWEEN 14 AND 10");
    assert!(matches!(effects[0], StatementEffect::Count(0)));
}

#[test]
fn select_without_from_and_scalar_math() {
    let db = Db::new();
    let r = db.query("SELECT 1 + 2 * 3 AS x, 'a' || 'b' AS s");
    assert_eq!(r.columns, vec!["x", "s"]);
    assert_eq!(r.rows, vec![vec![Value::Int(7), Value::Text("ab".into())]]);
}

#[test]
fn order_by_alias_and_multiple_keys() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    let r =
        db.query("SELECT supplier_id AS sid, amount FROM invoices ORDER BY sid DESC, amount ASC");
    assert_eq!(r.rows[0][0], Value::Int(3));
    assert_eq!(r.rows[1], vec![Value::Int(2), Value::Float(25.0)]);
    assert_eq!(r.rows[2], vec![Value::Int(2), Value::Float(75.0)]);
}

#[test]
fn wildcard_projections() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    let r = db.query("SELECT * FROM suppliers ORDER BY id LIMIT 1");
    assert_eq!(r.columns, vec!["id", "name", "region"]);
    let r = db.query(
        "SELECT i.*, s.name FROM invoices i JOIN suppliers s ON i.supplier_id = s.id \
         WHERE i.id = 10",
    );
    assert_eq!(r.columns, vec!["id", "supplier_id", "amount", "name"]);
    assert_eq!(r.rows[0][3], Value::Text("acme".into()));
}

#[test]
fn ddl_is_deferred_to_commit() {
    let mut db = Db::new();
    // Within run(), the CatalogOp is applied after commit, so the table
    // becomes queryable afterwards.
    let effects = db.run("CREATE TABLE t (id INT PRIMARY KEY)");
    assert!(matches!(effects[0], StatementEffect::Catalog(_)));
    assert!(db.catalog.get("t").is_ok());
    db.run("DROP TABLE t");
    assert!(db.catalog.get("t").is_err());
    // DROP of a missing table fails at apply; IF EXISTS succeeds.
    db.run("DROP TABLE IF EXISTS t");
}

#[test]
fn snapshot_reads_are_stable_under_concurrent_commits() {
    let mut db = Db::new();
    db.run("CREATE TABLE t (id INT PRIMARY KEY, x INT)");
    db.run("INSERT INTO t VALUES (1, 10)");
    let h1 = db.height;
    db.run("UPDATE t SET x = 20 WHERE id = 1");

    // A reader pinned at the old height sees the old value.
    let ctx = TxnCtx::read_only(&db.mgr, h1);
    let exec = Executor::new(&db.catalog, &ctx, &[]);
    let r = match exec
        .execute(&parse_statement("SELECT x FROM t WHERE id = 1").unwrap())
        .unwrap()
    {
        StatementEffect::Rows(r) => r,
        other => panic!("{other:?}"),
    };
    assert_eq!(r.rows[0][0], Value::Int(10));
    // Current height sees the new value.
    assert_eq!(
        db.query("SELECT x FROM t WHERE id = 1").rows[0][0],
        Value::Int(20)
    );
}

#[test]
fn error_paths_surface_cleanly() {
    let mut db = Db::new();
    db.run("CREATE TABLE t (id INT PRIMARY KEY, x INT)");
    db.run("INSERT INTO t VALUES (1, 0)");
    assert!(matches!(
        db.try_run("SELECT * FROM missing", &[]),
        Err(Error::NotFound(_))
    ));
    // Column resolution is evaluated per-row, so a populated table is
    // needed for the error to surface.
    assert!(matches!(
        db.try_run("SELECT zzz FROM t", &[]),
        Err(Error::Analysis(_))
    ));
    assert!(matches!(
        db.try_run("INSERT INTO t VALUES (9, 'not an int')", &[]),
        Err(Error::Constraint(_))
    ));
    assert!(matches!(
        db.try_run("UPDATE t SET zzz = 1 WHERE id = 1", &[]),
        Err(Error::Analysis(_))
    ));
    assert!(matches!(
        db.try_run("SELECT * FROM t GROUP BY id", &[]),
        Err(Error::Analysis(_)),
    ));
    // Division by zero inside a query is a type error.
    assert!(matches!(
        db.try_run("SELECT 1 / x FROM t WHERE id = 1", &[]),
        Err(Error::Type(_))
    ));
}

#[test]
fn history_provenance_via_executor() {
    let mut db = Db::new();
    db.run("CREATE TABLE inv (id INT PRIMARY KEY, amt INT)");
    db.run("INSERT INTO inv VALUES (1, 100)");
    db.run("UPDATE inv SET amt = 150 WHERE id = 1");
    db.run("UPDATE inv SET amt = 175 WHERE id = 1");

    // All three versions visible through HISTORY, oldest first.
    let r = db.query(
        "SELECT h.amt, h._creator_block, h._deleter_block FROM HISTORY(inv) h \
         WHERE h.id = 1 ORDER BY h._creator_block",
    );
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][0], Value::Int(100));
    assert_eq!(r.rows[2][0], Value::Int(175));
    assert_eq!(r.rows[2][2], Value::Null, "live version has no deleter");

    // Historical filter: versions live at block 2.
    let r = db.query(
        "SELECT h.amt FROM HISTORY(inv) h WHERE h._creator_block <= 2 AND \
         (h._deleter_block IS NULL OR h._deleter_block > 2) ORDER BY h.amt",
    );
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(100));
}

#[test]
fn contract_invocation_through_registry() {
    let mut db = Db::new();
    db.run("CREATE TABLE accounts (id INT PRIMARY KEY, balance FLOAT NOT NULL)");
    db.run(
        "CREATE FUNCTION transfer(src INT, dst INT, amt FLOAT) AS $$ \
           UPDATE accounts SET balance = balance - $3 WHERE id = $1; \
           UPDATE accounts SET balance = balance + $3 WHERE id = $2 \
         $$",
    );
    db.run("INSERT INTO accounts VALUES (1, 100.0), (2, 50.0)");

    let ctx = TxnCtx::begin(&db.mgr, db.height, ScanMode::Relaxed);
    let inv = bcrdb_engine::procedures::Invocation::new(
        "transfer",
        vec![Value::Int(1), Value::Int(2), Value::Float(30.0)],
    );
    db.contracts.invoke(&db.catalog, &ctx, &inv).unwrap();
    assert!(ctx
        .apply_commit(db.height + 1, 99, Flow::OrderThenExecute)
        .is_committed());
    db.height += 1;

    let r = db.query("SELECT balance FROM accounts ORDER BY id");
    assert_eq!(r.rows[0][0], Value::Float(70.0));
    assert_eq!(r.rows[1][0], Value::Float(80.0));
}

// ------------------------------------------------------ EXPLAIN goldens
//
// Golden plan snapshots: the full EXPLAIN text for the planner's
// signature shapes, with exact statistics sealed the way the node's
// commit-thread fold would. The estimates are pure functions of the
// sealed stats, so these strings are byte-identical on every replica —
// which is the whole determinism story (the chosen ranges double as SSI
// predicate locks).

impl Db {
    /// Seal exact planner statistics for every table at the current
    /// height, standing in for the node's commit-time fold.
    fn analyze(&self) {
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.get(&name) {
                t.rebuild_stats(self.height);
            }
        }
    }

    /// EXPLAIN output lines for a statement.
    fn explain(&self, sql: &str) -> Vec<String> {
        let r = self.query(&format!("EXPLAIN {sql}"));
        assert_eq!(r.columns, vec!["plan".to_string()]);
        r.rows
            .iter()
            .map(|row| match &row[0] {
                Value::Text(s) => s.clone(),
                other => panic!("plan line is not text: {other:?}"),
            })
            .collect()
    }
}

/// 200 rows: `a` cycles over 20 values (10 rows each), `b` over 10
/// values (20 rows each) — big enough that index plans beat the
/// 200-row sequential scan.
fn seed_items(db: &mut Db) {
    db.run("CREATE TABLE items (id INT PRIMARY KEY, a INT NOT NULL, b INT NOT NULL)");
    db.run("CREATE INDEX idx_items_a ON items (a)");
    db.run("CREATE INDEX idx_items_b ON items (b)");
    for chunk in 0..10 {
        let rows: Vec<String> = (0..20)
            .map(|j| {
                let i = chunk * 20 + j;
                format!("({i}, {}, {})", i % 20, i / 20)
            })
            .collect();
        db.run(&format!("INSERT INTO items VALUES {}", rows.join(", ")));
    }
}

#[test]
fn explain_index_union_golden() {
    let mut db = Db::new();
    seed_items(&mut db);
    db.analyze();
    let before = db.catalog.plans_multi_index();
    // `id = 10 OR id = 150` used to full-scan; the planner now probes
    // the primary index once per disjunct and unions the row ids.
    assert_eq!(
        db.explain("SELECT id FROM items WHERE id = 10 OR id = 150"),
        vec![
            "Project (rows=2)",
            "  Filter (rows=2)",
            "    IndexUnion items [id = 10 OR id = 150] (est=2 actual=2)",
        ],
    );
    assert_eq!(db.catalog.plans_multi_index(), before + 1);
    // One disjunct no index can answer (never true, so the same two
    // rows come back) and the whole OR falls back to the full scan: the
    // union is chosen per statement, not assumed for every OR.
    assert_eq!(
        db.explain("SELECT id FROM items WHERE id = 10 OR id = 150 OR a + b < -1"),
        vec![
            "Project (rows=2)",
            "  Filter (rows=2)",
            "    SeqScan items (est=200 actual=200)",
        ],
    );
    assert_eq!(db.catalog.plans_multi_index(), before + 1);
}

#[test]
fn explain_covering_aggregate_golden() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    db.analyze();
    let before = db.catalog.plans_covering();
    assert_eq!(
        db.explain("SELECT COUNT(supplier_id) FROM invoices WHERE supplier_id = 1"),
        vec![
            "Aggregate (rows=1)",
            "  Filter (rows=2)",
            "    CoveringIndexScan invoices [supplier_id = 1] (est=2 actual=2)",
        ],
    );
    assert_eq!(db.catalog.plans_covering(), before + 1);
    // Consuming a column the index does not carry costs the heap visit.
    assert_eq!(
        db.explain("SELECT COUNT(id) FROM invoices WHERE supplier_id = 1"),
        vec![
            "Aggregate (rows=1)",
            "  Filter (rows=2)",
            "    IndexScan invoices [supplier_id = 1] (est=2 actual=2)",
        ],
    );
    assert_eq!(db.catalog.plans_covering(), before + 1);
}

#[test]
fn explain_sort_merge_join_golden() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    db.analyze();
    // ORDER BY on the join key credits the sort-merge plan with the
    // output sort it gets for free.
    assert_eq!(
        db.explain(
            "SELECT s.name, i.amount FROM invoices i JOIN suppliers s \
             ON i.supplier_id = s.id ORDER BY i.supplier_id",
        ),
        vec![
            "Sort (rows=5)",
            "  Project (rows=5)",
            "    SortMergeJoin s [id] (est=5 actual=5)",
            "      SeqScan i (est=5 actual=5)",
            "      SeqScan s (rows=3)",
        ],
    );
}

#[test]
fn explain_index_intersection_golden() {
    let mut db = Db::new();
    // Each conjunct alone leaves enough rows that probing both indexes
    // and intersecting row ids is cheaper than faulting the heap behind
    // either one.
    seed_items(&mut db);
    db.analyze();
    assert_eq!(
        db.explain("SELECT id FROM items WHERE a = 1 AND b = 2"),
        vec![
            "Project (rows=1)",
            "  Filter (rows=1)",
            "    IndexIntersect items [a = 1 AND b = 2] (est=1 actual=1)",
        ],
    );
}

#[test]
fn explain_estimates_track_sealed_stats_not_live_rows() {
    let mut db = Db::new();
    seed_invoices(&mut db);
    db.analyze();
    let with_stats = db.explain("SELECT amount FROM invoices WHERE supplier_id = 2");
    assert_eq!(
        with_stats,
        vec![
            "Project (rows=2)",
            "  Filter (rows=2)",
            "    IndexScan invoices [supplier_id = 2] (est=2 actual=2)",
        ],
    );
    // Without any sealed summary the planner falls back to the default
    // selectivities — still deterministic, just coarser.
    let mut fresh = Db::new();
    seed_invoices(&mut fresh);
    let no_stats = fresh.explain("SELECT amount FROM invoices WHERE supplier_id = 2");
    assert_eq!(no_stats.len(), 3);
    assert!(no_stats[2].contains("IndexScan invoices [supplier_id = 2]"));
}
