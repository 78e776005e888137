//! Randomized-property tests over core invariants: codec round trips, SQL
//! render/parse round trips, Merkle proofs, value ordering laws, index
//! scans and planned scans vs full scans, predicate-lock coverage, and
//! MVCC visibility.
//!
//! The offline build cannot fetch `proptest`, so these use a small
//! deterministic xorshift generator: every run explores the same ~64
//! cases per property, and a failing case is reproducible from its seed.

use bcrdb::common::codec::{Decoder, Encoder};
use bcrdb::common::schema::{Column, DataType, TableSchema};
use bcrdb::common::value::Value;
use bcrdb::crypto::merkle::MerkleTree;
use bcrdb::storage::index::KeyRange;
use bcrdb::storage::snapshot::ScanMode;
use bcrdb::storage::table::Table;
use bcrdb::txn::context::{ScanPlan, TxnCtx};
use bcrdb::txn::ssi::{Flow, SsiManager};
use std::sync::Arc;

const CASES: u64 = 64;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.below((hi - lo) as u64) as i64)
    }

    fn value(&mut self) -> Value {
        match self.below(7) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 => Value::Int(self.next_u64() as i64),
            // Finite floats only: NaN breaks equality round trips by design.
            3 => Value::Float((self.range_i64(-1_000_000_000, 1_000_000_000) as f64) / 831.0),
            4 => {
                let len = self.below(24) as usize;
                let s: String = (0..len)
                    .map(|_| {
                        let chars = b"abcdefghijklmnopqrstuvwxyz 0123456789_'-";
                        chars[self.below(chars.len() as u64) as usize] as char
                    })
                    .collect();
                Value::Text(s)
            }
            5 => {
                let len = self.below(32) as usize;
                Value::Bytes((0..len).map(|_| self.next_u64() as u8).collect())
            }
            _ => Value::Timestamp(self.next_u64() as i64),
        }
    }
}

#[test]
fn codec_roundtrips_any_row() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let row: Vec<Value> = (0..rng.below(8)).map(|_| rng.value()).collect();
        let mut enc = Encoder::new();
        enc.put_row(&row);
        let bytes = enc.finish();
        let back = Decoder::new(&bytes).get_row().unwrap();
        assert_eq!(row, back, "seed {seed}");
    }
}

#[test]
fn value_ordering_is_total_and_antisymmetric() {
    use std::cmp::Ordering;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (a, b, c) = (rng.value(), rng.value(), rng.value());
        // Antisymmetry.
        assert_eq!(a.cmp_total(&b), b.cmp_total(&a).reverse(), "seed {seed}");
        // Transitivity (on a sorted triple).
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort();
        assert!(v[0].cmp_total(&v[1]) != Ordering::Greater, "seed {seed}");
        assert!(v[1].cmp_total(&v[2]) != Ordering::Greater, "seed {seed}");
        assert!(v[0].cmp_total(&v[2]) != Ordering::Greater, "seed {seed}");
    }
}

#[test]
fn merkle_proofs_verify_for_every_leaf() {
    for seed in 0..CASES / 4 {
        let mut rng = Rng::new(seed);
        let n_leaves = 1 + rng.below(23) as usize;
        let leaves: Vec<Vec<u8>> = (0..n_leaves)
            .map(|_| {
                let len = rng.below(16) as usize;
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect();
        let tree = MerkleTree::build(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i);
            assert!(
                MerkleTree::verify(&tree.root(), leaf, &proof),
                "seed {seed} leaf {i}"
            );
        }
    }
}

#[test]
fn sql_expression_render_parse_roundtrip() {
    use bcrdb::sql::ast::{BinaryOp, Expr, SelectItem, SelectStmt, Statement};
    use bcrdb::sql::{display, parse_expression};
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        // Non-negative literals: `-1` re-parses as unary negation of `1`,
        // which is semantically equal but structurally different.
        let a = rng.range_i64(0, 1000);
        let b = rng.range_i64(0, 1000);
        // `c_` prefix keeps the generated identifier out of keyword space.
        let t: String = {
            let len = 1 + rng.below(5) as usize;
            let body: String = (0..len)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            format!("c_{body}")
        };
        let expr = Expr::binary(
            BinaryOp::Add,
            Expr::binary(
                BinaryOp::Mul,
                Expr::Literal(Value::Int(a)),
                Expr::column(t.clone()),
            ),
            Expr::Literal(Value::Int(b)),
        );
        let stmt = Statement::Select(SelectStmt {
            projections: vec![SelectItem::Expr {
                expr: expr.clone(),
                alias: None,
            }],
            from: None,
            predicate: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        });
        let sql = display::statement_to_sql(&stmt);
        let reparsed = bcrdb::sql::parse_statement(&sql).unwrap();
        assert_eq!(stmt, reparsed, "seed {seed}: {sql}");
        // Expression fragment too.
        let fragment = &sql["SELECT ".len()..];
        let e = parse_expression(fragment).unwrap();
        assert_eq!(e, expr, "seed {seed}: {fragment}");
    }
}

#[test]
fn index_scan_equals_full_scan_filter() {
    for seed in 0..CASES / 2 {
        let mut rng = Rng::new(seed);
        let keys: Vec<i64> = (0..1 + rng.below(39))
            .map(|_| rng.range_i64(-50, 50))
            .collect();
        let lo = rng.range_i64(-60, 60);
        let width = rng.range_i64(0, 40);

        let mut schema = TableSchema::new(
            "t",
            vec![
                Column::new("k", DataType::Int),
                Column::new("seq", DataType::Int),
            ],
            vec![1], // pk on seq so duplicate k values are allowed
        )
        .unwrap();
        schema.add_index("idx_k", "k").unwrap();
        let table = Arc::new(Table::new(schema));
        let mgr = Arc::new(SsiManager::new());

        // Commit all rows in one transaction at block 1.
        let ctx = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        for (i, k) in keys.iter().enumerate() {
            ctx.insert(&table, vec![Value::Int(*k), Value::Int(i as i64)])
                .unwrap();
        }
        assert!(ctx
            .apply_commit(1, 0, Flow::OrderThenExecute)
            .is_committed());

        let hi = lo + width;
        let range = KeyRange::between(Value::Int(lo), Value::Int(hi));
        let reader = TxnCtx::read_only(&mgr, 1);
        let via_index: Vec<i64> = reader
            .scan(&table, &ScanPlan::index(0, range))
            .unwrap()
            .iter()
            .map(|r| r.data()[1].as_i64().unwrap())
            .collect();
        let via_scan: Vec<i64> = reader
            .scan(&table, &ScanPlan::Full)
            .unwrap()
            .iter()
            .filter(|r| {
                let k = r.data()[0].as_i64().unwrap();
                k >= lo && k <= hi
            })
            .map(|r| r.data()[1].as_i64().unwrap())
            .collect();
        assert_eq!(via_index, via_scan, "seed {seed}");
    }
}

/// ROADMAP item 1 oracle (b), short form: whatever access path the
/// planner picks for a generated predicate, scan + residual filter
/// returns exactly what a forced full scan + filter returns, and the
/// locks the scan registered cover every row it returned.
#[test]
fn planned_scan_equals_full_scan_and_locks_cover_it() {
    use bcrdb::common::error::Error;
    use bcrdb::engine::expr::{eval, Env, RowSchema};
    use bcrdb::engine::planner::plan_scan;
    use bcrdb::engine::TableStatsView;
    use bcrdb::sql::parse_expression;
    use bcrdb::storage::version::UNASSIGNED_ROW_ID;

    // t(id pk, g indexed, v unindexed): two indexes, one of them unique.
    let mut schema = TableSchema::new(
        "t",
        vec![
            Column::new("id", DataType::Int),
            Column::new("g", DataType::Int),
            Column::new("v", DataType::Int),
        ],
        vec![0],
    )
    .unwrap();
    schema.add_index("idx_g", "g").unwrap();
    let row_schema = RowSchema::for_table("t", &["id".into(), "g".into(), "v".into()]);

    /// `groups` is the number of distinct `g`/`v` values, `ids` of `id`s.
    fn atom(rng: &mut Rng, ids: i64, groups: i64) -> String {
        let (col, span) = [("id", ids), ("g", groups), ("v", groups)][rng.below(3) as usize];
        let c = |rng: &mut Rng| rng.range_i64(-2, span + 2);
        match rng.below(8) {
            0 => {
                // A narrow window, or now and then an inverted (empty) one.
                let lo = c(rng);
                let width = rng.range_i64(-2, span / 8 + 2);
                format!("{col} BETWEEN {lo} AND {}", lo + width)
            }
            1 => format!("{col} IN ({}, {}, {})", c(rng), c(rng), c(rng)),
            2 => format!("{} >= {col}", c(rng)),
            op => format!(
                "{col} {} {}",
                ["=", "=", "<", "<=", ">"][op as usize - 3],
                c(rng)
            ),
        }
    }
    fn predicate(rng: &mut Rng, ids: i64, groups: i64) -> String {
        let mut atom = || atom(rng, ids, groups);
        let (a, b, c) = (atom(), atom(), atom());
        match rng.below(7) {
            0 => a,
            1 => format!("{a} AND {b}"),
            2 => format!("{a} OR {b}"),
            3 => format!("({a} OR {b}) AND {c}"),
            4 => format!("{a} AND {b} AND {c}"),
            5 => format!("{a} OR {b} OR {c}"),
            // Two moderately selective ranges, one per index: the shape
            // the cost model intersects on a big table.
            _ => {
                let lo = rng.range_i64(0, ids);
                let g = rng.range_i64(0, groups / 4 + 1);
                format!("id BETWEEN {lo} AND {} AND g <= {g}", lo + ids / 6)
            }
        }
    }

    let mut kinds = [0usize; 4]; // full, single index, intersect, union
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let table = Arc::new(Table::new(schema.clone()));
        let mgr = Arc::new(SsiManager::new());
        let seeder = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        // Mostly small tables; every fourth one is big enough for the
        // cost model to prefer intersecting two indexes.
        let (committed, groups) = if seed % 4 == 3 {
            (2000, 40)
        } else {
            (1 + rng.below(60) as i64, 6)
        };
        for id in 0..committed {
            let row = vec![
                Value::Int(id),
                Value::Int(rng.range_i64(0, groups)),
                Value::Int(rng.range_i64(0, groups)),
            ];
            seeder.insert(&table, row).unwrap();
        }
        assert!(seeder
            .apply_commit(1, 0, Flow::OrderThenExecute)
            .is_committed());
        // Odd seeds plan from exact statistics, even ones from none.
        if seed % 2 == 1 {
            table.rebuild_stats(1);
        }
        let stats = TableStatsView::at(&table, &schema, 1);

        let sql = predicate(&mut rng, committed, groups);
        let pred = parse_expression(&sql).unwrap();
        let matching = |rows: Vec<bcrdb::txn::context::VisibleRow>| -> Vec<Vec<Value>> {
            rows.iter()
                .filter(|r| {
                    let env = Env {
                        schema: &row_schema,
                        row: r.data(),
                        params: &[],
                    };
                    eval(&pred, &env).unwrap().is_truthy()
                })
                .map(|r| r.data().to_vec())
                .collect()
        };

        // (mode, require_index): a SELECT and a write in the relaxed
        // flow, anything in the strict flow.
        for (mode, require_index) in [
            (ScanMode::Relaxed, false),
            (ScanMode::Relaxed, true),
            (ScanMode::Strict, true),
        ] {
            let case = format!("seed {seed} `{sql}` {mode:?} require_index={require_index}");
            let ctx = TxnCtx::begin(&mgr, 1, mode);
            // Own pending rows must come back through every path too.
            for id in committed..committed + rng.below(3) as i64 {
                let row = vec![Value::Int(id), Value::Int(id % groups), Value::Int(id % 5)];
                ctx.insert(&table, row).unwrap();
            }
            let choice =
                plan_scan(&schema, "t", Some(&pred), &[], &stats, None, require_index).unwrap();
            let kind = match &choice.plan {
                ScanPlan::Full => 0,
                ScanPlan::Intersect(parts) if parts.len() == 1 => 1,
                ScanPlan::Intersect(_) => 2,
                ScanPlan::Union(_) => 3,
            };
            kinds[kind] += 1;
            if mode == ScanMode::Strict && kind == 0 {
                // Where a full scan is not legal the scan says so.
                let err = ctx.scan(&table, &choice.plan).unwrap_err();
                assert!(matches!(err, Error::Determinism(_)), "{case}");
                ctx.rollback();
                continue;
            }
            let read = ctx.scan(&table, &choice.plan).expect(&case);

            // Every row the scan returned lies under one of its locks: a
            // concurrent insert of a row with the same indexed keys
            // conflicts with the reader.
            for row in &read {
                let writer = mgr.begin();
                let keys = [(0, row.data()[0].clone()), (1, row.data()[1].clone())];
                mgr.on_write(writer, "t", UNASSIGNED_ROW_ID, &keys);
                assert!(
                    mgr.out_conflicts(ctx.id).contains(&writer),
                    "{case}: no lock covers {:?} under {:?}",
                    row.data(),
                    choice.plan
                );
                mgr.abort(writer);
            }

            // The same context's forced full scan is the reference; in
            // the strict flow, where that is illegal, a relaxed twin with
            // the same pending rows is.
            let reference = if mode == ScanMode::Strict {
                let twin = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
                for own in read.iter().filter(|r| r.row_id == UNASSIGNED_ROW_ID) {
                    twin.insert(&table, own.data().to_vec()).unwrap();
                }
                let rows = twin.scan(&table, &ScanPlan::Full).unwrap();
                twin.rollback();
                rows
            } else {
                ctx.scan(&table, &ScanPlan::Full).unwrap()
            };
            assert_eq!(
                matching(read),
                matching(reference),
                "{case} via {:?}",
                choice.plan
            );
            ctx.rollback();
        }
    }
    assert!(
        kinds.iter().all(|n| *n > 0),
        "every plan kind must be exercised (full, index, intersect, union): {kinds:?}"
    );
}

#[test]
fn snapshot_visibility_is_monotone_per_version() {
    for seed in 0..CASES / 2 {
        let mut rng = Rng::new(seed);
        // Insert one row per "creator block" and check that a reader at
        // height h sees exactly the rows committed at blocks ≤ h.
        let creators: Vec<u64> = (0..1 + rng.below(19)).map(|_| 1 + rng.below(9)).collect();
        let query_height = rng.below(12);

        let schema =
            TableSchema::new("t", vec![Column::new("id", DataType::Int)], vec![0]).unwrap();
        let table = Arc::new(Table::new(schema));
        let mgr = Arc::new(SsiManager::new());
        let mut sorted = creators.clone();
        sorted.sort_unstable();
        for (i, block) in sorted.iter().enumerate() {
            let ctx = TxnCtx::begin(&mgr, block - 1, ScanMode::Relaxed);
            ctx.insert(&table, vec![Value::Int(i as i64)]).unwrap();
            assert!(ctx
                .apply_commit(*block, i as u32, Flow::OrderThenExecute)
                .is_committed());
        }
        let reader = TxnCtx::read_only(&mgr, query_height);
        let visible = reader.scan(&table, &ScanPlan::Full).unwrap().len();
        let expected = sorted.iter().filter(|b| **b <= query_height).count();
        assert_eq!(visible, expected, "seed {seed}");
    }
}

#[test]
fn writeset_hash_injective_on_content() {
    use bcrdb::chain::checkpoint::WriteSetHasher;
    use bcrdb::common::ids::RowId;
    let hash = |rows: &[(u8, i64)]| {
        let mut h = WriteSetHasher::new();
        for (i, (kind, v)) in rows.iter().enumerate() {
            h.add("t", kind % 3, RowId(i as u64), &[Value::Int(*v)]);
        }
        h.finish()
    };
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let gen = |rng: &mut Rng| -> Vec<(u8, i64)> {
            (0..1 + rng.below(9))
                .map(|_| (rng.next_u64() as u8, rng.range_i64(-100, 100)))
                .collect()
        };
        let rows_a = gen(&mut rng);
        let rows_b = gen(&mut rng);
        if rows_a == rows_b {
            assert_eq!(hash(&rows_a), hash(&rows_b), "seed {seed}");
        } else {
            assert_ne!(hash(&rows_a), hash(&rows_b), "seed {seed}");
        }
        // And always equal to itself.
        assert_eq!(hash(&rows_a), hash(&rows_a), "seed {seed}");
    }
}
