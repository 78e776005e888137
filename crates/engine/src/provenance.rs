//! Provenance queries (§4.2, Table 3).
//!
//! The paper introduces a special read-only query class that "can see all
//! committed rows present in tables irrespective of whether it is inactive
//! (i.e., marked with xmax) or active". Here that is the `HISTORY(table)`
//! table function: it scans *every committed version* up to the reader's
//! snapshot height and exposes five system columns alongside the table's
//! own columns:
//!
//! | column           | meaning                                          |
//! |------------------|--------------------------------------------------|
//! | `_row_id`        | logical row identity across versions             |
//! | `xmin`           | local id of the creating transaction             |
//! | `xmax`           | local id of the deleting transaction (or NULL)   |
//! | `_creator_block` | block that committed this version                |
//! | `_deleter_block` | block that deleted this version (or NULL)        |
//!
//! Joining `HISTORY(t)` with the node's ledger table (which maps local
//! transaction ids to users, contracts and block numbers) reproduces the
//! audit queries of Table 3.

use bcrdb_common::error::Result;
use bcrdb_common::value::{Row, Value};
use bcrdb_sql::ast::TableRef;
use bcrdb_storage::catalog::Catalog;
use bcrdb_txn::context::TxnCtx;

use crate::expr::RowSchema;

/// Names of the system columns appended by `HISTORY(t)`.
pub const SYSTEM_COLUMN_NAMES: [&str; 5] = [
    "_row_id",
    "xmin",
    "xmax",
    "_creator_block",
    "_deleter_block",
];

/// Scan the full committed version history of a table.
pub fn history_scan(
    catalog: &Catalog,
    ctx: &TxnCtx,
    tref: &TableRef,
) -> Result<(RowSchema, Vec<Row>)> {
    let table = catalog.get(&tref.name)?;
    let alias = tref.effective_name().to_string();
    let table_schema = table.schema();

    let mut names: Vec<String> = table_schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    names.extend(SYSTEM_COLUMN_NAMES.iter().map(|s| s.to_string()));
    let schema = RowSchema::for_table(&alias, &names);

    let height = ctx.snapshot.height;
    let mut keyed: Vec<((u64, u64), Row)> = Vec::new();
    for version in table.all_versions() {
        let st = version.state();
        if st.aborted {
            continue;
        }
        let Some(creator) = st.creator_block else {
            continue;
        };
        if creator > height {
            continue;
        }
        let mut row = version.data.clone();
        row.push(Value::Int(st.row_id.0 as i64));
        row.push(Value::Int(version.xmin.0 as i64));
        row.push(match st.xmax_committed {
            // Deletions beyond the snapshot height are not yet visible.
            Some(tx) if st.deleter_block.is_some_and(|db| db <= height) => Value::Int(tx.0 as i64),
            _ => Value::Null,
        });
        row.push(Value::Int(creator as i64));
        row.push(match st.deleter_block {
            Some(db) if db <= height => Value::Int(db as i64),
            _ => Value::Null,
        });
        keyed.push(((st.row_id.0, creator), row));
    }
    // Deterministic order: by logical row, then by version age.
    keyed.sort_by_key(|(k, _)| *k);
    Ok((schema, keyed.into_iter().map(|(_, r)| r).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_common::schema::{Column, DataType, TableSchema};
    use bcrdb_storage::snapshot::ScanMode;
    use bcrdb_txn::context::ScanPlan;
    use bcrdb_txn::ssi::{Flow, SsiManager};
    use std::sync::Arc;

    fn setup() -> (Arc<SsiManager>, Catalog) {
        let mgr = Arc::new(SsiManager::new());
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableSchema::new(
                    "inv",
                    vec![
                        Column::new("id", DataType::Int),
                        Column::new("amt", DataType::Int),
                    ],
                    vec![0],
                )
                .unwrap(),
            )
            .unwrap();
        (mgr, catalog)
    }

    fn tref() -> TableRef {
        TableRef {
            name: "inv".into(),
            alias: Some("h".into()),
            history: true,
        }
    }

    #[test]
    fn history_exposes_all_versions_with_system_columns() {
        let (mgr, catalog) = setup();
        let table = catalog.get("inv").unwrap();

        // Block 1: insert. Block 2: update.
        let t1 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        assert!(t1.apply_commit(1, 0, Flow::OrderThenExecute).is_committed());
        let t2 = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let target = t2.scan(&table, &ScanPlan::Full).unwrap()[0].clone();
        t2.update(&table, &target, vec![Value::Int(1), Value::Int(150)])
            .unwrap();
        assert!(t2.apply_commit(2, 0, Flow::OrderThenExecute).is_committed());

        let reader = TxnCtx::read_only(&mgr, 2);
        let (schema, rows) = history_scan(&catalog, &reader, &tref()).unwrap();
        assert_eq!(schema.arity(), 2 + 5);
        assert_eq!(rows.len(), 2, "both versions visible to provenance");
        // Row layout: id, amt, _row_id, xmin, xmax, _creator_block,
        // _deleter_block. First version: created at 1, deleted at 2.
        assert_eq!(rows[0][1], Value::Int(100));
        assert_eq!(rows[0][4], Value::Int(t2.id.0 as i64)); // xmax
        assert_eq!(rows[0][5], Value::Int(1)); // _creator_block
        assert_eq!(rows[0][6], Value::Int(2)); // _deleter_block
                                               // Second version: created at 2, live.
        assert_eq!(rows[1][1], Value::Int(150));
        assert_eq!(rows[1][4], Value::Null);
        assert_eq!(rows[1][6], Value::Null);
        // Same logical row id for both versions.
        assert_eq!(rows[0][2], rows[1][2]);
    }

    #[test]
    fn history_respects_snapshot_height() {
        let (mgr, catalog) = setup();
        let table = catalog.get("inv").unwrap();
        let t1 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        assert!(t1.apply_commit(1, 0, Flow::OrderThenExecute).is_committed());
        let t2 = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let target = t2.scan(&table, &ScanPlan::Full).unwrap()[0].clone();
        t2.delete(&table, &target).unwrap();
        assert!(t2.apply_commit(2, 0, Flow::OrderThenExecute).is_committed());

        // At height 1 the deletion is not visible yet: xmax/deleter NULL.
        let r1 = TxnCtx::read_only(&mgr, 1);
        let (_, rows) = history_scan(&catalog, &r1, &tref()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][4], Value::Null);
        assert_eq!(rows[0][6], Value::Null);
        // At height 2 the full lifecycle is visible.
        let r2 = TxnCtx::read_only(&mgr, 2);
        let (_, rows) = history_scan(&catalog, &r2, &tref()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][6], Value::Int(2));
        // At height 0 nothing existed.
        let r0 = TxnCtx::read_only(&mgr, 0);
        let (_, rows) = history_scan(&catalog, &r0, &tref()).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn aborted_and_pending_versions_hidden() {
        let (mgr, catalog) = setup();
        let table = catalog.get("inv").unwrap();
        let t1 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        t1.rollback();
        let t2 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t2.insert(&table, vec![Value::Int(2), Value::Int(2)])
            .unwrap();
        // t2 still pending.
        let r = TxnCtx::read_only(&mgr, 5);
        let (_, rows) = history_scan(&catalog, &r, &tref()).unwrap();
        assert!(rows.is_empty());
    }
}
