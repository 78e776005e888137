//! Stage 2 of the block processor: the serial committing phase
//! (§3.3.3, §3.4.3) — one loop over the block's transactions, in block
//! order, on the commit thread.
//!
//! Each transaction is decided by the gate (`gate_one`, via
//! `TxnCtx::validate_commit`): SSI commit check, primary-key check
//! against storage, old-version deletion with ww-loser dooming, batched
//! row-id reservation, catalog-op application. A committed transaction's
//! write set is then published (`ApplyPlan::execute_all`) *before* the
//! next transaction is decided, so same-block predecessors are live in
//! storage and `Table::committed_pk_conflicts` is the only primary-key
//! check there is.
//!
//! Publishing inline is deliberate. It is ~0.07 ms of a ~0.35 ms stage
//! on a write-heavy block, less than handing the work to another thread
//! costs, and deferring it would need a second primary-key mechanism for
//! the rows not yet published (DESIGN.md, "The commit path", has the
//! measurements).
//!
//! The whole block is applied before `commit_core` returns — and so
//! before the committed height advances and the next block's parked
//! executions are released — so readers at height N never observe a
//! half-applied block N.

use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use bcrdb_chain::block::Block;
use bcrdb_chain::ledger::{LedgerRecord, TxStatus};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::TxId;
use bcrdb_engine::exec::CatalogOp;
use bcrdb_engine::procedures::ContractRegistry;
use bcrdb_sql::validate::DeterminismRules;
use bcrdb_storage::catalog::Catalog;
use bcrdb_storage::stats::StatsDelta;
use bcrdb_txn::context::{ApplyPlan, WriteRecord};
use bcrdb_txn::ssi::Flow;

use crate::exec_pool::ExecTask;
use crate::node::Node;

/// Stage 2: decide and apply every transaction in block order. With
/// `serial_execution` (the §5.1 Ethereum-style baseline) each transaction
/// is also *executed* here, inline, immediately before its commit point.
/// Everything deferrable to stage 3 is returned — the ledger records, the
/// write-set summary and the time spent in inline execution (µs; zero
/// unless `serial_execution`). The caller decides when to advance the
/// committed height.
pub(crate) fn commit_core(
    node: &Arc<Node>,
    block: &Arc<Block>,
) -> (Vec<LedgerRecord>, Vec<WriteRecord>, u64) {
    // bcrdb-lint: allow(wall-clock, reason = "metrics timing only")
    let t0 = Instant::now();
    let flow = node.config.flow;
    let exec_height = block.number - 1;
    let mut records = Vec::with_capacity(block.txs.len());
    let mut writes: Vec<WriteRecord> = Vec::new();
    let mut deltas: Vec<StatsDelta> = Vec::new();
    let mut exec_us = 0u64;
    let mut apply_us = 0u64;
    for (i, tx) in block.txs.iter().enumerate() {
        if node.config.serial_execution {
            let snap = effective_snapshot(tx, flow, exec_height);
            if !node.is_processed(&tx.id) && snap <= exec_height && node.env.slots.try_claim(tx.id)
            {
                // bcrdb-lint: allow(wall-clock, reason = "metrics timing only")
                let te = Instant::now();
                node.pool.run_inline(ExecTask {
                    tx: Arc::new(tx.clone()),
                    snapshot_height: snap,
                    mode: bcrdb_storage::snapshot::ScanMode::Relaxed,
                });
                exec_us += te.elapsed().as_micros() as u64;
            }
        }
        let (record, plan) = gate_one(node, block, i as u32, tx, flow);
        node.mark_processed(tx.id);
        records.push(record);
        if let Some(mut plan) = plan {
            deltas.append(&mut plan.stats);
            // bcrdb-lint: allow(wall-clock, reason = "metrics timing only")
            let ta = Instant::now();
            writes.extend(plan.execute_all());
            apply_us += ta.elapsed().as_micros() as u64;
        }
    }
    node.env.metrics.on_apply_stage(apply_us);
    // Fold and seal statistics once the block is applied but before the
    // caller advances the committed height: a reader at snapshot N must
    // see the summary sealed at N, on every replica.
    fold_stats(node, block.number, deltas);
    node.env
        .metrics
        .on_commit_stage((t0.elapsed().as_micros() as u64).saturating_sub(exec_us));
    (records, writes, exec_us)
}

/// Fold the block's statistics deltas into the per-table statistics and
/// seal a summary at the block height, on the commit thread in block
/// order — the stats ride the same deterministic path as the writes, so
/// every replica plans queries from identical numbers. Tables whose
/// statistics were marked dirty by DDL in this block (CREATE INDEX adds
/// a tracked column with no counts yet) are rebuilt exactly from the
/// heap, which also seals them.
fn fold_stats(node: &Arc<Node>, block_number: u64, deltas: Vec<StatsDelta>) {
    let mut touched: Vec<String> = Vec::new();
    for delta in &deltas {
        // A table dropped later in the same block may be gone; its
        // statistics went with it.
        if let Ok(table) = node.env.catalog.get(&delta.table) {
            table.stats_apply(delta);
            if !touched.contains(&delta.table) {
                touched.push(delta.table.clone());
            }
        }
    }
    for name in node.env.catalog.table_names() {
        if let Ok(table) = node.env.catalog.get(&name) {
            if table.stats_dirty() {
                table.rebuild_stats(block_number);
                node.env.metrics.on_stats_rebuild();
                touched.retain(|t| *t != name);
            }
        }
    }
    for name in touched {
        if let Ok(table) = node.env.catalog.get(&name) {
            table.stats_seal(block_number);
        }
    }
}

/// The snapshot height a transaction executes at under `flow`.
pub(crate) fn effective_snapshot(tx: &Transaction, flow: Flow, exec_height: u64) -> u64 {
    match flow {
        Flow::OrderThenExecute => exec_height,
        Flow::ExecuteOrderParallel => tx.snapshot_height.unwrap_or(exec_height),
    }
}

/// Serially decide one transaction (§3.3.3): the commit order is the order
/// within the block, and every decision is a pure function of deterministic
/// state — identical on all honest nodes. Returns the ledger record plus,
/// when committed, the apply plan, which the caller executes before
/// deciding the next transaction.
fn gate_one(
    node: &Arc<Node>,
    block: &Arc<Block>,
    index: u32,
    tx: &Transaction,
    flow: Flow,
) -> (LedgerRecord, Option<ApplyPlan>) {
    // bcrdb-lint: allow(wall-clock, reason = "commit_time_ms is node-local by design; state_hash() and the determinism suite exclude it")
    let now_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0);
    let base = |txid: TxId, status: TxStatus| LedgerRecord {
        block: block.number,
        tx_index: index,
        global_id: tx.id,
        user: tx.user.clone(),
        contract: tx.payload.contract.clone(),
        txid,
        status,
        commit_time_ms: now_ms,
    };

    if node.is_processed(&tx.id) {
        // A pre-dispatched duplicate may have parked an execution result
        // before the original committed; discard it so the slot table
        // and the SSI record cannot leak (its writes never commit).
        if let Some(d) = node.env.slots.remove(&tx.id) {
            d.ctx.rollback();
        }
        return (
            base(
                TxId::INVALID,
                TxStatus::Aborted("duplicate transaction identifier".into()),
            ),
            None,
        );
    }
    let snap = effective_snapshot(tx, flow, block.number - 1);
    if snap > block.number - 1 {
        return (
            base(
                TxId::INVALID,
                TxStatus::Aborted(format!(
                    "snapshot height {snap} is beyond block {}",
                    block.number
                )),
            ),
            None,
        );
    }
    let Some(done) = node.env.slots.take_done(&tx.id) else {
        return (
            base(
                TxId::INVALID,
                TxStatus::Aborted("execution result missing".into()),
            ),
            None,
        );
    };
    let txid = done.ctx.id;

    // Deferred DDL must be applicable before we commit data writes.
    if let Err(e) = validate_catalog_ops(
        &node.env.catalog,
        &node.env.contracts,
        &done.catalog_ops,
        flow,
    ) {
        done.ctx.rollback();
        return (
            base(txid, TxStatus::Aborted(format!("ddl rejected: {e}"))),
            None,
        );
    }

    match done.ctx.validate_commit(block.number, index, flow) {
        Ok(plan) => {
            for op in &done.catalog_ops {
                if let Err(e) = node.apply_catalog_op(op) {
                    // Validated above; failure here is a bug, not a user
                    // error — surface loudly but deterministically.
                    eprintln!(
                        "[{}] internal: catalog op failed after validation: {e}",
                        node.config.name
                    );
                }
            }
            (base(txid, TxStatus::Committed), Some(plan))
        }
        Err(reason) => (base(txid, TxStatus::Aborted(reason.to_string())), None),
    }
}

fn validate_catalog_ops(
    catalog: &Catalog,
    contracts: &ContractRegistry,
    ops: &[CatalogOp],
    flow: Flow,
) -> Result<()> {
    let rules = match flow {
        Flow::OrderThenExecute => DeterminismRules::order_then_execute(),
        Flow::ExecuteOrderParallel => DeterminismRules::execute_order_parallel(),
    };
    for op in ops {
        match op {
            CatalogOp::CreateTable(schema) => {
                if catalog.contains(&schema.name) {
                    return Err(Error::AlreadyExists(format!("table {}", schema.name)));
                }
            }
            CatalogOp::CreateIndex {
                table,
                index,
                column,
            } => {
                let t = catalog.get(table)?;
                let schema = t.schema();
                if schema.column_index(column).is_none() {
                    return Err(Error::NotFound(format!("column {column} of {table}")));
                }
                if schema.indexes.iter().any(|i| i.name == *index) {
                    return Err(Error::AlreadyExists(format!("index {index}")));
                }
            }
            CatalogOp::DropTable { name, if_exists } => {
                if !catalog.contains(name) && !*if_exists {
                    return Err(Error::NotFound(format!("table {name}")));
                }
            }
            CatalogOp::CreateFunction(def) => {
                ContractRegistry::validate(def, &rules)?;
                if contracts.get(&def.name).is_some() && !def.or_replace {
                    return Err(Error::AlreadyExists(format!("contract {}", def.name)));
                }
            }
            CatalogOp::DropFunction { name } => {
                if contracts.get(name).is_none() {
                    return Err(Error::NotFound(format!("contract {name}")));
                }
            }
            // Certificate operations are idempotent registrations.
            CatalogOp::RegisterCert(_) | CatalogOp::RevokeCert { .. } => {}
        }
    }
    Ok(())
}
