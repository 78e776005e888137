//! The executor pool: concurrent transaction execution.
//!
//! The paper assigns a PostgreSQL backend per transaction; here a fixed
//! pool of worker threads plays that role. A worker authenticates the
//! invoker (signature + access policy), executes the contract inside a
//! fresh [`TxnCtx`] at the transaction's snapshot height, and parks the
//! result in the [`SlotTable`] where the block processor's serial commit
//! phase picks it up.
//!
//! EO-flow transactions whose snapshot height lies above the node's
//! committed height wait (§3.4.1: "the transaction would start executing
//! once the node completes processing all blocks and transactions up to
//! the specified snapshot-height"); the node re-releases them as blocks
//! commit.
//!
//! Lifetime: the pool owns the task channel's only sender, and the
//! workers own only the environment and the parking map — never the
//! pool, or they would keep their own channel open. Dropping the node's
//! pool therefore ends every worker and frees the node's committed state
//! (`ExecEnv`: catalog, SSI manager, contracts).

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::{AbortReason, Error, Result};
use bcrdb_common::ids::{BlockHeight, GlobalTxId};
use bcrdb_common::value::Value;
use bcrdb_crypto::identity::{Certificate, CertificateRegistry, Role};
use bcrdb_engine::access::AccessController;
use bcrdb_engine::exec::{CatalogOp, StatementEffect};
use bcrdb_engine::procedures::{ContractRegistry, Invocation};
use bcrdb_storage::catalog::Catalog;
use bcrdb_storage::snapshot::ScanMode;
use bcrdb_txn::context::TxnCtx;
use bcrdb_txn::ssi::SsiManager;
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::metrics::NodeMetrics;
use crate::slots::{ExecDone, SlotTable};

/// Context handed to native (built-in) contracts.
pub struct NativeCtx<'a> {
    /// Table catalog.
    pub catalog: &'a Catalog,
    /// Deployed-contract registry.
    pub contracts: &'a ContractRegistry,
    /// Transaction data-access context.
    pub ctx: &'a TxnCtx,
    /// Invocation arguments.
    pub args: &'a [Value],
    /// The verified invoker certificate.
    pub invoker: &'a Certificate,
    /// Organizations participating in the network (for approval quorums).
    pub orgs: &'a [String],
}

/// A natively implemented contract (the system smart contracts of §3.7
/// need logic — approval counting, DDL staging — beyond the SQL subset).
pub type NativeContract =
    Arc<dyn for<'a> Fn(&NativeCtx<'a>) -> Result<Vec<StatementEffect>> + Send + Sync>;

/// One unit of work for the pool.
pub struct ExecTask {
    /// The transaction to execute.
    pub tx: Arc<Transaction>,
    /// Snapshot height to execute at.
    pub snapshot_height: BlockHeight,
    /// Strict (EO) or relaxed (OE) scanning.
    pub mode: ScanMode,
}

/// Shared environment for workers.
pub struct ExecEnv {
    /// Table catalog.
    pub catalog: Arc<Catalog>,
    /// Deployed contracts.
    pub contracts: Arc<ContractRegistry>,
    /// Access policies.
    pub access: Arc<AccessController>,
    /// Certificate registry (`pgCerts`).
    pub certs: Arc<CertificateRegistry>,
    /// SSI manager.
    pub ssi: Arc<SsiManager>,
    /// Execution slots shared with the block processor.
    pub slots: Arc<SlotTable>,
    /// Node metrics.
    pub metrics: Arc<NodeMetrics>,
    /// Node's committed block height.
    pub committed_height: Arc<AtomicU64>,
    /// Globally processed transaction ids (shared with the node): tasks
    /// whose id is already processed are dropped instead of executed —
    /// covers duplicates and deterministically aborted future-height
    /// transactions.
    pub processed: Arc<Mutex<HashSet<GlobalTxId>>>,
    /// Native contracts by name.
    pub natives: Mutex<BTreeMap<String, NativeContract>>,
    /// Organizations in the network.
    pub orgs: Vec<String>,
}

/// The pool: a task channel plus a parking area for future-height tasks.
pub struct ExecPool {
    sender: Sender<ExecTask>,
    shop: Arc<Workshop>,
}

/// What a worker needs to run a task: the environment and the parking
/// map it shares with [`ExecPool::release_waiting`].
struct Workshop {
    env: Arc<ExecEnv>,
    waiting: Mutex<BTreeMap<BlockHeight, Vec<ExecTask>>>,
}

impl ExecPool {
    /// Spawn `threads` workers over `env`.
    pub fn start(env: Arc<ExecEnv>, threads: usize) -> Arc<ExecPool> {
        let (sender, receiver) = unbounded::<ExecTask>();
        let shop = Arc::new(Workshop {
            env,
            waiting: Mutex::new(BTreeMap::new()),
        });
        for i in 0..threads.max(1) {
            let rx: Receiver<ExecTask> = receiver.clone();
            let shop = Arc::clone(&shop);
            std::thread::Builder::new()
                .name(format!("exec-worker-{i}"))
                .spawn(move || {
                    for task in rx.iter() {
                        shop.run_task(task);
                    }
                })
                .expect("spawn executor worker");
        }
        Arc::new(ExecPool { sender, shop })
    }

    /// Submit a task (the caller has already claimed its slot).
    pub fn submit(&self, task: ExecTask) {
        let _ = self.sender.send(task);
    }

    /// Execute a task synchronously on the calling thread (serial mode and
    /// recovery replay).
    pub fn run_inline(&self, task: ExecTask) {
        self.shop.run_task(task);
    }

    /// Release parked tasks whose snapshot height is now committed.
    pub fn release_waiting(&self, committed: BlockHeight) {
        let mut ready = Vec::new();
        {
            let mut waiting = self.shop.waiting.lock();
            let keys: Vec<BlockHeight> = waiting.range(..=committed).map(|(k, _)| *k).collect();
            for k in keys {
                if let Some(tasks) = waiting.remove(&k) {
                    ready.extend(tasks);
                }
            }
        }
        for t in ready {
            let _ = self.sender.send(t);
        }
    }
}

impl Workshop {
    fn run_task(&self, task: ExecTask) {
        let env = &self.env;
        // Already decided elsewhere (duplicate or deterministic abort):
        // drop the task and free its slot.
        if env.processed.lock().contains(&task.tx.id) {
            env.slots.remove(&task.tx.id);
            return;
        }
        // Wait-for-height rule (§3.4.1): park until the chain catches up.
        // The committed-height check and the parking insert happen under
        // the `waiting` lock, and `release_waiting` (which runs on the
        // commit thread *after* the height store) drains under the same
        // lock — so a task can never slip between "height checked stale"
        // and "parked after the release already swept". With the
        // pipelined commit path pre-dispatching block N+1's transactions
        // while block N commits, a task lost to that race would deadlock
        // the commit thread until it times out.
        {
            let mut waiting = self.waiting.lock();
            if task.snapshot_height > env.committed_height.load(Ordering::Relaxed) {
                waiting.entry(task.snapshot_height).or_default().push(task);
                return;
            }
        }
        let started = Instant::now();
        let ctx = TxnCtx::begin(&env.ssi, task.snapshot_height, task.mode);
        let result = execute_in_ctx(env, &ctx, &task.tx);
        let exec_us = started.elapsed().as_micros() as u64;
        env.metrics.on_tx_executed(exec_us);
        let (catalog_ops, error) = match result {
            Ok(ops) => (ops, None),
            Err(e) => {
                // Doom the context with a structured reason so the commit
                // phase records the right abort.
                let reason = match &e {
                    Error::Abort(r) => r.clone(),
                    other => AbortReason::ContractError(other.to_string()),
                };
                ctx.doom(reason);
                (Vec::new(), Some(e.to_string()))
            }
        };
        env.slots.complete(
            task.tx.id,
            ExecDone {
                ctx,
                catalog_ops,
                error,
                exec_us,
            },
        );
    }
}

/// Authenticate and execute a transaction inside `ctx`, returning deferred
/// catalog ops.
fn execute_in_ctx(env: &Arc<ExecEnv>, ctx: &TxnCtx, tx: &Transaction) -> Result<Vec<CatalogOp>> {
    // 1. Authenticate the invoker (§3.3.2 step 2).
    let cert = env
        .certs
        .lookup(&tx.user)
        .ok_or(Error::Abort(AbortReason::AuthenticationFailed))?;
    tx.verify(&env.certs)
        .map_err(|_| Error::Abort(AbortReason::AuthenticationFailed))?;
    if !matches!(cert.role, Role::Admin | Role::Client) {
        return Err(Error::Abort(AbortReason::AccessDenied(format!(
            "role {} may not invoke contracts",
            cert.role
        ))));
    }
    // 2. Access control for the target contract (§3.7).
    env.access.check(&tx.payload.contract, &cert)?;

    // 3. Execute: native system contract or deployed SQL contract.
    let native = env.natives.lock().get(&tx.payload.contract).cloned();
    let effects = match native {
        Some(handler) => handler(&NativeCtx {
            catalog: &env.catalog,
            contracts: &env.contracts,
            ctx,
            args: &tx.payload.args,
            invoker: &cert,
            orgs: &env.orgs,
        })?,
        None => {
            let invocation = Invocation::new(tx.payload.contract.clone(), tx.payload.args.clone());
            env.contracts.invoke(&env.catalog, ctx, &invocation)?
        }
    };
    Ok(effects
        .into_iter()
        .filter_map(|e| match e {
            StatementEffect::Catalog(op) => Some(op),
            _ => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_chain::tx::Payload;
    use bcrdb_common::schema::{Column, DataType, TableSchema};
    use bcrdb_crypto::identity::{KeyPair, Scheme};
    use bcrdb_sql::parse_statement;
    use std::time::Duration;

    fn env() -> (Arc<ExecEnv>, KeyPair) {
        let catalog = Arc::new(Catalog::new());
        catalog
            .create_table(
                TableSchema::new(
                    "t",
                    vec![
                        Column::new("id", DataType::Int),
                        Column::new("v", DataType::Int),
                    ],
                    vec![0],
                )
                .unwrap(),
            )
            .unwrap();
        let contracts = Arc::new(ContractRegistry::new());
        let def = match parse_statement(
            "CREATE FUNCTION put(k INT, v INT) AS $$ INSERT INTO t VALUES ($1, $2) $$",
        )
        .unwrap()
        {
            bcrdb_sql::ast::Statement::CreateFunction(d) => d,
            _ => unreachable!(),
        };
        contracts.install(def).unwrap();

        let key = KeyPair::generate("org1/alice", b"alice", Scheme::Sim);
        let certs = CertificateRegistry::new();
        certs.register(Certificate {
            name: "org1/alice".into(),
            org: "org1".into(),
            role: Role::Client,
            public_key: key.public_key(),
        });

        let env = Arc::new(ExecEnv {
            catalog,
            contracts,
            access: Arc::new(AccessController::new()),
            certs,
            ssi: Arc::new(SsiManager::new()),
            slots: Arc::new(SlotTable::new()),
            metrics: Arc::new(NodeMetrics::new()),
            committed_height: Arc::new(AtomicU64::new(0)),
            processed: Arc::new(Mutex::new(HashSet::new())),
            natives: Mutex::new(BTreeMap::new()),
            orgs: vec!["org1".into()],
        });
        (env, key)
    }

    fn tx(key: &KeyPair, nonce: u64) -> Arc<Transaction> {
        Arc::new(
            Transaction::new_order_execute(
                "org1/alice",
                Payload::new("put", vec![Value::Int(nonce as i64), Value::Int(1)]),
                nonce,
                key,
            )
            .unwrap(),
        )
    }

    #[test]
    fn pool_executes_and_parks_result() {
        let (env, key) = env();
        let pool = ExecPool::start(Arc::clone(&env), 2);
        let t = tx(&key, 1);
        assert!(env.slots.try_claim(t.id));
        pool.submit(ExecTask {
            tx: Arc::clone(&t),
            snapshot_height: 0,
            mode: ScanMode::Relaxed,
        });
        env.slots
            .wait_all_done(&[t.id], Duration::from_secs(5))
            .unwrap();
        let done = env.slots.take_done(&t.id).unwrap();
        assert!(done.error.is_none());
        assert!(done.ctx.write_count() == 1);
        done.ctx.rollback();
    }

    #[test]
    fn future_height_tasks_wait_for_release() {
        let (env, key) = env();
        let pool = ExecPool::start(Arc::clone(&env), 1);
        let t = tx(&key, 2);
        env.slots.try_claim(t.id);
        pool.submit(ExecTask {
            tx: Arc::clone(&t),
            snapshot_height: 3,
            mode: ScanMode::Relaxed,
        });
        // Not executed while the chain is behind.
        std::thread::sleep(Duration::from_millis(50));
        assert!(env.slots.take_done(&t.id).is_none());
        // Advance the chain and release.
        env.committed_height.store(3, Ordering::Relaxed);
        pool.release_waiting(3);
        env.slots
            .wait_all_done(&[t.id], Duration::from_secs(5))
            .unwrap();
        env.slots.take_done(&t.id).unwrap().ctx.rollback();
    }

    #[test]
    fn bad_signature_dooms_transaction() {
        let (env, key) = env();
        let pool = ExecPool::start(Arc::clone(&env), 1);
        let mut bad = (*tx(&key, 3)).clone();
        bad.payload.args[1] = Value::Int(999); // invalidates the signature
        let bad = Arc::new(bad);
        env.slots.try_claim(bad.id);
        pool.submit(ExecTask {
            tx: Arc::clone(&bad),
            snapshot_height: 0,
            mode: ScanMode::Relaxed,
        });
        env.slots
            .wait_all_done(&[bad.id], Duration::from_secs(5))
            .unwrap();
        let done = env.slots.take_done(&bad.id).unwrap();
        assert!(done.error.is_some());
        assert!(!done
            .ctx
            .apply_commit(1, 0, bcrdb_txn::ssi::Flow::OrderThenExecute)
            .is_committed());
    }

    #[test]
    fn unknown_contract_dooms_transaction() {
        let (env, key) = env();
        let pool = ExecPool::start(Arc::clone(&env), 1);
        let t = Arc::new(
            Transaction::new_order_execute(
                "org1/alice",
                Payload::new("no_such_contract", vec![]),
                9,
                &key,
            )
            .unwrap(),
        );
        env.slots.try_claim(t.id);
        pool.submit(ExecTask {
            tx: Arc::clone(&t),
            snapshot_height: 0,
            mode: ScanMode::Relaxed,
        });
        env.slots
            .wait_all_done(&[t.id], Duration::from_secs(5))
            .unwrap();
        let done = env.slots.take_done(&t.id).unwrap();
        assert!(done.error.as_deref().unwrap_or("").contains("not found"));
        done.ctx.rollback();
    }

    #[test]
    fn native_contract_execution() {
        let (env, key) = env();
        env.natives.lock().insert(
            "native_put".into(),
            Arc::new(|nc: &NativeCtx<'_>| {
                let table = nc.catalog.get("t")?;
                nc.ctx
                    .insert(&table, vec![nc.args[0].clone(), Value::Int(77)])?;
                Ok(vec![])
            }),
        );
        let pool = ExecPool::start(Arc::clone(&env), 1);
        let t = Arc::new(
            Transaction::new_order_execute(
                "org1/alice",
                Payload::new("native_put", vec![Value::Int(5)]),
                10,
                &key,
            )
            .unwrap(),
        );
        env.slots.try_claim(t.id);
        pool.submit(ExecTask {
            tx: Arc::clone(&t),
            snapshot_height: 0,
            mode: ScanMode::Relaxed,
        });
        env.slots
            .wait_all_done(&[t.id], Duration::from_secs(5))
            .unwrap();
        let done = env.slots.take_done(&t.id).unwrap();
        assert!(done.error.is_none());
        assert_eq!(done.ctx.write_count(), 1);
        done.ctx.rollback();
    }
}
