//! The [`Node`]: one organization's database peer.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bcrdb_chain::blockstore::BlockStore;
use bcrdb_chain::checkpoint::{CheckpointTracker, Divergence};
use bcrdb_chain::ledger::{ledger_schema, LedgerRecord, LEDGER_TABLE_NAME};
use bcrdb_chain::sync::{SyncRequest, SyncResponse};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::codec::{Decoder, Encoder};
use bcrdb_common::error::{AbortReason, Error, Result};
use bcrdb_common::ids::{BlockHeight, GlobalTxId, RowId, TxId};
use bcrdb_common::value::Value;
use bcrdb_crypto::identity::CertificateRegistry;
use bcrdb_crypto::sha256::{Digest, Sha256};
use bcrdb_engine::access::AccessController;
use bcrdb_engine::exec::{apply_catalog_op, CatalogOp};
use bcrdb_engine::prepared::PreparedQuery;
use bcrdb_engine::procedures::ContractRegistry;
use bcrdb_engine::result::QueryResult;
use bcrdb_sql::ast::Statement;
use bcrdb_sql::display::function_to_sql;
use bcrdb_storage::catalog::Catalog;
use bcrdb_storage::pager::PagedStore;
use bcrdb_storage::persist::{self, SnapshotCarry};
use bcrdb_storage::snapshot::ScanMode;
use bcrdb_storage::table::Table;
use bcrdb_storage::version::Version;
use bcrdb_txn::context::TxnCtx;
use bcrdb_txn::ssi::{Flow, SsiManager};
use crossbeam_channel::Receiver;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::config::{NodeConfig, NodeHooks};
use crate::exec_pool::{ExecEnv, ExecPool, ExecTask, NativeContract};
use crate::metrics::NodeMetrics;
use crate::notify::{NotificationHub, TxNotification};
use crate::processor;
use crate::slots::SlotTable;
use crate::statements::{StatementCache, StatementHandle};
use crate::sync::{self, SyncStats};

const SNAPSHOT_MAGIC: &[u8; 8] = b"BCRDBNS1";

/// A database peer node.
pub struct Node {
    /// Static configuration.
    pub config: NodeConfig,
    pub(crate) env: Arc<ExecEnv>,
    pub(crate) pool: Arc<ExecPool>,
    /// The append-only block store (`pgBlockstore`).
    pub blockstore: Arc<BlockStore>,
    /// The paged table store (buffer pool + page files) when
    /// `config.page_dir` is set; `None` keeps all state in memory.
    pub(crate) paged: Option<Arc<PagedStore>>,
    /// Checkpoint comparison state (§3.3.4).
    pub checkpoints: Arc<CheckpointTracker>,
    pub(crate) notifications: Arc<NotificationHub>,
    pub(crate) hooks: RwLock<NodeHooks>,
    /// The ledger table. Behind a lock because a snapshot fast-sync
    /// replaces the whole catalog (and with it this table object).
    pub(crate) ledger: RwLock<Arc<Table>>,
    pub(crate) divergences: Mutex<Vec<Divergence>>,
    pub(crate) shutting_down: AtomicBool,
    /// Latest encoded state snapshot `(height, bytes)`, kept in memory so
    /// the sync server can offer fast-sync to badly lagging peers even
    /// on diskless nodes. Refreshed by [`Node::write_snapshot`].
    latest_snapshot: Mutex<Option<(BlockHeight, Arc<Vec<u8>>)>>,
    /// Statistics of the most recent peer catch-up run (observability).
    last_sync: Mutex<Option<SyncStats>>,
    /// Prepared-statement cache keyed by SQL text and addressed by
    /// server-side handles (§4.3: the client interface is libpq-style;
    /// statement reuse amortizes parsing). Bounded LRU, cap from
    /// [`NodeConfig::statement_cache_cap`].
    statements: Mutex<StatementCache>,
    /// Stage-3 watermark: the highest block whose post-commit work
    /// (ledger records, checkpoint hash, notifications) has completed.
    /// May lag the committed height by up to
    /// [`processor::POSTCOMMIT_CAP`] blocks.
    postcommit: PostCommitMark,
}

/// The post-commit watermark plus the condvar the commit thread blocks
/// on for backpressure, snapshot barriers and catch-up drains.
struct PostCommitMark {
    height: Mutex<BlockHeight>,
    cv: Condvar,
}

impl PostCommitMark {
    fn new(height: BlockHeight) -> PostCommitMark {
        PostCommitMark {
            height: Mutex::new(height),
            cv: Condvar::new(),
        }
    }
}

impl Node {
    /// Create (or re-open) a node. When `config.data_dir` is set, the
    /// block store is opened from disk and the latest state snapshot is
    /// loaded; call [`Node::recover`] (after installing any bootstrap
    /// schema/contracts) to replay blocks beyond the snapshot height.
    pub fn new(
        config: NodeConfig,
        certs: Arc<CertificateRegistry>,
        orgs: Vec<String>,
    ) -> Result<Arc<Node>> {
        let paged = match &config.page_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                Some(PagedStore::open(
                    dir,
                    config.buffer_pool_frames.max(1),
                    config.fsync,
                )?)
            }
            None => None,
        };
        let (blockstore, snapshot) = match &config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let store = BlockStore::open_with(dir.join("blocks.dat"), config.fsync)?;
                let snap_path = dir.join("state.snapshot");
                let snapshot = if snap_path.exists() {
                    match load_snapshot(&snap_path, paged.as_ref()) {
                        Ok(s) => Some(s),
                        // A paged snapshot can legitimately be unusable —
                        // e.g. the process died between checkpointing the
                        // page files and renaming the snapshot, so the two
                        // are from different barriers. Fall back to full
                        // replay instead of refusing to start.
                        Err(e) if paged.is_some() => {
                            eprintln!(
                                "bcrdb[{}]: state snapshot unusable ({e}); replaying chain from genesis",
                                config.name
                            );
                            None
                        }
                        Err(e) => return Err(e),
                    }
                } else {
                    None
                };
                (Arc::new(store), snapshot)
            }
            None => (Arc::new(BlockStore::in_memory()), None),
        };
        // Replaying from genesis: whatever page files a previous life
        // left behind describe state we are about to regenerate.
        if snapshot.is_none() {
            if let Some(store) = &paged {
                store.wipe()?;
            }
        }
        // Seed the sync server's snapshot cache from disk, so a restarted
        // node can offer fast-sync immediately instead of only after the
        // next snapshot interval. Paged nodes skip this: their disk
        // snapshots reference chains in the local page files (external
        // carry) and are meaningless to a peer — the cache is refreshed
        // with a self-contained (inline) encoding at the next barrier.
        let cached_snapshot = if paged.is_some() {
            None
        } else {
            snapshot
                .as_ref()
                .map(|(snap, bytes)| (snap.height, Arc::clone(bytes)))
        };

        let contracts = Arc::new(ContractRegistry::new());
        let processed: Arc<Mutex<HashSet<GlobalTxId>>> = Arc::new(Mutex::new(HashSet::new()));
        let (catalog, restored_height) = match snapshot.map(|(snap, _)| snap) {
            Some(snap) => {
                for (_, source) in &snap.contracts {
                    if let Statement::CreateFunction(def) = bcrdb_sql::parse_statement(source)? {
                        contracts.install(def)?;
                    }
                }
                *processed.lock() = snap.processed;
                (Arc::new(snap.catalog), snap.height)
            }
            None => {
                let catalog = match &paged {
                    Some(store) => Arc::new(Catalog::with_store(Arc::clone(store))),
                    None => Arc::new(Catalog::new()),
                };
                catalog.create_table(ledger_schema())?;
                (catalog, 0)
            }
        };
        let ledger = catalog.get(LEDGER_TABLE_NAME)?;

        let env = Arc::new(ExecEnv {
            catalog,
            contracts,
            access: Arc::new(AccessController::new()),
            certs,
            ssi: Arc::new(SsiManager::new()),
            slots: Arc::new(SlotTable::new()),
            metrics: Arc::new(NodeMetrics::new()),
            committed_height: Arc::new(AtomicU64::new(restored_height)),
            processed,
            natives: Mutex::new(Default::default()),
            orgs,
        });
        let pool = ExecPool::start(Arc::clone(&env), config.executor_threads);

        let statements = Mutex::new(StatementCache::new(config.statement_cache_cap));
        let node = Arc::new(Node {
            config,
            env,
            pool,
            blockstore,
            checkpoints: Arc::new(CheckpointTracker::new()),
            notifications: Arc::new(NotificationHub::new()),
            paged,
            hooks: RwLock::new(NodeHooks::default()),
            ledger: RwLock::new(ledger),
            divergences: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            latest_snapshot: Mutex::new(cached_snapshot),
            last_sync: Mutex::new(None),
            statements,
            postcommit: PostCommitMark::new(restored_height),
        });

        if restored_height > 0 {
            // A restored catalog carries rows but no planner statistics
            // (they are not serialized); rebuild them exactly from the
            // heap so the first query plans from real numbers.
            node.rebuild_all_stats(restored_height);
        }

        Ok(node)
    }

    /// Rebuild planner statistics for every table exactly from the heap,
    /// sealing a summary at `height`. Restore paths (snapshot boot,
    /// fast-sync) bypass the commit-time incremental fold, so the
    /// statistics must be reconstructed before the node serves queries.
    fn rebuild_all_stats(&self, height: BlockHeight) {
        for name in self.env.catalog.table_names() {
            if let Ok(table) = self.env.catalog.get(&name) {
                table.rebuild_stats(height);
                self.env.metrics.on_stats_rebuild();
            }
        }
    }

    /// Recovery (§3.6): replay all stored blocks beyond the current
    /// committed height (the snapshot height, or 0 on a fresh store),
    /// then — when a `sync_fetch` hook is installed — catch up from
    /// peers to the network head before the node starts accepting
    /// traffic ("the node then retrieves any missing blocks, processes
    /// and commits them one by one"). Callers must install bootstrap
    /// schema/contracts *before* recovering, exactly as they did on the
    /// original run — on-chain deployments are replayed automatically.
    /// Returns the recovered height.
    pub fn recover(self: &Arc<Self>) -> Result<BlockHeight> {
        // One block resident at a time: a long chain replays in the
        // memory of its state, not of its history.
        for n in self.height() + 1..=self.blockstore.height() {
            processor::process_block(self, &self.blockstore.read(n)?)?;
        }
        if self.hooks.read().sync_fetch.is_some() {
            // Quiescent (not yet serving traffic): snapshot fast-sync is
            // allowed if we lag far enough behind.
            self.catch_up(true)?;
        }
        Ok(self.height())
    }

    /// Run one peer catch-up to the network head (§3.6). No-op without a
    /// `sync_fetch` hook. `allow_snapshot` permits installing a state
    /// snapshot in place of replay and must only be true while the node
    /// is quiescent (recovery/rejoin, before accepting client traffic).
    pub fn catch_up(self: &Arc<Self>, allow_snapshot: bool) -> Result<SyncStats> {
        let stats = sync::catch_up(self, allow_snapshot)?;
        *self.last_sync.lock() = Some(stats.clone());
        Ok(stats)
    }

    /// Statistics of the most recent peer catch-up run, if any.
    pub fn last_sync_stats(&self) -> Option<SyncStats> {
        self.last_sync.lock().clone()
    }

    /// Serve one peer catch-up request from the local block store
    /// (§3.6). Blocks come back verified-by-construction (they extend
    /// our own chain); requesters re-verify against their tip and the
    /// orderer certificates. Above `snapshot_lag_threshold`, a cached
    /// state snapshot is offered instead so the requester can skip
    /// re-executing the bulk of the chain.
    pub fn serve_sync(&self, req: &SyncRequest) -> SyncResponse {
        let tip = self.blockstore.height();
        if req.allow_snapshot && self.config.snapshot_lag_threshold > 0 {
            let lag = tip.saturating_sub(req.from_height);
            if lag >= self.config.snapshot_lag_threshold {
                if let Some((height, bytes)) = self.latest_snapshot.lock().clone() {
                    if height > req.from_height {
                        return SyncResponse::Snapshot {
                            height,
                            state: (*bytes).clone(),
                            tip,
                        };
                    }
                }
            }
        }
        // A height that no longer verifies ends the batch: the requester
        // asks another peer for it (an empty answer below the tip is a
        // failed round on its side).
        let last = tip.min(req.from_height.saturating_add(req.max_blocks.max(1)));
        let blocks = (req.from_height.saturating_add(1)..=last)
            .map_while(|n| self.blockstore.get(n))
            .map(Arc::unwrap_or_clone)
            .collect();
        SyncResponse::Blocks { blocks, tip }
    }

    /// Install a fast-sync state snapshot received from a peer,
    /// replacing the whole committed state. Only call while quiescent
    /// (no in-flight transactions, not serving clients): the catalog,
    /// contract registry, processed-id set and committed height are all
    /// swapped. The block store is *not* touched — the catch-up driver
    /// still fetches the skipped blocks so the local chain stays
    /// complete and auditable.
    pub(crate) fn install_fast_sync(&self, state: &[u8]) -> Result<()> {
        let snap = decode_node_snapshot(state, self.paged.as_ref())?;
        if snap.height <= self.height() {
            return Err(Error::internal(format!(
                "fast-sync snapshot at height {} is not ahead of ours ({})",
                snap.height,
                self.height()
            )));
        }
        let contracts: Vec<_> = snap
            .contracts
            .iter()
            .map(|(_, source)| bcrdb_sql::parse_statement(source))
            .collect::<Result<_>>()?;
        self.env.catalog.replace_with(snap.catalog);
        for name in self.env.contracts.names() {
            let _ = self.env.contracts.remove(&name);
        }
        for stmt in contracts {
            if let Statement::CreateFunction(def) = stmt {
                self.env.contracts.install(def)?;
            }
        }
        *self.env.processed.lock() = snap.processed;
        *self.ledger.write() = self.env.catalog.get(LEDGER_TABLE_NAME)?;
        self.env
            .committed_height
            .store(snap.height, Ordering::Relaxed);
        self.note_postcommit(snap.height);
        self.rebuild_all_stats(snap.height);
        self.env.metrics.on_fast_sync();
        Ok(())
    }

    /// Install outbound hooks (forwarding, ordering, checkpoints).
    pub fn set_hooks(&self, hooks: NodeHooks) {
        *self.hooks.write() = hooks;
    }

    /// The installed hooks, so a caller can replace one and keep the rest.
    pub fn hooks(&self) -> NodeHooks {
        self.hooks.read().clone()
    }

    /// Apply a catalog op to this node's catalog, contract and certificate
    /// registries: the serial commit phase, and genesis before any block.
    pub fn apply_catalog_op(&self, op: &CatalogOp) -> Result<()> {
        apply_catalog_op(&self.env.catalog, &self.env.contracts, &self.env.certs, op)
    }

    /// Register a native (built-in) contract such as the deploy family of
    /// §3.7.
    pub fn register_native(&self, name: impl Into<String>, contract: NativeContract) {
        self.env.natives.lock().insert(name.into(), contract);
    }

    /// The access controller (the core layer sets per-contract policies).
    pub fn access(&self) -> &Arc<AccessController> {
        &self.env.access
    }

    /// The contract registry.
    pub fn contracts(&self) -> &Arc<ContractRegistry> {
        &self.env.contracts
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.env.catalog
    }

    /// Node metrics.
    pub fn metrics(&self) -> &Arc<NodeMetrics> {
        &self.env.metrics
    }

    /// Snapshot (and reset) the metrics window, overlaying the ordering
    /// service's counters when an `ordering_stats` hook is installed —
    /// what the Metrics RPC serves, so a remote client can observe the
    /// ordering layer (current view, view changes) without direct access
    /// to the service.
    pub fn metrics_report(&self) -> crate::metrics::MetricsSnapshot {
        let mut snap = self.env.metrics.take();
        snap.committed_height = self.height();
        snap.postcommit_height = self.postcommit_height();
        if let Some(store) = &self.paged {
            snap.pages_read = store.pages_read();
            snap.pages_written = store.pages_written();
            snap.pages_evicted = store.pages_evicted();
            snap.pool_hit_rate = store.pool_hit_rate();
        }
        if let Some(hook) = &self.hooks.read().ordering_stats {
            snap.ordering = hook();
        }
        snap.plans_index_intersection = self.env.catalog.plans_multi_index();
        snap.plans_covering = self.env.catalog.plans_covering();
        snap
    }

    /// The paged table store, if this node runs with disk-backed
    /// storage (`NodeConfig::page_dir`).
    pub fn paged_store(&self) -> Option<&Arc<PagedStore>> {
        self.paged.as_ref()
    }

    /// Committed block height.
    pub fn height(&self) -> BlockHeight {
        self.env.committed_height.load(Ordering::Relaxed)
    }

    /// Post-commit (stage 3) watermark: the highest block whose ledger
    /// records, checkpoint hash and client notifications are fully
    /// applied. Trails [`Node::height`] by at most
    /// [`processor::POSTCOMMIT_CAP`] blocks while the pipeline is busy.
    pub fn postcommit_height(&self) -> BlockHeight {
        *self.postcommit.height.lock()
    }

    /// Advance the post-commit watermark and wake anyone blocked on it.
    pub(crate) fn note_postcommit(&self, height: BlockHeight) {
        let mut h = self.postcommit.height.lock();
        if *h < height {
            *h = height;
        }
        self.postcommit.cv.notify_all();
    }

    /// Block until the post-commit watermark reaches `height` or the
    /// timeout elapses; returns whether the watermark is there. Callers
    /// loop with short timeouts so shutdown is always observed.
    pub(crate) fn wait_postcommit(
        &self,
        height: BlockHeight,
        timeout: std::time::Duration,
    ) -> bool {
        let mut h = self.postcommit.height.lock();
        if *h >= height {
            return true;
        }
        self.postcommit.cv.wait_for(&mut h, timeout);
        *h >= height
    }

    /// Has the block processor halted on a rejected block (§3.5(4))?
    /// Sticky; the reason is in [`NodeMetrics::halt_reason`]. Exposed to
    /// remote clients through the Metrics RPC (`MetricsSnapshot::halted`).
    pub fn is_halted(&self) -> bool {
        self.env.metrics.halted()
    }

    /// Start the block-processing loop on `block_rx` (blocks delivered by
    /// the ordering service, §3.3.2). Joining the returned handle after
    /// [`Node::shutdown`] waits until the block processor and its
    /// post-commit worker have left the node's data directory alone.
    pub fn start(
        self: &Arc<Self>,
        block_rx: Receiver<Arc<bcrdb_chain::block::Block>>,
    ) -> std::thread::JoinHandle<()> {
        let node = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("{}-blockproc", self.config.name))
            .spawn(move || processor::run_loop(node, block_rx))
            .expect("spawn block processor")
    }

    /// Stop processing (threads exit at the next opportunity; join the
    /// handle [`Node::start`] returned to wait for that). Never
    /// blocks — including on a halted processor: the commit thread
    /// checks this flag between wait slices, and the post-commit
    /// worker exits once its queue drains, so a processor that stopped
    /// on a rejected block leaves nothing for shutdown to wait on. The
    /// watermark waiters are woken so a commit thread blocked on
    /// backpressure or a snapshot barrier re-checks the flag immediately.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        self.postcommit.cv.notify_all();
    }

    // -------------------------------------------------------- submission

    /// EO flow: a client submits a transaction to this node (§3.4.1). The
    /// node authenticates, forwards to the other peers and the ordering
    /// service, and starts executing immediately.
    pub fn submit_local(&self, tx: Transaction) -> Result<()> {
        if self.config.flow != Flow::ExecuteOrderParallel {
            // OE: clients submit to the ordering service; a node may proxy.
            let hooks = self.hooks.read();
            if let Some(submit) = &hooks.submit_orderer {
                return submit(tx);
            }
            return Err(Error::Config(
                "order-then-execute node has no ordering hook installed".into(),
            ));
        }
        if self.env.processed.lock().contains(&tx.id) {
            return Err(Error::Abort(AbortReason::DuplicateTxId));
        }
        tx.verify(&self.env.certs)?;
        let tx = Arc::new(tx);
        if self.env.slots.try_claim(tx.id) {
            self.schedule(Arc::clone(&tx));
        }
        // Forward in the background (middleware, §4.2).
        let hooks = self.hooks.read();
        if let Some(forward) = &hooks.forward_tx {
            forward(&tx);
        }
        if let Some(submit) = &hooks.submit_orderer {
            // An ordering failure means the transaction can never commit;
            // surface it to the submitting client.
            submit((*tx).clone())?;
        }
        Ok(())
    }

    /// EO flow: a transaction forwarded by another peer.
    pub fn on_peer_tx(&self, tx: Transaction) {
        if self.config.flow != Flow::ExecuteOrderParallel {
            return;
        }
        if self.env.processed.lock().contains(&tx.id) {
            return;
        }
        let tx = Arc::new(tx);
        if self.env.slots.try_claim(tx.id) {
            self.schedule(tx);
        }
    }

    pub(crate) fn schedule(&self, tx: Arc<Transaction>) {
        let snapshot_height = tx.snapshot_height.unwrap_or_else(|| self.height());
        self.pool.submit(ExecTask {
            tx,
            snapshot_height,
            mode: ScanMode::Strict,
        });
    }

    // ------------------------------------------------------------ queries

    /// Run a read-only query (SELECT, including provenance `HISTORY()`
    /// scans) at the current committed height. Reads execute on this node
    /// only and are not recorded on the blockchain (§3.7).
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.query_cached(sql, params, None)
    }

    /// Run a read-only query at a specific historical block height.
    pub fn query_at(
        &self,
        sql: &str,
        params: &[Value],
        height: BlockHeight,
    ) -> Result<QueryResult> {
        self.query_cached(sql, params, Some(height))
    }

    /// One-shot read-only query at `height` (`None`: the committed tip).
    /// Routed through the statement cache, so repeated SQL text is parsed
    /// once even without an explicit prepare.
    pub fn query_cached(
        &self,
        sql: &str,
        params: &[Value],
        height: Option<BlockHeight>,
    ) -> Result<QueryResult> {
        let (_, q) = self.prepare_handle(sql)?;
        self.run(&q, params, height)
    }

    /// Parse (or fetch from the statement cache) a reusable read-only
    /// statement and return its server-side handle — what the RPC
    /// frontend hands to clients so later executions carry an 8-byte id
    /// instead of the SQL text. Repeated calls with the same SQL text
    /// share one parsed AST across all of this node's sessions.
    pub fn prepare_handle(&self, sql: &str) -> Result<(StatementHandle, Arc<PreparedQuery>)> {
        self.statements.lock().prepare(sql)
    }

    /// Execute a cached statement by handle. An evicted or unknown
    /// handle is [`Error::NotFound`]; drivers re-prepare and retry.
    pub fn query_by_handle(
        &self,
        handle: StatementHandle,
        params: &[Value],
        height: Option<BlockHeight>,
    ) -> Result<QueryResult> {
        let q = self.statements.lock().get(handle)?;
        self.run(&q, params, height)
    }

    /// The one way a read-only statement runs on this node. The height
    /// must not exceed the committed tip: a "future" snapshot cannot be
    /// served (its blocks have not committed here yet).
    fn run(
        &self,
        q: &PreparedQuery,
        params: &[Value],
        height: Option<BlockHeight>,
    ) -> Result<QueryResult> {
        let tip = self.height();
        let height = height.unwrap_or(tip);
        if height > tip {
            return Err(Error::Analysis(format!(
                "snapshot height {height} is beyond this node's committed height {tip}"
            )));
        }
        let ctx = TxnCtx::read_only(&self.env.ssi, height);
        q.execute(&self.env.catalog, &ctx, params)
    }

    /// Number of cached prepared statements (observability/tests).
    pub fn prepared_statement_count(&self) -> usize {
        self.statements.lock().len()
    }

    /// The notification hub (transports register connection channels).
    pub fn notifications(&self) -> &Arc<NotificationHub> {
        &self.notifications
    }

    /// Register for the final status of a transaction.
    pub fn wait_for(&self, id: GlobalTxId) -> Receiver<TxNotification> {
        self.notifications.wait_for(id)
    }

    /// Number of distinct transactions with registered notification
    /// waiters (observability / leak tests).
    pub fn pending_notification_waiters(&self) -> usize {
        self.notifications.pending_waiters()
    }

    /// Subscribe to all transaction notifications.
    pub fn subscribe_notifications(&self) -> Receiver<TxNotification> {
        self.notifications.subscribe_all()
    }

    /// Transaction ids remembered for duplicate suppression: one per
    /// transaction ever processed (observability / the memory census).
    pub fn processed_count(&self) -> usize {
        self.env.processed.lock().len()
    }

    /// Checkpoint divergences detected so far (§3.5 properties 3/5).
    pub fn divergences(&self) -> Vec<Divergence> {
        self.divergences.lock().clone()
    }

    /// Hash of the full committed state at the current height, excluding
    /// the ledger table (whose commit timestamps are node-local). Two
    /// honest replicas at the same height produce identical hashes.
    pub fn state_hash(&self) -> Digest {
        /// Encoded bytes buffered between two feeds of the hash.
        const CHUNK: usize = 64 * 1024;
        let height = self.height();
        let mut hasher = Sha256::new();
        let mut enc = Encoder::with_capacity(CHUNK);
        enc.put_u64(height);
        for name in self.env.catalog.table_names() {
            if name == LEDGER_TABLE_NAME {
                continue;
            }
            let table = self.env.catalog.get(&name).expect("listed table");
            enc.put_str(&name);
            // Committed versions in (row id, creator block) order: handles
            // are sorted, rows are encoded from where they live.
            let mut versions: Vec<(u64, u64, Option<u64>, Arc<Version>)> = table
                .all_versions()
                .into_iter()
                .filter_map(|v| {
                    let st = v.state();
                    let creator = st.creator_block?;
                    if st.aborted || creator > height {
                        return None;
                    }
                    let deleter = st.deleter_block.filter(|d| *d <= height);
                    Some((st.row_id.0, creator, deleter, v))
                })
                .collect();
            versions.sort_by_key(|(rid, cb, _, _)| (*rid, *cb));
            enc.put_u32(versions.len() as u32);
            for (rid, cb, deleter, version) in versions {
                enc.put_u64(rid);
                enc.put_u64(cb);
                enc.put_u64(deleter.unwrap_or(0));
                enc.put_row(&version.data);
                if enc.len() >= CHUNK {
                    hasher.update(enc.as_bytes());
                    enc.clear();
                }
            }
        }
        hasher.update(enc.as_bytes());
        hasher.finalize()
    }

    /// Reclaim old row versions across all tables (the enhanced vacuum of
    /// §7). Returns the number of versions removed.
    pub fn vacuum(&self, horizon: BlockHeight) -> usize {
        let mut total = 0;
        for name in self.env.catalog.table_names() {
            if let Ok(table) = self.env.catalog.get(&name) {
                total += table.vacuum(horizon);
            }
        }
        total
    }

    /// Spill quiescent cold heap segments to the page files (paged
    /// nodes only — a no-op otherwise). `horizon` is the height at or
    /// below which versions count as cold; `lsn` stamps the written
    /// chains so crash recovery can pick the newest image of each
    /// segment. Returns the number of segments spilled.
    pub fn spill(&self, horizon: BlockHeight, lsn: u64) -> usize {
        if self.paged.is_none() {
            return 0;
        }
        let mut total = 0;
        for name in self.env.catalog.table_names() {
            if let Ok(table) = self.env.catalog.get(&name) {
                total += table.spill(horizon, lsn);
            }
        }
        total
    }

    // ------------------------------------------------------- persistence

    pub(crate) fn is_processed(&self, id: &GlobalTxId) -> bool {
        self.env.processed.lock().contains(id)
    }

    pub(crate) fn mark_processed(&self, id: GlobalTxId) {
        self.env.processed.lock().insert(id);
    }

    pub(crate) fn append_ledger(&self, records: &[LedgerRecord], block: BlockHeight) {
        if records.is_empty() {
            return;
        }
        let ledger = self.ledger.read();
        // One id reservation and one batched append per block: the
        // ledger grows by whole blocks, so per-record allocation is
        // pure lock traffic.
        let base = ledger.reserve_row_ids(records.len() as u64).0;
        let versions = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Version::restored(
                    TxId::INVALID,
                    r.to_row(),
                    RowId(base + i as u64),
                    block,
                    None,
                    None,
                )
            })
            .collect();
        ledger.append_restored_batch(versions);
    }

    /// Read back ledger records for a block (recovery checks, tests).
    pub fn ledger_records(&self, block: BlockHeight) -> Vec<LedgerRecord> {
        let mut out = Vec::new();
        let ledger = self.ledger.read();
        for v in ledger.all_versions() {
            if v.state().creator_block == Some(block) {
                if let Ok(r) = LedgerRecord::from_row(&v.data) {
                    out.push(r);
                }
            }
        }
        out.sort_by_key(|r| r.tx_index);
        out
    }

    /// Take a state snapshot: encode, cache in memory for the sync
    /// server, and (when file-backed) persist atomically via tmp +
    /// rename. No transactions may be committing concurrently — called
    /// from the block processor only.
    ///
    /// Paged nodes checkpoint the page store *first*: the on-disk
    /// snapshot references page-file chains by id, so the chains must
    /// be durable and stamped with the barrier height before the
    /// snapshot that points at them exists. A crash between the two
    /// steps leaves a height mismatch, which restore detects (falling
    /// back to a full chain replay). The in-memory copy served to
    /// fast-sync peers instead carries raw page images inline, making
    /// it self-contained.
    pub(crate) fn write_snapshot(&self) -> Result<()> {
        let height = self.height();
        if let Some(store) = &self.paged {
            store.checkpoint(height)?;
            if self.config.snapshot_lag_threshold > 0 {
                let inline = Arc::new(self.encode_node_snapshot(SnapshotCarry::Inline)?);
                *self.latest_snapshot.lock() = Some((height, inline));
            }
            if let Some(dir) = &self.config.data_dir {
                let bytes = self.encode_node_snapshot(SnapshotCarry::External)?;
                let tmp = dir.join("state.snapshot.tmp");
                std::fs::write(&tmp, &bytes)?;
                std::fs::rename(&tmp, dir.join("state.snapshot"))?;
            }
            return Ok(());
        }
        let bytes = Arc::new(self.encode_node_snapshot(SnapshotCarry::External)?);
        *self.latest_snapshot.lock() = Some((height, Arc::clone(&bytes)));
        if let Some(dir) = &self.config.data_dir {
            let tmp = dir.join("state.snapshot.tmp");
            std::fs::write(&tmp, bytes.as_slice())?;
            std::fs::rename(&tmp, dir.join("state.snapshot"))?;
        }
        Ok(())
    }

    /// Encode the node's committed state (catalog, contract sources,
    /// processed-id set) in the snapshot format shared by disk snapshots
    /// and snapshot fast-sync. `carry` selects how paged-out segments
    /// travel (by reference to our page files, or inline); it is
    /// irrelevant on in-memory catalogs.
    fn encode_node_snapshot(&self, carry: SnapshotCarry) -> Result<Vec<u8>> {
        let mut enc = Encoder::with_capacity(256 * 1024);
        enc.put_bytes(SNAPSHOT_MAGIC);
        enc.put_bytes(&persist::encode_catalog_carry(
            &self.env.catalog,
            self.height(),
            carry,
        )?);
        let names = self.env.contracts.names();
        enc.put_u32(names.len() as u32);
        for name in names {
            let def = self.env.contracts.get(&name).expect("listed contract");
            enc.put_str(&name);
            enc.put_str(&function_to_sql(&def));
        }
        let processed = self.env.processed.lock();
        enc.put_u32(processed.len() as u32);
        // Deterministic bytes (not strictly required, but keeps snapshots
        // reproducible for testing and comparable across replicas).
        let mut ids: Vec<&GlobalTxId> = processed.iter().collect();
        ids.sort();
        for id in ids {
            enc.put_digest(&id.0);
        }
        Ok(enc.finish())
    }
}

struct LoadedSnapshot {
    catalog: Catalog,
    height: BlockHeight,
    contracts: Vec<(String, String)>,
    processed: HashSet<GlobalTxId>,
}

fn load_snapshot(
    path: &PathBuf,
    store: Option<&Arc<PagedStore>>,
) -> Result<(LoadedSnapshot, Arc<Vec<u8>>)> {
    let bytes = std::fs::read(path)?;
    let snap = decode_node_snapshot(&bytes, store)?;
    Ok((snap, Arc::new(bytes)))
}

fn decode_node_snapshot(bytes: &[u8], store: Option<&Arc<PagedStore>>) -> Result<LoadedSnapshot> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.get_bytes()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(Error::Codec("bad node snapshot magic".into()));
    }
    let catalog_bytes = dec.get_bytes()?;
    let (catalog, height) = persist::decode_catalog_with(&catalog_bytes, store)?;
    let n = dec.get_u32()? as usize;
    let mut contracts = Vec::with_capacity(n);
    for _ in 0..n {
        let name = dec.get_str()?;
        let source = dec.get_str()?;
        contracts.push((name, source));
    }
    let n = dec.get_u32()? as usize;
    let mut processed = HashSet::with_capacity(n);
    for _ in 0..n {
        processed.insert(GlobalTxId(dec.get_digest()?));
    }
    Ok(LoadedSnapshot {
        catalog,
        height,
        contracts,
        processed,
    })
}
