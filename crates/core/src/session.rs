//! The typed, libpq-style session API, spoken over a [`NodeTransport`].
//!
//! The paper's client interface is PostgreSQL's wire protocol plus a
//! `libpq` extension for snapshot-height pinning (§4.3). This module is
//! our equivalent driver surface; every operation travels the client's
//! transport connection as a typed RPC
//! ([`bcrdb_node::ClientRequest`]/[`bcrdb_node::ClientResponse`]), so
//! the same code runs over the zero-overhead in-process backend and the
//! simulated network:
//!
//! * **Fluent invocation** — [`Client::call`] builds a contract call
//!   argument by argument with [`IntoValue`] conversions, then
//!   [`CallBuilder::submit`]s it as a signed blockchain transaction:
//!
//!   ```ignore
//!   let pending = client.call("transfer").arg(1).arg(2).arg(40.0).submit()?;
//!   pending.wait_committed(timeout)?;
//!   ```
//!
//! * **Prepared read-only statements** — [`Client::prepare`] parses a
//!   SELECT once on the node and returns a **server-side handle**;
//!   executions carry only the handle and fresh parameters. If the
//!   node's bounded statement cache evicts the handle, the driver
//!   re-prepares transparently.
//!
//! * **Typed rows** — [`QueryBuilder::fetch_as`],
//!   `QueryResult::rows_as::<T>()` and `row.get::<i64>("balance")`
//!   decode results into Rust types, with failures as
//!   [`Error::Decode`].
//!
//! * **Batch submission** — [`Client::submit_all`] signs a whole batch
//!   and submits it as one request, returning a [`PendingBatch`] whose
//!   notifications are fanned in to a single channel.
//!
//! * **Admission control** — each client bounds its in-flight
//!   transactions (`NetworkConfig::client_window`); a full window is
//!   [`Error::Busy`] *before* anything is signed or submitted. Slots
//!   free when the corresponding [`PendingTx`]/[`PendingBatch`] drops.
//!
//! * **Error taxonomy** — waits distinguish [`Error::Timeout`] (no
//!   final status yet) from [`Error::TxAborted`] (a definitive abort
//!   with the ledger's reason).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::ledger::TxStatus;
use bcrdb_chain::tx::{Payload, Transaction};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::{BlockHeight, GlobalTxId};
use bcrdb_common::value::{FromValue, IntoValue, Value};
use bcrdb_engine::result::{FromRow, QueryResult};
use bcrdb_node::{ClientRequest, ClientResponse, StatementHandle, TxNotification};
use bcrdb_txn::ssi::Flow;
use crossbeam_channel::Receiver;

use crate::client::Client;
use crate::transport::NodeTransport;

// -------------------------------------------------------------- helpers

/// Round-trip a request that answers with `Rows`.
fn rpc_rows(transport: &dyn NodeTransport, req: ClientRequest) -> Result<QueryResult> {
    match transport.call(req)? {
        ClientResponse::Rows(r) => Ok(r),
        other => Err(Error::internal(format!("expected Rows, got {other:?}"))),
    }
}

/// Round-trip a `Prepare`, returning `(handle, param_count)`.
fn rpc_prepare(transport: &dyn NodeTransport, sql: &str) -> Result<(StatementHandle, usize)> {
    match transport.call(ClientRequest::Prepare {
        sql: sql.to_string(),
    })? {
        ClientResponse::Statement {
            handle,
            param_count,
        } => Ok((handle, param_count)),
        other => Err(Error::internal(format!(
            "expected Statement, got {other:?}"
        ))),
    }
}

// ----------------------------------------------------- admission window

/// Shared state of a client's in-flight window (admission control): a
/// bounded count of transactions submitted but not yet released by their
/// [`PendingTx`]/[`PendingBatch`] handle.
pub(crate) struct WindowState {
    cap: usize,
    used: AtomicUsize,
}

impl WindowState {
    pub(crate) fn new(cap: usize) -> WindowState {
        WindowState {
            cap: cap.max(1),
            used: AtomicUsize::new(0),
        }
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    fn acquire(self: &Arc<Self>, n: usize) -> Result<WindowPermit> {
        if n > self.cap {
            return Err(Error::Busy(format!(
                "batch of {n} transactions exceeds the client window of {}",
                self.cap
            )));
        }
        loop {
            let used = self.used.load(Ordering::Relaxed);
            if used + n > self.cap {
                return Err(Error::Busy(format!(
                    "client window full: {used} of {} transactions in flight",
                    self.cap
                )));
            }
            if self
                .used
                .compare_exchange(used, used + n, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(WindowPermit {
                    state: Arc::clone(self),
                    n,
                });
            }
        }
    }
}

/// Releases its window slots on drop.
pub(crate) struct WindowPermit {
    state: Arc<WindowState>,
    n: usize,
}

impl WindowPermit {
    /// Release surplus slots down to `m` (e.g. after batch deduplication
    /// shrank the transaction count the permit was acquired for).
    fn shrink(&mut self, m: usize) {
        if m < self.n {
            self.state.used.fetch_sub(self.n - m, Ordering::Relaxed);
            self.n = m;
        }
    }
}

impl Drop for WindowPermit {
    fn drop(&mut self) {
        self.state.used.fetch_sub(self.n, Ordering::Relaxed);
    }
}

// ------------------------------------------------------------------ calls

/// A contract invocation: name, arguments and an optional pinned
/// snapshot height (EO flow only). Build one standalone with
/// [`Call::new`] (for [`Client::submit_all`]) or fluently through
/// [`Client::call`].
#[derive(Clone, Debug)]
pub struct Call {
    pub(crate) contract: String,
    pub(crate) args: Vec<Value>,
    pub(crate) snapshot_height: Option<BlockHeight>,
}

impl Call {
    /// Start a call to `contract`.
    pub fn new(contract: impl Into<String>) -> Call {
        Call {
            contract: contract.into(),
            args: Vec::new(),
            snapshot_height: None,
        }
    }

    /// Append one argument.
    pub fn arg(mut self, v: impl IntoValue) -> Call {
        self.args.push(v.into_value());
        self
    }

    /// Append several arguments.
    pub fn args<I>(mut self, items: I) -> Call
    where
        I: IntoIterator,
        I::Item: IntoValue,
    {
        self.args
            .extend(items.into_iter().map(IntoValue::into_value));
        self
    }

    /// Pin the transaction to an explicit snapshot height (§3.4.1; the
    /// execute-order-in-parallel flow only).
    pub fn at_height(mut self, height: BlockHeight) -> Call {
        self.snapshot_height = Some(height);
        self
    }

    /// The target contract name.
    pub fn contract(&self) -> &str {
        &self.contract
    }
}

/// Fluent builder for a single invocation, bound to a [`Client`].
#[must_use = "a call builder does nothing until .submit() or .submit_wait()"]
pub struct CallBuilder<'a> {
    client: &'a Client,
    call: Call,
}

impl<'a> CallBuilder<'a> {
    pub(crate) fn new(client: &'a Client, contract: &str) -> CallBuilder<'a> {
        CallBuilder {
            client,
            call: Call::new(contract),
        }
    }

    /// Append one argument.
    pub fn arg(mut self, v: impl IntoValue) -> Self {
        self.call = self.call.arg(v);
        self
    }

    /// Append several arguments.
    pub fn args<I>(mut self, items: I) -> Self
    where
        I: IntoIterator,
        I::Item: IntoValue,
    {
        self.call = self.call.args(items);
        self
    }

    /// Pin the transaction to an explicit snapshot height (§3.4.1; the
    /// execute-order-in-parallel flow only).
    pub fn at_height(mut self, height: BlockHeight) -> Self {
        self.call = self.call.at_height(height);
        self
    }

    /// Detach the accumulated [`Call`] (e.g. to collect into a batch).
    pub fn into_call(self) -> Call {
        self.call
    }

    /// Sign and submit asynchronously; returns the in-flight handle.
    pub fn submit(self) -> Result<PendingTx> {
        self.client.submit(self.call)
    }

    /// Sign, submit, and wait for a **committed** outcome. Returns
    /// [`Error::TxAborted`] if the network aborted the transaction and
    /// [`Error::Timeout`] if no final status arrived within `timeout`.
    pub fn submit_wait(self, timeout: Duration) -> Result<TxNotification> {
        self.submit()?.wait_committed(timeout)
    }

    /// Like [`CallBuilder::submit_wait`], but transparently re-submits on
    /// *retriable* serialization failures (SSI aborts, stale/phantom
    /// snapshot reads) — the §3.4.1 client protocol: "retry at a newer
    /// snapshot height". Calls without an explicit [`Self::at_height`]
    /// re-pin to the fresh chain height on every attempt; explicitly
    /// pinned calls retry at the same height (and so will keep failing if
    /// the pin itself is stale — pinning is the caller's choice).
    pub fn submit_wait_retrying(self, timeout: Duration) -> Result<TxNotification> {
        self.client.submit_retrying(self.call, timeout)
    }
}

// --------------------------------------------------------------- pending

/// An in-flight transaction: the id plus its notification channel. Holds
/// one slot of the client's admission window until dropped, and keeps
/// the transport connection alive so the notification can still be
/// delivered if the [`Client`] itself is dropped first.
pub struct PendingTx {
    /// Network-unique transaction id.
    pub id: GlobalTxId,
    pub(crate) rx: Receiver<TxNotification>,
    pub(crate) _permit: WindowPermit,
    pub(crate) _transport: Arc<dyn NodeTransport>,
}

impl std::fmt::Debug for PendingTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingTx").field("id", &self.id).finish()
    }
}

impl PendingTx {
    /// Wait for the final status (committed **or** aborted). Returns
    /// [`Error::Timeout`] when no final status arrives in time — the
    /// transaction may still commit later; the caller can keep waiting.
    pub fn wait(&self, timeout: Duration) -> Result<TxNotification> {
        self.rx.recv_timeout(timeout).map_err(|_| {
            Error::Timeout(format!(
                "no final status for transaction {} within {timeout:?}",
                self.id.short()
            ))
        })
    }

    /// Wait and require a committed outcome; a definitive abort becomes
    /// [`Error::TxAborted`] carrying the ledger's reason.
    pub fn wait_committed(&self, timeout: Duration) -> Result<TxNotification> {
        let n = self.wait(timeout)?;
        match &n.status {
            TxStatus::Committed => Ok(n),
            TxStatus::Aborted(reason) => Err(Error::TxAborted {
                id: self.id,
                reason: reason.clone(),
            }),
        }
    }
}

/// A batch of in-flight transactions whose notifications fan in to one
/// channel. Holds `len()` slots of the client's admission window
/// until dropped.
pub struct PendingBatch {
    ids: Vec<GlobalTxId>,
    rx: Receiver<TxNotification>,
    _permit: WindowPermit,
    _transport: Arc<dyn NodeTransport>,
}

impl std::fmt::Debug for PendingBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingBatch")
            .field("ids", &self.ids)
            .finish()
    }
}

impl PendingBatch {
    /// Ids in submission order (deduplicated).
    pub fn ids(&self) -> &[GlobalTxId] {
        &self.ids
    }

    /// Number of distinct transactions in flight.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Wait for the final status of **every** transaction in the batch.
    /// Results are returned in submission order regardless of commit
    /// order. [`Error::Timeout`] if any member lacks a final status when
    /// `timeout` elapses.
    pub fn wait_all(&self, timeout: Duration) -> Result<Vec<TxNotification>> {
        let deadline = Instant::now() + timeout;
        let mut by_id: std::collections::HashMap<GlobalTxId, TxNotification> =
            std::collections::HashMap::with_capacity(self.ids.len());
        while by_id.len() < self.ids.len() {
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::Timeout(format!(
                    "batch: {} of {} transactions still unresolved after {timeout:?}",
                    self.ids.len() - by_id.len(),
                    self.ids.len()
                )));
            }
            let n = self.rx.recv_timeout(deadline - now).map_err(|_| {
                Error::Timeout(format!(
                    "batch: {} of {} transactions still unresolved after {timeout:?}",
                    self.ids.len() - by_id.len(),
                    self.ids.len()
                ))
            })?;
            by_id.insert(n.id, n);
        }
        Ok(self
            .ids
            .iter()
            .map(|id| by_id.remove(id).expect("collected all ids"))
            .collect())
    }

    /// Wait for every member and require all of them committed; the
    /// first abort (in submission order) becomes [`Error::TxAborted`].
    pub fn wait_committed_all(&self, timeout: Duration) -> Result<Vec<TxNotification>> {
        let all = self.wait_all(timeout)?;
        for n in &all {
            if let TxStatus::Aborted(reason) = &n.status {
                return Err(Error::TxAborted {
                    id: n.id,
                    reason: reason.clone(),
                });
            }
        }
        Ok(all)
    }
}

// -------------------------------------------------------------- prepared

/// A prepared read-only statement: a **server-side handle** into the
/// home node's bounded statement cache. Parse once, execute many times
/// with fresh parameters; if the node evicts the handle (LRU), the next
/// execution re-prepares transparently.
pub struct Prepared {
    transport: Arc<dyn NodeTransport>,
    sql: String,
    param_count: usize,
    handle: AtomicU64,
}

impl Prepared {
    /// The SQL text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Number of `$n` parameters the statement expects.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The current server-side handle (may change if the node evicted
    /// the statement and the driver re-prepared).
    pub fn handle(&self) -> StatementHandle {
        self.handle.load(Ordering::Relaxed)
    }

    /// Execute at the current committed height (hot path: an 8-byte
    /// handle plus the parameters travel the wire, not the SQL text).
    pub fn query(&self, params: &[Value]) -> Result<QueryResult> {
        self.exec(params, None)
    }

    /// Execute at a historical height (time travel / audits).
    pub fn query_at(&self, params: &[Value], height: BlockHeight) -> Result<QueryResult> {
        self.exec(params, Some(height))
    }

    fn exec(&self, params: &[Value], height: Option<BlockHeight>) -> Result<QueryResult> {
        let req = ClientRequest::QueryPrepared {
            handle: self.handle.load(Ordering::Relaxed),
            params: params.to_vec(),
            height,
        };
        match rpc_rows(&*self.transport, req) {
            Err(Error::NotFound(msg)) if msg.contains("prepared statement handle") => {
                // Evicted from the node's bounded cache: re-prepare and
                // retry once with the fresh handle.
                let (handle, _) = rpc_prepare(&*self.transport, &self.sql)?;
                self.handle.store(handle, Ordering::Relaxed);
                rpc_rows(
                    &*self.transport,
                    ClientRequest::QueryPrepared {
                        handle,
                        params: params.to_vec(),
                        height,
                    },
                )
            }
            other => other,
        }
    }

    /// Start a fluent execution with typed parameter binding.
    pub fn run(&self) -> PreparedRun<'_> {
        PreparedRun {
            prepared: self,
            params: Vec::new(),
            height: None,
        }
    }
}

/// Fluent parameter binding for one execution of a [`Prepared`]
/// statement.
#[must_use = "a prepared run does nothing until .fetch()"]
pub struct PreparedRun<'a> {
    prepared: &'a Prepared,
    params: Vec<Value>,
    height: Option<BlockHeight>,
}

impl PreparedRun<'_> {
    /// Bind the next `$n` parameter.
    pub fn bind(mut self, v: impl IntoValue) -> Self {
        self.params.push(v.into_value());
        self
    }

    /// Read from the snapshot at `height` instead of the current tip.
    pub fn at_height(mut self, height: BlockHeight) -> Self {
        self.height = Some(height);
        self
    }

    /// Execute and return the raw result.
    pub fn fetch(self) -> Result<QueryResult> {
        self.prepared.exec(&self.params, self.height)
    }

    /// Execute and decode every row into `T`.
    pub fn fetch_as<T: FromRow>(self) -> Result<Vec<T>> {
        self.fetch()?.rows_as()
    }

    /// Execute and decode the single row into `T`.
    pub fn fetch_one<T: FromRow>(self) -> Result<T> {
        self.fetch()?.one_as()
    }

    /// Execute and decode the single scalar into `T`.
    pub fn fetch_scalar<T: FromValue>(self) -> Result<T> {
        self.fetch()?.scalar_as()
    }
}

// --------------------------------------------------------------- queries

/// Fluent builder for a one-off read-only query, shipped as a single
/// `Query` RPC. Server-side, every fetch goes through the
/// node's statement cache, so repeated SQL text is parsed once even
/// without an explicit [`Client::prepare`].
#[must_use = "a query builder does nothing until .fetch()"]
pub struct QueryBuilder<'a> {
    client: &'a Client,
    sql: String,
    params: Vec<Value>,
    height: Option<BlockHeight>,
}

impl<'a> QueryBuilder<'a> {
    pub(crate) fn new(client: &'a Client, sql: &str) -> QueryBuilder<'a> {
        QueryBuilder {
            client,
            sql: sql.to_string(),
            params: Vec::new(),
            height: None,
        }
    }

    /// Bind the next `$n` parameter.
    pub fn bind(mut self, v: impl IntoValue) -> Self {
        self.params.push(v.into_value());
        self
    }

    /// Bind several parameters.
    pub fn binds<I>(mut self, items: I) -> Self
    where
        I: IntoIterator,
        I::Item: IntoValue,
    {
        self.params
            .extend(items.into_iter().map(IntoValue::into_value));
        self
    }

    /// Read from the snapshot at `height` instead of the current tip
    /// (time travel / audits — the §4.3 libpq height extension).
    pub fn at_height(mut self, height: BlockHeight) -> Self {
        self.height = Some(height);
        self
    }

    /// Execute and return the raw result.
    pub fn fetch(self) -> Result<QueryResult> {
        let req = ClientRequest::Query {
            sql: self.sql,
            params: self.params,
            height: self.height,
        };
        rpc_rows(&*self.client.transport, req)
    }

    /// Execute and decode every row into `T`.
    pub fn fetch_as<T: FromRow>(self) -> Result<Vec<T>> {
        self.fetch()?.rows_as()
    }

    /// Execute and decode the single row into `T`.
    pub fn fetch_one<T: FromRow>(self) -> Result<T> {
        self.fetch()?.one_as()
    }

    /// Execute and decode the single scalar into `T`.
    pub fn fetch_scalar<T: FromValue>(self) -> Result<T> {
        self.fetch()?.scalar_as()
    }
}

// ------------------------------------------------------- client surface

impl Client {
    /// Start a fluent contract invocation:
    /// `client.call("transfer").arg(1).arg(2).arg(40.0).submit()`.
    pub fn call(&self, contract: &str) -> CallBuilder<'_> {
        CallBuilder::new(self, contract)
    }

    /// Sign and submit a [`Call`] asynchronously — a batch of one. The
    /// transaction travels the transport to the client's node, which
    /// executes it immediately (EO flow, §3.4.1) or proxies it to the
    /// ordering service (OE flow, §3.3.1). A full admission window is
    /// [`Error::Busy`] before anything is signed.
    pub fn submit(&self, call: Call) -> Result<PendingTx> {
        let PendingBatch {
            ids,
            rx,
            _permit,
            _transport,
        } = self.submit_all([call])?;
        Ok(PendingTx {
            id: ids[0],
            rx,
            _permit,
            _transport,
        })
    }

    /// Sign a whole batch and submit it as one request, fanning every
    /// notification into a single channel. Calls that pin no snapshot
    /// height (EO flow) share one, read once for the batch. Duplicate
    /// calls (same contract, args and snapshot height hash to the same
    /// global id in the EO flow) are submitted once. If the node refuses
    /// a member, that error is returned and no batch handle: members
    /// before it stay in flight network-side, the rest were never
    /// submitted. Returns a [`PendingBatch`].
    pub fn submit_all<I>(&self, calls: I) -> Result<PendingBatch>
    where
        I: IntoIterator<Item = Call>,
    {
        // Admission first — a full window must be rejected before any
        // signing work. The permit covers the pre-dedup count and shrinks
        // once duplicates are known.
        let calls: Vec<Call> = calls.into_iter().collect();
        let mut permit = self.window.acquire(calls.len())?;
        let mut txs: Vec<Transaction> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut tip = None;
        for call in calls {
            let tx = self.sign_call(call, &mut tip)?;
            if seen.insert(tx.id) {
                txs.push(tx);
            }
        }
        let ids: Vec<GlobalTxId> = txs.iter().map(|t| t.id).collect();
        permit.shrink(ids.len());
        let rx = self.transport.submit(txs)?;
        Ok(PendingBatch {
            ids,
            rx,
            _permit: permit,
            _transport: Arc::clone(&self.transport),
        })
    }

    /// Submit a call and wait for commitment, retrying retriable
    /// serialization failures with a short backoff (each retry re-signs,
    /// and — unless the call pinned a height — re-pins at the fresh
    /// chain height). At most five retries; terminal aborts and
    /// timeouts propagate immediately.
    pub fn submit_retrying(&self, call: Call, timeout: Duration) -> Result<TxNotification> {
        let mut attempts: u64 = 0;
        loop {
            match self.submit(call.clone())?.wait_committed(timeout) {
                Ok(n) => return Ok(n),
                Err(e) if e.is_retriable() && attempts < 5 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(5 * attempts));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Prepare a read-only statement on this client's node: parsed once
    /// into the node's bounded statement cache, addressed afterwards by
    /// the returned server-side handle.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let (handle, param_count) = rpc_prepare(&*self.transport, sql)?;
        Ok(Prepared {
            transport: Arc::clone(&self.transport),
            sql: sql.to_string(),
            param_count,
            handle: AtomicU64::new(handle),
        })
    }

    /// Start a fluent read-only query:
    /// `client.select("SELECT balance FROM accounts WHERE id = $1").bind(1).fetch()`.
    ///
    /// Reads execute on this client's node only and are not recorded on
    /// the blockchain (§3.7).
    pub fn select(&self, sql: &str) -> QueryBuilder<'_> {
        QueryBuilder::new(self, sql)
    }

    /// The node's query plan for a SELECT, as the planner would run it
    /// right now: one text line per plan node, with estimated and actual
    /// row counts (the statement is executed ANALYZE-style). `sql` may
    /// but need not carry the `EXPLAIN` prefix.
    pub fn explain(&self, sql: &str) -> Result<Vec<String>> {
        let text = sql.trim_start();
        let stmt = if text.len() >= 7 && text[..7].eq_ignore_ascii_case("EXPLAIN") {
            text.to_string()
        } else {
            format!("EXPLAIN {text}")
        };
        let result = self.select(&stmt).fetch()?;
        Ok(result
            .rows_as::<(String,)>()?
            .into_iter()
            .map(|(line,)| line)
            .collect())
    }

    /// Sign one call. `tip` is its batch's default snapshot height (EO
    /// flow), read from the node by the first call that pins none: any
    /// height at or below the committed one is a valid snapshot (§3.4.1).
    fn sign_call(&self, call: Call, tip: &mut Option<BlockHeight>) -> Result<Transaction> {
        let Call {
            contract,
            args,
            snapshot_height,
        } = call;
        match self.flow {
            Flow::ExecuteOrderParallel => {
                let height = match snapshot_height.or(*tip) {
                    Some(h) => h,
                    None => *tip.insert(self.chain_height()?),
                };
                Transaction::new_execute_order(
                    &self.name,
                    Payload::new(&contract, args),
                    height,
                    &self.key,
                )
            }
            Flow::OrderThenExecute => {
                if snapshot_height.is_some() {
                    return Err(Error::Config(
                        "snapshot heights only apply to the execute-order-in-parallel flow".into(),
                    ));
                }
                let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
                Transaction::new_order_execute(
                    &self.name,
                    Payload::new(&contract, args),
                    nonce,
                    &self.key,
                )
            }
        }
    }
}
