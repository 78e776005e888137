//! The node's client-facing RPC frontend.
//!
//! The paper's clients speak to database nodes over PostgreSQL's wire
//! protocol plus a libpq extension for snapshot heights (§4.3). This
//! module is our equivalent of that boundary: a typed
//! [`ClientRequest`]/[`ClientResponse`] message pair covering the whole
//! client surface in seven request kinds (submission of one transaction
//! or a batch, queries, server-side prepared-statement handles, chain
//! height, metrics), dispatched per **connection** by a [`Frontend`].
//!
//! The frontend is transport-agnostic: an in-process transport calls
//! [`Frontend::handle`] directly, while a wire connection moves the same
//! messages as [`crate::wire::ClientFrame`]s — written to a socket, or
//! carried over a `SimNetwork` that charges each frame the bytes the
//! socket write would take, so latency/bandwidth profiles apply to client
//! traffic exactly as they do to peer and orderer traffic.
//!
//! A submission carries its own registration: [`Frontend::submit`]
//! registers the caller's notification channel for each transaction
//! *before* handing it to the node, so the final status cannot race past
//! the client, and takes a registration back only when the node refused
//! the transaction. Submissions that arrive as requests register the
//! connection's own stream; [`Frontend::disconnect`] (and `Drop`) cancels
//! every registration on it, so an abandoned connection cannot leak
//! waiters in the node's [`crate::notify::NotificationHub`].

use std::sync::Arc;

use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::Result;
use bcrdb_common::ids::BlockHeight;
use bcrdb_common::value::Value;
use bcrdb_engine::result::QueryResult;
use crossbeam_channel::{unbounded, Receiver, Sender};

use crate::metrics::MetricsSnapshot;
use crate::node::Node;
use crate::notify::TxNotification;
use crate::statements::StatementHandle;

/// A request from a client to its home node — the complete RPC surface
/// of the client/node boundary.
#[derive(Clone, Debug)]
pub enum ClientRequest {
    /// Submit a signed transaction (EO: execute + forward + order;
    /// OE: proxy to the ordering service) and register this connection
    /// for its final status, which arrives on the connection's
    /// notification stream.
    Submit(Box<Transaction>),
    /// [`ClientRequest::Submit`] for several transactions in one frame,
    /// submitted in order; the first one the node refuses fails the
    /// request (see [`Frontend::submit`]).
    SubmitBatch(Vec<Transaction>),
    /// One-shot read-only query (routed through the statement cache
    /// server-side).
    Query {
        /// SELECT text with `$n` placeholders.
        sql: String,
        /// Positional parameters.
        params: Vec<Value>,
        /// Historical snapshot height (time travel; the §4.3 libpq
        /// snapshot extension), which must not exceed the node's
        /// committed tip. `None` reads at the current committed height.
        height: Option<BlockHeight>,
    },
    /// Parse a read-only statement into the node's bounded statement
    /// cache; answers with a server-side handle.
    Prepare {
        /// SELECT text with `$n` placeholders.
        sql: String,
    },
    /// Execute a previously prepared statement by handle. An evicted
    /// handle is `Error::NotFound` (drivers re-prepare transparently).
    QueryPrepared {
        /// Handle from a [`ClientRequest::Prepare`] response.
        handle: StatementHandle,
        /// Positional parameters.
        params: Vec<Value>,
        /// Optional historical snapshot height.
        height: Option<BlockHeight>,
    },
    /// The node's committed chain height.
    ChainHeight,
    /// Snapshot (and reset) the node's micro-metrics window.
    Metrics,
}

/// A response from the node frontend. Every variant answers exactly one
/// [`ClientRequest`]; transaction notifications travel separately on the
/// connection's notification stream.
// Frames are transient per-RPC values, never stored in bulk; boxing the
// metrics snapshot would complicate the fixed-shape wire codec for no
// resident-memory win.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ClientResponse {
    /// The request was accepted and carries no payload (submissions).
    Ack,
    /// Query rows.
    Rows(QueryResult),
    /// A prepared statement's server-side handle.
    Statement {
        /// Handle to pass in [`ClientRequest::QueryPrepared`].
        handle: StatementHandle,
        /// Number of `$n` parameters the statement expects.
        param_count: usize,
    },
    /// The committed chain height.
    Height(BlockHeight),
    /// A micro-metrics window snapshot.
    Metrics(MetricsSnapshot),
}

/// One client connection's server-side half: dispatches requests against
/// the node and funnels the notifications of everything submitted over
/// the connection into a single per-connection stream.
pub struct Frontend {
    node: Arc<Node>,
    notify_tx: Sender<TxNotification>,
}

impl Frontend {
    /// Open a connection to `node`. Returns the frontend and the
    /// connection's notification stream (every transaction submitted
    /// through [`Frontend::handle`] reports there).
    pub fn new(node: Arc<Node>) -> (Frontend, Receiver<TxNotification>) {
        let (notify_tx, notify_rx) = unbounded();
        (Frontend { node, notify_tx }, notify_rx)
    }

    /// The node this connection serves.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Dispatch one request.
    pub fn handle(&self, req: ClientRequest) -> Result<ClientResponse> {
        match req {
            ClientRequest::Submit(tx) => self
                .submit([*tx], &self.notify_tx)
                .map(|()| ClientResponse::Ack),
            ClientRequest::SubmitBatch(txs) => self
                .submit(txs, &self.notify_tx)
                .map(|()| ClientResponse::Ack),
            ClientRequest::Query {
                sql,
                params,
                height,
            } => self
                .node
                .query_cached(&sql, &params, height)
                .map(ClientResponse::Rows),
            ClientRequest::Prepare { sql } => {
                let (handle, query) = self.node.prepare_handle(&sql)?;
                Ok(ClientResponse::Statement {
                    handle,
                    param_count: query.param_count(),
                })
            }
            ClientRequest::QueryPrepared {
                handle,
                params,
                height,
            } => self
                .node
                .query_by_handle(handle, &params, height)
                .map(ClientResponse::Rows),
            ClientRequest::ChainHeight => Ok(ClientResponse::Height(self.node.height())),
            ClientRequest::Metrics => Ok(ClientResponse::Metrics(self.node.metrics_report())),
        }
    }

    /// Submit `txs` to the node in order, registering `sink` for the
    /// final status of each one before the node sees it. The first
    /// transaction the node refuses ends the call with that error and
    /// gives back its registration — exactly the one this call made, so a
    /// live wait on the same id (an earlier submission still in flight)
    /// survives. Transactions before it stay submitted and registered;
    /// those after it are neither.
    pub fn submit(
        &self,
        txs: impl IntoIterator<Item = Transaction>,
        sink: &Sender<TxNotification>,
    ) -> Result<()> {
        let hub = self.node.notifications();
        for tx in txs {
            let id = tx.id;
            hub.register(id, sink.clone());
            if let Err(e) = self.node.submit_local(tx) {
                hub.cancel_for(&id, sink);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Cancel every notification registration of this connection — the
    /// client went away, so none of its waits can be delivered.
    pub fn disconnect(&self) {
        self.node.notifications().cancel_sender(&self.notify_tx);
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.disconnect();
    }
}
