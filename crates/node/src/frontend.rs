//! The node's client-facing RPC frontend.
//!
//! The paper's clients speak to database nodes over PostgreSQL's wire
//! protocol plus a libpq extension for snapshot heights (§4.3). This
//! module is our equivalent of that boundary: a typed
//! [`ClientRequest`]/[`ClientResponse`] message pair covering the whole
//! client surface (submission, queries, server-side prepared-statement
//! handles, notification waits, metrics), dispatched per **connection**
//! by a [`Frontend`].
//!
//! The frontend is transport-agnostic: an in-process transport calls
//! [`Frontend::handle`] directly, while a wire connection moves the same
//! messages as [`crate::wire::ClientFrame`]s — written to a socket, or
//! carried over a `SimNetwork` that charges each frame the bytes the
//! socket write would take, so latency/bandwidth profiles apply to client
//! traffic exactly as they do to peer and orderer traffic.
//!
//! Notification waits registered through a frontend all funnel into one
//! per-connection channel; [`Frontend::disconnect`] (and `Drop`) cancels
//! every outstanding registration, so an abandoned connection cannot
//! leak waiters in the node's [`crate::notify::NotificationHub`].

use std::sync::Arc;

use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::Result;
use bcrdb_common::ids::{BlockHeight, GlobalTxId};
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
    /// OE: proxy to the ordering service).
    Submit(Box<Transaction>),
    /// One-shot read-only query at the current committed height (routed
    /// through the statement cache server-side).
    Query {
        /// SELECT text with `$n` placeholders.
        sql: String,
        /// Positional parameters.
        params: Vec<Value>,
    },
    /// One-shot read-only query at a historical height (time travel;
    /// the §4.3 libpq snapshot extension).
    QueryAt {
        /// SELECT text with `$n` placeholders.
        sql: String,
        /// Positional parameters.
        params: Vec<Value>,
        /// Snapshot height; must not exceed the node's committed tip.
        height: BlockHeight,
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
    /// Register this connection for the final status of one transaction;
    /// the notification arrives on the connection's notification stream.
    WaitFor {
        /// The awaited transaction.
        id: GlobalTxId,
    },
    /// Register for a whole batch at once (one registration round trip).
    WaitForBatch {
        /// The awaited transactions.
        ids: Vec<GlobalTxId>,
    },
    /// Drop this connection's registration for `id` (e.g. after a failed
    /// submission abandoned the wait).
    CancelWait {
        /// The abandoned transaction.
        id: GlobalTxId,
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
    /// The request was accepted and carries no payload (Submit, waits).
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
/// the node and funnels notification waits into a single per-connection
/// stream.
pub struct Frontend {
    node: Arc<Node>,
    notify_tx: Sender<TxNotification>,
}

impl Frontend {
    /// Open a connection to `node`. Returns the frontend and the
    /// connection's notification stream (every `WaitFor`/`WaitForBatch`
    /// delivers there).
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
            ClientRequest::Submit(tx) => {
                self.node.submit_local(*tx)?;
                Ok(ClientResponse::Ack)
            }
            ClientRequest::Query { sql, params } => self
                .node
                .query_cached(&sql, &params, None)
                .map(ClientResponse::Rows),
            ClientRequest::QueryAt {
                sql,
                params,
                height,
            } => self
                .node
                .query_cached(&sql, &params, Some(height))
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
            ClientRequest::WaitFor { id } => {
                self.node
                    .notifications()
                    .register(id, self.notify_tx.clone());
                Ok(ClientResponse::Ack)
            }
            ClientRequest::WaitForBatch { ids } => {
                let hub = self.node.notifications();
                for id in ids {
                    hub.register(id, self.notify_tx.clone());
                }
                Ok(ClientResponse::Ack)
            }
            ClientRequest::CancelWait { id } => {
                self.node.notifications().cancel_for(&id, &self.notify_tx);
                Ok(ClientResponse::Ack)
            }
            ClientRequest::ChainHeight => Ok(ClientResponse::Height(self.node.height())),
            ClientRequest::Metrics => Ok(ClientResponse::Metrics(self.node.metrics_report())),
        }
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
