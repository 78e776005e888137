//! The [`Client`]: a user identity connected to its organization's
//! database node through a [`NodeTransport`].
//!
//! The typed session surface (fluent calls, prepared statements, typed
//! rows, batch submission) lives in [`crate::session`]. A client owns
//! its signing key, its transaction flow, and one transport connection;
//! every interaction with the node — submissions and their
//! notifications, queries — travels that connection, so swapping the
//! backend (in-process vs simulated wire) changes costs, never semantics.
//!
//! The pre-session stringly shims (`invoke`/`query`/…) completed their
//! one-release deprecation window and are gone; see `README.md` history
//! for the migration table.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;
use bcrdb_crypto::identity::KeyPair;
use bcrdb_node::{ClientRequest, ClientResponse, MetricsSnapshot};
use bcrdb_txn::ssi::Flow;

use crate::session::WindowState;
use crate::transport::NodeTransport;

/// A client user bound to its organization's database node.
pub struct Client {
    pub(crate) name: String,
    pub(crate) key: Arc<KeyPair>,
    pub(crate) flow: Flow,
    /// OE nonce source, shared network-wide so clients with the same
    /// identity never collide on (user, nonce) transaction ids.
    pub(crate) nonce: Arc<AtomicU64>,
    pub(crate) transport: Arc<dyn NodeTransport>,
    /// Admission control: bounds this client's in-flight transactions.
    pub(crate) window: Arc<WindowState>,
}

impl Client {
    pub(crate) fn new(
        name: String,
        key: Arc<KeyPair>,
        flow: Flow,
        nonce: Arc<AtomicU64>,
        transport: Arc<dyn NodeTransport>,
        window_cap: usize,
    ) -> Client {
        Client {
            name,
            key,
            flow,
            nonce,
            transport,
            window: Arc::new(WindowState::new(window_cap)),
        }
    }

    /// The client's registered name (`org/user`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The transport connection to the home node — the raw RPC surface,
    /// for advanced callers (tests, fault injection, custom drivers).
    pub fn transport(&self) -> &Arc<dyn NodeTransport> {
        &self.transport
    }

    /// The home node's committed chain height (the libpq extension of
    /// §4.3 that lets clients pick a snapshot height). Transport
    /// failures surface as [`Error`] — never as a default height, which
    /// would silently pin snapshot reads to genesis; over a simulated
    /// wire this is a full round trip.
    pub fn chain_height(&self) -> Result<BlockHeight> {
        match self.transport.call(ClientRequest::ChainHeight)? {
            ClientResponse::Height(h) => Ok(h),
            other => Err(Error::internal(format!(
                "unexpected ChainHeight response: {other:?}"
            ))),
        }
    }

    /// Snapshot (and reset) the home node's micro-metrics window.
    pub fn node_metrics(&self) -> Result<MetricsSnapshot> {
        match self.transport.call(ClientRequest::Metrics)? {
            ClientResponse::Metrics(m) => Ok(m),
            other => Err(Error::internal(format!(
                "unexpected Metrics response: {other:?}"
            ))),
        }
    }

    /// Transactions currently in flight under this client's admission
    /// window (observability / tests).
    pub fn in_flight(&self) -> usize {
        self.window.in_flight()
    }

    /// The public key bytes of this client (for `create_usertx`).
    pub fn public_key_bytes(&self) -> Vec<u8> {
        self.key.public_key().to_bytes()
    }
}
