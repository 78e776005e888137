#![warn(missing_docs)]
//! # bcrdb — a blockchain relational database
//!
//! A from-scratch Rust implementation of *"Blockchain Meets Database:
//! Design and Implementation of a Blockchain Relational Database"*
//! (Nathan et al., VLDB 2019): a decentralized replicated relational
//! database where mutually distrustful organizations each run a database
//! node, transactions are deterministic SQL smart contracts ordered by a
//! pluggable consensus service, and a novel block-height variant of
//! serializable snapshot isolation guarantees that every replica commits
//! the same transactions in the same serializable order.
//!
//! This facade re-exports the public API ([`Network`], [`Client`] and
//! the typed session surface) plus every substrate crate for direct
//! use. See `README.md` for a tour and `DESIGN.md` for the architecture
//! and the paper-experiment index.

pub use bcrdb_core::{
    Call, CallBuilder, Client, ClusterSpec, Connection, InProcess, Network, NetworkConfig,
    NodeTransport, PendingBatch, PendingTx, Prepared, PreparedRun, QueryBuilder, TcpCluster,
    TransportKind,
};

pub use bcrdb_chain as chain;
pub use bcrdb_common as common;
pub use bcrdb_core as core;
pub use bcrdb_crypto as crypto;
pub use bcrdb_engine as engine;
pub use bcrdb_network as network;
pub use bcrdb_node as node;
pub use bcrdb_ordering as ordering;
pub use bcrdb_sql as sql;
pub use bcrdb_storage as storage;
pub use bcrdb_txn as txn;

/// Commonly used items for applications.
pub mod prelude {
    pub use bcrdb_chain::ledger::TxStatus;
    pub use bcrdb_common::value::{FromValue, IntoValue, Value};
    pub use bcrdb_common::{Error, Result};
    pub use bcrdb_core::{
        Call, Client, Network, NetworkConfig, NodeTransport, PendingBatch, PendingTx, Prepared,
        TransportKind,
    };
    pub use bcrdb_engine::result::{FromRow, QueryResult, RowRef};
    pub use bcrdb_node::TxNotification;
    pub use bcrdb_txn::ssi::Flow;
}
