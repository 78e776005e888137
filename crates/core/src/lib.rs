#![warn(missing_docs)]
//! # bcrdb-core
//!
//! The public API of the blockchain relational database: assemble a
//! permissioned network of organizations (§3.7), obtain clients, deploy
//! smart contracts through the system-contract approval workflow, invoke
//! contracts as signed blockchain transactions and run (provenance)
//! queries.
//!
//! Clients speak to their node through a [`NodeTransport`] (the paper's
//! PostgreSQL-wire + libpq boundary, §4.3): [`InProcess`] for direct
//! zero-overhead dispatch, or a wire [`Connection`] — over the simulated
//! network's latency/bandwidth model like peer and orderer traffic, or
//! over a real TCP socket (see [`transport`]).
//!
//! ```no_run
//! use bcrdb_core::{Network, NetworkConfig};
//!
//! let net = Network::build(NetworkConfig::quick(
//!     &["org1", "org2", "org3"],
//!     bcrdb_txn::ssi::Flow::ExecuteOrderParallel,
//! )).unwrap();
//! net.bootstrap_sql(
//!     "CREATE TABLE accounts (id INT PRIMARY KEY, balance FLOAT NOT NULL); \
//!      CREATE FUNCTION open_account(id INT, bal FLOAT) AS $$ \
//!        INSERT INTO accounts VALUES ($1, $2) $$",
//! ).unwrap();
//! let alice = net.client("org1", "alice").unwrap();
//! alice.call("open_account").arg(1).arg(100.0)
//!     .submit_wait(std::time::Duration::from_secs(5)).unwrap();
//! let balance: f64 = alice
//!     .select("SELECT balance FROM accounts WHERE id = $1")
//!     .bind(1)
//!     .fetch_scalar()
//!     .unwrap();
//! println!("balance: {balance}");
//! ```

pub mod client;
pub mod config;
pub mod deploy;
mod identity;
pub mod launch;
pub mod network;
pub mod session;
pub mod system;
pub mod tcp;
pub mod transport;

pub use bcrdb_node::DEFAULT_POOL_FRAMES;
pub use client::Client;
pub use config::NetworkConfig;
pub use deploy::{
    await_height_tcp, install_stop_signals, run_node_process, run_ordering_process, tcp_client,
    ClusterSpec, NodeSpec, OrderingProc, TcpCluster, DEFAULT_GENESIS_SQL,
};
pub use launch::NodeProc;
pub use network::Network;
pub use session::{
    Call, CallBuilder, PendingBatch, PendingTx, Prepared, PreparedRun, QueryBuilder,
};
pub use tcp::PeerFrame;
pub use transport::{Connection, InProcess, NodeTransport, TransportKind};
