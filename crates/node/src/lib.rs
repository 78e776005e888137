#![warn(missing_docs)]
//! # bcrdb-node
//!
//! The database peer node: one organization's replica of the blockchain
//! relational database.
//!
//! A node assembles every lower layer — MVCC storage, SSI, the SQL engine,
//! the block store and checkpoint tracker — into the two transaction flows
//! of the paper:
//!
//! * **order-then-execute** (§3.3): blocks arrive from the ordering
//!   service; all transactions of a block execute concurrently against the
//!   state at `block − 1` on the executor pool; the block processor then
//!   serially signals commits in block order (abort-during-commit SSI);
//! * **execute-order-in-parallel** (§3.4): transactions submitted to the
//!   node start executing immediately at their client-specified snapshot
//!   height (block-height SSI, phantom/stale detection) while ordering
//!   happens in parallel; missing transactions are executed at block
//!   arrival; commits apply the block-aware rules of Table 2.
//!
//! The node also implements the checkpointing phase (write-set hashes
//! compared across nodes, §3.3.4), the ledger table (`pgLedger`, §4.2),
//! client notifications (§2(7)), crash recovery from the block store plus
//! periodic state snapshots (§3.6), peer catch-up — block sync and
//! snapshot fast-sync for crashed, partitioned and late-joining nodes
//! ([`sync`], §3.6) — and the serial-execution mode used for the paper's
//! Ethereum-style comparison (§5.1).
//!
//! Clients never touch a node directly: the [`frontend`] module defines
//! the typed [`ClientRequest`]/[`ClientResponse`] RPC surface — our
//! equivalent of the paper's PostgreSQL wire protocol + libpq extension
//! (§4.3) — dispatched per connection by a [`Frontend`], with prepared
//! statements addressed by server-side [`StatementHandle`]s from a
//! bounded LRU cache ([`statements`]).

pub mod commit;
pub mod config;
pub mod exec_pool;
pub mod frontend;
pub mod metrics;
pub mod node;
pub mod notify;
pub mod processor;
pub mod slots;
pub mod statements;
pub mod sync;
pub mod wire;

pub use config::{NodeConfig, NodeHooks, OrderingStatsHook, SyncFetchHook, DEFAULT_POOL_FRAMES};
pub use exec_pool::{NativeContract, NativeCtx};
pub use frontend::{ClientRequest, ClientResponse, Frontend};
pub use metrics::{MetricsSnapshot, NodeMetrics, OrderingSnapshot};
pub use node::Node;
pub use notify::TxNotification;
pub use statements::StatementHandle;
pub use sync::SyncStats;
pub use wire::ClientFrame;
