#![warn(missing_docs)]
//! # bcrdb-ordering
//!
//! The pluggable ordering service (§3.1, §4.4): consensus over *blocks of
//! transactions*, decoupled from transaction execution.
//!
//! Three backends are provided, mirroring the paper's setup:
//!
//! * **solo** — a single orderer node (development/testing);
//! * **kafka** — a crash-fault-tolerant service in the style of the
//!   paper's Apache Kafka + ZooKeeper deployment: every orderer publishes
//!   to a totally ordered topic (here a sequencer thread) and each orderer
//!   independently delivers the identical block stream. Capacity is flat
//!   in the number of orderer nodes (Fig 8b, "Kafka Throughput");
//! * **bft** — a byzantine-fault-tolerant service in the style of
//!   BFT-SMaRt: the current view's leader proposes each block, replicas
//!   run PRE-PREPARE/PREPARE/COMMIT rounds over the simulated network
//!   with quadratic message complexity, so throughput degrades as
//!   orderer count grows (Fig 8b, "BFT Throughput"). PBFT view changes
//!   rotate the leader when it crashes or stalls
//!   ([`OrderingService::stop_orderer`] /
//!   [`OrderingService::stall_orderer`] inject those faults), so block
//!   production survives leader failure — see [`bft`].
//!
//! All backends produce the **same canonical block content** for a given
//! input sequence — the block hash covers number, transactions, consensus
//! metadata and checkpoint votes but *not* signatures, so each orderer can
//! deliver the canonical block under its own signature and every peer
//! still assembles an identical hash chain.
//!
//! Blocks are cut by size or timeout (§4.4: "block size, the maximum
//! number of transactions in a block, and block timeout, the maximum time
//! since the first transaction to appear in a block was received") — and,
//! beyond the paper, as soon as something is pending and a majority of
//! the voting database nodes have committed the last block ([`cutter`]).

pub mod bft;
pub mod config;
pub mod cutter;
pub mod service;
pub mod tcp;
pub mod wire;

pub use config::{OrderingConfig, OrderingKind};
pub use service::{OrderingService, OrderingStats, OrderingStatsSnapshot};
pub use wire::OrdererWire;
