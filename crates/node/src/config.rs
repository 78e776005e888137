//! Node configuration and outbound hooks.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bcrdb_chain::block::CheckpointVote;
use bcrdb_chain::sync::{SyncRequest, SyncResponse};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::Result;
use bcrdb_txn::ssi::Flow;

/// Static configuration of a database peer node.
#[derive(Clone)]
pub struct NodeConfig {
    /// Node name (certificate name, e.g. `org1/peer`).
    pub name: String,
    /// Owning organization.
    pub org: String,
    /// Transaction flow (§3.3 vs §3.4).
    pub flow: Flow,
    /// Data directory for the block store and state snapshots; `None`
    /// keeps everything in memory (tests/benchmarks).
    pub data_dir: Option<PathBuf>,
    /// Write a state snapshot every N blocks (0 = never). Snapshots bound
    /// recovery replay time (§3.6).
    pub snapshot_interval: u64,
    /// Worker threads executing transactions concurrently.
    pub executor_threads: usize,
    /// Execute transactions one at a time at commit (the Ethereum-style
    /// order-then-serial-execute baseline of §5.1).
    pub serial_execution: bool,
    /// Run the SSI manager's garbage collector every N blocks.
    pub gc_interval: u64,
    /// Bound on the prepared-statement cache (LRU entries, minimum 1). A
    /// client preparing unbounded distinct SQL text evicts old entries
    /// instead of growing node memory without limit.
    pub statement_cache_cap: usize,
    /// `fsync` the block store after every append, making stored blocks
    /// durable across power loss (not just process death). Off by
    /// default: tests and benchmarks measure the protocol, not the disk.
    pub fsync: bool,
    /// Bound on the out-of-order `pending` block buffer in the block
    /// processor. When full, the *highest*-numbered buffered block is
    /// evicted (it is the cheapest to re-fetch once the gap closes) and
    /// counted in `NodeMetrics`. Minimum 1.
    pub pending_cap: usize,
    /// How long a delivery gap (a buffered future block that cannot be
    /// processed) may persist before the processor triggers a peer
    /// catch-up round through the `sync_fetch` hook (§3.6).
    pub gap_timeout: Duration,
    /// Maximum blocks requested per sync round ([`SyncRequest`]'s
    /// `max_blocks`).
    pub sync_batch: u64,
    /// Serve a state snapshot instead of blocks when a sync requester
    /// lags this many blocks or more behind our tip (and it signalled
    /// `allow_snapshot`). 0 disables snapshot fast-sync on the serving
    /// side.
    pub snapshot_lag_threshold: u64,
    /// Run the maintenance vacuum every N blocks (0 = never), reclaiming
    /// row versions deleted at or before the checkpoint-retention
    /// horizon. Counted in `NodeMetrics` (`vacuum_runs` /
    /// `versions_reclaimed`).
    pub vacuum_interval: u64,
    /// Directory for disk-backed paged table storage; `None` keeps every
    /// table fully in memory. When set, cold heap segments spill to 8 KB
    /// slotted-page files through a node-wide buffer pool (see
    /// `docs/ON_DISK_FORMAT.md`), letting committed state exceed RAM.
    /// Chains, checkpoints and state hashes are byte-identical to the
    /// all-in-memory configuration.
    pub page_dir: Option<PathBuf>,
    /// Buffer-pool capacity in 8 KB frames (minimum 1; only meaningful
    /// with `page_dir`). Defaults to [`DEFAULT_POOL_FRAMES`].
    pub buffer_pool_frames: usize,
    /// How many blocks of recent history stay pinned in memory: a
    /// segment only spills once every version in it is quiescent at
    /// `committed height − spill_retention`, which keeps SSI-relevant
    /// recent versions resident. Minimum 1.
    pub spill_retention: u64,
}

/// The default for [`NodeConfig::buffer_pool_frames`]: 8 MB of 8 KB
/// pages.
pub const DEFAULT_POOL_FRAMES: usize = 1024;

impl NodeConfig {
    /// Reasonable defaults for `name` in `org` under `flow`.
    pub fn new(name: impl Into<String>, org: impl Into<String>, flow: Flow) -> NodeConfig {
        NodeConfig {
            name: name.into(),
            org: org.into(),
            flow,
            data_dir: None,
            snapshot_interval: 0,
            executor_threads: 4,
            serial_execution: false,
            gc_interval: 16,
            statement_cache_cap: 1024,
            fsync: false,
            pending_cap: 1024,
            gap_timeout: Duration::from_secs(1),
            sync_batch: 64,
            snapshot_lag_threshold: 512,
            vacuum_interval: 0,
            page_dir: None,
            buffer_pool_frames: DEFAULT_POOL_FRAMES,
            spill_retention: 64,
        }
    }
}

/// Callback forwarding a transaction reference to the peer network.
pub type ForwardTxHook = Arc<dyn Fn(&Transaction) + Send + Sync>;

/// Callback snapshotting the ordering service's counters for the node's
/// Metrics RPC.
pub type OrderingStatsHook = Arc<dyn Fn() -> crate::metrics::OrderingSnapshot + Send + Sync>;

/// Callback performing one synchronous catch-up round trip against some
/// peer: send the request, return that peer's response. The network layer
/// owns peer selection, retries and failover; an `Err` means no peer
/// could serve the request.
pub type SyncFetchHook = Arc<dyn Fn(SyncRequest) -> Result<SyncResponse> + Send + Sync>;

/// Outbound callbacks wiring the node into the network: forwarding
/// transactions to other peers (EO flow), submitting to the ordering
/// service, and submitting checkpoint votes. Installed by the network
/// builder in `bcrdb-core`.
#[derive(Default, Clone)]
pub struct NodeHooks {
    /// EO: forward a locally submitted transaction to the other peers.
    pub forward_tx: Option<ForwardTxHook>,
    /// Forward a locally submitted transaction to the ordering service
    /// (EO middleware; the OE submission proxy). Fallible: an ordering
    /// failure is surfaced to the submitting client.
    pub submit_orderer: Option<Arc<dyn Fn(Transaction) -> Result<()> + Send + Sync>>,
    /// Submit a checkpoint vote after committing a block (§3.3.4).
    pub submit_checkpoint: Option<Arc<dyn Fn(CheckpointVote) + Send + Sync>>,
    /// Fetch missing blocks (or a fast-sync snapshot) from a peer
    /// (§3.6). Consulted by `Node::recover` after local replay and by
    /// the block processor when a delivery gap outlives `gap_timeout`.
    pub sync_fetch: Option<SyncFetchHook>,
    /// Snapshot the ordering service's counters (forwarded, cut,
    /// delivered, current view, view changes) so the node's Metrics RPC
    /// can report the ordering layer alongside its own micro-metrics.
    pub ordering_stats: Option<OrderingStatsHook>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = NodeConfig::new("org1/peer", "org1", Flow::OrderThenExecute);
        assert!(!c.serial_execution);
        assert!(c.executor_threads >= 1);
        assert_eq!(c.flow, Flow::OrderThenExecute);
    }
}
