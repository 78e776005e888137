//! Network-level configuration.

use std::path::PathBuf;
use std::time::Duration;

use bcrdb_crypto::identity::Scheme;
use bcrdb_network::NetProfile;
use bcrdb_ordering::OrderingConfig;
use bcrdb_txn::ssi::Flow;

use crate::transport::TransportKind;

/// Configuration for a whole permissioned network.
#[derive(Clone)]
pub struct NetworkConfig {
    /// Participating organizations; each runs one database node.
    pub orgs: Vec<String>,
    /// Transaction flow (§3.3 vs §3.4).
    pub flow: Flow,
    /// Ordering-service configuration (§4.4).
    pub ordering: OrderingConfig,
    /// Signature scheme for client/admin identities.
    pub scheme: Scheme,
    /// Network profile for peer↔peer and orderer→peer traffic
    /// (LAN vs multi-cloud WAN, §5 / Fig 8a).
    pub net_profile: NetProfile,
    /// Executor threads per node.
    pub executor_threads: usize,
    /// Serial execution baseline (§5.1 Ethereum comparison).
    pub serial_execution: bool,
    /// Root directory for per-node block stores and snapshots
    /// (`<root>/<org>/`); `None` keeps everything in memory.
    pub data_root: Option<PathBuf>,
    /// State-snapshot interval in blocks (0 = never).
    pub snapshot_interval: u64,
    /// Per-mille of peer-forwarded transactions to drop (EO flow),
    /// simulating lossy or malicious forwarding (§3.5(2)): dropped
    /// transactions are executed as "missing" by the block processor when
    /// their block arrives (§3.4.3), surfacing in the `mt` metric of
    /// Table 5. 0 disables.
    pub forward_drop_permille: u64,
    /// Genesis DDL (tables, indexes, contracts) applied identically on
    /// every node *before* recovery and before any traffic — the §3.7
    /// bootstrap step. Required for persistent networks so restarted nodes
    /// can replay their chains.
    pub genesis_sql: Option<String>,
    /// Default transport backend for clients: `InProcess` (direct calls,
    /// zero overhead) or `Simulated` (client↔node RPCs travel the
    /// simulated network under `net_profile`, like peer and orderer
    /// traffic). Per-client override: `Network::client_with_transport`.
    pub client_transport: TransportKind,
    /// Per-client admission window: maximum transactions in flight
    /// (submitted, handle not yet dropped) before `submit` returns
    /// `Error::Busy`.
    pub client_window: usize,
    /// Per-node prepared-statement cache bound (LRU entries); see
    /// `NodeConfig::statement_cache_cap`.
    pub statement_cache_cap: usize,
    /// `fsync` each node's block store on append (crash durability
    /// across power loss); see `NodeConfig::fsync`.
    pub fsync: bool,
    /// Delivery-gap timeout before a node's block processor triggers a
    /// peer catch-up round; see `NodeConfig::gap_timeout`.
    pub gap_timeout: Duration,
    /// Blocks per catch-up request; see `NodeConfig::sync_batch`.
    pub sync_batch: u64,
    /// Lag (in blocks) at which a sync server offers a state snapshot
    /// instead of blocks; 0 disables fast-sync. See
    /// `NodeConfig::snapshot_lag_threshold`.
    pub snapshot_lag_threshold: u64,
    /// Run each node's maintenance vacuum every N blocks (0 = never);
    /// see `NodeConfig::vacuum_interval`.
    pub vacuum_interval: u64,
    /// Disk-backed paged table storage on every node: cold heap
    /// segments spill to 8 KB slotted-page files under
    /// `<data_root>/<org>/pages/` through a per-node buffer pool,
    /// letting committed state exceed RAM (see `NodeConfig::page_dir`
    /// and `docs/ON_DISK_FORMAT.md`). Requires `data_root`.
    pub paged: bool,
    /// Buffer-pool capacity per node in 8 KB frames (minimum 1; only
    /// meaningful with `paged`); see `NodeConfig::buffer_pool_frames`.
    pub buffer_pool_frames: usize,
    /// Blocks of recent history kept resident on paged nodes; see
    /// `NodeConfig::spill_retention`. Minimum 1.
    pub spill_retention: u64,
}

impl NetworkConfig {
    /// Sensible defaults for tests and examples: solo orderer, small
    /// blocks, short timeout, instant network, simulated signatures.
    pub fn quick(orgs: &[&str], flow: Flow) -> NetworkConfig {
        NetworkConfig {
            orgs: orgs.iter().map(|s| s.to_string()).collect(),
            flow,
            ordering: OrderingConfig::solo(16, Duration::from_millis(50)),
            scheme: Scheme::Sim,
            net_profile: NetProfile::instant(),
            executor_threads: 4,
            serial_execution: false,
            data_root: None,
            snapshot_interval: 0,
            forward_drop_permille: 0,
            genesis_sql: None,
            client_transport: TransportKind::InProcess,
            client_window: 1024,
            statement_cache_cap: 1024,
            fsync: false,
            gap_timeout: Duration::from_secs(1),
            sync_batch: 64,
            snapshot_lag_threshold: 512,
            vacuum_interval: 0,
            paged: false,
            buffer_pool_frames: bcrdb_node::DEFAULT_POOL_FRAMES,
            spill_retention: 64,
        }
    }

    /// The paper's default deployment shape: one orderer per organization
    /// (Kafka-style CFT), block timeout 1 s.
    pub fn paper_default(orgs: &[&str], flow: Flow, block_size: usize) -> NetworkConfig {
        let mut cfg = NetworkConfig::quick(orgs, flow);
        cfg.ordering = OrderingConfig::kafka(orgs.len(), block_size, Duration::from_secs(1));
        cfg.net_profile = NetProfile::lan();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_shape() {
        let c = NetworkConfig::quick(&["a", "b"], Flow::OrderThenExecute);
        assert_eq!(c.orgs, vec!["a", "b"]);
        assert!(c.data_root.is_none());
        assert_eq!(c.client_transport, TransportKind::InProcess);
        assert!(c.client_window >= 1);
        assert!(c.statement_cache_cap >= 1);
        let p = NetworkConfig::paper_default(&["a", "b", "c"], Flow::ExecuteOrderParallel, 100);
        assert_eq!(p.ordering.orderers, 3);
        assert_eq!(p.ordering.block_size, 100);
    }
}
