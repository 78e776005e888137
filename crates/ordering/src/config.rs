//! Ordering-service configuration.

use std::time::Duration;

use bcrdb_crypto::identity::Scheme;
use bcrdb_network::NetProfile;

/// Consensus backend selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderingKind {
    /// Single orderer node.
    Solo,
    /// Kafka-style CFT: totally ordered topic, flat scaling.
    Kafka,
    /// BFT-SMaRt-style PBFT rounds with O(n²) messages.
    Bft,
}

impl OrderingKind {
    /// Metadata string recorded in blocks.
    pub fn as_str(&self) -> &'static str {
        match self {
            OrderingKind::Solo => "solo",
            OrderingKind::Kafka => "kafka",
            OrderingKind::Bft => "bft",
        }
    }
}

/// Configuration for [`crate::OrderingService`].
#[derive(Clone, Debug)]
pub struct OrderingConfig {
    /// Backend.
    pub kind: OrderingKind,
    /// Number of orderer nodes.
    pub orderers: usize,
    /// Maximum transactions per block: the cap a saturated service fills,
    /// not a target — blocks are cut earlier whenever the nodes are idle.
    pub block_size: usize,
    /// Maximum time since the first pending transaction before a block is
    /// cut anyway (the paper uses 1 s): the fallback when no majority of
    /// the database nodes is voting.
    pub block_timeout: Duration,
    /// Per-message processing cost applied by each BFT replica.
    ///
    /// Calibration knob for Fig 8(b): it stands in for BFT-SMaRt's
    /// per-message signature and I/O work on the paper's 32-vCPU testbed.
    /// The default (2 ms) makes a 32-orderer network bottom out around the
    /// paper's ~650 tps while 4 orderers stay arrival-limited.
    pub bft_msg_cost: Duration,
    /// BFT backend only: how long a replica with pending work waits for
    /// progress (a delivery or a proposal) before voting the leader out.
    /// PBFT's view-change timer; must comfortably exceed `block_timeout`
    /// plus a consensus round.
    pub view_change_timeout: Duration,
    /// Network profile for orderer-to-orderer consensus traffic.
    pub net_profile: NetProfile,
    /// Signature scheme for orderer identities.
    pub scheme: Scheme,
}

impl OrderingConfig {
    /// Solo orderer with the given block size/timeout.
    pub fn solo(block_size: usize, block_timeout: Duration) -> OrderingConfig {
        OrderingConfig {
            kind: OrderingKind::Solo,
            orderers: 1,
            block_size,
            block_timeout,
            bft_msg_cost: Duration::from_millis(2),
            view_change_timeout: Duration::from_secs(2),
            net_profile: NetProfile::lan(),
            scheme: Scheme::Sim,
        }
    }

    /// Kafka-style service with `orderers` nodes.
    pub fn kafka(orderers: usize, block_size: usize, block_timeout: Duration) -> OrderingConfig {
        OrderingConfig {
            kind: OrderingKind::Kafka,
            orderers: orderers.max(1),
            ..OrderingConfig::solo(block_size, block_timeout)
        }
    }

    /// BFT service with `orderers` nodes.
    pub fn bft(orderers: usize, block_size: usize, block_timeout: Duration) -> OrderingConfig {
        OrderingConfig {
            kind: OrderingKind::Bft,
            orderers: orderers.max(1),
            ..OrderingConfig::solo(block_size, block_timeout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let c = OrderingConfig::solo(10, Duration::from_millis(100));
        assert_eq!(c.kind, OrderingKind::Solo);
        assert_eq!(c.orderers, 1);
        let c = OrderingConfig::kafka(3, 100, Duration::from_secs(1));
        assert_eq!(c.kind.as_str(), "kafka");
        assert_eq!(c.orderers, 3);
        let c = OrderingConfig::bft(0, 100, Duration::from_secs(1));
        assert_eq!(c.orderers, 1, "clamped to at least one orderer");
    }
}
