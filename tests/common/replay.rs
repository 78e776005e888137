//! The replay oracle of the determinism suite, shared with every suite
//! that leaves a chain behind: whatever the live loop committed,
//! `process_block` on a fresh node must reproduce byte for byte.

use std::sync::Arc;

use bcrdb::crypto::sha256::Digest;
use bcrdb::node::processor;
use bcrdb::node::{Node, NodeConfig};
use bcrdb::prelude::*;

/// The oracle: replay `source`'s stored chain through `process_block` on a
/// fresh in-memory node with the network's identities and `genesis`, and
/// require the checkpoint hashes, state hash and ledger content the live
/// loop left on `source`. Returns the replay node.
pub fn assert_replay_matches(net: &Network, source: &Arc<Node>, genesis: &str) -> Arc<Node> {
    let flow = net.config().flow;
    let cfg = NodeConfig::new(source.config.name.clone(), source.config.org.clone(), flow);
    let replay = Node::new(cfg, Arc::clone(net.certs()), net.config().orgs.clone()).unwrap();
    bcrdb::core::system::bootstrap_node(&replay).unwrap();
    bcrdb::core::network::apply_bootstrap_sql(&replay, genesis, flow).unwrap();
    for h in 1..=source.height() {
        let block = source.blockstore.get(h).unwrap();
        replay.blockstore.append((*block).clone()).unwrap();
        processor::process_block(&replay, &block).unwrap();
    }
    let (live, replayed) = (fingerprint(source), fingerprint(&replay));
    assert_eq!(
        live.checkpoints, replayed.checkpoints,
        "{flow:?}: checkpoint hashes differ between live run and replay"
    );
    assert!(
        live.checkpoints.iter().all(Option::is_some),
        "{flow:?}: every block has a checkpoint hash"
    );
    assert_eq!(
        live.state, replayed.state,
        "{flow:?}: state hash differs between live run and replay"
    );
    assert_eq!(
        live.ledger, replayed.ledger,
        "{flow:?}: ledger content differs between live run and replay"
    );
    replay
}

/// Everything determinism-relevant a run leaves behind, per node.
pub struct RunFingerprint {
    /// (height, block hash) for the whole chain.
    pub chain: Vec<(u64, [u8; 32])>,
    /// Local checkpoint (write-set) hash per block.
    pub checkpoints: Vec<Option<Digest>>,
    /// Full committed state hash at the tip.
    pub state: Digest,
    /// Ledger content: (block, tx_index, global id, user, contract,
    /// status incl. abort reason) — commit timestamps and local txids are
    /// node-local by design and excluded.
    pub ledger: Vec<(u64, u32, String, String, String, TxStatus)>,
}

pub fn fingerprint(node: &Arc<Node>) -> RunFingerprint {
    let tip = node.height();
    assert_eq!(node.postcommit_height(), tip, "pipeline fully drained");
    let chain = (1..=tip)
        .map(|h| (h, node.blockstore.get(h).unwrap().hash))
        .collect();
    let checkpoints = (1..=tip).map(|h| node.checkpoints.local_hash(h)).collect();
    let mut ledger = Vec::new();
    for h in 1..=tip {
        for r in node.ledger_records(h) {
            ledger.push((
                r.block,
                r.tx_index,
                r.global_id.short(),
                r.user.clone(),
                r.contract.clone(),
                r.status.clone(),
            ));
        }
    }
    RunFingerprint {
        chain,
        checkpoints,
        state: node.state_hash(),
        ledger,
    }
}
