//! The client side of peer catch-up (§3.6).
//!
//! A node falls behind the network head in three ways: it crashed and
//! restarted (local replay covers only what its own store holds), it was
//! partitioned away while blocks kept flowing, or it joined late with an
//! empty store. In all three cases [`catch_up`] drives the node back to
//! the head by round-tripping [`SyncRequest`]s through the node's
//! `sync_fetch` hook (installed by the network layer, which owns peer
//! selection and failover):
//!
//! * **Block sync** — fetched blocks are verified against the local hash
//!   chain and the orderer certificates exactly like live deliveries,
//!   appended to the store, and replayed through
//!   [`processor::process_block`], so ledger records and checkpoint
//!   votes come out byte-identical to live processing.
//! * **Snapshot fast-sync** — when the server decides the requester is
//!   too far behind (its `snapshot_lag_threshold`) and the requester is
//!   quiescent (`allow_snapshot`), a state snapshot replaces replay.
//!   The skipped blocks are still fetched and appended (verification
//!   included) so the local chain stays complete and auditable — what
//!   fast-sync saves is *re-execution*, the dominant replay cost.
//!
//! The driver loops until a fetch round reports the node at the serving
//! peer's tip. New blocks arriving live during catch-up simply queue in
//! the block processor's channel and are deduplicated afterwards.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::block::Block;
use bcrdb_chain::sync::{SyncRequest, SyncResponse};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;

use crate::node::Node;
use crate::processor;

/// Outcome of one [`catch_up`] run.
#[derive(Clone, Debug, Default)]
pub struct SyncStats {
    /// Request round trips performed.
    pub rounds: u64,
    /// Blocks fetched from peers.
    pub fetched: u64,
    /// Fetched blocks replayed through normal block processing.
    pub replayed: u64,
    /// Fetched blocks appended to the store without re-execution
    /// (already covered by an installed fast-sync snapshot).
    pub appended_only: u64,
    /// Height of the fast-sync snapshot installed, if any.
    pub fast_sync_height: Option<BlockHeight>,
    /// Wall-clock duration of the whole catch-up.
    pub duration: Duration,
}

/// Upper bound on catch-up rounds, a runaway guard: each productive round
/// advances the chain, so hitting this means a peer keeps answering
/// without ever helping.
const MAX_ROUNDS: u64 = 1_000_000;

/// Drive this node to the network head through its `sync_fetch` hook.
/// Returns immediately (zeroed stats) when no hook is installed.
pub fn catch_up(node: &Arc<Node>, allow_snapshot: bool) -> Result<SyncStats> {
    let fetch = node.hooks.read().sync_fetch.clone();
    let Some(fetch) = fetch else {
        return Ok(SyncStats::default());
    };
    let t0 = Instant::now();
    let mut stats = SyncStats::default();
    loop {
        if stats.rounds >= MAX_ROUNDS {
            return Err(Error::internal("catch-up made no progress"));
        }
        let from = node.blockstore.height();
        let req = SyncRequest {
            from_height: from,
            max_blocks: node.config.sync_batch.max(1),
            // Once a snapshot is installed, further rounds only backfill
            // the store; a second snapshot could not be ahead of it.
            allow_snapshot: allow_snapshot && stats.fast_sync_height.is_none(),
        };
        let resp = fetch(req)?;
        stats.rounds += 1;
        match resp {
            SyncResponse::Snapshot { height, state, tip } => {
                if !req.allow_snapshot || height <= node.height() {
                    return Err(Error::internal(format!(
                        "peer sent unusable snapshot at height {height} (ours {}, \
                         allow_snapshot={})",
                        node.height(),
                        req.allow_snapshot
                    )));
                }
                node.install_fast_sync(&state)?;
                stats.fast_sync_height = Some(height);
                let _ = tip; // the block rounds below converge on it
            }
            SyncResponse::Blocks { blocks, tip } => {
                if blocks.is_empty() {
                    if node.blockstore.height() >= tip {
                        break; // converged with the serving peer
                    }
                    return Err(Error::internal(format!(
                        "peer at tip {tip} returned no blocks after height {from}"
                    )));
                }
                for b in blocks {
                    apply_synced_block(node, Arc::new(b), &mut stats)?;
                }
            }
        }
    }
    stats.duration = t0.elapsed();
    Ok(stats)
}

/// Verify, append and (when beyond the committed state) replay one
/// fetched block through [`processor::on_block`] — verification is
/// identical to live delivery.
fn apply_synced_block(node: &Arc<Node>, block: Arc<Block>, stats: &mut SyncStats) -> Result<()> {
    if block.number <= node.blockstore.height() {
        return Ok(()); // duplicate (a live delivery raced the fetch)
    }
    // State already ahead of the store (fast-sync): backfill only.
    let replay = block.number > node.height();
    processor::on_block(node, &block)?;
    stats.fetched += 1;
    if replay {
        stats.replayed += 1;
    } else {
        stats.appended_only += 1;
    }
    // Count per block, not in bulk at the end of the run: an observer
    // that saw the chain advance (await_height) must also see the sync
    // counters advanced, without racing the final convergence round trip.
    node.env.metrics.on_sync_blocks(1, u64::from(replay));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NodeConfig, NodeHooks};
    use bcrdb_chain::tx::{Payload, Transaction};
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{Certificate, CertificateRegistry, KeyPair, Role, Scheme};
    use bcrdb_sql::ast::Statement;
    use bcrdb_txn::ssi::Flow;

    struct Rig {
        certs: Arc<CertificateRegistry>,
        client: KeyPair,
        orderer: KeyPair,
    }

    impl Rig {
        fn new() -> Rig {
            let client = KeyPair::generate("org1/alice", b"alice", Scheme::Sim);
            let orderer = KeyPair::generate("ordering/orderer0", b"ord", Scheme::Sim);
            let certs = CertificateRegistry::new();
            certs.register(Certificate {
                name: "org1/alice".into(),
                org: "org1".into(),
                role: Role::Client,
                public_key: client.public_key(),
            });
            certs.register(Certificate {
                name: "ordering/orderer0".into(),
                org: "ordering".into(),
                role: Role::Orderer,
                public_key: orderer.public_key(),
            });
            Rig {
                certs,
                client,
                orderer,
            }
        }

        fn node(&self, name: &str, snapshot_interval: u64, lag_threshold: u64) -> Arc<Node> {
            let mut cfg = NodeConfig::new(name, "org1", Flow::OrderThenExecute);
            cfg.snapshot_interval = snapshot_interval;
            cfg.snapshot_lag_threshold = lag_threshold;
            let node = Node::new(cfg, Arc::clone(&self.certs), vec!["org1".into()]).unwrap();
            node.catalog()
                .create_table(
                    bcrdb_common::schema::TableSchema::new(
                        "kv",
                        vec![
                            bcrdb_common::schema::Column::new(
                                "k",
                                bcrdb_common::schema::DataType::Int,
                            ),
                            bcrdb_common::schema::Column::new(
                                "v",
                                bcrdb_common::schema::DataType::Int,
                            ),
                        ],
                        vec![0],
                    )
                    .unwrap(),
                )
                .unwrap();
            if let Statement::CreateFunction(def) = bcrdb_sql::parse_statement(
                "CREATE FUNCTION put(k INT, v INT) AS $$ INSERT INTO kv VALUES ($1, $2) $$",
            )
            .unwrap()
            {
                node.contracts().install(def).unwrap();
            }
            node
        }

        fn feed(&self, node: &Arc<Node>, count: u64, per_block: u64) {
            let mut n = node.height() * per_block;
            let blocks = (0..count)
                .map(|_| {
                    (0..per_block)
                        .map(|_| {
                            n += 1;
                            Payload::new(
                                "put",
                                vec![Value::Int(n as i64), Value::Int((n * 10) as i64)],
                            )
                        })
                        .collect()
                })
                .collect();
            self.feed_calls(node, blocks);
        }

        /// Append and replay one block per inner list of contract calls.
        fn feed_calls(&self, node: &Arc<Node>, blocks: Vec<Vec<Payload>>) {
            let mut prev = node.blockstore.tip_hash();
            let mut nonce = node.height() * 1_000;
            for (b, calls) in (node.height() + 1..).zip(blocks) {
                let txs: Vec<Transaction> = calls
                    .into_iter()
                    .map(|payload| {
                        nonce += 1;
                        Transaction::new_order_execute("org1/alice", payload, nonce, &self.client)
                            .unwrap()
                    })
                    .collect();
                let mut block = Block::build(b, prev, txs, "solo", vec![]);
                block.sign(&self.orderer).unwrap();
                prev = block.hash;
                let block = Arc::new(block);
                node.blockstore.append(Arc::clone(&block)).unwrap();
                processor::process_block(node, &block).unwrap();
            }
        }

        /// Wire `lagging` to fetch directly from `server` (no network).
        fn connect(&self, lagging: &Arc<Node>, server: &Arc<Node>) {
            let server = Arc::clone(server);
            lagging.set_hooks(NodeHooks {
                sync_fetch: Some(Arc::new(move |req| Ok(server.serve_sync(&req)))),
                ..Default::default()
            });
        }
    }

    #[test]
    fn block_sync_catches_up_and_matches() {
        let rig = Rig::new();
        let server = rig.node("org1/peer-a", 0, 0);
        rig.feed(&server, 6, 3);
        let lagging = rig.node("org1/peer-b", 0, 0);
        rig.connect(&lagging, &server);

        let stats = lagging.catch_up(true).unwrap();
        assert_eq!(stats.replayed, 6);
        assert_eq!(stats.fetched, 6);
        assert!(stats.fast_sync_height.is_none());
        assert_eq!(lagging.height(), 6);
        assert_eq!(lagging.state_hash(), server.state_hash());
        // Checkpoint hashes byte-identical to the live node's.
        for b in 1..=6 {
            assert_eq!(
                lagging.checkpoints.local_hash(b),
                server.checkpoints.local_hash(b),
                "checkpoint mismatch at block {b}"
            );
            assert!(lagging.checkpoints.local_hash(b).is_some());
        }
        assert_eq!(lagging.metrics().sync_fetched(), 6);
    }

    #[test]
    fn snapshot_fast_sync_skips_replay_but_backfills_store() {
        let rig = Rig::new();
        // Server snapshots every 4 blocks and offers fast-sync at lag ≥ 4.
        let server = rig.node("org1/peer-a", 4, 4);
        rig.feed(&server, 10, 2);
        let lagging = rig.node("org1/peer-b", 0, 0);
        rig.connect(&lagging, &server);

        let stats = lagging.catch_up(true).unwrap();
        // Snapshot at height 8 (last multiple of 4), blocks 1..=8 appended
        // without replay, 9..=10 replayed.
        assert_eq!(stats.fast_sync_height, Some(8));
        assert_eq!(stats.appended_only, 8);
        assert_eq!(stats.replayed, 2);
        assert_eq!(lagging.height(), 10);
        assert_eq!(lagging.blockstore.height(), 10);
        assert_eq!(lagging.state_hash(), server.state_hash());
        assert_eq!(
            lagging.checkpoints.local_hash(10),
            server.checkpoints.local_hash(10)
        );
        assert_eq!(lagging.metrics().sync_fast_syncs(), 1);
        // The backfilled chain is fully linked: verify a tail block.
        let b10 = lagging.blockstore.get(10).unwrap();
        b10.verify(&lagging.blockstore.get(9).unwrap().hash, &rig.certs)
            .unwrap();
    }

    #[test]
    fn live_nodes_refuse_snapshots() {
        let rig = Rig::new();
        let server = rig.node("org1/peer-a", 2, 2);
        rig.feed(&server, 6, 1);
        let lagging = rig.node("org1/peer-b", 0, 0);
        rig.connect(&lagging, &server);

        // A gap-triggered catch-up (allow_snapshot = false) must take the
        // block path even though the server's threshold is exceeded.
        let stats = lagging.catch_up(false).unwrap();
        assert!(stats.fast_sync_height.is_none());
        assert_eq!(stats.replayed, 6);
        assert_eq!(lagging.state_hash(), server.state_hash());
    }

    #[test]
    fn no_hook_is_a_noop() {
        let rig = Rig::new();
        let node = rig.node("org1/peer", 0, 0);
        let stats = node.catch_up(true).unwrap();
        assert_eq!(stats.rounds, 0);
        assert_eq!(node.height(), 0);
    }

    /// `state_hash` is a function of the committed rows alone: this
    /// digest was recorded before the hash was streamed, over inserts,
    /// an update (two versions of one row), a delete (a deleter height)
    /// and text values in a second table.
    #[test]
    fn state_hash_golden_digest() {
        let rig = Rig::new();
        let node = rig.node("org1/peer-a", 0, 0);
        use bcrdb_common::schema::{Column, DataType, TableSchema};
        node.catalog()
            .create_table(
                TableSchema::new(
                    "notes",
                    vec![
                        Column::new("id", DataType::Int),
                        Column::new("body", DataType::Text),
                        Column::nullable("score", DataType::Float),
                    ],
                    vec![0],
                )
                .unwrap(),
            )
            .unwrap();
        for sql in [
            "CREATE FUNCTION upd(k INT, v INT) AS $$ UPDATE kv SET v = $2 WHERE k = $1 $$",
            "CREATE FUNCTION del(k INT) AS $$ DELETE FROM kv WHERE k = $1 $$",
            "CREATE FUNCTION note(i INT, b TEXT, s FLOAT) AS $$ INSERT INTO notes VALUES ($1, $2, $3) $$",
        ] {
            if let Statement::CreateFunction(def) = bcrdb_sql::parse_statement(sql).unwrap() {
                node.contracts().install(def).unwrap();
            }
        }
        rig.feed(&node, 3, 4);
        let int = |i: i64| Value::Int(i);
        rig.feed_calls(
            &node,
            vec![
                vec![
                    Payload::new("upd", vec![int(2), int(-7)]),
                    Payload::new(
                        "note",
                        vec![int(1), Value::Text("first".into()), Value::Float(0.5)],
                    ),
                ],
                vec![
                    Payload::new("del", vec![int(5)]),
                    Payload::new(
                        "note",
                        vec![int(2), Value::Text(String::new()), Value::Null],
                    ),
                    // Duplicate key: aborts, leaves no committed version.
                    Payload::new("put", vec![int(1), int(1)]),
                ],
            ],
        );
        assert_eq!(node.height(), 5);
        // What the digest covers: 11 live kv rows (12 put, one deleted,
        // the duplicate refused), the updated value, both notes.
        let scalar = |sql: &str| node.query(sql, &[]).unwrap().rows[0][0].clone();
        assert_eq!(scalar("SELECT COUNT(*) FROM kv"), Value::Int(11));
        assert_eq!(scalar("SELECT v FROM kv WHERE k = 2"), Value::Int(-7));
        assert_eq!(scalar("SELECT v FROM kv WHERE k = 1"), Value::Int(10));
        assert_eq!(scalar("SELECT COUNT(*) FROM notes"), Value::Int(2));
        // 12 puts + the update's successor + the aborted duplicate, which
        // stays in the heap and must not be hashed.
        assert_eq!(node.catalog().get("kv").unwrap().version_count(), 14);
        let hex = |d: [u8; 32]| bcrdb_crypto::sha256::to_hex(&d);
        assert_eq!(
            hex(node.state_hash()),
            "9328486f7ccf267c07435720be82f49ace1d8b7cba99d495cb2ec2e04a9b4a1b"
        );
        // 4,000 more rows encode to ≈ 180 KB: the hash is fed in several
        // buffers' worth and must not depend on where they split.
        rig.feed(&node, 40, 100);
        assert_eq!(scalar("SELECT COUNT(*) FROM kv"), Value::Int(4_011));
        assert_eq!(
            hex(node.state_hash()),
            "3567b17e3fa46f9910709975cf182877b88edf794b225c6b30b65f7d0243f7f2"
        );
    }

    /// A request from genesis against a long chain is answered from the
    /// log, one batch at a time, and the batch links up like live blocks.
    #[test]
    fn serve_sync_reads_a_batch_below_the_tail_from_the_log() {
        let rig = Rig::new();
        let server = rig.node("org1/peer-a", 0, 0);
        rig.feed(&server, 300, 1);
        assert!(server.blockstore.resident_blocks() <= bcrdb_chain::blockstore::TAIL_BLOCKS);
        let resp = server.serve_sync(&SyncRequest {
            from_height: 0,
            max_blocks: 64,
            allow_snapshot: false,
        });
        let SyncResponse::Blocks { blocks, tip } = resp else {
            panic!("expected blocks");
        };
        assert_eq!(tip, 300);
        assert_eq!(blocks.len(), 64);
        let mut prev = bcrdb_chain::block::genesis_prev_hash();
        for (n, b) in (1..).zip(&blocks) {
            assert_eq!(b.number, n);
            b.verify(&prev, &rig.certs).unwrap();
            prev = b.hash;
        }
        // The last batch stops at the tip; a request at the tip is empty.
        let tail = |from| match server.serve_sync(&SyncRequest {
            from_height: from,
            max_blocks: 64,
            allow_snapshot: false,
        }) {
            SyncResponse::Blocks { blocks, .. } => blocks.len(),
            SyncResponse::Snapshot { .. } => panic!("expected blocks"),
        };
        assert_eq!(tail(290), 10);
        assert_eq!(tail(300), 0);
        assert_eq!(tail(u64::MAX), 0);
    }
}
