//! Crash-recovery tests (§3.6 of the paper): a node restarted from its
//! block store (plus an optional state snapshot) must converge to exactly
//! the state it had before the crash, and resume processing new blocks.

use std::sync::Arc;
use std::time::Duration;

use bcrdb::chain::block::{genesis_prev_hash, Block};
use bcrdb::chain::tx::{Payload, Transaction};
use bcrdb::crypto::identity::{Certificate, CertificateRegistry, KeyPair, Role, Scheme};
use bcrdb::node::{Node, NodeConfig};
use bcrdb::prelude::*;
use bcrdb::sql::ast::Statement;

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

    fn node(&self, dir: &std::path::Path, snapshot_interval: u64) -> Arc<Node> {
        let mut cfg = NodeConfig::new("org1/peer", "org1", Flow::OrderThenExecute);
        cfg.data_dir = Some(dir.to_path_buf());
        cfg.snapshot_interval = snapshot_interval;
        let node = Node::new(cfg, Arc::clone(&self.certs), vec!["org1".into()]).unwrap();
        // Bootstrap schema + contract identically on every (re)start.
        if !node.catalog().contains("kv") {
            node.catalog()
                .create_table(
                    bcrdb::common::schema::TableSchema::new(
                        "kv",
                        vec![
                            bcrdb::common::schema::Column::new(
                                "k",
                                bcrdb::common::schema::DataType::Int,
                            ),
                            bcrdb::common::schema::Column::new(
                                "v",
                                bcrdb::common::schema::DataType::Int,
                            ),
                        ],
                        vec![0],
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        if node.contracts().get("put").is_none() {
            if let Statement::CreateFunction(def) = bcrdb::sql::parse_statement(
                "CREATE FUNCTION put(k INT, v INT) AS $$ INSERT INTO kv VALUES ($1, $2) $$",
            )
            .unwrap()
            {
                node.contracts().install(def).unwrap();
            }
        }
        node.recover().unwrap();
        node
    }

    fn tx(&self, n: u64) -> Transaction {
        Transaction::new_order_execute(
            "org1/alice",
            Payload::new(
                "put",
                vec![Value::Int(n as i64), Value::Int((n * 10) as i64)],
            ),
            n,
            &self.client,
        )
        .unwrap()
    }

    fn blocks(&self, count: u64, per_block: u64) -> Vec<Arc<Block>> {
        let mut out = Vec::new();
        let mut prev = genesis_prev_hash();
        let mut n = 0;
        for b in 1..=count {
            let txs: Vec<Transaction> = (0..per_block)
                .map(|_| {
                    n += 1;
                    self.tx(n)
                })
                .collect();
            let mut block = Block::build(b, prev, txs, "solo", vec![]);
            block.sign(&self.orderer).unwrap();
            prev = block.hash;
            out.push(Arc::new(block));
        }
        out
    }
}

/// A node's running block processor, to be [`stop`]ped.
type Running = std::thread::JoinHandle<()>;

fn deliver_all(node: &Arc<Node>, blocks: &[Arc<Block>]) -> Running {
    let (tx, rx) = crossbeam_channel::unbounded();
    let running = node.start(rx);
    for b in blocks {
        tx.send(Arc::clone(b)).unwrap();
    }
    let want = blocks.last().map(|b| b.number).unwrap_or(0);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while node.height() < want {
        assert!(
            std::time::Instant::now() < deadline,
            "node stuck at {}",
            node.height()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    running
}

/// Stop a node and wait until its block processor and post-commit worker
/// are done with its directory (a snapshot's tmp + rename may be in
/// flight), so the directory can be reopened or removed.
fn stop(node: &Arc<Node>, running: Running) {
    node.shutdown();
    running.join().unwrap();
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bcrdb-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn restart_replays_blockstore_to_identical_state() {
    let rig = Rig::new();
    let dir = temp_dir("replay");
    let blocks = rig.blocks(4, 5);

    let hash_before = {
        let node = rig.node(&dir, 0);
        let running = deliver_all(&node, &blocks);
        assert_eq!(node.height(), 4);
        let r = node.query("SELECT COUNT(*) FROM kv", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(20));
        let h = node.state_hash();
        stop(&node, running);
        h
    };

    // Reopen: full replay from the block store (no snapshot).
    let node = rig.node(&dir, 0);
    assert_eq!(node.height(), 4, "recovery replayed all blocks");
    assert_eq!(
        node.state_hash(),
        hash_before,
        "state identical after recovery"
    );
    // Ledger records recovered too (rebuilt by replay).
    assert_eq!(node.ledger_records(2).len(), 5);
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_with_snapshot_replays_only_the_tail() {
    let rig = Rig::new();
    let dir = temp_dir("snapshot");
    let blocks = rig.blocks(5, 4);

    let hash_before = {
        // Snapshot every 2 blocks → snapshot at height 4, blocks 5 replayed.
        let node = rig.node(&dir, 2);
        let running = deliver_all(&node, &blocks);
        let h = node.state_hash();
        stop(&node, running);
        h
    };
    assert!(dir.join("state.snapshot").exists(), "snapshot written");

    let node = rig.node(&dir, 2);
    assert_eq!(node.height(), 5);
    assert_eq!(node.state_hash(), hash_before);
    let r = node.query("SELECT COUNT(*) FROM kv", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(20));
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_mid_chain_resumes_with_remaining_blocks() {
    let rig = Rig::new();
    let dir = temp_dir("midchain");
    let blocks = rig.blocks(4, 3);

    {
        // "Crash" after two blocks.
        let node = rig.node(&dir, 0);
        let running = deliver_all(&node, &blocks[..2]);
        stop(&node, running);
    }
    {
        // Restart: replays blocks 1–2, then receives 3–4 (plus duplicate
        // deliveries of 1–2, which must be ignored).
        let node = rig.node(&dir, 0);
        assert_eq!(node.height(), 2);
        let running = deliver_all(&node, &blocks); // includes duplicates of 1 and 2
        assert_eq!(node.height(), 4);
        let r = node.query("SELECT COUNT(*) FROM kv", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(12));
        stop(&node, running);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_node_matches_never_crashed_node() {
    let rig = Rig::new();
    let blocks = rig.blocks(3, 4);

    // Reference node: never crashes, all in memory.
    let reference = {
        let mut cfg = NodeConfig::new("org1/peer", "org1", Flow::OrderThenExecute);
        cfg.data_dir = None;
        let node = Node::new(cfg, Arc::clone(&rig.certs), vec!["org1".into()]).unwrap();
        node.catalog()
            .create_table(
                bcrdb::common::schema::TableSchema::new(
                    "kv",
                    vec![
                        bcrdb::common::schema::Column::new(
                            "k",
                            bcrdb::common::schema::DataType::Int,
                        ),
                        bcrdb::common::schema::Column::new(
                            "v",
                            bcrdb::common::schema::DataType::Int,
                        ),
                    ],
                    vec![0],
                )
                .unwrap(),
            )
            .unwrap();
        if let Statement::CreateFunction(def) = bcrdb::sql::parse_statement(
            "CREATE FUNCTION put(k INT, v INT) AS $$ INSERT INTO kv VALUES ($1, $2) $$",
        )
        .unwrap()
        {
            reference_install(&node, def);
        }
        deliver_all(&node, &blocks);
        node
    };

    // Crashing node: restart after every single block.
    let dir = temp_dir("thrash");
    for end in 1..=3 {
        let node = rig.node(&dir, 1); // snapshot every block
        let running = deliver_all(&node, &blocks[..end]);
        stop(&node, running);
    }
    let node = rig.node(&dir, 1);
    assert_eq!(node.height(), reference.height());
    assert_eq!(
        node.state_hash(),
        reference.state_hash(),
        "crash-looped node must equal the never-crashed node"
    );
    node.shutdown();
    reference.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn reference_install(node: &Arc<Node>, def: bcrdb::sql::ast::FunctionDef) {
    node.contracts().install(def).unwrap();
}

#[test]
fn tampered_blockstore_refuses_to_start() {
    let rig = Rig::new();
    let dir = temp_dir("tamper");
    let blocks = rig.blocks(2, 3);
    {
        let node = rig.node(&dir, 0);
        let running = deliver_all(&node, &blocks);
        stop(&node, running);
    }
    // Corrupt a byte inside the first block's transactions.
    let path = dir.join("blocks.dat");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[60] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let mut cfg = NodeConfig::new("org1/peer", "org1", Flow::OrderThenExecute);
    cfg.data_dir = Some(dir.clone());
    let err = Node::new(cfg, Arc::clone(&rig.certs), vec!["org1".into()]);
    assert!(err.is_err(), "tampered block store must fail verification");
    std::fs::remove_dir_all(&dir).unwrap();
}
