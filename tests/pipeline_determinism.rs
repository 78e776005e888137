//! Live-vs-replay determinism suite for the staged block commit.
//!
//! The node's live commit driver (`processor::run_loop`) overlaps
//! execution, serial commit and post-commit work across blocks; the
//! recovery/catch-up path (`processor::process_block`) runs the same
//! stages for one block at a time, to completion, on one thread. These
//! tests prove the overlap is *only* a scheduling change: whatever the
//! live loop leaves behind — checkpoint hashes, state hash, ledger
//! content, planner statistics — replaying the same chain through
//! `process_block` on a fresh node must reproduce byte for byte, on every
//! node of a 4-organization network — and a crash that loses unflushed
//! post-commit state (ledger records of blocks the store already holds)
//! must be fully healed by replay.

#[path = "common/replay.rs"]
mod replay;

use std::sync::Arc;
use std::time::Duration;

use bcrdb::chain::block::Block;
use bcrdb::chain::tx::{Payload, Transaction};
use bcrdb::crypto::identity::{Certificate, CertificateRegistry, KeyPair, Role, Scheme};
use bcrdb::node::processor;
use bcrdb::node::{Node, NodeConfig};
use bcrdb::prelude::*;
use replay::{assert_replay_matches, fingerprint, RunFingerprint};

const WAIT: Duration = Duration::from_secs(30);
const ORGS: [&str; 4] = ["org1", "org2", "org3", "org4"];

/// The genesis schema of every network (and replay node) in this suite.
const KV_DDL: &str = "CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL, note TEXT); \
     CREATE FUNCTION put(k INT, v INT, note TEXT) AS $$ \
       INSERT INTO kv VALUES ($1, $2, $3) $$; \
     CREATE FUNCTION bump(k INT, v INT) AS $$ \
       UPDATE kv SET v = v + $2 WHERE k = $1 $$";

fn build(flow: Flow) -> Network {
    let mut cfg = NetworkConfig::quick(&ORGS, flow);
    // BCRDB_PAGED=1 re-runs the whole suite on disk-backed paged
    // storage (a 64-frame pool, spilling as eagerly as possible): the
    // byte-identical-replicas claim must survive cold segments living in
    // page files behind a small buffer pool. The CI small-pool job
    // drives this leg.
    if std::env::var("BCRDB_PAGED").is_ok_and(|v| v == "1") {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NET_SEQ: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "bcrdb-determinism-paged-{}-{}",
            std::process::id(),
            NET_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        cfg.data_root = Some(root);
        cfg.paged = true;
        cfg.buffer_pool_frames = 64;
        cfg.spill_retention = 1;
    }
    let net = Network::build(cfg).unwrap();
    net.bootstrap_sql(KV_DDL).unwrap();
    net
}

/// A sequential workload — one client submitting and awaiting inserts,
/// then updates of half the inserted rows, one transaction at a time.
fn run_sequential_workload(net: &Network) {
    let client = net.client("org1", "alice").unwrap();
    for k in 1..=12i64 {
        client
            .call("put")
            .arg(k)
            .arg(k * 10)
            .arg(format!("row-{k}"))
            .submit_wait_retrying(WAIT)
            .unwrap();
    }
    for k in 1..=6i64 {
        client
            .call("bump")
            .arg(k)
            .arg(1)
            .submit_wait_retrying(WAIT)
            .unwrap();
    }
    let head = net.nodes().iter().map(|n| n.height()).max().unwrap();
    net.await_height(head, WAIT).unwrap();
}

/// Concurrent load on the 4-node network: block boundaries are
/// timing-dependent across runs, so the assertions are within-run — all
/// four nodes converge to identical chains, checkpoints and state, with
/// no divergence reports, and replaying org1's chain reproduces what its
/// live loop committed.
#[test]
fn pipelined_network_converges_under_concurrent_load() {
    for flow in [Flow::OrderThenExecute, Flow::ExecuteOrderParallel] {
        let net = build(flow);
        let mut batches = Vec::new();
        for (i, org) in ORGS.iter().enumerate() {
            let client = net.client(org, "loadgen").unwrap();
            let calls: Vec<Call> = (0..40i64)
                .map(|n| {
                    let k = (i as i64) * 1000 + n;
                    Call::new("put").arg(k).arg(k).arg(format!("c-{k}"))
                })
                .collect();
            batches.push((client, calls));
        }
        let pending: Vec<_> = batches
            .iter()
            .map(|(c, calls)| c.submit_all(calls.clone()).unwrap())
            .collect();
        for batch in pending {
            for n in batch.wait_all(WAIT).unwrap() {
                assert!(
                    matches!(n.status, TxStatus::Committed),
                    "{flow:?}: unexpected abort {:?}",
                    n.status
                );
            }
        }
        let head = net.nodes().iter().map(|n| n.height()).max().unwrap();
        net.await_height(head, WAIT).unwrap();

        let fps: Vec<RunFingerprint> = net.nodes().iter().map(fingerprint).collect();
        for (i, fp) in fps.iter().enumerate().skip(1) {
            assert_eq!(fp.chain, fps[0].chain, "{flow:?}: {} chain", ORGS[i]);
            assert_eq!(
                fp.checkpoints, fps[0].checkpoints,
                "{flow:?}: {} checkpoints",
                ORGS[i]
            );
            assert_eq!(fp.state, fps[0].state, "{flow:?}: {} state", ORGS[i]);
        }
        for node in net.nodes() {
            assert!(node.divergences().is_empty(), "{flow:?}: divergence seen");
        }
        assert_replay_matches(&net, &net.node("org1").unwrap(), KV_DDL);
        net.shutdown();
    }
}

// ----------------------------------------------------------- crash test

/// Direct-node rig (no network): a deterministic block feeder.
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

    fn node(&self, data_dir: Option<std::path::PathBuf>) -> Arc<Node> {
        self.node_with(|cfg| cfg.data_dir = data_dir)
    }

    fn node_with(&self, tweak: impl FnOnce(&mut NodeConfig)) -> Arc<Node> {
        let mut cfg = NodeConfig::new("org1/peer", "org1", Flow::OrderThenExecute);
        cfg.fsync = true;
        tweak(&mut cfg);
        let node = Node::new(cfg, Arc::clone(&self.certs), vec!["org1".into()]).unwrap();
        bootstrap(&node);
        node
    }

    /// One block invoking arbitrary (contract, args) payloads.
    fn block_of(
        &self,
        node: &Arc<Node>,
        number: u64,
        calls: &[(&str, Vec<Value>)],
        nonce_base: u64,
    ) -> Arc<Block> {
        let txs: Vec<Transaction> = calls
            .iter()
            .enumerate()
            .map(|(i, (contract, args))| {
                Transaction::new_order_execute(
                    "org1/alice",
                    Payload::new(*contract, args.clone()),
                    nonce_base + i as u64,
                    &self.client,
                )
                .unwrap()
            })
            .collect();
        let mut block = Block::build(number, node.blockstore.tip_hash(), txs, "solo", vec![]);
        block.sign(&self.orderer).unwrap();
        Arc::new(block)
    }

    fn block(&self, node: &Arc<Node>, number: u64, keys: std::ops::Range<i64>) -> Arc<Block> {
        let txs: Vec<Transaction> = keys
            .map(|k| {
                Transaction::new_order_execute(
                    "org1/alice",
                    Payload::new("put", vec![Value::Int(k), Value::Int(k * 10)]),
                    k as u64,
                    &self.client,
                )
                .unwrap()
            })
            .collect();
        let mut block = Block::build(number, node.blockstore.tip_hash(), txs, "solo", vec![]);
        block.sign(&self.orderer).unwrap();
        Arc::new(block)
    }
}

fn bootstrap(node: &Arc<Node>) {
    node.catalog()
        .create_table(
            bcrdb::common::schema::TableSchema::new(
                "kv",
                vec![
                    bcrdb::common::schema::Column::new("k", bcrdb::common::schema::DataType::Int),
                    bcrdb::common::schema::Column::new("v", bcrdb::common::schema::DataType::Int),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
    for sql in [
        "CREATE FUNCTION put(k INT, v INT) AS $$ INSERT INTO kv VALUES ($1, $2) $$",
        "CREATE FUNCTION del(k INT) AS $$ DELETE FROM kv WHERE k = $1 $$",
        "CREATE FUNCTION setv(k INT, v INT) AS $$ UPDATE kv SET v = $2 WHERE k = $1 $$",
    ] {
        if let bcrdb::sql::ast::Statement::CreateFunction(def) =
            bcrdb::sql::parse_statement(sql).unwrap()
        {
            node.contracts().install(def).unwrap();
        }
    }
}

/// Wait until the live loop has fully processed block `height`.
fn await_postcommit(node: &Arc<Node>, height: u64) {
    let deadline = std::time::Instant::now() + WAIT;
    while node.postcommit_height() < height {
        assert!(
            std::time::Instant::now() < deadline,
            "block {height} never committed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The pipelined failure window unique to stage 3: a block is durable in
/// the store (stage 0 append + group fsync) and serially committed, but
/// the node dies before the post-commit worker writes its ledger records.
/// Recovery replays the stored chain through `process_block` and must
/// rebuild the unflushed ledger records and checkpoint hashes.
#[test]
fn crash_during_post_commit_replay_rebuilds_ledger() {
    let dir = std::env::temp_dir().join(format!("bcrdb-pipe-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let rig = Rig::new();

    // Reference node: processes every block fully (what the crashed node
    // must converge back to).
    let reference = rig.node(None);
    // Victim: blocks 1–2 fully processed; blocks 3–4 appended to the
    // durable store only — the crash ate their post-commit output.
    let victim_dir = dir.join("victim");
    std::fs::create_dir_all(&victim_dir).unwrap();
    let victim = rig.node(Some(victim_dir.clone()));

    for n in 1..=4u64 {
        let keys = (n as i64 - 1) * 5..(n as i64) * 5;
        let block = rig.block(&reference, n, keys);
        reference.blockstore.append((*block).clone()).unwrap();
        processor::process_block(&reference, &block).unwrap();
        if n <= 2 {
            victim.blockstore.append((*block).clone()).unwrap();
            processor::process_block(&victim, &block).unwrap();
        } else {
            // Stage 0 only: durable append, no commit, no ledger.
            victim.blockstore.append((*block).clone()).unwrap();
        }
    }
    assert_eq!(victim.height(), 2);
    assert!(victim.ledger_records(3).is_empty(), "pre-crash: no ledger");
    victim.shutdown();
    drop(victim);

    // Restart from disk and recover: local replay through process_block.
    let revived = rig.node(Some(victim_dir));
    let recovered = revived.recover().unwrap();
    assert_eq!(recovered, 4, "replay reached the stored tip");
    assert_eq!(revived.postcommit_height(), 4);
    for h in 1..=4u64 {
        assert_eq!(
            revived.checkpoints.local_hash(h),
            reference.checkpoints.local_hash(h),
            "checkpoint mismatch at block {h}"
        );
        let got = revived.ledger_records(h);
        let want = reference.ledger_records(h);
        assert_eq!(got.len(), want.len(), "ledger row count at block {h}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.global_id, w.global_id);
            assert_eq!(g.tx_index, w.tx_index);
            assert_eq!(g.status, w.status);
        }
    }
    assert_eq!(revived.state_hash(), reference.state_hash());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Direct-node live ≡ replay on blocks that exercise every gate decision
/// at once: wide insert batches, updates, deletes, and a same-block
/// duplicate-key pair whose loser must abort — with the same reason
/// string — because its predecessor's row is already live in storage.
#[test]
fn mixed_blocks_live_run_matches_replay() {
    let rig = Rig::new();
    let replay = rig.node_with(|cfg| cfg.fsync = false);
    // Block 1: a wide insert batch.
    let calls: Vec<(&str, Vec<Value>)> = (0..40i64)
        .map(|k| ("put", vec![Value::Int(k), Value::Int(k * 10)]))
        .collect();
    let b1 = rig.block_of(&replay, 1, &calls, 1_000);
    replay.blockstore.append((*b1).clone()).unwrap();
    processor::process_block(&replay, &b1).unwrap();
    // Block 2: interleaved updates, deletes, fresh inserts and an
    // in-block duplicate key (the second `put 50` must lose).
    let calls: Vec<(&str, Vec<Value>)> = vec![
        ("setv", vec![Value::Int(0), Value::Int(500)]),
        ("del", vec![Value::Int(1)]),
        ("put", vec![Value::Int(50), Value::Int(50)]),
        ("put", vec![Value::Int(50), Value::Int(51)]),
        ("setv", vec![Value::Int(2), Value::Int(700)]),
        ("del", vec![Value::Int(3)]),
        ("put", vec![Value::Int(51), Value::Int(51)]),
        ("setv", vec![Value::Int(39), Value::Int(999)]),
    ];
    let b2 = rig.block_of(&replay, 2, &calls, 2_000);
    replay.blockstore.append((*b2).clone()).unwrap();
    processor::process_block(&replay, &b2).unwrap();

    // The same two blocks through the live loop.
    let live = rig.node_with(|cfg| cfg.fsync = false);
    let (tx, rx) = crossbeam_channel::unbounded::<Arc<Block>>();
    live.start(rx);
    tx.send(b1).unwrap();
    tx.send(b2).unwrap();
    await_postcommit(&live, 2);

    let (live_fp, replay_fp) = (fingerprint(&live), fingerprint(&replay));
    assert_eq!(live_fp.state, replay_fp.state, "state hash");
    assert_eq!(live_fp.checkpoints, replay_fp.checkpoints, "checkpoints");
    assert_eq!(live_fp.ledger, replay_fp.ledger, "ledger");
    let dup = live_fp
        .ledger
        .iter()
        .find(|r| r.0 == 2 && r.1 == 3)
        .expect("ledger row of the duplicate");
    assert!(
        matches!(&dup.5, TxStatus::Aborted(m)
            if m.contains("duplicate key value 50 violates primary key of table kv")),
        "in-block duplicate did not abort: {:?}",
        dup.5
    );
    assert_eq!(
        live_fp
            .ledger
            .iter()
            .filter(|r| r.5 == TxStatus::Committed)
            .count(),
        40 + 7,
        "everything but the duplicate committed"
    );
    live.shutdown();
}

/// `bet` is the measured wait at the pipeline head, not a count of
/// expired 2 ms wait slices: executions that finish inside the first
/// slice still show up in it. The three transactions of the block each
/// count a 400-row table (0.5–2 ms of work) and run side by side, so the
/// head waits about one execution time for them (less whatever the commit
/// thread lost to the scheduler before it started waiting).
#[test]
fn head_wait_shorter_than_a_slice_is_reported_in_bet() {
    use bcrdb::common::schema::{Column, DataType, TableSchema};
    use bcrdb::storage::version::Version;

    let rig = Rig::new();
    let node = rig.node_with(|cfg| cfg.fsync = false);
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
    ];
    let schema = TableSchema::new("seeded", columns, vec![0]).unwrap();
    let seeded = node.catalog().create_table(schema).unwrap();
    for i in 0..400 {
        let row = vec![Value::Int(i), Value::Int(i % 7)];
        let rid = seeded.alloc_row_id();
        let xmin = bcrdb::common::ids::TxId::INVALID;
        seeded.append_restored(Version::restored(xmin, row, rid, 0, None, None));
    }
    let tally = "CREATE FUNCTION tally(k INT) AS $$ \
                   INSERT INTO kv SELECT $1, COUNT(*) FROM seeded WHERE v > 2 $$";
    if let bcrdb::sql::ast::Statement::CreateFunction(def) =
        bcrdb::sql::parse_statement(tally).unwrap()
    {
        node.contracts().install(def).unwrap();
    }

    let (tx, rx) = crossbeam_channel::unbounded::<Arc<Block>>();
    node.start(rx);
    let calls: Vec<(&str, Vec<Value>)> = (0..3).map(|k| ("tally", vec![Value::Int(k)])).collect();
    tx.send(rig.block_of(&node, 1, &calls, 0)).unwrap();
    await_postcommit(&node, 1);
    assert_eq!(node.metrics().committed(), 3);
    let m = node.metrics().take();
    assert!(m.tet_ms > 0.05, "counting 400 rows took {} ms", m.tet_ms);
    assert!(
        m.bet_ms >= 0.25 * m.tet_ms,
        "executions of {} ms each reported bet = {} ms",
        m.tet_ms,
        m.bet_ms
    );
    assert!(m.bpt_ms >= m.bet_ms);
    node.shutdown();
}

/// The maintenance vacuum tick (`NodeConfig::vacuum_interval`): every N
/// blocks the node reclaims row versions deleted at or before the
/// checkpoint-retention horizon (64 blocks), counting runs and reclaimed
/// versions in the metrics. Queries above the horizon are unaffected.
#[test]
fn vacuum_tick_reclaims_old_deletes() {
    let rig = Rig::new();
    let node = rig.node_with(|cfg| {
        cfg.fsync = false;
        cfg.vacuum_interval = 10;
    });
    // Each block k inserts row k and deletes row k-1, so by block 80 the
    // rows deleted in blocks ≤ 16 are past the 64-block horizon.
    for k in 1..=80u64 {
        let mut calls: Vec<(&str, Vec<Value>)> =
            vec![("put", vec![Value::Int(k as i64), Value::Int(k as i64)])];
        if k > 1 {
            calls.push(("del", vec![Value::Int(k as i64 - 1)]));
        }
        let block = rig.block_of(&node, k, &calls, k * 10);
        node.blockstore.append((*block).clone()).unwrap();
        processor::process_block(&node, &block).unwrap();
    }
    let m = node.metrics();
    assert_eq!(m.vacuum_runs(), 8, "tick fired every 10 blocks");
    assert!(
        m.versions_reclaimed() > 0,
        "old deleted versions were reclaimed"
    );
    let snap = node.metrics_report();
    assert_eq!(snap.vacuum_runs, 8);
    assert!(snap.versions_reclaimed > 0);
    // Only row 80 is live; recent history (above the horizon) survives.
    let r = node.query("SELECT COUNT(*) FROM kv", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    let kv = node.catalog().get("kv").unwrap();
    assert!(
        kv.version_count() < 2 * 80,
        "heap shrank below the no-vacuum total"
    );
    // Time travel above the horizon still sees the pre-delete row.
    let r = node
        .query_at("SELECT v FROM kv WHERE k = $1", &[Value::Int(79)], 79)
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    // Vacuum reclaims only versions no summary counts, so eight ticks on
    // the folded statistics are still what the heap itself adds up to
    // (tables the commit-time fold never wrote to have none to compare).
    for name in node.catalog().table_names() {
        let table = node.catalog().get(&name).unwrap();
        if let Some(folded) = table.stats_summary_at(80) {
            table.rebuild_stats(80);
            assert_eq!(table.stats_summary_at(80), Some(folded), "{name}");
        }
    }
    assert!(kv.stats_summary_at(80).is_some());
}

/// A rejected block halts the block processor: the `halted` health
/// flag is recorded (and surfaces through the Metrics RPC snapshot), and
/// `Node::shutdown` returns promptly instead of hanging on the dead
/// processor.
#[test]
fn halted_processor_reports_health_and_shuts_down() {
    let rig = Rig::new();
    let node = rig.node(None);
    let (tx, rx) = crossbeam_channel::unbounded::<Arc<Block>>();
    node.start(rx);

    // A healthy block commits.
    let good = rig.block(&node, 1, 0..3);
    tx.send(Arc::clone(&good)).unwrap();
    await_postcommit(&node, 1);
    assert!(!node.is_halted());

    // A block signed by a rogue orderer is rejected and halts processing.
    let rogue = KeyPair::generate("evil/orderer", b"evil", Scheme::Sim);
    let mut bad = Block::build(2, node.blockstore.tip_hash(), vec![], "solo", vec![]);
    bad.sign(&rogue).unwrap();
    tx.send(Arc::new(bad)).unwrap();
    let deadline = std::time::Instant::now() + WAIT;
    while !node.is_halted() {
        assert!(std::time::Instant::now() < deadline, "halt never recorded");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(node.height(), 1, "chain did not advance past the bad block");
    let snap = node.metrics_report();
    assert!(snap.halted, "Metrics RPC snapshot exposes the health flag");
    assert_eq!(snap.committed_height, 1);
    assert_eq!(snap.postcommit_height, 1);
    assert!(node
        .metrics()
        .halt_reason()
        .is_some_and(|r| r.contains("halted at block 2")));

    // Shutdown of a halted node returns promptly.
    let t0 = std::time::Instant::now();
    node.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(1));

    // Chains keep their integrity: a healthy node replays the good
    // block on its own.
    let clean = rig.node(None);
    clean.blockstore.append((*good).clone()).unwrap();
    processor::process_block(&clean, &good).unwrap();
    assert_eq!(clean.height(), 1);
}

/// Planner statistics ride the deterministic commit path (folded and
/// sealed by the commit thread, in block order), so the plans they drive
/// — estimates included — are byte-identical on every replica and on a
/// node that replayed the chain instead of committing it live. The
/// chosen index ranges double as SSI predicate locks, so this is a
/// consensus property, not a cosmetic one.
#[test]
fn stats_driven_plans_are_identical_across_replicas_and_workers() {
    let net = build(Flow::OrderThenExecute);
    run_sequential_workload(&net);
    let plan_on = |n: &Arc<Node>| -> Vec<String> {
        let r = n
            .query_at(
                "EXPLAIN SELECT v FROM kv WHERE k = 2 OR k = 5",
                &[],
                n.height(),
            )
            .unwrap();
        r.rows
            .iter()
            .map(|row| match &row[0] {
                Value::Text(s) => s.clone(),
                other => panic!("plan line is not text: {other:?}"),
            })
            .collect()
    };
    let plans: Vec<Vec<String>> = net.nodes().iter().map(plan_on).collect();
    for (i, p) in plans.iter().enumerate().skip(1) {
        assert_eq!(&plans[0], p, "node {i} diverged");
    }
    // The sequential workload updates rows as well as inserting them, so
    // this replay also covers update write sets.
    let replay = assert_replay_matches(&net, &net.node("org1").unwrap(), KV_DDL);
    assert_eq!(
        plans[0],
        plan_on(&replay),
        "plan text differs between live run and replay"
    );
    net.shutdown();
    // And the sealed statistics actually drove the choice: the OR over
    // the key planned as an index union, not a full scan.
    assert!(
        plans[0].iter().any(|l| l.contains("IndexUnion kv")),
        "expected an index-union plan, got {:?}",
        plans[0]
    );
}
