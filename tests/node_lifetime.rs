//! A `Node` that is dropped is gone: its executor workers exit and its
//! committed state is freed. (A worker that owns the pool that owns its
//! task channel is a cycle: the channel never closes, and every worker —
//! and through it the catalog, SSI manager and contracts — outlives the
//! node for the rest of the process.)
//!
//! And a node that a deployment stopped has stopped: its block processor
//! and post-commit worker have exited by the time `Network::stop_node`
//! returns, so its data directory can be reopened at once.
//!
//! One `#[test]` in a binary of its own: `/proc/self/task` counts the
//! whole process, so the thread assertion cannot share it with tests the
//! harness runs in parallel.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb::chain::tx::{Payload, Transaction};
use bcrdb::core::DEFAULT_GENESIS_SQL;
use bcrdb::crypto::identity::{Certificate, CertificateRegistry, KeyPair, Role, Scheme};
use bcrdb::node::{Node, NodeConfig};
use bcrdb::ordering::{OrderingConfig, OrderingService};
use bcrdb::prelude::*;

/// Threads of this process (0 where `/proc` does not say).
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| tasks.count())
}

/// Names (`comm`, at most 15 bytes) of this process's threads.
fn thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// After `Network::stop_node` returns, neither the stopped node's block
/// processor nor its post-commit worker is still running. No grace
/// period: `NodeProc::shutdown` joins them.
fn a_stopped_node_has_joined_its_block_processor() {
    let root = std::env::temp_dir().join(format!("bcrdb-node-lifetime-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = NetworkConfig::quick(&["org1", "org2"], Flow::OrderThenExecute);
    cfg.genesis_sql = Some(DEFAULT_GENESIS_SQL.into());
    // Small durable blocks, each followed by a state snapshot: the
    // post-commit queue is full of fsyncs when the node is stopped.
    cfg.ordering = OrderingConfig::kafka(1, 4, Duration::from_millis(20));
    cfg.data_root = Some(root.clone());
    cfg.fsync = true;
    cfg.snapshot_interval = 1;
    let net = Network::build(cfg).unwrap();
    let client = net.client("org1", "alice").unwrap();
    for id in 0..400i64 {
        let call = client.call("bench_tx").arg(id).arg(1).arg(2).arg("x");
        call.arg(0.5).submit().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while net.node("org2").unwrap().height() < 5 {
        assert!(Instant::now() < deadline, "nothing committed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // `comm` keeps 15 bytes: "org2/peer-blockproc" and
    // "org2/peer-postcommit" read as below.
    let ours = |name: &String| name == "org2/peer-block" || name == "org2/peer-postc";
    if cfg!(target_os = "linux") {
        assert_eq!(thread_names().into_iter().filter(ours).count(), 2);
    }
    // Stop it with commits and post-commit work in flight.
    net.stop_node("org2").unwrap();
    let left: Vec<String> = thread_names().into_iter().filter(ours).collect();
    assert!(left.is_empty(), "still running after stop_node: {left:?}");
    net.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_dropped_node_frees_its_workers_and_its_state() {
    a_stopped_node_has_joined_its_block_processor();

    let threads_before = threads();
    let flow = Flow::OrderThenExecute;

    let certs = CertificateRegistry::new();
    let key = KeyPair::generate("org1/alice", b"alice", Scheme::Sim);
    certs.register(Certificate {
        name: "org1/alice".into(),
        org: "org1".into(),
        role: Role::Client,
        public_key: key.public_key(),
    });
    let ordering =
        OrderingService::start(OrderingConfig::solo(1, Duration::from_millis(50)), &certs);

    let cfg = NodeConfig::new("org1/peer", "org1", flow);
    let node = Node::new(cfg, Arc::clone(&certs), vec!["org1".into()]).unwrap();
    bcrdb::core::system::bootstrap_node(&node).unwrap();
    bcrdb::core::network::apply_bootstrap_sql(&node, DEFAULT_GENESIS_SQL, flow).unwrap();
    node.recover().unwrap();
    node.start(ordering.subscribe());

    // Commit one block.
    let args = vec![
        Value::Int(1),
        Value::Int(2),
        Value::Int(3),
        Value::Text("x".into()),
        Value::Float(0.5),
    ];
    let tx = Transaction::new_order_execute("org1/alice", Payload::new("bench_tx", args), 1, &key)
        .unwrap();
    ordering.submit(tx).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while node.postcommit_height() < 1 {
        assert!(Instant::now() < deadline, "the block never committed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rows = node.query("SELECT id FROM bench_simple", &[]).unwrap();
    assert_eq!(rows.rows.len(), 1);

    let catalog = Arc::downgrade(node.catalog());
    node.shutdown();
    ordering.shutdown();
    drop((node, ordering));

    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let state_alive = catalog.upgrade().is_some();
        let extra_threads = if cfg!(target_os = "linux") {
            threads().saturating_sub(threads_before)
        } else {
            0
        };
        if !state_alive && extra_threads == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "2 s after the last Arc<Node> was dropped: catalog alive = {state_alive}, \
             {extra_threads} threads still running"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
