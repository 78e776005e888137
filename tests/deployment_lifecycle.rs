//! A deployment that is shut down and dropped leaves nothing behind: no
//! node, none of a node's committed state, no thread — on the simulated
//! `Network` (both flows, both client transports) and on `TcpCluster`,
//! cycle after cycle in one process.
//!
//! One `#[test]` in a binary of its own: `/proc/self/task` counts the
//! whole process, so the thread assertions cannot share it with tests the
//! harness runs in parallel.

use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bcrdb::core::{ClusterSpec, TcpCluster, DEFAULT_GENESIS_SQL};
use bcrdb::node::Node;
use bcrdb::prelude::*;
use bcrdb::storage::catalog::Catalog;

const WAIT: Duration = Duration::from_secs(30);
const ORGS: [&str; 3] = ["org1", "org2", "org3"];
const TXS: i64 = 200;

/// Threads of this process (0 where `/proc` does not say).
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| tasks.count())
}

/// What must be gone once a deployment is: its nodes and their catalogs.
struct Remains {
    nodes: Vec<Weak<Node>>,
    catalogs: Vec<Weak<Catalog>>,
}

impl Remains {
    fn of(nodes: Vec<Arc<Node>>) -> Remains {
        Remains {
            nodes: nodes.iter().map(Arc::downgrade).collect(),
            catalogs: nodes.iter().map(|n| Arc::downgrade(n.catalog())).collect(),
        }
    }

    /// Within 2 s nothing is upgradable and the thread count is back.
    fn assert_released(&self, what: &str, threads_before: usize) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let nodes = self.nodes.iter().filter(|w| w.upgrade().is_some()).count();
            let catalogs = self
                .catalogs
                .iter()
                .filter(|w| w.upgrade().is_some())
                .count();
            let extra_threads = if cfg!(target_os = "linux") {
                threads().saturating_sub(threads_before)
            } else {
                0
            };
            if nodes == 0 && catalogs == 0 && extra_threads == 0 {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{what}: 2 s after shutdown + drop, {nodes} nodes and {catalogs} catalogs \
                 are still alive and {extra_threads} threads are still running"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Commit `TXS` single-row inserts through `client`, keys from `base`.
fn commit_inserts(client: &Client, base: i64) {
    let calls = (base..base + TXS).map(|k| {
        Call::new("bench_tx")
            .arg(k)
            .arg(k)
            .arg(k)
            .arg("payload")
            .arg(0.5f64)
    });
    let batch = client.submit_all(calls).unwrap();
    assert_eq!(batch.wait_all(WAIT).unwrap().len(), TXS as usize);
}

fn network_cycle(flow: Flow) -> Remains {
    let mut cfg = NetworkConfig::quick(&ORGS, flow);
    cfg.genesis_sql = Some(DEFAULT_GENESIS_SQL.to_string());
    let net = Network::build(cfg).unwrap();
    let direct = net.client("org1", "alice").unwrap();
    let wired = net
        .client_with_transport("org2", "bob", TransportKind::Simulated)
        .unwrap();
    commit_inserts(&direct, 0);
    commit_inserts(&wired, TXS);
    // One crash + rejoin, so a replaced node is released as well.
    net.stop_node("org3").unwrap();
    let stopped = net.node("org3").unwrap();
    net.rejoin_node("org3").unwrap();
    let mut nodes = net.nodes();
    nodes.push(stopped);
    let remains = Remains::of(nodes);
    net.shutdown();
    remains
}

fn tcp_cycle() -> Remains {
    let spec = ClusterSpec::new(&ORGS, Flow::ExecuteOrderParallel);
    let cluster = TcpCluster::launch(spec, None).unwrap();
    commit_inserts(&cluster.client("org1", "bench0").unwrap(), 0);
    let remains = Remains::of(cluster.nodes());
    cluster.shutdown();
    remains
}

#[test]
fn shut_down_deployments_release_nodes_state_and_threads() {
    let threads_before = threads();
    for cycle in 1..=3 {
        for flow in [Flow::OrderThenExecute, Flow::ExecuteOrderParallel] {
            let what = format!("Network {flow:?}, cycle {cycle}");
            network_cycle(flow).assert_released(&what, threads_before);
        }
        tcp_cycle().assert_released(&format!("TcpCluster, cycle {cycle}"), threads_before);
    }
}
