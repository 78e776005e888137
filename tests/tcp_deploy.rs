//! Real-process TCP deployment: boots a 4-node / 4-orderer cluster from
//! the `bcrdb-node` binary, drives a mixed workload through the
//! `bcrdb-bench` load generator, kills and rejoins a node (catch-up over
//! TCP), shuts everything down gracefully, and then verifies the chains
//! the processes left on disk: gapless, byte-identical blocks and
//! agreeing checkpoint state hashes.

mod common;

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bcrdb::chain::block::Block;
use bcrdb::chain::blockstore::BlockStore;
use bcrdb::chain::tx::Payload;
use bcrdb::common::codec::Encode;
use bcrdb::common::value::Value;
use bcrdb::txn::ssi::Flow;

const NODE_BIN: &str = env!("CARGO_BIN_EXE_bcrdb-node");
const BENCH_BIN: &str = env!("CARGO_BIN_EXE_bcrdb-bench");
const ORGS: [&str; 4] = ["org1", "org2", "org3", "org4"];
const BOOT: Duration = Duration::from_secs(30);

/// Kills the child on drop so a failing test never leaks processes.
struct Proc {
    name: String,
    child: Child,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Proc {
    fn spawn(name: &str, log_dir: &Path, args: &[String]) -> Proc {
        let log = std::fs::File::create(log_dir.join(format!("{name}.log"))).unwrap();
        let child = Command::new(NODE_BIN)
            .args(args)
            .stdout(Stdio::from(log.try_clone().unwrap()))
            .stderr(Stdio::from(log))
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        Proc {
            name: name.to_string(),
            child,
        }
    }

    fn terminate(mut self) {
        let pid = self.child.id().to_string();
        let _ = Command::new("kill").args(["-TERM", &pid]).status();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().unwrap() {
                Some(status) => {
                    assert!(status.success(), "{} exited with {status}", self.name);
                    return;
                }
                None if Instant::now() > deadline => {
                    panic!("{} ignored SIGTERM", self.name);
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

fn reserve_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn await_listening(addr: &str) {
    let deadline = Instant::now() + BOOT;
    loop {
        match TcpStream::connect(addr) {
            Ok(_) => return,
            Err(_) if Instant::now() > deadline => panic!("{addr} never came up"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Minimal extractor for the flat JSON object `bcrdb-bench` prints.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {json}"))
}

struct Ports {
    orderer: Vec<u16>,
    client: Vec<u16>,
    peer: Vec<u16>,
}

fn node_args(ports: &Ports, i: usize, data_root: &Path, rejoin: bool) -> Vec<String> {
    let org = ORGS[i];
    let mut args = vec![
        "--role".into(),
        "node".into(),
        "--org".into(),
        org.into(),
        "--orgs".into(),
        ORGS.join(","),
        "--flow".into(),
        "eo".into(),
        "--listen-client".into(),
        format!("127.0.0.1:{}", ports.client[i]),
        "--listen-peer".into(),
        format!("127.0.0.1:{}", ports.peer[i]),
        "--orderer-addr".into(),
        format!("127.0.0.1:{}", ports.orderer[i]),
        "--data-dir".into(),
        data_root.join(org).to_string_lossy().into_owned(),
        // Disk-backed paged storage with a deliberately small pool: the
        // SIGKILL below lands mid-write-back for the page files too, and
        // the rejoin exercises paged crash recovery (journal replay or
        // wipe-and-replay) before the on-disk chain verification.
        "--paged".into(),
        "--pool-frames".into(),
        "64".into(),
    ];
    for (j, other) in ORGS.iter().enumerate() {
        if j != i {
            args.push("--peer".into());
            args.push(format!("{other}=127.0.0.1:{}", ports.peer[j]));
        }
    }
    if rejoin {
        args.push("--rejoin".into());
    }
    args
}

fn run_bench(orgs: &[&str], addrs: &[String], id_offset: i64, secs: u32) -> String {
    let out = Command::new(BENCH_BIN)
        .args([
            "--orgs",
            &orgs.join(","),
            "--addrs",
            &addrs.join(","),
            "--flow",
            "eo",
            "--connections",
            "8",
            "--tps",
            "200",
            "--duration-secs",
            &secs.to_string(),
            "--id-offset",
            &id_offset.to_string(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "bcrdb-bench failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn four_node_cluster_survives_kill_and_rejoin() {
    let data_root = std::env::temp_dir().join(format!("bcrdb-tcp-deploy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_root);
    std::fs::create_dir_all(&data_root).unwrap();

    let ports = Ports {
        orderer: (0..4).map(|_| reserve_port()).collect(),
        client: (0..4).map(|_| reserve_port()).collect(),
        peer: (0..4).map(|_| reserve_port()).collect(),
    };
    let client_addrs: Vec<String> = ports
        .client
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();

    // Ordering service first, then the four nodes.
    let mut ordering_args = vec![
        "--role".to_string(),
        "ordering".to_string(),
        "--orgs".to_string(),
        ORGS.join(","),
        "--flow".to_string(),
        "eo".to_string(),
    ];
    for p in &ports.orderer {
        ordering_args.push("--listen-orderer".into());
        ordering_args.push(format!("127.0.0.1:{p}"));
    }
    let ordering = Proc::spawn("ordering", &data_root, &ordering_args);
    for p in &ports.orderer {
        await_listening(&format!("127.0.0.1:{p}"));
    }

    let mut nodes: Vec<Option<Proc>> = (0..4)
        .map(|i| {
            Some(Proc::spawn(
                ORGS[i],
                &data_root,
                &node_args(&ports, i, &data_root, false),
            ))
        })
        .collect();
    for addr in &client_addrs {
        await_listening(addr); // the client plane serves once the node is up
    }

    // Phase 1: mixed workload across all four nodes.
    let report = run_bench(&ORGS, &client_addrs, 0, 3);
    assert!(json_u64(&report, "committed") > 0, "no commits: {report}");
    assert_eq!(json_u64(&report, "unresolved"), 0, "{report}");
    assert_eq!(json_u64(&report, "worker_errors"), 0, "{report}");

    // Kill org4 outright (SIGKILL via Child::kill) and keep committing
    // through the survivors.
    {
        let mut victim = nodes[3].take().unwrap();
        victim.child.kill().unwrap();
        victim.child.wait().unwrap();
        std::mem::forget(victim); // already reaped
    }
    let survivors = &ORGS[..3];
    let report = run_bench(survivors, &client_addrs[..3], 10_000_000, 3);
    assert!(
        json_u64(&report, "committed") > 0,
        "no commits with a node down: {report}"
    );
    assert_eq!(json_u64(&report, "unresolved"), 0, "{report}");

    // Rejoin: restart org4 against the same data dir; it catches up from
    // its peers over TCP before serving clients again.
    nodes[3] = Some(Proc::spawn(
        "org4-rejoin",
        &data_root,
        &node_args(&ports, 3, &data_root, true),
    ));
    await_listening(&client_addrs[3]);

    // The rejoined node must reach the height the survivors are at.
    let spec = bcrdb::core::ClusterSpec::new(&ORGS, Flow::ExecuteOrderParallel);
    let live: Vec<_> = (0..3)
        .map(|i| {
            bcrdb::core::tcp_client(
                &spec,
                ORGS[i],
                &bcrdb::core::ClusterSpec::bench_user(60 + i),
                &client_addrs[i],
            )
            .unwrap()
        })
        .collect();
    let target = live
        .iter()
        .map(|c| c.chain_height().unwrap())
        .max()
        .unwrap();
    assert!(target > 0);
    let rejoined = bcrdb::core::tcp_client(
        &spec,
        "org4",
        &bcrdb::core::ClusterSpec::bench_user(63),
        &client_addrs[3],
    )
    .unwrap();
    bcrdb::core::await_height_tcp(
        std::slice::from_ref(&rejoined),
        target,
        Duration::from_secs(30),
    )
    .expect("rejoined node never caught up");
    drop(rejoined);
    drop(live);

    // Graceful shutdown, nodes before ordering.
    for proc in nodes.into_iter().flatten() {
        proc.terminate();
    }
    ordering.terminate();

    verify_chains_on_disk(&data_root, target);
    let _ = std::fs::remove_dir_all(&data_root);
}

/// Open each node's block store from disk and assert the replicas wrote
/// the same chain: gapless hash-linked heights, byte-identical canonical
/// encodings over the common prefix (signatures excluded — each replica
/// stores the copy signed by *its* orderer, by design), and checkpoint
/// votes whose state hashes agree across nodes for every voted block.
fn verify_chains_on_disk(data_root: &Path, min_expected: u64) {
    let stores: Vec<(String, BlockStore)> = ORGS
        .iter()
        .map(|org| {
            let path: PathBuf = data_root.join(org).join("blocks.dat");
            (org.to_string(), BlockStore::open(&path).unwrap())
        })
        .collect();
    let min_height = stores.iter().map(|(_, s)| s.height()).min().unwrap();
    assert!(
        min_height >= min_expected,
        "shortest chain ({min_height}) below the converged height {min_expected}"
    );

    fn canonical_bytes(block: &Block) -> Vec<u8> {
        let mut unsigned = block.clone();
        unsigned.signatures.clear();
        unsigned.encode_to_vec()
    }

    let mut checkpoint_votes: HashMap<u64, HashMap<String, [u8; 32]>> = HashMap::new();
    let mut prev_hash = bcrdb::chain::block::genesis_prev_hash();
    for number in 1..=min_height {
        let reference: std::sync::Arc<Block> = stores[0].1.get(number).unwrap_or_else(|| {
            panic!("{}: gap at block {number}", stores[0].0);
        });
        assert_eq!(reference.number, number, "height mismatch in store");
        assert_eq!(
            reference.prev_hash, prev_hash,
            "chain broken at block {number}"
        );
        prev_hash = reference.hash;
        let reference_bytes = canonical_bytes(&reference);
        for (org, store) in &stores[1..] {
            let block = store
                .get(number)
                .unwrap_or_else(|| panic!("{org}: gap at block {number}"));
            assert_eq!(
                canonical_bytes(&block),
                reference_bytes,
                "{org}: block {number} differs from {}",
                stores[0].0
            );
            assert!(
                !block.signatures.is_empty(),
                "{org}: block {number} stored unsigned"
            );
        }
        for vote in &reference.checkpoints {
            let by_node = checkpoint_votes.entry(vote.block).or_default();
            if let Some(prev) = by_node.insert(vote.node.clone(), vote.state_hash) {
                assert_eq!(
                    prev, vote.state_hash,
                    "{} voted twice with different hashes for block {}",
                    vote.node, vote.block
                );
            }
        }
    }

    // Replicas disagreeing on a block's state hash would be a §3.5
    // divergence; every multi-voter block must be unanimous.
    let mut multi_voter = 0;
    for (block, by_node) in &checkpoint_votes {
        let mut hashes: Vec<&[u8; 32]> = by_node.values().collect();
        hashes.sort();
        hashes.dedup();
        assert!(
            hashes.len() == 1,
            "checkpoint divergence at block {block}: {by_node:?}"
        );
        if by_node.len() > 1 {
            multi_voter += 1;
        }
    }
    assert!(
        multi_voter > 0,
        "no block collected checkpoint votes from more than one node"
    );
}

/// `bench_tx(k, 1, 1, "x", 0.5)` — what the shared submission scenarios
/// insert on a cluster with the default genesis.
fn bench_tx(k: i64) -> Payload {
    let (one, label) = (Value::Int(1), Value::Text("x".into()));
    let args = vec![Value::Int(k), one.clone(), one, label, Value::Float(0.5)];
    Payload::new("bench_tx", args)
}

/// A TCP client that disconnects with unresolved submissions must leave
/// no notification waiters registered on the node — the socket close is
/// the cancellation (the sim-transport twin lives in `session_api.rs`).
#[test]
fn tcp_disconnect_cancels_pending_waiters() {
    let spec = bcrdb::core::ClusterSpec::new(&["org1"], Flow::OrderThenExecute);
    let cluster = bcrdb::core::TcpCluster::launch(spec, None).unwrap();
    let node = cluster.nodes().remove(0);
    let client = cluster.client("org1", "bench0").unwrap();
    common::dropped_client_leaves_no_waiters(&node, client, &bench_tx);
    cluster.shutdown();
}

/// Over a socket, as over the other two connections: duplicate
/// submissions share one outcome, and a refused batch member fails the
/// call without leaking a waiter (twins in `session_api.rs`).
#[test]
fn tcp_submissions_keep_their_registrations_straight() {
    let mut spec = bcrdb::core::ClusterSpec::new(&["org1"], Flow::ExecuteOrderParallel);
    spec.block_timeout = Duration::from_secs(1);
    let cluster = bcrdb::core::TcpCluster::launch(spec, None).unwrap();
    common::withhold_votes(&cluster.nodes());
    let node = cluster.nodes().remove(0);
    let client = cluster.client("org1", "bench0").unwrap();
    common::duplicate_submissions_share_one_outcome(&node, &client, &bench_tx);

    // Only the bench users are certified. Key 1 is taken by now, so the
    // second scenario's keys sit 100 higher.
    let stranger = cluster.client("org1", "nobody").unwrap();
    let (insert, keys) = (
        |k| bench_tx(k + 100),
        "SELECT id - 100 FROM bench_simple WHERE id > 100 ORDER BY id",
    );
    common::refused_member_fails_the_batch(&node, &client, &stranger, &insert, keys);
    cluster.shutdown();
}

/// Satellite: EXPLAIN over the real TCP wire — the plan text travels as
/// ordinary rows, and two nodes at the same height render byte-identical
/// plans (the sim-transport twin lives in `session_api.rs`).
#[test]
fn tcp_explain_round_trips_identically_on_every_node() {
    let spec = bcrdb::core::ClusterSpec::new(&["org1", "org2"], Flow::OrderThenExecute);
    let cluster = bcrdb::core::TcpCluster::launch(spec, None).unwrap();
    let wait = Duration::from_secs(20);
    let c1 = cluster.client("org1", "bench0").unwrap();
    for id in 0..8 {
        c1.call("bench_tx")
            .arg(id)
            .arg(id)
            .arg(id)
            .arg("x")
            .arg(0.5)
            .submit_wait(wait)
            .unwrap();
    }
    let h = c1.chain_height().unwrap();
    cluster.await_height(h, wait).unwrap();
    let c2 = cluster.client("org2", "bench0").unwrap();

    let sql = "SELECT f1 FROM bench_simple WHERE id = 1 OR id = 5";
    let p1 = c1.explain(sql).unwrap();
    let p2 = c2.explain(sql).unwrap();
    assert!(
        p1.iter().any(|l| l.contains("IndexUnion bench_simple")),
        "OR over the key should plan as an index union with stats: {p1:?}"
    );
    assert_eq!(p1, p2, "plan text diverged across TCP nodes");
    cluster.shutdown();
}
