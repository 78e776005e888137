//! Real-TCP deployment: wire one organization's node — or the ordering
//! service — into a cluster of separate OS processes connected by
//! length-prefixed canonical-codec frames over localhost or a real
//! network.
//!
//! A node is assembled by the same recipe as on the simulated network
//! ([`crate::launch`]); [`run_node_process`] supplies only the planes,
//! each a use of the shared socket toolkit ([`bcrdb_network::tcp`]):
//!
//! * **peer plane** — every node listens on its peer address and dials
//!   every other organization once, over a reconnecting link. The
//!   outbound link carries forwarded transactions and catch-up requests;
//!   the serving side answers sync requests on whichever socket they
//!   arrived on.
//! * **ordering plane** — one TCP listener per orderer replica
//!   ([`run_ordering_process`]); a node dials its replica, identifies
//!   itself, streams submissions and checkpoint votes up and receives
//!   the block stream down. A reconnect resubscribes from the current
//!   block; anything missed in between is healed by the node's normal
//!   delivery-gap catch-up.
//! * **client plane** — `tcp::serve_client_connection` per accepted
//!   socket, started only after recovery so clients never reach a stale
//!   replica.
//!
//! Every identity (admins, peers, orderers, bench users) derives from a
//! deterministic seed (the `identity` module), so each process rebuilds
//! the same certificate registry locally — nothing secret crosses the
//! wire at bootstrap, mirroring the out-of-band certificate distribution
//! of §3.7.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bcrdb_chain::tx::Transaction;
use bcrdb_common::codec::{Decode, Encode};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;
use bcrdb_crypto::identity::{CertificateRegistry, Scheme};
use bcrdb_network::tcp::{accept_loop, read_frames, ReconnectingLink};
use bcrdb_network::wire::{
    peer_endpoint, write_frame, PeerAddr, MAX_ORDERER_FRAME, MAX_PEER_FRAME,
};
use bcrdb_node::{Node, NodeConfig, NodeHooks};
use bcrdb_ordering::service::orderer_identity;
use bcrdb_ordering::tcp::serve_orderer;
use bcrdb_ordering::{OrdererWire, OrderingConfig, OrderingService};
use bcrdb_txn::ssi::Flow;
use parking_lot::Mutex;

use crate::client::Client;
use crate::identity::{admin_identity, client_identity, peer_identity};
use crate::launch::{org_index, shutdown_all, Inbound, Launch, NodeProc, PeerSend, Planes};
use crate::network::await_nodes_height;
use crate::tcp::{serve_client_connection, PeerFrame};
use crate::transport::{Connection, NodeTransport};

/// How long a booting node waits for its orderer (and, on rejoin, at
/// least one peer) before giving up.
const LINK_WAIT: Duration = Duration::from_secs(30);

/// Genesis DDL used by the binaries and the TCP benchmark when no
/// schema file is given: the paper's *simple* evaluation contract
/// (single-row INSERT, Fig 9), matching `bcrdb-bench`'s default
/// workload.
pub const DEFAULT_GENESIS_SQL: &str = "\
    CREATE TABLE bench_simple (id INT PRIMARY KEY, f1 INT NOT NULL, \
        f2 INT NOT NULL, f3 TEXT NOT NULL, f4 FLOAT NOT NULL); \
    CREATE FUNCTION bench_tx(id INT, f1 INT, f2 INT, f3 TEXT, f4 FLOAT) AS $$ \
        INSERT INTO bench_simple VALUES ($1, $2, $3, $4, $5) $$";

// ------------------------------------------------------------- specs

/// Network-wide parameters every process of one deployment must agree
/// on. All identities derive from these fields plus deterministic
/// seeds, so each process reconstructs the same certificate registry
/// without any exchange.
#[derive(Clone)]
pub struct ClusterSpec {
    /// Participating organizations; each runs one database node, and
    /// the ordering service runs one orderer replica per organization.
    pub orgs: Vec<String>,
    /// Transaction flow (§3.3 vs §3.4).
    pub flow: Flow,
    /// Genesis DDL applied identically on every node before recovery.
    pub genesis_sql: Option<String>,
    /// Maximum transactions per block.
    pub block_size: usize,
    /// Maximum age of the oldest pending transaction before a block is
    /// cut anyway.
    pub block_timeout: Duration,
    /// Pre-registered bench users per organization (`bench0`,
    /// `bench1`, …— see [`ClusterSpec::bench_user`]): client
    /// certificates a load generator in another process can assume
    /// exist.
    pub bench_clients: usize,
    /// `fsync` each node's block store on append.
    pub fsync: bool,
    /// Signature scheme for every identity in the deployment.
    pub scheme: Scheme,
}

impl ClusterSpec {
    /// A spec with bench-friendly defaults: small blocks cut at 100 ms,
    /// 64 pre-registered bench users per org, simulated signatures, and
    /// the [`DEFAULT_GENESIS_SQL`] schema.
    pub fn new(orgs: &[&str], flow: Flow) -> ClusterSpec {
        ClusterSpec {
            orgs: orgs.iter().map(|s| s.to_string()).collect(),
            flow,
            genesis_sql: Some(DEFAULT_GENESIS_SQL.to_string()),
            block_size: 64,
            block_timeout: Duration::from_millis(100),
            bench_clients: 64,
            fsync: false,
            scheme: Scheme::Sim,
        }
    }

    /// The ordering-service configuration this spec implies: Kafka-style
    /// CFT with one orderer replica per organization (the paper's
    /// default deployment shape).
    pub fn ordering_config(&self) -> OrderingConfig {
        let mut cfg = OrderingConfig::kafka(self.orgs.len(), self.block_size, self.block_timeout);
        cfg.scheme = self.scheme;
        cfg
    }

    /// Name of the `i`-th pre-registered bench user (without the org
    /// prefix).
    pub fn bench_user(i: usize) -> String {
        format!("bench{i}")
    }

    /// Rebuild the deployment's certificate registry from deterministic
    /// seeds: per-org admins and peers, per-replica orderers, and
    /// `bench_clients` users per org. Every process calls this locally;
    /// the registries are identical by construction.
    pub fn certs(&self) -> Arc<CertificateRegistry> {
        let certs = CertificateRegistry::new();
        for org in &self.orgs {
            certs.register(admin_identity(org, self.scheme).1);
            certs.register(peer_identity(org).1);
            for i in 0..self.bench_clients {
                let user = ClusterSpec::bench_user(i);
                certs.register(client_identity(org, &user, self.scheme).1);
            }
        }
        for i in 0..self.orgs.len() {
            certs.register(orderer_identity(i, self.scheme).1);
        }
        certs
    }
}

/// Everything one node process needs beyond the [`ClusterSpec`]: which
/// organization it is, where it listens, and where everyone else is.
pub struct NodeSpec {
    /// This node's organization (must appear in `ClusterSpec::orgs`).
    pub org: String,
    /// Bound listener for the client plane (RPC frontend).
    pub client_listener: TcpListener,
    /// Bound listener for the peer plane.
    pub peer_listener: TcpListener,
    /// Peer-plane addresses of every *other* organization's node.
    pub peers: Vec<PeerAddr>,
    /// Address of this node's orderer replica.
    pub orderer_addr: String,
    /// Block store / snapshot directory (`None` keeps state in memory —
    /// such a node cannot survive a restart).
    pub data_dir: Option<PathBuf>,
    /// Disk-backed paged table storage: spill cold heap segments to
    /// slotted-page files under `<data_dir>/pages/` through a buffer
    /// pool of `pool_frames` 8 KB frames (see `NodeConfig::page_dir`).
    /// Requires `data_dir`.
    pub paged: bool,
    /// Buffer-pool capacity in 8 KB frames when `paged` (minimum 1).
    pub pool_frames: usize,
    /// Restart / late-join: catch up from peers during recovery before
    /// serving clients (§3.6). A fresh cluster boots with `false`.
    pub rejoin: bool,
}

// --------------------------------------------------- node processes

/// Writes one frame back on the socket a peer frame arrived on.
type SendBack = Arc<dyn Fn(&[u8]) + Send + Sync>;

/// One frame off a peer socket — an outbound link's or an accepted
/// connection's — into the shared handler. An undecodable frame is an
/// error, which severs the connection.
fn on_peer_frame(inbound: &Inbound, payload: &[u8], send_back: &SendBack) -> Result<()> {
    match PeerFrame::decode_all(payload)? {
        // A repeated Hello is harmless.
        PeerFrame::Hello { .. } => Ok(()),
        PeerFrame::Msg(msg) => inbound.handle(msg, || {
            let send_back = Arc::clone(send_back);
            Box::new(move |resp| send_back(&resp.encode_to_vec()))
        }),
    }
}

/// One accepted peer connection, until it ends or the node stops.
fn serve_peer_connection(inbound: &Inbound, stream: TcpStream, stop: &AtomicBool) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Mutex::new(write_half);
    let send_back: SendBack =
        Arc::new(move |bytes| drop(write_frame(&mut *writer.lock(), bytes, MAX_PEER_FRAME)));
    let stopped = || stop.load(Ordering::Relaxed);
    let _ = read_frames(&mut &stream, MAX_PEER_FRAME, stopped, |payload| {
        on_peer_frame(inbound, &payload, &send_back)
    });
    let _ = stream.shutdown(Shutdown::Both);
}

fn await_link(up: impl Fn() -> bool, what: &str) -> Result<()> {
    let deadline = Instant::now() + LINK_WAIT;
    while !up() {
        if Instant::now() >= deadline {
            return Err(Error::Timeout(format!(
                "no connection to {what} within {LINK_WAIT:?}"
            )));
        }
        thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// Launch one organization's node over TCP: what the socket deployment
/// supplies to the shared recipe (`Launch::run`). Peer traffic travels
/// one reconnecting link per other organization plus the peer listener,
/// the ordering service is reached over a link to this node's orderer
/// replica, and clients are served on the client listener.
pub fn run_node_process(cluster: &ClusterSpec, spec: NodeSpec) -> Result<NodeProc> {
    let node_name = peer_endpoint(&spec.org);
    let mut cfg = NodeConfig::new(node_name.clone(), spec.org.clone(), cluster.flow);
    cfg.fsync = cluster.fsync;
    cfg.data_dir = spec.data_dir.clone();
    if spec.paged {
        cfg.page_dir = spec.data_dir.as_ref().map(|d| d.join("pages"));
        cfg.buffer_pool_frames = spec.pool_frames.max(1);
    }

    let orderer = ReconnectingLink::new(spec.orderer_addr.clone(), MAX_ORDERER_FRAME);
    let (mut links, mut peers) = (Vec::new(), Vec::new());
    for peer in &spec.peers {
        let link = ReconnectingLink::new(peer.addr.clone(), MAX_PEER_FRAME);
        links.push((peer.org.clone(), Arc::clone(&link)));
        // A `PeerFrame::Msg` is encoded exactly as its `PeerMsg`.
        let send: PeerSend = Box::new(move |msg| link.send(&msg.encode_to_vec()));
        peers.push((peer.org.clone(), send));
    }

    let launch = Launch {
        cfg,
        certs: cluster.certs(),
        orgs: &cluster.orgs,
        genesis_sql: cluster.genesis_sql.as_deref(),
        peers,
        rejoin: spec.rejoin,
    };
    let (peer_listener, client_listener) = (spec.peer_listener, spec.client_listener);
    launch.run(
        |proc, inbound| {
            let (planes, stop) = (&proc.planes, || proc.planes.stop_flag());
            // Peer plane: the outbound links (their inbound direction
            // carries sync responses, mainly) and the accept loop.
            let hello = PeerFrame::Hello {
                org: spec.org.clone(),
            };
            for (org, link) in &links {
                let (inbound, reply_on) = (Arc::clone(&inbound), Arc::clone(link));
                let send_back: SendBack = Arc::new(move |bytes| drop(reply_on.send(bytes)));
                let on_frame =
                    move |payload: Vec<u8>| on_peer_frame(&inbound, &payload, &send_back);
                let name = format!("peer-dial:{org}");
                planes.own(link.dial(name, hello.encode_to_vec(), stop(), on_frame));
            }
            let (name, conn_inbound) = (format!("{node_name}-peer"), Arc::clone(&inbound));
            let serve = move |stream: TcpStream, stop: &AtomicBool| {
                serve_peer_connection(&conn_inbound, stream, stop)
            };
            planes.own(accept_loop(peer_listener, name, stop(), serve));

            // Ordering plane: the pushed block stream feeds the node's
            // block channel. Each reconnect resubscribes from the
            // replica's current block; the node's gap detection plus
            // peer catch-up heal whatever was missed.
            let hello = OrdererWire::Hello {
                node: node_name.clone(),
            };
            let name = format!("{node_name}-orderer-dial");
            let on_frame = move |payload: Vec<u8>| match OrdererWire::decode_all(&payload)? {
                OrdererWire::Block(block) => inbound.block(block),
                // Anything else from an orderer is a protocol
                // violation: sever, redial.
                _ => Err(Error::Decode("unexpected frame from an orderer".into())),
            };
            planes.own(orderer.dial(name, hello.encode_to_vec(), stop(), on_frame));

            // Without its orderer the node can neither submit nor
            // receive blocks; a rejoining node additionally needs
            // someone to sync from.
            await_link(|| orderer.is_up(), "orderer")?;
            if spec.rejoin && !links.is_empty() {
                await_link(|| links.iter().any(|(_, l)| l.is_up()), "any peer")?;
            }

            let (submit, vote) = (Arc::clone(&orderer), Arc::clone(&orderer));
            Ok(NodeHooks {
                submit_orderer: Some(Arc::new(move |tx: Transaction| {
                    submit.send(&OrdererWire::Submit(Box::new(tx)).encode_to_vec())
                })),
                submit_checkpoint: Some(Arc::new(move |v| {
                    drop(vote.send(&OrdererWire::Vote(v).encode_to_vec()))
                })),
                // The ordering service runs in another process; its
                // counters are in that process's metrics, not this
                // node's (`ordering_stats` stays unset).
                ..NodeHooks::default()
            })
        },
        |proc| {
            let (name, stop) = (format!("{node_name}-tcp"), proc.planes.stop_flag());
            let node = Arc::clone(proc.node());
            let serve = move |stream: TcpStream, stop: &AtomicBool| {
                serve_client_connection(Arc::clone(&node), stream, stop)
            };
            proc.planes
                .own(accept_loop(client_listener, name, stop, serve));
        },
    )
}

/// The ordering-service process: the full (in-process) consensus
/// backend plus one TCP listener per orderer replica.
pub struct OrderingProc {
    service: Arc<OrderingService>,
    planes: Planes,
}

impl OrderingProc {
    /// The running ordering service.
    pub fn service(&self) -> &Arc<OrderingService> {
        &self.service
    }

    /// Stop the consensus threads and the listeners; every listener
    /// thread and its connections are joined before this returns.
    pub fn shutdown(&self) {
        self.service.shutdown();
        self.planes.close();
    }
}

/// Start the ordering service with one bound TCP listener per orderer
/// replica (`listeners[i]` serves replica `i`). Consensus among the
/// replicas stays in-process — only the node-facing surface speaks TCP.
pub fn run_ordering_process(
    cluster: &ClusterSpec,
    listeners: Vec<TcpListener>,
) -> Result<OrderingProc> {
    let cfg = cluster.ordering_config();
    if listeners.len() != cfg.orderers {
        return Err(Error::Config(format!(
            "{} listeners for {} orderer replicas",
            listeners.len(),
            cfg.orderers
        )));
    }
    let service = OrderingService::start(cfg, &cluster.certs());
    let planes = Planes::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let (service, stop) = (Arc::clone(&service), planes.stop_flag());
        planes.own(serve_orderer(service, i, listener, stop));
    }
    Ok(OrderingProc { service, planes })
}

// ----------------------------------------------------- client side

/// Connect a client with the given user name to a node's client-plane
/// address over TCP. The key derives from the same deterministic seed
/// the node process registered at bootstrap, so only admins, bench
/// users (see [`ClusterSpec::bench_user`]) and on-chain-registered
/// users authenticate.
///
/// Each client carries its own nonce counter starting at 1: two live
/// clients for the *same* user would mint colliding transaction ids,
/// so give every connection its own user (the bench fleet does).
pub fn tcp_client(cluster: &ClusterSpec, org: &str, user: &str, addr: &str) -> Result<Client> {
    let (key, cert) = client_identity(org, user, cluster.scheme);
    let transport: Arc<dyn NodeTransport> = Arc::new(Connection::tcp(addr)?);
    Ok(Client::new(
        cert.name,
        Arc::new(key),
        cluster.flow,
        Arc::new(AtomicU64::new(1)),
        transport,
        1024,
    ))
}

/// Wait until every client's node reports committed *and* post-commit
/// height of at least `height` — the cross-process equivalent of
/// `Network::await_height`, polled over the Metrics RPC.
pub fn await_height_tcp(clients: &[Client], height: BlockHeight, timeout: Duration) -> Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        let mut heights = Vec::with_capacity(clients.len());
        let mut all = true;
        for c in clients {
            let m = c.node_metrics()?;
            all &= m.committed_height >= height && m.postcommit_height >= height;
            heights.push((m.committed_height, m.postcommit_height));
        }
        if all {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(Error::internal(format!(
                "timed out waiting for height {height}: nodes at \
                 (committed, post-commit) {heights:?}"
            )));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

// ------------------------------------------------------- utilities

static STOP_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn stop_on_signal(_sig: i32) {
    STOP_SIGNAL.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that flip a process-wide stop flag,
/// so the server binaries can shut down gracefully (`kill -TERM`) —
/// flush, close sockets, leave a cleanly resumable block store. On
/// non-Unix targets this returns the flag without installing handlers.
pub fn install_stop_signals() -> &'static AtomicBool {
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        signal(2, stop_on_signal); // SIGINT
        signal(15, stop_on_signal); // SIGTERM
    }
    &STOP_SIGNAL
}

// -------------------------------------------- in-process TCP cluster

/// A whole cluster — ordering service plus one node per organization —
/// in a single process, but connected through *real* localhost TCP
/// sockets on ephemeral ports. This is the harness for the TCP bench
/// phase and transport tests; multi-process deployments use the
/// `bcrdb-node` binary with the same [`run_node_process`] underneath.
pub struct TcpCluster {
    spec: ClusterSpec,
    ordering: OrderingProc,
    nodes: Vec<NodeProc>,
    client_addrs: Vec<String>,
}

/// `n` listeners on ephemeral localhost ports, with their addresses.
fn bind_local(n: usize) -> Result<(Vec<TcpListener>, Vec<String>)> {
    let io_err = |e: std::io::Error| Error::Io(e.to_string());
    let (mut listeners, mut addrs) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
        addrs.push(listener.local_addr().map_err(io_err)?.to_string());
        listeners.push(listener);
    }
    Ok((listeners, addrs))
}

impl TcpCluster {
    /// Bind ephemeral listeners for every plane, start the ordering
    /// process and one node per organization (fresh boot, no rejoin).
    /// With `data_root`, each node persists under `<root>/<org>/`.
    pub fn launch(spec: ClusterSpec, data_root: Option<PathBuf>) -> Result<TcpCluster> {
        let n = spec.orgs.len();
        let (ord_listeners, ord_addrs) = bind_local(n)?;
        let (peer_listeners, peer_addrs) = bind_local(n)?;
        let (client_listeners, client_addrs) = bind_local(n)?;
        let ordering = run_ordering_process(&spec, ord_listeners)?;
        let mut cluster = TcpCluster {
            spec,
            ordering,
            nodes: Vec::with_capacity(n),
            client_addrs,
        };
        let listeners = client_listeners.into_iter().zip(peer_listeners);
        for (i, (client_listener, peer_listener)) in listeners.enumerate() {
            let orgs = &cluster.spec.orgs;
            let others = orgs.iter().zip(&peer_addrs).filter(|(o, _)| **o != orgs[i]);
            let node_spec = NodeSpec {
                org: orgs[i].clone(),
                client_listener,
                peer_listener,
                peers: others
                    .map(|(org, addr)| PeerAddr {
                        org: org.clone(),
                        addr: addr.clone(),
                    })
                    .collect(),
                orderer_addr: ord_addrs[i].clone(),
                data_dir: data_root.as_ref().map(|r| r.join(&orgs[i])),
                paged: false,
                pool_frames: bcrdb_node::DEFAULT_POOL_FRAMES,
                rejoin: false,
            };
            // A partial launch is unwound like a complete one.
            let launched = run_node_process(&cluster.spec, node_spec);
            cluster
                .nodes
                .push(launched.inspect_err(|_| cluster.shutdown())?);
        }
        Ok(cluster)
    }

    /// The cluster's spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Client-plane addresses, in organization order.
    pub fn client_addrs(&self) -> &[String] {
        &self.client_addrs
    }

    /// The running ordering service.
    pub fn ordering(&self) -> &Arc<OrderingService> {
        self.ordering.service()
    }

    /// Node handles, in organization order (introspection: heights,
    /// hub waiter counts, state hashes).
    pub fn nodes(&self) -> Vec<Arc<Node>> {
        self.nodes.iter().map(|p| Arc::clone(p.node())).collect()
    }

    /// A TCP client for `user` connected to `org`'s node.
    pub fn client(&self, org: &str, user: &str) -> Result<Client> {
        let idx = org_index(&self.spec.orgs, org)?;
        tcp_client(&self.spec, org, user, &self.client_addrs[idx])
    }

    /// Wait until every node committed and post-committed `height`
    /// (in-process handles, no RPC).
    pub fn await_height(&self, height: BlockHeight, timeout: Duration) -> Result<()> {
        await_nodes_height(&self.nodes(), height, timeout)
    }

    /// Stop every node and the ordering service.
    pub fn shutdown(&self) {
        shutdown_all(&self.nodes);
        self.ordering.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_chain::ledger::TxStatus;

    #[test]
    fn cluster_certs_are_deterministic_and_complete() {
        let spec = ClusterSpec::new(&["org1", "org2"], Flow::OrderThenExecute);
        let a = spec.certs();
        let b = spec.certs();
        for name in [
            "org1/admin",
            "org2/admin",
            "org1/peer",
            "org2/peer",
            "ordering/orderer0",
            "ordering/orderer1",
            "org1/bench0",
            "org2/bench63",
        ] {
            let ca = a.lookup(name).unwrap_or_else(|| panic!("missing {name}"));
            let cb = b.lookup(name).expect("second registry");
            assert_eq!(ca.public_key.to_bytes(), cb.public_key.to_bytes());
        }
    }

    /// Both deployments are one recipe: the same identities, and the same
    /// decision about who to catch up from.
    #[test]
    fn sim_and_tcp_deployments_agree() {
        use crate::{Network, NetworkConfig};

        // The same orgs and scheme register byte-equal public keys.
        let orgs = ["org1", "org2"];
        let spec = ClusterSpec::new(&orgs, Flow::OrderThenExecute);
        let mut cfg = NetworkConfig::quick(&orgs, Flow::OrderThenExecute);
        cfg.ordering = spec.ordering_config();
        let net = Network::build(cfg).unwrap();
        net.client("org1", "bench0").unwrap();
        let tcp_certs = spec.certs();
        for name in [
            "org1/admin",
            "org1/peer",
            "org1/bench0",
            "ordering/orderer0",
        ] {
            let sim = net.certs().lookup(name).expect(name);
            let tcp = tcp_certs.lookup(name).expect(name);
            assert_eq!(
                sim.public_key.to_bytes(),
                tcp.public_key.to_bytes(),
                "{name}"
            );
            assert_eq!((sim.org, sim.role), (tcp.org, tcp.role), "{name}");
        }
        net.shutdown();

        // A single-organization deployment has nobody to sync from, so
        // `sync_fetch` stays unset: catch-up is a no-op, where a hook
        // over an empty peer list would fail with "no peers".
        let alone = ["org1"];
        let net = Network::build(NetworkConfig::quick(&alone, Flow::OrderThenExecute)).unwrap();
        let cluster =
            TcpCluster::launch(ClusterSpec::new(&alone, Flow::OrderThenExecute), None).unwrap();
        for node in net.nodes().iter().chain(&cluster.nodes()) {
            assert_eq!(node.catch_up(false).unwrap().rounds, 0);
        }
        net.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn tcp_cluster_commits_over_real_sockets() {
        let spec = ClusterSpec::new(&["org1", "org2", "org3"], Flow::OrderThenExecute);
        let cluster = TcpCluster::launch(spec, None).expect("launch");
        let client = cluster.client("org1", "bench0").expect("client");
        let n = client
            .call("bench_tx")
            .arg(1i64)
            .arg(2i64)
            .arg(3i64)
            .arg("payload")
            .arg(4.5f64)
            .submit_wait(Duration::from_secs(30))
            .expect("commit over TCP");
        assert!(matches!(n.status, TxStatus::Committed));
        cluster
            .await_height(n.block, Duration::from_secs(30))
            .expect("all nodes converge");

        // Every node sees the row, over its own TCP connection.
        for (i, org) in ["org1", "org2", "org3"].iter().enumerate() {
            let c = tcp_client(
                cluster.spec(),
                org,
                &ClusterSpec::bench_user(1),
                &cluster.client_addrs()[i],
            )
            .expect("reader client");
            let f1: i64 = c
                .select("SELECT f1 FROM bench_simple WHERE id = $1")
                .bind(1i64)
                .fetch_scalar()
                .expect("row visible");
            assert_eq!(f1, 2);
        }
        cluster.shutdown();
    }
}
