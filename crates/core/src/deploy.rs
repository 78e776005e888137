//! Real-TCP deployment: wire one organization's node — or the ordering
//! service — into a cluster of separate OS processes connected by
//! length-prefixed canonical-codec frames over localhost or a real
//! network.
//!
//! This module is the process-granular sibling of [`crate::network`]:
//! [`run_node_process`] replicates `launch_node`'s wiring recipe exactly
//! (certificates from deterministic seeds, bootstrap, peer dispatch,
//! orderer relay, outbound hooks, recovery ordering, block processor,
//! client frontend — in that order), but every arrow that used to be a
//! [`bcrdb_network::SimNetwork`] send is a TCP socket:
//!
//! * **peer plane** — every node listens on its peer address and dials
//!   every other organization once, with reconnect-and-backoff. The
//!   outbound link carries forwarded transactions and catch-up requests;
//!   the serving side answers sync requests on whichever socket they
//!   arrived on (off-thread, so a snapshot transfer never stalls
//!   dispatch).
//! * **ordering plane** — one TCP listener per orderer replica
//!   ([`run_ordering_process`]); a node dials its replica, identifies
//!   itself, streams submissions and checkpoint votes up and receives
//!   the block stream down. A reconnect resubscribes from the current
//!   block; anything missed in between is healed by the node's normal
//!   delivery-gap catch-up.
//! * **client plane** — [`crate::tcp::serve_client_tcp`], started only
//!   after recovery so clients never reach a stale replica.
//!
//! Every identity (admins, peers, orderers, bench users) derives from a
//! deterministic seed, so each process rebuilds the same certificate
//! registry locally — nothing secret crosses the wire at bootstrap,
//! mirroring the out-of-band certificate distribution of §3.7.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bcrdb_chain::block::Block;
use bcrdb_chain::sync::SyncRequest;
use bcrdb_chain::tx::Transaction;
use bcrdb_common::codec::{Decode, Encode};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;
use bcrdb_crypto::identity::{Certificate, CertificateRegistry, KeyPair, Role, Scheme};
use bcrdb_network::wire::{
    peer_endpoint, read_frame, write_frame, FrameEvent, PeerAddr, MAX_ORDERER_FRAME, MAX_PEER_FRAME,
};
use bcrdb_node::{Node, NodeConfig, NodeHooks};
use bcrdb_ordering::tcp::serve_orderer;
use bcrdb_ordering::{OrdererWire, OrderingConfig, OrderingService};
use bcrdb_txn::ssi::Flow;
use crossbeam_channel::{unbounded, Sender};
use parking_lot::Mutex;

use crate::client::Client;
use crate::network::{apply_bootstrap_sql, await_nodes_height, PeerMsg, PeerSend, SyncClient};
use crate::system;
use crate::tcp::{configure_stream, serve_client_tcp, PeerFrame, POLL};
use crate::transport::{Connection, NodeTransport};

/// First reconnect delay of a dialer; doubles per failure up to
/// [`DIAL_BACKOFF_MAX`].
const DIAL_BACKOFF_MIN: Duration = Duration::from_millis(100);

/// Reconnect backoff ceiling.
const DIAL_BACKOFF_MAX: Duration = Duration::from_secs(2);

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
            let name = format!("{org}/admin");
            let key = KeyPair::generate(
                name.clone(),
                format!("admin-seed-{org}").as_bytes(),
                self.scheme,
            );
            certs.register(Certificate {
                name,
                org: org.clone(),
                role: Role::Admin,
                public_key: key.public_key(),
            });
            let peer = peer_endpoint(org);
            let key = KeyPair::generate(
                peer.clone(),
                format!("peer-seed-{org}").as_bytes(),
                Scheme::Sim,
            );
            certs.register(Certificate {
                name: peer,
                org: org.clone(),
                role: Role::Peer,
                public_key: key.public_key(),
            });
            for i in 0..self.bench_clients {
                let name = format!("{org}/{}", ClusterSpec::bench_user(i));
                let key = KeyPair::generate(
                    name.clone(),
                    format!("client-seed-{name}").as_bytes(),
                    self.scheme,
                );
                certs.register(Certificate {
                    name: name.clone(),
                    org: org.clone(),
                    role: Role::Client,
                    public_key: key.public_key(),
                });
            }
        }
        // Must mirror `OrderingService::start`'s registration exactly,
        // or nodes reject every block signature.
        for i in 0..self.orgs.len() {
            let name = bcrdb_ordering::service::orderer_name(i);
            let key = KeyPair::generate(
                name.clone(),
                format!("orderer-seed-{i}").as_bytes(),
                self.scheme,
            );
            certs.register(Certificate {
                name,
                org: "ordering".into(),
                role: Role::Orderer,
                public_key: key.public_key(),
            });
        }
        certs
    }

    fn org_index(&self, org: &str) -> Result<usize> {
        self.orgs
            .iter()
            .position(|o| o == org)
            .ok_or_else(|| Error::NotFound(format!("organization {org}")))
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
    /// Defaults from `BCRDB_POOL_FRAMES` (unset = 1024).
    pub pool_frames: usize,
    /// Restart / late-join: catch up from peers during recovery before
    /// serving clients (§3.6). A fresh cluster boots with `false`.
    pub rejoin: bool,
}

// ------------------------------------------------------- peer plane

/// The writer half of one outbound peer link. `None` while the dialer
/// is reconnecting; sends fail fast instead of queueing into the void.
struct PeerLink {
    org: String,
    addr: String,
    writer: Mutex<Option<TcpStream>>,
    up: AtomicBool,
}

impl PeerLink {
    fn send(&self, frame: &PeerFrame) -> Result<()> {
        let bytes = frame.encode_to_vec();
        let mut guard = self.writer.lock();
        let Some(stream) = guard.as_mut() else {
            return Err(Error::Io(format!("peer link to {} is down", self.org)));
        };
        if let Err(e) = write_frame(stream, &bytes, MAX_PEER_FRAME) {
            let _ = stream.shutdown(Shutdown::Both);
            *guard = None;
            self.up.store(false, Ordering::Relaxed);
            return Err(e);
        }
        Ok(())
    }
}

/// Reply channel for frames that answer in place (sync responses go
/// back on whichever socket the request arrived on).
type PeerReply = Arc<dyn Fn(PeerFrame) -> Result<()> + Send + Sync>;

/// Route one inbound peer frame exactly like `launch_node`'s dispatch
/// thread routes [`PeerMsg`]s. Returns `false` when the connection can
/// no longer be trusted and must be severed.
fn handle_peer_frame(
    frame: PeerFrame,
    node: &Arc<Node>,
    block_tx: &Sender<Arc<Block>>,
    sync: &Arc<SyncClient>,
    reply: &PeerReply,
) -> bool {
    match frame {
        // A repeated Hello is harmless.
        PeerFrame::Hello { .. } => true,
        PeerFrame::Msg(PeerMsg::Tx(tx)) => {
            node.on_peer_tx(*tx);
            true
        }
        PeerFrame::Msg(PeerMsg::Block(b)) => block_tx.send(b).is_ok(),
        PeerFrame::Msg(PeerMsg::SyncRequest { seq, req }) => {
            // Serve off-thread: a large batch or snapshot must not
            // stall transaction/block dispatch on this connection.
            let node = Arc::clone(node);
            let reply = Arc::clone(reply);
            thread::Builder::new()
                .name(format!("{}-sync-serve", node.config.name))
                .spawn(move || {
                    let resp = Arc::new(node.serve_sync(&req));
                    let _ = reply(PeerFrame::Msg(PeerMsg::SyncResponse { seq, resp }));
                })
                .is_ok()
        }
        PeerFrame::Msg(PeerMsg::SyncResponse { seq, resp }) => {
            sync.deliver(seq, &resp);
            true
        }
    }
}

/// Maintain one outbound peer link: dial with exponential backoff, send
/// `Hello`, publish the writer half, then read frames (sync responses,
/// mainly) until the socket dies — and start over.
fn spawn_peer_dialer(
    link: Arc<PeerLink>,
    my_org: String,
    node: Arc<Node>,
    block_tx: Sender<Arc<Block>>,
    sync: Arc<SyncClient>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name(format!("peer-dial:{}", link.org))
        .spawn(move || {
            let reply: PeerReply = {
                let link = Arc::clone(&link);
                Arc::new(move |f| link.send(&f))
            };
            let mut backoff = DIAL_BACKOFF_MIN;
            while !stop.load(Ordering::Relaxed) {
                let Ok(stream) = TcpStream::connect(&link.addr) else {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
                    continue;
                };
                configure_stream(&stream);
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                *link.writer.lock() = Some(write_half);
                if link
                    .send(&PeerFrame::Hello {
                        org: my_org.clone(),
                    })
                    .is_err()
                {
                    continue;
                }
                link.up.store(true, Ordering::Relaxed);
                backoff = DIAL_BACKOFF_MIN;
                let mut reader = stream;
                while !stop.load(Ordering::Relaxed) {
                    match read_frame(&mut reader, MAX_PEER_FRAME) {
                        Ok(FrameEvent::Frame(payload)) => match PeerFrame::decode_all(&payload) {
                            Ok(f) => {
                                if !handle_peer_frame(f, &node, &block_tx, &sync, &reply) {
                                    break;
                                }
                            }
                            Err(_) => break,
                        },
                        Ok(FrameEvent::Idle) => continue,
                        Ok(FrameEvent::Eof) | Err(_) => break,
                    }
                }
                link.up.store(false, Ordering::Relaxed);
                *link.writer.lock() = None;
                let _ = reader.shutdown(Shutdown::Both);
            }
        })
        .expect("spawn peer dialer")
}

/// Accept loop of the peer plane: one handler thread per inbound
/// connection, routing frames through [`handle_peer_frame`] and
/// answering sync requests on the same socket.
fn spawn_peer_acceptor(
    listener: TcpListener,
    node: Arc<Node>,
    block_tx: Sender<Arc<Block>>,
    sync: Arc<SyncClient>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    let name = node.config.name.clone();
    thread::Builder::new()
        .name(format!("{name}-peer-accept"))
        .spawn(move || {
            listener
                .set_nonblocking(true)
                .expect("listener nonblocking");
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let node = Arc::clone(&node);
                        let block_tx = block_tx.clone();
                        let sync = Arc::clone(&sync);
                        let stop = Arc::clone(&stop);
                        let _ = thread::Builder::new()
                            .name(format!("{}-peer-conn", node.config.name))
                            .spawn(move || {
                                serve_peer_connection(node, block_tx, sync, stream, stop)
                            });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(POLL),
                    Err(_) => thread::sleep(POLL),
                }
            }
        })
        .expect("spawn peer accept loop")
}

fn serve_peer_connection(
    node: Arc<Node>,
    block_tx: Sender<Arc<Block>>,
    sync: Arc<SyncClient>,
    stream: TcpStream,
    stop: Arc<AtomicBool>,
) {
    configure_stream(&stream);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let reply: PeerReply = {
        let writer = Arc::clone(&writer);
        Arc::new(move |f| write_frame(&mut *writer.lock(), &f.encode_to_vec(), MAX_PEER_FRAME))
    };
    let mut reader = stream;
    while !stop.load(Ordering::Relaxed) {
        match read_frame(&mut reader, MAX_PEER_FRAME) {
            Ok(FrameEvent::Frame(payload)) => match PeerFrame::decode_all(&payload) {
                Ok(f) => {
                    if !handle_peer_frame(f, &node, &block_tx, &sync, &reply) {
                        break;
                    }
                }
                Err(_) => break,
            },
            Ok(FrameEvent::Idle) => continue,
            Ok(FrameEvent::Eof) | Err(_) => break,
        }
    }
    let _ = reader.shutdown(Shutdown::Both);
}

// --------------------------------------------------- ordering plane

/// Writer half of the node's link to its orderer replica; same
/// fail-fast-while-down discipline as [`PeerLink`].
struct OrdererLink {
    addr: String,
    writer: Mutex<Option<TcpStream>>,
    up: AtomicBool,
}

impl OrdererLink {
    fn send(&self, msg: &OrdererWire) -> Result<()> {
        let bytes = msg.encode_to_vec();
        let mut guard = self.writer.lock();
        let Some(stream) = guard.as_mut() else {
            return Err(Error::Io(format!("orderer link to {} is down", self.addr)));
        };
        if let Err(e) = write_frame(stream, &bytes, MAX_ORDERER_FRAME) {
            let _ = stream.shutdown(Shutdown::Both);
            *guard = None;
            self.up.store(false, Ordering::Relaxed);
            return Err(e);
        }
        Ok(())
    }
}

/// Maintain the orderer link: dial with backoff, identify with `Hello`,
/// feed the pushed block stream into the node's block channel. Each
/// reconnect resubscribes from the replica's current block; the node's
/// gap detection plus peer catch-up heal whatever was missed.
fn spawn_orderer_dialer(
    link: Arc<OrdererLink>,
    node_name: String,
    block_tx: Sender<Arc<Block>>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name(format!("{node_name}-orderer-dial"))
        .spawn(move || {
            let mut backoff = DIAL_BACKOFF_MIN;
            while !stop.load(Ordering::Relaxed) {
                let Ok(stream) = TcpStream::connect(&link.addr) else {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
                    continue;
                };
                configure_stream(&stream);
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                *link.writer.lock() = Some(write_half);
                if link
                    .send(&OrdererWire::Hello {
                        node: node_name.clone(),
                    })
                    .is_err()
                {
                    continue;
                }
                link.up.store(true, Ordering::Relaxed);
                backoff = DIAL_BACKOFF_MIN;
                let mut reader = stream;
                while !stop.load(Ordering::Relaxed) {
                    match read_frame(&mut reader, MAX_ORDERER_FRAME) {
                        Ok(FrameEvent::Frame(payload)) => {
                            match OrdererWire::decode_all(&payload) {
                                Ok(OrdererWire::Block(b)) => {
                                    if block_tx.send(b).is_err() {
                                        return; // node shut down
                                    }
                                }
                                // Anything else from an orderer is a
                                // protocol violation: sever, redial.
                                _ => break,
                            }
                        }
                        Ok(FrameEvent::Idle) => continue,
                        Ok(FrameEvent::Eof) | Err(_) => break,
                    }
                }
                link.up.store(false, Ordering::Relaxed);
                *link.writer.lock() = None;
                let _ = reader.shutdown(Shutdown::Both);
            }
        })
        .expect("spawn orderer dialer")
}

// --------------------------------------------------- node processes

/// A running node process: the node plus its accept loops and dialers.
pub struct NodeProc {
    node: Arc<Node>,
    stop: Arc<AtomicBool>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl NodeProc {
    /// The node itself (metrics, heights, hub introspection).
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Stop everything: node threads, accept loops, dialers, and —
    /// through the shared stop flag — every per-connection worker.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.node.shutdown();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
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

/// Construct, wire up and start one organization's node over TCP —
/// the process-granular equivalent of the simulated deployment's
/// `launch_node`, with the identical recovery ordering: certificates
/// and bootstrap first, peer plane and orderer link before recovery
/// (so blocks delivered during catch-up queue instead of being lost),
/// the client frontend only after the node is caught up.
pub fn run_node_process(cluster: &ClusterSpec, spec: NodeSpec) -> Result<NodeProc> {
    cluster.org_index(&spec.org)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let certs = cluster.certs();
    let node_name = peer_endpoint(&spec.org);

    let mut cfg = NodeConfig::new(node_name.clone(), spec.org.clone(), cluster.flow);
    cfg.fsync = cluster.fsync;
    cfg.data_dir = spec.data_dir.clone();
    if spec.paged {
        cfg.page_dir = spec.data_dir.as_ref().map(|d| d.join("pages"));
        cfg.buffer_pool_frames = spec.pool_frames.max(1);
    }
    let node = Node::new(cfg, Arc::clone(&certs), cluster.orgs.clone())?;
    system::bootstrap_node(&node)?;
    if let Some(genesis) = &cluster.genesis_sql {
        apply_bootstrap_sql(&node, genesis, cluster.flow)?;
    }

    let (block_tx, block_rx) = unbounded();

    // Peer plane: one outbound link per other organization, plus the
    // inbound accept loop — both up before recovery, like the sim
    // deployment registers its peer endpoint before recovering.
    let links: Vec<Arc<PeerLink>> = spec
        .peers
        .iter()
        .map(|p| {
            Arc::new(PeerLink {
                org: p.org.clone(),
                addr: p.addr.clone(),
                writer: Mutex::new(None),
                up: AtomicBool::new(false),
            })
        })
        .collect();
    let sync_peers = links
        .iter()
        .map(|link| {
            let org = link.org.clone();
            let link = Arc::clone(link);
            let send: PeerSend = Box::new(move |msg| link.send(&PeerFrame::Msg(msg)));
            (org, send)
        })
        .collect();
    let sync = Arc::new(SyncClient::new(sync_peers, 0));
    for link in &links {
        handles.push(spawn_peer_dialer(
            Arc::clone(link),
            spec.org.clone(),
            Arc::clone(&node),
            block_tx.clone(),
            Arc::clone(&sync),
            Arc::clone(&stop),
        ));
    }
    handles.push(spawn_peer_acceptor(
        spec.peer_listener,
        Arc::clone(&node),
        block_tx.clone(),
        Arc::clone(&sync),
        Arc::clone(&stop),
    ));

    // Ordering plane.
    let orderer = Arc::new(OrdererLink {
        addr: spec.orderer_addr.clone(),
        writer: Mutex::new(None),
        up: AtomicBool::new(false),
    });
    handles.push(spawn_orderer_dialer(
        Arc::clone(&orderer),
        node_name.clone(),
        block_tx.clone(),
        Arc::clone(&stop),
    ));

    // Unwind a partial launch on any failure from here on.
    let abort = |e: Error, handles: Vec<JoinHandle<()>>| {
        stop.store(true, Ordering::Relaxed);
        node.shutdown();
        for h in handles {
            let _ = h.join();
        }
        Err(e)
    };

    // Without its orderer the node can neither submit nor receive
    // blocks; a rejoining node additionally needs someone to sync from.
    if let Err(e) = await_link(|| orderer.up.load(Ordering::Relaxed), "orderer") {
        return abort(e, handles);
    }
    if spec.rejoin && !links.is_empty() {
        if let Err(e) = await_link(
            || links.iter().any(|l| l.up.load(Ordering::Relaxed)),
            "any peer",
        ) {
            return abort(e, handles);
        }
    }

    let hooks = NodeHooks {
        forward_tx: Some({
            let links = links.clone();
            Arc::new(move |tx: &Transaction| {
                let frame = PeerFrame::Msg(PeerMsg::Tx(Box::new(tx.clone())));
                for link in &links {
                    let _ = link.send(&frame);
                }
            })
        }),
        submit_orderer: Some({
            let orderer = Arc::clone(&orderer);
            Arc::new(move |tx: Transaction| orderer.send(&OrdererWire::Submit(Box::new(tx))))
        }),
        submit_checkpoint: Some({
            let orderer = Arc::clone(&orderer);
            Arc::new(move |vote| {
                let _ = orderer.send(&OrdererWire::Vote(vote));
            })
        }),
        sync_fetch: (!links.is_empty()).then(|| {
            let sync = Arc::clone(&sync);
            Arc::new(move |req: SyncRequest| sync.fetch(req)) as _
        }),
        // The ordering service runs in another process; its counters
        // are in that process's metrics, not this node's.
        ordering_stats: None,
    };
    let recovered = if spec.rejoin {
        node.set_hooks(hooks);
        node.recover()
    } else {
        node.set_hooks(NodeHooks {
            sync_fetch: None,
            ..hooks.clone()
        });
        let r = node.recover();
        node.set_hooks(hooks);
        r
    };
    if let Err(e) = recovered {
        return abort(e, handles);
    }
    node.start(block_rx);

    // Serve clients only now, after catch-up, so they never reach a
    // stale replica.
    handles.push(serve_client_tcp(
        Arc::clone(&node),
        spec.client_listener,
        Arc::clone(&stop),
    ));
    Ok(NodeProc {
        node,
        stop,
        handles: Mutex::new(handles),
    })
}

/// The ordering-service process: the full (in-process) consensus
/// backend plus one TCP listener per orderer replica.
pub struct OrderingProc {
    service: Arc<OrderingService>,
    stop: Arc<AtomicBool>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl OrderingProc {
    /// The running ordering service.
    pub fn service(&self) -> &Arc<OrderingService> {
        &self.service
    }

    /// Stop the listeners and the consensus threads.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.service.shutdown();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
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
    let certs = cluster.certs();
    let service = OrderingService::start(cfg, &certs);
    let stop = Arc::new(AtomicBool::new(false));
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| serve_orderer(Arc::clone(&service), i, l, Arc::clone(&stop)))
        .collect();
    Ok(OrderingProc {
        service,
        stop,
        handles: Mutex::new(handles),
    })
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
    let name = format!("{org}/{user}");
    let key = Arc::new(KeyPair::generate(
        name.clone(),
        format!("client-seed-{name}").as_bytes(),
        cluster.scheme,
    ));
    let transport: Arc<dyn NodeTransport> = Arc::new(Connection::tcp(addr)?);
    Ok(Client::new(
        name,
        key,
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

impl TcpCluster {
    /// Bind ephemeral listeners for every plane, start the ordering
    /// process and one node per organization (fresh boot, no rejoin).
    /// With `data_root`, each node persists under `<root>/<org>/`.
    pub fn launch(spec: ClusterSpec, data_root: Option<PathBuf>) -> Result<TcpCluster> {
        let io_err = |e: std::io::Error| Error::Io(e.to_string());
        let n = spec.orgs.len();
        let mut ord_listeners = Vec::with_capacity(n);
        for _ in 0..n {
            ord_listeners.push(TcpListener::bind("127.0.0.1:0").map_err(io_err)?);
        }
        let ord_addrs: Vec<String> = ord_listeners
            .iter()
            .map(|l| Ok(l.local_addr().map_err(io_err)?.to_string()))
            .collect::<Result<_>>()?;
        let ordering = run_ordering_process(&spec, ord_listeners)?;

        let mut peer_listeners = Vec::with_capacity(n);
        let mut client_listeners = Vec::with_capacity(n);
        for _ in 0..n {
            peer_listeners.push(TcpListener::bind("127.0.0.1:0").map_err(io_err)?);
            client_listeners.push(TcpListener::bind("127.0.0.1:0").map_err(io_err)?);
        }
        let peer_addrs: Vec<String> = peer_listeners
            .iter()
            .map(|l| Ok(l.local_addr().map_err(io_err)?.to_string()))
            .collect::<Result<_>>()?;
        let client_addrs: Vec<String> = client_listeners
            .iter()
            .map(|l| Ok(l.local_addr().map_err(io_err)?.to_string()))
            .collect::<Result<_>>()?;

        let mut nodes: Vec<NodeProc> = Vec::with_capacity(n);
        for ((i, org), (client_listener, peer_listener)) in spec
            .orgs
            .iter()
            .enumerate()
            .zip(client_listeners.into_iter().zip(peer_listeners))
        {
            let node_spec = NodeSpec {
                org: org.clone(),
                client_listener,
                peer_listener,
                peers: spec
                    .orgs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(j, o)| PeerAddr {
                        org: o.clone(),
                        addr: peer_addrs[j].clone(),
                    })
                    .collect(),
                orderer_addr: ord_addrs[i].clone(),
                data_dir: data_root.as_ref().map(|r| r.join(org)),
                paged: false,
                pool_frames: bcrdb_node::pool_frames_by_env(),
                rejoin: false,
            };
            match run_node_process(&spec, node_spec) {
                Ok(proc) => nodes.push(proc),
                Err(e) => {
                    for proc in &nodes {
                        proc.shutdown();
                    }
                    ordering.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(TcpCluster {
            spec,
            ordering,
            nodes,
            client_addrs,
        })
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
        let idx = self.spec.org_index(org)?;
        tcp_client(&self.spec, org, user, &self.client_addrs[idx])
    }

    /// Wait until every node committed and post-committed `height`
    /// (in-process handles, no RPC).
    pub fn await_height(&self, height: BlockHeight, timeout: Duration) -> Result<()> {
        await_nodes_height(&self.nodes(), height, timeout)
    }

    /// Stop every node and the ordering service.
    pub fn shutdown(&self) {
        for proc in &self.nodes {
            proc.shutdown();
        }
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
