//! Assembling a permissioned network (§3.7 "Network Bootstrapping"),
//! including the peer catch-up plumbing (§3.6): every node serves sync
//! requests from its block store over the peer network, and a lagging
//! node's `sync_fetch` hook round-robins those requests across its peers
//! with failover. [`Network::stop_node`]/[`Network::rejoin_node`] model
//! crash-restart and late join; [`Network::partition`]/[`Network::heal`]
//! model a network partition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::block::Block;
use bcrdb_chain::sync::{SyncRequest, SyncResponse};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;
use bcrdb_crypto::identity::{Certificate, CertificateRegistry, KeyPair, Role, Scheme};
use bcrdb_crypto::sha256::Digest;
use bcrdb_network::wire::framed_len;
use bcrdb_network::SimNetwork;
use bcrdb_node::{Node, NodeConfig, NodeHooks};
use bcrdb_ordering::OrderingService;
use bcrdb_sql::ast::Statement;
use bcrdb_sql::validate::DeterminismRules;
use bcrdb_txn::ssi::Flow;
use crossbeam_channel::{bounded, unbounded, Sender};
use parking_lot::{Mutex, RwLock};

use crate::client::Client;
use crate::config::NetworkConfig;
use crate::system;
use crate::transport::{self, Connection, InProcess, NodeTransport, SimClientMsg, TransportKind};

/// Messages between peers (and from the orderer relay to peers).
#[derive(Clone)]
pub enum PeerMsg {
    /// A forwarded transaction (EO flow middleware, §4.2).
    Tx(Box<Transaction>),
    /// A block from the ordering service.
    Block(Arc<Block>),
    /// A catch-up request from a lagging peer (§3.6).
    SyncRequest {
        /// Correlates the response with the requester's waiting call.
        seq: u64,
        /// The request.
        req: SyncRequest,
    },
    /// The answer to a [`PeerMsg::SyncRequest`].
    SyncResponse {
        /// The request's correlation number.
        seq: u64,
        /// The serving peer's response.
        resp: Arc<SyncResponse>,
    },
}

/// How long a catch-up round trip may take per peer before failing over
/// to the next one. Bounded by profile latency plus the transfer time of
/// one batch/snapshot, not by commit times.
const SYNC_RPC_TIMEOUT: Duration = Duration::from_secs(15);

/// How a [`SyncClient`] sends one message to one peer: a simulated
/// network send, or a write on that peer's TCP link.
pub(crate) type PeerSend = Box<dyn Fn(PeerMsg) -> Result<()> + Send + Sync>;

/// The requesting side of peer catch-up, for either deployment: sends
/// [`PeerMsg::SyncRequest`]s round-robin across the other organizations'
/// peers, failing over on timeout or send error. Whoever reads the
/// node's inbound peer traffic routes [`PeerMsg::SyncResponse`]s back
/// via [`SyncClient::deliver`].
pub(crate) struct SyncClient {
    /// The other organizations' peers: a name for error messages and the
    /// way to reach each.
    peers: Vec<(String, PeerSend)>,
    /// In-flight requests by correlation number.
    pending: Mutex<HashMap<u64, Sender<SyncResponse>>>,
    seq: AtomicU64,
    next_peer: AtomicUsize,
}

impl SyncClient {
    /// A client over `peers`, sending its first request to peer
    /// `first_peer` (modulo the peer count) so nodes spread their first
    /// requests around.
    pub(crate) fn new(peers: Vec<(String, PeerSend)>, first_peer: usize) -> SyncClient {
        SyncClient {
            peers,
            pending: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(1),
            next_peer: AtomicUsize::new(first_peer),
        }
    }

    pub(crate) fn fetch(&self, req: SyncRequest) -> Result<SyncResponse> {
        if self.peers.is_empty() {
            return Err(Error::NotFound("no peers to sync from".into()));
        }
        let start = self.next_peer.fetch_add(1, Ordering::Relaxed);
        let mut last_err = Error::Timeout("sync fetch never attempted".into());
        for i in 0..self.peers.len() {
            let (peer, send) = &self.peers[(start + i) % self.peers.len()];
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = bounded(1);
            self.pending.lock().insert(seq, tx);
            if let Err(e) = send(PeerMsg::SyncRequest { seq, req }) {
                self.pending.lock().remove(&seq);
                last_err = e;
                continue;
            }
            match rx.recv_timeout(SYNC_RPC_TIMEOUT) {
                Ok(resp) => return Ok(resp),
                Err(_) => {
                    self.pending.lock().remove(&seq);
                    last_err = Error::Timeout(format!(
                        "no sync response from {peer} within {SYNC_RPC_TIMEOUT:?}"
                    ));
                }
            }
        }
        Err(last_err)
    }

    pub(crate) fn deliver(&self, seq: u64, resp: &SyncResponse) {
        if let Some(tx) = self.pending.lock().remove(&seq) {
            let _ = tx.send(resp.clone());
        }
    }
}

/// Send `msg` over the simulated peer network, charged exactly the bytes
/// `write_frame` would put on a peer socket for it.
fn send_peer(net: &SimNetwork<PeerMsg>, from: &str, to: &str, msg: PeerMsg) -> Result<()> {
    let size = framed_len(&msg);
    net.send(from, to, msg, size)
}

/// The body of [`Network::await_height`] and `TcpCluster::await_height`.
pub(crate) fn await_nodes_height(
    nodes: &[Arc<Node>],
    height: BlockHeight,
    timeout: Duration,
) -> Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        if nodes
            .iter()
            .all(|n| n.height() >= height && n.postcommit_height() >= height)
        {
            return Ok(());
        }
        if Instant::now() >= deadline {
            let heights: Vec<(BlockHeight, BlockHeight)> = nodes
                .iter()
                .map(|n| (n.height(), n.postcommit_height()))
                .collect();
            return Err(Error::internal(format!(
                "timed out waiting for height {height}: nodes at \
                 (committed, post-commit) {heights:?}"
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

pub(crate) struct NetworkInner {
    pub config: NetworkConfig,
    pub certs: Arc<CertificateRegistry>,
    /// One node per organization, in `config.orgs` order. Behind a lock
    /// because [`Network::rejoin_node`] replaces a slot in place.
    pub nodes: RwLock<Vec<Arc<Node>>>,
    pub ordering: Arc<OrderingService>,
    pub peer_net: Arc<SimNetwork<PeerMsg>>,
    /// Client↔node RPC traffic (same profile as the peer network); every
    /// node's frontend is served here, for `TransportKind::Simulated` clients.
    pub client_net: Arc<SimNetwork<SimClientMsg>>,
    admins: Vec<Arc<KeyPair>>,
    clients: Mutex<HashMap<String, Arc<KeyPair>>>,
    /// OE nonce source shared by every client handle.
    pub nonce: Arc<AtomicU64>,
    /// Unique suffix for client transport endpoints.
    conn_seq: AtomicU64,
    /// Per-org kill switches for the orderer relay threads, so
    /// [`Network::stop_node`] can retire a relay (it exits at its next
    /// delivery without sending) and a rejoined node's fresh relay never
    /// duplicates block traffic.
    relay_stops: RelayStops,
}

/// See `NetworkInner::relay_stops`.
type RelayStops = Arc<Mutex<HashMap<String, Arc<AtomicBool>>>>;

/// A running permissioned network: one database node per organization, a
/// shared ordering service, and a simulated network in between.
pub struct Network {
    pub(crate) inner: Arc<NetworkInner>,
}

impl Network {
    /// Build and start the network.
    pub fn build(config: NetworkConfig) -> Result<Network> {
        if config.orgs.is_empty() {
            return Err(Error::Config(
                "a network needs at least one organization".into(),
            ));
        }
        let certs = CertificateRegistry::new();
        let mut ordering_cfg = config.ordering.clone();
        ordering_cfg.scheme = config.scheme;
        let ordering = OrderingService::start(ordering_cfg, &certs);
        let peer_net: Arc<SimNetwork<PeerMsg>> = SimNetwork::new(config.net_profile);
        let client_net: Arc<SimNetwork<SimClientMsg>> = SimNetwork::new(config.net_profile);

        // Per-org admins (their certificates are shared with every node at
        // startup, §3.7).
        let admins: Vec<Arc<KeyPair>> = config
            .orgs
            .iter()
            .map(|org| {
                let name = format!("{org}/admin");
                let key = Arc::new(KeyPair::generate(
                    name.clone(),
                    format!("admin-seed-{org}").as_bytes(),
                    config.scheme,
                ));
                certs.register(Certificate {
                    name,
                    org: org.clone(),
                    role: Role::Admin,
                    public_key: key.public_key(),
                });
                key
            })
            .collect();

        let relay_stops: RelayStops = Arc::new(Mutex::new(HashMap::new()));
        let mut nodes = Vec::with_capacity(config.orgs.len());
        for (i, org) in config.orgs.iter().enumerate() {
            // A fresh network has nothing to catch up on, and peers later
            // in the build order are not even registered yet — so recovery
            // here is local-only (`sync_on_recover: false`).
            nodes.push(launch_node(
                &config,
                org,
                i,
                &certs,
                &ordering,
                &peer_net,
                &client_net,
                &relay_stops,
                false,
            )?);
        }

        Ok(Network {
            inner: Arc::new(NetworkInner {
                config,
                certs,
                nodes: RwLock::new(nodes),
                ordering,
                peer_net,
                client_net,
                admins,
                clients: Mutex::new(HashMap::new()),
                nonce: Arc::new(AtomicU64::new(1)),
                conn_seq: AtomicU64::new(1),
                relay_stops,
            }),
        })
    }

    /// A second handle to the same running network (cheap: the network is
    /// internally reference-counted). Used by tooling and benchmarks.
    pub fn handle(&self) -> Network {
        Network {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.inner.config
    }

    /// The certificate registry shared by all nodes.
    pub fn certs(&self) -> &Arc<CertificateRegistry> {
        &self.inner.certs
    }

    /// The ordering service.
    pub fn ordering(&self) -> &Arc<OrderingService> {
        &self.inner.ordering
    }

    /// The database node of `org`.
    pub fn node(&self, org: &str) -> Result<Arc<Node>> {
        let idx = self.org_index(org)?;
        Ok(Arc::clone(&self.inner.nodes.read()[idx]))
    }

    /// All nodes, in organization order (a snapshot: rejoined nodes
    /// replace their slot, so re-read after [`Network::rejoin_node`]).
    pub fn nodes(&self) -> Vec<Arc<Node>> {
        self.inner.nodes.read().clone()
    }

    /// Stop `org`'s node, simulating a crash: the node's processing
    /// threads wind down and its peer- and client-network endpoints
    /// vanish (sends to them fail; the orderer relay stops). The block
    /// store and state snapshot on disk — if the network is persistent —
    /// are left exactly as the crash left them. Restart with
    /// [`Network::rejoin_node`].
    pub fn stop_node(&self, org: &str) -> Result<()> {
        let node = self.node(org)?;
        node.shutdown();
        if let Some(stop) = self.inner.relay_stops.lock().get(org) {
            stop.store(true, Ordering::Relaxed);
        }
        self.inner.peer_net.unregister(&node.config.name);
        self.inner
            .client_net
            .unregister(&transport::frontend_endpoint(&node.config.name));
        Ok(())
    }

    /// Restart `org`'s node after [`Network::stop_node`] (§3.6): reopen
    /// its block store and snapshot (empty for a late joiner), replay
    /// locally, then catch up from peers — fetching missing blocks, or a
    /// fast-sync snapshot when far enough behind — before serving
    /// clients. Returns the caught-up node; existing in-process client
    /// handles keep pointing at the stopped instance, so obtain fresh
    /// clients after a rejoin.
    pub fn rejoin_node(&self, org: &str) -> Result<Arc<Node>> {
        let idx = self.org_index(org)?;
        let node = launch_node(
            &self.inner.config,
            org,
            idx,
            &self.inner.certs,
            &self.inner.ordering,
            &self.inner.peer_net,
            &self.inner.client_net,
            &self.inner.relay_stops,
            true,
        )?;
        self.inner.nodes.write()[idx] = Arc::clone(&node);
        Ok(node)
    }

    /// Cut `org`'s node off the peer network (partition): blocks,
    /// forwarded transactions and sync traffic to or from it are dropped
    /// silently while senders keep succeeding. The node itself keeps
    /// running. Undo with [`Network::heal`], after which the node's
    /// block processor detects the delivery gap and catches up from
    /// peers.
    pub fn partition(&self, org: &str) -> Result<()> {
        let node = self.node(org)?;
        self.inner.peer_net.set_partitioned(&node.config.name, true);
        Ok(())
    }

    /// Reconnect a [`Network::partition`]ed node.
    pub fn heal(&self, org: &str) -> Result<()> {
        let node = self.node(org)?;
        self.inner
            .peer_net
            .set_partitioned(&node.config.name, false);
        Ok(())
    }

    /// Crash orderer replica `idx` (BFT ordering backend only). The
    /// remaining replicas install a new view once pending work goes
    /// unserved for the configured `view_change_timeout`, and peers
    /// subscribed to the dead orderer are re-homed to a live one — any
    /// delivery gap at the splice point is healed by the node-level peer
    /// catch-up.
    pub fn stop_orderer(&self, idx: usize) -> Result<()> {
        self.inner.ordering.stop_orderer(idx)
    }

    /// Stall orderer replica `idx` (BFT only): alive but unresponsive —
    /// a hung leader. Undo with [`Network::unstall_orderer`].
    pub fn stall_orderer(&self, idx: usize) -> Result<()> {
        self.inner.ordering.stall_orderer(idx)
    }

    /// Resume a stalled orderer replica.
    pub fn unstall_orderer(&self, idx: usize) -> Result<()> {
        self.inner.ordering.unstall_orderer(idx)
    }

    fn org_index(&self, org: &str) -> Result<usize> {
        self.inner
            .config
            .orgs
            .iter()
            .position(|o| o == org)
            .ok_or_else(|| Error::NotFound(format!("organization {org}")))
    }

    /// Open a transport connection to the node at `idx`.
    fn connect(&self, idx: usize, kind: TransportKind, who: &str) -> Arc<dyn NodeTransport> {
        let node = Arc::clone(&self.inner.nodes.read()[idx]);
        match kind {
            TransportKind::InProcess => Arc::new(InProcess::new(node)),
            TransportKind::Simulated => {
                let seq = self.inner.conn_seq.fetch_add(1, Ordering::Relaxed);
                let server = transport::frontend_endpoint(&node.config.name);
                Arc::new(Connection::simulated(
                    Arc::clone(&self.inner.client_net),
                    server,
                    format!("client:{who}#{seq}"),
                ))
            }
        }
    }

    fn make_client(
        &self,
        idx: usize,
        name: String,
        key: Arc<KeyPair>,
        kind: TransportKind,
    ) -> Client {
        let transport = self.connect(idx, kind, &name);
        Client::new(
            name,
            key,
            self.inner.config.flow,
            Arc::clone(&self.inner.nonce),
            transport,
            self.inner.config.client_window,
        )
    }

    fn client_key(&self, org: &str, name: &str) -> Arc<KeyPair> {
        let mut clients = self.inner.clients.lock();
        if let Some(k) = clients.get(name) {
            Arc::clone(k)
        } else {
            let key = Arc::new(KeyPair::generate(
                name.to_string(),
                format!("client-seed-{name}").as_bytes(),
                self.inner.config.scheme,
            ));
            self.inner.certs.register(Certificate {
                name: name.to_string(),
                org: org.to_string(),
                role: Role::Client,
                public_key: key.public_key(),
            });
            clients.insert(name.to_string(), Arc::clone(&key));
            key
        }
    }

    /// Create (and register) a client user of `org`, connected through
    /// the configured default transport (`NetworkConfig::client_transport`).
    pub fn client(&self, org: &str, user: &str) -> Result<Client> {
        self.client_with_transport(org, user, self.inner.config.client_transport)
    }

    /// Like [`Network::client`], but with an explicit transport backend —
    /// e.g. a `TransportKind::Simulated` connection on a network whose
    /// default is in-process, to measure client-observed latency.
    pub fn client_with_transport(
        &self,
        org: &str,
        user: &str,
        kind: TransportKind,
    ) -> Result<Client> {
        let idx = self.org_index(org)?;
        let name = format!("{org}/{user}");
        let key = self.client_key(org, &name);
        Ok(self.make_client(idx, name, key, kind))
    }

    /// Attach a client whose certificate was registered *on-chain* via
    /// `create_usertx` (the key pair lives with the caller).
    pub fn attach_client(&self, org: &str, user: &str, key: Arc<KeyPair>) -> Result<Client> {
        let idx = self.org_index(org)?;
        Ok(self.make_client(
            idx,
            format!("{org}/{user}"),
            key,
            self.inner.config.client_transport,
        ))
    }

    /// The admin client of `org`.
    pub fn admin(&self, org: &str) -> Result<Client> {
        let idx = self.org_index(org)?;
        Ok(self.make_client(
            idx,
            format!("{org}/admin"),
            Arc::clone(&self.inner.admins[idx]),
            self.inner.config.client_transport,
        ))
    }

    /// Apply bootstrap DDL (tables, indexes, contracts) directly and
    /// identically on every node — the genesis schema setup of §3.7.
    /// Once transactions are flowing, use the deploy system contracts
    /// instead.
    pub fn bootstrap_sql(&self, sql: &str) -> Result<()> {
        for node in self.nodes() {
            apply_bootstrap_sql(&node, sql, self.inner.config.flow)?;
        }
        Ok(())
    }

    /// Run the full §3.7 deployment workflow for one DDL statement:
    /// `create_deploytx` by the first org's admin, `approve_deploytx` by
    /// every org's admin, then `submit_deploytx`. Returns when the deploy
    /// transaction commits (or fails). Retriable serialization failures
    /// (the EO flow can see phantom reads under concurrent traffic) are
    /// retried at a fresh snapshot height; between steps, every node is
    /// awaited up to the previous step's commit block — an EO submission
    /// executes at its *own node's* current height, so a step whose
    /// predecessor that node has not yet processed would otherwise abort
    /// deterministically ("lacks approvals") rather than retriably.
    pub fn deploy_contract(&self, deploy_id: i64, sql: &str) -> Result<()> {
        let timeout = Duration::from_secs(30);
        let first = self.admin(&self.inner.config.orgs[0].clone())?;
        let staged = first.submit_retrying(
            crate::session::Call::new("create_deploytx")
                .arg(deploy_id)
                .arg(sql),
            timeout,
        )?;
        self.await_height(staged.block, timeout)?;
        let mut approved = staged.block;
        for org in self.inner.config.orgs.clone() {
            let admin = self.admin(&org)?;
            let n = admin.submit_retrying(
                crate::session::Call::new("approve_deploytx").arg(deploy_id),
                timeout,
            )?;
            approved = approved.max(n.block);
        }
        self.await_height(approved, timeout)?;
        first.submit_retrying(
            crate::session::Call::new("submit_deploytx").arg(deploy_id),
            timeout,
        )?;
        Ok(())
    }

    /// Wait until every node committed at least `height` **and** finished
    /// its post-commit work for it (ledger records, checkpoint hashes,
    /// notifications — the pipelined stage 3 may trail the committed
    /// height by a few blocks), so callers can assert on ledger and
    /// checkpoint state immediately after this returns.
    pub fn await_height(&self, height: BlockHeight, timeout: Duration) -> Result<()> {
        await_nodes_height(&self.nodes(), height, timeout)
    }

    /// Per-node full-state hashes (ledger excluded). Equal on honest nodes
    /// at equal heights.
    pub fn state_hashes(&self) -> Vec<(String, Digest)> {
        self.nodes()
            .iter()
            .map(|n| (n.config.name.clone(), n.state_hash()))
            .collect()
    }

    /// A fresh nonce for OE transaction ids.
    pub fn next_nonce(&self) -> u64 {
        self.inner.nonce.fetch_add(1, Ordering::Relaxed)
    }

    /// Stop every component.
    pub fn shutdown(&self) {
        for n in self.nodes() {
            n.shutdown();
        }
        self.inner.ordering.shutdown();
        self.inner.peer_net.shutdown();
        self.inner.client_net.shutdown();
    }
}

// The peer-network endpoint name of `org`'s database node — shared
// with the TCP deployment via `bcrdb_network::wire`.
use bcrdb_network::wire::peer_endpoint;

/// Construct, wire up and start one organization's node: certificates,
/// bootstrap, peer-network dispatch (transactions, blocks, sync
/// requests/responses), the orderer relay, outbound hooks (including
/// `sync_fetch`), recovery, the block processor and the client-facing
/// RPC frontend.
///
/// With `sync_on_recover`, the `sync_fetch` hook is installed *before*
/// [`Node::recover`], so recovery replays the local store and then
/// catches up from peers to the network head — the crash-restart /
/// late-join path. Without it (fresh network build, where peers may not
/// exist yet), recovery is local-only and the hook is installed after.
#[allow(clippy::too_many_arguments)]
fn launch_node(
    config: &NetworkConfig,
    org: &str,
    idx: usize,
    certs: &Arc<CertificateRegistry>,
    ordering: &Arc<OrderingService>,
    peer_net: &Arc<SimNetwork<PeerMsg>>,
    client_net: &Arc<SimNetwork<SimClientMsg>>,
    relay_stops: &RelayStops,
    sync_on_recover: bool,
) -> Result<Arc<Node>> {
    let node_name = peer_endpoint(org);
    // Peer identity (used to attribute checkpoint votes). Deterministic
    // from the org seed, so a rejoining node keeps its identity.
    let peer_key = KeyPair::generate(
        node_name.clone(),
        format!("peer-seed-{org}").as_bytes(),
        Scheme::Sim,
    );
    certs.register(Certificate {
        name: node_name.clone(),
        org: org.to_string(),
        role: Role::Peer,
        public_key: peer_key.public_key(),
    });

    let mut node_cfg = NodeConfig::new(node_name.clone(), org.to_string(), config.flow);
    node_cfg.verify_signatures = config.verify_signatures;
    node_cfg.executor_threads = config.executor_threads;
    node_cfg.serial_execution = config.serial_execution;
    node_cfg.snapshot_interval = config.snapshot_interval;
    node_cfg.min_exec_micros = config.min_exec_micros;
    node_cfg.statement_cache_cap = config.statement_cache_cap;
    node_cfg.fsync = config.fsync;
    node_cfg.gap_timeout = config.gap_timeout;
    node_cfg.sync_batch = config.sync_batch;
    node_cfg.snapshot_lag_threshold = config.snapshot_lag_threshold;
    node_cfg.vacuum_interval = config.vacuum_interval;
    node_cfg.data_dir = config.data_root.as_ref().map(|root| root.join(org));
    if config.paged {
        node_cfg.page_dir = config
            .data_root
            .as_ref()
            .map(|root| root.join(org).join("pages"));
        node_cfg.buffer_pool_frames = config.buffer_pool_frames.max(1);
        node_cfg.spill_retention = config.spill_retention.max(1);
    }
    let node = Node::new(node_cfg, Arc::clone(certs), config.orgs.clone())?;
    system::bootstrap_node(&node)?;
    if let Some(genesis) = &config.genesis_sql {
        apply_bootstrap_sql(&node, genesis, config.flow)?;
    }

    let sync_peers = config
        .orgs
        .iter()
        .filter(|o| o.as_str() != org)
        .map(|o| {
            let (net, me, peer) = (Arc::clone(peer_net), node_name.clone(), peer_endpoint(o));
            let name = peer.clone();
            let send: PeerSend = Box::new(move |msg| send_peer(&net, &me, &peer, msg));
            (name, send)
        })
        .collect();
    let sync_client = Arc::new(SyncClient::new(sync_peers, idx));

    // Inbound: peer network endpoint → dispatch to the node. Registered
    // before recovery so blocks delivered while we catch up queue on the
    // block channel instead of being lost.
    let net_rx = peer_net.register(node_name.clone());
    let (block_tx, block_rx) = unbounded();
    {
        let node = Arc::clone(&node);
        let peer_net = Arc::clone(peer_net);
        let sync_client = Arc::clone(&sync_client);
        let me = node_name.clone();
        std::thread::Builder::new()
            .name(format!("{node_name}-dispatch"))
            .spawn(move || {
                for delivered in net_rx.iter() {
                    match delivered.msg {
                        PeerMsg::Tx(tx) => node.on_peer_tx(*tx),
                        PeerMsg::Block(b) => {
                            if block_tx.send(b).is_err() {
                                return;
                            }
                        }
                        PeerMsg::SyncRequest { seq, req } => {
                            // Serve off-thread: a large batch or snapshot
                            // must not stall transaction/block dispatch.
                            let node = Arc::clone(&node);
                            let peer_net = Arc::clone(&peer_net);
                            let me = me.clone();
                            let to = delivered.from.clone();
                            std::thread::Builder::new()
                                .name(format!("{me}-sync-serve"))
                                .spawn(move || {
                                    let resp = Arc::new(node.serve_sync(&req));
                                    let _ = send_peer(
                                        &peer_net,
                                        &me,
                                        &to,
                                        PeerMsg::SyncResponse { seq, resp },
                                    );
                                })
                                .expect("spawn sync server thread");
                        }
                        PeerMsg::SyncResponse { seq, resp } => {
                            sync_client.deliver(seq, &resp);
                        }
                    }
                }
            })
            .expect("spawn dispatch thread");
    }

    // Orderer → peer relay, modeling delivery latency/bandwidth. The
    // stop flag retires a stopped node's relay at its next delivery
    // (without sending), so a rejoined node's fresh relay never
    // duplicates block traffic; the retired relay's dropped receiver is
    // then pruned from the ordering service's subscriber list.
    let relay_stop = Arc::new(AtomicBool::new(false));
    relay_stops
        .lock()
        .insert(org.to_string(), Arc::clone(&relay_stop));
    let orderer_rx = ordering.subscribe_to(idx);
    {
        let peer_net = Arc::clone(peer_net);
        let to = node_name.clone();
        let stop = Arc::clone(&relay_stop);
        std::thread::Builder::new()
            .name(format!("{to}-orderer-relay"))
            .spawn(move || {
                for block in orderer_rx.iter() {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let from = format!("orderer-gw-{idx}");
                    if send_peer(&peer_net, &from, &to, PeerMsg::Block(block)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn orderer relay");
    }

    // Outbound hooks.
    let hooks = NodeHooks {
        forward_tx: Some({
            let peer_net = Arc::clone(peer_net);
            let from = node_name.clone();
            let drop_permille = config.forward_drop_permille;
            Arc::new(move |tx: &Transaction| {
                // Deterministic pseudo-random drop keyed by the tx
                // id: simulates lossy/malicious forwarding; the
                // block processor executes these as missing txs.
                if drop_permille > 0 {
                    let h = u64::from_be_bytes(tx.id.0[..8].try_into().expect("8 bytes"));
                    if h % 1000 < drop_permille {
                        return;
                    }
                }
                let msg = PeerMsg::Tx(Box::new(tx.clone()));
                let _ = peer_net.broadcast(&from, &msg, framed_len(&msg));
            })
        }),
        submit_orderer: Some({
            let ordering = Arc::clone(ordering);
            Arc::new(move |tx: Transaction| ordering.submit(tx))
        }),
        submit_checkpoint: Some({
            let ordering = Arc::clone(ordering);
            Arc::new(move |vote| {
                let _ = ordering.submit_checkpoint(vote);
            })
        }),
        // A single-organization network has nobody to sync from.
        sync_fetch: (config.orgs.len() > 1).then(|| {
            let sync_client = Arc::clone(&sync_client);
            Arc::new(move |req: SyncRequest| sync_client.fetch(req)) as _
        }),
        ordering_stats: Some({
            let ordering = Arc::clone(ordering);
            Arc::new(move || {
                let s = ordering.stats_snapshot();
                bcrdb_node::OrderingSnapshot {
                    forwarded: s.forwarded,
                    cut: s.cut,
                    delivered: s.delivered,
                    current_view: s.current_view,
                    view_changes: s.view_changes,
                }
            }) as _
        }),
    };
    let recovered = if sync_on_recover {
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
        // Unwind the partial launch: without this, the registered peer
        // endpoint would keep absorbing blocks into a processor channel
        // that never starts.
        node.shutdown();
        relay_stop.store(true, Ordering::Relaxed);
        peer_net.unregister(&node_name);
        return Err(e);
    }
    node.start(block_rx);

    // Serve the node's client-facing RPC frontend on the client
    // network (for `TransportKind::Simulated` clients) — only now, after
    // the node caught up, so clients never reach a stale replica.
    transport::serve_frontend(
        Arc::clone(&node),
        Arc::clone(client_net),
        transport::frontend_endpoint(&node_name),
    );
    Ok(node)
}

/// Apply bootstrap DDL (tables, indexes, contracts) on one node.
/// Shared with the TCP deployment ([`crate::deploy`]), which applies
/// the same genesis on every node process, and with tests that build a
/// stand-alone replay node carrying a network's genesis.
pub fn apply_bootstrap_sql(node: &Arc<Node>, sql: &str, flow: Flow) -> Result<()> {
    let stmts = bcrdb_sql::parse_statements(sql)?;
    let rules = match flow {
        Flow::OrderThenExecute => DeterminismRules::order_then_execute(),
        Flow::ExecuteOrderParallel => DeterminismRules::execute_order_parallel(),
    };
    for stmt in &stmts {
        match stmt {
            Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropTable { .. } => {
                apply_bootstrap_ddl(node, stmt)?;
            }
            Statement::CreateFunction(def) => {
                bcrdb_engine::procedures::ContractRegistry::validate(def, &rules)?;
                node.contracts().install(def.clone())?;
            }
            Statement::DropFunction { name } => {
                node.contracts().remove(name)?;
            }
            other => {
                return Err(Error::Config(format!(
                    "bootstrap SQL must be DDL only, found {other:?}"
                )));
            }
        }
    }
    Ok(())
}

fn apply_bootstrap_ddl(node: &Arc<Node>, stmt: &Statement) -> Result<()> {
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            primary_key,
        } => {
            let cols: Vec<bcrdb_common::schema::Column> = columns
                .iter()
                .map(|c| bcrdb_common::schema::Column {
                    name: c.name.clone(),
                    dtype: c.dtype,
                    nullable: c.nullable && !c.inline_pk,
                })
                .collect();
            let mut pk: Vec<usize> = columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.inline_pk)
                .map(|(i, _)| i)
                .collect();
            if !primary_key.is_empty() {
                pk = primary_key
                    .iter()
                    .map(|n| {
                        columns
                            .iter()
                            .position(|c| &c.name == n)
                            .ok_or_else(|| Error::Analysis(format!("unknown pk column {n}")))
                    })
                    .collect::<Result<_>>()?;
            }
            let schema = bcrdb_common::schema::TableSchema::new(name.clone(), cols, pk)?;
            node.catalog().create_table(schema)?;
            Ok(())
        }
        Statement::CreateIndex {
            name,
            table,
            column,
        } => node.catalog().get(table)?.add_index(name, column),
        Statement::DropTable { name, if_exists } => node.catalog().drop_table(name, *if_exists),
        _ => Err(Error::internal("apply_bootstrap_ddl on non-DDL")),
    }
}
