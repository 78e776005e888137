//! Assembling a permissioned network (§3.7 "Network Bootstrapping") over
//! the simulated network: one [`NodeProc`] per organization — each
//! assembled by the shared recipe ([`crate::launch`]) — a shared
//! in-process ordering service, and [`SimNetwork`]s in between that
//! charge every message the bytes a socket would carry (§5 / Fig. 8a).
//! [`Network::stop_node`]/[`Network::rejoin_node`] model crash-restart
//! and late join (§3.6); [`Network::partition`]/[`Network::heal`] model
//! a network partition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::block::Block;
use bcrdb_chain::sync::{SyncRequest, SyncResponse};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;
use bcrdb_crypto::identity::{CertificateRegistry, KeyPair};
use bcrdb_crypto::sha256::Digest;
use bcrdb_engine::exec::CatalogOp;
use bcrdb_engine::procedures::ContractRegistry;
use bcrdb_network::tcp::POLL;
use bcrdb_network::wire::{framed_len, peer_endpoint};
use bcrdb_network::{Delivered, SimNetwork};
use bcrdb_node::{Node, NodeConfig, NodeHooks};
use bcrdb_ordering::OrderingService;
use bcrdb_sql::validate::DeterminismRules;
use bcrdb_txn::ssi::Flow;
use crossbeam_channel::RecvTimeoutError;
use parking_lot::{Mutex, RwLock};

use crate::client::Client;
use crate::config::NetworkConfig;
use crate::identity::{admin_identity, client_identity};
use crate::launch::{org_index, shutdown_all, Launch, NodeProc, PeerSend, SyncReply};
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
    nodes: RwLock<Vec<NodeProc>>,
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
}

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
                let (key, cert) = admin_identity(org, config.scheme);
                certs.register(cert);
                Arc::new(key)
            })
            .collect();

        let net = Network {
            inner: Arc::new(NetworkInner {
                config,
                certs,
                nodes: RwLock::new(Vec::new()),
                ordering,
                peer_net,
                client_net,
                admins,
                clients: Mutex::new(HashMap::new()),
                nonce: Arc::new(AtomicU64::new(1)),
                conn_seq: AtomicU64::new(1),
            }),
        };
        for idx in 0..net.inner.config.orgs.len() {
            // A fresh network has nothing to catch up on (`rejoin: false`);
            // a partial build is unwound like a complete one.
            let launched = net.inner.run_node(idx, false);
            let proc = launched.inspect_err(|_| net.shutdown())?;
            net.inner.nodes.write().push(proc);
        }
        Ok(net)
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
        Ok(Arc::clone(self.inner.nodes.read()[idx].node()))
    }

    /// All nodes, in organization order (a snapshot: rejoined nodes
    /// replace their slot, so re-read after [`Network::rejoin_node`]).
    pub fn nodes(&self) -> Vec<Arc<Node>> {
        let nodes = self.inner.nodes.read();
        nodes.iter().map(|p| Arc::clone(p.node())).collect()
    }

    /// Stop `org`'s node, simulating a crash ([`NodeProc::shutdown`]):
    /// the node's processing threads wind down and its peer- and
    /// client-network endpoints vanish (sends to them fail; the orderer
    /// relay stops). The block store and state snapshot on disk — if the
    /// network is persistent — are left exactly as the crash left them.
    /// Restart with [`Network::rejoin_node`].
    pub fn stop_node(&self, org: &str) -> Result<()> {
        let idx = self.org_index(org)?;
        self.inner.nodes.read()[idx].shutdown();
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
        let proc = self.inner.run_node(idx, true)?;
        let node = Arc::clone(proc.node());
        self.inner.nodes.write()[idx] = proc;
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
        org_index(&self.inner.config.orgs, org)
    }

    /// Open a transport connection to the node at `idx`.
    fn connect(&self, idx: usize, kind: TransportKind, who: &str) -> Arc<dyn NodeTransport> {
        let node = Arc::clone(self.inner.nodes.read()[idx].node());
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

    fn client_key(&self, org: &str, user: &str) -> Arc<KeyPair> {
        let mut clients = self.inner.clients.lock();
        let key = clients.entry(format!("{org}/{user}")).or_insert_with(|| {
            let (key, cert) = client_identity(org, user, self.inner.config.scheme);
            self.inner.certs.register(cert);
            Arc::new(key)
        });
        Arc::clone(key)
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
        let key = self.client_key(org, user);
        Ok(self.make_client(idx, format!("{org}/{user}"), key, kind))
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

    /// Stop every component: each node through [`NodeProc::shutdown`],
    /// then the ordering service and both simulated networks (which drop
    /// their endpoints, ending any client connection still open).
    pub fn shutdown(&self) {
        shutdown_all(&self.inner.nodes.read());
        self.inner.ordering.shutdown();
        self.inner.peer_net.shutdown();
        self.inner.client_net.shutdown();
    }
}

/// Simulated lossy or malicious forwarding (`forward_drop_permille`): a
/// deterministic pseudo-random drop keyed by the transaction id, so every
/// peer misses the same transactions and the block processor executes
/// them as missing when their block arrives.
fn forwarding_drops(msg: &PeerMsg, permille: u64) -> bool {
    let PeerMsg::Tx(tx) = msg else { return false };
    let h = u64::from_be_bytes(tx.id.0[..8].try_into().expect("8 bytes"));
    permille > 0 && h % 1000 < permille
}

impl NetworkInner {
    /// Launch organization `idx`'s node: what the simulated deployment
    /// supplies to the shared recipe ([`Launch::run`]). Peer traffic
    /// travels `peer_net`; the in-process ordering service is called
    /// directly, but its blocks are relayed over `peer_net` so delivery
    /// pays the profile's cost; clients are served on `client_net`.
    fn run_node(&self, idx: usize, rejoin: bool) -> Result<NodeProc> {
        let config = &self.config;
        let org = &config.orgs[idx];
        let me = peer_endpoint(org);
        let thread = |role: &str| std::thread::Builder::new().name(format!("{me}-{role}"));
        // What a closure sending from this node on the peer network owns.
        let seat = || (Arc::clone(&self.peer_net), me.clone());

        let mut cfg = NodeConfig::new(me.clone(), org.clone(), config.flow);
        cfg.executor_threads = config.executor_threads;
        cfg.serial_execution = config.serial_execution;
        cfg.snapshot_interval = config.snapshot_interval;
        cfg.statement_cache_cap = config.statement_cache_cap;
        cfg.fsync = config.fsync;
        cfg.gap_timeout = config.gap_timeout;
        cfg.sync_batch = config.sync_batch;
        cfg.snapshot_lag_threshold = config.snapshot_lag_threshold;
        cfg.vacuum_interval = config.vacuum_interval;
        cfg.data_dir = config.data_root.as_ref().map(|root| root.join(org));
        if config.paged {
            cfg.page_dir = cfg.data_dir.as_ref().map(|dir| dir.join("pages"));
            cfg.buffer_pool_frames = config.buffer_pool_frames.max(1);
            cfg.spill_retention = config.spill_retention.max(1);
        }

        let drop_permille = config.forward_drop_permille;
        let others = config.orgs.iter().filter(|o| *o != org);
        let peers = others.map(|o| {
            let ((net, me), peer) = (seat(), peer_endpoint(o));
            let send: PeerSend = Box::new(move |msg| match forwarding_drops(msg, drop_permille) {
                true => Ok(()),
                false => send_peer(&net, &me, &peer, msg.clone()),
            });
            (peer_endpoint(o), send)
        });

        let launch = Launch {
            cfg,
            certs: Arc::clone(&self.certs),
            orgs: &config.orgs,
            genesis_sql: config.genesis_sql.as_deref(),
            peers: peers.collect(),
            rejoin,
        };
        launch.run(
            |proc, inbound| {
                // Inbound pump: the node's peer endpoint → the shared
                // handler, until the endpoint is unregistered. A sync
                // answer goes back to whoever asked.
                let net_rx = self.peer_net.register(me.clone());
                let (net, name) = seat();
                proc.planes.on_close(move || net.unregister(&name));
                let (net, me) = seat();
                let pump = thread("dispatch").spawn(move || {
                    for Delivered { from, msg } in net_rx.iter() {
                        let reply = || -> SyncReply {
                            let (net, me) = (Arc::clone(&net), me.clone());
                            Box::new(move |resp| drop(send_peer(&net, &me, &from, resp)))
                        };
                        if inbound.handle(msg, reply).is_err() {
                            return;
                        }
                    }
                });
                proc.planes.own(pump.expect("spawn dispatch thread"));

                // Orderer → peer relay, modeling delivery latency and
                // bandwidth. It polls the stop flag, so a stopped node's
                // relay is joined before a rejoined node's fresh relay
                // subscribes (block traffic is never duplicated), and the
                // ordering service prunes its dropped receiver.
                let orderer_rx = self.ordering.subscribe_to(idx);
                let ((net, to), stop) = (seat(), proc.planes.stop_flag());
                let relay = thread("orderer-relay").spawn(move || {
                    let from = format!("orderer-gw-{idx}");
                    while !stop.load(Ordering::Relaxed) {
                        let sent = match orderer_rx.recv_timeout(POLL) {
                            Ok(block) => send_peer(&net, &from, &to, PeerMsg::Block(block)),
                            Err(RecvTimeoutError::Timeout) => continue,
                            Err(RecvTimeoutError::Disconnected) => return,
                        };
                        if sent.is_err() {
                            return;
                        }
                    }
                });
                proc.planes.own(relay.expect("spawn orderer relay"));

                // The ordering service is in-process: call it directly.
                let ordering = &self.ordering;
                let (submit, vote, stats) = (ordering.clone(), ordering.clone(), ordering.clone());
                Ok(NodeHooks {
                    submit_orderer: Some(Arc::new(move |tx: Transaction| submit.submit(tx))),
                    submit_checkpoint: Some(Arc::new(move |v| drop(vote.submit_checkpoint(v)))),
                    ordering_stats: Some(Arc::new(move || {
                        let s = stats.stats_snapshot();
                        bcrdb_node::OrderingSnapshot {
                            forwarded: s.forwarded,
                            cut: s.cut,
                            delivered: s.delivered,
                            current_view: s.current_view,
                            view_changes: s.view_changes,
                        }
                    })),
                    ..NodeHooks::default()
                })
            },
            |proc| {
                // The RPC frontend on the client network, for
                // `TransportKind::Simulated` clients.
                let endpoint = transport::frontend_endpoint(&me);
                let (net, name) = (Arc::clone(&self.client_net), endpoint.clone());
                proc.planes.on_close(move || net.unregister(&name));
                let node = Arc::clone(proc.node());
                let frontend =
                    transport::serve_frontend(node, Arc::clone(&self.client_net), endpoint);
                proc.planes.own(frontend);
            },
        )
    }
}

/// Apply bootstrap DDL (tables, indexes, contracts) on one node.
/// Shared with the TCP deployment ([`crate::deploy`]), which applies
/// the same genesis on every node process, and with tests that build a
/// stand-alone replay node carrying a network's genesis.
pub fn apply_bootstrap_sql(node: &Arc<Node>, sql: &str, flow: Flow) -> Result<()> {
    let rules = match flow {
        Flow::OrderThenExecute => DeterminismRules::order_then_execute(),
        Flow::ExecuteOrderParallel => DeterminismRules::execute_order_parallel(),
    };
    for stmt in &bcrdb_sql::parse_statements(sql)? {
        // The op a deployed statement would commit, applied the same way.
        let op = CatalogOp::from_statement(stmt)?;
        if let CatalogOp::CreateFunction(def) = &op {
            ContractRegistry::validate(def, &rules)?;
        }
        node.apply_catalog_op(&op)?;
    }
    Ok(())
}
