//! One node, whichever network carries it: the §3.7 bootstrap steps and
//! the §3.6 recovery order, written once.
//!
//! The simulated [`Network`](crate::Network) and the real-socket
//! [`run_node_process`](crate::run_node_process) both assemble a node
//! with `Launch::run` and hold it as a [`NodeProc`], whose `shutdown`
//! is the only teardown. A deployment supplies what differs between
//! networks: how one [`PeerMsg`] reaches one peer (`PeerSend`), how
//! inbound traffic is pumped into the shared handler (`Inbound`) and
//! where a catch-up answer goes back, how transactions and votes reach
//! the ordering service, and how clients are served.
//!
//! Fixed here, for any network: the peer plane and the orderer
//! subscription are up *before* recovery, so blocks delivered during
//! catch-up queue instead of being lost; clients are served only *after*
//! it, so they never reach a stale replica; catch-up requests are served
//! off the inbound pump's thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use bcrdb_chain::block::Block;
use bcrdb_chain::sync::{SyncRequest, SyncResponse};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::{Error, Result};
use bcrdb_crypto::identity::CertificateRegistry;
use bcrdb_node::{Node, NodeConfig, NodeHooks};
use crossbeam_channel::{bounded, unbounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::identity::peer_identity;
use crate::network::{apply_bootstrap_sql, PeerMsg};
use crate::system;

/// How long a catch-up round trip may take per peer before failing over
/// to the next one. Bounded by profile latency plus the transfer time of
/// one batch/snapshot, not by commit times.
const SYNC_RPC_TIMEOUT: Duration = Duration::from_secs(15);

/// How one message reaches one peer: a simulated network send, or a
/// write on that peer's TCP link.
pub(crate) type PeerSend = Box<dyn Fn(&PeerMsg) -> Result<()> + Send + Sync>;

/// The outbound side of a node's peer plane, for either deployment:
/// forwarded transactions go to every other organization's peer, and
/// [`PeerMsg::SyncRequest`]s round-robin across them, failing over on
/// timeout or send error. [`Inbound`] routes the answering
/// [`PeerMsg::SyncResponse`]s back via [`SyncClient::deliver`].
pub(crate) struct SyncClient {
    /// The other organizations' peers: a name for error messages and the
    /// way to reach each.
    peers: Vec<(String, PeerSend)>,
    /// In-flight requests by correlation number; `None` once the node
    /// is shutting down, when nothing may start waiting for an answer.
    pending: Mutex<Option<HashMap<u64, Sender<SyncResponse>>>>,
    seq: AtomicU64,
    next_peer: AtomicUsize,
}

impl SyncClient {
    /// A client over `peers`, sending its first request to peer
    /// `first_peer` (modulo the peer count) so nodes spread their first
    /// requests around.
    fn new(peers: Vec<(String, PeerSend)>, first_peer: usize) -> SyncClient {
        SyncClient {
            peers,
            pending: Mutex::new(Some(HashMap::new())),
            seq: AtomicU64::new(1),
            next_peer: AtomicUsize::new(first_peer),
        }
    }

    /// Best-effort send to every peer (a peer that is down misses it).
    fn send_all(&self, msg: &PeerMsg) {
        for (_, send) in &self.peers {
            let _ = send(msg);
        }
    }

    fn fetch(&self, req: SyncRequest) -> Result<SyncResponse> {
        let closed = || Error::Shutdown("the node is shutting down".into());
        if self.peers.is_empty() {
            return Err(Error::NotFound("no peers to sync from".into()));
        }
        let start = self.next_peer.fetch_add(1, Ordering::Relaxed);
        let mut last_err = Error::Timeout("sync fetch never attempted".into());
        for i in 0..self.peers.len() {
            let (peer, send) = &self.peers[(start + i) % self.peers.len()];
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = bounded(1);
            match self.pending.lock().as_mut() {
                Some(pending) => pending.insert(seq, tx),
                None => return Err(closed()),
            };
            if let Err(e) = send(&PeerMsg::SyncRequest { seq, req }) {
                self.forget(seq);
                last_err = e;
                continue;
            }
            match rx.recv_timeout(SYNC_RPC_TIMEOUT) {
                Ok(resp) => return Ok(resp),
                // Only `close` drops a sender without answering.
                Err(RecvTimeoutError::Disconnected) => return Err(closed()),
                Err(RecvTimeoutError::Timeout) => {
                    self.forget(seq);
                    last_err = Error::Timeout(format!(
                        "no sync response from {peer} within {SYNC_RPC_TIMEOUT:?}"
                    ));
                }
            }
        }
        Err(last_err)
    }

    fn deliver(&self, seq: u64, resp: &SyncResponse) {
        if let Some(tx) = self.forget(seq) {
            let _ = tx.send(resp.clone());
        }
    }

    fn forget(&self, seq: u64) -> Option<Sender<SyncResponse>> {
        self.pending.lock().as_mut()?.remove(&seq)
    }

    /// Fail every request in flight and refuse new ones, so a block
    /// processor inside a catch-up round returns at once instead of
    /// waiting out [`SYNC_RPC_TIMEOUT`] for a peer it can no longer hear.
    fn close(&self) {
        *self.pending.lock() = None;
    }
}

/// Carries the answer to one [`PeerMsg::SyncRequest`] back to the peer
/// that asked (best effort — a requester that is gone fails over).
pub(crate) type SyncReply = Box<dyn FnOnce(PeerMsg) + Send>;

/// The inbound side of a node's peer plane: the one place a [`PeerMsg`]
/// is routed, whichever pump — a simulated endpoint's receive loop, a
/// TCP connection's frame reader — took it off the network.
pub(crate) struct Inbound {
    node: Arc<Node>,
    block_tx: Sender<Arc<Block>>,
    sync: Arc<SyncClient>,
}

impl Inbound {
    /// Queue a delivered block for the block processor. An error means
    /// the processor is gone: the pump should end.
    pub(crate) fn block(&self, block: Arc<Block>) -> Result<()> {
        let queued = self.block_tx.send(block);
        queued.map_err(|_| Error::Shutdown("the node's block processor stopped".into()))
    }

    /// Route one message. `reply` — how an answer travels back — is
    /// built only for a `SyncRequest`; transactions and blocks pay
    /// nothing for it. An error means the pump should end.
    pub(crate) fn handle(&self, msg: PeerMsg, reply: impl FnOnce() -> SyncReply) -> Result<()> {
        match msg {
            PeerMsg::Tx(tx) => self.node.on_peer_tx(*tx),
            PeerMsg::Block(block) => return self.block(block),
            PeerMsg::SyncRequest { seq, req } => {
                // Serve off-thread: a large batch or snapshot must not
                // stall transaction/block dispatch. If no thread can be
                // had the request is dropped (the requester fails over).
                let (node, reply) = (Arc::clone(&self.node), reply());
                let _ = thread::Builder::new()
                    .name(format!("{}-sync-serve", node.config.name))
                    .spawn(move || {
                        let resp = Arc::new(node.serve_sync(&req));
                        reply(PeerMsg::SyncResponse { seq, resp });
                    });
            }
            PeerMsg::SyncResponse { seq, resp } => self.sync.deliver(seq, &resp),
        }
        Ok(())
    }
}

/// The stop flag and threads a deployment runs for one component, and
/// the one way to end them. Every thread polls the flag or blocks on
/// something a closer closes, so [`Planes::close`] never waits for traffic.
pub(crate) struct Planes {
    stop: Arc<AtomicBool>,
    closers: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Planes {
    pub(crate) fn new() -> Planes {
        Planes {
            stop: Arc::new(AtomicBool::new(false)),
            closers: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// The flag every owned thread polls.
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Take ownership of a thread: [`Planes::close`] joins it.
    pub(crate) fn own(&self, thread: JoinHandle<()>) {
        self.threads.lock().push(thread);
    }

    /// Register what unblocks a thread that does not poll the flag (the
    /// simulated deployment unregisters the endpoint a pump receives on).
    pub(crate) fn on_close(&self, close: impl FnOnce() + Send + 'static) {
        self.closers.lock().push(Box::new(close));
    }

    /// Set the flag, run the closers, join the threads. Idempotent.
    pub(crate) fn close(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let closers = std::mem::take(&mut *self.closers.lock());
        closers.into_iter().for_each(|close| close());
        let threads = std::mem::take(&mut *self.threads.lock());
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// A running node on either deployment: the node plus everything the
/// deployment spawned to connect it.
pub struct NodeProc {
    node: Arc<Node>,
    pub(crate) planes: Planes,
}

impl NodeProc {
    /// The node itself (metrics, heights, hub introspection).
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Stop the node and disconnect it: the node's own threads are told
    /// to wind down ([`Node::shutdown`] never blocks), its planes are
    /// closed, and the block processor (which joins its post-commit
    /// worker) and every thread the deployment spawned for the node —
    /// pumps, accept loops with their connections, dialers — are joined
    /// before this returns, so its data directory can be reopened. State
    /// on disk is left as a crash would leave it. Idempotent.
    pub fn shutdown(&self) {
        self.node.shutdown();
        self.planes.close();
    }
}

/// Shut a deployment's nodes down: every stop flag first, so the nodes'
/// pollers wind down together, then each node's teardown.
pub(crate) fn shutdown_all(procs: &[NodeProc]) {
    let flag = |p: &NodeProc| p.planes.stop.store(true, Ordering::Relaxed);
    procs.iter().for_each(flag);
    procs.iter().for_each(NodeProc::shutdown);
}

/// Position of `org` in a deployment's organization list.
pub(crate) fn org_index(orgs: &[String], org: &str) -> Result<usize> {
    (orgs.iter().position(|o| o == org))
        .ok_or_else(|| Error::NotFound(format!("organization {org}")))
}

/// Everything a deployment decides about one node before launching it.
pub(crate) struct Launch<'a> {
    /// The node's configuration (its `org` must appear in `orgs`).
    pub cfg: NodeConfig,
    /// The deployment's certificate registry.
    pub certs: Arc<CertificateRegistry>,
    /// Participating organizations, in deployment order.
    pub orgs: &'a [String],
    /// Genesis DDL applied before recovery.
    pub genesis_sql: Option<&'a str>,
    /// The other organizations' peers, in deployment order.
    pub peers: Vec<(String, PeerSend)>,
    /// Restart / late join: catch up from peers during recovery (§3.6).
    /// A fresh network boots with `false`: there is nothing to catch up
    /// on, and peers later in the boot order may not exist yet.
    pub rejoin: bool,
}

impl Launch<'_> {
    /// Construct, wire up, recover and start the node.
    ///
    /// `attach` runs before recovery: it brings up the deployment's
    /// inbound pumps and orderer subscription — feeding [`Inbound`],
    /// handing every thread to the [`NodeProc`] — and returns the
    /// ordering-plane hooks (`submit_orderer`, `submit_checkpoint`,
    /// `ordering_stats`). `serve_clients` runs last. A launch that fails
    /// part-way is unwound through [`NodeProc::shutdown`], so no pump
    /// keeps absorbing blocks into a processor that never starts.
    pub(crate) fn run(
        self,
        attach: impl FnOnce(&NodeProc, Arc<Inbound>) -> Result<NodeHooks>,
        serve_clients: impl FnOnce(&NodeProc),
    ) -> Result<NodeProc> {
        let (org, flow, rejoin) = (&self.cfg.org, self.cfg.flow, self.rejoin);
        let idx = org_index(self.orgs, org)?;
        self.certs.register(peer_identity(org).1);
        let node = Node::new(self.cfg, self.certs, self.orgs.to_vec())?;
        system::bootstrap_node(&node)?;
        if let Some(genesis) = self.genesis_sql {
            apply_bootstrap_sql(&node, genesis, flow)?;
        }

        // A single-organization network has nobody to sync from.
        let has_peers = !self.peers.is_empty();
        // First catch-up request to the peer at the org's own index, so
        // nodes spread their first requests around.
        let sync = Arc::new(SyncClient::new(self.peers, idx));
        let (block_tx, block_rx) = unbounded();
        let inbound = Arc::new(Inbound {
            node: Arc::clone(&node),
            block_tx,
            sync: Arc::clone(&sync),
        });
        let planes = Planes::new();
        let proc = NodeProc { node, planes };

        {
            let sync = Arc::clone(&sync);
            proc.planes.on_close(move || sync.close());
        }
        let recovered = attach(&proc, inbound).and_then(|ordering| {
            let forward = Arc::clone(&sync);
            let hooks = NodeHooks {
                forward_tx: Some(Arc::new(move |tx: &Transaction| {
                    forward.send_all(&PeerMsg::Tx(Box::new(tx.clone())))
                })),
                sync_fetch: has_peers
                    .then(|| Arc::new(move |req: SyncRequest| sync.fetch(req)) as _),
                ..ordering
            };
            // With `sync_fetch` installed, recovery replays the local
            // store and then catches up from peers to the network head;
            // without it, recovery is local-only.
            proc.node.set_hooks(NodeHooks {
                sync_fetch: hooks.sync_fetch.clone().filter(|_| rejoin),
                ..hooks.clone()
            });
            let recovered = proc.node.recover();
            proc.node.set_hooks(hooks);
            recovered
        });
        recovered.inspect_err(|_| proc.shutdown())?;
        proc.planes.own(proc.node.start(block_rx));
        serve_clients(&proc);
        Ok(proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_chain::block::genesis_prev_hash;
    use bcrdb_chain::tx::Payload;
    use bcrdb_common::ids::TxId;
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{KeyPair, Scheme};
    use bcrdb_storage::version::Version;
    use bcrdb_txn::ssi::Flow;
    use crossbeam_channel::Receiver;
    use std::time::Instant;

    const SOON: Duration = Duration::from_secs(5);

    /// A node's inbound side with one peer, `org2`, whose received
    /// messages land on the returned channel; so do the node's blocks.
    /// `org1/alice` may invoke its one contract, `tally`, which counts a
    /// seeded table through its primary index (the execute-order flow
    /// refuses full scans): a millisecond of work that shows in the
    /// `tet_ms` metric once it ran.
    fn inbound() -> (Inbound, KeyPair, Receiver<PeerMsg>, Receiver<Arc<Block>>) {
        let flow = Flow::ExecuteOrderParallel;
        let cfg = NodeConfig::new("org1/peer", "org1", flow);
        let orgs = vec!["org1".to_string(), "org2".to_string()];
        let certs = CertificateRegistry::new();
        let (alice, cert) = crate::identity::client_identity("org1", "alice", Scheme::Sim);
        certs.register(cert);
        let node = Node::new(cfg, certs, orgs).unwrap();
        let genesis = "CREATE TABLE seeded (id INT PRIMARY KEY, v INT NOT NULL); \
             CREATE TABLE tallies (id INT PRIMARY KEY, n INT); \
             CREATE FUNCTION tally(id INT) AS $$ \
               INSERT INTO tallies SELECT $1, COUNT(*) FROM seeded WHERE id >= 0 $$";
        apply_bootstrap_sql(&node, genesis, flow).unwrap();
        let seeded = node.catalog().get("seeded").unwrap();
        for i in 0..2_000 {
            let row = vec![Value::Int(i), Value::Int(i % 7)];
            let rid = seeded.alloc_row_id();
            seeded.append_restored(Version::restored(TxId::INVALID, row, rid, 0, None, None));
        }
        let (sent_tx, sent_rx) = unbounded();
        let send: PeerSend = Box::new(move |msg| {
            sent_tx
                .send(msg.clone())
                .map_err(|_| Error::Io("peer gone".into()))
        });
        let sync = Arc::new(SyncClient::new(vec![("org2/peer".into(), send)], 0));
        let (block_tx, block_rx) = unbounded();
        let inbound = Inbound {
            node,
            block_tx,
            sync,
        };
        (inbound, alice, sent_rx, block_rx)
    }

    /// Only a `SyncRequest` may ask for a way to reply.
    fn no_reply() -> SyncReply {
        panic!("a reply was built for a message that has no answer")
    }

    fn blocks_at(tip: u64) -> SyncResponse {
        SyncResponse::Blocks {
            blocks: vec![],
            tip,
        }
    }

    #[test]
    fn inbound_routes_every_peer_message() {
        let (inbound, key, peer_got, block_rx) = inbound();

        // Tx → the node executes it (EO flow), ahead of its block.
        let call = Payload::new("tally", vec![Value::Int(1)]);
        let tx = Transaction::new_execute_order("org1/alice", call, 0, &key);
        inbound
            .handle(PeerMsg::Tx(Box::new(tx.unwrap())), no_reply)
            .unwrap();
        let deadline = Instant::now() + SOON;
        while inbound.node.metrics().take().tet_ms == 0.0 {
            assert!(Instant::now() < deadline, "the forwarded tx never ran");
            thread::sleep(Duration::from_millis(5));
        }

        // Block → the block channel.
        let block = Arc::new(Block::build(1, genesis_prev_hash(), vec![], "solo", vec![]));
        inbound
            .handle(PeerMsg::Block(Arc::clone(&block)), no_reply)
            .unwrap();
        assert_eq!(block_rx.try_recv().unwrap().hash, block.hash);

        // SyncRequest → served off-thread, answered through the reply
        // under the request's correlation number.
        let req = SyncRequest {
            from_height: 0,
            max_blocks: 8,
            allow_snapshot: false,
        };
        let (answer_tx, answer_rx) = unbounded();
        inbound
            .handle(PeerMsg::SyncRequest { seq: 7, req }, || {
                Box::new(move |answer| drop(answer_tx.send(answer)))
            })
            .unwrap();
        match answer_rx.recv_timeout(SOON).unwrap() {
            PeerMsg::SyncResponse { seq: 7, resp } => {
                assert!(
                    matches!(&*resp, SyncResponse::Blocks { blocks, tip: 0 } if blocks.is_empty())
                )
            }
            _ => panic!("expected the response to request 7"),
        }

        // SyncResponse → the waiting fetch, by correlation number; one
        // nobody waits for is ignored.
        let fetch = || {
            let sync = Arc::clone(&inbound.sync);
            let fetch = thread::spawn(move || sync.fetch(req));
            let Ok(PeerMsg::SyncRequest { seq, .. }) = peer_got.recv_timeout(SOON) else {
                panic!("the fetch sends a SyncRequest to its peer");
            };
            (fetch, seq)
        };
        let (fetching, seq) = fetch();
        for (seq, tip) in [(seq + 1_000, 11), (seq, 22)] {
            let resp = Arc::new(blocks_at(tip));
            inbound
                .handle(PeerMsg::SyncResponse { seq, resp }, no_reply)
                .unwrap();
        }
        let fetched = fetching.join().unwrap().unwrap();
        assert!(matches!(fetched, SyncResponse::Blocks { tip: 22, .. }));
        assert!(inbound.sync.pending.lock().as_ref().unwrap().is_empty());

        // With the block processor gone, a block ends the pump.
        drop(block_rx);
        assert!(inbound.handle(PeerMsg::Block(block), no_reply).is_err());

        // Shutdown fails a fetch that is waiting, long before its
        // timeout, and any later one.
        let (fetching, _) = fetch();
        let closed_at = Instant::now();
        inbound.sync.close();
        assert!(matches!(fetching.join().unwrap(), Err(Error::Shutdown(_))));
        assert!(matches!(inbound.sync.fetch(req), Err(Error::Shutdown(_))));
        assert!(closed_at.elapsed() < SOON);
    }
}
