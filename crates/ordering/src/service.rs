//! The ordering service: public API plus the solo/Kafka sequencer.
//!
//! Clients (or peers acting for them) submit signed transactions; the
//! service batches them into blocks (size, timeout, or idle nodes — see
//! [`crate::cutter`]) and delivers the blocks to subscribed peers. Each
//! orderer node has its own identity and signs the canonical block it
//! delivers (§3.1: "(f) digital signature on the hash of the current
//! block by the orderer node").

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::block::{genesis_prev_hash, Block, CheckpointVote};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;
use bcrdb_crypto::identity::{Certificate, CertificateRegistry, KeyPair, Role, Scheme};
use bcrdb_crypto::sha256::Digest;
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::bft::{self, BftHandle};

/// Per-organization block delivery channels (one slot per subscriber
/// index, each holding the senders registered for that organization).
pub(crate) type BlockSubscribers = Arc<Vec<Mutex<Vec<Sender<Arc<Block>>>>>>;
use crate::config::{OrderingConfig, OrderingKind};
use crate::cutter::{BlockCutter, Cut, CutReason};

/// Input to the ordering pipeline.
pub enum Input {
    /// A client transaction.
    Tx(Box<Transaction>),
    /// A checkpoint vote from a database node (§3.3.4).
    Vote(CheckpointVote),
    /// Shut the pipeline down.
    Stop,
}

/// Counters exposed for the Fig 8(b) experiment and the node Metrics RPC.
#[derive(Default)]
pub struct OrderingStats {
    /// Blocks delivered.
    pub blocks: AtomicU64,
    /// Transactions ordered into blocks.
    pub txs: AtomicU64,
    /// Transactions forwarded into the service (accepted submissions).
    pub forwarded: AtomicU64,
    /// Blocks cut/proposed by a leader or sequencer (≥ `blocks`: a
    /// proposal in flight when its leader dies is re-proposed).
    pub cut: AtomicU64,
    /// Current BFT view number (0 for solo/Kafka and before any
    /// rotation).
    pub current_view: AtomicU64,
    /// Successful view changes installed since start.
    pub view_changes: AtomicU64,
    /// Blocks cut because `block_size` transactions were pending.
    pub cut_size: AtomicU64,
    /// Blocks cut because `block_timeout` expired.
    pub cut_timeout: AtomicU64,
    /// Blocks cut early because the database nodes were idle.
    pub cut_idle: AtomicU64,
}

impl OrderingStats {
    /// Count one cut/proposal and the rule that made it.
    pub(crate) fn on_cut(&self, reason: CutReason) {
        self.cut.fetch_add(1, Ordering::Relaxed);
        let by_reason = match reason {
            CutReason::Size => &self.cut_size,
            CutReason::Timeout => &self.cut_timeout,
            CutReason::Idle => &self.cut_idle,
        };
        by_reason.fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-value snapshot of every counter.
    pub fn snapshot(&self) -> OrderingStatsSnapshot {
        OrderingStatsSnapshot {
            forwarded: self.forwarded.load(Ordering::Relaxed),
            cut: self.cut.load(Ordering::Relaxed),
            delivered: self.blocks.load(Ordering::Relaxed),
            txs: self.txs.load(Ordering::Relaxed),
            current_view: self.current_view.load(Ordering::Relaxed),
            view_changes: self.view_changes.load(Ordering::Relaxed),
            cut_size: self.cut_size.load(Ordering::Relaxed),
            cut_timeout: self.cut_timeout.load(Ordering::Relaxed),
            cut_idle: self.cut_idle.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value view of [`OrderingStats`] (what the node Metrics RPC and
/// tests consume).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderingStatsSnapshot {
    /// Transactions forwarded into the service.
    pub forwarded: u64,
    /// Blocks cut/proposed.
    pub cut: u64,
    /// Blocks delivered.
    pub delivered: u64,
    /// Transactions ordered into delivered blocks.
    pub txs: u64,
    /// Current BFT view.
    pub current_view: u64,
    /// View changes installed.
    pub view_changes: u64,
    /// Blocks cut by size (of `cut`).
    pub cut_size: u64,
    /// Blocks cut by the timer (of `cut`).
    pub cut_timeout: u64,
    /// Blocks cut early on idle nodes (of `cut`).
    pub cut_idle: u64,
}

/// Handle to a running ordering service.
pub struct OrderingService {
    config: OrderingConfig,
    input: Sender<Input>,
    subscribers: BlockSubscribers,
    next_sub: AtomicUsize,
    height: Arc<AtomicU64>,
    stats: Arc<OrderingStats>,
    /// Liveness per orderer node: flipped off by
    /// [`OrderingService::stop_orderer`] so subscriptions route to a live
    /// replica.
    alive: Vec<AtomicBool>,
    bft: Option<BftHandle>,
}

/// Name of orderer node `i` as registered in the certificate registry.
pub fn orderer_name(i: usize) -> String {
    format!("ordering/orderer{i}")
}

/// The identity of orderer node `i`: its signing key, derived from a
/// deterministic seed, and the certificate nodes verify its block
/// signatures against. [`OrderingService::start`] signs with it; a
/// process that only *verifies* blocks (a TCP-deployed node) registers
/// the same certificate from the same derivation.
pub fn orderer_identity(i: usize, scheme: Scheme) -> (KeyPair, Certificate) {
    let name = orderer_name(i);
    let key = KeyPair::generate(name.clone(), format!("orderer-seed-{i}").as_bytes(), scheme);
    let cert = Certificate {
        name,
        org: "ordering".into(),
        role: Role::Orderer,
        public_key: key.public_key(),
    };
    (key, cert)
}

impl OrderingService {
    /// Start the service: generates orderer identities (registering their
    /// certificates with `certs`) and spawns the consensus threads.
    pub fn start(config: OrderingConfig, certs: &Arc<CertificateRegistry>) -> Arc<OrderingService> {
        let keys: Vec<Arc<KeyPair>> = (0..config.orderers)
            .map(|i| {
                let (key, cert) = orderer_identity(i, config.scheme);
                certs.register(cert);
                Arc::new(key)
            })
            .collect();

        let subscribers: BlockSubscribers = Arc::new(
            (0..config.orderers)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        );
        let height = Arc::new(AtomicU64::new(0));
        let stats = Arc::new(OrderingStats::default());
        let (input_tx, input_rx) = unbounded();

        let bft = match config.kind {
            OrderingKind::Solo | OrderingKind::Kafka => {
                let seq = Sequencer {
                    config: config.clone(),
                    certs: Arc::clone(certs),
                    keys,
                    subscribers: Arc::clone(&subscribers),
                    height: Arc::clone(&height),
                    stats: Arc::clone(&stats),
                };
                std::thread::Builder::new()
                    .name("ordering-sequencer".into())
                    .spawn(move || seq.run(input_rx))
                    .expect("spawn sequencer");
                None
            }
            OrderingKind::Bft => Some(bft::start(
                &config,
                certs,
                keys,
                Arc::clone(&subscribers),
                Arc::clone(&height),
                Arc::clone(&stats),
                input_rx,
            )),
        };

        let alive = (0..config.orderers)
            .map(|_| AtomicBool::new(true))
            .collect();
        Arc::new(OrderingService {
            config,
            input: input_tx,
            subscribers,
            next_sub: AtomicUsize::new(0),
            height,
            stats,
            alive,
            bft,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &OrderingConfig {
        &self.config
    }

    /// Submit a transaction for ordering.
    pub fn submit(&self, tx: Transaction) -> Result<()> {
        self.input
            .send(Input::Tx(Box::new(tx)))
            .map_err(|_| Error::Shutdown("ordering service stopped".into()))?;
        self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Submit a checkpoint vote; it is embedded in a subsequent block.
    pub fn submit_checkpoint(&self, vote: CheckpointVote) -> Result<()> {
        self.input
            .send(Input::Vote(vote))
            .map_err(|_| Error::Shutdown("ordering service stopped".into()))
    }

    /// Subscribe a peer for block delivery; peers are assigned to orderer
    /// nodes round-robin (each organization's peer connects to "its"
    /// orderer in the paper's deployment).
    pub fn subscribe(&self) -> Receiver<Arc<Block>> {
        let idx = self.next_sub.fetch_add(1, Ordering::Relaxed) % self.subscribers.len();
        self.subscribe_to(idx)
    }

    /// Subscribe to a specific orderer node. If that node was stopped
    /// ([`OrderingService::stop_orderer`]), the subscription fails over
    /// to the next live one — the paper's peers reconnect to another
    /// orderer when theirs goes away.
    pub fn subscribe_to(&self, orderer: usize) -> Receiver<Arc<Block>> {
        let n = self.subscribers.len();
        let mut idx = orderer % n;
        for probe in 0..n {
            let candidate = (orderer + probe) % n;
            if self.alive[candidate].load(Ordering::Relaxed) {
                idx = candidate;
                break;
            }
        }
        let (tx, rx) = unbounded();
        self.subscribers[idx].lock().push(tx);
        rx
    }

    /// Number of blocks delivered so far.
    pub fn height(&self) -> BlockHeight {
        self.height.load(Ordering::Relaxed)
    }

    /// Delivery counters: `(blocks delivered, transactions ordered)`.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.stats.blocks.load(Ordering::Relaxed),
            self.stats.txs.load(Ordering::Relaxed),
        )
    }

    /// Full counter snapshot (forwarded, cut, delivered, view state).
    pub fn stats_snapshot(&self) -> OrderingStatsSnapshot {
        self.stats.snapshot()
    }

    /// The current BFT view (0 for solo/Kafka).
    pub fn current_view(&self) -> u64 {
        self.stats.current_view.load(Ordering::Relaxed)
    }

    /// Crash orderer node `idx` (BFT backend only): its replica thread
    /// winds down, its consensus endpoint vanishes, and peers subscribed
    /// to it are re-homed to the next live orderer — they may see a
    /// duplicate or a gap at the splice point, which the node-level block
    /// processor resolves (duplicates are dropped by height; gaps trigger
    /// peer catch-up). The remaining replicas install a new view the next
    /// time work is pending and the dead leader makes no progress.
    pub fn stop_orderer(&self, idx: usize) -> Result<()> {
        let bft = self.bft.as_ref().ok_or_else(|| {
            Error::Config("stop_orderer: only the BFT backend models orderer crashes".into())
        })?;
        if idx >= self.config.orderers {
            return Err(Error::NotFound(format!("orderer {idx}")));
        }
        bft.stop_replica(idx)?;
        self.alive[idx].store(false, Ordering::Relaxed);
        // Re-home the dead orderer's subscribers onto a live replica.
        let target = (0..self.config.orderers)
            .map(|probe| (idx + 1 + probe) % self.config.orderers)
            .find(|i| self.alive[*i].load(Ordering::Relaxed));
        if let Some(target) = target {
            let moved: Vec<_> = self.subscribers[idx].lock().drain(..).collect();
            self.subscribers[target].lock().extend(moved);
        }
        Ok(())
    }

    /// Stall orderer node `idx` (BFT backend only): the replica stays
    /// registered but stops processing — a hung leader. Undo with
    /// [`OrderingService::unstall_orderer`]; queued messages are
    /// processed on resume and the replica adopts whatever view the rest
    /// of the network moved to.
    pub fn stall_orderer(&self, idx: usize) -> Result<()> {
        self.set_stalled(idx, true)
    }

    /// Resume a stalled orderer node.
    pub fn unstall_orderer(&self, idx: usize) -> Result<()> {
        self.set_stalled(idx, false)
    }

    /// Cut orderer node `idx` off the consensus network, or heal it (BFT
    /// backend only). While cut off its consensus traffic is dropped
    /// silently — unlike [`OrderingService::stall_orderer`], the messages
    /// are *lost*, so a long partition leaves the replica genuinely
    /// behind; on heal it catches up through the ordering-layer fetch
    /// path (fast-forwarding if it lagged beyond what peers retain).
    pub fn partition_orderer(&self, idx: usize, partitioned: bool) -> Result<()> {
        let bft = self.bft.as_ref().ok_or_else(|| {
            Error::Config(
                "partition_orderer: only the BFT backend models orderer partitions".into(),
            )
        })?;
        bft.partition_replica(idx, partitioned)
    }

    fn set_stalled(&self, idx: usize, stalled: bool) -> Result<()> {
        let bft = self.bft.as_ref().ok_or_else(|| {
            Error::Config("stall_orderer: only the BFT backend models orderer stalls".into())
        })?;
        bft.stall_replica(idx, stalled)
    }

    /// Stop all threads.
    pub fn shutdown(&self) {
        let _ = self.input.send(Input::Stop);
        if let Some(bft) = &self.bft {
            bft.shutdown();
        }
    }
}

/// Sign the canonical block once per orderer and deliver to that orderer's
/// subscribers. Shared by the sequencer and the BFT replicas.
pub(crate) fn deliver_block(
    canonical: &Block,
    orderer_idx: usize,
    key: &KeyPair,
    subscribers: &[Mutex<Vec<Sender<Arc<Block>>>>],
) {
    let mut signed = canonical.clone();
    if signed.sign(key).is_err() {
        // Key exhaustion: deliver unsigned (peers will reject; surfaced in
        // tests as a verification failure rather than a hang).
    }
    let arc = Arc::new(signed);
    let mut subs = subscribers[orderer_idx].lock();
    // Delivering doubles as pruning: a dropped receiver (stopped node's
    // retired relay) fails the send and its sender is removed, so
    // repeated stop/rejoin cycles cannot grow the subscriber list.
    subs.retain(|s| s.send(Arc::clone(&arc)).is_ok());
}

/// The solo/Kafka sequencer: a single total order, identical block stream
/// delivered through every orderer node.
struct Sequencer {
    config: OrderingConfig,
    certs: Arc<CertificateRegistry>,
    keys: Vec<Arc<KeyPair>>,
    subscribers: BlockSubscribers,
    height: Arc<AtomicU64>,
    stats: Arc<OrderingStats>,
}

impl Sequencer {
    fn run(self, rx: Receiver<Input>) {
        const TICK: Duration = Duration::from_millis(100);
        let mut cutter = BlockCutter::new(self.config.block_size, self.config.block_timeout)
            .clocked_by(Arc::clone(&self.certs));
        let mut next_number: BlockHeight = 1;
        let mut prev_hash: Digest = genesis_prev_hash();
        let mut wait = TICK;
        loop {
            let mut input = match rx.recv_timeout(wait) {
                Ok(input) => Some(input),
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => None,
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => return,
            };
            // One clock read per wake-up, and everything already queued
            // is taken before any rule is evaluated, so a burst is one
            // block rather than a one-transaction block plus the rest. A
            // size cut ends the drain: the clock is stale by then.
            // bcrdb-lint: allow(wall-clock, reason = "block-cut timeout; orderer-local, the cut block is what replicates")
            let now = Instant::now();
            while let Some(next) = input {
                match next {
                    Input::Tx(tx) => {
                        if let Some(cut) = cutter.push_tx(*tx, now) {
                            self.emit(cut, &mut next_number, &mut prev_hash);
                            break;
                        }
                    }
                    Input::Vote(v) => cutter.push_vote(v),
                    Input::Stop => return,
                }
                input = rx.try_recv().ok();
            }
            if let Some(cut) = cutter.poll(now) {
                self.emit(cut, &mut next_number, &mut prev_hash);
            }
            wait = cutter.time_until_cut(now).map_or(TICK, |d| d.min(TICK));
        }
    }

    fn emit(&self, cut: Cut, next_number: &mut BlockHeight, prev_hash: &mut Digest) {
        let block = Block::build(
            *next_number,
            *prev_hash,
            cut.txs,
            self.config.kind.as_str(),
            cut.votes,
        );
        *prev_hash = block.hash;
        *next_number += 1;
        self.stats.on_cut(cut.reason);
        self.stats.blocks.fetch_add(1, Ordering::Relaxed);
        self.stats
            .txs
            .fetch_add(block.txs.len() as u64, Ordering::Relaxed);
        self.height.store(block.number, Ordering::Relaxed);
        for (i, key) in self.keys.iter().enumerate() {
            deliver_block(&block, i, key, &self.subscribers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_chain::tx::Payload;
    use bcrdb_common::value::Value;

    fn client() -> (KeyPair, Arc<CertificateRegistry>) {
        let key = KeyPair::generate("org1/alice", b"alice", Scheme::Sim);
        let certs = CertificateRegistry::new();
        certs.register(Certificate {
            name: "org1/alice".into(),
            org: "org1".into(),
            role: Role::Client,
            public_key: key.public_key(),
        });
        (key, certs)
    }

    fn tx(key: &KeyPair, n: u64) -> Transaction {
        Transaction::new_order_execute(
            "org1/alice",
            Payload::new("f", vec![Value::Int(n as i64)]),
            n,
            key,
        )
        .unwrap()
    }

    #[test]
    fn orderer_identities_are_stable() {
        assert_eq!(orderer_name(2), "ordering/orderer2");
        // What the service signs with is what `orderer_identity` derives —
        // a process that only verifies blocks registers the latter.
        let certs = CertificateRegistry::new();
        let svc = OrderingService::start(OrderingConfig::kafka(3, 1, Duration::ZERO), &certs);
        let (_, derived) = orderer_identity(2, Scheme::Sim);
        let registered = certs.lookup("ordering/orderer2").unwrap();
        assert_eq!(
            registered.public_key.to_bytes(),
            derived.public_key.to_bytes()
        );
        assert_eq!(
            (derived.name, derived.role),
            (registered.name, Role::Orderer)
        );
        svc.shutdown();
    }

    #[test]
    fn solo_cuts_by_size() {
        let (key, certs) = client();
        let svc = OrderingService::start(OrderingConfig::solo(3, Duration::from_secs(60)), &certs);
        let rx = svc.subscribe();
        for i in 0..6 {
            svc.submit(tx(&key, i)).unwrap();
        }
        let b1 = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let b2 = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(b1.number, 1);
        assert_eq!(b2.number, 2);
        assert_eq!(b1.txs.len(), 3);
        assert_eq!(b2.prev_hash, b1.hash);
        // Blocks verify against the genesis chain + orderer cert.
        b1.verify(&genesis_prev_hash(), &certs).unwrap();
        b2.verify(&b1.hash, &certs).unwrap();
        assert_eq!(svc.height(), 2);
        let (blocks, txs) = svc.stats();
        assert_eq!((blocks, txs), (2, 6));
        svc.shutdown();
    }

    #[test]
    fn solo_cuts_by_timeout() {
        let (key, certs) = client();
        let svc = OrderingService::start(
            OrderingConfig::solo(1000, Duration::from_millis(50)),
            &certs,
        );
        let rx = svc.subscribe();
        svc.submit(tx(&key, 1)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(b.txs.len(), 1);
        svc.shutdown();
    }

    #[test]
    fn kafka_orderers_deliver_identical_chains() {
        let (key, certs) = client();
        let svc = OrderingService::start(
            OrderingConfig::kafka(3, 2, Duration::from_millis(200)),
            &certs,
        );
        let rx0 = svc.subscribe_to(0);
        let rx1 = svc.subscribe_to(1);
        let rx2 = svc.subscribe_to(2);
        for i in 0..4 {
            svc.submit(tx(&key, i)).unwrap();
        }
        for _ in 0..2 {
            let b0 = rx0.recv_timeout(Duration::from_secs(2)).unwrap();
            let b1 = rx1.recv_timeout(Duration::from_secs(2)).unwrap();
            let b2 = rx2.recv_timeout(Duration::from_secs(2)).unwrap();
            // Identical canonical content (hash covers everything except
            // signatures) delivered by different orderers.
            assert_eq!(b0.hash, b1.hash);
            assert_eq!(b1.hash, b2.hash);
            assert_ne!(b0.signatures[0].0, b1.signatures[0].0);
        }
        svc.shutdown();
    }

    #[test]
    fn checkpoint_votes_embedded_in_next_block() {
        let (key, certs) = client();
        let svc = OrderingService::start(OrderingConfig::solo(1, Duration::from_secs(60)), &certs);
        let rx = svc.subscribe();
        svc.submit_checkpoint(CheckpointVote {
            node: "org1/peer".into(),
            block: 0,
            state_hash: [7u8; 32],
        })
        .unwrap();
        svc.submit(tx(&key, 1)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(b.checkpoints.len(), 1);
        assert_eq!(b.checkpoints[0].node, "org1/peer");
        svc.shutdown();
    }

    #[test]
    fn a_registered_peers_votes_cut_early_and_each_cut_is_counted_by_rule() {
        let (key, certs) = client();
        let peer = KeyPair::generate("org1/peer", b"peer", Scheme::Sim);
        certs.register(Certificate {
            name: "org1/peer".into(),
            org: "org1".into(),
            role: Role::Peer,
            public_key: peer.public_key(),
        });
        let vote = |node: &str, block| CheckpointVote {
            node: node.into(),
            block,
            state_hash: [0u8; 32],
        };
        let svc = OrderingService::start(OrderingConfig::solo(2, Duration::from_secs(60)), &certs);
        let rx = svc.subscribe();
        let soon = Duration::from_secs(2);

        // The peer is at the tip (nothing cut yet): one transaction is a
        // block, 60 s before the timer would have made it one.
        svc.submit_checkpoint(vote("org1/peer", 0)).unwrap();
        svc.submit(tx(&key, 1)).unwrap();
        assert_eq!(rx.recv_timeout(soon).unwrap().txs.len(), 1);
        // Block 1 is out and the peer has not committed it; a stranger
        // saying so counts for nothing.
        svc.submit(tx(&key, 2)).unwrap();
        svc.submit_checkpoint(vote("org9/peer", 1)).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        svc.submit_checkpoint(vote("org1/peer", 1)).unwrap();
        assert_eq!(rx.recv_timeout(soon).unwrap().number, 2);
        // Size still cuts without waiting for anybody.
        svc.submit(tx(&key, 3)).unwrap();
        svc.submit(tx(&key, 4)).unwrap();
        assert_eq!(rx.recv_timeout(soon).unwrap().txs.len(), 2);

        let stats = svc.stats_snapshot();
        assert_eq!(
            (stats.cut_idle, stats.cut_size, stats.cut_timeout, stats.cut),
            (2, 1, 0, 3)
        );
        svc.shutdown();
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let (key, certs) = client();
        let svc = OrderingService::start(OrderingConfig::solo(1, Duration::from_secs(60)), &certs);
        svc.shutdown();
        std::thread::sleep(Duration::from_millis(50));
        // The sequencer consumed Stop; the channel may still accept sends
        // until the thread exits, so poll until the error appears.
        let mut saw_err = false;
        for i in 0..100 {
            if svc.submit(tx(&key, i)).is_err() {
                saw_err = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_err, "submissions should fail after shutdown");
    }
}
