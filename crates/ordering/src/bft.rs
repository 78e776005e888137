//! BFT ordering backend: a PBFT-style three-phase protocol in the spirit
//! of BFT-SMaRt (§4.4), **including view changes** so the service keeps
//! cutting blocks when the leader crashes or stalls.
//!
//! ## Failure-free path
//!
//! The leader of the current view (`leader = view % n`) batches submitted
//! transactions (the shared [`BlockCutter`]: size, timeout or idle nodes,
//! one instance in flight at a time) and proposes each block with a
//! PRE-PREPARE. Replicas then exchange PREPARE and COMMIT messages over
//! the simulated network — `n(n-1)` messages per phase — and deliver once
//! a quorum of `2f+1` commits is observed. Every replica applies a
//! configurable per-message processing cost
//! ([`crate::OrderingConfig::bft_msg_cost`]), which is what produces the
//! throughput degradation with orderer count seen in the paper's Fig 8(b).
//!
//! ## View change
//!
//! As in BFT-SMaRt, clients (the input pump) broadcast submissions to
//! *every* replica; each replica pools them, so pending transactions
//! survive a leader crash. A replica with pending work that sees no
//! progress for [`crate::OrderingConfig::view_change_timeout`] broadcasts
//! `VIEW-CHANGE(v+1)` carrying its last delivered height and the
//! in-flight proposal it holds (the prepared-certificate state). A
//! replica that sees `f+1` view-change votes joins them; at `2f+1` the
//! view is installed and the new leader (`(v+1) % n`) re-proposes the
//! carried in-flight block in a `NEW-VIEW` so no ordered transaction is
//! lost, then resumes cutting from its own pool. Delivery is strictly
//! sequential per replica; a replica that discovers it fell behind
//! (commit quorum for a future height, or a view-change timer expiry)
//! fetches the missing delivered blocks from its peers
//! (`FetchDelivered`), the ordering-layer analog of peer catch-up.
//!
//! Simplifications vs. real PBFT (we model crash/stall faults of honest
//! replicas, not byzantine leaders): view-change and new-view messages
//! are not signed and carry the raw in-flight proposal instead of signed
//! prepared certificates; replicas adopt a higher view number advertised
//! by any consensus message (honest peers only advance views through the
//! protocol); and there are no per-view checkpoint proofs — the
//! `FetchDelivered` exchange plays that role. See DESIGN.md "Ordering
//! fault tolerance".

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::service::BlockSubscribers;
use bcrdb_chain::block::{genesis_prev_hash, Block, CheckpointVote};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::codec::Encode;
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::{BlockHeight, GlobalTxId};
use bcrdb_crypto::identity::{CertificateRegistry, KeyPair};
use bcrdb_crypto::sha256::Digest;
use bcrdb_network::SimNetwork;
use crossbeam_channel::Receiver;

use crate::config::OrderingConfig;
use crate::cutter::{BlockCutter, Cut};
use crate::service::{deliver_block, Input, OrderingStats};

/// How many delivered blocks each replica retains to serve
/// [`BftMsg::FetchDelivered`] requests from lagging peers.
const DELIVERED_LOG_CAP: usize = 128;

/// Maximum blocks returned per [`BftMsg::FetchDelivered`] response.
const FETCH_BATCH: usize = 32;

/// How long a replica sleeps on a quiet channel before re-checking its
/// stop flag and timers.
const TICK: Duration = Duration::from_millis(20);

/// Consensus messages between orderer replicas.
#[derive(Clone, Debug)]
pub enum BftMsg {
    /// A transaction forwarded by the client gateway (broadcast to every
    /// replica, BFT-SMaRt style, so pending work survives leader loss).
    Forward(Box<Transaction>),
    /// A checkpoint vote forwarded to every replica. Votes piggyback on
    /// the next transaction-bearing block (§3.3.4: "state change hashes
    /// are added in the next block") and never force a cut or arm the
    /// view-change timer on their own — the same semantics as the
    /// solo/Kafka sequencer's cutter.
    ForwardVote(CheckpointVote),
    /// Leader's proposal in `view`.
    PrePrepare {
        /// The view this proposal belongs to.
        view: u64,
        /// The proposed block.
        block: Arc<Block>,
    },
    /// Phase-2 vote.
    Prepare {
        /// The view the vote is cast in.
        view: u64,
        /// Block number.
        number: BlockHeight,
        /// Block hash.
        hash: Digest,
        /// Voting replica.
        from: usize,
    },
    /// Phase-3 vote.
    Commit {
        /// The view the vote is cast in.
        view: u64,
        /// Block number.
        number: BlockHeight,
        /// Block hash.
        hash: Digest,
        /// Voting replica.
        from: usize,
    },
    /// A replica suspects the current leader and votes to install
    /// `new_view`.
    ViewChange {
        /// The proposed view.
        new_view: u64,
        /// Voting replica.
        from: usize,
        /// The voter's last delivered height.
        last_delivered: BlockHeight,
        /// The undelivered in-flight proposal the voter holds (its
        /// prepared-certificate state), if any.
        in_flight: Option<Arc<Block>>,
    },
    /// The new leader installs `view` and re-proposes the carried
    /// in-flight blocks.
    NewView {
        /// The installed view.
        view: u64,
        /// Re-proposals (processed exactly like PRE-PREPAREs).
        proposals: Vec<Arc<Block>>,
    },
    /// A lagging replica asks a peer for delivered blocks above
    /// `from_height` (the ordering-layer catch-up path).
    FetchDelivered {
        /// The requester's last delivered height.
        from_height: BlockHeight,
    },
    /// Answer to [`BftMsg::FetchDelivered`]: contiguous delivered blocks.
    DeliveredBlocks {
        /// Blocks `from_height+1 ..`, in order.
        blocks: Vec<Arc<Block>>,
    },
    /// Stop the replica.
    Stop,
}

/// Per-replica control flags (crash and stall injection).
struct ReplicaCtl {
    stop: Arc<AtomicBool>,
    stalled: Arc<AtomicBool>,
}

/// Handle owning the BFT threads.
pub struct BftHandle {
    net: Arc<SimNetwork<BftMsg>>,
    stop: Arc<AtomicBool>,
    ctls: Vec<ReplicaCtl>,
}

impl BftHandle {
    /// Signal every replica to stop and tear the network down.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for (i, ctl) in self.ctls.iter().enumerate() {
            ctl.stop.store(true, Ordering::Relaxed);
            let _ = self
                .net
                .send("control", &replica_endpoint(i), BftMsg::Stop, 1);
        }
        // Give replicas a moment to observe Stop before the network dies.
        std::thread::sleep(Duration::from_millis(20));
        self.net.shutdown();
    }

    /// Crash replica `idx`: its thread winds down and its endpoint
    /// vanishes from the consensus network (sends to it are dropped).
    pub(crate) fn stop_replica(&self, idx: usize) -> Result<()> {
        let ctl = self
            .ctls
            .get(idx)
            .ok_or_else(|| Error::NotFound(format!("orderer replica {idx}")))?;
        ctl.stop.store(true, Ordering::Relaxed);
        self.net.unregister(&replica_endpoint(idx));
        Ok(())
    }

    /// Stall (or resume) replica `idx`: the thread stays alive but stops
    /// processing messages, simulating a hung leader. Queued messages are
    /// processed on resume.
    pub(crate) fn stall_replica(&self, idx: usize, stalled: bool) -> Result<()> {
        let ctl = self
            .ctls
            .get(idx)
            .ok_or_else(|| Error::NotFound(format!("orderer replica {idx}")))?;
        ctl.stalled.store(stalled, Ordering::Relaxed);
        Ok(())
    }

    /// Cut replica `idx` off the consensus network (or heal it): unlike a
    /// stall, its messages are silently *dropped* while cut off, so on
    /// heal it has genuinely missed history and must catch up — deep lag
    /// exercises the `FetchDelivered` fast-forward path.
    pub(crate) fn partition_replica(&self, idx: usize, partitioned: bool) -> Result<()> {
        if idx >= self.ctls.len() {
            return Err(Error::NotFound(format!("orderer replica {idx}")));
        }
        self.net
            .set_partitioned(&replica_endpoint(idx), partitioned);
        Ok(())
    }
}

fn replica_endpoint(i: usize) -> String {
    format!("bft-replica-{i}")
}

/// The view-change voter claiming the highest delivered height — the
/// best peer for a catching-up new leader to fetch from.
fn best_claimant(votes: &BTreeMap<usize, VcInfo>) -> Option<usize> {
    votes
        .iter()
        .max_by_key(|(_, i)| i.last_delivered)
        .map(|(idx, _)| *idx)
}

/// Start `config.orderers` BFT replicas. `input` feeds client submissions
/// (broadcast to every replica; the current leader proposes them).
pub fn start(
    config: &OrderingConfig,
    certs: &Arc<CertificateRegistry>,
    keys: Vec<Arc<KeyPair>>,
    subscribers: BlockSubscribers,
    height: Arc<AtomicU64>,
    stats: Arc<OrderingStats>,
    input: Receiver<Input>,
) -> BftHandle {
    let n = config.orderers;
    let net: Arc<SimNetwork<BftMsg>> = SimNetwork::new(config.net_profile);
    let stop = Arc::new(AtomicBool::new(false));

    let mut rxs = Vec::with_capacity(n);
    for i in 0..n {
        rxs.push(net.register(replica_endpoint(i)));
    }
    let mut ctls = Vec::with_capacity(n);
    for (i, rx) in rxs.into_iter().enumerate() {
        let ctl = ReplicaCtl {
            stop: Arc::new(AtomicBool::new(false)),
            stalled: Arc::new(AtomicBool::new(false)),
        };
        let replica = Replica {
            idx: i,
            n,
            f: (n.saturating_sub(1)) / 3,
            key: Arc::clone(&keys[i]),
            net: Arc::clone(&net),
            msg_cost: config.bft_msg_cost,
            view_change_timeout: config.view_change_timeout,
            subscribers: Arc::clone(&subscribers),
            height: Arc::clone(&height),
            stats: Arc::clone(&stats),
            stop: Arc::clone(&stop),
            my_stop: Arc::clone(&ctl.stop),
            my_stall: Arc::clone(&ctl.stalled),
            consensus_label: config.kind.as_str(),
        };
        ctls.push(ctl);
        let pool = TxPool {
            cutter: BlockCutter::new(config.block_size, config.block_timeout)
                .clocked_by(Arc::clone(certs)),
            ids: HashSet::new(),
        };
        std::thread::Builder::new()
            .name(format!("bft-replica-{i}"))
            .spawn(move || replica.run(rx, pool))
            .expect("spawn bft replica");
    }

    // Input pump: broadcasts client submissions to every replica (the
    // BFT-SMaRt client behavior), so a view change never strands pending
    // transactions with a dead leader.
    let pump_net = Arc::clone(&net);
    let pump_stop = Arc::clone(&stop);
    std::thread::Builder::new()
        .name("bft-input-pump".into())
        .spawn(move || {
            for msg in input.iter() {
                if pump_stop.load(Ordering::Relaxed) {
                    return;
                }
                let (wire, size) = match msg {
                    Input::Tx(tx) => {
                        let size = tx.encoded_len();
                        (BftMsg::Forward(tx), size)
                    }
                    Input::Vote(v) => {
                        let size = v.encoded_len();
                        (BftMsg::ForwardVote(v), size)
                    }
                    Input::Stop => return,
                };
                let _ = pump_net.broadcast("client-gateway", &wire, size);
            }
        })
        .expect("spawn bft input pump");

    BftHandle { net, stop, ctls }
}

/// Pending transactions and checkpoint votes a replica holds until they
/// appear in a delivered block (every replica pools the broadcast
/// forwards and hears every vote; only the current leader cuts).
struct TxPool {
    cutter: BlockCutter,
    ids: HashSet<GlobalTxId>,
}

impl TxPool {
    /// Pool a forwarded transaction; returns true when this made the pool
    /// non-empty (arming the progress timer).
    fn push_tx(&mut self, tx: Transaction, now: Instant) -> bool {
        if !self.ids.insert(tx.id) {
            return false;
        }
        let was_empty = self.is_empty();
        self.cutter.hold_tx(tx, now);
        was_empty
    }

    fn is_empty(&self) -> bool {
        self.cutter.pending_len() == 0
    }

    /// The leader's cut decision: up to `block_size` transactions plus
    /// all pending votes, when one of the cutter's rules fires.
    fn poll(&mut self, now: Instant) -> Option<Cut> {
        let cut = self.cutter.poll(now)?;
        for tx in &cut.txs {
            self.ids.remove(&tx.id);
        }
        Some(cut)
    }

    /// Remove everything a delivered block made redundant.
    fn remove_delivered(&mut self, block: &Block) {
        self.cutter.delivered(block);
        for tx in &block.txs {
            self.ids.remove(&tx.id);
        }
    }

    fn clear(&mut self) {
        self.cutter.clear();
        self.ids.clear();
    }
}

/// One consensus instance (one height). Votes are only valid within the
/// view recorded here; a vote arriving in a newer view lazily resets the
/// instance (the new leader re-proposes, PBFT's new-view behavior).
#[derive(Default)]
struct RoundState {
    view: u64,
    block: Option<Arc<Block>>,
    prepares: HashSet<usize>,
    commits: HashSet<usize>,
    sent_commit: bool,
}

/// A view-change vote's payload. `at` bounds its lifetime: a stale vote
/// (an old transient timeout, long since healed) must not combine with a
/// fresh one to reach the f+1 join threshold and rotate a healthy leader.
struct VcInfo {
    last_delivered: BlockHeight,
    in_flight: Option<Arc<Block>>,
    at: Instant,
}

struct Replica {
    idx: usize,
    n: usize,
    f: usize,
    key: Arc<KeyPair>,
    net: Arc<SimNetwork<BftMsg>>,
    msg_cost: Duration,
    view_change_timeout: Duration,
    subscribers: BlockSubscribers,
    height: Arc<AtomicU64>,
    stats: Arc<OrderingStats>,
    stop: Arc<AtomicBool>,
    my_stop: Arc<AtomicBool>,
    my_stall: Arc<AtomicBool>,
    consensus_label: &'static str,
}

/// The mutable per-replica protocol state (owned by the replica thread).
struct ReplicaState {
    view: u64,
    /// Highest view this replica has broadcast a VIEW-CHANGE vote for.
    voted_view: u64,
    last_delivered: BlockHeight,
    prev_hash: Digest,
    pool: TxPool,
    rounds: BTreeMap<BlockHeight, RoundState>,
    /// View-change votes by proposed view.
    vc_votes: BTreeMap<u64, BTreeMap<usize, VcInfo>>,
    /// Recently delivered blocks, retained to serve `FetchDelivered`.
    delivered_log: BTreeMap<BlockHeight, Arc<Block>>,
    /// Transaction ids already ordered into delivered blocks (dedup for
    /// late forwards and re-proposals).
    delivered_ids: HashSet<GlobalTxId>,
    /// Checkpoint votes already embedded in delivered blocks. Keyed by
    /// (node, height, hash): a *corrected* re-vote with a different hash
    /// for the same height must still be embedded (the divergence-heal
    /// path the CheckpointTracker implements), exactly as the solo/Kafka
    /// cutter would.
    seen_votes: HashSet<(String, BlockHeight, Digest)>,
    /// Round-robin cursor for single-target `FetchDelivered` probes.
    next_fetch: usize,
    /// Height this replica proposed and has not yet delivered (leaders
    /// run one consensus instance at a time).
    in_flight: Option<BlockHeight>,
    /// Progress deadline: exceeded while work is pending → view change.
    deadline: Instant,
    /// A new leader waiting for `FetchDelivered` catch-up before it can
    /// install its view: `(view, target height, collected votes)`.
    pending_new_view: Option<(u64, BlockHeight, BTreeMap<usize, VcInfo>)>,
}

impl Replica {
    fn leader_of(&self, view: u64) -> usize {
        (view % self.n as u64) as usize
    }

    fn is_leader(&self, st: &ReplicaState) -> bool {
        self.leader_of(st.view) == self.idx
    }

    /// Leaders run one consensus instance at a time, and a new leader
    /// proposes nothing until it has caught up.
    fn may_propose(&self, st: &ReplicaState) -> bool {
        self.is_leader(st) && st.in_flight.is_none() && st.pending_new_view.is_none()
    }

    fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    fn broadcast(&self, msg: BftMsg, size: usize) {
        for j in 0..self.n {
            if j != self.idx {
                let _ = self.net.send(
                    &replica_endpoint(self.idx),
                    &replica_endpoint(j),
                    msg.clone(),
                    size,
                );
            }
        }
    }

    fn pay_cost(&self) {
        if !self.msg_cost.is_zero() {
            std::thread::sleep(self.msg_cost);
        }
    }

    /// A view-change vote older than this cannot combine with fresh ones:
    /// genuine rotations collect their quorum within about one timeout,
    /// so three is a comfortable envelope.
    fn vc_vote_ttl(&self) -> Duration {
        self.view_change_timeout * 3
    }

    /// Ask **one** peer for delivered blocks above our tip. `preferred`
    /// targets a replica known to hold them (a view-change vote's
    /// claimant, or the current leader); otherwise — or when the
    /// preferred endpoint is gone — rotate round-robin across the other
    /// replicas, skipping dead endpoints. Probes repeat on the progress
    /// timer, so a stalled target only delays by one period; paying one
    /// message instead of a broadcast avoids n-1 identical block batches
    /// in response.
    fn fetch_delivered_from(&self, st: &mut ReplicaState, preferred: Option<usize>) {
        let msg = BftMsg::FetchDelivered {
            from_height: st.last_delivered,
        };
        if let Some(t) = preferred {
            if t != self.idx
                && self
                    .net
                    .send(
                        &replica_endpoint(self.idx),
                        &replica_endpoint(t),
                        msg.clone(),
                        16,
                    )
                    .is_ok()
            {
                return;
            }
        }
        for _ in 0..self.n {
            let j = st.next_fetch % self.n;
            st.next_fetch = st.next_fetch.wrapping_add(1);
            if j == self.idx || Some(j) == preferred {
                continue;
            }
            if self
                .net
                .send(
                    &replica_endpoint(self.idx),
                    &replica_endpoint(j),
                    msg.clone(),
                    16,
                )
                .is_ok()
            {
                return;
            }
        }
    }

    fn run(self, rx: Receiver<bcrdb_network::Delivered<BftMsg>>, pool: TxPool) {
        let mut st = ReplicaState {
            view: 0,
            voted_view: 0,
            last_delivered: 0,
            prev_hash: genesis_prev_hash(),
            pool,
            rounds: BTreeMap::new(),
            vc_votes: BTreeMap::new(),
            delivered_log: BTreeMap::new(),
            delivered_ids: HashSet::new(),
            seen_votes: HashSet::new(),
            next_fetch: self.idx + 1, // spread first probes around
            in_flight: None,
            // bcrdb-lint: allow(wall-clock, reason = "view-change progress deadline; replica-local")
            deadline: Instant::now() + self.view_change_timeout,
            pending_new_view: None,
        };

        loop {
            if self.stop.load(Ordering::Relaxed) || self.my_stop.load(Ordering::Relaxed) {
                return;
            }
            // Stall injection: a hung replica consumes nothing; messages
            // queue on its channel and are processed on resume.
            if self.my_stall.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }

            // A leader free to propose sleeps no longer than its cut timer.
            let mut wait = TICK;
            if self.may_propose(&st) {
                // bcrdb-lint: allow(wall-clock, reason = "leader-local cut timing; consensus agrees on the proposed block")
                if let Some(due) = st.pool.cutter.time_until_cut(Instant::now()) {
                    wait = wait.min(due);
                }
            }
            let msg = match rx.recv_timeout(wait) {
                Ok(d) => Some(d),
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => None,
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => return,
            };

            if let Some(d) = msg {
                self.on_msg(&mut st, d);
                // A Stop may have been consumed inside on_msg.
                if self.my_stop.load(Ordering::Relaxed) {
                    return;
                }
            }

            if self.may_propose(&st) {
                // bcrdb-lint: allow(wall-clock, reason = "leader-local cut timing; consensus agrees on the proposed block")
                if let Some(cut) = st.pool.poll(Instant::now()) {
                    let block = Arc::new(Block::build(
                        st.last_delivered + 1,
                        st.prev_hash,
                        cut.txs,
                        self.consensus_label,
                        cut.votes,
                    ));
                    self.stats.on_cut(cut.reason);
                    st.in_flight = Some(block.number);
                    let size = block.encoded_len();
                    let view = st.view;
                    self.broadcast(
                        BftMsg::PrePrepare {
                            view,
                            block: Arc::clone(&block),
                        },
                        size,
                    );
                    self.on_preprepare(&mut st, view, block);
                }
            }

            self.check_progress_timer(&mut st);
        }
    }

    fn on_msg(&self, st: &mut ReplicaState, d: bcrdb_network::Delivered<BftMsg>) {
        match d.msg {
            BftMsg::Stop => {
                self.my_stop.store(true, Ordering::Relaxed);
            }
            BftMsg::Forward(tx) => {
                // bcrdb-lint: allow(wall-clock, reason = "batch-age timestamp for the leader's cut decision")
                if !st.delivered_ids.contains(&tx.id) && st.pool.push_tx(*tx, Instant::now()) {
                    // Work appeared: start timing the leader from now.
                    // bcrdb-lint: allow(wall-clock, reason = "view-change progress deadline; replica-local")
                    st.deadline = Instant::now() + self.view_change_timeout;
                }
            }
            BftMsg::ForwardVote(v) => {
                if !st
                    .seen_votes
                    .contains(&(v.node.clone(), v.block, v.state_hash))
                {
                    st.pool.cutter.push_vote(v);
                }
            }
            BftMsg::PrePrepare { view, block } => {
                self.pay_cost();
                self.observe_view(st, view);
                if view == st.view && block.verify_integrity().is_ok() {
                    self.on_preprepare(st, view, block);
                }
            }
            BftMsg::Prepare {
                view,
                number,
                hash,
                from,
            } => {
                self.pay_cost();
                self.observe_view(st, view);
                if view == st.view {
                    self.on_prepare(st, number, hash, from);
                }
            }
            BftMsg::Commit {
                view,
                number,
                hash: _,
                from,
            } => {
                self.pay_cost();
                self.observe_view(st, view);
                if view == st.view {
                    self.on_commit(st, number, from);
                }
            }
            BftMsg::ViewChange {
                new_view,
                from,
                last_delivered,
                in_flight,
            } => {
                self.pay_cost();
                self.on_view_change(
                    st,
                    new_view,
                    from,
                    VcInfo {
                        last_delivered,
                        in_flight,
                        // bcrdb-lint: allow(wall-clock, reason = "view-change vote freshness TTL; replica-local")
                        at: Instant::now(),
                    },
                );
            }
            BftMsg::NewView { view, proposals } => {
                self.pay_cost();
                // NEW-VIEW is direct evidence the view is active.
                self.observe_view(st, view);
                if view == st.view {
                    for block in proposals {
                        if block.verify_integrity().is_ok() {
                            self.on_preprepare(st, view, block);
                        }
                    }
                }
            }
            BftMsg::FetchDelivered { from_height } => {
                let mut blocks = Vec::new();
                let mut next = from_height + 1;
                // Deep lag: when the requester's next block was already
                // pruned from our bounded log, serve the log's earliest
                // retained suffix instead — the requester fast-forwards
                // onto it and the skipped range is healed downstream by
                // node-level peer catch-up.
                if let Some(earliest) = st.delivered_log.keys().next() {
                    next = next.max(*earliest);
                }
                while blocks.len() < FETCH_BATCH {
                    match st.delivered_log.get(&next) {
                        Some(b) => blocks.push(Arc::clone(b)),
                        None => break,
                    }
                    next += 1;
                }
                if !blocks.is_empty() {
                    let size: usize = blocks.iter().map(|b| b.encoded_len()).sum();
                    let _ = self.net.send(
                        &replica_endpoint(self.idx),
                        &d.from,
                        BftMsg::DeliveredBlocks { blocks },
                        size,
                    );
                }
            }
            BftMsg::DeliveredBlocks { blocks } => {
                let full_batch = blocks.len() == FETCH_BATCH;
                for block in blocks {
                    if block.number == st.last_delivered + 1
                        && block.prev_hash == st.prev_hash
                        && block.verify_integrity().is_ok()
                    {
                        self.deliver(st, block);
                    } else if block.number > st.last_delivered + 1
                        && block.verify_integrity().is_ok()
                    {
                        // The serving peer no longer retains our next
                        // block (we lagged beyond its DELIVERED_LOG_CAP):
                        // fast-forward onto the offered suffix. Skipped
                        // heights never reach our subscribers — their
                        // nodes see the delivery gap and run peer
                        // catch-up, the designed heal for splice holes.
                        // The pool is dropped wholesale: anything pooled
                        // across such a long outage was almost certainly
                        // ordered in a skipped block, and re-proposing it
                        // would duplicate (clients retry real losses).
                        st.last_delivered = block.number - 1;
                        st.prev_hash = block.prev_hash;
                        st.rounds.retain(|n, _| *n >= block.number);
                        st.pool.clear();
                        self.deliver(st, block);
                    }
                }
                self.maybe_finish_pending_new_view(st);
                // Catching up may have unblocked buffered rounds.
                self.try_deliver_sequential(st);
                // A full batch means the serving peer likely holds more:
                // chain the next request immediately instead of pacing a
                // deep catch-up at one batch per progress-timer period.
                if full_batch {
                    let _ = self.net.send(
                        &replica_endpoint(self.idx),
                        &d.from,
                        BftMsg::FetchDelivered {
                            from_height: st.last_delivered,
                        },
                        16,
                    );
                }
            }
        }
    }

    /// Adopt a higher view advertised by a consensus message (honest
    /// replicas only advance views through the protocol, so any message
    /// from view `v` proves `v` was installed somewhere).
    fn observe_view(&self, st: &mut ReplicaState, view: u64) {
        if view > st.view {
            self.enter_view(st, view, None);
        }
    }

    /// Install `view`. `votes` carries the view-change votes when we are
    /// entering through a view-change quorum (the new leader needs them
    /// for re-proposal).
    fn enter_view(&self, st: &mut ReplicaState, view: u64, votes: Option<BTreeMap<usize, VcInfo>>) {
        st.view = view;
        st.voted_view = st.voted_view.max(view);
        // bcrdb-lint: allow(wall-clock, reason = "view-change progress deadline; replica-local")
        st.deadline = Instant::now() + self.view_change_timeout;
        st.pending_new_view = None;
        st.in_flight = None;
        st.vc_votes.retain(|v, _| *v > view);
        let prev = self.stats.current_view.fetch_max(view, Ordering::Relaxed);
        if prev < view {
            self.stats.view_changes.fetch_add(1, Ordering::Relaxed);
        }

        if self.leader_of(view) == self.idx {
            let votes = votes.unwrap_or_default();
            // If any voter delivered beyond us, catch up before leading:
            // proposing over a stale tip would fork the chain. Fetch
            // from the voter that claims the highest tip.
            let target = votes
                .values()
                .map(|i| i.last_delivered)
                .max()
                .unwrap_or(0)
                .max(st.last_delivered);
            if target > st.last_delivered {
                let claimant = best_claimant(&votes);
                self.fetch_delivered_from(st, claimant);
                st.pending_new_view = Some((view, target, votes));
            } else {
                self.finish_new_view(st, view, &votes);
            }
        }
    }

    /// The new leader is caught up: install the view for everyone and
    /// re-propose the carried in-flight block, if any.
    fn finish_new_view(&self, st: &mut ReplicaState, view: u64, votes: &BTreeMap<usize, VcInfo>) {
        let next = st.last_delivered + 1;
        // Prefer a carried in-flight proposal for the next height; fall
        // back to our own round state (we may hold the proposal even if
        // no vote carried it).
        let re_proposal = votes
            .values()
            .filter_map(|i| i.in_flight.as_ref())
            .find(|b| b.number == next)
            .cloned()
            .or_else(|| st.rounds.get(&next).and_then(|r| r.block.as_ref()).cloned());
        let proposals: Vec<Arc<Block>> = re_proposal.into_iter().collect();
        let size = 16 + proposals.iter().map(|b| b.encoded_len()).sum::<usize>();
        self.broadcast(
            BftMsg::NewView {
                view,
                proposals: proposals.clone(),
            },
            size,
        );
        for block in proposals {
            st.in_flight = Some(block.number);
            self.on_preprepare(st, view, block);
        }
    }

    fn maybe_finish_pending_new_view(&self, st: &mut ReplicaState) {
        if let Some((view, target, _)) = &st.pending_new_view {
            if st.view == *view && st.last_delivered >= *target {
                let (view, _, votes) = st.pending_new_view.take().expect("checked above");
                self.finish_new_view(st, view, &votes);
            } else if st.view != *view {
                st.pending_new_view = None;
            }
        }
    }

    fn on_view_change(&self, st: &mut ReplicaState, new_view: u64, from: usize, info: VcInfo) {
        if new_view <= st.view {
            return;
        }
        st.vc_votes.entry(new_view).or_default().insert(from, info);
        let count = self.live_vc_votes(st, new_view);
        // Join rule: f+1 distinct (fresh) votes prove at least one honest
        // replica timed out — join them so a live minority cannot stall.
        // Deliberately independent of `voted_view`: a replica whose own
        // votes escalated to higher views while it was isolated must
        // still be able to join a fresh quorum forming on a lower view,
        // or the two sides could escalate in lockstep forever. The only
        // guard is against re-voting the same view.
        let already_voted = st
            .vc_votes
            .get(&new_view)
            .is_some_and(|m| m.contains_key(&self.idx));
        if count > self.f && !already_voted {
            self.send_view_change(st, new_view);
        }
        let count = self.live_vc_votes(st, new_view);
        if count >= self.quorum() {
            let votes = st.vc_votes.remove(&new_view).expect("counted above");
            self.enter_view(st, new_view, Some(votes));
        }
    }

    /// Count votes for `new_view`, first expiring the stale ones — two
    /// transient timeouts far apart in time must not sum to a quorum.
    fn live_vc_votes(&self, st: &mut ReplicaState, new_view: u64) -> usize {
        let ttl = self.vc_vote_ttl();
        match st.vc_votes.get_mut(&new_view) {
            Some(m) => {
                m.retain(|_, i| i.at.elapsed() < ttl);
                m.len()
            }
            None => 0,
        }
    }

    fn send_view_change(&self, st: &mut ReplicaState, new_view: u64) {
        st.voted_view = st.voted_view.max(new_view);
        let in_flight = st
            .rounds
            .get(&(st.last_delivered + 1))
            .and_then(|r| r.block.as_ref())
            .cloned();
        let size = 32 + in_flight.as_ref().map_or(0, |b| b.encoded_len());
        self.broadcast(
            BftMsg::ViewChange {
                new_view,
                from: self.idx,
                last_delivered: st.last_delivered,
                in_flight: in_flight.clone(),
            },
            size,
        );
        // Count our own vote (may already complete the quorum when f=0).
        st.vc_votes.entry(new_view).or_default().insert(
            self.idx,
            VcInfo {
                last_delivered: st.last_delivered,
                in_flight,
                // bcrdb-lint: allow(wall-clock, reason = "view-change vote freshness TTL; replica-local")
                at: Instant::now(),
            },
        );
        let count = self.live_vc_votes(st, new_view);
        if count >= self.quorum() && new_view > st.view {
            let votes = st.vc_votes.remove(&new_view).expect("counted above");
            self.enter_view(st, new_view, Some(votes));
        }
    }

    /// Work is pending and the leader made no progress for a full
    /// timeout: vote the leader out (and probe peers for delivered
    /// blocks, in case we are merely behind rather than leaderless).
    fn check_progress_timer(&self, st: &mut ReplicaState) {
        // bcrdb-lint: allow(wall-clock, reason = "view-change progress check; replica-local")
        let now = Instant::now();
        if now < st.deadline {
            return;
        }
        st.deadline = now + self.view_change_timeout;
        // A new leader stuck waiting for catch-up re-probes instead.
        if st.pending_new_view.is_some() {
            let claimant = st
                .pending_new_view
                .as_ref()
                .and_then(|(_, _, votes)| best_claimant(votes));
            self.fetch_delivered_from(st, claimant);
            return;
        }
        if self.is_leader(st) {
            return; // a leader cannot suspect itself
        }
        let has_work = !st.pool.is_empty()
            || st
                .rounds
                .iter()
                .any(|(n, r)| *n > st.last_delivered && r.block.is_some());
        if !has_work {
            return;
        }
        // Probe first: if blocks were delivered elsewhere this heals
        // without a rotation, and the premature view-change vote below
        // expires before it can combine with a later one.
        self.fetch_delivered_from(st, None);
        let target = st.voted_view.max(st.view) + 1;
        self.send_view_change(st, target);
    }

    /// Lazily reset a round whose votes belong to an older view (the new
    /// leader re-proposes; stale proposals and votes must not count).
    fn fresh_round(
        rounds: &mut BTreeMap<BlockHeight, RoundState>,
        number: BlockHeight,
        view: u64,
    ) -> &mut RoundState {
        let state = rounds.entry(number).or_default();
        if state.view != view {
            state.view = view;
            state.block = None;
            state.prepares.clear();
            state.commits.clear();
            state.sent_commit = false;
        }
        state
    }

    fn on_preprepare(&self, st: &mut ReplicaState, view: u64, block: Arc<Block>) {
        let number = block.number;
        let hash = block.hash;
        if number <= st.last_delivered {
            // Already delivered here (a NEW-VIEW re-proposal): re-affirm
            // with current-view votes so lagging replicas reach quorum.
            if st
                .delivered_log
                .get(&number)
                .is_some_and(|b| b.hash == hash)
            {
                self.broadcast(
                    BftMsg::Prepare {
                        view,
                        number,
                        hash,
                        from: self.idx,
                    },
                    64,
                );
                self.broadcast(
                    BftMsg::Commit {
                        view,
                        number,
                        hash,
                        from: self.idx,
                    },
                    64,
                );
            }
            return;
        }
        let state = Self::fresh_round(&mut st.rounds, number, view);
        if let Some(existing) = &state.block {
            if existing.hash != hash {
                return; // conflicting same-view proposal: ignore
            }
        } else {
            state.block = Some(block);
        }
        if state.prepares.insert(self.idx) {
            self.broadcast(
                BftMsg::Prepare {
                    view,
                    number,
                    hash,
                    from: self.idx,
                },
                64,
            );
        }
        self.check_prepared(st, number, hash);
    }

    fn on_prepare(&self, st: &mut ReplicaState, number: BlockHeight, hash: Digest, from: usize) {
        if number <= st.last_delivered {
            return;
        }
        let view = st.view;
        let state = Self::fresh_round(&mut st.rounds, number, view);
        state.prepares.insert(from);
        self.check_prepared(st, number, hash);
    }

    fn check_prepared(&self, st: &mut ReplicaState, number: BlockHeight, hash: Digest) {
        let view = st.view;
        let state = Self::fresh_round(&mut st.rounds, number, view);
        // Prepared once we hold the proposal and 2f+1 matching PREPAREs
        // (our own included).
        if !state.sent_commit && state.block.is_some() && state.prepares.len() > 2 * self.f {
            state.sent_commit = true;
            state.commits.insert(self.idx);
            self.broadcast(
                BftMsg::Commit {
                    view,
                    number,
                    hash,
                    from: self.idx,
                },
                64,
            );
            // With f = 0 our own commit may already complete the quorum.
            self.try_deliver_sequential(st);
        }
    }

    fn on_commit(&self, st: &mut ReplicaState, number: BlockHeight, from: usize) {
        if number <= st.last_delivered {
            return;
        }
        let view = st.view;
        let state = Self::fresh_round(&mut st.rounds, number, view);
        state.commits.insert(from);
        self.try_deliver_sequential(st);
        // Commit quorum for a future height while the next block is
        // stuck: we fell behind (e.g. joined the view late and missed
        // votes) — fetch delivered blocks from peers.
        if number > st.last_delivered + 1 {
            let stuck = st
                .rounds
                .get(&number)
                .is_some_and(|r| r.commits.len() >= self.quorum() && r.block.is_some());
            if stuck {
                // The current leader is the peer most likely to have
                // delivered the heights we are missing.
                let leader = self.leader_of(st.view);
                self.fetch_delivered_from(st, Some(leader));
            }
        }
    }

    /// Deliver every consecutive height that reached its commit quorum.
    /// Delivery is strictly sequential so each replica's chain is gapless
    /// and `prev_hash` tracking stays sound across leader rotations.
    fn try_deliver_sequential(&self, st: &mut ReplicaState) {
        loop {
            let next = st.last_delivered + 1;
            let ready = match st.rounds.get(&next) {
                Some(r) => r.block.is_some() && r.commits.len() >= self.quorum(),
                None => false,
            };
            if !ready {
                return;
            }
            let block = st
                .rounds
                .get(&next)
                .and_then(|r| r.block.clone())
                .expect("checked above");
            self.deliver(st, block);
        }
    }

    fn deliver(&self, st: &mut ReplicaState, block: Arc<Block>) {
        let number = block.number;
        st.last_delivered = number;
        st.prev_hash = block.hash;
        st.pool.remove_delivered(&block);
        for tx in &block.txs {
            st.delivered_ids.insert(tx.id);
        }
        for cv in &block.checkpoints {
            st.seen_votes
                .insert((cv.node.clone(), cv.block, cv.state_hash));
        }
        st.delivered_log.insert(number, Arc::clone(&block));
        while st.delivered_log.len() > DELIVERED_LOG_CAP {
            let oldest = *st.delivered_log.keys().next().expect("non-empty");
            let evicted = st.delivered_log.remove(&oldest).expect("keyed above");
            // The dedup sets stay bounded by pruning in lockstep with the
            // log: forwards are broadcast at submission and delivered
            // within seconds, so nothing legitimately arrives ≥ 128
            // blocks after its delivery.
            for tx in &evicted.txs {
                st.delivered_ids.remove(&tx.id);
            }
            for cv in &evicted.checkpoints {
                st.seen_votes
                    .remove(&(cv.node.clone(), cv.block, cv.state_hash));
            }
        }
        st.rounds.retain(|n, _| *n > number);
        if st.in_flight == Some(number) {
            st.in_flight = None;
        }
        // bcrdb-lint: allow(wall-clock, reason = "view-change progress deadline; replica-local")
        st.deadline = Instant::now() + self.view_change_timeout;

        deliver_block(&block, self.idx, &self.key, &self.subscribers);
        // Count each block once, globally: the first replica to deliver
        // height h advances the shared counter and owns the stats bump.
        let prev = self.height.fetch_max(number, Ordering::Relaxed);
        if prev < number {
            self.stats.blocks.fetch_add(1, Ordering::Relaxed);
            self.stats
                .txs
                .fetch_add(block.txs.len() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrderingConfig;
    use crate::service::OrderingService;
    use bcrdb_chain::tx::Payload;
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{Certificate, CertificateRegistry, Role, Scheme};
    use bcrdb_network::NetProfile;

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

    fn bft_config(n: usize) -> OrderingConfig {
        let mut c = OrderingConfig::bft(n, 3, Duration::from_millis(100));
        c.bft_msg_cost = Duration::from_micros(100); // fast tests
        c.view_change_timeout = Duration::from_millis(300);
        c.net_profile = NetProfile::instant();
        c
    }

    /// Wait until `cond` holds or panic after `secs` seconds.
    fn wait_until(secs: u64, what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn four_replicas_reach_agreement() {
        let (key, certs) = client();
        let svc = OrderingService::start(bft_config(4), &certs);
        let rx0 = svc.subscribe_to(0);
        let rx3 = svc.subscribe_to(3);
        for i in 0..6 {
            svc.submit(tx(&key, i)).unwrap();
        }
        for expected in 1..=2u64 {
            let b0 = rx0.recv_timeout(Duration::from_secs(5)).unwrap();
            let b3 = rx3.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(b0.number, expected);
            assert_eq!(b0.hash, b3.hash, "replicas deliver the identical block");
            assert_eq!(b0.consensus, "bft");
        }
        svc.shutdown();
    }

    #[test]
    fn single_replica_degenerates_to_solo() {
        let (key, certs) = client();
        let svc = OrderingService::start(bft_config(1), &certs);
        let rx = svc.subscribe();
        for i in 0..3 {
            svc.submit(tx(&key, i)).unwrap();
        }
        let b = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(b.number, 1);
        assert_eq!(b.txs.len(), 3);
        svc.shutdown();
    }

    #[test]
    fn timeout_cut_works_under_bft() {
        let (key, certs) = client();
        let mut cfg = bft_config(4);
        cfg.block_size = 1000;
        cfg.block_timeout = Duration::from_millis(50);
        let svc = OrderingService::start(cfg, &certs);
        let rx = svc.subscribe();
        svc.submit(tx(&key, 1)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(b.txs.len(), 1);
        svc.shutdown();
    }

    #[test]
    fn timer_cut_is_proposed_when_it_expires_not_a_tick_later() {
        let (key, certs) = client();
        let mut cfg = bft_config(4);
        cfg.block_size = 1000;
        cfg.block_timeout = Duration::from_millis(22);
        let svc = OrderingService::start(cfg, &certs);
        let rx = svc.subscribe();
        let t0 = Instant::now();
        svc.submit(tx(&key, 1)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let took = t0.elapsed();
        assert_eq!(b.txs.len(), 1);
        // 22 ms of timer plus a round of under 2 ms. A leader that looks
        // at its pool once per 20 ms tick proposes at 40 ms.
        assert!(took >= Duration::from_millis(22), "{took:?}");
        assert!(took < Duration::from_millis(40), "{took:?}");
        svc.shutdown();
    }

    #[test]
    fn leader_crash_triggers_view_change_and_blocks_resume() {
        let (key, certs) = client();
        let mut cfg = bft_config(4);
        cfg.block_size = 2;
        let svc = OrderingService::start(cfg, &certs);
        // Subscribe via replica 3 (stays alive throughout).
        let rx = svc.subscribe_to(3);
        for i in 0..2 {
            svc.submit(tx(&key, i)).unwrap();
        }
        let b1 = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(b1.number, 1);
        assert_eq!(svc.current_view(), 0);

        // Kill the leader of view 0; pending work forces a rotation.
        svc.stop_orderer(0).unwrap();
        for i in 10..12 {
            svc.submit(tx(&key, i)).unwrap();
        }
        let b2 = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(b2.number, 2, "block production resumed after failover");
        assert_eq!(
            b2.prev_hash, b1.hash,
            "chain is gapless across the view change"
        );
        assert!(svc.current_view() >= 1, "a view change was installed");
        let stats = svc.stats_snapshot();
        assert!(stats.view_changes >= 1);
        assert_eq!(stats.delivered, 2);
        svc.shutdown();
    }

    #[test]
    fn stalled_leader_is_voted_out_and_recovers_as_backup() {
        let (key, certs) = client();
        let mut cfg = bft_config(4);
        cfg.block_size = 2;
        let svc = OrderingService::start(cfg, &certs);
        let rx = svc.subscribe_to(2);

        // Stall the leader before any traffic; submissions then pile up
        // at the backups until the timer fires.
        svc.stall_orderer(0).unwrap();
        for i in 0..2 {
            svc.submit(tx(&key, i)).unwrap();
        }
        let b1 = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(b1.number, 1, "backups ordered the block without the leader");
        assert!(svc.current_view() >= 1);

        // Resume the old leader: it adopts the new view from queued
        // traffic and participates again as a backup.
        svc.unstall_orderer(0).unwrap();
        for i in 10..12 {
            svc.submit(tx(&key, i)).unwrap();
        }
        let b2 = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(b2.number, 2);
        assert_eq!(b2.prev_hash, b1.hash);
        svc.shutdown();
    }

    #[test]
    fn successive_leader_failures_rotate_twice() {
        let (key, certs) = client();
        let mut cfg = bft_config(7); // f = 2: survives two crashed leaders
        cfg.block_size = 1;
        let svc = OrderingService::start(cfg, &certs);
        let rx = svc.subscribe_to(6);

        svc.submit(tx(&key, 0)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().number, 1);

        svc.stop_orderer(0).unwrap();
        svc.submit(tx(&key, 1)).unwrap();
        let b2 = rx.recv_timeout(Duration::from_secs(15)).unwrap();
        assert_eq!(b2.number, 2);
        let view_after_first = svc.current_view();
        assert!(view_after_first >= 1);

        // Kill the *current* leader too.
        let leader = (view_after_first as usize) % 7;
        svc.stop_orderer(leader).unwrap();
        svc.submit(tx(&key, 2)).unwrap();
        let b3 = rx.recv_timeout(Duration::from_secs(15)).unwrap();
        assert_eq!(b3.number, 3);
        assert!(svc.current_view() > view_after_first);
        svc.shutdown();
    }

    #[test]
    fn no_transaction_lost_or_duplicated_across_failover() {
        let (key, certs) = client();
        let mut cfg = bft_config(4);
        cfg.block_size = 4;
        cfg.block_timeout = Duration::from_millis(60);
        let svc = OrderingService::start(cfg, &certs);
        let rx = svc.subscribe_to(1);

        let total: u64 = 20;
        for i in 0..total / 2 {
            svc.submit(tx(&key, i)).unwrap();
        }
        // Kill the leader mid-stream, then keep submitting.
        std::thread::sleep(Duration::from_millis(30));
        svc.stop_orderer(0).unwrap();
        for i in total / 2..total {
            svc.submit(tx(&key, i)).unwrap();
        }

        let mut seen: Vec<u64> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut expected_number = 1;
        while (seen.len() as u64) < total && Instant::now() < deadline {
            if let Ok(b) = rx.recv_timeout(Duration::from_millis(200)) {
                assert_eq!(b.number, expected_number, "delivery is gapless");
                expected_number += 1;
                for t in &b.txs {
                    let n = t.payload.args[0].clone();
                    if let Value::Int(n) = n {
                        seen.push(n as u64);
                    }
                }
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            seen.len(),
            "no transaction ordered twice: {seen:?}"
        );
        assert_eq!(
            sorted,
            (0..total).collect::<Vec<u64>>(),
            "every submitted transaction was ordered exactly once"
        );
        svc.shutdown();
    }

    #[test]
    fn deep_lag_fast_forwards_past_pruned_history() {
        let (key, certs) = client();
        let mut cfg = bft_config(4);
        cfg.block_size = 1;
        cfg.bft_msg_cost = Duration::ZERO;
        let svc = OrderingService::start(cfg, &certs);
        let rx3 = svc.subscribe_to(3);
        svc.submit(tx(&key, 0)).unwrap();
        assert_eq!(rx3.recv_timeout(Duration::from_secs(5)).unwrap().number, 1);

        // Cut replica 3 off (messages dropped, not queued) and run the
        // network far past DELIVERED_LOG_CAP, so on heal its next block
        // is pruned from every peer's log.
        svc.partition_orderer(3, true).unwrap();
        let total = (DELIVERED_LOG_CAP as u64) + 13;
        for i in 1..=total {
            svc.submit(tx(&key, i)).unwrap();
        }
        wait_until(30, "network to run ahead", || svc.stats().0 >= total);

        svc.partition_orderer(3, false).unwrap();
        // Trickle fresh traffic: each new block gives the lagging replica
        // stuck commit quorums (and timer probes) that trigger fetches.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut extra = 0u64;
        let caught_up = loop {
            assert!(Instant::now() < deadline, "replica 3 never fast-forwarded");
            svc.submit(tx(&key, 10_000 + extra)).unwrap();
            extra += 1;
            match rx3.recv_timeout(Duration::from_millis(300)) {
                // The first post-heal delivery must have jumped past the
                // pruned range — block 2 is gone from every peer.
                Ok(b) => break b,
                Err(_) => continue,
            }
        };
        assert!(
            caught_up.number > 2,
            "fast-forward must skip pruned history, got block {}",
            caught_up.number
        );
        // And from there delivery is sequential again up to live traffic.
        let mut expected = caught_up.number + 1;
        let deadline = Instant::now() + Duration::from_secs(30);
        while expected <= total && Instant::now() < deadline {
            if let Ok(b) = rx3.recv_timeout(Duration::from_millis(300)) {
                assert_eq!(b.number, expected, "post-fast-forward delivery is gapless");
                expected += 1;
            } else {
                svc.submit(tx(&key, 20_000 + extra)).unwrap();
                extra += 1;
            }
        }
        assert!(expected > total, "replica 3 reached live height");
        svc.shutdown();
    }

    #[test]
    fn idle_network_does_not_rotate_views() {
        let (_key, certs) = client();
        let svc = OrderingService::start(bft_config(4), &certs);
        let _rx = svc.subscribe();
        // Several timeout periods with no traffic: nothing to suspect the
        // leader over, so the view must stay put.
        std::thread::sleep(Duration::from_millis(900));
        assert_eq!(svc.current_view(), 0);
        assert_eq!(svc.stats_snapshot().view_changes, 0);
        svc.shutdown();
    }

    #[test]
    fn subscribers_of_a_dead_orderer_are_rehomed() {
        let (key, certs) = client();
        let mut cfg = bft_config(4);
        cfg.block_size = 1;
        let svc = OrderingService::start(cfg, &certs);
        // Subscribed to replica 0 — the leader we are about to kill.
        let rx = svc.subscribe_to(0);
        svc.submit(tx(&key, 0)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().number, 1);

        svc.stop_orderer(0).unwrap();
        svc.submit(tx(&key, 1)).unwrap();
        // The subscription now feeds from a live replica; block 2 still
        // arrives (possibly after a duplicate of an earlier block, which
        // downstream consumers drop by height).
        wait_until(
            15,
            "re-homed delivery",
            || matches!(rx.recv_timeout(Duration::from_millis(200)), Ok(b) if b.number == 2),
        );
        svc.shutdown();
    }

    #[test]
    fn throughput_degrades_with_replica_count() {
        // A miniature Fig 8(b): identical offered load, 2 vs 8 replicas
        // with a non-trivial per-message cost. More replicas → more
        // messages per round → lower delivered throughput.
        let (key, _certs2) = client();
        let run = |n: usize| -> u64 {
            let certs = CertificateRegistry::new();
            let mut cfg = OrderingConfig::bft(n, 5, Duration::from_millis(20));
            cfg.bft_msg_cost = Duration::from_millis(2);
            cfg.net_profile = NetProfile::instant();
            let svc = OrderingService::start(cfg, &certs);
            let _rx = svc.subscribe();
            let deadline = Instant::now() + Duration::from_millis(600);
            let mut i = 0u64;
            while Instant::now() < deadline {
                let _ = svc.submit(tx(&key, i));
                i += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            std::thread::sleep(Duration::from_millis(300));
            let (_, txs) = svc.stats();
            svc.shutdown();
            txs
        };
        let small = run(2);
        let large = run(8);
        assert!(small > 0);
        assert!(
            large < small,
            "8 replicas ({large} txs) should order fewer than 2 replicas ({small} txs)"
        );
    }
}
