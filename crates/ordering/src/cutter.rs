//! Block cutting: batch pending transactions by size or timeout (§4.4),
//! or as soon as the database nodes have nothing left to do.
//!
//! The third rule reads a clock that already ticks: every node sends one
//! checkpoint vote per committed block, so a majority of the peers heard
//! from having voted for the last block cut means the next block would
//! start executing the moment it is delivered — waiting for the timer
//! buys nothing. A slow node votes late, so blocks grow with the load up
//! to `block_size`; a service nobody votes to is the paper's cutter.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::block::{Block, CheckpointVote};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::ids::{BlockHeight, GlobalTxId};
use bcrdb_crypto::identity::{CertificateRegistry, Role};

/// Which rule closed a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutReason {
    /// `block_size` transactions were pending.
    Size,
    /// `block_timeout` passed since the first pending transaction.
    Timeout,
    /// A majority of the voting peers had committed the last block cut.
    Idle,
}

/// A batch ready to become a block.
#[derive(Debug)]
pub struct Cut {
    /// Ordered transactions.
    pub txs: Vec<Transaction>,
    /// Checkpoint votes to embed in the block's metadata.
    pub votes: Vec<CheckpointVote>,
    /// The rule that fired.
    pub reason: CutReason,
}

/// Accumulates transactions and checkpoint votes; cuts when the batch
/// reaches `block_size`, when `timeout` has passed since the first
/// pending transaction, or when something is pending and downstream is
/// idle.
pub struct BlockCutter {
    block_size: usize,
    timeout: Duration,
    pending: Vec<Transaction>,
    votes: Vec<CheckpointVote>,
    first_at: Option<Instant>,
    /// Who may clock the idle rule: names registered here with
    /// [`Role::Peer`]. `None` (a bare [`BlockCutter::new`]) counts nobody.
    peers: Option<Arc<CertificateRegistry>>,
    /// Highest height each such peer has voted for — one entry per
    /// registered peer name, so the registry bounds the table.
    voted: BTreeMap<String, BlockHeight>,
    /// Number of the last block cut here or, under BFT, delivered by
    /// consensus whoever cut it ([`BlockCutter::delivered`]).
    tip: BlockHeight,
}

impl BlockCutter {
    /// New cutter.
    pub fn new(block_size: usize, timeout: Duration) -> BlockCutter {
        BlockCutter {
            block_size: block_size.max(1),
            timeout,
            pending: Vec::new(),
            votes: Vec::new(),
            first_at: None,
            peers: None,
            voted: BTreeMap::new(),
            tip: 0,
        }
    }

    /// Let checkpoint votes from the peers registered in `certs` clock
    /// the idle rule. Votes are unsigned and `node` is free text, so the
    /// name is looked up when the vote arrives: an unregistered sender
    /// can neither grow the table nor fake a majority.
    pub fn clocked_by(mut self, certs: Arc<CertificateRegistry>) -> BlockCutter {
        self.peers = Some(certs);
        self
    }

    /// Number of pending transactions.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Enqueue a transaction without deciding anything (a BFT replica
    /// pools while a proposal is in flight, so it may hold more than one
    /// block's worth).
    pub(crate) fn hold_tx(&mut self, tx: Transaction, now: Instant) {
        if self.pending.is_empty() {
            self.first_at = Some(now);
        }
        self.pending.push(tx);
    }

    /// Enqueue a transaction; returns a cut when the size bound is hit.
    pub fn push_tx(&mut self, tx: Transaction, now: Instant) -> Option<Cut> {
        self.hold_tx(tx, now);
        (self.pending.len() >= self.block_size).then(|| self.cut(CutReason::Size, now))
    }

    /// Enqueue a checkpoint vote (rides along with the next block). A
    /// registered peer's vote also advances that peer's height.
    pub fn push_vote(&mut self, vote: CheckpointVote) {
        let is_peer = self.peers.as_ref().is_some_and(|certs| {
            certs
                .lookup(&vote.node)
                .is_some_and(|c| c.role == Role::Peer)
        });
        if is_peer {
            let height = self.voted.entry(vote.node.clone()).or_insert(0);
            *height = (*height).max(vote.block);
        }
        self.votes.push(vote);
    }

    /// Cut if any rule says so: size, downstream idle, or the timer.
    pub fn poll(&mut self, now: Instant) -> Option<Cut> {
        if self.pending.len() >= self.block_size {
            Some(self.cut(CutReason::Size, now))
        } else if !self.pending.is_empty() && self.downstream_idle() {
            Some(self.cut(CutReason::Idle, now))
        } else {
            self.poll_timeout(now)
        }
    }

    /// Cut if the timeout since the first pending transaction has expired
    /// (the "time-to-cut" message of §4.4).
    pub fn poll_timeout(&mut self, now: Instant) -> Option<Cut> {
        match self.first_at {
            Some(first)
                if now.duration_since(first) >= self.timeout && !self.pending.is_empty() =>
            {
                Some(self.cut(CutReason::Timeout, now))
            }
            _ => None,
        }
    }

    /// How long until the timeout would fire (None when nothing pending).
    pub fn time_until_cut(&self, now: Instant) -> Option<Duration> {
        self.first_at
            .map(|first| (first + self.timeout).saturating_duration_since(now))
    }

    /// A block was delivered by consensus (BFT): it is the tip whoever
    /// cut it, and what it carries is no longer pending here.
    pub(crate) fn delivered(&mut self, block: &Block) {
        self.tip = block.number;
        if !self.pending.is_empty() {
            let delivered: HashSet<&GlobalTxId> = block.txs.iter().map(|t| &t.id).collect();
            self.pending.retain(|t| !delivered.contains(&t.id));
            if self.pending.is_empty() {
                self.first_at = None;
            }
        }
        if !self.votes.is_empty() {
            self.votes
                .retain(|v| !block.checkpoints.iter().any(|c| c == v));
        }
    }

    /// Drop everything pending (the voter table stays).
    pub(crate) fn clear(&mut self) {
        self.pending.clear();
        self.votes.clear();
        self.first_at = None;
    }

    /// At least one peer has voted, and a majority of the peers heard
    /// from have voted for the last block cut: whatever is cut now starts
    /// executing on arrival. A peer that fell silent keeps its entry, so
    /// it counts against the majority rather than shrinking it.
    fn downstream_idle(&self) -> bool {
        let caught_up = self.voted.values().filter(|h| **h >= self.tip).count();
        2 * caught_up > self.voted.len()
    }

    fn cut(&mut self, reason: CutReason, now: Instant) -> Cut {
        let txs = if self.pending.len() <= self.block_size {
            std::mem::take(&mut self.pending)
        } else {
            self.pending.drain(..self.block_size).collect()
        };
        // Whatever stays behind starts a fresh batch age.
        self.first_at = (!self.pending.is_empty()).then_some(now);
        self.tip += 1;
        Cut {
            txs,
            votes: std::mem::take(&mut self.votes),
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_chain::tx::Payload;
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{Certificate, KeyPair, Scheme};

    fn tx(n: u64) -> Transaction {
        let key = KeyPair::generate("c", b"seed", Scheme::Sim);
        Transaction::new_order_execute("c", Payload::new("f", vec![Value::Int(n as i64)]), n, &key)
            .unwrap()
    }

    #[test]
    fn cuts_on_size() {
        let mut c = BlockCutter::new(3, Duration::from_secs(60));
        let now = Instant::now();
        assert!(c.push_tx(tx(1), now).is_none());
        assert!(c.push_tx(tx(2), now).is_none());
        let cut = c.push_tx(tx(3), now).expect("size bound reached");
        assert_eq!(cut.txs.len(), 3);
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn cuts_on_timeout() {
        let mut c = BlockCutter::new(100, Duration::from_millis(50));
        let t0 = Instant::now();
        c.push_tx(tx(1), t0);
        assert!(c.poll_timeout(t0 + Duration::from_millis(10)).is_none());
        let cut = c
            .poll_timeout(t0 + Duration::from_millis(51))
            .expect("timeout fired");
        assert_eq!(cut.txs.len(), 1);
        // Nothing pending → no further cut.
        assert!(c.poll_timeout(t0 + Duration::from_secs(9)).is_none());
        assert!(c.time_until_cut(t0).is_none());
    }

    #[test]
    fn timeout_counts_from_first_tx() {
        let mut c = BlockCutter::new(100, Duration::from_millis(100));
        let t0 = Instant::now();
        c.push_tx(tx(1), t0);
        c.push_tx(tx(2), t0 + Duration::from_millis(90));
        // 95 ms after the FIRST tx → not yet; 100 ms after → cut both.
        assert!(c.poll_timeout(t0 + Duration::from_millis(95)).is_none());
        let cut = c.poll_timeout(t0 + Duration::from_millis(100)).unwrap();
        assert_eq!(cut.txs.len(), 2);
    }

    #[test]
    fn votes_ride_with_next_cut() {
        let mut c = BlockCutter::new(1, Duration::from_secs(1));
        c.push_vote(CheckpointVote {
            node: "n".into(),
            block: 1,
            state_hash: [0u8; 32],
        });
        let cut = c.push_tx(tx(1), Instant::now()).unwrap();
        assert_eq!(cut.votes.len(), 1);
        // Votes drained: the next cut has none.
        let cut = c.push_tx(tx(2), Instant::now()).unwrap();
        assert!(cut.votes.is_empty());
    }

    #[test]
    fn zero_block_size_clamped() {
        let mut c = BlockCutter::new(0, Duration::from_secs(1));
        assert!(c.push_tx(tx(1), Instant::now()).is_some());
    }

    const LONG: Duration = Duration::from_secs(60);

    fn vote(node: &str, block: BlockHeight) -> CheckpointVote {
        CheckpointVote {
            node: node.into(),
            block,
            state_hash: [0u8; 32],
        }
    }

    /// A cutter clocked by three registered peers (and one registered
    /// client, who is not a peer), with block 1 already cut by the timer.
    fn clocked() -> (BlockCutter, Instant) {
        let certs = CertificateRegistry::new();
        for (name, role) in [
            ("org1/peer", Role::Peer),
            ("org2/peer", Role::Peer),
            ("org3/peer", Role::Peer),
            ("org1/alice", Role::Client),
        ] {
            let key = KeyPair::generate(name, name.as_bytes(), Scheme::Sim);
            certs.register(Certificate {
                name: name.into(),
                org: "org".into(),
                role,
                public_key: key.public_key(),
            });
        }
        let mut c = BlockCutter::new(100, LONG).clocked_by(certs);
        let t0 = Instant::now();
        c.push_tx(tx(1), t0);
        // Nobody has voted: a pending transaction waits for the timer.
        assert!(c.poll(t0).is_none());
        let first = c.poll(t0 + LONG).expect("timer");
        assert_eq!(first.reason, CutReason::Timeout);
        (c, t0)
    }

    #[test]
    fn without_a_registry_votes_never_cut() {
        let mut c = BlockCutter::new(100, LONG);
        let t0 = Instant::now();
        c.push_vote(vote("org1/peer", 0));
        c.push_tx(tx(1), t0);
        assert!(c.poll(t0).is_none());
        c.push_vote(vote("org1/peer", 1));
        assert!(c.poll(t0).is_none());
        assert_eq!(c.poll(t0 + LONG).unwrap().reason, CutReason::Timeout);
    }

    #[test]
    fn idle_is_a_majority_of_the_peers_heard_from_at_the_tip() {
        let (mut c, t0) = clocked();
        // One peer heard from, and it has committed block 1: idle.
        c.push_vote(vote("org1/peer", 1));
        assert!(c.poll(t0).is_none(), "nothing pending, nothing to cut");
        c.push_tx(tx(2), t0);
        let cut = c.poll(t0).expect("idle");
        assert_eq!((cut.reason, cut.txs.len()), (CutReason::Idle, 1));
        assert_eq!(cut.votes, vec![vote("org1/peer", 1)], "votes still ride");

        // Block 2 is out and nobody has voted for it yet.
        c.push_tx(tx(3), t0);
        assert!(c.poll(t0).is_none());
        // The other two are heard from, at the old height: one of three.
        c.push_vote(vote("org2/peer", 1));
        c.push_vote(vote("org3/peer", 1));
        c.push_vote(vote("org1/peer", 2));
        assert!(c.poll(t0).is_none());
        // Two of three: cut, with each vote embedded exactly once.
        c.push_vote(vote("org2/peer", 2));
        let cut = c.poll(t0).expect("idle");
        assert_eq!(cut.reason, CutReason::Idle);
        assert_eq!(cut.votes.len(), 4);
        c.push_tx(tx(4), t0);
        assert!(c.poll(t0).is_none(), "block 3 is not committed anywhere");
    }

    #[test]
    fn a_silent_minority_does_not_block_and_a_silent_majority_means_the_timer() {
        let (mut c, t0) = clocked();
        for peer in ["org1/peer", "org2/peer", "org3/peer"] {
            c.push_vote(vote(peer, 1));
        }
        c.push_tx(tx(2), t0);
        assert_eq!(c.poll(t0).unwrap().reason, CutReason::Idle);
        // org3 stops voting: the other two still make a majority.
        c.push_vote(vote("org1/peer", 2));
        c.push_vote(vote("org2/peer", 2));
        c.push_tx(tx(3), t0);
        assert_eq!(c.poll(t0).unwrap().reason, CutReason::Idle);
        // org2 stops as well: one of three is not, whatever it votes,
        // and a vote for an old height moves nothing.
        c.push_vote(vote("org1/peer", 3));
        c.push_vote(vote("org2/peer", 1));
        c.push_tx(tx(4), t0);
        assert!(c.poll(t0).is_none());
        assert_eq!(c.poll(t0 + LONG).unwrap().reason, CutReason::Timeout);
    }

    #[test]
    fn an_unknown_name_neither_triggers_nor_blocks_an_early_cut() {
        let (mut c, t0) = clocked();
        // Nobody registered as a peer has voted: strangers (and a
        // registered client) voting for the tip do not make it idle.
        for stranger in ["mallory", "org4/peer", "org1/alice"] {
            c.push_vote(vote(stranger, 1));
        }
        c.push_tx(tx(2), t0);
        assert!(c.poll(t0).is_none());
        // One real peer at the tip is a majority of the peers heard
        // from; a crowd of strangers stuck at height 0 does not dilute it.
        for n in 0..10 {
            c.push_vote(vote(&format!("sybil{n}"), 0));
        }
        c.push_vote(vote("org2/peer", 1));
        let cut = c.poll(t0).expect("idle");
        assert_eq!(cut.reason, CutReason::Idle);
        // Unauthenticated votes are still embedded, as before.
        assert_eq!(cut.votes.len(), 14);
        assert_eq!(c.voted.len(), 1, "the table holds registered peers only");
    }

    #[test]
    fn a_held_backlog_is_cut_one_block_at_a_time() {
        let mut c = BlockCutter::new(2, LONG);
        let t0 = Instant::now();
        for n in 0..5 {
            c.hold_tx(tx(n), t0);
        }
        let t1 = t0 + Duration::from_secs(1);
        for expected in [2, 2] {
            let cut = c.poll(t1).expect("size");
            assert_eq!((cut.reason, cut.txs.len()), (CutReason::Size, expected));
        }
        // The remainder's age counts from the cut that left it behind.
        assert_eq!(c.pending_len(), 1);
        assert_eq!(c.time_until_cut(t1), Some(LONG));
    }
}
