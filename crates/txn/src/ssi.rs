//! Serializable snapshot isolation: conflict tracking and the two
//! commit-time abort rules.
//!
//! ## Conflict tracking
//!
//! An rw-antidependency `R -rw-> W` ("R read a version that W replaced")
//! is recorded from both directions so that the edge set depends only on
//! the read/write sets, never on thread timing:
//!
//! * **reader side** — a scan that encounters a version pending by another
//!   transaction records the edge immediately;
//! * **writer side** — a write probes the SIREAD row locks and index
//!   predicate locks left by earlier readers.
//!
//! `R` ends up in `W.in_conflicts` and `W` in `R.out_conflicts`, matching
//! the paper's `inConflictList`/`outConflictList` terminology (§3.2).
//!
//! ## Abort rules
//!
//! At commit time (serial, in block order) the manager applies either
//!
//! * [`Flow::OrderThenExecute`] — classic *abort during commit*: doom the
//!   pivot nearConflict of a dangerous structure; abort the committing
//!   transaction itself if it is a pivot whose outConflict already
//!   committed (§3.2); or
//! * [`Flow::ExecuteOrderParallel`] — the **block-aware** variant of
//!   Table 2, which additionally aborts any transaction whose outConflict
//!   committed in an *earlier block* (the cross-node consistency argument
//!   of §3.4.3: on a slower node that same read would have been a
//!   phantom/stale read at execution time, so every node must converge on
//!   abort).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bcrdb_common::error::AbortReason;
use bcrdb_common::ids::{BlockHeight, RowId, TxId};
use bcrdb_common::value::Value;
use bcrdb_storage::index::KeyRange;
use parking_lot::{Mutex, RwLock};

/// Which transaction flow's abort rules to apply (§3.3 vs §3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Order-then-execute: plain abort-during-commit.
    OrderThenExecute,
    /// Execute-order-in-parallel: block-aware abort-during-commit (Table 2).
    ExecuteOrderParallel,
}

/// Lifecycle state of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnState {
    /// Executing or waiting for its commit signal.
    Active,
    /// Committed.
    Committed,
    /// Aborted.
    Aborted,
}

/// Per-transaction bookkeeping.
struct Record {
    state: TxnState,
    /// Reason this transaction must abort at its commit point, if any.
    doomed: Option<AbortReason>,
    /// Transactions with an rw-edge *into* this one (they read what we
    /// wrote) — the paper's `inConflictList`. Ordered: the commit check
    /// iterates these sets, and its abort decisions must be identical on
    /// every node.
    in_conflicts: BTreeSet<TxId>,
    /// Transactions we have an rw-edge *to* (we read what they wrote) —
    /// the paper's `outConflictList`. Ordered for the same reason.
    out_conflicts: BTreeSet<TxId>,
    /// Logical begin time (for overlap checks during GC).
    begin_seq: u64,
    /// Logical commit/abort time.
    end_seq: Option<u64>,
    /// Position in the chain: (block height, index within block), assigned
    /// when the block processor starts committing the enclosing block.
    block_pos: Option<(BlockHeight, u32)>,
}

impl Record {
    fn new(begin_seq: u64) -> Record {
        Record {
            state: TxnState::Active,
            doomed: None,
            in_conflicts: BTreeSet::new(),
            out_conflicts: BTreeSet::new(),
            begin_seq,
            end_seq: None,
            block_pos: None,
        }
    }
}

/// Number of shards for the SIREAD row-lock table.
const SIREAD_SHARDS: usize = 16;

/// One shard of the SIREAD lock table: (table, row) → reader transactions.
type SireadShard = Mutex<HashMap<(String, RowId), Vec<TxId>>>;
/// Predicate-lock table: (table, column) → list of (range, reader).
type PredicateLocks = Mutex<HashMap<(String, usize), Vec<(KeyRange, TxId)>>>;

/// The SSI manager: one per database node.
pub struct SsiManager {
    records: RwLock<HashMap<TxId, Arc<Mutex<Record>>>>,
    /// SIREAD row locks: (table, row) → reader transactions. Sharded by
    /// row id to reduce contention among executor threads.
    siread: Vec<SireadShard>,
    /// Predicate locks: (table, column) → list of (range, reader).
    predicates: PredicateLocks,
    /// Whole-table read locks (full scans in the OE flow).
    table_readers: Mutex<HashMap<String, Vec<TxId>>>,
    next_tx: AtomicU64,
    clock: AtomicU64,
}

impl Default for SsiManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SsiManager {
    /// Fresh manager.
    pub fn new() -> SsiManager {
        SsiManager {
            records: RwLock::new(HashMap::new()),
            siread: (0..SIREAD_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            predicates: Mutex::new(HashMap::new()),
            table_readers: Mutex::new(HashMap::new()),
            next_tx: AtomicU64::new(1),
            clock: AtomicU64::new(1),
        }
    }

    fn shard(&self, row: RowId) -> &Mutex<HashMap<(String, RowId), Vec<TxId>>> {
        &self.siread[(row.0 as usize) % SIREAD_SHARDS]
    }

    fn record(&self, tx: TxId) -> Option<Arc<Mutex<Record>>> {
        self.records.read().get(&tx).cloned()
    }

    /// Begin a transaction: allocate a local id and register its record.
    pub fn begin(&self) -> TxId {
        let tx = TxId(self.next_tx.fetch_add(1, Ordering::Relaxed));
        let seq = self.clock.fetch_add(1, Ordering::Relaxed);
        self.records
            .write()
            .insert(tx, Arc::new(Mutex::new(Record::new(seq))));
        tx
    }

    /// Current state of a transaction (None if unknown/GC'd).
    pub fn state_of(&self, tx: TxId) -> Option<TxnState> {
        self.record(tx).map(|r| r.lock().state)
    }

    /// Assign the block position of a transaction (called by the block
    /// processor when the enclosing block starts committing).
    pub fn assign_block(&self, tx: TxId, block: BlockHeight, pos: u32) {
        if let Some(r) = self.record(tx) {
            r.lock().block_pos = Some((block, pos));
        }
    }

    /// Mark a transaction to abort at its commit point. The first reason
    /// sticks (deterministic: dooming only happens from the serial commit
    /// phase or from the transaction's own executor thread).
    pub fn doom(&self, tx: TxId, reason: AbortReason) {
        if let Some(r) = self.record(tx) {
            let mut rec = r.lock();
            if rec.state == TxnState::Active && rec.doomed.is_none() {
                rec.doomed = Some(reason);
            }
        }
    }

    /// The doom reason, if set.
    pub fn doomed_reason(&self, tx: TxId) -> Option<AbortReason> {
        self.record(tx).and_then(|r| r.lock().doomed.clone())
    }

    // ------------------------------------------------------------- reads

    /// Record that `tx` read logical row (table, row). Committed rows only
    /// (pending rows are tracked through rw edges directly).
    pub fn register_row_read(&self, tx: TxId, table: &str, row: RowId) {
        let mut shard = self.shard(row).lock();
        let readers = shard.entry((table.to_string(), row)).or_default();
        if !readers.contains(&tx) {
            readers.push(tx);
        }
    }

    /// Record that `tx` performed an index range read on (table, column).
    pub fn register_predicate_read(&self, tx: TxId, table: &str, column: usize, range: KeyRange) {
        let mut preds = self.predicates.lock();
        preds
            .entry((table.to_string(), column))
            .or_default()
            .push((range, tx));
    }

    /// Record that `tx` read the whole table (full scan, OE flow only).
    pub fn register_table_read(&self, tx: TxId, table: &str) {
        let mut readers = self.table_readers.lock();
        let list = readers.entry(table.to_string()).or_default();
        if !list.contains(&tx) {
            list.push(tx);
        }
    }

    // ------------------------------------------------------------ writes

    /// Writer-side conflict probe: `writer` modified logical row
    /// (table,row); the new/old images carry `indexed_values` on the given
    /// columns. Registers `reader -rw-> writer` edges for every reader that
    /// saw the old state.
    pub fn on_write(
        &self,
        writer: TxId,
        table: &str,
        row: RowId,
        indexed_values: &[(usize, Value)],
    ) {
        // Row-level readers.
        let row_readers: Vec<TxId> = {
            let shard = self.shard(row).lock();
            shard
                .get(&(table.to_string(), row))
                .map(|v| v.iter().copied().filter(|t| *t != writer).collect())
                .unwrap_or_default()
        };
        for r in row_readers {
            self.register_rw_edge(r, writer);
        }
        // Predicate readers whose range covers any indexed value of the
        // old or new image.
        if !indexed_values.is_empty() {
            let preds = self.predicates.lock();
            for (col, value) in indexed_values {
                if let Some(locks) = preds.get(&(table.to_string(), *col)) {
                    let hits: Vec<TxId> = locks
                        .iter()
                        .filter(|(range, t)| *t != writer && range.contains(value))
                        .map(|(_, t)| *t)
                        .collect();
                    drop_hits(self, hits, writer);
                }
            }
        }
        // Whole-table readers.
        let table_hits: Vec<TxId> = {
            let readers = self.table_readers.lock();
            readers
                .get(table)
                .map(|v| v.iter().copied().filter(|t| *t != writer).collect())
                .unwrap_or_default()
        };
        for r in table_hits {
            self.register_rw_edge(r, writer);
        }
    }

    /// Register `reader -rw-> writer` (reader read the version writer
    /// replaced). No-op when either side is unknown, identical, or the
    /// reader committed before the writer began (not concurrent).
    pub fn register_rw_edge(&self, reader: TxId, writer: TxId) {
        if reader == writer {
            return;
        }
        let (Some(r_rec), Some(w_rec)) = (self.record(reader), self.record(writer)) else {
            return;
        };
        // Concurrency check: the edge only matters if the two overlapped.
        // One record is locked at a time: two transactions that each read
        // and write one hot row register `a -rw-> b` and `b -rw-> a` from
        // two executor threads at once, and holding one record while
        // taking the other deadlocks them.
        let span = |rec: &Mutex<Record>| {
            let rec = rec.lock();
            (rec.state, rec.begin_seq, rec.end_seq)
        };
        let (r_state, r_begin, r_end) = span(&r_rec);
        let (w_state, w_begin, w_end) = span(&w_rec);
        if r_state == TxnState::Aborted || w_state == TxnState::Aborted {
            return;
        }
        if r_state == TxnState::Committed && r_end.is_some_and(|end| end < w_begin) {
            return; // reader finished before writer began
        }
        if w_state == TxnState::Committed && w_end.is_some_and(|end| end < r_begin) {
            // Writer committed before reader began: the reader sees the
            // new version via its snapshot (or aborts as a stale read in
            // the EO flow); not an antidependency.
            return;
        }
        r_rec.lock().out_conflicts.insert(writer);
        w_rec.lock().in_conflicts.insert(reader);
    }

    /// In-conflicts (nearConflicts) of `tx` — test/diagnostic accessor.
    pub fn in_conflicts(&self, tx: TxId) -> Vec<TxId> {
        self.record(tx).map_or_else(Vec::new, |r| {
            r.lock().in_conflicts.iter().copied().collect()
        })
    }

    /// Out-conflicts of `tx` — test/diagnostic accessor.
    pub fn out_conflicts(&self, tx: TxId) -> Vec<TxId> {
        self.record(tx).map_or_else(Vec::new, |r| {
            r.lock().out_conflicts.iter().copied().collect()
        })
    }

    // ------------------------------------------------------ commit/abort

    /// Serial commit-time decision for `tx` at (block, pos). Returns
    /// `Ok(())` if the transaction may commit, or the abort reason.
    ///
    /// Must be called from the single-threaded commit phase, in block
    /// order; this is what makes the decision identical on every node.
    pub fn commit_check(
        &self,
        tx: TxId,
        block: BlockHeight,
        pos: u32,
        flow: Flow,
    ) -> Result<(), AbortReason> {
        self.assign_block(tx, block, pos);
        let rec = match self.record(tx) {
            Some(r) => r,
            None => return Err(AbortReason::SsiDoomedByPeer),
        };
        // 1. Doomed by a peer's commit, a phantom/stale read, or a ww loss.
        if let Some(reason) = rec.lock().doomed.clone() {
            return Err(reason);
        }

        let (in_set, out_set): (Vec<TxId>, Vec<TxId>) = {
            let r = rec.lock();
            (
                r.in_conflicts.iter().copied().collect(),
                r.out_conflicts.iter().copied().collect(),
            )
        };

        // 2. EO only: abort if any outConflict committed in an earlier
        //    block — the read would have been stale/phantom on a node that
        //    executed later, so all nodes must abort (§3.4.3 scenarios 2–3).
        if flow == Flow::ExecuteOrderParallel {
            for w in &out_set {
                if let Some(w_rec) = self.record(*w) {
                    let wr = w_rec.lock();
                    if wr.state == TxnState::Committed {
                        match wr.block_pos {
                            Some((wb, _)) if wb < block => {
                                return Err(AbortReason::SsiDangerousStructure);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }

        // 3. Pivot rule (both flows): tx has an inConflict and an
        //    outConflict that already committed → tx is the pivot of a
        //    dangerous structure whose head committed first; abort tx
        //    (§3.2 "aborts a transaction whose outConflict has committed").
        if !in_set.is_empty() {
            for w in &out_set {
                if let Some(w_rec) = self.record(*w) {
                    if w_rec.lock().state == TxnState::Committed {
                        return Err(AbortReason::SsiDangerousStructure);
                    }
                }
            }
        }

        // 4. Victim selection for dangerous structures headed by tx:
        //    F -rw-> N -rw-> tx.
        for n in &in_set {
            let Some(n_rec) = self.record(*n) else {
                continue;
            };
            let (n_state, n_block, n_far): (TxnState, Option<(BlockHeight, u32)>, Vec<TxId>) = {
                let nr = n_rec.lock();
                (
                    nr.state,
                    nr.block_pos,
                    nr.in_conflicts.iter().copied().collect(),
                )
            };
            if n_state != TxnState::Active {
                continue; // committed in-edges are harmless; aborted gone
            }
            let n_same_block = n_block.map(|(b, _)| b) == Some(block);
            match flow {
                Flow::OrderThenExecute => {
                    // Plain heuristic: doom the pivot N when a farConflict
                    // exists and both are uncommitted (§3.2). F == tx covers
                    // the two-transaction cycle of Figure 2(a).
                    let has_uncommitted_far = n_far.iter().any(|f| {
                        *f == tx
                            || self
                                .record(*f)
                                .is_some_and(|fr| fr.lock().state == TxnState::Active)
                    });
                    if has_uncommitted_far {
                        self.doom(*n, AbortReason::SsiDoomedByPeer);
                    }
                }
                Flow::ExecuteOrderParallel => {
                    self.block_aware_victims(tx, *n, n_same_block, n_block, &n_far, block);
                }
            }
        }
        Ok(())
    }

    /// Table 2 of the paper: decide the victim among nearConflict `n` and
    /// its farConflicts, given block membership relative to the committing
    /// transaction's `block`.
    fn block_aware_victims(
        &self,
        tx: TxId,
        n: TxId,
        n_same_block: bool,
        n_block: Option<(BlockHeight, u32)>,
        n_far: &[TxId],
        block: BlockHeight,
    ) {
        if n_far.is_empty() || (n_far.len() == 1 && n_far[0] == tx) {
            // No farConflict: abort N only when it is not in the same
            // block (Table 2 last rows; §3.4.3 "Even if there is no
            // farConflict, the nearConflict would get aborted (if it not
            // in same block as T)").
            if !n_same_block {
                self.doom(n, AbortReason::SsiDoomedByPeer);
            }
            return;
        }
        for f in n_far {
            if *f == n {
                continue;
            }
            // A farConflict equal to tx is the 2-cycle: tx -rw-> N -rw-> tx.
            // tx commits now, so N (the other side) must abort.
            if *f == tx {
                self.doom(n, AbortReason::SsiDoomedByPeer);
                continue;
            }
            let (f_state, f_block) = match self.record(*f) {
                Some(fr) => {
                    let fr = fr.lock();
                    (fr.state, fr.block_pos)
                }
                None => continue,
            };
            if f_state == TxnState::Aborted {
                continue;
            }
            let f_same_block = f_block.map(|(b, _)| b) == Some(block);
            if f_state == TxnState::Committed {
                // farConflict committed first → abort nearConflict.
                self.doom(n, AbortReason::SsiDoomedByPeer);
                continue;
            }
            match (n_same_block, f_same_block) {
                (true, true) => {
                    // Both pending in this block: abort whichever commits
                    // later in the block order.
                    let n_pos = n_block.map(|(_, p)| p).unwrap_or(u32::MAX);
                    let f_pos = f_block.map(|(_, p)| p).unwrap_or(u32::MAX);
                    if n_pos < f_pos {
                        self.doom(*f, AbortReason::SsiDoomedByPeer);
                    } else {
                        self.doom(n, AbortReason::SsiDoomedByPeer);
                    }
                }
                // N commits with this block, F later → abort F.
                (true, false) => self.doom(*f, AbortReason::SsiDoomedByPeer),
                // F commits with this block, N later → abort N.
                (false, true) => self.doom(n, AbortReason::SsiDoomedByPeer),
                // Neither ordered with this block → abort N.
                (false, false) => self.doom(n, AbortReason::SsiDoomedByPeer),
            }
        }
    }

    /// Finalize a commit.
    pub fn commit(&self, tx: TxId) {
        if let Some(r) = self.record(tx) {
            let mut rec = r.lock();
            rec.state = TxnState::Committed;
            rec.end_seq = Some(self.clock.fetch_add(1, Ordering::Relaxed));
        }
    }

    /// Finalize an abort.
    pub fn abort(&self, tx: TxId) {
        if let Some(r) = self.record(tx) {
            let mut rec = r.lock();
            rec.state = TxnState::Aborted;
            rec.end_seq = Some(self.clock.fetch_add(1, Ordering::Relaxed));
        }
    }

    /// Drop bookkeeping for finished transactions that no active
    /// transaction overlaps. Returns the number of records reclaimed.
    pub fn gc(&self) -> usize {
        let records = self.records.read();
        let min_active_begin = records
            // bcrdb-lint: allow(hash-iter, reason = "min over all records; order-insensitive")
            .values()
            .filter_map(|r| {
                let rec = r.lock();
                if rec.state == TxnState::Active {
                    Some(rec.begin_seq)
                } else {
                    None
                }
            })
            .min()
            .unwrap_or(u64::MAX);
        let dead: HashSet<TxId> = records
            // bcrdb-lint: allow(hash-iter, reason = "builds an unordered dead set; order-insensitive")
            .iter()
            .filter(|(_, r)| {
                let rec = r.lock();
                rec.state != TxnState::Active && rec.end_seq.is_some_and(|e| e < min_active_begin)
            })
            .map(|(t, _)| *t)
            .collect();
        drop(records);
        if dead.is_empty() {
            return 0;
        }
        {
            let mut records = self.records.write();
            // bcrdb-lint: allow(hash-iter, reason = "removal only; order-insensitive")
            for t in &dead {
                records.remove(t);
            }
        }
        for shard in &self.siread {
            let mut shard = shard.lock();
            shard.retain(|_, readers| {
                readers.retain(|t| !dead.contains(t));
                !readers.is_empty()
            });
        }
        {
            let mut preds = self.predicates.lock();
            preds.retain(|_, locks| {
                locks.retain(|(_, t)| !dead.contains(t));
                !locks.is_empty()
            });
        }
        {
            let mut tables = self.table_readers.lock();
            tables.retain(|_, readers| {
                readers.retain(|t| !dead.contains(t));
                !readers.is_empty()
            });
        }
        dead.len()
    }

    /// Number of tracked transaction records (diagnostic).
    pub fn record_count(&self) -> usize {
        self.records.read().len()
    }
}

fn drop_hits(mgr: &SsiManager, hits: Vec<TxId>, writer: TxId) {
    for r in hits {
        mgr.register_rw_edge(r, writer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> SsiManager {
        SsiManager::new()
    }

    #[test]
    fn begin_assigns_unique_ids() {
        let m = mgr();
        let a = m.begin();
        let b = m.begin();
        assert_ne!(a, b);
        assert_eq!(m.state_of(a), Some(TxnState::Active));
    }

    #[test]
    fn row_read_then_write_registers_edge() {
        let m = mgr();
        let reader = m.begin();
        let writer = m.begin();
        m.register_row_read(reader, "t", RowId(1));
        m.on_write(writer, "t", RowId(1), &[]);
        assert_eq!(m.out_conflicts(reader), vec![writer]);
        assert_eq!(m.in_conflicts(writer), vec![reader]);
    }

    /// Two transactions that read and write the same row register the
    /// edges `a -rw-> b` and `b -rw-> a` from two threads at once. Neither
    /// registration may hold one record while it waits for the other.
    #[test]
    fn opposite_edges_registered_concurrently_do_not_deadlock() {
        let m = std::sync::Arc::new(mgr());
        let (a, b) = (m.begin(), m.begin());
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for (reader, writer) in [(a, b), (b, a)] {
            let (m, start, done) = (m.clone(), start.clone(), done_tx.clone());
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..200_000 {
                    m.register_rw_edge(reader, writer);
                }
                let _ = done.send(());
            });
        }
        for _ in 0..2 {
            let finished = done_rx.recv_timeout(std::time::Duration::from_secs(60));
            assert!(finished.is_ok(), "register_rw_edge deadlocked");
        }
        assert_eq!(m.out_conflicts(a), vec![b]);
        assert_eq!(m.out_conflicts(b), vec![a]);
    }

    #[test]
    fn predicate_read_then_matching_insert_registers_edge() {
        let m = mgr();
        let reader = m.begin();
        let writer = m.begin();
        m.register_predicate_read(
            reader,
            "t",
            0,
            KeyRange::between(Value::Int(1), Value::Int(10)),
        );
        // Insert with key 5 matches; key 50 does not.
        m.on_write(writer, "t", RowId(99), &[(0, Value::Int(5))]);
        assert_eq!(m.in_conflicts(writer), vec![reader]);
        let writer2 = m.begin();
        m.on_write(writer2, "t", RowId(100), &[(0, Value::Int(50))]);
        assert!(m.in_conflicts(writer2).is_empty());
    }

    #[test]
    fn table_read_conflicts_with_any_write() {
        let m = mgr();
        let reader = m.begin();
        let writer = m.begin();
        m.register_table_read(reader, "t");
        m.on_write(writer, "t", RowId(7), &[(0, Value::Int(1))]);
        assert_eq!(m.in_conflicts(writer), vec![reader]);
        // Other tables don't conflict.
        let writer2 = m.begin();
        m.on_write(writer2, "u", RowId(7), &[]);
        assert!(m.in_conflicts(writer2).is_empty());
    }

    #[test]
    fn edges_not_registered_across_nonoverlapping_txns() {
        let m = mgr();
        let reader = m.begin();
        m.register_row_read(reader, "t", RowId(1));
        m.commit(reader);
        // A writer that begins after the reader committed: no edge.
        let writer = m.begin();
        m.on_write(writer, "t", RowId(1), &[]);
        assert!(m.in_conflicts(writer).is_empty());
    }

    #[test]
    fn committed_overlapping_reader_still_conflicts() {
        let m = mgr();
        let reader = m.begin();
        let writer = m.begin(); // overlaps with reader
        m.register_row_read(reader, "t", RowId(1));
        m.commit(reader);
        m.on_write(writer, "t", RowId(1), &[]);
        assert_eq!(m.in_conflicts(writer), vec![reader]);
    }

    #[test]
    fn doomed_txn_aborts_at_commit() {
        let m = mgr();
        let t = m.begin();
        m.doom(t, AbortReason::WwConflict);
        let err = m.commit_check(t, 1, 0, Flow::OrderThenExecute).unwrap_err();
        assert_eq!(err, AbortReason::WwConflict);
        // First doom reason sticks.
        m.doom(t, AbortReason::PhantomRead);
        assert_eq!(m.doomed_reason(t), Some(AbortReason::WwConflict));
    }

    /// Figure 2(a): the two-transaction cycle T1 ⇄ T2 (each reads what the
    /// other writes). The first to commit survives; the other is doomed.
    #[test]
    fn fig2a_write_skew_aborts_one() {
        for flow in [Flow::OrderThenExecute, Flow::ExecuteOrderParallel] {
            let m = mgr();
            let t1 = m.begin();
            let t2 = m.begin();
            m.assign_block(t1, 1, 0);
            m.assign_block(t2, 1, 1);
            // t1 reads row A, t2 writes row A; t2 reads row B, t1 writes B.
            m.register_row_read(t1, "t", RowId(1));
            m.register_row_read(t2, "t", RowId(2));
            m.on_write(t2, "t", RowId(1), &[]);
            m.on_write(t1, "t", RowId(2), &[]);
            assert!(m.commit_check(t1, 1, 0, flow).is_ok(), "{flow:?}");
            m.commit(t1);
            let err = m.commit_check(t2, 1, 1, flow).unwrap_err();
            assert!(
                matches!(
                    err,
                    AbortReason::SsiDoomedByPeer | AbortReason::SsiDangerousStructure
                ),
                "{flow:?}: {err:?}"
            );
            m.abort(t2);
        }
    }

    /// Figure 2(b): three-transaction cycle with two adjacent rw edges —
    /// T3 -rw-> T2 -rw-> T1. When T1 commits first, the pivot T2 is doomed.
    #[test]
    fn fig2b_pivot_doomed() {
        let m = mgr();
        let t1 = m.begin();
        let t2 = m.begin();
        let t3 = m.begin();
        for (i, t) in [t1, t2, t3].iter().enumerate() {
            m.assign_block(*t, 1, i as u32);
        }
        // t2 reads X, t1 writes X (t2 -rw-> t1).
        m.register_row_read(t2, "t", RowId(1));
        m.on_write(t1, "t", RowId(1), &[]);
        // t3 reads Y, t2 writes Y (t3 -rw-> t2).
        m.register_row_read(t3, "t", RowId(2));
        m.on_write(t2, "t", RowId(2), &[]);

        assert!(m.commit_check(t1, 1, 0, Flow::OrderThenExecute).is_ok());
        m.commit(t1);
        // t2 is the pivot: either doomed at t1's commit (abort-during-
        // commit heuristic) or caught by the committed-outConflict rule.
        let err = m
            .commit_check(t2, 1, 1, Flow::OrderThenExecute)
            .unwrap_err();
        assert!(matches!(
            err,
            AbortReason::SsiDangerousStructure | AbortReason::SsiDoomedByPeer
        ));
        m.abort(t2);
        // t3's out-conflict (t2) aborted → t3 commits.
        assert!(m.commit_check(t3, 1, 2, Flow::OrderThenExecute).is_ok());
    }

    /// EO cross-block rule: an outConflict committed in an earlier block
    /// aborts the reader even with no farConflict (§3.4.3 scenario 3).
    #[test]
    fn eo_cross_block_committed_out_conflict_aborts() {
        let m = mgr();
        let writer = m.begin();
        let reader = m.begin();
        m.register_row_read(reader, "t", RowId(1));
        m.on_write(writer, "t", RowId(1), &[]);
        assert!(m
            .commit_check(writer, 1, 0, Flow::ExecuteOrderParallel)
            .is_ok());
        m.commit(writer);
        // Reader commits in a later block: must abort (either via the
        // no-farConflict dooming at the writer's commit or the cross-block
        // committed-outConflict rule at its own commit).
        let err = m
            .commit_check(reader, 2, 0, Flow::ExecuteOrderParallel)
            .unwrap_err();
        assert!(matches!(
            err,
            AbortReason::SsiDangerousStructure | AbortReason::SsiDoomedByPeer
        ));

        // In contrast, under OE the same shape (no in-conflict on reader)
        // commits fine — OE transactions in different blocks are never
        // concurrent in practice, and plain SSI allows a bare rw edge.
        let m = mgr();
        let writer = m.begin();
        let reader = m.begin();
        m.register_row_read(reader, "t", RowId(1));
        m.on_write(writer, "t", RowId(1), &[]);
        assert!(m.commit_check(writer, 1, 0, Flow::OrderThenExecute).is_ok());
        m.commit(writer);
        assert!(m.commit_check(reader, 1, 1, Flow::OrderThenExecute).is_ok());
    }

    /// Table 2 row 1/2: near and far both in the same block → the one
    /// later in block order is doomed.
    #[test]
    fn table2_same_block_victim_by_position() {
        // Structure: F -rw-> N -rw-> T, all in block 1.
        // Positions: T=0, N=1, F=2  → N earlier than F → F doomed.
        let m = mgr();
        let t = m.begin();
        let n = m.begin();
        let f = m.begin();
        m.assign_block(t, 1, 0);
        m.assign_block(n, 1, 1);
        m.assign_block(f, 1, 2);
        m.register_row_read(n, "t", RowId(1));
        m.on_write(t, "t", RowId(1), &[]); // n -rw-> t
        m.register_row_read(f, "t", RowId(2));
        m.on_write(n, "t", RowId(2), &[]); // f -rw-> n
        assert!(m.commit_check(t, 1, 0, Flow::ExecuteOrderParallel).is_ok());
        m.commit(t);
        assert!(m.doomed_reason(f).is_some(), "far (later) should be doomed");
        assert!(m.doomed_reason(n).is_none(), "near (earlier) survives");

        // Swap positions: N=2, F=1 → N doomed.
        let m = mgr();
        let t = m.begin();
        let n = m.begin();
        let f = m.begin();
        m.assign_block(t, 1, 0);
        m.assign_block(n, 1, 2);
        m.assign_block(f, 1, 1);
        m.register_row_read(n, "t", RowId(1));
        m.on_write(t, "t", RowId(1), &[]);
        m.register_row_read(f, "t", RowId(2));
        m.on_write(n, "t", RowId(2), &[]);
        assert!(m.commit_check(t, 1, 0, Flow::ExecuteOrderParallel).is_ok());
        assert!(m.doomed_reason(n).is_some());
        assert!(m.doomed_reason(f).is_none());
    }

    /// Table 2 rows 3–6: block membership of near/far decides the victim.
    #[test]
    fn table2_cross_block_rows() {
        // Row 3: N in same block, F not ordered yet → F doomed.
        let m = mgr();
        let t = m.begin();
        let n = m.begin();
        let f = m.begin();
        m.assign_block(t, 1, 0);
        m.assign_block(n, 1, 1); // same block as t
                                 // f has no block assignment (still ordering)
        m.register_row_read(n, "t", RowId(1));
        m.on_write(t, "t", RowId(1), &[]);
        m.register_row_read(f, "t", RowId(2));
        m.on_write(n, "t", RowId(2), &[]);
        assert!(m.commit_check(t, 1, 0, Flow::ExecuteOrderParallel).is_ok());
        assert!(m.doomed_reason(f).is_some());
        assert!(m.doomed_reason(n).is_none());

        // Row 4: F in same block, N not → N doomed.
        let m = mgr();
        let t = m.begin();
        let n = m.begin();
        let f = m.begin();
        m.assign_block(t, 1, 0);
        m.assign_block(f, 1, 1);
        m.register_row_read(n, "t", RowId(1));
        m.on_write(t, "t", RowId(1), &[]);
        m.register_row_read(f, "t", RowId(2));
        m.on_write(n, "t", RowId(2), &[]);
        assert!(m.commit_check(t, 1, 0, Flow::ExecuteOrderParallel).is_ok());
        assert!(m.doomed_reason(n).is_some());
        assert!(m.doomed_reason(f).is_none());

        // Rows 5–6: neither in same block (and the no-far case) → N doomed.
        let m = mgr();
        let t = m.begin();
        let n = m.begin();
        m.assign_block(t, 1, 0);
        m.register_row_read(n, "t", RowId(1));
        m.on_write(t, "t", RowId(1), &[]);
        assert!(m.commit_check(t, 1, 0, Flow::ExecuteOrderParallel).is_ok());
        assert!(
            m.doomed_reason(n).is_some(),
            "near not in same block, no far → doomed"
        );
    }

    /// Table 2 row 7: nearConflict in the same block with no farConflict →
    /// no abort (the block order resolves the dependency deterministically).
    #[test]
    fn table2_same_block_no_far_no_abort() {
        let m = mgr();
        let t = m.begin();
        let n = m.begin();
        m.assign_block(t, 1, 0);
        m.assign_block(n, 1, 1);
        m.register_row_read(n, "t", RowId(1));
        m.on_write(t, "t", RowId(1), &[]);
        assert!(m.commit_check(t, 1, 0, Flow::ExecuteOrderParallel).is_ok());
        m.commit(t);
        assert!(m.doomed_reason(n).is_none());
        // And n itself commits: its committed out-conflict t is in the SAME
        // block, which is exempt from the cross-block rule, and n has no
        // in-conflict for the pivot rule.
        assert!(m.commit_check(n, 1, 1, Flow::ExecuteOrderParallel).is_ok());
    }

    #[test]
    fn gc_reclaims_finished_records() {
        let m = mgr();
        let a = m.begin();
        m.register_row_read(a, "t", RowId(1));
        m.register_predicate_read(a, "t", 0, KeyRange::all());
        m.register_table_read(a, "t");
        m.commit(a);
        // An active transaction that began after a finished keeps nothing
        // alive.
        let _b = m.begin();
        let reclaimed = m.gc();
        assert_eq!(reclaimed, 1);
        assert_eq!(m.record_count(), 1);
        assert!(m.state_of(a).is_none());

        // With an overlapping active transaction, records are retained.
        let m = mgr();
        let _active = m.begin();
        let c = m.begin();
        m.commit(c);
        assert_eq!(m.gc(), 0, "c overlaps the active transaction");
    }
}
