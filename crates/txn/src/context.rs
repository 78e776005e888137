//! The per-transaction data access layer.
//!
//! [`TxnCtx`] is what the SQL executor reads and writes through. It binds
//! together a block-height snapshot (§3.4.1), the SSI manager's conflict
//! tracking, and a write set that is applied — or rolled back — during the
//! serial commit phase.
//!
//! Reads have one entry: [`TxnCtx::scan`] executes a [`ScanPlan`] — the
//! whole table, or index ranges combined by AND or OR — and every index
//! range it reads is registered as an SSI predicate lock first (§4.3), so
//! "what was read" and "what is locked" cannot drift apart.
//!
//! ## Race-freedom of conflict detection
//!
//! Readers **register their SIREAD/predicate locks before classifying
//! versions**, and writers **mark the version's xmax (or append the new
//! version) before probing the lock tables**. With both orderings in
//! place, for any concurrent reader/writer pair at least one side observes
//! the other (the usual store-buffer argument over the two mutexes), so the
//! rw-antidependency is recorded on every node regardless of thread timing
//! — the property the paper's determinism argument rests on.

use std::sync::Arc;

use bcrdb_common::error::{AbortReason, Error, Result};
use bcrdb_common::ids::{BlockHeight, RowId, TxId};
use bcrdb_common::value::{Row, Value};
use bcrdb_storage::index::KeyRange;
use bcrdb_storage::snapshot::{classify, Classification, ScanMode, Snapshot};
use bcrdb_storage::stats::StatsDelta;
use bcrdb_storage::table::Table;
use bcrdb_storage::version::{Version, UNASSIGNED_ROW_ID};
use parking_lot::Mutex;

use crate::ssi::{Flow, SsiManager};

/// How one scan reaches its rows — and, because the index range read
/// *is* the SSI predicate lock (§4.3), under which locks. The planner
/// produces one; [`TxnCtx::scan`] is the only thing that executes it.
#[derive(Clone, Debug, PartialEq)]
pub enum ScanPlan {
    /// Every version of the table, under a whole-table lock (relaxed
    /// flows only).
    Full,
    /// Rows inside *every* part's `(column, range)`. One part is the
    /// plain index scan; several intersect at heap-position level, so
    /// only rows matching all parts are fetched.
    Intersect(Vec<(usize, KeyRange)>),
    /// Rows inside *any* part's `(column, range)` (OR-disjuncts, IN
    /// lists), each fetched once.
    Union(Vec<(usize, KeyRange)>),
}

impl ScanPlan {
    /// The single-index scan of `column` over `range`.
    pub fn index(column: usize, range: KeyRange) -> ScanPlan {
        ScanPlan::Intersect(vec![(column, range)])
    }
}

/// A visible row produced by a scan: the logical row id and the backing
/// version (needed to target updates/deletes), whose image it reads in
/// place.
#[derive(Clone, Debug)]
pub struct VisibleRow {
    /// Logical row id ([`UNASSIGNED_ROW_ID`] for this transaction's own
    /// uncommitted inserts).
    pub row_id: RowId,
    /// Backing version.
    pub version: Arc<Version>,
}

impl VisibleRow {
    /// Row values.
    pub fn data(&self) -> &[Value] {
        &self.version.data
    }
}

/// One entry of the write set, in execution order.
pub enum WriteOp {
    /// INSERT: the appended (pending) version.
    Insert {
        /// Target table.
        table: Arc<Table>,
        /// The new version.
        version: Arc<Version>,
    },
    /// UPDATE: old version flagged via xmax, successor appended.
    Update {
        /// Target table.
        table: Arc<Table>,
        /// The replaced version.
        old: Arc<Version>,
        /// The successor version.
        new: Arc<Version>,
    },
    /// DELETE: old version flagged via xmax.
    Delete {
        /// Target table.
        table: Arc<Table>,
        /// The deleted version.
        old: Arc<Version>,
    },
}

/// One row of the committed write-set summary, used by the checkpointing
/// phase to compute the block's write-set hash (§3.3.4).
#[derive(Clone, Debug, PartialEq)]
pub struct WriteRecord {
    /// Table name.
    pub table: String,
    /// 0 = insert, 1 = update, 2 = delete.
    pub kind: u8,
    /// Committed row id.
    pub row_id: RowId,
    /// New row image (empty for deletes).
    pub data: Row,
}

/// Result of the commit protocol for one transaction.
#[derive(Clone, Debug)]
pub enum CommitOutcome {
    /// Committed; carries the write-set summary for checkpoint hashing.
    Committed(Vec<WriteRecord>),
    /// Aborted with the given reason (write set rolled back).
    Aborted(AbortReason),
}

impl CommitOutcome {
    /// True if committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, CommitOutcome::Committed(_))
    }

    /// Take the committed write-set summary (`None` on abort) — the
    /// handoff from the serial commit phase to the post-commit stage,
    /// which hashes the block's write set off the commit thread.
    pub fn into_writes(self) -> Option<Vec<WriteRecord>> {
        match self {
            CommitOutcome::Committed(w) => Some(w),
            CommitOutcome::Aborted(_) => None,
        }
    }
}

/// One write-apply step produced by the serial validation gate
/// ([`TxnCtx::validate_commit`]). Every ordering-dependent decision —
/// SSI outcome, ww-loser dooming, old-version deletion, row-id
/// assignment — has already been made; what remains is publishing the
/// new version and building its write-set summary row. The committer
/// executes a transaction's steps before it validates the next
/// transaction of the block, so a later sibling's primary-key check
/// finds its same-block predecessors live in storage.
#[derive(Debug)]
pub enum ApplyStep {
    /// Publish a new version (`commit_create`) and build its summary row.
    Create {
        /// Target table name (for the summary).
        table: String,
        /// The version to publish.
        version: Arc<Version>,
        /// Summary kind: 0 = insert, 1 = update.
        kind: u8,
        /// Row id fixed by the gate.
        row_id: RowId,
    },
    /// Summary fully determined in the gate (deletes: their version-state
    /// transition feeds later transactions' conflict checks and therefore
    /// already happened serially).
    Ready(WriteRecord),
}

impl ApplyStep {
    /// Execute the step, returning its write-set summary row.
    pub fn execute(&self, block: BlockHeight) -> WriteRecord {
        match self {
            ApplyStep::Create {
                table,
                version,
                kind,
                row_id,
            } => {
                version.commit_create(block, *row_id);
                WriteRecord {
                    table: table.clone(),
                    kind: *kind,
                    row_id: *row_id,
                    data: version.data.clone(),
                }
            }
            ApplyStep::Ready(rec) => rec.clone(),
        }
    }
}

/// The apply half of one transaction's commit: the block it commits in
/// plus its apply steps in execution (op) order.
#[derive(Debug)]
pub struct ApplyPlan {
    /// Block the transaction commits in.
    pub block: BlockHeight,
    /// Steps in canonical op order.
    pub steps: Vec<ApplyStep>,
    /// Planner-statistics deltas (one per table touched, in first-touch
    /// order), computed by the gate from the write set's old/new row
    /// images — the only place both images coexist. The commit thread
    /// folds these in block order once the whole block is applied.
    pub stats: Vec<StatsDelta>,
}

impl ApplyPlan {
    /// Execute every step, in op order.
    pub fn execute_all(&self) -> Vec<WriteRecord> {
        self.steps.iter().map(|s| s.execute(self.block)).collect()
    }
}

/// Per-transaction context handed to the SQL executor.
pub struct TxnCtx {
    /// Local transaction id.
    pub id: TxId,
    /// Block-height snapshot this transaction reads at.
    pub snapshot: Snapshot,
    /// Strict (EO) or relaxed (OE / read-only) scan behaviour.
    pub mode: ScanMode,
    mgr: Arc<SsiManager>,
    ops: Mutex<Vec<WriteOp>>,
    /// Read-only contexts skip all conflict registration.
    tracking: bool,
}

impl TxnCtx {
    /// Begin a tracked transaction at `height`.
    pub fn begin(mgr: &Arc<SsiManager>, height: BlockHeight, mode: ScanMode) -> TxnCtx {
        let id = mgr.begin();
        TxnCtx {
            id,
            snapshot: Snapshot::new(id, height),
            mode,
            mgr: Arc::clone(mgr),
            ops: Mutex::new(Vec::new()),
            tracking: true,
        }
    }

    /// A read-only context at `height`: sees the committed snapshot, never
    /// registers conflicts, cannot write. Used for client queries and
    /// provenance reads (which execute on one node only, §4.3).
    pub fn read_only(mgr: &Arc<SsiManager>, height: BlockHeight) -> TxnCtx {
        TxnCtx {
            id: TxId::INVALID,
            snapshot: Snapshot::new(TxId::INVALID, height),
            mode: ScanMode::Relaxed,
            mgr: Arc::clone(mgr),
            ops: Mutex::new(Vec::new()),
            tracking: false,
        }
    }

    /// The SSI manager this context registers with.
    pub fn manager(&self) -> &Arc<SsiManager> {
        &self.mgr
    }

    /// Mark this transaction as doomed (used by the executor when a
    /// contract raises an error mid-flight).
    pub fn doom(&self, reason: AbortReason) {
        if self.tracking {
            self.mgr.doom(self.id, reason);
        }
    }

    /// Number of write operations buffered so far.
    pub fn write_count(&self) -> usize {
        self.ops.lock().len()
    }

    // ------------------------------------------------------------- scans

    /// Scan `table` along `plan`. Returns visible rows ordered by row id
    /// (deterministic across nodes; this transaction's own pending rows
    /// last, in execution order). In [`ScanMode::Strict`] the scan
    /// aborts on phantom/stale candidates per §3.4.1 and refuses
    /// [`ScanPlan::Full`].
    ///
    /// One predicate lock is registered per index part, all of them
    /// before any index is touched (see module docs on ordering). For an
    /// intersection that is a conservative superset of the matched rows
    /// (safe: extra locks can only cause extra aborts, identically on
    /// every node); for a union the parts cover every matched row by
    /// construction.
    pub fn scan(&self, table: &Arc<Table>, plan: &ScanPlan) -> Result<Vec<VisibleRow>> {
        let name = table.name();
        let candidates = match plan {
            ScanPlan::Full => {
                if self.mode == ScanMode::Strict {
                    return Err(Error::Determinism(format!(
                        "whole-table scan on {name} is not allowed in the \
                         execute-order-in-parallel flow (§4.3)"
                    )));
                }
                if self.tracking {
                    self.mgr.register_table_read(self.id, &name);
                }
                table.all_versions()
            }
            ScanPlan::Intersect(parts) | ScanPlan::Union(parts) => {
                if self.tracking {
                    for (column, range) in parts {
                        self.mgr
                            .register_predicate_read(self.id, &name, *column, range.clone());
                    }
                }
                let mut sets = Vec::with_capacity(parts.len());
                for (column, range) in parts {
                    let idx = table.index_for(*column).ok_or_else(|| {
                        Error::Determinism(format!(
                            "no index on column {column} of table {name}; \
                             predicate reads must use an index (§4.3)"
                        ))
                    })?;
                    sets.push(idx.positions_in_range(range));
                }
                // Heap positions to fetch, ascending and distinct.
                let positions = if matches!(plan, ScanPlan::Union(_)) {
                    let mut all = sets.concat();
                    all.sort_unstable();
                    all.dedup();
                    all
                } else {
                    sets.iter_mut().for_each(|set| set.sort_unstable());
                    let mut sets = sets.into_iter();
                    let mut acc = sets.next().unwrap_or_default();
                    for set in sets {
                        let mut i = 0;
                        acc.retain(|p| {
                            while i < set.len() && set[i] < *p {
                                i += 1;
                            }
                            i < set.len() && set[i] == *p
                        });
                    }
                    acc
                };
                table.versions_at(&positions)
            }
        };
        self.visible_candidates(&name, candidates)
    }

    /// Visibility tail of a scan: register SIREAD locks, classify each
    /// candidate against the snapshot, record rw antidependencies, and
    /// return the visible versions sorted by row id (committed rows
    /// first; own pending rows — UNASSIGNED = u64::MAX — last, in heap
    /// order via the stable sort).
    fn visible_candidates(
        &self,
        table_name: &str,
        candidates: Vec<Arc<Version>>,
    ) -> Result<Vec<VisibleRow>> {
        let mut rows = Vec::new();
        for version in candidates {
            // SIREAD registration precedes classification (race-freedom).
            let row_id = version.row_id();
            if self.tracking && row_id != UNASSIGNED_ROW_ID {
                self.mgr.register_row_read(self.id, table_name, row_id);
            }
            match classify(version.xmin, &version.state(), &self.snapshot) {
                Classification::Visible { pending_writers } => {
                    if self.tracking {
                        for w in pending_writers {
                            self.mgr.register_rw_edge(self.id, w);
                        }
                    }
                    rows.push(VisibleRow { row_id, version });
                }
                Classification::PendingWrite { writer } => {
                    // An uncommitted insert matching our predicate: the
                    // classic predicate rw-antidependency.
                    if self.tracking {
                        self.mgr.register_rw_edge(self.id, writer);
                    }
                }
                Classification::Phantom => {
                    if self.mode == ScanMode::Strict {
                        self.doom(AbortReason::PhantomRead);
                        return Err(Error::Abort(AbortReason::PhantomRead));
                    }
                }
                Classification::Stale => {
                    if self.mode == ScanMode::Strict {
                        self.doom(AbortReason::StaleRead);
                        return Err(Error::Abort(AbortReason::StaleRead));
                    }
                    // Relaxed time-travel semantics: the row existed at the
                    // snapshot height, so it is visible.
                    rows.push(VisibleRow { row_id, version });
                }
                Classification::Invisible => {}
            }
        }
        rows.sort_by_key(|r| r.row_id);
        Ok(rows)
    }

    // ------------------------------------------------------------ writes

    fn ensure_writable(&self) -> Result<()> {
        if !self.tracking {
            return Err(Error::Analysis(
                "read-only context cannot execute writes".into(),
            ));
        }
        Ok(())
    }

    /// Values of indexed columns for conflict probing.
    fn indexed_values(table: &Table, row: &[Value]) -> Vec<(usize, Value)> {
        let schema = table.schema();
        let mut out = Vec::new();
        if schema.primary_key.len() == 1 {
            let c = schema.primary_key[0];
            out.push((c, row[c].clone()));
        }
        for idx in &schema.indexes {
            if !out.iter().any(|(c, _)| *c == idx.column) {
                out.push((idx.column, row[idx.column].clone()));
            }
        }
        out
    }

    /// INSERT a row (already schema-checked by the executor).
    pub fn insert(&self, table: &Arc<Table>, row: Row) -> Result<()> {
        self.ensure_writable()?;
        // Append (making the pending version discoverable) BEFORE probing
        // reader locks — see module docs.
        let (_, version) = table.append_version(self.id, row, UNASSIGNED_ROW_ID);
        let probes = Self::indexed_values(table, &version.data);
        self.mgr
            .on_write(self.id, &table.name(), UNASSIGNED_ROW_ID, &probes);
        self.ops.lock().push(WriteOp::Insert {
            table: Arc::clone(table),
            version,
        });
        Ok(())
    }

    /// UPDATE `target` to `new_row`.
    pub fn update(&self, table: &Arc<Table>, target: &VisibleRow, new_row: Row) -> Result<()> {
        self.ensure_writable()?;
        // Flag the old version first (xmax array, no lock wait — §4.3),
        // then probe reader locks.
        target.version.add_pending_writer(self.id);
        let (_, new_version) = table.append_version(self.id, new_row, target.version.row_id());
        let mut probes = Self::indexed_values(table, target.data());
        for (c, v) in Self::indexed_values(table, &new_version.data) {
            if !probes.contains(&(c, v.clone())) {
                probes.push((c, v));
            }
        }
        self.mgr
            .on_write(self.id, &table.name(), target.row_id, &probes);
        self.ops.lock().push(WriteOp::Update {
            table: Arc::clone(table),
            old: Arc::clone(&target.version),
            new: new_version,
        });
        Ok(())
    }

    /// DELETE `target`.
    pub fn delete(&self, table: &Arc<Table>, target: &VisibleRow) -> Result<()> {
        self.ensure_writable()?;
        target.version.add_pending_writer(self.id);
        let probes = Self::indexed_values(table, target.data());
        self.mgr
            .on_write(self.id, &table.name(), target.row_id, &probes);
        self.ops.lock().push(WriteOp::Delete {
            table: Arc::clone(table),
            old: Arc::clone(&target.version),
        });
        Ok(())
    }

    // ------------------------------------------------------ commit/abort

    /// Run the full commit protocol at (block, pos) under `flow`:
    /// SSI decision → primary-key enforcement → write-set application with
    /// deterministic row-id assignment and ww-loser dooming. Must be called
    /// from the serial commit phase. Equivalent to [`TxnCtx::validate_commit`]
    /// followed immediately by executing the returned plan.
    pub fn apply_commit(&self, block: BlockHeight, pos: u32, flow: Flow) -> CommitOutcome {
        match self.validate_commit(block, pos, flow) {
            Ok(plan) => CommitOutcome::Committed(plan.execute_all()),
            Err(reason) => CommitOutcome::Aborted(reason),
        }
    }

    /// The deciding half of the commit protocol: SSI decision,
    /// primary-key enforcement against storage, old-version deletion with
    /// ww-loser dooming, batched row-id assignment, and the SSI commit
    /// itself.
    ///
    /// On success the remaining work — publishing the new versions and
    /// building the write-set summary — comes back as an [`ApplyPlan`].
    /// The caller must execute it before validating the next transaction
    /// of the block: that transaction's primary-key check looks only at
    /// storage, so its predecessors' rows have to be live there.
    ///
    /// Row-id determinism: insert ids are reserved per `(transaction,
    /// table)` with one allocator bump each, in op order — exactly the ids
    /// per-op allocation hands out.
    pub fn validate_commit(
        &self,
        block: BlockHeight,
        pos: u32,
        flow: Flow,
    ) -> std::result::Result<ApplyPlan, AbortReason> {
        debug_assert!(self.tracking, "read-only context cannot commit");
        if let Err(reason) = self.mgr.commit_check(self.id, block, pos, flow) {
            self.rollback();
            return Err(reason);
        }
        if let Err(reason) = self.check_pk_uniqueness() {
            self.rollback();
            return Err(reason);
        }

        let ops = self.ops.lock();
        // One row-id range per table touched by an insert, reserved in
        // first-use order; counters of distinct tables are independent, so
        // the ids match per-op allocation.
        let mut cursors: Vec<(Arc<Table>, u64)> = Vec::new();
        for op in ops.iter() {
            if let WriteOp::Insert { table, .. } = op {
                match cursors.iter_mut().find(|(t, _)| Arc::ptr_eq(t, table)) {
                    Some((_, n)) => *n += 1,
                    None => cursors.push((Arc::clone(table), 1)),
                }
            }
        }
        for (table, n) in cursors.iter_mut() {
            *n = table.reserve_row_ids(*n).0;
        }

        // Update chains within this transaction target versions whose row
        // id is assigned by an earlier step of this same plan; resolve
        // them from the steps built so far.
        let mut assigned: Vec<(Arc<Version>, RowId)> = Vec::new();
        let resolve = |old: &Arc<Version>, assigned: &[(Arc<Version>, RowId)]| {
            let rid = old.row_id();
            if rid != UNASSIGNED_ROW_ID {
                return rid;
            }
            assigned
                .iter()
                .find(|(v, _)| Arc::ptr_eq(v, old))
                .map(|(_, r)| *r)
                .expect("own-row write targets a version created earlier in this transaction")
        };

        let mut steps = Vec::with_capacity(ops.len());
        for op in ops.iter() {
            match op {
                WriteOp::Insert { table, version } => {
                    let cursor = cursors
                        .iter_mut()
                        .find(|(t, _)| Arc::ptr_eq(t, table))
                        .expect("every inserted-into table was counted");
                    let row_id = RowId(cursor.1);
                    cursor.1 += 1;
                    assigned.push((Arc::clone(version), row_id));
                    steps.push(ApplyStep::Create {
                        table: table.name(),
                        version: Arc::clone(version),
                        kind: 0,
                        row_id,
                    });
                }
                WriteOp::Update { table, old, new } => {
                    let losers = old.commit_delete(self.id, block);
                    for l in losers {
                        self.mgr.doom(l, AbortReason::WwConflict);
                    }
                    let row_id = resolve(old, &assigned);
                    assigned.push((Arc::clone(new), row_id));
                    steps.push(ApplyStep::Create {
                        table: table.name(),
                        version: Arc::clone(new),
                        kind: 1,
                        row_id,
                    });
                }
                WriteOp::Delete { table, old } => {
                    let losers = old.commit_delete(self.id, block);
                    for l in losers {
                        self.mgr.doom(l, AbortReason::WwConflict);
                    }
                    steps.push(ApplyStep::Ready(WriteRecord {
                        table: table.name(),
                        kind: 2,
                        row_id: resolve(old, &assigned),
                        data: Vec::new(),
                    }));
                }
            }
        }
        // Statistics deltas from the write set's old/new images, per
        // table in first-touch order.
        let mut stats: Vec<StatsDelta> = Vec::new();
        {
            let entry = |stats: &mut Vec<StatsDelta>, table: &Arc<Table>| -> usize {
                let name = table.name();
                match stats.iter().position(|d| d.table == name) {
                    Some(i) => i,
                    None => {
                        stats.push(StatsDelta {
                            table: name,
                            ..StatsDelta::default()
                        });
                        stats.len() - 1
                    }
                }
            };
            for op in ops.iter() {
                match op {
                    WriteOp::Insert { table, version } => {
                        let i = entry(&mut stats, table);
                        stats[i]
                            .added
                            .extend(Self::indexed_values(table, &version.data));
                        stats[i].live_delta += 1;
                    }
                    WriteOp::Update { table, old, new } => {
                        let i = entry(&mut stats, table);
                        stats[i]
                            .removed
                            .extend(Self::indexed_values(table, &old.data));
                        stats[i]
                            .added
                            .extend(Self::indexed_values(table, &new.data));
                    }
                    WriteOp::Delete { table, old } => {
                        let i = entry(&mut stats, table);
                        stats[i]
                            .removed
                            .extend(Self::indexed_values(table, &old.data));
                        stats[i].live_delta -= 1;
                    }
                }
            }
        }
        drop(ops);
        self.mgr.commit(self.id);
        Ok(ApplyPlan {
            block,
            steps,
            stats,
        })
    }

    /// Primary-key uniqueness at commit time: inserts (and updates that
    /// change the key) must not collide with live committed rows — which
    /// include the rows of same-block predecessors, already applied — nor
    /// with other rows written by this same transaction.
    fn check_pk_uniqueness(&self) -> std::result::Result<(), AbortReason> {
        let ops = self.ops.lock();
        let mut own_keys: Vec<(String, Value)> = Vec::new();
        for op in ops.iter() {
            let (table, new_version) = match op {
                WriteOp::Insert { table, version } => (table, version),
                WriteOp::Update { table, old, new } => {
                    // Key-preserving updates (including update chains on
                    // the same logical row) cannot introduce a duplicate.
                    let schema = table.schema();
                    if schema.primary_key.len() == 1 {
                        let pk_col = schema.primary_key[0];
                        if old.data[pk_col] == new.data[pk_col] {
                            continue;
                        }
                    }
                    (table, new)
                }
                WriteOp::Delete { .. } => continue,
            };
            let schema = table.schema();
            if schema.primary_key.len() != 1 {
                continue;
            }
            let pk_col = schema.primary_key[0];
            let pk_value = new_version.data[pk_col].clone();
            let conflicts = table.committed_pk_conflicts(&pk_value, self.id);
            // A live committed row with the same key conflicts unless this
            // transaction itself is replacing it (old version pending-
            // deleted by us).
            let real_conflict = conflicts
                .iter()
                .any(|v| !v.state().xmax_pending.contains(&self.id));
            if real_conflict {
                return Err(AbortReason::ContractError(format!(
                    "duplicate key value {pk_value} violates primary key of table {}",
                    table.name()
                )));
            }
            let key = (table.name(), pk_value);
            // Within-transaction duplicates: an UPDATE writing the same key
            // as a previous op is fine only if it superseded that op's row;
            // conservatively reject exact duplicates among inserts/updates.
            if own_keys.contains(&key) {
                return Err(AbortReason::ContractError(format!(
                    "duplicate key value {} written twice by one transaction in table {}",
                    key.1, key.0
                )));
            }
            own_keys.push(key);
        }
        Ok(())
    }

    /// Undo all buffered writes and mark the transaction aborted.
    pub fn rollback(&self) {
        let ops = self.ops.lock();
        for op in ops.iter() {
            match op {
                WriteOp::Insert { version, .. } => version.abort_create(),
                WriteOp::Update { old, new, .. } => {
                    new.abort_create();
                    old.remove_pending_writer(self.id);
                }
                WriteOp::Delete { old, .. } => old.remove_pending_writer(self.id),
            }
        }
        drop(ops);
        self.mgr.abort(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_common::schema::{Column, DataType, TableSchema};

    fn setup() -> (Arc<SsiManager>, Arc<Table>) {
        let mgr = Arc::new(SsiManager::new());
        let schema = TableSchema::new(
            "accounts",
            vec![
                Column::new("id", DataType::Int),
                Column::new("balance", DataType::Int),
            ],
            vec![0],
        )
        .unwrap();
        (mgr, Arc::new(Table::new(schema)))
    }

    fn commit(ctx: &TxnCtx, block: BlockHeight, pos: u32) -> CommitOutcome {
        ctx.apply_commit(block, pos, Flow::OrderThenExecute)
    }

    #[test]
    fn insert_commit_read_roundtrip() {
        let (mgr, table) = setup();
        let t1 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        // Own write visible before commit.
        let rows = t1.scan(&table, &ScanPlan::Full).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].row_id, UNASSIGNED_ROW_ID);
        let outcome = commit(&t1, 1, 0);
        assert!(outcome.is_committed());

        // Visible to a later reader at height 1, not at height 0.
        let r = TxnCtx::read_only(&mgr, 1);
        assert_eq!(r.scan(&table, &ScanPlan::Full).unwrap().len(), 1);
        let r0 = TxnCtx::read_only(&mgr, 0);
        assert_eq!(r0.scan(&table, &ScanPlan::Full).unwrap().len(), 0);
    }

    #[test]
    fn update_creates_new_version_same_row_id() {
        let (mgr, table) = setup();
        let t1 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        assert!(commit(&t1, 1, 0).is_committed());

        let t2 = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let target = &t2.scan(&table, &ScanPlan::Full).unwrap()[0];
        let rid = target.row_id;
        t2.update(&table, target, vec![Value::Int(1), Value::Int(150)])
            .unwrap();
        assert!(commit(&t2, 2, 0).is_committed());

        let r = TxnCtx::read_only(&mgr, 2);
        let rows = r.scan(&table, &ScanPlan::Full).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].row_id, rid);
        assert_eq!(rows[0].data()[1], Value::Int(150));
        // Time travel to height 1 sees the old balance.
        let r1 = TxnCtx::read_only(&mgr, 1);
        assert_eq!(
            r1.scan(&table, &ScanPlan::Full).unwrap()[0].data()[1],
            Value::Int(100)
        );
    }

    #[test]
    fn delete_hides_row() {
        let (mgr, table) = setup();
        let t1 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(1), Value::Int(5)])
            .unwrap();
        assert!(commit(&t1, 1, 0).is_committed());
        let t2 = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let target = t2.scan(&table, &ScanPlan::Full).unwrap()[0].clone();
        t2.delete(&table, &target).unwrap();
        // Own delete: the row is gone for t2 already.
        assert_eq!(t2.scan(&table, &ScanPlan::Full).unwrap().len(), 0);
        assert!(commit(&t2, 2, 0).is_committed());
        assert_eq!(
            TxnCtx::read_only(&mgr, 2)
                .scan(&table, &ScanPlan::Full)
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            TxnCtx::read_only(&mgr, 1)
                .scan(&table, &ScanPlan::Full)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn ww_conflict_first_committer_wins() {
        let (mgr, table) = setup();
        let t0 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t0.insert(&table, vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        assert!(commit(&t0, 1, 0).is_committed());

        // Two concurrent updaters of the same row — no lock wait (xmax
        // array), loser doomed at winner's commit (§3.3.3).
        let ta = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let tb = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let target_a = ta.scan(&table, &ScanPlan::Full).unwrap()[0].clone();
        let target_b = tb.scan(&table, &ScanPlan::Full).unwrap()[0].clone();
        ta.update(&table, &target_a, vec![Value::Int(1), Value::Int(110)])
            .unwrap();
        tb.update(&table, &target_b, vec![Value::Int(1), Value::Int(120)])
            .unwrap();

        assert!(ta.apply_commit(2, 0, Flow::OrderThenExecute).is_committed());
        // The loser aborts: either flagged as the ww loser at the winner's
        // commit, or doomed earlier by the rw 2-cycle both updates create
        // (each read the row the other overwrote).
        match tb.apply_commit(2, 1, Flow::OrderThenExecute) {
            CommitOutcome::Aborted(
                AbortReason::WwConflict
                | AbortReason::SsiDoomedByPeer
                | AbortReason::SsiDangerousStructure,
            ) => {}
            other => panic!("expected ww/ssi abort, got {other:?}"),
        }
        // Winner's value persisted.
        let rows = TxnCtx::read_only(&mgr, 2)
            .scan(&table, &ScanPlan::Full)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].data()[1], Value::Int(110));
    }

    #[test]
    fn pk_uniqueness_at_commit() {
        let (mgr, table) = setup();
        let t0 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t0.insert(&table, vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        assert!(commit(&t0, 1, 0).is_committed());

        // Committed duplicate.
        let t1 = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        match commit(&t1, 2, 0) {
            CommitOutcome::Aborted(AbortReason::ContractError(msg)) => {
                assert!(msg.contains("duplicate key"), "{msg}");
            }
            other => panic!("expected pk abort, got {other:?}"),
        }

        // Two concurrent inserts of the same key: first commits, second
        // aborts deterministically.
        let ta = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let tb = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        ta.insert(&table, vec![Value::Int(7), Value::Int(0)])
            .unwrap();
        tb.insert(&table, vec![Value::Int(7), Value::Int(0)])
            .unwrap();
        assert!(ta.apply_commit(2, 1, Flow::OrderThenExecute).is_committed());
        assert!(!tb.apply_commit(2, 2, Flow::OrderThenExecute).is_committed());

        // Same-transaction duplicate.
        let tc = TxnCtx::begin(&mgr, 2, ScanMode::Relaxed);
        tc.insert(&table, vec![Value::Int(9), Value::Int(0)])
            .unwrap();
        tc.insert(&table, vec![Value::Int(9), Value::Int(1)])
            .unwrap();
        assert!(!commit(&tc, 3, 0).is_committed());

        // Update replacing a row with the same key is fine.
        let td = TxnCtx::begin(&mgr, 2, ScanMode::Relaxed);
        let target = td
            .scan(&table, &ScanPlan::index(0, KeyRange::eq(Value::Int(1))))
            .unwrap()[0]
            .clone();
        td.update(&table, &target, vec![Value::Int(1), Value::Int(42)])
            .unwrap();
        assert!(commit(&td, 3, 1).is_committed());
    }

    #[test]
    fn strict_mode_detects_phantom_and_stale_reads() {
        let (mgr, table) = setup();
        // Height 1: row 1 exists. Height 2: row 2 inserted, row 1 updated.
        let t0 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t0.insert(&table, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        assert!(commit(&t0, 1, 0).is_committed());
        let t1 = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(2), Value::Int(20)])
            .unwrap();
        let target = t1
            .scan(&table, &ScanPlan::index(0, KeyRange::eq(Value::Int(1))))
            .unwrap()[0]
            .clone();
        t1.update(&table, &target, vec![Value::Int(1), Value::Int(11)])
            .unwrap();
        assert!(commit(&t1, 2, 0).is_committed());

        // A strict transaction at snapshot height 1 scanning a range that
        // covers the block-2 insert → phantom read abort (§3.4.1 rule 1).
        let tp = TxnCtx::begin(&mgr, 1, ScanMode::Strict);
        let err = tp
            .scan(
                &table,
                &ScanPlan::index(0, KeyRange::between(Value::Int(0), Value::Int(100))),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Abort(AbortReason::PhantomRead | AbortReason::StaleRead)
        ));
        tp.rollback();

        // A strict transaction at height 1 reading exactly row 1 (updated
        // by block 2) → stale read abort (§3.4.1 rule 2).
        let ts = TxnCtx::begin(&mgr, 1, ScanMode::Strict);
        let err = ts
            .scan(&table, &ScanPlan::index(0, KeyRange::eq(Value::Int(1))))
            .unwrap_err();
        assert!(matches!(err, Error::Abort(AbortReason::StaleRead)));
        ts.rollback();

        // Relaxed read-only time travel at height 1 still works.
        let r = TxnCtx::read_only(&mgr, 1);
        let rows = r
            .scan(&table, &ScanPlan::index(0, KeyRange::eq(Value::Int(1))))
            .unwrap();
        assert_eq!(rows[0].data()[1], Value::Int(10));

        // A strict transaction at the current height is unaffected.
        let tok = TxnCtx::begin(&mgr, 2, ScanMode::Strict);
        let rows = tok
            .scan(
                &table,
                &ScanPlan::index(0, KeyRange::between(Value::Int(0), Value::Int(100))),
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        tok.rollback();
    }

    #[test]
    fn strict_mode_rejects_full_scans() {
        let (mgr, table) = setup();
        let t = TxnCtx::begin(&mgr, 0, ScanMode::Strict);
        assert!(matches!(
            t.scan(&table, &ScanPlan::Full),
            Err(Error::Determinism(_))
        ));
        // And rejects scans on unindexed columns.
        assert!(matches!(
            t.scan(&table, &ScanPlan::index(1, KeyRange::eq(Value::Int(5)))),
            Err(Error::Determinism(_))
        ));
        t.rollback();
    }

    #[test]
    fn rollback_undoes_everything() {
        let (mgr, table) = setup();
        let t0 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t0.insert(&table, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        assert!(commit(&t0, 1, 0).is_committed());

        let t1 = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        t1.insert(&table, vec![Value::Int(2), Value::Int(20)])
            .unwrap();
        let target = t1
            .scan(&table, &ScanPlan::index(0, KeyRange::eq(Value::Int(1))))
            .unwrap()[0]
            .clone();
        t1.update(&table, &target, vec![Value::Int(1), Value::Int(99)])
            .unwrap();
        t1.rollback();

        let rows = TxnCtx::read_only(&mgr, 1)
            .scan(&table, &ScanPlan::Full)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].data()[1], Value::Int(10));
        // The old version's xmax was cleared: a new update succeeds.
        let t2 = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let target = t2.scan(&table, &ScanPlan::Full).unwrap()[0].clone();
        t2.update(&table, &target, vec![Value::Int(1), Value::Int(11)])
            .unwrap();
        assert!(commit(&t2, 2, 0).is_committed());
    }

    #[test]
    fn write_set_summary_is_deterministic() {
        let (mgr, table) = setup();
        let t = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t.insert(&table, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        t.insert(&table, vec![Value::Int(2), Value::Int(20)])
            .unwrap();
        match commit(&t, 1, 0) {
            CommitOutcome::Committed(summary) => {
                assert_eq!(summary.len(), 2);
                assert_eq!(summary[0].row_id, RowId(1));
                assert_eq!(summary[1].row_id, RowId(2));
                assert_eq!(summary[0].kind, 0);
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn read_only_context_cannot_write() {
        let (mgr, table) = setup();
        let r = TxnCtx::read_only(&mgr, 0);
        assert!(r
            .insert(&table, vec![Value::Int(1), Value::Int(1)])
            .is_err());
    }

    #[test]
    fn same_block_commits_assign_consecutive_row_ids() {
        let (mgr, table) = setup();
        // Two transactions of one block, committed back to back: row ids
        // run on in (transaction, op) order and every row is live at the
        // block height — not before.
        let ta = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        ta.insert(&table, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        ta.insert(&table, vec![Value::Int(2), Value::Int(20)])
            .unwrap();
        let tb = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        tb.insert(&table, vec![Value::Int(3), Value::Int(30)])
            .unwrap();
        let ids = |outcome: CommitOutcome| -> Vec<(RowId, u8)> {
            outcome
                .into_writes()
                .expect("committed")
                .iter()
                .map(|w| (w.row_id, w.kind))
                .collect()
        };
        assert_eq!(ids(commit(&ta, 1, 0)), vec![(RowId(1), 0), (RowId(2), 0)]);
        assert_eq!(ids(commit(&tb, 1, 1)), vec![(RowId(3), 0)]);
        assert_eq!(
            TxnCtx::read_only(&mgr, 0)
                .scan(&table, &ScanPlan::Full)
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            TxnCtx::read_only(&mgr, 1)
                .scan(&table, &ScanPlan::Full)
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn same_block_duplicate_insert_aborts() {
        let (mgr, table) = setup();
        // Two transactions of one block insert the same key. The first
        // one's row is live in storage by the time the second is
        // validated, so the storage check alone stops it.
        let ta = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        ta.insert(&table, vec![Value::Int(7), Value::Int(1)])
            .unwrap();
        let tb = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        tb.insert(&table, vec![Value::Int(7), Value::Int(2)])
            .unwrap();
        assert!(commit(&ta, 1, 0).is_committed());
        match commit(&tb, 1, 1) {
            CommitOutcome::Aborted(AbortReason::ContractError(msg)) => {
                assert!(msg.contains("duplicate key"), "{msg}");
            }
            other => panic!("expected pk abort, got {other:?}"),
        }
        // Exactly the winner's row is left.
        let rows = TxnCtx::read_only(&mgr, 1)
            .scan(&table, &ScanPlan::Full)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].data()[1], Value::Int(1));
    }

    #[test]
    fn same_block_insert_after_key_preserving_update_aborts() {
        let (mgr, table) = setup();
        let t0 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t0.insert(&table, vec![Value::Int(3), Value::Int(1)])
            .unwrap();
        assert!(commit(&t0, 1, 0).is_committed());

        // A key-preserving update deletes its old version and publishes
        // the successor at the same block height: key 3 never becomes
        // free, so a same-block insert of it aborts.
        let tu = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        let target = tu.scan(&table, &ScanPlan::Full).unwrap()[0].clone();
        tu.update(&table, &target, vec![Value::Int(3), Value::Int(2)])
            .unwrap();
        let ti = TxnCtx::begin(&mgr, 1, ScanMode::Relaxed);
        ti.insert(&table, vec![Value::Int(3), Value::Int(9)])
            .unwrap();
        assert!(commit(&tu, 2, 0).is_committed());
        match commit(&ti, 2, 1) {
            CommitOutcome::Aborted(AbortReason::ContractError(msg)) => {
                assert!(msg.contains("duplicate key"), "{msg}");
            }
            other => panic!("expected pk abort, got {other:?}"),
        }
        let rows = TxnCtx::read_only(&mgr, 2)
            .scan(&table, &ScanPlan::Full)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].data()[1], Value::Int(2));
    }

    #[test]
    fn update_chain_row_ids_resolve_within_a_transaction() {
        let (mgr, table) = setup();
        // Insert then update the same row inside one transaction: the
        // update's new version must inherit the id assigned to the insert
        // in the same commit, before the insert's version is published.
        let t = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        t.insert(&table, vec![Value::Int(5), Value::Int(1)])
            .unwrap();
        let own = t.scan(&table, &ScanPlan::Full).unwrap()[0].clone();
        t.update(&table, &own, vec![Value::Int(5), Value::Int(2)])
            .unwrap();
        // A same-block sibling inserting the next key.
        let sibling = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        sibling
            .insert(&table, vec![Value::Int(6), Value::Int(3)])
            .unwrap();
        let summary = commit(&t, 1, 0).into_writes().expect("committed");
        assert_eq!(summary.len(), 2);
        assert_eq!((summary[0].kind, summary[1].kind), (0, 1));
        assert_eq!(summary[0].row_id, summary[1].row_id);
        // The chain consumed one row id, not two.
        let next = commit(&sibling, 1, 1).into_writes().expect("committed");
        assert_eq!(next[0].row_id, RowId(summary[0].row_id.0 + 1));
        let rows = TxnCtx::read_only(&mgr, 1)
            .scan(&table, &ScanPlan::Full)
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].data()[1], Value::Int(2));
        assert_eq!(rows[0].row_id, summary[0].row_id);
    }
}
