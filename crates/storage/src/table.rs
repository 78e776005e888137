//! Tables: an append-only, *segmented* version heap plus B-tree indexes.
//!
//! The heap is a sequence of fixed-size segments. Heap positions are
//! global (`segment · SEGMENT_SIZE + offset`) and **stable for the life
//! of the table**: appends only ever touch the tail segment's lock, so
//! readers scanning older segments never contend with concurrent
//! appends (the property the pipelined block commit leans on — block
//! N+1's executions read while block N's post-commit work appends
//! ledger rows), and [`Table::vacuum`] reclaims dead versions by
//! tombstoning their slot in place instead of compacting, so a scan
//! that captured index positions before a vacuum still resolves them to
//! the same rows afterwards (reclaimed slots simply read as empty).
//! Vacuum is therefore safe to run concurrently with readers; the
//! history it destroys — versions deleted at or before the horizon — is
//! exactly what the paper's enhanced `VACUUM` (§7) gives up.
//!
//! # Paged segments
//!
//! A table constructed with a [`TablePager`] attachment can page cold
//! segments out to its on-disk page file ([`Table::spill`]): a full,
//! non-tail segment whose versions are all quiescent (committed at or
//! below the spill horizon, no pending writers, no outstanding `Arc`
//! clones) is serialized into a segment chain and its slots are freed.
//! Every accessor *faults* a paged segment back in on first touch —
//! whole-segment granularity, through the shared buffer pool — so
//! paging is invisible to readers: positions, scan results and hashes
//! are identical to the all-in-memory table. Index entries for paged
//! positions stay in the indexes (positions are stable), so index scans
//! fault in exactly the segments they touch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::{BlockHeight, RowId, TxId};
use bcrdb_common::schema::TableSchema;
use bcrdb_common::value::{Row, Value};
use parking_lot::{RwLock, RwLockReadGuard};

use crate::index::{BTreeIndex, KeyRange};
use crate::page::{self, PageBuilder, NO_DELETER};
use crate::pager::{PagedStore, PagerFile};
use crate::stats::{self, StatsDelta, TableStats, TableSummary};
use crate::version::Version;

/// log2 of the heap segment size. Public so write-set partitioners can
/// shard by `(table, row_id >> SEGMENT_SHIFT)` — the same granularity
/// appends contend on.
pub const SEGMENT_SHIFT: usize = 10;
/// Version-heap slots per segment. Appends lock only the tail segment;
/// reads lock only the segment(s) they touch.
pub const SEGMENT_SIZE: usize = 1 << SEGMENT_SHIFT;

/// A table's attachment to the node-wide paged store: the shared buffer
/// pool plus this table's own page file.
#[derive(Clone)]
pub struct TablePager {
    /// The node-wide store (buffer pool, file registry, metrics).
    pub store: Arc<PagedStore>,
    /// This table's page file.
    pub file: Arc<PagerFile>,
}

/// Mutable state of one segment, behind its `slots` lock.
struct SegmentInner {
    /// The heap slots. Empty while the segment is paged out.
    slots: Vec<Option<Arc<Version>>>,
    /// The segment's versions live in the table's page file; any access
    /// faults them back in first.
    paged: bool,
}

/// One fixed-size run of heap slots. A slot is `None` either because the
/// segment has not grown to it yet or because vacuum reclaimed it.
struct Segment {
    slots: RwLock<SegmentInner>,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            slots: RwLock::new(SegmentInner {
                slots: Vec::with_capacity(SEGMENT_SIZE),
                paged: false,
            }),
        }
    }
}

/// A table: schema, segmented version heap and indexes.
pub struct Table {
    schema: RwLock<TableSchema>,
    /// The segment directory. Write-locked only to push a new (empty)
    /// tail segment — roughly once per [`SEGMENT_SIZE`] appends.
    segments: RwLock<Vec<Arc<Segment>>>,
    /// Column ordinal → index. The primary-key index always exists for
    /// single-column PKs.
    indexes: RwLock<BTreeMap<usize, Arc<BTreeIndex>>>,
    /// Commit-time row-id allocator. Advanced only during the serial commit
    /// phase, so the sequence is identical on every node.
    next_row_id: AtomicU64,
    /// Planner statistics: exact per-indexed-column key counts plus the
    /// sealed summary history read as-of snapshot height. Maintained on
    /// the commit thread (fold + seal in block order); a leaf lock —
    /// never held while acquiring any other table lock.
    stats: RwLock<TableStats>,
    /// Paging attachment; `None` keeps the whole heap in memory.
    pager: Option<TablePager>,
}

impl Table {
    /// Create an empty in-memory table. A primary-key index is created
    /// automatically for single-column primary keys; secondary indexes
    /// declared in the schema are materialized too.
    pub fn new(schema: TableSchema) -> Table {
        Table::new_in(schema, None)
    }

    /// Create an empty table, optionally attached to a paged store (cold
    /// segments then spill to the table's page file). The attachment is
    /// fixed for the table's lifetime.
    pub fn new_in(schema: TableSchema, pager: Option<TablePager>) -> Table {
        let mut indexes = BTreeMap::new();
        if schema.primary_key.len() == 1 {
            let col = schema.primary_key[0];
            indexes.insert(
                col,
                Arc::new(BTreeIndex::new(format!("{}_pkey", schema.name), col)),
            );
        }
        for def in &schema.indexes {
            indexes
                .entry(def.column)
                .or_insert_with(|| Arc::new(BTreeIndex::new(def.name.clone(), def.column)));
        }
        let stats = TableStats::with_columns(&stats::stat_columns(&schema));
        Table {
            schema: RwLock::new(schema),
            segments: RwLock::new(vec![Arc::new(Segment::new())]),
            indexes: RwLock::new(indexes),
            next_row_id: AtomicU64::new(1),
            stats: RwLock::new(stats),
            pager,
        }
    }

    /// The table's paging attachment, if any.
    pub fn pager(&self) -> Option<&TablePager> {
        self.pager.as_ref()
    }

    /// Acquire `seg`'s slots for reading, faulting the segment in from
    /// the page file first when it is paged out.
    fn resident<'a>(&self, si: usize, seg: &'a Segment) -> RwLockReadGuard<'a, SegmentInner> {
        loop {
            {
                let g = seg.slots.read();
                if !g.paged {
                    return g;
                }
            }
            self.fault(si, seg);
        }
    }

    /// Rehydrate a paged-out segment from its chain. A fault failure is
    /// unrecoverable mid-transaction (the accessor APIs are infallible),
    /// so corruption panics with a diagnostic — operationally the same
    /// as the block store's fatal mid-file corruption.
    #[cold]
    fn fault(&self, si: usize, seg: &Segment) {
        let pager = self.pager.as_ref().expect("paged segment on unpaged table");
        let mut g = seg.slots.write();
        if !g.paged {
            return; // another thread faulted it in first
        }
        let mut slots = vec![None; SEGMENT_SIZE];
        for (off, v) in decode_chain(pager, si) {
            slots[off] = Some(Arc::new(v));
        }
        g.slots = slots;
        g.paged = false;
    }

    /// Append `version` to the heap and return its global position.
    /// Contends only on the tail segment (and, when the tail is full, on
    /// the segment directory for the one push that extends it).
    fn push(&self, version: Arc<Version>) -> usize {
        loop {
            let (seg_idx, seg) = {
                let segs = self.segments.read();
                (segs.len() - 1, Arc::clone(segs.last().expect("≥1 segment")))
            };
            {
                let mut g = seg.slots.write();
                // A paged segment is by construction full — treat it
                // like a full tail rather than pushing into its freed
                // slot vector.
                if !g.paged && g.slots.len() < SEGMENT_SIZE {
                    let pos = (seg_idx << SEGMENT_SHIFT) + g.slots.len();
                    g.slots.push(Some(version));
                    return pos;
                }
            }
            // Tail full: extend the directory (exactly one appender wins;
            // losers retry against the fresh tail).
            let mut segs = self.segments.write();
            if segs.len() == seg_idx + 1 {
                segs.push(Arc::new(Segment::new()));
            }
        }
    }

    /// Run `f` over every occupied slot in position order, faulting
    /// paged segments in.
    fn for_each_slot(&self, mut f: impl FnMut(usize, &Arc<Version>)) {
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        for (si, seg) in segs.iter().enumerate() {
            let g = self.resident(si, seg);
            for (off, slot) in g.slots.iter().enumerate() {
                if let Some(v) = slot {
                    f((si << SEGMENT_SHIFT) + off, v);
                }
            }
        }
    }

    /// Run `f` over every occupied slot of every *resident* segment, in
    /// position order, without faulting anything in (snapshot encoding:
    /// paged segments are carried by their chains instead).
    pub fn for_each_resident_slot(&self, mut f: impl FnMut(usize, &Arc<Version>)) {
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        for (si, seg) in segs.iter().enumerate() {
            let g = seg.slots.read();
            if g.paged {
                continue;
            }
            for (off, slot) in g.slots.iter().enumerate() {
                if let Some(v) = slot {
                    f((si << SEGMENT_SHIFT) + off, v);
                }
            }
        }
    }

    /// Run `f` over every occupied slot in position order without
    /// changing what is resident: a resident segment is read in place, a
    /// paged one is streamed from its chain — under its read lock, so no
    /// fault or spill interleaves — and stays paged. `paged_only` skips
    /// the resident segments.
    fn for_each_version_in_place(&self, paged_only: bool, mut f: impl FnMut(usize, &Version)) {
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        for (si, seg) in segs.iter().enumerate() {
            let base = si << SEGMENT_SHIFT;
            let g = seg.slots.read();
            if g.paged {
                let pager = self.pager.as_ref().expect("paged segment on unpaged table");
                for (off, v) in decode_chain(pager, si) {
                    f(base + off, &v);
                }
            } else if !paged_only {
                for (off, slot) in g.slots.iter().enumerate() {
                    if let Some(v) = slot {
                        f(base + off, v);
                    }
                }
            }
        }
    }

    /// Clone of the schema.
    pub fn schema(&self) -> TableSchema {
        self.schema.read().clone()
    }

    /// Table name.
    pub fn name(&self) -> String {
        self.schema.read().name.clone()
    }

    /// Add a secondary index over `column_name` and backfill it from the
    /// existing heap.
    pub fn add_index(&self, index_name: &str, column_name: &str) -> Result<()> {
        let column = {
            let mut schema = self.schema.write();
            schema.add_index(index_name, column_name)?;
            schema
                .column_index(column_name)
                .expect("column checked by add_index")
        };
        let idx = Arc::new(BTreeIndex::new(index_name, column));
        // Backfill and register under the segment-directory write lock:
        // appenders (who take it for read in `push`) are excluded for
        // the duration, so a concurrent insert can neither be missed by
        // the backfill nor double-registered after it — once the lock
        // drops, every new append sees the registered index.
        {
            let segs = self.segments.write();
            for (si, seg) in segs.iter().enumerate() {
                let g = self.resident(si, seg);
                for (off, slot) in g.slots.iter().enumerate() {
                    if let Some(v) = slot {
                        idx.insert(v.data[column].clone(), (si << SEGMENT_SHIFT) + off);
                    }
                }
            }
            self.indexes.write().insert(column, idx);
        }
        // The new column's key counts are unknown until the next stats
        // rebuild; mark dirty so the commit thread rebuilds after apply.
        self.stats.write().add_column(column);
        Ok(())
    }

    /// The index over `column`, if one exists.
    pub fn index_for(&self, column: usize) -> Option<Arc<BTreeIndex>> {
        self.indexes.read().get(&column).cloned()
    }

    /// Append an in-flight version (INSERT or the successor image of an
    /// UPDATE). Returns its heap position.
    pub fn append_version(&self, xmin: TxId, data: Row, row_id: RowId) -> (usize, Arc<Version>) {
        let version = Arc::new(Version::new(xmin, data, row_id));
        let pos = self.push(Arc::clone(&version));
        for idx in self.indexes.read().values() {
            idx.insert(version.data[idx.column].clone(), pos);
        }
        (pos, version)
    }

    /// Append a fully committed version (snapshot restore path).
    pub fn append_restored(&self, version: Version) {
        let version = Arc::new(version);
        let pos = self.push(Arc::clone(&version));
        for idx in self.indexes.read().values() {
            idx.insert(version.data[idx.column].clone(), pos);
        }
    }

    /// Append a batch of fully committed versions (ledger writer and bulk
    /// restore paths), taking each tail-segment lock once per segment run
    /// instead of once per version. Index maintenance happens after the
    /// heap positions are fixed, mirroring [`Table::append_restored`].
    pub fn append_restored_batch(&self, versions: Vec<Version>) {
        let mut placed: Vec<(usize, Arc<Version>)> = Vec::with_capacity(versions.len());
        let mut pending = versions.into_iter().map(Arc::new).peekable();
        while pending.peek().is_some() {
            let (seg_idx, seg) = {
                let segs = self.segments.read();
                (segs.len() - 1, Arc::clone(segs.last().expect("≥1 segment")))
            };
            {
                let mut g = seg.slots.write();
                while !g.paged && g.slots.len() < SEGMENT_SIZE {
                    let Some(v) = pending.next() else { break };
                    let pos = (seg_idx << SEGMENT_SHIFT) + g.slots.len();
                    g.slots.push(Some(Arc::clone(&v)));
                    placed.push((pos, v));
                }
            }
            if pending.peek().is_none() {
                break;
            }
            // Tail full: extend the directory, same protocol as `push`.
            let mut segs = self.segments.write();
            if segs.len() == seg_idx + 1 {
                segs.push(Arc::new(Segment::new()));
            }
        }
        let indexes = self.indexes.read();
        for (pos, v) in &placed {
            for idx in indexes.values() {
                idx.insert(v.data[idx.column].clone(), *pos);
            }
        }
    }

    /// The version at a heap position (`None` for unoccupied or vacuumed
    /// slots). Faults the position's segment in if it is paged out.
    pub fn version_at(&self, pos: usize) -> Option<Arc<Version>> {
        let segs = self.segments.read();
        let seg = segs.get(pos >> SEGMENT_SHIFT)?;
        let g = self.resident(pos >> SEGMENT_SHIFT, seg);
        g.slots.get(pos & (SEGMENT_SIZE - 1)).cloned()?
    }

    /// Versions at the given heap positions (missing positions skipped).
    /// Consecutive positions in the same segment share one lock
    /// acquisition — index scans resolve hundreds of positions here, so
    /// this is the hot read path. Faults in exactly the segments the
    /// positions touch.
    pub fn versions_at(&self, positions: &[usize]) -> Vec<Arc<Version>> {
        let segs = self.segments.read();
        let mut out = Vec::with_capacity(positions.len());
        let mut i = 0;
        while i < positions.len() {
            let si = positions[i] >> SEGMENT_SHIFT;
            let Some(seg) = segs.get(si) else {
                i += 1;
                continue;
            };
            let g = self.resident(si, seg);
            while i < positions.len() && positions[i] >> SEGMENT_SHIFT == si {
                if let Some(Some(v)) = g.slots.get(positions[i] & (SEGMENT_SIZE - 1)) {
                    out.push(Arc::clone(v));
                }
                i += 1;
            }
        }
        out
    }

    /// All versions, in heap order. Full scans re-sort visible rows by
    /// row id for determinism.
    pub fn all_versions(&self) -> Vec<Arc<Version>> {
        let mut out = Vec::new();
        self.for_each_slot(|_, v| out.push(Arc::clone(v)));
        out
    }

    /// Number of versions in the heap (live + dead + in-flight; vacuumed
    /// slots excluded).
    pub fn version_count(&self) -> usize {
        let mut n = 0;
        self.for_each_slot(|_, _| n += 1);
        n
    }

    /// Candidate versions for an indexed range scan.
    pub fn index_scan(&self, column: usize, range: &KeyRange) -> Option<Vec<Arc<Version>>> {
        let idx = self.index_for(column)?;
        Some(self.versions_at(&idx.positions_in_range(range)))
    }

    /// Allocate the next committed row id. **Only call from the serial
    /// commit phase** — determinism across nodes depends on allocation
    /// order matching the block order.
    pub fn alloc_row_id(&self) -> RowId {
        RowId(self.next_row_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Reserve `n` consecutive row ids with one allocator bump, returning
    /// the first id of the range. **Only call from the serial commit
    /// phase** — like [`Table::alloc_row_id`], determinism across nodes
    /// depends on reservation order matching the block order. The commit
    /// gate reserves one range per transaction and hands ids out in op
    /// order, so the ids the parallel apply stage publishes are fixed
    /// before any worker runs.
    pub fn reserve_row_ids(&self, n: u64) -> RowId {
        RowId(self.next_row_id.fetch_add(n, Ordering::Relaxed))
    }

    /// Current row-id high-water mark (for persistence).
    pub fn row_id_watermark(&self) -> u64 {
        self.next_row_id.load(Ordering::Relaxed)
    }

    /// Force the row-id allocator (snapshot restore).
    pub fn set_row_id_watermark(&self, v: u64) {
        self.next_row_id.store(v, Ordering::Relaxed);
    }

    /// Count of live (committed, not deleted) rows — a consistency check
    /// helper for tests and checkpoint audits.
    pub fn live_row_count(&self) -> usize {
        let mut n = 0;
        self.for_each_slot(|_, v| {
            if v.is_live() {
                n += 1;
            }
        });
        n
    }

    // ------------------------------------------------- planner statistics

    /// Fold one committed transaction's statistics delta into the live
    /// maps. **Only call from the commit thread, in block order** — the
    /// fold sequence must be identical on every node.
    pub fn stats_apply(&self, delta: &StatsDelta) {
        self.stats.write().apply(delta);
    }

    /// Seal the current statistics as the summary at `height` (after all
    /// of the block's deltas folded). Commit thread only, like
    /// [`Table::stats_apply`].
    pub fn stats_seal(&self, height: BlockHeight) {
        self.stats.write().seal(height);
    }

    /// The sealed statistics summary as of `height` — the planner's
    /// input. `None` before any seal (plan from the stats-free
    /// heuristic).
    pub fn stats_summary_at(&self, height: BlockHeight) -> Option<TableSummary> {
        self.stats.read().summary_at(height)
    }

    /// True when a CREATE INDEX invalidated the statistics and a rebuild
    /// is required before the next seal.
    pub fn stats_dirty(&self) -> bool {
        self.stats.read().dirty()
    }

    /// Recompute the statistics from the heap as of `height` and seal.
    /// Counts exactly the versions visible at `height` (created at or
    /// below it, not aborted, deleted above it or not at all) — the same
    /// set the incremental fold tracks, so a rebuild is a semantic no-op
    /// on the summary values and replicas restored at different moments
    /// cannot diverge. Used by snapshot restore, fast-sync install and
    /// after CREATE INDEX. Paged segments are counted from their chains
    /// and stay on disk: a restore that has just attached them must not
    /// pull the whole heap into memory to count it.
    pub fn rebuild_stats(&self, height: BlockHeight) {
        let columns = stats::stat_columns(&self.schema());
        let mut rows = 0u64;
        let mut keys: BTreeMap<usize, BTreeMap<Value, u64>> =
            columns.iter().map(|c| (*c, BTreeMap::new())).collect();
        self.for_each_version_in_place(false, |_, v| {
            let st = v.state();
            let visible = !st.aborted
                && st.creator_block.is_some_and(|b| b <= height)
                && st.deleter_block.is_none_or(|b| b > height);
            if visible {
                rows += 1;
                for (c, map) in keys.iter_mut() {
                    let val = &v.data[*c];
                    if !val.is_null() {
                        *map.entry(val.clone()).or_insert(0) += 1;
                    }
                }
            }
        });
        self.stats.write().install(rows, keys, height);
    }

    /// Reclaim versions deleted at or before `horizon` and versions from
    /// aborted transactions by tombstoning their heap slot in place and
    /// dropping their index entries. Returns the number of versions
    /// reclaimed.
    ///
    /// This is the paper's enhanced vacuum (§7): it trades provenance
    /// history older than `horizon` for space. Because positions are
    /// stable (no compaction) it is safe to run concurrently with
    /// readers and appenders: a racing scan resolves a reclaimed
    /// position to an empty slot and skips it — correct for any
    /// snapshot above the horizon, and below the horizon the history is
    /// gone by definition.
    /// Paged segments are handled through the chain's `min_deleter`
    /// stamp: a chain whose earliest delete is above the horizon has
    /// nothing reclaimable and is skipped *without faulting it in*
    /// (spill never pages out aborted versions, so chains hold only
    /// committed history). A chain that does contain reclaimable
    /// versions is faulted back in and vacuumed resident; the segment
    /// re-spills at the next spill tick with the dead slots gone, which
    /// is how tombstoned slots ultimately return pages to the on-disk
    /// free list.
    pub fn vacuum(&self, horizon: BlockHeight) -> usize {
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let indexes = self.indexes.read();
        let mut reclaimed = 0;
        for (si, seg) in segs.iter().enumerate() {
            loop {
                let mut g = seg.slots.write();
                if g.paged {
                    let min_deleter = self
                        .pager
                        .as_ref()
                        .and_then(|p| p.file.chain_min_deleter(si as u32))
                        .unwrap_or(NO_DELETER);
                    if min_deleter > horizon {
                        break; // nothing reclaimable — stay paged out
                    }
                    drop(g);
                    self.fault(si, seg);
                    continue;
                }
                for (off, slot) in g.slots.iter_mut().enumerate() {
                    let dead = match slot {
                        Some(v) => {
                            let st = v.state();
                            st.aborted || st.deleter_block.is_some_and(|db| db <= horizon)
                        }
                        None => false,
                    };
                    if dead {
                        let v = slot.take().expect("checked Some above");
                        let pos = (si << SEGMENT_SHIFT) + off;
                        for idx in indexes.values() {
                            idx.remove(&v.data[idx.column], pos);
                        }
                        reclaimed += 1;
                    }
                }
                break;
            }
        }
        reclaimed
    }

    /// Page out every cold segment: a full, non-tail, resident segment
    /// whose occupied slots are all *quiescent* — committed at or below
    /// `horizon`, not aborted, no pending writers, not deleted above
    /// `horizon`, and with no outstanding `Arc` clones (in-flight scans
    /// hold clones, so holding the segment's write lock while checking
    /// `strong_count == 1` is race-free: no new clone can be taken
    /// until the lock drops). Versions deleted *recently* (above the
    /// horizon) keep their segment resident, which is what pins
    /// SSI-relevant history in memory.
    ///
    /// `lsn` must be monotone across calls within a process (the block
    /// height at the spill tick) — it orders competing chains for a
    /// segment during crash recovery. Returns the number of segments
    /// paged out. No-op on unpaged tables.
    pub fn spill(&self, horizon: BlockHeight, lsn: u64) -> usize {
        let Some(pager) = self.pager.as_ref() else {
            return 0;
        };
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let last = segs.len() - 1;
        let mut spilled = 0;
        for (si, seg) in segs.iter().enumerate() {
            if si == last {
                continue; // the hot tail never spills
            }
            let mut g = seg.slots.write();
            if g.paged || g.slots.len() < SEGMENT_SIZE {
                continue;
            }
            let Some((builders, min_deleter)) = build_spill_pages(&g, horizon) else {
                continue;
            };
            if pager
                .store
                .commit_chain(&pager.file, si as u32, builders, lsn, min_deleter)
                .is_err()
            {
                continue; // stay resident; retried at the next tick
            }
            g.slots = Vec::new();
            g.paged = true;
            spilled += 1;
        }
        spilled
    }

    /// Total heap length (occupied slot count including tombstoned
    /// slots; paged segments count as full, which they are by
    /// construction). Snapshot encoding records this so restore can
    /// rebuild the exact segment geometry.
    pub fn heap_len(&self) -> usize {
        let segs = self.segments.read();
        let tail = segs.last().expect("≥1 segment");
        let g = tail.slots.read();
        let tail_len = if g.paged { SEGMENT_SIZE } else { g.slots.len() };
        (segs.len() - 1) * SEGMENT_SIZE + tail_len
    }

    /// Indices of the currently paged-out segments.
    pub fn paged_segments(&self) -> Vec<u32> {
        self.segments
            .read()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.slots.read().paged)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Rebuild the segment directory for a heap of `heap_len` slots, all
    /// empty (snapshot restore: [`Table::install_at`] then fills resident
    /// positions and [`Table::mark_paged`] flags paged segments).
    /// Discards any existing heap contents.
    pub fn preset_heap(&self, heap_len: usize) {
        let n_segs = heap_len.div_ceil(SEGMENT_SIZE).max(1);
        let tail_len = heap_len - (n_segs - 1) * SEGMENT_SIZE;
        let mut segs = Vec::with_capacity(n_segs);
        for i in 0..n_segs {
            let len = if i + 1 == n_segs {
                tail_len
            } else {
                SEGMENT_SIZE
            };
            let seg = Segment::new();
            seg.slots.write().slots.resize(len, None);
            segs.push(Arc::new(seg));
        }
        *self.segments.write() = segs;
    }

    /// Flag `segment` as paged out (snapshot restore of a heap whose
    /// chain already exists in the attached page file). The segment must
    /// be within the heap built by [`Table::preset_heap`].
    pub fn mark_paged(&self, segment: usize) {
        let segs = self.segments.read();
        let mut g = segs[segment].slots.write();
        g.slots = Vec::new();
        g.paged = true;
    }

    /// Install a restored version at an exact heap position and index it
    /// (snapshot restore; the position must be within the heap built by
    /// [`Table::preset_heap`]).
    pub fn install_at(&self, pos: usize, version: Version) {
        let version = Arc::new(version);
        {
            let segs = self.segments.read();
            let mut g = segs[pos >> SEGMENT_SHIFT].slots.write();
            g.slots[pos & (SEGMENT_SIZE - 1)] = Some(Arc::clone(&version));
        }
        for idx in self.indexes.read().values() {
            idx.insert(version.data[idx.column].clone(), pos);
        }
    }

    /// Populate the indexes with entries for every paged-out segment by
    /// streaming its chain — the versions themselves stay on disk.
    /// Snapshot restore calls this once after attaching chains, so index
    /// scans over paged history work without faulting anything in until
    /// a scan actually resolves a position.
    pub fn reindex_paged(&self) {
        let indexes = self.indexes.read();
        self.for_each_version_in_place(true, |pos, v| {
            for idx in indexes.values() {
                idx.insert(v.data[idx.column].clone(), pos);
            }
        });
    }

    /// Look up live committed rows by primary-key value (single-column PK
    /// fast path used for uniqueness checks at commit).
    pub fn committed_pk_conflicts(&self, pk_value: &Value, exclude_tx: TxId) -> Vec<Arc<Version>> {
        let schema = self.schema.read();
        if schema.primary_key.len() != 1 {
            return Vec::new();
        }
        let col = schema.primary_key[0];
        drop(schema);
        let Some(idx) = self.index_for(col) else {
            return Vec::new();
        };
        self.versions_at(&idx.positions_eq(pk_value))
            .into_iter()
            .filter(|v| v.is_live() && v.xmin != exclude_tx)
            .collect()
    }
}

/// Serialize a segment's occupied slots into filled page builders, or
/// `None` if any slot disqualifies the segment from spilling (see
/// [`Table::spill`] for the quiescence rules). Also returns the minimum
/// deleter block across the cells ([`NO_DELETER`] when nothing is
/// deleted) for the chain's `min_deleter` header stamp.
fn build_spill_pages(
    inner: &SegmentInner,
    horizon: BlockHeight,
) -> Option<(Vec<PageBuilder>, u64)> {
    let mut builders = vec![PageBuilder::new()];
    let mut min_deleter = NO_DELETER;
    for (off, slot) in inner.slots.iter().enumerate() {
        let Some(v) = slot else { continue };
        if Arc::strong_count(v) != 1 {
            return None; // an in-flight scan still holds this version
        }
        let st = v.state();
        if st.aborted || !st.xmax_pending.is_empty() {
            return None;
        }
        let creator = st.creator_block?;
        if creator > horizon {
            return None;
        }
        if let Some(d) = st.deleter_block {
            if d > horizon {
                return None; // recently deleted: SSI-relevant, stays hot
            }
            min_deleter = min_deleter.min(d);
        }
        let cell = page::encode_cell(off as u16, v.xmin, &st, &v.data);
        if !builders.last_mut().expect("≥1 builder").try_add(&cell) {
            let mut b = PageBuilder::new();
            if !b.try_add(&cell) {
                return None; // row too large for a page — keep resident
            }
            builders.push(b);
        }
    }
    Some((builders, min_deleter))
}

/// Decode a paged segment's chain into `(offset, Version)` pairs.
///
/// Pages written by an *earlier process epoch* get the restore-anchor
/// filter: cells created above the file's anchor height are dropped,
/// and delete/xmax stamps above it are cleared — block replay past the
/// anchor regenerates exactly that history, and replaying a delete onto
/// a version already carrying the stamp would double-commit it. Pages
/// from the current epoch were written after replay finished and are
/// taken verbatim.
///
/// Chain corruption panics with a diagnostic: the accessors that fault
/// segments in are infallible, so this is operationally the same class
/// of fatal error as mid-file block-store corruption.
fn decode_chain(pager: &TablePager, si: usize) -> Vec<(usize, Version)> {
    let table = pager.file.table();
    let pages = match pager.store.read_chain(&pager.file, si as u32) {
        Ok(Some(pages)) => pages,
        Ok(None) => panic!("table {table}: segment {si} is marked paged but has no chain"),
        Err(e) => panic!("table {table}: segment {si} chain unreadable: {e}"),
    };
    let epoch = pager.file.epoch();
    let anchor = pager.file.anchor();
    let mut out = Vec::new();
    for image in &pages {
        let header = page::read_header(image)
            .unwrap_or_else(|e| panic!("table {table}: segment {si} page corrupt: {e}"));
        let old = header.epoch < epoch;
        let cells = page::cells(image)
            .unwrap_or_else(|e| panic!("table {table}: segment {si} page corrupt: {e}"));
        for cell in cells {
            let c = page::decode_cell(cell)
                .unwrap_or_else(|e| panic!("table {table}: segment {si} cell corrupt: {e}"));
            if old && c.creator > anchor {
                continue;
            }
            let (deleter, xmax) = if old && c.deleter.is_some_and(|d| d > anchor) {
                (None, None)
            } else {
                (c.deleter, c.xmax)
            };
            out.push((
                c.slot as usize,
                Version::restored(c.xmin, c.row, c.row_id, c.creator, deleter, xmax),
            ));
        }
    }
    out
}

/// A sanity guard: tables are shared across executor threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Table>()
};

/// Convenience for building a table error.
pub fn unknown_table(name: &str) -> Error {
    Error::NotFound(format!("table {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::UNASSIGNED_ROW_ID;
    use bcrdb_common::schema::{Column, DataType};

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
            vec![0],
        )
        .unwrap();
        Table::new(schema)
    }

    #[test]
    fn pk_index_created_automatically() {
        let t = table();
        assert!(t.index_for(0).is_some());
        assert!(t.index_for(1).is_none());
    }

    #[test]
    fn append_and_index_scan() {
        let t = table();
        let (p0, v0) = t.append_version(
            TxId(1),
            vec![Value::Int(10), Value::Text("a".into())],
            UNASSIGNED_ROW_ID,
        );
        v0.commit_create(1, t.alloc_row_id());
        let (p1, v1) = t.append_version(
            TxId(1),
            vec![Value::Int(20), Value::Text("b".into())],
            UNASSIGNED_ROW_ID,
        );
        v1.commit_create(1, t.alloc_row_id());
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(t.version_count(), 2);
        assert_eq!(t.live_row_count(), 2);

        let hits = t.index_scan(0, &KeyRange::eq(Value::Int(10))).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].data[1], Value::Text("a".into()));
    }

    #[test]
    fn secondary_index_backfills() {
        let t = table();
        let (_, v) = t.append_version(
            TxId(1),
            vec![Value::Int(1), Value::Text("x".into())],
            UNASSIGNED_ROW_ID,
        );
        v.commit_create(1, t.alloc_row_id());
        t.add_index("idx_name", "name").unwrap();
        let hits = t
            .index_scan(1, &KeyRange::eq(Value::Text("x".into())))
            .unwrap();
        assert_eq!(hits.len(), 1);
        // Index registered in the schema too.
        assert_eq!(t.schema().indexes.len(), 1);
    }

    #[test]
    fn pk_conflict_detection() {
        let t = table();
        let (_, v) = t.append_version(
            TxId(1),
            vec![Value::Int(5), Value::Text("a".into())],
            UNASSIGNED_ROW_ID,
        );
        v.commit_create(1, t.alloc_row_id());
        let conflicts = t.committed_pk_conflicts(&Value::Int(5), TxId(2));
        assert_eq!(conflicts.len(), 1);
        // The inserting transaction itself is excluded.
        assert!(t.committed_pk_conflicts(&Value::Int(5), TxId(1)).is_empty());
        // Deleted rows do not conflict.
        v.add_pending_writer(TxId(3));
        v.commit_delete(TxId(3), 2);
        assert!(t.committed_pk_conflicts(&Value::Int(5), TxId(2)).is_empty());
    }

    #[test]
    fn vacuum_reclaims_dead_versions() {
        let t = table();
        // v1 committed at block 1, deleted at block 2.
        let (_, v1) = t.append_version(
            TxId(1),
            vec![Value::Int(1), Value::Text("old".into())],
            UNASSIGNED_ROW_ID,
        );
        let rid = t.alloc_row_id();
        v1.commit_create(1, rid);
        v1.add_pending_writer(TxId(2));
        v1.commit_delete(TxId(2), 2);
        // Successor version committed at block 2.
        let (_, v2) =
            t.append_version(TxId(2), vec![Value::Int(1), Value::Text("new".into())], rid);
        v2.commit_create(2, rid);
        // An aborted insert.
        let (_, v3) = t.append_version(
            TxId(3),
            vec![Value::Int(9), Value::Text("zzz".into())],
            UNASSIGNED_ROW_ID,
        );
        v3.abort_create();

        assert_eq!(t.version_count(), 3);
        let reclaimed = t.vacuum(2);
        assert_eq!(reclaimed, 2);
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.live_row_count(), 1);
        // Reclaimed entries left the indexes: scans still work.
        let hits = t.index_scan(0, &KeyRange::eq(Value::Int(1))).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].data[1], Value::Text("new".into()));
    }

    #[test]
    fn reserve_row_ids_matches_per_op_allocation() {
        let t = table();
        // A batched reservation hands out the same ids the per-op
        // allocator would have, and leaves the allocator where per-op
        // allocation would leave it.
        let start = t.reserve_row_ids(3);
        assert_eq!(start, RowId(1));
        assert_eq!(t.alloc_row_id(), RowId(4));
        assert_eq!(t.row_id_watermark(), 5);
        // Zero-length reservations don't consume ids.
        let same = t.reserve_row_ids(0);
        assert_eq!(same, RowId(5));
        assert_eq!(t.alloc_row_id(), RowId(5));
    }

    #[test]
    fn append_restored_batch_spans_segments_and_indexes() {
        let t = table();
        let n = SEGMENT_SIZE + 10;
        let base = t.reserve_row_ids(n as u64).0;
        let batch: Vec<Version> = (0..n)
            .map(|i| {
                Version::restored(
                    TxId::INVALID,
                    vec![Value::Int(i as i64), Value::Text(format!("r{i}"))],
                    RowId(base + i as u64),
                    1,
                    None,
                    None,
                )
            })
            .collect();
        t.append_restored_batch(batch);
        assert_eq!(t.version_count(), n);
        assert_eq!(t.live_row_count(), n);
        // Positions past the first segment boundary landed in segment 1
        // and stayed indexed.
        let hits = t
            .index_scan(0, &KeyRange::eq(Value::Int(SEGMENT_SIZE as i64 + 3)))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].data[1],
            Value::Text(format!("r{}", SEGMENT_SIZE + 3))
        );
    }

    #[test]
    fn vacuum_preserves_history_after_horizon() {
        let t = table();
        let (_, v1) = t.append_version(
            TxId(1),
            vec![Value::Int(1), Value::Text("v1".into())],
            UNASSIGNED_ROW_ID,
        );
        let rid = t.alloc_row_id();
        v1.commit_create(1, rid);
        v1.add_pending_writer(TxId(2));
        v1.commit_delete(TxId(2), 5);
        // Horizon 3 < deleter 5 → history kept.
        assert_eq!(t.vacuum(3), 0);
        assert_eq!(t.version_count(), 1);
    }

    #[test]
    fn heap_spans_segments_with_stable_positions() {
        let t = table();
        let n = SEGMENT_SIZE + 17;
        for i in 0..n {
            let (pos, v) = t.append_version(
                TxId(1),
                vec![Value::Int(i as i64), Value::Text("x".into())],
                UNASSIGNED_ROW_ID,
            );
            assert_eq!(pos, i, "positions are dense across segment boundaries");
            v.commit_create(1, t.alloc_row_id());
        }
        assert_eq!(t.version_count(), n);
        assert_eq!(t.live_row_count(), n);
        // Positions resolve across the segment boundary.
        let boundary = t.version_at(SEGMENT_SIZE).unwrap();
        assert_eq!(boundary.data[0], Value::Int(SEGMENT_SIZE as i64));
        assert!(t.version_at(n).is_none(), "past the tail");
        // Index scans reach rows in both segments.
        let hits = t.index_scan(0, &KeyRange::eq(Value::Int(3))).unwrap();
        assert_eq!(hits.len(), 1);
        let hits = t
            .index_scan(0, &KeyRange::eq(Value::Int(SEGMENT_SIZE as i64 + 5)))
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn vacuum_keeps_surviving_positions_stable() {
        let t = table();
        // pos 0: deleted at block 1 (reclaimable at horizon ≥ 1);
        // pos 1: live.
        let (p0, v0) = t.append_version(
            TxId(1),
            vec![Value::Int(1), Value::Text("dead".into())],
            UNASSIGNED_ROW_ID,
        );
        let rid = t.alloc_row_id();
        v0.commit_create(1, rid);
        v0.add_pending_writer(TxId(2));
        v0.commit_delete(TxId(2), 1);
        let (p1, v1) = t.append_version(
            TxId(2),
            vec![Value::Int(2), Value::Text("live".into())],
            UNASSIGNED_ROW_ID,
        );
        v1.commit_create(1, t.alloc_row_id());

        // A reader captured positions before the vacuum.
        let idx = t.index_for(0).unwrap();
        let pre_positions = idx.positions_in_range(&KeyRange::all());
        assert_eq!(pre_positions, vec![p0, p1]);

        assert_eq!(t.vacuum(1), 1);
        // The stale position list still resolves correctly: the reclaimed
        // slot reads empty, the survivor is unchanged.
        let resolved = t.versions_at(&pre_positions);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].data[1], Value::Text("live".into()));
        // New appends go to fresh slots — reclaimed positions never alias.
        let (p2, _) = t.append_version(
            TxId(3),
            vec![Value::Int(3), Value::Text("new".into())],
            UNASSIGNED_ROW_ID,
        );
        assert_eq!(p2, 2);
    }

    #[test]
    fn row_id_watermark_roundtrip() {
        let t = table();
        assert_eq!(t.alloc_row_id(), RowId(1));
        assert_eq!(t.alloc_row_id(), RowId(2));
        assert_eq!(t.row_id_watermark(), 3);
        t.set_row_id_watermark(100);
        assert_eq!(t.alloc_row_id(), RowId(100));
    }

    // ------------------------------------------------- paged segments

    fn paged_table(tag: &str) -> (Table, Arc<PagedStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("bcrdb-table-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = PagedStore::open(&dir, 16, false).unwrap();
        let file = store.open_file("t", 0).unwrap();
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
            vec![0],
        )
        .unwrap();
        let t = Table::new_in(
            schema,
            Some(TablePager {
                store: Arc::clone(&store),
                file,
            }),
        );
        (t, store, dir)
    }

    /// Fill `n` committed rows at block 1.
    fn fill(t: &Table, n: usize) {
        for i in 0..n {
            let (_, v) = t.append_version(
                TxId(1),
                vec![Value::Int(i as i64), Value::Text(format!("r{i}"))],
                UNASSIGNED_ROW_ID,
            );
            v.commit_create(1, t.alloc_row_id());
        }
    }

    #[test]
    fn spill_and_fault_roundtrip_is_invisible_to_readers() {
        let (t, _store, dir) = paged_table("roundtrip");
        let n = SEGMENT_SIZE + 5;
        fill(&t, n);
        let before: Vec<(RowId, Row)> = t
            .all_versions()
            .iter()
            .map(|v| (v.row_id(), v.data.clone()))
            .collect();

        assert_eq!(t.spill(10, 10), 1, "the one full non-tail segment spills");
        assert_eq!(t.paged_segments(), vec![0]);
        assert_eq!(t.heap_len(), n, "paged segments count as full");

        // An indexed point read into the paged segment faults it in and
        // sees the same row.
        let hits = t.index_scan(0, &KeyRange::eq(Value::Int(3))).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].data[1], Value::Text("r3".into()));
        assert!(t.paged_segments().is_empty(), "fault made it resident");
        drop(hits); // outstanding clones pin the segment

        // Full scan equals the pre-spill state byte for byte.
        let after: Vec<(RowId, Row)> = t
            .all_versions()
            .iter()
            .map(|v| (v.row_id(), v.data.clone()))
            .collect();
        assert_eq!(before, after);

        // Re-spilling the faulted segment rewrites its chain fine.
        assert_eq!(t.spill(10, 11), 1);
        assert_eq!(t.version_count(), n);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn spill_skips_hot_and_partial_segments() {
        let (t, _store, dir) = paged_table("hot");
        // Segment 0 full but with one version committed above the
        // horizon; tail partial.
        fill(&t, SEGMENT_SIZE - 1);
        let (_, v) = t.append_version(
            TxId(9),
            vec![Value::Int(-1), Value::Text("hot".into())],
            UNASSIGNED_ROW_ID,
        );
        v.commit_create(50, t.alloc_row_id());
        drop(v); // outstanding clones pin the segment
        fill(&t, 3);
        assert_eq!(t.spill(10, 10), 0, "creator above horizon pins segment 0");
        assert_eq!(t.spill(50, 50), 1, "horizon caught up");
        // The tail never spills even when the horizon covers it.
        assert_eq!(t.spill(100, 100), 0);
        assert_eq!(t.paged_segments(), vec![0]);

        // A version with a pending writer pins its segment: fault 0
        // back, flag a row, and try again.
        let hits = t.index_scan(0, &KeyRange::eq(Value::Int(7))).unwrap();
        hits[0].add_pending_writer(TxId(77));
        assert_eq!(t.spill(100, 101), 0, "pending writer pins the segment");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn vacuum_faults_only_chains_with_reclaimable_history() {
        let (t, _store, dir) = paged_table("vac");
        fill(&t, SEGMENT_SIZE);
        // Delete row id=2 at block 5, leaving its successor out (plain
        // DELETE), then spill at a horizon covering the delete.
        let hits = t.index_scan(0, &KeyRange::eq(Value::Int(2))).unwrap();
        hits[0].add_pending_writer(TxId(5));
        hits[0].commit_delete(TxId(5), 5);
        drop(hits);
        fill(&t, 2); // fresh tail so segment 0 is non-tail
        assert_eq!(t.spill(6, 6), 1);
        assert_eq!(t.paged_segments(), vec![0]);

        // Horizon below the chain's min_deleter: no fault, no reclaim.
        assert_eq!(t.vacuum(4), 0);
        assert_eq!(t.paged_segments(), vec![0], "skipped without faulting");

        // Horizon at the delete: faults in, reclaims, stays resident.
        assert_eq!(t.vacuum(5), 1);
        assert!(t.paged_segments().is_empty());
        assert!(t
            .index_scan(0, &KeyRange::eq(Value::Int(2)))
            .unwrap()
            .is_empty());
        assert_eq!(t.version_count(), SEGMENT_SIZE + 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn preset_install_and_mark_paged_rebuild_geometry() {
        let (t, store, dir) = paged_table("preset");
        // Build a donor heap, spill segment 0, and remember its state.
        fill(&t, SEGMENT_SIZE + 4);
        assert_eq!(t.spill(10, 10), 1);
        let donor_chain = t.pager().unwrap().file.chain(0).unwrap();
        assert!(!donor_chain.is_empty());

        // Restore path: a second table over the same file re-creates the
        // geometry without touching the chain's versions.
        let schema = t.schema();
        let file = t.pager().unwrap().file.clone();
        let t2 = Table::new_in(schema, Some(TablePager { store, file }));
        t2.preset_heap(SEGMENT_SIZE + 4);
        assert_eq!(t2.heap_len(), SEGMENT_SIZE + 4);
        t2.mark_paged(0);
        for i in 0..4 {
            let pos = SEGMENT_SIZE + i;
            t2.install_at(
                pos,
                Version::restored(
                    TxId(1),
                    vec![Value::Int(pos as i64), Value::Text(format!("r{pos}"))],
                    RowId(pos as u64 + 1),
                    1,
                    None,
                    None,
                ),
            );
        }
        t2.reindex_paged();
        // Index entries cover the paged segment without faulting it…
        assert_eq!(t2.paged_segments(), vec![0]);
        let hits = t2.index_scan(0, &KeyRange::eq(Value::Int(9))).unwrap();
        // …and resolving positions faults it in with identical contents.
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].data[1], Value::Text("r9".into()));
        assert_eq!(t2.version_count(), SEGMENT_SIZE + 4);
        let _ = std::fs::remove_dir_all(dir);
    }
}
