//! Micro-metrics matching Tables 4 and 5 of the paper.
//!
//! * `brr` — blocks received per second at the middleware;
//! * `bpr` — blocks processed and committed per second;
//! * `bpt` — average time to process and commit a block (ms);
//! * `bet` — average time to start/execute all transactions of a block
//!   until they are ready to commit (ms);
//! * `bct` — serial commit time, `bpt − bet` (ms);
//! * `tet` — average transaction execution time (ms);
//! * `mt`  — missing transactions per second at block processing (EO flow);
//! * `su`  — system utilization, `bpr × bpt` (fraction of time the block
//!   processor is busy).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// Bound on the per-block commit-stage latency reservoir kept for
/// percentile reporting ([`NodeMetrics::commit_stage_samples`]).
const STAGE_SAMPLE_CAP: usize = 4096;

/// Atomic counters accumulated since the last [`NodeMetrics::take`].
pub struct NodeMetrics {
    window_start: Mutex<Instant>,
    blocks_received: AtomicU64,
    blocks_processed: AtomicU64,
    bpt_us: AtomicU64,
    bet_us: AtomicU64,
    tet_us: AtomicU64,
    txs_executed: AtomicU64,
    txs_committed: AtomicU64,
    txs_aborted: AtomicU64,
    missing_txs: AtomicU64,
    // Pipeline stage accounting. The serial-commit (stage 2) and
    // post-commit (stage 3) counters are windowed like bpt/bet; the
    // depth gauges reflect the moment of the snapshot.
    commit_stage_us: AtomicU64,
    commit_stage_blocks: AtomicU64,
    // The write-set publish slice of stage 2; windowed like commit_stage.
    apply_stage_us: AtomicU64,
    apply_stage_blocks: AtomicU64,
    post_stage_us: AtomicU64,
    post_stage_blocks: AtomicU64,
    pipeline_depth: AtomicU64,
    postcommit_depth: AtomicU64,
    /// Per-block serial-commit durations (µs), bounded ring — the
    /// percentile source for the bench harness.
    commit_stage_ring: Mutex<VecDeque<u64>>,
    // Health: set when the block processor stops on a rejected block
    // (byzantine orderer or local corruption, §3.5(4)). Never reset.
    halted: AtomicBool,
    halt_reason: Mutex<Option<String>>,
    // Maintenance (vacuum tick). Cumulative since node start.
    vacuum_runs: AtomicU64,
    versions_reclaimed: AtomicU64,
    // Planner-statistics rebuilds (commit-time DDL, maintenance, restore).
    // Cumulative since node start.
    stats_rebuilds: AtomicU64,
    // Catch-up / gap bookkeeping (§3.6). Cumulative since node start —
    // these describe rare recovery events, not windowed rates, so
    // [`NodeMetrics::take`] reports them without resetting.
    held_back: AtomicU64,
    gap_events: AtomicU64,
    pending_evicted: AtomicU64,
    sync_fetched: AtomicU64,
    sync_replayed: AtomicU64,
    sync_fast_syncs: AtomicU64,
}

impl Default for NodeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Ordering-service counters as seen from a node — populated into
/// [`MetricsSnapshot`] by the node's `ordering_stats` hook
/// (`NodeHooks::ordering_stats`), so clients can observe the ordering
/// layer (current view, view changes) through the ordinary Metrics RPC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderingSnapshot {
    /// Transactions forwarded into the ordering service.
    pub forwarded: u64,
    /// Blocks cut/proposed by a leader or sequencer.
    pub cut: u64,
    /// Blocks delivered.
    pub delivered: u64,
    /// Current BFT view (0 for solo/Kafka backends).
    pub current_view: u64,
    /// View changes installed since the service started.
    pub view_changes: u64,
}

/// Averaged view over one measurement window.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Window length in seconds.
    pub window_secs: f64,
    /// Block receive rate (blocks/s).
    pub brr: f64,
    /// Block process rate (blocks/s).
    pub bpr: f64,
    /// Mean block processing time (ms).
    pub bpt_ms: f64,
    /// Mean block execution time (ms).
    pub bet_ms: f64,
    /// Mean block commit time (ms), `bpt − bet`.
    pub bct_ms: f64,
    /// Mean transaction execution time (ms).
    pub tet_ms: f64,
    /// Missing transactions per second (EO flow).
    pub mt_per_s: f64,
    /// System utilization (`bpr × bpt`, clamped to [0, 1]).
    pub su: f64,
    /// Committed transactions in the window.
    pub committed: u64,
    /// Aborted transactions in the window.
    pub aborted: u64,
    /// Mean serial-commit (pipeline stage 2) time per block (ms). Covers
    /// the whole stage: every transaction's validation gate and write-set
    /// publish, plus the statistics fold.
    pub commit_stage_ms: f64,
    /// Mean write-set apply time per block (ms): the part of stage 2
    /// spent publishing committed versions and building their write-set
    /// summaries, summed over the block's transactions.
    pub apply_stage_ms: f64,
    /// Mean post-commit (pipeline stage 3: ledger, hashing, checkpoint
    /// vote, notifications) time per block (ms).
    pub post_stage_ms: f64,
    /// Blocks admitted to the pipeline but not yet serially committed
    /// (gauge at snapshot time).
    pub pipeline_depth: u64,
    /// Blocks serially committed but with post-commit work still queued
    /// (gauge at snapshot time).
    pub postcommit_depth: u64,
    /// True when the block processor halted on a rejected block and the
    /// node stopped committing (§3.5(4)); sticky until restart.
    pub halted: bool,
    /// Committed block height at snapshot time (gauge; populated by the
    /// node's Metrics RPC, zero when taken directly from `NodeMetrics`).
    pub committed_height: u64,
    /// Post-commit watermark at snapshot time: the highest block whose
    /// ledger records, checkpoint hash and notifications are fully
    /// applied. Trails `committed_height` by at most
    /// `processor::POSTCOMMIT_CAP` while the pipeline is busy — a
    /// remote client that needs height-gated *ledger* reads can gate on
    /// this instead of `ChainHeight` (gauge; populated like
    /// `committed_height`).
    pub postcommit_height: u64,
    /// Maintenance vacuum runs since node start (cumulative).
    pub vacuum_runs: u64,
    /// Row versions reclaimed by maintenance vacuums (cumulative).
    pub versions_reclaimed: u64,
    /// Out-of-order blocks currently held back by the block processor
    /// (gauge at snapshot time).
    pub held_back: u64,
    /// Delivery gaps detected by the block processor (cumulative).
    pub gap_events: u64,
    /// Held-back blocks evicted because the pending buffer was full
    /// (cumulative).
    pub pending_evicted: u64,
    /// Blocks fetched from peers by catch-up (cumulative).
    pub sync_fetched: u64,
    /// Fetched blocks replayed through normal processing (cumulative).
    pub sync_replayed: u64,
    /// Snapshot fast-syncs installed (cumulative).
    pub sync_fast_syncs: u64,
    /// Pages read from page files by the paged store (cumulative;
    /// populated by the node's Metrics RPC, zero without a `page_dir`).
    pub pages_read: u64,
    /// Pages written to page files — spills, write-back, free-list
    /// overwrites (cumulative; populated like `pages_read`).
    pub pages_written: u64,
    /// Buffer-pool frames evicted by the clock sweep (cumulative;
    /// populated like `pages_read`).
    pub pages_evicted: u64,
    /// Buffer-pool hit rate since node start (`1.0` when the pool has
    /// never been consulted; populated like `pages_read`).
    pub pool_hit_rate: f64,
    /// Multi-index (intersection/union) scan plans chosen by the
    /// cost-based planner (cumulative; populated by the node's Metrics
    /// RPC from the catalog's counters, zero when taken directly from
    /// `NodeMetrics`).
    pub plans_index_intersection: u64,
    /// Covering-index scan plans chosen — index-only scans that skipped
    /// the heap fault (cumulative; populated like
    /// `plans_index_intersection`).
    pub plans_covering: u64,
    /// Planner-statistics rebuilds from the heap: commit-time after
    /// CREATE INDEX, the maintenance tick, and snapshot/fast-sync
    /// restores (cumulative).
    pub stats_rebuilds: u64,
    /// Ordering-service counters (cumulative; all zero when no
    /// `ordering_stats` hook is installed).
    pub ordering: OrderingSnapshot,
}

impl NodeMetrics {
    /// Fresh metrics with the window starting now.
    pub fn new() -> NodeMetrics {
        NodeMetrics {
            window_start: Mutex::new(Instant::now()),
            blocks_received: AtomicU64::new(0),
            blocks_processed: AtomicU64::new(0),
            bpt_us: AtomicU64::new(0),
            bet_us: AtomicU64::new(0),
            tet_us: AtomicU64::new(0),
            txs_executed: AtomicU64::new(0),
            txs_committed: AtomicU64::new(0),
            txs_aborted: AtomicU64::new(0),
            missing_txs: AtomicU64::new(0),
            commit_stage_us: AtomicU64::new(0),
            commit_stage_blocks: AtomicU64::new(0),
            apply_stage_us: AtomicU64::new(0),
            apply_stage_blocks: AtomicU64::new(0),
            post_stage_us: AtomicU64::new(0),
            post_stage_blocks: AtomicU64::new(0),
            pipeline_depth: AtomicU64::new(0),
            postcommit_depth: AtomicU64::new(0),
            commit_stage_ring: Mutex::new(VecDeque::with_capacity(STAGE_SAMPLE_CAP)),
            halted: AtomicBool::new(false),
            halt_reason: Mutex::new(None),
            vacuum_runs: AtomicU64::new(0),
            versions_reclaimed: AtomicU64::new(0),
            stats_rebuilds: AtomicU64::new(0),
            held_back: AtomicU64::new(0),
            gap_events: AtomicU64::new(0),
            pending_evicted: AtomicU64::new(0),
            sync_fetched: AtomicU64::new(0),
            sync_replayed: AtomicU64::new(0),
            sync_fast_syncs: AtomicU64::new(0),
        }
    }

    /// A block arrived from the ordering service.
    pub fn on_block_received(&self) {
        self.blocks_received.fetch_add(1, Ordering::Relaxed);
    }

    /// A block was fully processed; durations in microseconds.
    pub fn on_block_processed(&self, bpt_us: u64, bet_us: u64) {
        self.blocks_processed.fetch_add(1, Ordering::Relaxed);
        self.bpt_us.fetch_add(bpt_us, Ordering::Relaxed);
        self.bet_us.fetch_add(bet_us, Ordering::Relaxed);
    }

    /// One transaction finished executing (before its commit point).
    pub fn on_tx_executed(&self, tet_us: u64) {
        self.txs_executed.fetch_add(1, Ordering::Relaxed);
        self.tet_us.fetch_add(tet_us, Ordering::Relaxed);
    }

    /// Commit-phase outcomes.
    pub fn on_tx_committed(&self) {
        self.txs_committed.fetch_add(1, Ordering::Relaxed);
    }

    /// A transaction aborted at commit.
    pub fn on_tx_aborted(&self) {
        self.txs_aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Transactions that had to be started by the block processor because
    /// they never arrived via forwarding (EO flow, §3.4.3).
    pub fn on_missing_txs(&self, n: u64) {
        self.missing_txs.fetch_add(n, Ordering::Relaxed);
    }

    /// Committed count so far in this window.
    pub fn committed(&self) -> u64 {
        self.txs_committed.load(Ordering::Relaxed)
    }

    // ------------------------------------------------- pipeline stages

    /// One block finished its serial-commit stage (stage 2); duration in
    /// microseconds. Also feeds the bounded percentile reservoir.
    pub fn on_commit_stage(&self, us: u64) {
        self.commit_stage_us.fetch_add(us, Ordering::Relaxed);
        self.commit_stage_blocks.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.commit_stage_ring.lock();
        if ring.len() == STAGE_SAMPLE_CAP {
            ring.pop_front();
        }
        ring.push_back(us);
    }

    /// One block finished its serial-commit stage having spent `us`
    /// microseconds publishing write sets.
    pub fn on_apply_stage(&self, us: u64) {
        self.apply_stage_us.fetch_add(us, Ordering::Relaxed);
        self.apply_stage_blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// One block finished its post-commit stage (stage 3); duration in
    /// microseconds.
    pub fn on_post_stage(&self, us: u64) {
        self.post_stage_us.fetch_add(us, Ordering::Relaxed);
        self.post_stage_blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Update the pipeline-depth gauges: blocks admitted but not yet
    /// serially committed, and blocks committed with post-commit work
    /// still pending.
    pub fn set_pipeline_depths(&self, inflight: u64, postcommit: u64) {
        self.pipeline_depth.store(inflight, Ordering::Relaxed);
        self.postcommit_depth.store(postcommit, Ordering::Relaxed);
    }

    /// The recent per-block serial-commit durations (µs, oldest first;
    /// bounded reservoir) — the bench harness derives p50/p95 commit-
    /// stage latency from this.
    pub fn commit_stage_samples(&self) -> Vec<u64> {
        self.commit_stage_ring.lock().iter().copied().collect()
    }

    // ------------------------------------------------------------ health

    /// The block processor halted on a rejected block; record why. The
    /// flag is sticky — a halted processor never resumes (§3.5(4)).
    pub fn set_halted(&self, reason: impl Into<String>) {
        let mut r = self.halt_reason.lock();
        if r.is_none() {
            *r = Some(reason.into());
        }
        self.halted.store(true, Ordering::Relaxed);
    }

    /// Has the block processor halted?
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }

    /// Why the processor halted, if it did.
    pub fn halt_reason(&self) -> Option<String> {
        self.halt_reason.lock().clone()
    }

    // ------------------------------------------------------- maintenance

    /// A maintenance vacuum ran, reclaiming `versions` row versions.
    pub fn on_vacuum(&self, versions: u64) {
        self.vacuum_runs.fetch_add(1, Ordering::Relaxed);
        self.versions_reclaimed
            .fetch_add(versions, Ordering::Relaxed);
    }

    /// Maintenance vacuum runs since node start.
    pub fn vacuum_runs(&self) -> u64 {
        self.vacuum_runs.load(Ordering::Relaxed)
    }

    /// Row versions reclaimed by maintenance vacuums since node start.
    pub fn versions_reclaimed(&self) -> u64 {
        self.versions_reclaimed.load(Ordering::Relaxed)
    }

    /// Planner statistics were rebuilt exactly from a table's heap.
    pub fn on_stats_rebuild(&self) {
        self.stats_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Planner-statistics rebuilds since node start.
    pub fn stats_rebuilds(&self) -> u64 {
        self.stats_rebuilds.load(Ordering::Relaxed)
    }

    // ------------------------------------------- catch-up / gap counters

    /// Update the held-back gauge: out-of-order blocks currently
    /// buffered by the block processor.
    pub fn set_held_back(&self, n: u64) {
        self.held_back.store(n, Ordering::Relaxed);
    }

    /// A delivery gap was detected (a future block arrived while earlier
    /// blocks are still missing).
    pub fn on_gap_detected(&self) {
        self.gap_events.fetch_add(1, Ordering::Relaxed);
    }

    /// A held-back block was evicted because the pending buffer is full.
    pub fn on_pending_evicted(&self) {
        self.pending_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` blocks were fetched from peers, of which `replayed` went
    /// through normal block processing (the rest were append-only under
    /// a fast-sync snapshot).
    pub fn on_sync_blocks(&self, n: u64, replayed: u64) {
        self.sync_fetched.fetch_add(n, Ordering::Relaxed);
        self.sync_replayed.fetch_add(replayed, Ordering::Relaxed);
    }

    /// A snapshot fast-sync was installed.
    pub fn on_fast_sync(&self) {
        self.sync_fast_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Out-of-order blocks currently held back (gauge).
    pub fn held_back(&self) -> u64 {
        self.held_back.load(Ordering::Relaxed)
    }

    /// Delivery gaps detected since node start.
    pub fn gap_events(&self) -> u64 {
        self.gap_events.load(Ordering::Relaxed)
    }

    /// Held-back blocks evicted since node start.
    pub fn pending_evicted(&self) -> u64 {
        self.pending_evicted.load(Ordering::Relaxed)
    }

    /// Blocks fetched from peers since node start.
    pub fn sync_fetched(&self) -> u64 {
        self.sync_fetched.load(Ordering::Relaxed)
    }

    /// Snapshot fast-syncs installed since node start.
    pub fn sync_fast_syncs(&self) -> u64 {
        self.sync_fast_syncs.load(Ordering::Relaxed)
    }

    /// Snapshot the window and reset all counters.
    pub fn take(&self) -> MetricsSnapshot {
        let mut start = self.window_start.lock();
        let window_secs = start.elapsed().as_secs_f64().max(1e-9);
        *start = Instant::now();
        drop(start);

        let received = self.blocks_received.swap(0, Ordering::Relaxed);
        let processed = self.blocks_processed.swap(0, Ordering::Relaxed);
        let bpt_us = self.bpt_us.swap(0, Ordering::Relaxed);
        let bet_us = self.bet_us.swap(0, Ordering::Relaxed);
        let tet_us = self.tet_us.swap(0, Ordering::Relaxed);
        let executed = self.txs_executed.swap(0, Ordering::Relaxed);
        let committed = self.txs_committed.swap(0, Ordering::Relaxed);
        let aborted = self.txs_aborted.swap(0, Ordering::Relaxed);
        let missing = self.missing_txs.swap(0, Ordering::Relaxed);
        let commit_us = self.commit_stage_us.swap(0, Ordering::Relaxed);
        let commit_blocks = self.commit_stage_blocks.swap(0, Ordering::Relaxed);
        let apply_us = self.apply_stage_us.swap(0, Ordering::Relaxed);
        let apply_blocks = self.apply_stage_blocks.swap(0, Ordering::Relaxed);
        let post_us = self.post_stage_us.swap(0, Ordering::Relaxed);
        let post_blocks = self.post_stage_blocks.swap(0, Ordering::Relaxed);

        let bpt_ms = if processed > 0 {
            bpt_us as f64 / processed as f64 / 1000.0
        } else {
            0.0
        };
        let bet_ms = if processed > 0 {
            bet_us as f64 / processed as f64 / 1000.0
        } else {
            0.0
        };
        let tet_ms = if executed > 0 {
            tet_us as f64 / executed as f64 / 1000.0
        } else {
            0.0
        };
        let bpr = processed as f64 / window_secs;
        MetricsSnapshot {
            window_secs,
            brr: received as f64 / window_secs,
            bpr,
            bpt_ms,
            bet_ms,
            bct_ms: (bpt_ms - bet_ms).max(0.0),
            tet_ms,
            mt_per_s: missing as f64 / window_secs,
            su: (bpr * bpt_ms / 1000.0).min(1.0),
            committed,
            aborted,
            commit_stage_ms: if commit_blocks > 0 {
                commit_us as f64 / commit_blocks as f64 / 1000.0
            } else {
                0.0
            },
            apply_stage_ms: if apply_blocks > 0 {
                apply_us as f64 / apply_blocks as f64 / 1000.0
            } else {
                0.0
            },
            post_stage_ms: if post_blocks > 0 {
                post_us as f64 / post_blocks as f64 / 1000.0
            } else {
                0.0
            },
            pipeline_depth: self.pipeline_depth.load(Ordering::Relaxed),
            postcommit_depth: self.postcommit_depth.load(Ordering::Relaxed),
            halted: self.halted.load(Ordering::Relaxed),
            committed_height: 0,
            postcommit_height: 0,
            vacuum_runs: self.vacuum_runs.load(Ordering::Relaxed),
            versions_reclaimed: self.versions_reclaimed.load(Ordering::Relaxed),
            held_back: self.held_back.load(Ordering::Relaxed),
            gap_events: self.gap_events.load(Ordering::Relaxed),
            pending_evicted: self.pending_evicted.load(Ordering::Relaxed),
            sync_fetched: self.sync_fetched.load(Ordering::Relaxed),
            sync_replayed: self.sync_replayed.load(Ordering::Relaxed),
            sync_fast_syncs: self.sync_fast_syncs.load(Ordering::Relaxed),
            pages_read: 0,
            pages_written: 0,
            pages_evicted: 0,
            pool_hit_rate: 1.0,
            plans_index_intersection: 0,
            plans_covering: 0,
            stats_rebuilds: self.stats_rebuilds.load(Ordering::Relaxed),
            ordering: OrderingSnapshot::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_averages_and_resets() {
        let m = NodeMetrics::new();
        m.on_block_received();
        m.on_block_received();
        m.on_block_processed(10_000, 6_000); // 10 ms, 6 ms
        m.on_block_processed(20_000, 10_000);
        m.on_tx_executed(1_000);
        m.on_tx_executed(3_000);
        m.on_tx_committed();
        m.on_tx_aborted();
        m.on_missing_txs(5);
        std::thread::sleep(std::time::Duration::from_millis(20));

        let s = m.take();
        assert!(s.window_secs > 0.0);
        assert!((s.bpt_ms - 15.0).abs() < 1e-9);
        assert!((s.bet_ms - 8.0).abs() < 1e-9);
        assert!((s.bct_ms - 7.0).abs() < 1e-9);
        assert!((s.tet_ms - 2.0).abs() < 1e-9);
        assert_eq!(s.committed, 1);
        assert_eq!(s.aborted, 1);
        assert!(s.brr > 0.0);
        assert!(s.mt_per_s > 0.0);
        assert!(s.su > 0.0 && s.su <= 1.0);

        // Second take: everything reset.
        let s2 = m.take();
        assert_eq!(s2.committed, 0);
        assert_eq!(s2.bpt_ms, 0.0);
    }

    #[test]
    fn stage_counters_average_and_reset() {
        let m = NodeMetrics::new();
        m.on_commit_stage(2_000);
        m.on_commit_stage(4_000);
        m.on_apply_stage(500);
        m.on_apply_stage(1_500);
        m.on_post_stage(10_000);
        m.set_pipeline_depths(3, 2);
        let s = m.take();
        assert!((s.commit_stage_ms - 3.0).abs() < 1e-9);
        assert!((s.apply_stage_ms - 1.0).abs() < 1e-9);
        assert!((s.post_stage_ms - 10.0).abs() < 1e-9);
        assert_eq!(s.pipeline_depth, 3);
        assert_eq!(s.postcommit_depth, 2);
        assert_eq!(m.commit_stage_samples(), vec![2_000, 4_000]);
        // Windowed averages reset; gauges and samples persist.
        let s2 = m.take();
        assert_eq!(s2.commit_stage_ms, 0.0);
        assert_eq!(s2.apply_stage_ms, 0.0);
        assert_eq!(s2.pipeline_depth, 3);
    }

    #[test]
    fn halted_flag_is_sticky_with_first_reason() {
        let m = NodeMetrics::new();
        assert!(!m.halted());
        assert!(!m.take().halted);
        m.set_halted("block 7 rejected");
        m.set_halted("later reason ignored");
        assert!(m.halted());
        assert_eq!(m.halt_reason().as_deref(), Some("block 7 rejected"));
        assert!(m.take().halted, "snapshot exposes the health flag");
    }

    #[test]
    fn vacuum_counters_accumulate() {
        let m = NodeMetrics::new();
        m.on_vacuum(10);
        m.on_vacuum(0);
        assert_eq!(m.vacuum_runs(), 2);
        assert_eq!(m.versions_reclaimed(), 10);
        let s = m.take();
        assert_eq!(s.vacuum_runs, 2);
        assert_eq!(s.versions_reclaimed, 10);
    }
}
