//! Block processing: the execution and committing phases of both flows,
//! staged as a pipeline across blocks.
//!
//! Order of operations per block (§3.3.2–§3.3.4, §3.4.3):
//!
//! 1. verify the block (sequence, hash chain, orderer signature) and
//!    append it to the block store;
//! 2. start any transactions not already executing (all of them in the OE
//!    flow; only *missing* ones in the EO flow) and wait until every
//!    transaction of the block is ready to commit;
//! 3. serially signal each transaction in block order: SSI commit check →
//!    primary-key check → write-set application (or rollback);
//! 4. record every transaction in the ledger table, notify clients,
//!    compute the write-set hash and submit the checkpoint vote;
//! 5. compare checkpoint votes carried in the block's metadata against our
//!    own hashes (tamper/divergence detection, §3.5).
//!
//! ## The commit pipeline
//!
//! The paper splits processing into an execution phase and a *serial*
//! commit phase precisely so that only ordering-dependent work is
//! serialized. [`run_loop`] — the node's one live commit driver —
//! exploits that split across consecutive blocks:
//!
//! * **Stage 1 — admit & pre-execute.** As soon as block N+1 is verified
//!   and appended, its not-yet-executing transactions are dispatched to
//!   the [`crate::exec_pool::ExecPool`] — while block N is still
//!   committing. This is safe because visibility is height-gated, not
//!   thread-gated: OE-flow transactions execute at snapshot height N and
//!   the pool's wait-for-height rule parks them until block N's writes
//!   are fully applied, while EO-flow transactions always race the
//!   commit phase by design and are kept deterministic by strict-mode
//!   phantom/stale detection plus the block-aware commit rules (Table 2).
//!   At most [`PIPELINE_DEPTH`] blocks are admitted ahead of the commit
//!   point.
//! * **Stage 2 — serial commit.** The committing phase stays one loop in
//!   block order on the commit thread ([`crate::commit`]): per
//!   transaction, SSI commit check, primary-key check, conflict
//!   resolution, row-id reservation and the write-set publish, each
//!   before the next transaction is looked at.
//! * **Stage 3 — post-commit.** Ledger-table records, write-set hashing,
//!   the checkpoint-vote submission, client notifications, embedded-vote
//!   comparison and periodic maintenance run on an ordered post-commit
//!   worker, at most [`POSTCOMMIT_CAP`] blocks behind. Block-store
//!   durability is group-fsynced there: admission appends without
//!   `sync_data` and the worker syncs once before notifying, so the
//!   durability of blocks N and N+1 can batch into one sync.
//!
//! Determinism is unaffected: stages 1 and 3 perform no
//! ordering-dependent decisions (stage 3 is a pure function of stage 2's
//! output, applied in block order by a single worker) and stage 2 is the
//! paper's serial loop.
//!
//! [`process_block`] runs the same three stages for one block to
//! completion on the calling thread. It is the §3.6 recovery and
//! catch-up replay path — replay must leave ledger records and
//! checkpoint hashes fully applied when it returns — and the reference
//! the determinism suite compares the live loop against. The
//! `serial_execution` baseline (§5.1) rides the live loop too: one block
//! is admitted at a time, nothing is pre-dispatched, stage 2 executes
//! each transaction inline, and the commit thread drains stage 3 after
//! every block, so no two stages ever overlap.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::block::{Block, CheckpointVote};
use bcrdb_chain::checkpoint::WriteSetHasher;
use bcrdb_chain::ledger::{LedgerRecord, TxStatus};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::GlobalTxId;
use bcrdb_storage::snapshot::ScanMode;
use bcrdb_txn::context::WriteRecord;
use bcrdb_txn::ssi::Flow;
use crossbeam_channel::{Receiver, TryRecvError};

use crate::commit::{commit_core, effective_snapshot};
use crate::exec_pool::ExecTask;
use crate::node::Node;
use crate::notify::TxNotification;

/// How often the receive loop wakes up with no deliveries, so the gap
/// timer can fire even while the channel is silent.
const GAP_POLL: Duration = Duration::from_millis(50);

/// Slice length for the head wait: between slices the commit thread
/// admits newly delivered blocks and observes shutdown.
const HEAD_WAIT_SLICE: Duration = Duration::from_millis(2);

/// Maximum blocks admitted (verified, appended and execution-dispatched)
/// ahead of the serial commit point.
pub const PIPELINE_DEPTH: usize = 4;

/// How long the block processor waits for a block's transaction
/// executions before declaring the node stuck (defensive; never hit in a
/// healthy system).
const EXEC_WAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// Maximum serially-committed blocks whose post-commit work (ledger
/// records, write-set hashing, checkpoint vote, notifications) may still
/// be queued on the post-commit worker before the commit thread blocks —
/// the pipeline's backpressure bound.
pub const POSTCOMMIT_CAP: u64 = 8;

/// Blocks of checkpoint history retained by the maintenance pruner; the
/// vacuum tick reclaims row versions deleted at or before this horizon.
const CHECKPOINT_RETENTION: u64 = 64;

/// Record a processor halt: the health flag in [`crate::NodeMetrics`]
/// (exposed through the Metrics RPC) plus the operator log line. A halt
/// is sticky — a byzantine orderer or local corruption means the node
/// must stop rather than diverge (§3.5(4)).
fn halt(node: &Arc<Node>, block: u64, e: &Error) {
    let reason = format!("halted at block {block}: {e}");
    eprintln!("[{}] {reason}", node.config.name);
    node.env.metrics.set_halted(reason);
}

/// One gap-triggered catch-up attempt, re-arming the gap timer on
/// failure or no progress.
fn run_gap_catch_up(node: &Arc<Node>, gap_since: &mut Option<Instant>) {
    match node.catch_up(false) {
        Ok(stats) if stats.fetched > 0 => {
            *gap_since = None;
        }
        Ok(_) => {
            // No hook installed or nothing fetched; re-arm so the next
            // attempt waits a full timeout again.
            // bcrdb-lint: allow(wall-clock, reason = "local gap-detection timer; never reaches replicated state")
            *gap_since = Some(Instant::now());
        }
        Err(e) => {
            eprintln!(
                "[{}] catch-up after delivery gap failed: {e}",
                node.config.name
            );
            // bcrdb-lint: allow(wall-clock, reason = "local gap-detection timer; never reaches replicated state")
            *gap_since = Some(Instant::now());
        }
    }
}

/// Buffer a future block, evicting the highest-numbered one when the
/// buffer is full (blocks closest to the gap are the ones that unblock
/// processing; far-future blocks are the cheapest to re-fetch).
fn hold_back(
    node: &Arc<Node>,
    pending: &mut std::collections::BTreeMap<u64, Arc<Block>>,
    block: Arc<Block>,
) {
    let cap = node.config.pending_cap.max(1);
    if pending.len() >= cap && !pending.contains_key(&block.number) {
        let highest = *pending.keys().next_back().expect("non-empty at cap");
        if block.number >= highest {
            node.env.metrics.on_pending_evicted();
            return; // the newcomer is the farthest out: drop it
        }
        pending.remove(&highest);
        node.env.metrics.on_pending_evicted();
    }
    pending.insert(block.number, block);
}

/// Verify one block against the local tip, append it durably and replay
/// it to completion on the calling thread — the peer catch-up entry
/// (§3.6). Verification is identical to live delivery. A block at or
/// below the committed height (the store trails the state after a
/// snapshot fast-sync) is appended without re-execution.
pub fn on_block(node: &Arc<Node>, block: &Arc<Block>) -> Result<()> {
    let current = node.blockstore.height();
    if block.number <= current {
        return Ok(()); // duplicate delivery
    }
    if block.number != current + 1 {
        return Err(Error::internal(format!(
            "block gap: have {current}, received {}",
            block.number
        )));
    }
    verify(node, block)?;
    node.blockstore.append(Arc::clone(block))?;
    if block.number > node.height() {
        process_block(node, block)?;
    }
    Ok(())
}

/// Verify a block against the local tip: hash-chain linkage plus the
/// orderer signature.
fn verify(node: &Arc<Node>, block: &Arc<Block>) -> Result<()> {
    block.verify(&node.blockstore.tip_hash(), &node.env.certs)
}

/// Execute and commit one already-stored block to completion on the
/// calling thread: the §3.6 recovery/catch-up replay path (replay must
/// leave ledger records and checkpoint hashes fully applied when it
/// returns) and the determinism suite's reference for [`run_loop`].
pub fn process_block(node: &Arc<Node>, block: &Arc<Block>) -> Result<()> {
    // bcrdb-lint: allow(wall-clock, reason = "metrics timing only")
    let received = Instant::now();
    let wait_ids = dispatch_execution(node, block);
    node.env.slots.wait_all_done(&wait_ids, EXEC_WAIT_TIMEOUT)?;
    let waited_us = received.elapsed().as_micros() as u64;
    let (records, writes, exec_us) = commit_core(node, block);
    advance_committed(node, block);
    post_commit(
        node,
        PostCommitJob {
            block: Arc::clone(block),
            records,
            writes,
            received,
            bet_us: waited_us + exec_us,
        },
    )?;
    if snapshot_due(node, block.number) {
        node.write_snapshot()?;
    }
    Ok(())
}

/// Is `block_number` a state-snapshot barrier?
fn snapshot_due(node: &Arc<Node>, block_number: u64) -> bool {
    node.config.snapshot_interval > 0 && block_number.is_multiple_of(node.config.snapshot_interval)
}

/// Stage 1: claim and dispatch every transaction of `block` that is not
/// already executing, returning the ids whose execution the commit phase
/// must await. Idempotent — a transaction already claimed (pre-dispatch,
/// peer forwarding, client submission) or already processed is never
/// dispatched twice — so the live loop runs it once on admission (the
/// pre-execute optimization) and once more when the block reaches the
/// serial commit point, where the processed-id set is authoritative.
/// Dispatches nothing under `serial_execution`: stage 2 executes inline.
fn dispatch_execution(node: &Arc<Node>, block: &Arc<Block>) -> Vec<GlobalTxId> {
    if node.config.serial_execution {
        return Vec::new();
    }
    let flow = node.config.flow;
    let exec_height = block.number - 1;
    let mut wait_ids: Vec<GlobalTxId> = Vec::with_capacity(block.txs.len());
    let mut missing = 0u64;
    for tx in &block.txs {
        if node.is_processed(&tx.id) {
            continue; // duplicate: aborted at the commit phase
        }
        let snap = effective_snapshot(tx, flow, exec_height);
        if snap > exec_height {
            continue; // future snapshot: deterministic abort, never executed
        }
        if node.env.slots.try_claim(tx.id) {
            if flow == Flow::ExecuteOrderParallel {
                // Should have arrived via peer forwarding (§3.4.3: "the
                // committer starts executing all missing transactions").
                missing += 1;
            }
            let mode = match flow {
                Flow::OrderThenExecute => ScanMode::Relaxed,
                Flow::ExecuteOrderParallel => ScanMode::Strict,
            };
            node.pool.submit(ExecTask {
                tx: Arc::new(tx.clone()),
                snapshot_height: snap,
                mode,
            });
        }
        wait_ids.push(tx.id);
    }
    if missing > 0 {
        node.env.metrics.on_missing_txs(missing);
    }
    wait_ids
}

/// Advance the committed height to `block` and release the executions
/// parked on it.
fn advance_committed(node: &Arc<Node>, block: &Arc<Block>) {
    node.env
        .committed_height
        .store(block.number, Ordering::Relaxed);
    node.pool.release_waiting(block.number);
}

/// Hash a block's write-set summary in commit order (§3.3.4).
fn hash_writes(writes: &[WriteRecord]) -> WriteSetHasher {
    let mut hasher = WriteSetHasher::new();
    for w in writes {
        hasher.add(&w.table, w.kind, w.row_id, &w.data);
    }
    hasher
}

/// Process checkpoint votes carried by this block (§3.3.4: hashes of
/// *previous* blocks' write sets arrive in later blocks).
fn record_embedded_votes(node: &Arc<Node>, block: &Arc<Block>) {
    for cv in &block.checkpoints {
        if cv.node == node.config.name {
            continue;
        }
        if let Some(d) = node
            .checkpoints
            .record_vote(&cv.node, cv.block, cv.state_hash)
        {
            node.divergences.lock().push(d);
        }
    }
}

/// Periodic maintenance, run after a block's post-commit work: SSI GC,
/// checkpoint pruning, the spill tick paging out cold heap segments on
/// paged nodes, and the vacuum tick (`NodeConfig::vacuum_interval`)
/// reclaiming row versions deleted at or before the checkpoint-retention
/// horizon. Vacuum is concurrency-safe against readers and appenders —
/// heap positions are stable and reclaimed slots tombstone in place (see
/// `bcrdb_storage::table`).
fn maintenance(node: &Arc<Node>, block_number: u64) {
    if node.config.gc_interval > 0 && block_number.is_multiple_of(node.config.gc_interval) {
        node.env.ssi.gc();
        node.checkpoints
            .prune(block_number.saturating_sub(CHECKPOINT_RETENTION));
        if node.paged_store().is_some() {
            // Spill rides the GC cadence: a segment pages out once every
            // version in it is quiescent at `spill_retention` blocks
            // behind the tip, keeping SSI-relevant recent history
            // resident. The chain is stamped with the block number as
            // its LSN so recovery picks the newest image. No snapshot
            // clamp is needed here — spilling never loses data, and a
            // chain re-spilled past the last snapshot barrier is
            // equivalent under the restore-time anchor filter because
            // vacuum (below) never crosses that barrier.
            let horizon = block_number.saturating_sub(node.config.spill_retention.max(1));
            node.spill(horizon, block_number);
        }
    }
    if node.config.vacuum_interval > 0 && block_number.is_multiple_of(node.config.vacuum_interval) {
        let mut horizon = block_number.saturating_sub(CHECKPOINT_RETENTION);
        if node.config.snapshot_interval > 0 {
            // Never vacuum past the last snapshot barrier: restoring
            // from snapshot N replays blocks > N, and a replayed delete
            // must still find its target version. Versions deleted
            // after the barrier therefore stay (tombstone-able only at
            // the next barrier). Applied on every node — paged or not —
            // because the clamp changes which versions exist, and state
            // hashes must stay byte-identical across configurations.
            // The barrier below the current block is used even when the
            // block is itself one, since its snapshot is written after
            // this maintenance tick.
            let interval = node.config.snapshot_interval;
            let last_barrier = block_number.saturating_sub(1) / interval * interval;
            horizon = horizon.min(last_barrier);
        }
        let reclaimed = node.vacuum(horizon);
        node.env.metrics.on_vacuum(reclaimed as u64);
    }
}

/// Compute and publish the checkpoint for a processed block.
pub(crate) fn publish_checkpoint(node: &Arc<Node>, block_number: u64, hasher: WriteSetHasher) {
    let digest = hasher.finish();
    node.checkpoints.record_local(block_number, digest);
    let hooks = node.hooks.read();
    if let Some(submit) = &hooks.submit_checkpoint {
        submit(CheckpointVote {
            node: node.config.name.clone(),
            block: block_number,
            state_hash: digest,
        });
    }
}

// ------------------------------------------------------------ live loop

/// A block admitted to the pipeline: verified, appended, pre-dispatched,
/// awaiting its serial commit turn.
struct Inflight {
    block: Arc<Block>,
    /// When the block was admitted (bpt measurement origin).
    received: Instant,
    /// Set when the block reaches the head of the pipeline.
    head: Option<HeadWait>,
}

/// The head block's wait for its executions.
struct HeadWait {
    /// When the block reached the head: `bet` and the execution-wait
    /// timeout are both measured from here.
    since: Instant,
    /// Authoritative wait list — all earlier blocks are committed, so
    /// the processed-id set is final for duplicate detection.
    ids: Vec<GlobalTxId>,
}

/// Stage-2 output handed to stage 3.
struct PostCommitJob {
    block: Arc<Block>,
    records: Vec<LedgerRecord>,
    writes: Vec<WriteRecord>,
    received: Instant,
    bet_us: u64,
}

/// Receive-and-process loop (runs on the node's block-processor thread):
/// admit & pre-dispatch eagerly, commit serially, hand post-commit work
/// to an ordered bounded worker. Out-of-order future blocks are held
/// back — in a buffer bounded by `NodeConfig::pending_cap` — and admitted
/// once the gap closes. A gap that outlives `NodeConfig::gap_timeout`
/// triggers a peer catch-up round through the `sync_fetch` hook (§3.6).
pub fn run_loop(node: Arc<Node>, rx: Receiver<Arc<Block>>) {
    let (jobs_tx, jobs_rx) = crossbeam_channel::unbounded::<PostCommitJob>();
    let worker = {
        let node = Arc::clone(&node);
        std::thread::Builder::new()
            .name(format!("{}-postcommit", node.config.name))
            .spawn(move || post_commit_loop(node, jobs_rx))
            .expect("spawn post-commit worker")
    };
    // The commit loop drops the sender when it returns; the worker then
    // drains its queue and exits. Joining it here makes this thread's
    // exit mean that nothing of the node still writes to its directory.
    commit_loop(&node, rx, jobs_tx);
    if worker.join().is_err() {
        eprintln!("[{}] post-commit worker panicked", node.config.name);
    }
}

/// Stages 1 and 2 of [`run_loop`], on the block-processor thread.
fn commit_loop(
    node: &Arc<Node>,
    rx: Receiver<Arc<Block>>,
    jobs_tx: crossbeam_channel::Sender<PostCommitJob>,
) {
    let metrics = Arc::clone(&node.env.metrics);
    // The serial-execution baseline admits one block at a time: with the
    // drain after every block (below), nothing of block N+1 is touched
    // until block N is completely done.
    let depth = if node.config.serial_execution {
        1
    } else {
        PIPELINE_DEPTH
    };
    let mut pending: std::collections::BTreeMap<u64, Arc<Block>> = Default::default();
    let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(depth);
    // When the current delivery gap opened (None = no gap).
    let mut gap_since: Option<Instant> = None;
    let mut disconnected = false;

    loop {
        if node.shutting_down.load(Ordering::Relaxed) {
            return;
        }

        // ---- stage 1: admit deliveries while there is pipeline room ----
        while inflight.len() < depth && !disconnected {
            match rx.try_recv() {
                Ok(block) => {
                    if admit(node, &mut pending, &mut inflight, &mut gap_since, block).is_err() {
                        return;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => disconnected = true,
            }
        }
        // Admit buffered blocks whose gap has closed.
        if admit_pending(node, &mut pending, &mut inflight, depth).is_err() {
            return;
        }
        metrics.set_held_back(pending.len() as u64);
        metrics.set_pipeline_depths(
            inflight.len() as u64,
            node.height().saturating_sub(node.postcommit_height()),
        );

        // ---- stage 2: advance the pipeline head -------------------------
        if let Some(infl) = inflight.front_mut() {
            let head = infl.head.get_or_insert_with(|| HeadWait {
                // bcrdb-lint: allow(wall-clock, reason = "metrics timing and the local execution-wait timeout")
                since: Instant::now(),
                ids: dispatch_execution(node, &infl.block),
            });
            if node.env.slots.wait_all_done_for(&head.ids, HEAD_WAIT_SLICE) {
                let waited_us = head.since.elapsed().as_micros() as u64;
                let infl = inflight.pop_front().expect("head exists");
                let block_number = infl.block.number;
                let (records, writes, exec_us) = commit_core(node, &infl.block);
                advance_committed(node, &infl.block);
                let _ = jobs_tx.send(PostCommitJob {
                    block: infl.block,
                    records,
                    writes,
                    received: infl.received,
                    bet_us: waited_us + exec_us,
                });
                // Backpressure: bound the stage-3 queue.
                if !await_postcommit(node, block_number.saturating_sub(POSTCOMMIT_CAP)) {
                    return;
                }
                // Snapshot barrier: a state snapshot must see the block's
                // ledger records and must not race a later block's serial
                // commit — drain the worker, then write on this thread.
                // The serial-execution baseline takes the same drain after
                // every block, so no two of its stages overlap.
                let snapshot = snapshot_due(node, block_number);
                if (snapshot || node.config.serial_execution)
                    && !await_postcommit(node, block_number)
                {
                    return;
                }
                if snapshot {
                    if let Err(e) = node.write_snapshot() {
                        // A failed snapshot halts the node rather than
                        // leaving a stale snapshot to be served to
                        // fast-sync peers.
                        halt(node, block_number, &e);
                        return;
                    }
                }
            } else if head.since.elapsed() >= EXEC_WAIT_TIMEOUT {
                halt(
                    node,
                    infl.block.number,
                    &Error::internal(format!(
                        "timed out waiting for transaction execution: {:?}",
                        node.env.slots.stuck_ids(&head.ids)
                    )),
                );
                return;
            }
        } else {
            if disconnected {
                return;
            }
            // Idle: block for a delivery so the loop does not spin.
            match rx.recv_timeout(GAP_POLL) {
                Ok(block) => {
                    if admit(node, &mut pending, &mut inflight, &mut gap_since, block).is_err() {
                        return;
                    }
                }
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => disconnected = true,
            }
        }

        // ---- gap handling ----------------------------------------------
        if pending.is_empty() {
            gap_since = None;
        } else if gap_since.is_none() {
            // bcrdb-lint: allow(wall-clock, reason = "local gap-detection timer; never reaches replicated state")
            gap_since = Some(Instant::now());
        }
        // The gap outlived the delivery-reorder window: the missing
        // blocks are not coming on their own — fetch them from peers.
        if let Some(t0) = gap_since {
            if t0.elapsed() >= node.config.gap_timeout && inflight.is_empty() {
                // Catch-up replays synchronously through process_block;
                // the pipeline must be fully drained first so ledger and
                // checkpoint work stays in block order.
                if !await_postcommit(node, node.height()) {
                    return;
                }
                run_gap_catch_up(node, &mut gap_since);
                if admit_pending(node, &mut pending, &mut inflight, depth).is_err() {
                    return;
                }
                metrics.set_held_back(pending.len() as u64);
            }
        }
    }
}

/// Block the commit thread until stage 3 has finished block `height`.
/// `false` = the node is shutting down instead.
fn await_postcommit(node: &Arc<Node>, height: u64) -> bool {
    while node.postcommit_height() < height {
        if node.shutting_down.load(Ordering::Relaxed) {
            return false;
        }
        node.wait_postcommit(height, GAP_POLL);
    }
    true
}

/// Verify, append and pre-dispatch one delivered block, or buffer /
/// discard it (future gap / duplicate). `Err` = the processor halted.
fn admit(
    node: &Arc<Node>,
    pending: &mut std::collections::BTreeMap<u64, Arc<Block>>,
    inflight: &mut VecDeque<Inflight>,
    gap_since: &mut Option<Instant>,
    block: Arc<Block>,
) -> std::result::Result<(), ()> {
    let current = node.blockstore.height();
    if block.number <= current {
        node.env.metrics.on_block_received();
        return Ok(()); // duplicate delivery
    }
    if block.number > current + 1 {
        hold_back(node, pending, block);
        if gap_since.is_none() {
            // bcrdb-lint: allow(wall-clock, reason = "local gap-detection timer; never reaches replicated state")
            *gap_since = Some(Instant::now());
            node.env.metrics.on_gap_detected();
        }
        return Ok(());
    }
    node.env.metrics.on_block_received();
    // The append skips `sync_data`: the post-commit worker group-syncs
    // before anyone is notified.
    if let Err(e) =
        verify(node, &block).and_then(|()| node.blockstore.append_deferred(Arc::clone(&block)))
    {
        halt(node, block.number, &e);
        return Err(());
    }
    // Pre-execute (stage 1): dispatch now, while earlier blocks are
    // still committing. The authoritative wait list is recomputed when
    // the block reaches the pipeline head.
    let _ = dispatch_execution(node, &block);
    inflight.push_back(Inflight {
        block,
        // bcrdb-lint: allow(wall-clock, reason = "metrics timing only")
        received: Instant::now(),
        head: None,
    });
    Ok(())
}

/// Admit consecutively buffered future blocks while there is room.
fn admit_pending(
    node: &Arc<Node>,
    pending: &mut std::collections::BTreeMap<u64, Arc<Block>>,
    inflight: &mut VecDeque<Inflight>,
    depth: usize,
) -> std::result::Result<(), ()> {
    let mut none = None;
    while inflight.len() < depth {
        let next = node.blockstore.height() + 1;
        let Some(b) = pending.remove(&next) else {
            break;
        };
        admit(node, pending, inflight, &mut none, b)?;
    }
    pending.retain(|n, _| *n > node.blockstore.height());
    Ok(())
}

/// The post-commit worker: stage 3 strictly in block order (single
/// worker, FIFO channel). A failure halts the node and stops it. Exits
/// when the commit thread drops the sender.
fn post_commit_loop(node: Arc<Node>, rx: Receiver<PostCommitJob>) {
    for job in rx.iter() {
        let block_number = job.block.number;
        if let Err(e) = post_commit(&node, job) {
            halt(&node, block_number, &e);
            node.shutdown();
            return;
        }
    }
}

/// Stage 3 for one block: ledger records, write-set hash + checkpoint
/// vote, group fsync, metrics, client notifications, embedded vote
/// comparison, maintenance and the page-store write-back. Runs on the
/// post-commit worker for [`run_loop`] and inline for [`process_block`].
fn post_commit(node: &Arc<Node>, job: PostCommitJob) -> Result<()> {
    // bcrdb-lint: allow(wall-clock, reason = "metrics timing only")
    let t3 = Instant::now();
    let block_number = job.block.number;
    node.append_ledger(&job.records, block_number);
    publish_checkpoint(node, block_number, hash_writes(&job.writes));
    // Group fsync: one sync_data covers every block appended since the
    // last one (nothing, on the replay path, whose appends sync
    // themselves). Durability must precede client notifications: a sync
    // failure stops the node *before* anyone is told their transaction
    // committed — acknowledging a commit that a crash could truncate
    // away would break the §3.5 audit story.
    node.blockstore
        .sync()
        .map_err(|e| Error::internal(format!("block store sync failed: {e}")))?;
    // Record metrics *before* notifying: a client that returns from
    // `wait_committed` and immediately reads this node's metrics must
    // see its own transaction counted.
    for record in &job.records {
        match record.status {
            TxStatus::Committed => node.env.metrics.on_tx_committed(),
            TxStatus::Aborted(_) => node.env.metrics.on_tx_aborted(),
        }
    }
    let bpt_us = job.received.elapsed().as_micros() as u64;
    node.env
        .metrics
        .on_block_processed(bpt_us, job.bet_us.min(bpt_us));
    // The committed height advanced before this job was built, so a
    // "committed" notification guarantees the effects are visible to an
    // immediate follow-up query on this node.
    for record in &job.records {
        node.notifications.notify(TxNotification {
            id: record.global_id,
            block: block_number,
            status: record.status.clone(),
        });
    }
    record_embedded_votes(node, &job.block);
    maintenance(node, block_number);
    // Group write-back for the page store: flush the batches dirtied by
    // this block's spill tick. Journaled writes make a torn flush
    // recoverable, so this may trail the client notifications.
    if let Some(store) = node.paged_store() {
        store
            .sync()
            .map_err(|e| Error::internal(format!("page store sync failed: {e}")))?;
    }
    node.env
        .metrics
        .on_post_stage(t3.elapsed().as_micros() as u64);
    node.note_postcommit(block_number);
    Ok(())
}
