//! The `oe-bft-faults` fault phase: the schedule executed against the
//! running network while the open loop keeps submitting, and what it
//! observed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::load::OpResult;
use crate::stats::median;
use crate::sut::{Sut, OP_TIMEOUT};
use crate::workload::Fault;

/// What the fault phase observed beyond its operations.
#[derive(Default)]
pub struct FaultLog {
    /// `rejoin_node` call → crashed node at the cluster head, ms.
    pub catchup_ms: f64,
    /// Per stall: stall call, seconds since the run epoch.
    pub stalls_s: Vec<f64>,
    /// Per stall: stall → `current_view` advanced, ms.
    pub view_change_ms: Vec<f64>,
    /// Catch-up rounds the rejoined node needed (`SyncStats`).
    pub sync_rounds: f64,
    /// Blocks fetched per second of catch-up (`SyncStats`).
    pub catchup_blocks_per_s: f64,
    /// Fault-injection calls that failed.
    pub errors: Vec<String>,
}

/// Execute the fault schedule against `sut` while the caller's open loop
/// keeps submitting. Runs on its own thread; sleeps until each step.
///
/// A stalled leader is only voted out while work is pending, so once the
/// load has ended (`load_done`) the remaining stalls are skipped and a
/// stall in progress is lifted.
pub fn drive_faults(
    sut: &Sut,
    schedule: &[Fault],
    phase_start: Instant,
    epoch: Instant,
    load_done: &AtomicBool,
) -> FaultLog {
    let mut log = FaultLog::default();
    let orderers = sut.ordering().config().orderers as u64;
    std::thread::scope(|s| {
        let mut rejoin = None;
        for fault in schedule {
            let (Fault::StopNode { at_s }
            | Fault::RejoinNode { at_s }
            | Fault::StallLeader { at_s }) = fault;
            let at = phase_start + Duration::from_secs_f64(*at_s);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            match fault {
                Fault::StopNode { .. } => {
                    if let Err(e) = sut.stop_node() {
                        log.errors.push(format!("stop_node: {e}"));
                    }
                }
                // Rejoin blocks until the node caught up; the stalls that
                // follow must not wait for it.
                Fault::RejoinNode { .. } => {
                    rejoin = Some(s.spawn(move || {
                        let t0 = Instant::now();
                        let node = sut.rejoin_node().map_err(|e| format!("rejoin_node: {e}"))?;
                        let head = sut.ordering().height();
                        let deadline = Instant::now() + OP_TIMEOUT;
                        while node.height() < head {
                            if Instant::now() > deadline {
                                return Err("rejoined node never reached the head".to_string());
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        let ms = t0.elapsed().as_secs_f64() * 1000.0;
                        Ok((ms, node.last_sync_stats()))
                    }));
                }
                Fault::StallLeader { .. } => {
                    if load_done.load(Ordering::Relaxed) {
                        continue;
                    }
                    let view = sut.ordering().current_view();
                    let leader = (view % orderers) as usize;
                    let t0 = Instant::now();
                    if let Err(e) = sut.ordering().stall_orderer(leader) {
                        log.errors.push(format!("stall_orderer: {e}"));
                        continue;
                    }
                    log.stalls_s.push(epoch.elapsed().as_secs_f64());
                    let deadline = t0 + OP_TIMEOUT;
                    let advanced = || sut.ordering().current_view() != view;
                    while !advanced()
                        && !load_done.load(Ordering::Relaxed)
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    if advanced() {
                        log.view_change_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
                    }
                    if let Err(e) = sut.ordering().unstall_orderer(leader) {
                        log.errors.push(format!("unstall_orderer: {e}"));
                    }
                }
            }
        }
        if let Some(h) = rejoin {
            match h.join().expect("rejoin thread") {
                Ok((ms, stats)) => {
                    log.catchup_ms = ms;
                    if let Some(st) = stats {
                        log.sync_rounds = st.rounds as f64;
                        let secs = st.duration.as_secs_f64().max(1e-9);
                        log.catchup_blocks_per_s = st.fetched as f64 / secs;
                    }
                }
                Err(e) => log.errors.push(e),
            }
        }
    });
    log
}

/// `unavailable_ms`: per stall, stall → first commit of an operation that
/// was due after the stall; the median over the stalls.
pub fn unavailable_ms(results: &[OpResult], stalls_s: &[f64]) -> f64 {
    let per_stall: Vec<f64> = stalls_s
        .iter()
        .filter_map(|stall| {
            results
                .iter()
                .filter(|r| r.ok && r.due_s >= *stall)
                .map(|r| r.done_s)
                .min_by(f64::total_cmp)
                .map(|first| (first - stall) * 1000.0)
        })
        .collect();
    median(&per_stall).unwrap_or(0.0)
}
