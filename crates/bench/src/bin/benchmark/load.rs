//! The load generator: open-loop and closed-loop phases over a fixed
//! operation list, two submitter threads on two client connections.
//!
//! Open loop: operation `k` is *due* at `start + k / rate` on an absolute
//! schedule; its latency runs from that due time — not from when the
//! submitter got round to it — to the commit notification, so a stall
//! charges every operation it delayed. Each submitter hands its in-flight
//! handles to a collector thread that only ever blocks on a channel.
//! Retriable SSI aborts are resubmitted by the collector up to
//! [`MAX_RETRIES`] times keeping the original due time (the client
//! behaviour the paper prescribes, §3.4.1).
//!
//! Closed loop: each submitter keeps two `submit_all` batches of
//! `batch` calls outstanding and refills as soon as the older one
//! resolves, so the system is never waiting for the generator.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bcrdb_chain::ledger::TxStatus;
use bcrdb_common::error::Error;
use bcrdb_common::ids::GlobalTxId;
use bcrdb_core::{Call, Client, PendingBatch, PendingTx};

use crate::sut::OP_TIMEOUT;
use crate::workload::{Op, POINT_QUERY};

/// Resubmissions allowed per operation after retriable aborts.
pub const MAX_RETRIES: u8 = 5;

/// Lead an open-loop phase gives itself so that both submitters are
/// parked on the schedule before the first operation is due.
pub const START_LEAD: Duration = Duration::from_millis(20);

/// Pause between attempts while the client's admission window is full.
const BUSY_BACKOFF: Duration = Duration::from_millis(1);

/// The rendered prefix shared by every retriable abort reason (see
/// `Error::is_retriable`).
const RETRIABLE_PREFIX: &str = "serialization failure";

/// Final outcome of one generated operation.
#[derive(Clone, Copy, Debug)]
pub struct OpResult {
    /// Position in the phase's operation list.
    pub index: u32,
    /// Read-only lookup (otherwise a signed transaction).
    pub read: bool,
    /// When it was due, seconds since the run epoch.
    pub due_s: f64,
    /// When its final outcome was observed, seconds since the run epoch.
    pub done_s: f64,
    /// Committed (or, for a read, answered correctly).
    pub ok: bool,
    /// Resubmissions it needed.
    pub retries: u8,
}

impl OpResult {
    fn new(epoch: Instant, index: u32, read: bool, due: Instant, done: Instant, ok: bool) -> Self {
        OpResult {
            index,
            read,
            due_s: secs(epoch, due),
            done_s: secs(epoch, done),
            ok,
            retries: 0,
        }
    }

    /// Due → outcome, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1000.0
    }
}

/// One submitted transaction (one attempt of one operation) as the client
/// saw it — the raw material of the trace spans.
#[derive(Clone, Copy, Debug)]
pub struct TxTrace {
    /// Its network-unique id.
    pub id: GlobalTxId,
    /// `Client::submit` called, seconds since the run epoch.
    pub call_s: f64,
    /// `Client::submit` returned.
    pub ack_s: f64,
    /// Notification observed.
    pub done_s: f64,
    /// Block that carried it.
    pub block: u64,
}

/// Everything one phase observed.
#[derive(Default)]
pub struct PhaseOutcome {
    /// One entry per generated operation.
    pub results: Vec<OpResult>,
    /// Per transaction attempt, only when tracing.
    pub traces: Vec<TxTrace>,
    /// How late each open-loop operation was sent, milliseconds.
    pub late_ms: Vec<f64>,
    /// The same, for the operations the submitter slept for: lateness the
    /// generator and the scheduler own, with no earlier `submit` call
    /// still in the way.
    pub wake_late_ms: Vec<f64>,
    /// Why the first failed operation failed, for the failure report.
    pub first_failure: Option<String>,
    /// A read that was answered with the wrong rows: a correctness
    /// failure, not a failed operation.
    pub wrong_read: Option<String>,
    /// Transactions submitted, retries included.
    pub attempts: u64,
    /// Aborted notifications received.
    pub aborts: u64,
    /// Closed loop: `(completion time since the run epoch, operations
    /// completed)` per batch.
    pub batch_events: Vec<(f64, u64)>,
    /// First operation due (open loop) or first submit (closed loop).
    pub start_s: f64,
    /// Last outcome observed.
    pub end_s: f64,
}

impl PhaseOutcome {
    fn absorb(&mut self, other: PhaseOutcome) {
        self.results.extend(other.results);
        self.traces.extend(other.traces);
        self.late_ms.extend(other.late_ms);
        self.wake_late_ms.extend(other.wake_late_ms);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        if self.wrong_read.is_none() {
            self.wrong_read = other.wrong_read;
        }
        self.attempts += other.attempts;
        self.aborts += other.aborts;
        self.batch_events.extend(other.batch_events);
    }

    fn close(mut self, start_s: f64) -> PhaseOutcome {
        self.results.sort_by_key(|r| r.index);
        self.start_s = start_s;
        self.end_s = self
            .results
            .iter()
            .map(|r| r.done_s)
            .fold(start_s, f64::max);
        self
    }

    /// Operations that never committed.
    pub fn failed(&self) -> u64 {
        self.results.iter().filter(|r| !r.ok).count() as u64
    }
}

fn secs(epoch: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(epoch).as_secs_f64()
}

/// Run one read-only lookup. `Ok(true)`: answered with exactly the row
/// asked for; `Ok(false)`: the query failed (a failed operation);
/// `Err`: it answered with something else (a correctness failure).
fn run_read(client: &Client, key: i64) -> Result<bool, String> {
    match client.select(POINT_QUERY).bind(key).fetch() {
        Ok(rows) => {
            let found = rows.row(0).and_then(|r| r.at::<i64>(0).ok());
            if rows.len() == 1 && found == Some(key) {
                Ok(true)
            } else {
                Err(format!(
                    "lookup of events.id = {key} returned {} row(s), first id {found:?}",
                    rows.len()
                ))
            }
        }
        Err(_) => Ok(false),
    }
}

/// An open-loop write operation on its way to a final outcome: handed
/// from the submitter to the collector with its first handle, and kept by
/// the collector across resubmissions.
struct Tracked {
    index: u32,
    retries: u8,
    due: Instant,
    /// The attempt in flight; `None` while a resubmission is waiting for
    /// room in the admission window.
    attempt: Option<Attempt>,
}

/// One submitted transaction of a [`Tracked`] operation.
struct Attempt {
    pending: PendingTx,
    call: Instant,
    ack: Instant,
}

/// Drive `ops` open-loop at `rate` ops/s over `clients` (one submitter
/// and one collector thread per client).
pub fn open_loop(
    clients: &[Client],
    ops: &[Op],
    rate: f64,
    epoch: Instant,
    traced: bool,
) -> PhaseOutcome {
    let threads = clients.len();
    let start = Instant::now() + START_LEAD;
    let due_of = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let mut total = PhaseOutcome::default();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (t, client) in clients.iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Tracked>();
            let submitter = s.spawn(move || {
                let mut out = PhaseOutcome::default();
                for k in (t..ops.len()).step_by(threads) {
                    let due = due_of(k);
                    let now = Instant::now();
                    let slept = due > now;
                    if slept {
                        std::thread::sleep(due - now);
                    }
                    let call = Instant::now();
                    let late = call.saturating_duration_since(due).as_secs_f64() * 1000.0;
                    out.late_ms.push(late);
                    if slept {
                        out.wake_late_ms.push(late);
                    }
                    let op = &ops[k];
                    let Some(built) = op.call() else {
                        let Op::Read { key } = op else { unreachable!() };
                        let ok = run_read(client, *key).unwrap_or_else(|wrong| {
                            out.wrong_read.get_or_insert(wrong);
                            false
                        });
                        let done = Instant::now();
                        out.results
                            .push(OpResult::new(epoch, k as u32, true, due, done, ok));
                        continue;
                    };
                    out.attempts += 1;
                    // A full admission window is backpressure, not failure:
                    // wait for the collector to free a slot, as a client
                    // with a bounded pool would. The wait is on the clock.
                    let mut outcome = client.submit(built);
                    while matches!(outcome, Err(Error::Busy(_))) && due.elapsed() < OP_TIMEOUT {
                        std::thread::sleep(BUSY_BACKOFF);
                        outcome = client.submit(op.call().expect("writes only"));
                    }
                    let ack = Instant::now();
                    match outcome {
                        Ok(pending) => {
                            let _ = tx.send(Tracked {
                                index: k as u32,
                                retries: 0,
                                due,
                                attempt: Some(Attempt { pending, call, ack }),
                            });
                        }
                        Err(e) => {
                            out.first_failure.get_or_insert(format!("submit: {e}"));
                            out.results
                                .push(OpResult::new(epoch, k as u32, false, due, ack, false));
                        }
                    }
                }
                out
            });
            let collector = s.spawn(move || collect(client, ops, rx, epoch, traced));
            handles.push((submitter, collector));
        }
        for (submitter, collector) in handles {
            total.absorb(submitter.join().expect("submitter thread"));
            total.absorb(collector.join().expect("collector thread"));
        }
    });
    total.close(secs(epoch, start))
}

/// The collector of one connection: resolves handles in submission order,
/// blocking only on the hand-off channel and on notification channels,
/// and resubmits retriable aborts.
fn collect(
    client: &Client,
    ops: &[Op],
    rx: mpsc::Receiver<Tracked>,
    epoch: Instant,
    traced: bool,
) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    let mut queue: VecDeque<Tracked> = VecDeque::new();
    loop {
        while let Ok(item) = rx.try_recv() {
            queue.push_back(item);
        }
        let Some(mut item) = queue.pop_front().or_else(|| rx.recv().ok()) else {
            break;
        };
        let mut finish = |item: &Tracked, done: Instant, failure: Option<String>| {
            out.results.push(OpResult {
                retries: item.retries,
                ..OpResult::new(epoch, item.index, false, item.due, done, failure.is_none())
            });
            if out.first_failure.is_none() {
                out.first_failure = failure;
            }
        };
        // Resolve the attempt in flight. Its handle — and with it the
        // window slot — is released before any resubmission.
        if let Some(attempt) = item.attempt.take() {
            let outcome = attempt.pending.wait(OP_TIMEOUT);
            let done = Instant::now();
            if traced {
                if let Ok(n) = &outcome {
                    out.traces.push(TxTrace {
                        id: n.id,
                        call_s: secs(epoch, attempt.call),
                        ack_s: secs(epoch, attempt.ack),
                        done_s: secs(epoch, done),
                        block: n.block,
                    });
                }
            }
            drop(attempt);
            let failure = match outcome.map(|n| n.status) {
                Ok(TxStatus::Committed) => None,
                Ok(TxStatus::Aborted(reason)) => {
                    out.aborts += 1;
                    if !reason.starts_with(RETRIABLE_PREFIX) {
                        Some(format!("aborted: {reason}"))
                    } else if item.retries >= MAX_RETRIES {
                        Some(format!("retries exhausted: {reason}"))
                    } else {
                        item.retries += 1;
                        queue.push_front(item);
                        continue;
                    }
                }
                // Timed out: the transaction may still commit later, but
                // the client gave up on it.
                Err(e) => Some(e.to_string()),
            };
            finish(&item, done, failure);
            continue;
        }
        let call = Instant::now();
        let built = ops[item.index as usize].call().expect("writes only");
        match client.submit(built) {
            Ok(pending) => {
                out.attempts += 1;
                let ack = Instant::now();
                item.attempt = Some(Attempt { pending, call, ack });
                queue.push_back(item);
            }
            // Window full: resolving the handles ahead in the queue is
            // what frees it, so come back to this one after them.
            Err(Error::Busy(_)) if !queue.is_empty() && item.due.elapsed() < OP_TIMEOUT => {
                queue.push_back(item);
            }
            Err(e) => finish(&item, Instant::now(), Some(format!("resubmit: {e}"))),
        }
    }
    out
}

/// One outstanding closed-loop batch.
struct Outstanding {
    batch: Option<PendingBatch>,
    /// `(operation index, retries so far)` per call, in batch order.
    members: Vec<(u32, u8)>,
    /// Reads answered while assembling the batch.
    reads_ok: u64,
}

/// Drive `ops` closed-loop: per client, two batches of up to `batch`
/// calls outstanding until the list is exhausted, then a drain of the
/// remaining retries.
pub fn closed_loop(clients: &[Client], ops: &[Op], batch: usize, epoch: Instant) -> PhaseOutcome {
    let threads = clients.len();
    let start = Instant::now();
    let mut total = PhaseOutcome::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let mine = (t..ops.len()).step_by(threads).map(|k| k as u32);
                    closed_loop_worker(client, ops, mine, batch, epoch, start)
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("closed-loop thread"));
        }
    });
    total.close(secs(epoch, start))
}

fn closed_loop_worker(
    client: &Client,
    ops: &[Op],
    mut fresh: impl Iterator<Item = u32>,
    batch: usize,
    epoch: Instant,
    start: Instant,
) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    let mut retry: Vec<(u32, u8)> = Vec::new();
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    // Every operation of a closed loop counts as due when the phase began.
    let result = |k: u32, read: bool, done: Instant, ok: bool, retries: u8| OpResult {
        retries,
        ..OpResult::new(epoch, k, read, start, done, ok)
    };

    // Assemble and submit the next batch: pending retries first, then
    // fresh operations; reads among the fresh ones run inline.
    let mut submit_next =
        |out: &mut PhaseOutcome, retry: &mut Vec<(u32, u8)>| -> Option<Outstanding> {
            let mut members: Vec<(u32, u8)> = std::mem::take(retry);
            let mut reads_ok = 0;
            let mut taken = members.len();
            while taken < batch {
                let Some(k) = fresh.next() else { break };
                taken += 1;
                match &ops[k as usize] {
                    Op::Read { key } => {
                        let ok = run_read(client, *key).unwrap_or_else(|wrong| {
                            out.wrong_read.get_or_insert(wrong);
                            false
                        });
                        reads_ok += u64::from(ok);
                        out.results.push(result(k, true, Instant::now(), ok, 0));
                    }
                    _ => members.push((k, 0)),
                }
            }
            if members.is_empty() && reads_ok == 0 {
                return None;
            }
            let calls: Vec<Call> = members
                .iter()
                .map(|(k, _)| ops[*k as usize].call().expect("writes only"))
                .collect();
            out.attempts += calls.len() as u64;
            let batch = if calls.is_empty() {
                None
            } else {
                match client.submit_all(calls) {
                    Ok(b) => Some(b),
                    Err(e) => {
                        out.first_failure.get_or_insert(format!("submit_all: {e}"));
                        let now = Instant::now();
                        for (k, retries) in members.drain(..) {
                            out.results.push(result(k, false, now, false, retries));
                        }
                        None
                    }
                }
            };
            Some(Outstanding {
                batch,
                members,
                reads_ok,
            })
        };

    for _ in 0..2 {
        if let Some(o) = submit_next(&mut out, &mut retry) {
            outstanding.push_back(o);
        }
    }
    while let Some(o) = outstanding.pop_front() {
        let mut completed = o.reads_ok;
        // The handle is dropped here, before the refill: it holds its
        // calls' slots in the client's admission window until then.
        let notes = match o.batch {
            Some(b) => b.wait_all(OP_TIMEOUT).ok(),
            None => Some(Vec::new()),
        };
        let done = Instant::now();
        match notes {
            // With duplicates impossible (unique payloads), the
            // notifications line up with the members one to one.
            Some(notes) => {
                for ((k, retries), n) in o.members.iter().zip(&notes) {
                    let failure = match &n.status {
                        TxStatus::Committed => None,
                        TxStatus::Aborted(reason) => {
                            out.aborts += 1;
                            if reason.starts_with(RETRIABLE_PREFIX) && *retries < MAX_RETRIES {
                                retry.push((*k, retries + 1));
                                continue;
                            }
                            Some(format!("aborted: {reason}"))
                        }
                    };
                    completed += u64::from(failure.is_none());
                    out.results
                        .push(result(*k, false, done, failure.is_none(), *retries));
                    if out.first_failure.is_none() {
                        out.first_failure = failure;
                    }
                }
            }
            None => {
                out.first_failure
                    .get_or_insert_with(|| "batch timed out".to_string());
                for (k, retries) in &o.members {
                    out.results.push(result(*k, false, done, false, *retries));
                }
            }
        }
        out.batch_events.push((secs(epoch, done), completed));
        if let Some(next) = submit_next(&mut out, &mut retry) {
            outstanding.push_back(next);
        }
    }
    out
}
