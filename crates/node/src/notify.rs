//! Client notifications (§2(7) of the paper: "clients submit transactions
//! asynchronously and then leverage notification mechanisms to learn
//! whether their transaction was successfully committed" — the LISTEN /
//! NOTIFY analogue).

use std::collections::HashMap;

use bcrdb_chain::ledger::TxStatus;
use bcrdb_common::ids::{BlockHeight, GlobalTxId};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Notification delivered when a transaction reaches its final status.
#[derive(Clone, Debug, PartialEq)]
pub struct TxNotification {
    /// The transaction.
    pub id: GlobalTxId,
    /// Block that carried it.
    pub block: BlockHeight,
    /// Final status.
    pub status: TxStatus,
}

/// Fan-out hub: per-transaction waiters plus firehose subscribers.
#[derive(Default)]
pub struct NotificationHub {
    waiters: Mutex<HashMap<GlobalTxId, Vec<Sender<TxNotification>>>>,
    firehose: Mutex<Vec<Sender<TxNotification>>>,
}

impl NotificationHub {
    /// Fresh hub.
    pub fn new() -> NotificationHub {
        NotificationHub::default()
    }

    /// Register interest in one transaction. The channel holds exactly one
    /// notification.
    pub fn wait_for(&self, id: GlobalTxId) -> Receiver<TxNotification> {
        let (tx, rx) = bounded(1);
        self.register(id, tx);
        rx
    }

    /// Register a caller-supplied sender for `id` — what a submission
    /// through the RPC frontend does for each of its transactions
    /// ([`crate::frontend::Frontend::submit`]). A wire connection funnels
    /// every registration into the one channel whose sender it owns, so a
    /// disconnect can cancel all of them by identity
    /// ([`NotificationHub::cancel_sender`]).
    pub fn register(&self, id: GlobalTxId, tx: Sender<TxNotification>) {
        self.waiters.lock().entry(id).or_default().push(tx);
    }

    /// Subscribe to every notification.
    pub fn subscribe_all(&self) -> Receiver<TxNotification> {
        let (tx, rx) = unbounded();
        self.firehose.lock().push(tx);
        rx
    }

    /// Drop **one** registration for `id` sending into the same channel
    /// as `sender` (plus any whose receiver is gone). Exactly one,
    /// undoing one [`NotificationHub::register`]: a connection that
    /// registered the same id twice (a live wait plus a failed
    /// resubmission) keeps its remaining registration, and *other*
    /// connections waiting on the same transaction are never disturbed.
    pub fn cancel_for(&self, id: &GlobalTxId, sender: &Sender<TxNotification>) {
        let mut waiters = self.waiters.lock();
        if let Some(ws) = waiters.get_mut(id) {
            if let Some(i) = ws.iter().position(|s| s.same_channel(sender)) {
                ws.remove(i);
            }
            ws.retain(|s| !s.is_disconnected());
            if ws.is_empty() {
                waiters.remove(id);
            }
        }
    }

    /// Drop every registration sending into the same channel as `sender`
    /// — a client connection disconnected, so none of its waits can ever
    /// be delivered — and, in the same pass, every registration whose
    /// receiver is gone. O(pending waiters); runs once per disconnect.
    pub fn cancel_sender(&self, sender: &Sender<TxNotification>) {
        let mut waiters = self.waiters.lock();
        waiters.retain(|_, ws| {
            ws.retain(|s| !s.same_channel(sender) && !s.is_disconnected());
            !ws.is_empty()
        });
    }

    /// Publish a final status.
    pub fn notify(&self, n: TxNotification) {
        if let Some(waiters) = self.waiters.lock().remove(&n.id) {
            for w in waiters {
                let _ = w.send(n.clone());
            }
        }
        let mut firehose = self.firehose.lock();
        firehose.retain(|s| s.send(n.clone()).is_ok());
    }

    /// Number of distinct transactions with registered waiters.
    pub fn pending_waiters(&self) -> usize {
        self.waiters.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn id(n: u8) -> GlobalTxId {
        GlobalTxId([n; 32])
    }

    #[test]
    fn targeted_waiters_receive_once() {
        let hub = NotificationHub::new();
        let rx = hub.wait_for(id(1));
        let other = hub.wait_for(id(2));
        hub.notify(TxNotification {
            id: id(1),
            block: 3,
            status: TxStatus::Committed,
        });
        let n = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(n.block, 3);
        assert_eq!(n.status, TxStatus::Committed);
        assert!(other.recv_timeout(Duration::from_millis(20)).is_err());
        assert_eq!(hub.pending_waiters(), 1);
    }

    #[test]
    fn cancel_for_is_identity_scoped() {
        let hub = NotificationHub::new();
        let other = hub.wait_for(id(1));
        let (conn_tx, conn_rx) = crossbeam_channel::unbounded();
        hub.register(id(1), conn_tx.clone());
        hub.register(id(2), conn_tx.clone());
        assert_eq!(hub.pending_waiters(), 2);
        // Cancelling one id removes only this connection's registration.
        hub.cancel_for(&id(1), &conn_tx);
        hub.notify(TxNotification {
            id: id(1),
            block: 1,
            status: TxStatus::Committed,
        });
        assert!(other.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(conn_rx.try_recv().is_err(), "cancelled wait must not fire");
        // A disconnect sweeps the rest.
        hub.cancel_sender(&conn_tx);
        assert_eq!(hub.pending_waiters(), 0);
    }

    #[test]
    fn firehose_sees_everything() {
        let hub = NotificationHub::new();
        let all = hub.subscribe_all();
        hub.notify(TxNotification {
            id: id(1),
            block: 1,
            status: TxStatus::Committed,
        });
        hub.notify(TxNotification {
            id: id(2),
            block: 1,
            status: TxStatus::Aborted("ssi".into()),
        });
        assert_eq!(all.recv_timeout(Duration::from_secs(1)).unwrap().id, id(1));
        assert_eq!(all.recv_timeout(Duration::from_secs(1)).unwrap().id, id(2));
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let hub = NotificationHub::new();
        drop(hub.subscribe_all());
        hub.notify(TxNotification {
            id: id(1),
            block: 1,
            status: TxStatus::Committed,
        });
        // No panic; dead sender removed.
        hub.notify(TxNotification {
            id: id(2),
            block: 1,
            status: TxStatus::Committed,
        });
    }
}
