//! The wire-level client/node boundary: [`NodeTransport`] and its two
//! implementations.
//!
//! The paper's clients reach their database node over PostgreSQL's wire
//! protocol plus a libpq snapshot extension (§4.3) — a *network hop*
//! whose latency is part of every client-observed number in Fig. 8a.
//! This module reifies that hop: the whole session API speaks
//! [`ClientRequest`]/[`ClientResponse`] through a [`NodeTransport`], and
//! the implementation decides what the hop costs:
//!
//! * [`InProcess`] — requests dispatch straight into the node's
//!   [`Frontend`] on the caller's thread; notification waits register
//!   directly with the node's hub. Zero overhead; the default.
//! * [`Connection`] — one multiplexed wire connection: every request,
//!   response and streamed notification is a [`ClientFrame`]. It is
//!   parametrised only by its link — how one frame is sent and how the
//!   link is closed. The *simulated link* ([`TransportKind::Simulated`])
//!   carries the frame over the same [`SimNetwork`] latency/bandwidth
//!   model that peer and orderer traffic pay, charged [`framed_len`] —
//!   exactly the bytes the *TCP link* ([`Connection::tcp`]) writes to
//!   its socket — so `NetProfile::wan()` applies to client traffic too.
//!
//! Dropping either transport cancels every outstanding notification
//! registration (closing a link makes the server drop the connection's
//! `Frontend`), so an abandoned client cannot leak waiters in the node's
//! notification hub.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::GlobalTxId;
use bcrdb_network::wire::{framed_len, FRAME_HEADER};
use bcrdb_network::SimNetwork;
use bcrdb_node::wire::ClientFrame;
use bcrdb_node::{ClientRequest, ClientResponse, Frontend, Node, TxNotification};
use crossbeam_channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

/// Which transport backend [`crate::Network::client`] hands out (see
/// `NetworkConfig::client_transport`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Direct in-process dispatch (zero overhead).
    InProcess,
    /// Client traffic travels the simulated network (a [`Connection`]
    /// over the simulated link).
    Simulated,
}

/// The transport boundary between a client session and its home node.
///
/// Everything the session API does — submissions, queries, prepared
/// statements, notification waits — goes through this trait, so a
/// backend swap changes *where the node is*, never what the API means.
pub trait NodeTransport: Send + Sync {
    /// Round-trip one request to the node's frontend.
    fn call(&self, req: ClientRequest) -> Result<ClientResponse>;

    /// Register for the final status of `id`. The returned channel
    /// delivers at most one notification; registration is complete when
    /// this returns, so a submission sent afterwards cannot race it.
    ///
    /// A registration lives at most as long as the connection: dropping
    /// the transport cancels undeliverable waits (the session layer's
    /// `PendingTx`/`PendingBatch` hold the transport alive until their
    /// notification can no longer be consumed).
    fn wait_for(&self, id: GlobalTxId) -> Result<Receiver<TxNotification>>;

    /// Register one fanned-in channel for a whole batch (one
    /// registration round trip instead of one per transaction).
    fn wait_for_batch(&self, ids: &[GlobalTxId]) -> Result<Receiver<TxNotification>>;

    /// Drop this connection's registration for `id` (after a failed
    /// submission abandoned the wait).
    fn cancel_wait(&self, id: &GlobalTxId) -> Result<()>;
}

// ------------------------------------------------------------ in-process

/// Zero-overhead backend: requests dispatch into the node's [`Frontend`]
/// on the caller's thread, and waits register per-transaction channels
/// directly with the node's notification hub.
pub struct InProcess {
    frontend: Frontend,
    /// This connection's live hub registrations, so dropping the
    /// transport can cancel them (pruned lazily as waits resolve).
    waits: Mutex<Vec<(GlobalTxId, Sender<TxNotification>)>>,
}

impl InProcess {
    /// Connect directly to `node`.
    pub fn new(node: Arc<Node>) -> InProcess {
        // The per-connection notification stream is unused here: each
        // wait gets its own channel (today's zero-copy fast path).
        let (frontend, _notify_rx) = Frontend::new(node);
        InProcess {
            frontend,
            waits: Mutex::new(Vec::new()),
        }
    }

    fn track(&self, regs: Vec<(GlobalTxId, Sender<TxNotification>)>) {
        let mut waits = self.waits.lock();
        waits.retain(|(_, s)| !s.is_disconnected());
        waits.extend(regs);
    }
}

impl NodeTransport for InProcess {
    fn call(&self, req: ClientRequest) -> Result<ClientResponse> {
        // Wait registrations through the raw request enum would deliver
        // into the frontend's (unconsumed) connection stream and silently
        // vanish — reject them so callers use the trait's channel-returning
        // wait methods instead.
        if matches!(
            req,
            ClientRequest::WaitFor { .. }
                | ClientRequest::WaitForBatch { .. }
                | ClientRequest::CancelWait { .. }
        ) {
            return Err(Error::Config(
                "the in-process transport dispatches waits through \
                 NodeTransport::{wait_for, wait_for_batch, cancel_wait}, \
                 not raw WaitFor/CancelWait requests"
                    .into(),
            ));
        }
        self.frontend.handle(req)
    }

    fn wait_for(&self, id: GlobalTxId) -> Result<Receiver<TxNotification>> {
        let (tx, rx) = bounded(1);
        self.frontend
            .node()
            .notifications()
            .register(id, tx.clone());
        self.track(vec![(id, tx)]);
        Ok(rx)
    }

    fn wait_for_batch(&self, ids: &[GlobalTxId]) -> Result<Receiver<TxNotification>> {
        let (tx, rx) = bounded(ids.len());
        let hub = self.frontend.node().notifications();
        let mut regs = Vec::with_capacity(ids.len());
        for id in ids {
            hub.register(*id, tx.clone());
            regs.push((*id, tx.clone()));
        }
        self.track(regs);
        Ok(rx)
    }

    fn cancel_wait(&self, id: &GlobalTxId) -> Result<()> {
        // Cancel only *abandoned* registrations (receiver dropped): a
        // live PendingTx waiting on the same id — e.g. while a duplicate
        // resubmission fails — must keep its registration.
        let hub = self.frontend.node().notifications();
        let mut waits = self.waits.lock();
        for (wid, s) in waits.iter() {
            if wid == id && s.is_disconnected() {
                hub.cancel_for(id, s);
            }
        }
        waits.retain(|(wid, s)| wid != id || !s.is_disconnected());
        Ok(())
    }
}

impl Drop for InProcess {
    fn drop(&mut self) {
        let hub = self.frontend.node().notifications();
        for (id, s) in self.waits.lock().drain(..) {
            hub.cancel_for(&id, &s);
        }
    }
}

// ------------------------------------------------------ wire connection

/// How long an RPC waits for its response before reporting
/// [`Error::Timeout`]. Generous: request round trips are bounded by the
/// network, not by transaction commit times.
const RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// How a [`Connection`]'s frames reach its node — the one thing that
/// differs between the simulated network and a socket.
pub(crate) trait Link: Send + Sync {
    /// Put one frame on the wire.
    fn send(&self, frame: ClientFrame) -> Result<()>;

    /// Close the link so the node learns the client is gone, drops the
    /// connection's [`Frontend`] and with it every hub registration.
    fn close(&self);
}

/// The demultiplexer of one connection, shared by its callers and the
/// link's reader: responses route to the waiting call by `seq`,
/// notifications fan out to every wait registered on their transaction.
pub(crate) struct Mux {
    /// In-flight RPCs by sequence number; `None` once the connection is
    /// dead. Death takes the map away under the same lock that registers
    /// a call — so no call can slip in between a liveness check and the
    /// drain and wait out [`RPC_TIMEOUT`] for an answer nobody is left to
    /// give.
    rpc: Mutex<Option<HashMap<u64, Sender<Result<ClientResponse>>>>>,
    waits: Mutex<HashMap<GlobalTxId, Vec<Sender<TxNotification>>>>,
}

impl Mux {
    pub(crate) fn new() -> Arc<Mux> {
        Arc::new(Mux {
            rpc: Mutex::new(Some(HashMap::new())),
            waits: Mutex::new(HashMap::new()),
        })
    }

    /// Route one frame the reader took off the link. An error means the
    /// node broke the protocol: the reader must stop and [`Mux::poison`].
    pub(crate) fn deliver(&self, frame: ClientFrame) -> Result<()> {
        match frame {
            ClientFrame::Response { seq, resp } => {
                if let Some(tx) = self.unregister(seq) {
                    let _ = tx.send(resp);
                }
            }
            ClientFrame::Notification(n) => {
                if let Some(ws) = self.waits.lock().remove(&n.id) {
                    for w in ws {
                        let _ = w.send(n.clone());
                    }
                }
            }
            ClientFrame::Request { .. } => {
                return Err(Error::Decode("request frame from the node".into()));
            }
        }
        Ok(())
    }

    /// The link is gone: fail every in-flight RPC immediately, refuse new
    /// ones, and drop all notification demux entries (their receivers
    /// observe a disconnect instead of hanging).
    pub(crate) fn poison(&self, why: &str) {
        let calls = self.rpc.lock().take();
        for (_, tx) in calls.into_iter().flatten() {
            let _ = tx.send(Err(Error::Io(format!("connection lost: {why}"))));
        }
        self.waits.lock().clear();
    }

    /// Register call `seq`, unless the connection is already dead.
    fn register(&self, seq: u64) -> Result<Receiver<Result<ClientResponse>>> {
        let (tx, rx) = bounded(1);
        match self.rpc.lock().as_mut() {
            Some(calls) => calls.insert(seq, tx),
            None => return Err(Error::Io("connection is closed".into())),
        };
        Ok(rx)
    }

    fn unregister(&self, seq: u64) -> Option<Sender<Result<ClientResponse>>> {
        self.rpc.lock().as_mut()?.remove(&seq)
    }

    /// Drop the local registrations on `id` that `keep` rejects.
    fn retain_waits(&self, id: &GlobalTxId, keep: impl Fn(&Sender<TxNotification>) -> bool) {
        let mut waits = self.waits.lock();
        if let Some(ws) = waits.get_mut(id) {
            ws.retain(|s| keep(s));
            if ws.is_empty() {
                waits.remove(id);
            }
        }
    }
}

/// One multiplexed wire connection to a node — over the simulated
/// network ([`TransportKind::Simulated`]) or a real socket
/// ([`Connection::tcp`]). Many RPCs may be in flight at once; each
/// caller blocks only on its own response.
pub struct Connection {
    link: Box<dyn Link>,
    mux: Arc<Mux>,
    seq: AtomicU64,
    /// The node's endpoint or address, for error messages.
    server: String,
}

impl Connection {
    /// Assemble a connection from its link and the demux that link's
    /// reader feeds.
    pub(crate) fn open(link: impl Link + 'static, mux: Arc<Mux>, server: String) -> Connection {
        Connection {
            link: Box::new(link),
            mux,
            seq: AtomicU64::new(1),
            server,
        }
    }

    /// Register `ids` on one fanned-in channel: locally first — once the
    /// server acknowledges `register`, a notification may already be
    /// racing back — then with the node.
    fn wait(
        &self,
        ids: &[GlobalTxId],
        register: ClientRequest,
    ) -> Result<Receiver<TxNotification>> {
        let (tx, rx) = bounded(ids.len());
        {
            let mut waits = self.mux.waits.lock();
            for id in ids {
                waits.entry(*id).or_default().push(tx.clone());
            }
        }
        if let Err(e) = self.call(register) {
            for id in ids {
                self.mux.retain_waits(id, |s| !s.same_channel(&tx));
            }
            return Err(e);
        }
        Ok(rx)
    }
}

impl NodeTransport for Connection {
    fn call(&self, req: ClientRequest) -> Result<ClientResponse> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let rx = self.mux.register(seq)?;
        if let Err(e) = self.link.send(ClientFrame::Request { seq, req }) {
            self.mux.unregister(seq);
            return Err(e);
        }
        // Our sender leaves the map only after it was sent to (by
        // `deliver` or `poison`), so the one way to get nothing is time.
        rx.recv_timeout(RPC_TIMEOUT).unwrap_or_else(|_| {
            self.mux.unregister(seq);
            Err(Error::Timeout(format!(
                "no RPC response from {} within {RPC_TIMEOUT:?}",
                self.server
            )))
        })
    }

    fn wait_for(&self, id: GlobalTxId) -> Result<Receiver<TxNotification>> {
        self.wait(&[id], ClientRequest::WaitFor { id })
    }

    fn wait_for_batch(&self, ids: &[GlobalTxId]) -> Result<Receiver<TxNotification>> {
        self.wait(ids, ClientRequest::WaitForBatch { ids: ids.to_vec() })
    }

    fn cancel_wait(&self, id: &GlobalTxId) -> Result<()> {
        // Drop only abandoned local registrations (receiver gone); a live
        // wait on the same id keeps both its demux entry and — because
        // the server removes exactly one registration per CancelWait —
        // its server-side registration.
        self.mux.retain_waits(id, |s| !s.is_disconnected());
        self.call(ClientRequest::CancelWait { id: *id }).map(|_| ())
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.link.close();
    }
}

// ------------------------------------------------------- simulated link

/// A message on the simulated client network: a [`ClientFrame`], or the
/// one signal a socket needs no message for.
// Transient per-RPC frames (same rationale as `ClientFrame` itself):
// boxing the frame would save no resident memory.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub(crate) enum SimClientMsg {
    /// Either direction: what a TCP link would write to its socket.
    Frame(ClientFrame),
    /// Client → node: the connection is going away; cancel its waits.
    /// (On TCP the socket close *is* this signal.)
    Disconnect,
}

// Endpoint name of a node's RPC frontend on the client network —
// defined once in `bcrdb_network::wire` so the simulated and TCP
// deployments can never disagree about addressing.
pub(crate) use bcrdb_network::wire::frontend_endpoint;

/// One direction of a simulated connection. Both ends send through
/// one; only the client's end is ever closed.
struct SimLink {
    net: Arc<SimNetwork<SimClientMsg>>,
    from: String,
    to: String,
}

impl Link for SimLink {
    /// Charged exactly the bytes `write_frame` would put on a socket.
    fn send(&self, frame: ClientFrame) -> Result<()> {
        let size = framed_len(&frame);
        self.net
            .send(&self.from, &self.to, SimClientMsg::Frame(frame), size)
    }

    fn close(&self) {
        // Best effort: tell the node so it cancels this connection's
        // waits; ignore failures (the network may already be down).
        let _ = self
            .net
            .send(&self.from, &self.to, SimClientMsg::Disconnect, FRAME_HEADER);
        self.net.unregister(&self.from);
    }
}

impl Connection {
    /// Open a connection over the simulated client network: registers
    /// `endpoint` and spawns the reader that feeds delivered frames into
    /// the demux.
    pub(crate) fn simulated(
        net: Arc<SimNetwork<SimClientMsg>>,
        server: String,
        endpoint: String,
    ) -> Connection {
        let rx = net.register(endpoint.clone());
        let mux = Mux::new();
        {
            let mux = Arc::clone(&mux);
            std::thread::Builder::new()
                .name(format!("{endpoint}-reader"))
                .spawn(move || {
                    // Runs until the node breaks the protocol or
                    // `SimLink::close` unregisters the endpoint.
                    let broke = rx.iter().find_map(|d| match d.msg {
                        SimClientMsg::Frame(frame) => mux.deliver(frame).err(),
                        SimClientMsg::Disconnect => None,
                    });
                    mux.poison(&broke.map_or("endpoint unregistered".into(), |e| e.to_string()));
                })
                .expect("spawn transport reader");
        }
        let link = SimLink {
            net,
            from: endpoint,
            to: server.clone(),
        };
        Connection::open(link, mux, server)
    }
}

// --------------------------------------------------------- server side

/// One connection's server-side backend, on either link — the
/// equivalent of PostgreSQL's backend-per-connection model. The calling
/// thread is the worker: it owns a fresh [`Frontend`] and answers
/// `requests` in order over `link` (so a slow request never
/// head-of-line-blocks *another* connection, and per-connection FIFO
/// holds); a pump thread streams the connection's notifications over
/// the same link. Returns when `requests` ends or a send fails. Every
/// exit path drops the `Frontend`, which cancels the connection's hub
/// registrations and thereby ends the pump's stream.
pub(crate) fn serve_connection(
    node: Arc<Node>,
    requests: impl Iterator<Item = (u64, ClientRequest)>,
    link: Arc<dyn Link>,
) {
    let (frontend, notify_rx) = Frontend::new(node);
    let pump = {
        let link = Arc::clone(&link);
        std::thread::Builder::new()
            .name("client-notify-pump".into())
            .spawn(move || {
                for n in notify_rx.iter() {
                    if link.send(ClientFrame::Notification(n)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn notification pump")
    };
    for (seq, req) in requests {
        let resp = frontend.handle(req);
        if link.send(ClientFrame::Response { seq, resp }).is_err() {
            break;
        }
    }
    drop(frontend);
    let _ = pump.join();
}

/// Serve a node's RPC frontend on the simulated client network. One
/// dispatcher thread per node routes request frames to per-connection
/// queues; each queue is drained by its own [`serve_connection`] thread.
/// The dispatcher runs until `endpoint` is unregistered (or the network
/// shuts down) and joins its connections' backends before it ends, so
/// joining the returned handle waits for all of them.
pub(crate) fn serve_frontend(
    node: Arc<Node>,
    net: Arc<SimNetwork<SimClientMsg>>,
    endpoint: String,
) -> JoinHandle<()> {
    let rx = net.register(endpoint.clone());
    std::thread::Builder::new()
        .name(format!("{endpoint}-dispatch"))
        .spawn(move || {
            // Dropping a connection's sender ends its request stream and
            // with it the backend.
            let mut conns: HashMap<String, Sender<(u64, ClientRequest)>> = HashMap::new();
            let mut backends: Vec<JoinHandle<()>> = Vec::new();
            for d in rx.iter() {
                match d.msg {
                    SimClientMsg::Frame(ClientFrame::Request { seq, req }) => {
                        let conn = conns.entry(d.from.clone()).or_insert_with(|| {
                            backends.retain(|b| !b.is_finished());
                            let (queue, backend) = open_conn(&node, &net, &endpoint, &d.from);
                            backends.push(backend);
                            queue
                        });
                        let _ = conn.send((seq, req));
                    }
                    // The client said goodbye — or sent a frame only a
                    // node may send, which on TCP closes the socket too.
                    SimClientMsg::Disconnect | SimClientMsg::Frame(_) => {
                        conns.remove(&d.from);
                    }
                }
            }
            drop(conns);
            for backend in backends {
                let _ = backend.join();
            }
        })
        .expect("spawn frontend dispatcher")
}

/// Spawn the backend of one simulated connection and return its request
/// queue and thread.
fn open_conn(
    node: &Arc<Node>,
    net: &Arc<SimNetwork<SimClientMsg>>,
    server: &str,
    client: &str,
) -> (Sender<(u64, ClientRequest)>, JoinHandle<()>) {
    let (req_tx, req_rx) = crossbeam_channel::unbounded::<(u64, ClientRequest)>();
    let node = Arc::clone(node);
    let link = Arc::new(SimLink {
        net: Arc::clone(net),
        from: server.to_string(),
        to: client.to_string(),
    });
    let backend = std::thread::Builder::new()
        .name(format!("{client}-backend"))
        .spawn(move || serve_connection(node, req_rx.into_iter(), link))
        .expect("spawn connection backend");
    (req_tx, backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_chain::ledger::TxStatus;
    use std::thread;
    use std::time::Instant;

    /// In-memory link: sent frames land on a channel where the test
    /// plays the node, answering through [`Mux::deliver`].
    struct TestLink(Sender<ClientFrame>);

    impl Link for TestLink {
        fn send(&self, frame: ClientFrame) -> Result<()> {
            self.0
                .send(frame)
                .map_err(|_| Error::Io("test node hung up".into()))
        }
        fn close(&self) {}
    }

    fn connect() -> (Arc<Connection>, Arc<Mux>, Receiver<ClientFrame>) {
        let (sent_tx, sent_rx) = crossbeam_channel::unbounded();
        let mux = Mux::new();
        let conn = Connection::open(TestLink(sent_tx), Arc::clone(&mux), "test-node".into());
        (Arc::new(conn), mux, sent_rx)
    }

    /// A node that acknowledges every request, reporting each to `seen`.
    fn ack_everything(mux: &Arc<Mux>, sent: Receiver<ClientFrame>) -> Receiver<ClientRequest> {
        let (seen_tx, seen_rx) = crossbeam_channel::unbounded();
        let mux = Arc::clone(mux);
        thread::spawn(move || {
            for frame in sent.iter() {
                let ClientFrame::Request { seq, req } = frame else {
                    panic!("a client sends only requests");
                };
                let _ = seen_tx.send(req);
                let resp = Ok(ClientResponse::Ack);
                mux.deliver(ClientFrame::Response { seq, resp }).unwrap();
            }
        });
        seen_rx
    }

    fn notification(id: GlobalTxId) -> TxNotification {
        TxNotification {
            id,
            block: 3,
            status: TxStatus::Committed,
        }
    }

    #[test]
    fn responses_are_demultiplexed_by_seq() {
        let (conn, mux, sent) = connect();
        let [height, metrics] = [ClientRequest::ChainHeight, ClientRequest::Metrics].map(|req| {
            let conn = Arc::clone(&conn);
            thread::spawn(move || conn.call(req))
        });
        // Both calls are in flight before either is answered; answer the
        // later one first, each according to what it asked.
        let in_flight = [sent.recv().unwrap(), sent.recv().unwrap()];
        for frame in in_flight.into_iter().rev() {
            let ClientFrame::Request { seq, req } = frame else {
                panic!("a client sends only requests");
            };
            let resp = Ok(match req {
                ClientRequest::ChainHeight => ClientResponse::Height(7),
                _ => ClientResponse::Ack,
            });
            mux.deliver(ClientFrame::Response { seq, resp }).unwrap();
        }
        assert!(matches!(
            height.join().unwrap(),
            Ok(ClientResponse::Height(7))
        ));
        assert!(matches!(metrics.join().unwrap(), Ok(ClientResponse::Ack)));
        // A response nobody waits for is dropped; a *request* from the
        // node is a protocol violation.
        let resp = Ok(ClientResponse::Ack);
        mux.deliver(ClientFrame::Response { seq: 99, resp })
            .unwrap();
        let req = ClientRequest::ChainHeight;
        let violation = mux.deliver(ClientFrame::Request { seq: 1, req });
        assert!(matches!(violation, Err(Error::Decode(_))));
    }

    #[test]
    fn one_notification_fans_out_to_every_waiter_on_its_id() {
        let (conn, mux, sent) = connect();
        let seen = ack_everything(&mux, sent);
        let id = GlobalTxId([7; 32]);
        let other = GlobalTxId([8; 32]);
        let a = conn.wait_for(id).unwrap();
        let b = conn.wait_for_batch(&[id, other]).unwrap();
        // Each wait registered with the node — after its local entry
        // existed, or the notification below could have raced past it.
        assert!(matches!(
            seen.recv().unwrap(),
            ClientRequest::WaitFor { .. }
        ));
        assert!(matches!(
            seen.recv().unwrap(),
            ClientRequest::WaitForBatch { .. }
        ));

        mux.deliver(ClientFrame::Notification(notification(id)))
            .unwrap();
        assert_eq!(a.try_recv().unwrap().id, id);
        assert_eq!(b.try_recv().unwrap().id, id);
        // Delivered once: the entries are gone, a repeat reaches nobody.
        mux.deliver(ClientFrame::Notification(notification(id)))
            .unwrap();
        assert!(a.try_recv().is_err() && b.try_recv().is_err());
        mux.deliver(ClientFrame::Notification(notification(other)))
            .unwrap();
        assert_eq!(b.try_recv().unwrap().id, other);
    }

    #[test]
    fn cancel_wait_drops_only_abandoned_registrations() {
        let (conn, mux, sent) = connect();
        let seen = ack_everything(&mux, sent);
        let id = GlobalTxId([5; 32]);
        let live = conn.wait_for(id).unwrap();
        drop(conn.wait_for(id).unwrap());
        conn.cancel_wait(&id).unwrap();
        // The node is asked to cancel exactly one registration …
        let asked: Vec<ClientRequest> = std::iter::from_fn(|| seen.try_recv().ok()).collect();
        assert_eq!(asked.len(), 3, "{asked:?}");
        assert!(matches!(asked[2], ClientRequest::CancelWait { .. }));
        // … and the live wait kept its demux entry.
        assert_eq!(mux.waits.lock()[&id].len(), 1);
        mux.deliver(ClientFrame::Notification(notification(id)))
            .unwrap();
        assert_eq!(live.try_recv().unwrap().id, id);
    }

    #[test]
    fn a_poisoned_connection_refuses_calls_at_once() {
        let (conn, mux, sent) = connect();
        mux.poison("reader died");
        assert!(matches!(mux.register(1), Err(Error::Io(_))));
        let t0 = Instant::now();
        let err = conn.call(ClientRequest::ChainHeight).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert!(
            t0.elapsed() < RPC_TIMEOUT / 10,
            "must not wait out the RPC timeout"
        );
        assert!(sent.try_recv().is_err(), "nothing may reach the wire");
        // A failed wait leaves no local registration behind.
        let id = GlobalTxId([1; 32]);
        assert!(matches!(conn.wait_for(id), Err(Error::Io(_))));
        assert!(mux.waits.lock().is_empty());
    }

    #[test]
    fn calls_in_flight_at_poison_time_fail_with_io_not_timeout() {
        let (conn, mux, sent) = connect();
        let caller = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || conn.call(ClientRequest::ChainHeight))
        };
        // Once its request is on the wire the call is registered.
        sent.recv().unwrap();
        let t0 = Instant::now();
        mux.poison("socket reset");
        let err = caller.join().unwrap().unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert!(t0.elapsed() < RPC_TIMEOUT / 10);
        assert!(mux.rpc.lock().is_none());
    }
}
