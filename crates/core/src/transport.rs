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
//!   [`Frontend`] on the caller's thread; a submission registers its own
//!   channel with the node's hub. Zero overhead; the default.
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

use bcrdb_chain::tx::Transaction;
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
/// statements — goes through this trait, so a backend swap changes
/// *where the node is*, never what the API means.
pub trait NodeTransport: Send + Sync {
    /// Round-trip one request to the node's frontend.
    fn call(&self, req: ClientRequest) -> Result<ClientResponse>;

    /// Submit `txs` in order, as one request, and register for their
    /// final statuses: the returned channel delivers one notification per
    /// transaction, in commit order. Each registration exists before the
    /// node sees its transaction, so no status can race past the caller.
    /// The first transaction the node refuses fails the whole call with
    /// that error — earlier members stay in flight network-side, but the
    /// caller gets no channel and no registration is left behind for the
    /// refused member or the ones after it.
    ///
    /// A registration lives at most as long as the connection: dropping
    /// the transport cancels undeliverable waits (the session layer's
    /// `PendingTx`/`PendingBatch` hold the transport alive until their
    /// notification can no longer be consumed).
    fn submit(&self, txs: Vec<Transaction>) -> Result<Receiver<TxNotification>>;
}

// ------------------------------------------------------------ in-process

/// Zero-overhead backend: requests dispatch into the node's [`Frontend`]
/// on the caller's thread, and each submission registers a channel of
/// its own directly with the node's notification hub.
pub struct InProcess {
    frontend: Frontend,
    /// The channels of this connection's submissions, so dropping the
    /// transport can cancel what is still registered on them (pruned
    /// lazily as their receivers go away).
    waits: Mutex<Vec<Sender<TxNotification>>>,
}

impl InProcess {
    /// Connect directly to `node`.
    pub fn new(node: Arc<Node>) -> InProcess {
        // The per-connection notification stream is unused here: each
        // submission gets its own channel (no demultiplexing step).
        let (frontend, _notify_rx) = Frontend::new(node);
        InProcess {
            frontend,
            waits: Mutex::new(Vec::new()),
        }
    }
}

impl NodeTransport for InProcess {
    fn call(&self, req: ClientRequest) -> Result<ClientResponse> {
        self.frontend.handle(req)
    }

    fn submit(&self, txs: Vec<Transaction>) -> Result<Receiver<TxNotification>> {
        let (sink, rx) = bounded(txs.len());
        self.frontend.submit(txs, &sink)?;
        let mut waits = self.waits.lock();
        waits.retain(|s| !s.is_disconnected());
        waits.push(sink);
        Ok(rx)
    }
}

impl Drop for InProcess {
    fn drop(&mut self) {
        // Channels whose receiver is gone are swept when the frontend
        // disconnects; only one still listened to needs cancelling here.
        let hub = self.frontend.node().notifications();
        for sink in self.waits.lock().drain(..) {
            if !sink.is_disconnected() {
                hub.cancel_sender(&sink);
            }
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

    /// Route the notifications of `ids` into `sink` as well.
    fn expect(&self, ids: &[GlobalTxId], sink: &Sender<TxNotification>) {
        let mut waits = self.waits.lock();
        for id in ids {
            waits.entry(*id).or_default().push(sink.clone());
        }
    }

    /// Undo [`Mux::expect`]: only `sink`'s entries go, so another
    /// submission of the same id keeps hearing about it.
    fn forget(&self, ids: &[GlobalTxId], sink: &Sender<TxNotification>) {
        let mut waits = self.waits.lock();
        for id in ids {
            if let Some(ws) = waits.get_mut(id) {
                ws.retain(|s| !s.same_channel(sink));
                if ws.is_empty() {
                    waits.remove(id);
                }
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

    fn submit(&self, mut txs: Vec<Transaction>) -> Result<Receiver<TxNotification>> {
        let (sink, rx) = bounded(txs.len());
        let ids: Vec<GlobalTxId> = txs.iter().map(|t| t.id).collect();
        // The local demux entries exist before the frame leaves: once the
        // node has it, a notification may be racing the ack back.
        self.mux.expect(&ids, &sink);
        let req = match txs.len() {
            1 => ClientRequest::Submit(Box::new(txs.remove(0))),
            _ => ClientRequest::SubmitBatch(txs),
        };
        let refused = match self.call(req) {
            Ok(ClientResponse::Ack) => return Ok(rx),
            Ok(other) => Error::internal(format!("expected Ack, got {other:?}")),
            Err(e) => e,
        };
        self.mux.forget(&ids, &sink);
        Err(refused)
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
    use bcrdb_chain::tx::Payload;
    use bcrdb_common::error::AbortReason;
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{KeyPair, Scheme};
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

    fn signed(nonce: u64) -> Transaction {
        let key = KeyPair::generate("org1/alice", b"alice", Scheme::Sim);
        let payload = Payload::new("put", vec![Value::Int(nonce as i64)]);
        Transaction::new_order_execute("org1/alice", payload, nonce, &key).unwrap()
    }

    #[test]
    fn one_notification_fans_out_to_every_submission_of_its_id() {
        let (conn, mux, sent) = connect();
        let seen = ack_everything(&mux, sent);
        let (tx, other) = (signed(7), signed(8));
        let (id, other_id) = (tx.id, other.id);
        let a = conn.submit(vec![tx.clone()]).unwrap();
        let b = conn.submit(vec![tx, other]).unwrap();
        // One request each — a batch of one travels as a plain `Submit` —
        // sent after its local entries existed, or the notification below
        // could have raced past them.
        assert!(matches!(seen.recv().unwrap(), ClientRequest::Submit(_)));
        assert!(matches!(
            seen.recv().unwrap(),
            ClientRequest::SubmitBatch(txs) if txs.len() == 2
        ));
        assert!(seen.try_recv().is_err());

        mux.deliver(ClientFrame::Notification(notification(id)))
            .unwrap();
        assert_eq!(a.try_recv().unwrap().id, id);
        assert_eq!(b.try_recv().unwrap().id, id);
        // Delivered once: the entries are gone, a repeat reaches nobody.
        mux.deliver(ClientFrame::Notification(notification(id)))
            .unwrap();
        assert!(a.try_recv().is_err() && b.try_recv().is_err());
        mux.deliver(ClientFrame::Notification(notification(other_id)))
            .unwrap();
        assert_eq!(b.try_recv().unwrap().id, other_id);
    }

    #[test]
    fn a_refused_submission_drops_only_its_own_entries() {
        let (conn, mux, sent) = connect();
        // A node that takes the first submission and refuses the rest.
        {
            let mux = Arc::clone(&mux);
            thread::spawn(move || {
                for (n, frame) in sent.iter().enumerate() {
                    let ClientFrame::Request { seq, .. } = frame else {
                        panic!("a client sends only requests");
                    };
                    let resp = match n {
                        0 => Ok(ClientResponse::Ack),
                        _ => Err(Error::Abort(AbortReason::DuplicateTxId)),
                    };
                    mux.deliver(ClientFrame::Response { seq, resp }).unwrap();
                }
            });
        }
        let tx = signed(5);
        let id = tx.id;
        let live = conn.submit(vec![tx.clone()]).unwrap();
        let refused = conn.submit(vec![tx, signed(6)]).err();
        assert!(matches!(
            refused,
            Some(Error::Abort(AbortReason::DuplicateTxId))
        ));
        // The refused batch left nothing behind; the live submission of
        // the same id kept its entry and still hears the outcome.
        assert_eq!(mux.waits.lock().len(), 1);
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
        // Nor a submission, which leaves no local entry behind.
        let t0 = Instant::now();
        let refused = conn.submit(vec![signed(1), signed(2)]).err();
        assert!(matches!(refused, Some(Error::Io(_))), "{refused:?}");
        assert!(t0.elapsed() < RPC_TIMEOUT / 10);
        assert!(sent.try_recv().is_err());
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
