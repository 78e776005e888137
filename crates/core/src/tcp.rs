//! The TCP link of [`Connection`], the node's client-plane TCP server,
//! and the peer-plane frame codec.
//!
//! A TCP client is the same [`Connection`] the simulated deployment
//! uses — same sequence counter, pending-RPC map, notification demux,
//! timeout and poison-on-loss (see [`crate::transport`]) — over a link
//! that writes each [`ClientFrame`] as a length-prefixed canonical-codec
//! frame ([`bcrdb_network::wire`]) to a real socket. The sockets are run
//! by the shared toolkit ([`bcrdb_network::tcp`]); this module says what
//! a client-plane frame means:
//!
//! * **client side** ([`Connection::tcp`]): callers serialize their
//!   writes on a lock; one reader thread decodes frames and feeds them
//!   into the connection's demux;
//! * **server side** (`serve_client_connection`): each accepted
//!   connection's thread runs the shared per-connection backend
//!   (`transport::serve_connection`: a worker owning a
//!   [`Frontend`](bcrdb_node::Frontend) plus a notification pump).
//!
//! Failure semantics differ from the simulated network in one honest
//! way: sockets fail. A torn, oversized or malformed frame closes the
//! connection (`Error::Io`/`Error::Decode`/`Error::Codec` — never a
//! panic, never a hung worker), in-flight RPCs on a dead connection
//! fail with `Error::Io` immediately, and dropping the client end
//! closes the socket, which drops the server's `Frontend` and thereby
//! cancels every notification registration of that connection — the
//! same leak-freedom guarantee the simulated link's `Disconnect` gives.

use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use bcrdb_common::codec::{Decode, Decoder, Encode, Encoder};
use bcrdb_common::error::{Error, Result};
use bcrdb_network::tcp::{next_frame, read_frames, WRITE_TIMEOUT};
use bcrdb_network::wire::{write_frame, MAX_CLIENT_FRAME};
use bcrdb_node::wire::ClientFrame;
use bcrdb_node::Node;
use parking_lot::Mutex;

use crate::network::PeerMsg;
use crate::transport::{serve_connection, Connection, Link, Mux};

// ------------------------------------------------------- the TCP link

/// A socket's writer half; either end of a connection sends through
/// one.
struct TcpLink {
    writer: Mutex<TcpStream>,
}

impl Link for TcpLink {
    /// Concurrent senders serialize on the lock, and `write_frame` emits
    /// header and payload as one write.
    fn send(&self, frame: ClientFrame) -> Result<()> {
        let bytes = frame.encode_to_vec();
        write_frame(&mut *self.writer.lock(), &bytes, MAX_CLIENT_FRAME)
    }

    fn close(&self) {
        // Closing the socket is the disconnect message: the server's
        // worker sees EOF and drops its Frontend, which cancels every
        // hub registration of this connection.
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }
}

// ------------------------------------------------------- client side

impl Connection {
    /// Connect to a node's client-plane listener over TCP and spawn the
    /// reader that feeds decoded frames into the connection's demux.
    pub fn tcp<A: ToSocketAddrs + std::fmt::Display>(addr: A) -> Result<Connection> {
        let server = addr.to_string();
        let stream = TcpStream::connect(&addr).map_err(|e| Error::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let mut reader = stream.try_clone().map_err(|e| Error::Io(e.to_string()))?;
        let mux = Mux::new();
        {
            let mux = Arc::clone(&mux);
            thread::Builder::new()
                .name(format!("tcp-client-reader:{server}"))
                .spawn(move || {
                    let deliver = |payload: Vec<u8>| {
                        ClientFrame::decode_all(&payload).and_then(|f| mux.deliver(f))
                    };
                    // Blocking reads, no stop flag: `TcpLink::close`
                    // shuts the socket down, which unblocks us with EOF.
                    let why = match read_frames(&mut reader, MAX_CLIENT_FRAME, || false, deliver) {
                        Ok(()) => "server closed the connection".into(),
                        Err(e) => e.to_string(),
                    };
                    mux.poison(&why);
                })
                .map_err(|e| Error::Io(e.to_string()))?;
        }
        let link = TcpLink {
            writer: Mutex::new(stream),
        };
        Ok(Connection::open(link, mux, server))
    }
}

// ------------------------------------------------------- server side

/// Serve `node`'s RPC frontend on one accepted socket until `stop` is
/// set: the socket's reader is the request stream of the shared
/// per-connection backend, its writer half the backend's link (requests
/// are handled serially *within* a connection, concurrently *across*
/// connections). Any malformed frame, socket error, or EOF ends the
/// connection; the backend then drops its `Frontend`, which cancels the
/// connection's hub registrations.
pub(crate) fn serve_client_connection(node: Arc<Node>, stream: TcpStream, stop: &AtomicBool) {
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    // The stream ends — and with it the connection — on EOF, a socket
    // error, the stop flag, or any frame that is not a well-formed
    // request: after garbage the stream can no longer be trusted.
    let requests = std::iter::from_fn(move || {
        let stopped = || stop.load(Ordering::Relaxed);
        let payload = next_frame(&mut reader, MAX_CLIENT_FRAME, stopped).ok()??;
        match ClientFrame::decode_all(&payload) {
            Ok(ClientFrame::Request { seq, req }) => Some((seq, req)),
            Ok(_) | Err(_) => None,
        }
    });
    let link = Arc::new(TcpLink {
        writer: Mutex::new(stream),
    });
    serve_connection(node, requests, link.clone());
    link.close();
}

// ------------------------------------------------------- peer frames

/// One message on a peer↔peer TCP link: a [`PeerMsg`] or the one-time
/// `Hello` identifying the dialing organization.
#[derive(Clone)]
pub enum PeerFrame {
    /// First frame on an outbound link: who is dialing.
    Hello {
        /// The dialing node's organization.
        org: String,
    },
    /// Any peer-plane message (forwarded transactions, blocks,
    /// catch-up requests and responses).
    Msg(PeerMsg),
}

/// Tag for [`PeerFrame::Hello`], outside the [`PeerMsg`] tag space.
const PEER_HELLO_TAG: u8 = 0xFF;

impl Encode for PeerFrame {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PeerFrame::Hello { org } => {
                enc.put_u8(PEER_HELLO_TAG);
                enc.put_str(org);
            }
            PeerFrame::Msg(m) => m.encode(enc),
        }
    }
}

impl Decode for PeerFrame {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let tag = dec.get_u8()?;
        if tag == PEER_HELLO_TAG {
            return Ok(PeerFrame::Hello {
                org: dec.get_str()?,
            });
        }
        decode_peer_msg_body(tag, dec).map(PeerFrame::Msg)
    }
}

impl Encode for PeerMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PeerMsg::Tx(tx) => {
                enc.put_u8(0);
                tx.encode(enc);
            }
            PeerMsg::Block(b) => {
                enc.put_u8(1);
                b.encode(enc);
            }
            PeerMsg::SyncRequest { seq, req } => {
                enc.put_u8(2);
                enc.put_u64(*seq);
                req.encode(enc);
            }
            PeerMsg::SyncResponse { seq, resp } => {
                enc.put_u8(3);
                enc.put_u64(*seq);
                resp.encode(enc);
            }
        }
    }
}

impl Decode for PeerMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let tag = dec.get_u8()?;
        decode_peer_msg_body(tag, dec)
    }
}

fn decode_peer_msg_body(tag: u8, dec: &mut Decoder<'_>) -> Result<PeerMsg> {
    use bcrdb_chain::block::Block;
    use bcrdb_chain::sync::{SyncRequest, SyncResponse};
    use bcrdb_chain::tx::Transaction;
    match tag {
        0 => Ok(PeerMsg::Tx(Box::new(Transaction::decode(dec)?))),
        1 => Ok(PeerMsg::Block(Arc::new(Block::decode(dec)?))),
        2 => Ok(PeerMsg::SyncRequest {
            seq: dec.get_u64()?,
            req: SyncRequest::decode(dec)?,
        }),
        3 => Ok(PeerMsg::SyncResponse {
            seq: dec.get_u64()?,
            resp: Arc::new(SyncResponse::decode(dec)?),
        }),
        t => Err(Error::Codec(format!("unknown peer frame tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_chain::block::{genesis_prev_hash, Block};
    use bcrdb_chain::ledger::TxStatus;
    use bcrdb_chain::sync::{SyncRequest, SyncResponse};
    use bcrdb_chain::tx::{Payload, Transaction};
    use bcrdb_common::ids::GlobalTxId;
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{KeyPair, Scheme};
    use bcrdb_network::wire::{framed_len, MAX_PEER_FRAME};
    use bcrdb_node::{ClientRequest, ClientResponse, TxNotification};

    /// Sim charges what TCP writes: for every kind of message either
    /// link can carry, the bytes `write_frame` puts on a socket equal
    /// `framed_len` — the size every simulated send is charged.
    #[test]
    fn sim_charges_what_tcp_writes() {
        fn written(msg: &impl Encode, cap: u32) -> usize {
            let mut socket = Vec::new();
            write_frame(&mut socket, &msg.encode_to_vec(), cap).unwrap();
            socket.len()
        }
        let key = KeyPair::generate("org1/alice", b"alice", Scheme::Sim);
        let tx = Transaction::new_order_execute(
            "org1/alice",
            Payload::new("f", vec![Value::Int(1), Value::Text("x".into())]),
            1,
            &key,
        )
        .unwrap();
        let block = Block::build(1, genesis_prev_hash(), vec![tx.clone()], "solo", vec![]);

        let client_frames = [
            ClientFrame::Request {
                seq: 1,
                req: ClientRequest::Submit(Box::new(tx.clone())),
            },
            ClientFrame::Response {
                seq: 1,
                resp: Ok(ClientResponse::Height(7)),
            },
            ClientFrame::Response {
                seq: 2,
                resp: Err(Error::Busy("window full".into())),
            },
            ClientFrame::Notification(TxNotification {
                id: GlobalTxId([4; 32]),
                block: 9,
                status: TxStatus::Aborted("stale read".into()),
            }),
        ];
        for frame in &client_frames {
            assert_eq!(
                written(frame, MAX_CLIENT_FRAME),
                framed_len(frame),
                "{frame:?}"
            );
        }

        let peer_msgs = [
            PeerMsg::Tx(Box::new(tx)),
            PeerMsg::Block(Arc::new(block.clone())),
            PeerMsg::SyncRequest {
                seq: 3,
                req: SyncRequest {
                    from_height: 1,
                    max_blocks: 64,
                    allow_snapshot: false,
                },
            },
            PeerMsg::SyncResponse {
                seq: 3,
                resp: Arc::new(SyncResponse::Blocks {
                    blocks: vec![block],
                    tip: 1,
                }),
            },
            PeerMsg::SyncResponse {
                seq: 4,
                resp: Arc::new(SyncResponse::Snapshot {
                    height: 1,
                    state: vec![7u8; 5000],
                    tip: 1,
                }),
            },
        ];
        for msg in &peer_msgs {
            // The TCP peer plane wraps every message in a `PeerFrame`,
            // which adds no bytes of its own.
            let on_tcp = written(&PeerFrame::Msg(msg.clone()), MAX_PEER_FRAME);
            assert_eq!(on_tcp, framed_len(msg));
        }
    }

    #[test]
    fn peer_frames_roundtrip() {
        let hello = PeerFrame::Hello { org: "org2".into() };
        match PeerFrame::decode_all(&hello.encode_to_vec()).unwrap() {
            PeerFrame::Hello { org } => assert_eq!(org, "org2"),
            _ => panic!("expected Hello"),
        }
        let req = PeerFrame::Msg(PeerMsg::SyncRequest {
            seq: 42,
            req: SyncRequest {
                from_height: 3,
                max_blocks: 10,
                allow_snapshot: true,
            },
        });
        match PeerFrame::decode_all(&req.encode_to_vec()).unwrap() {
            PeerFrame::Msg(PeerMsg::SyncRequest { seq: 42, req }) => {
                assert_eq!(req.from_height, 3);
                assert_eq!(req.max_blocks, 10);
                assert!(req.allow_snapshot);
            }
            _ => panic!("expected SyncRequest"),
        }
    }

    #[test]
    fn corrupt_peer_frames_are_codec_errors() {
        assert!(matches!(
            PeerFrame::decode_all(&[42u8]),
            Err(Error::Codec(_))
        ));
        let good = PeerFrame::Hello { org: "org1".into() }.encode_to_vec();
        for cut in 1..good.len() {
            assert!(PeerFrame::decode_all(&good[..cut]).is_err());
        }
    }
}
