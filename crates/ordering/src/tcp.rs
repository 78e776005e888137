//! TCP front door of the ordering service.
//!
//! One listener per orderer replica, run by the shared socket toolkit
//! ([`bcrdb_network::tcp`]); this module says what an orderer-plane
//! frame means. A database node dials its replica's listener,
//! identifies itself with [`OrdererWire::Hello`] (within 5 s), and from
//! then on the connection is full duplex: the node streams
//! [`OrdererWire::Submit`]/[`OrdererWire::Vote`] frames up, and a
//! pusher thread streams every block delivered by
//! [`OrderingService::subscribe_to`] back down — the same per-node
//! subscription the in-process deployment uses, so a reconnecting node
//! simply resubscribes and heals any missed blocks through its normal
//! gap/catch-up machinery.
//!
//! Failure semantics: any malformed, oversized, or torn frame closes
//! the connection (the codec surfaces them as `Error::Codec`/
//! `Error::Decode`/`Error::Io`); the service itself is untouched.
//! Consensus among the orderer replicas stays in-process — only the
//! node-facing surface speaks TCP.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bcrdb_common::codec::{Decode, Encode};
use bcrdb_common::error::Error;
use bcrdb_network::tcp::{accept_loop, next_frame, read_frames, POLL};
use bcrdb_network::wire::{write_frame, MAX_ORDERER_FRAME};

use crate::service::OrderingService;
use crate::wire::OrdererWire;

/// A connection must complete its `Hello` within this long of being
/// accepted, or it is dropped.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Serve orderer replica `idx` of `service` on `listener` until `stop`
/// is set. Returns the accept loop's join handle; per-connection
/// threads observe the same stop flag and are joined with it.
pub fn serve_orderer(
    service: Arc<OrderingService>,
    idx: usize,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> thread::JoinHandle<()> {
    accept_loop(
        listener,
        format!("orderer{idx}"),
        stop,
        move |stream, stop| serve_connection(&service, idx, stream, stop),
    )
}

/// One node's connection: handshake, then a reader (submissions, votes)
/// with a paired pusher (delivered blocks).
fn serve_connection(service: &OrderingService, idx: usize, stream: TcpStream, stop: &AtomicBool) {
    let stopped = || stop.load(Ordering::Relaxed);
    let mut reader = stream;

    // Handshake: the first frame must be Hello, within the deadline.
    // bcrdb-lint: allow(wall-clock, reason = "socket handshake deadline; bounds how long a silent connection may hold a thread, never influences block content")
    let accepted_at = std::time::Instant::now();
    let expired = || stopped() || accepted_at.elapsed() > HANDSHAKE_TIMEOUT;
    let Ok(Some(first)) = next_frame(&mut reader, MAX_ORDERER_FRAME, expired) else {
        return;
    };
    let Ok(OrdererWire::Hello { node }) = OrdererWire::decode_all(&first) else {
        return; // protocol violation: sever
    };

    let rx = service.subscribe_to(idx);
    let Ok(mut writer) = reader.try_clone() else {
        return;
    };
    let conn_done = AtomicBool::new(false);
    thread::scope(|conn| {
        // Pusher: stream this replica's block deliveries down the socket.
        thread::Builder::new()
            .name(format!("orderer{idx}-push:{node}"))
            .spawn_scoped(conn, || {
                while !stopped() && !conn_done.load(Ordering::Relaxed) {
                    match rx.recv_timeout(POLL) {
                        Ok(block) => {
                            let bytes = OrdererWire::Block(block).encode_to_vec();
                            if write_frame(&mut writer, &bytes, MAX_ORDERER_FRAME).is_err() {
                                break;
                            }
                        }
                        Err(crossbeam_channel::RecvTimeoutError::Timeout) => continue,
                        Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
                    }
                }
                let _ = writer.shutdown(Shutdown::Both);
            })
            .expect("spawn orderer pusher");

        // Reader: submissions and votes until EOF, a bad frame, a
        // stopped service, or stop.
        let _ = read_frames(&mut reader, MAX_ORDERER_FRAME, stopped, |payload| {
            match OrdererWire::decode_all(&payload)? {
                OrdererWire::Submit(tx) => service.submit(*tx),
                OrdererWire::Vote(vote) => service.submit_checkpoint(vote),
                // A duplicate Hello is harmless; a Block from a node is
                // a protocol violation — sever.
                OrdererWire::Hello { .. } => Ok(()),
                OrdererWire::Block(_) => Err(Error::Decode("a node sent a block".into())),
            }
        });
        conn_done.store(true, Ordering::Relaxed);
        let _ = reader.shutdown(Shutdown::Both);
    });
}
