//! Length-prefixed framing and endpoint addressing, shared by the
//! simulated and TCP transports.
//!
//! Every plane of the system — client↔node RPC, peer↔peer forwarding and
//! catch-up, node↔orderer submission and block delivery — moves
//! canonical-codec payloads. The TCP transport sends the bytes; the
//! simulated network charges their count ([`framed_len`], measured by
//! the same encoder). This module is the single place where the on-wire
//! envelope lives so the two cannot drift:
//!
//! * a frame is a 4-byte big-endian length followed by that many payload
//!   bytes ([`write_frame`]/[`read_frame`]);
//! * per-plane frame caps bound what a decoder will ever allocate: the
//!   codecs bound every element count by the bytes that remain in the
//!   frame, so no frame reserves more than a small multiple of its size;
//! * endpoint names ([`frontend_endpoint`], [`peer_endpoint`]) and
//!   socket-address pairs ([`PeerAddr`]) are defined once for both
//!   backends.
//!
//! A malformed frame is a protocol error, never a panic or a hang: an
//! oversized length prefix is [`Error::Decode`], a mid-frame EOF or
//! socket failure is [`Error::Io`], and a clean EOF at a frame boundary
//! is [`FrameEvent::Eof`] so per-connection workers can distinguish an
//! orderly disconnect from a torn one.

use std::io::{ErrorKind, Read, Write};

use bcrdb_common::codec::Encode;
use bcrdb_common::error::{Error, Result};

/// Bytes of the frame header (one big-endian `u32` length).
pub const FRAME_HEADER: usize = 4;

/// Frame cap for the client↔node plane.
///
/// Derived from the client codec's own bounds: the largest legitimate
/// frames are `Submit` envelopes and `Rows` responses, both built from
/// codec rows whose decoder already rejects a row longer than its input.
/// 64 MiB comfortably covers a maximal query result while keeping a
/// corrupt length prefix from forcing a multi-gigabyte allocation.
pub const MAX_CLIENT_FRAME: u32 = 64 << 20;

/// Frame cap for the peer plane (forwarded transactions, blocks,
/// catch-up).
///
/// Catch-up responses are the largest messages in the system: a batch
/// of blocks or a full state snapshot in one `SyncResponse`. 1 GiB
/// bounds the allocation a corrupt prefix can demand while never
/// truncating an honest snapshot.
pub const MAX_PEER_FRAME: u32 = 1 << 30;

/// Frame cap for the node↔orderer plane.
///
/// Bounded by one block: ordered blocks are cut at the configured
/// `block_size`, far below what 256 MiB holds.
pub const MAX_ORDERER_FRAME: u32 = 256 << 20;

/// Endpoint name of a node's RPC frontend on the client plane.
pub fn frontend_endpoint(node_name: &str) -> String {
    format!("{node_name}/rpc")
}

/// Endpoint name of `org`'s database node on the peer plane.
pub fn peer_endpoint(org: &str) -> String {
    format!("{org}/peer")
}

/// An `org=host:port` pair naming one peer's listening socket — the
/// address type shared by the `bcrdb-node` binary flags and the deploy
/// harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerAddr {
    /// The peer's organization.
    pub org: String,
    /// Its peer-plane listen address (`host:port`).
    pub addr: String,
}

impl PeerAddr {
    /// Parse `org=host:port`.
    pub fn parse(s: &str) -> Result<PeerAddr> {
        let (org, addr) = s
            .split_once('=')
            .ok_or_else(|| Error::Config(format!("peer address `{s}` is not org=host:port")))?;
        if org.is_empty() || addr.is_empty() {
            return Err(Error::Config(format!(
                "peer address `{s}` has an empty org or address"
            )));
        }
        Ok(PeerAddr {
            org: org.to_string(),
            addr: addr.to_string(),
        })
    }
}

impl std::fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}", self.org, self.addr)
    }
}

/// Total bytes a payload occupies on the wire (header + payload).
pub fn framed_size(payload_len: usize) -> usize {
    FRAME_HEADER + payload_len
}

/// Total bytes [`write_frame`] puts on a socket for `msg` — and therefore
/// what the simulated network charges for carrying it. Measured by the
/// message's own encoder in counting mode: no buffer, no second
/// description of the message to keep in step.
pub fn framed_len(msg: &impl Encode) -> usize {
    framed_size(msg.encoded_len())
}

/// One read attempt's outcome on a framed stream.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame's payload.
    Frame(Vec<u8>),
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
    /// The read timed out before the first header byte arrived (the
    /// stream is idle, not broken); callers poll their stop flag and
    /// retry.
    Idle,
}

/// Write one frame. Fails with [`Error::Decode`] if the payload exceeds
/// `max` (the sender is about to violate the plane's protocol — the
/// receiver would sever the connection anyway), or [`Error::Io`] on a
/// socket failure.
///
/// Header and payload are sent as a single buffered write so concurrent
/// writers serialized by a lock can never interleave partial frames.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: u32) -> Result<()> {
    if payload.len() > max as usize {
        return Err(Error::Decode(format!(
            "outgoing frame of {} bytes exceeds the {max}-byte cap",
            payload.len()
        )));
    }
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf).map_err(|e| Error::Io(e.to_string()))?;
    w.flush().map_err(|e| Error::Io(e.to_string()))
}

/// Read one frame.
///
/// * A clean EOF before the first header byte is [`FrameEvent::Eof`].
/// * A read timeout before the first header byte is [`FrameEvent::Idle`].
/// * A length prefix above `max` is [`Error::Decode`] — the stream can no
///   longer be trusted and must be closed.
/// * A timeout, error, or EOF *mid-frame* is [`Error::Io`] (torn frame).
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<FrameEvent> {
    let mut header = [0u8; FRAME_HEADER];
    // First header byte decides between EOF / idle / a frame in flight.
    let mut got = 0usize;
    while got == 0 {
        match r.read(&mut header) {
            Ok(0) => return Ok(FrameEvent::Eof),
            Ok(n) => got = n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(FrameEvent::Idle);
            }
            Err(e) => return Err(Error::Io(e.to_string())),
        }
    }
    read_exact_io(r, &mut header[got..])?;
    let len = u32::from_be_bytes(header);
    if len > max {
        return Err(Error::Decode(format!(
            "incoming frame of {len} bytes exceeds the {max}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_io(r, &mut payload)?;
    Ok(FrameEvent::Frame(payload))
}

/// `read_exact` that treats *any* shortfall — including timeouts and
/// EOF — as a torn frame ([`Error::Io`]): once a header byte arrived,
/// the rest of the frame must follow.
fn read_exact_io(r: &mut impl Read, mut buf: &mut [u8]) -> Result<()> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => return Err(Error::Io("connection closed mid-frame".into())),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Io(format!("torn frame: {e}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", MAX_CLIENT_FRAME).unwrap();
        write_frame(&mut buf, b"", MAX_CLIENT_FRAME).unwrap();
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, MAX_CLIENT_FRAME).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, b"hello"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, MAX_CLIENT_FRAME).unwrap() {
            FrameEvent::Frame(p) => assert!(p.is_empty()),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            read_frame(&mut r, MAX_CLIENT_FRAME).unwrap(),
            FrameEvent::Eof
        ));
    }

    #[test]
    fn oversized_length_prefix_is_decode_error() {
        // Hand-corrupted header claiming a frame far beyond the cap.
        let bytes = u32::MAX.to_be_bytes().to_vec();
        let err = match read_frame(&mut Cursor::new(bytes), 1024) {
            Err(e) => e,
            Ok(ev) => panic!("accepted corrupt frame: {ev:?}"),
        };
        assert!(matches!(err, Error::Decode(_)), "{err}");
    }

    #[test]
    fn oversized_outgoing_frame_is_rejected() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &[0u8; 100], 10).unwrap_err();
        assert!(matches!(err, Error::Decode(_)), "{err}");
        assert!(buf.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn truncated_header_and_payload_are_io_errors() {
        // Header cut mid-way.
        let err = read_frame(&mut Cursor::new(vec![0u8, 0]), 1024).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        // Header promises 8 bytes, stream carries 3.
        let mut bytes = 8u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut Cursor::new(bytes), 1024).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
    }

    #[test]
    fn peer_addr_parsing() {
        let p = PeerAddr::parse("org1=127.0.0.1:4001").unwrap();
        assert_eq!(p.org, "org1");
        assert_eq!(p.addr, "127.0.0.1:4001");
        assert_eq!(p.to_string(), "org1=127.0.0.1:4001");
        assert!(PeerAddr::parse("org1").is_err());
        assert!(PeerAddr::parse("=x").is_err());
        assert!(PeerAddr::parse("a=").is_err());
    }

    #[test]
    fn endpoint_names_are_stable() {
        assert_eq!(frontend_endpoint("org1/peer"), "org1/peer/rpc");
        assert_eq!(peer_endpoint("org1"), "org1/peer");
        assert_eq!(framed_size(10), 14);
    }
}
