//! The TCP toolkit shared by every listener and dialer in the system.
//!
//! The three planes (client↔node, peer↔peer, node↔orderer) differ in
//! what a frame means — which frames are accepted, what severs a
//! connection, where a reply goes; that stays in the callers' handlers.
//! How a socket is run is the same everywhere and written here once:
//!
//! * [`configure_stream`] — reads poll the stop flag every [`POLL`],
//!   writes cannot hang beyond [`WRITE_TIMEOUT`];
//! * [`accept_loop`] — one thread per listener and per connection, all
//!   ended by the stop flag and joined through the one handle;
//! * [`next_frame`] / [`read_frames`] — frames under a cap until stop,
//!   EOF, an error, or the handler severs;
//! * [`ReconnectingLink`] — an outbound connection that redials with
//!   backoff, whose sends fail fast while it is down;
//! * [`bind_reuse`] — a killed-and-restarted node must rebind its
//!   well-known ports immediately, but the dying process's accepted
//!   sockets linger in `TIME_WAIT` and a plain [`TcpListener::bind`]
//!   fails with `EADDRINUSE` for up to a minute. `SO_REUSEADDR` before
//!   `bind(2)` is the standard fix; `std` has no hook for it, so on
//!   Linux the socket is assembled through raw `libc` calls.

use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bcrdb_common::error::{Error, Result};
use parking_lot::Mutex;

use crate::wire::{read_frame, write_frame, FrameEvent};

/// Stop-flag polling cadence: the read timeout of every configured
/// stream, the accept loop's sleep, and the slice of every longer wait.
pub const POLL: Duration = Duration::from_millis(100);

/// Bound on how long a stuck peer may block a socket write.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// First reconnect delay of a [`ReconnectingLink`]; doubles per redial
/// up to [`DIAL_BACKOFF_MAX`].
const DIAL_BACKOFF_MIN: Duration = Duration::from_millis(100);

/// Reconnect backoff ceiling.
const DIAL_BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Socket options of every server-side and node-to-node stream: reads
/// poll the stop flag, writes cannot hang forever.
pub fn configure_stream(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
}

/// Accept on `listener` until `stop` is set: thread `{name}-accept`
/// polls a non-blocking accept against the flag and hands each
/// configured stream, with the flag, to `serve` on a `{name}-conn`
/// thread. Joining the returned handle joins the connections too.
pub fn accept_loop(
    listener: TcpListener,
    name: String,
    stop: Arc<AtomicBool>,
    serve: impl Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            listener
                .set_nonblocking(true)
                .expect("listener nonblocking");
            let serve = Arc::new(serve);
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                // No connection pending, or a transient accept failure:
                // poll again.
                let Ok((stream, _)) = listener.accept() else {
                    thread::sleep(POLL);
                    continue;
                };
                configure_stream(&stream);
                conns.retain(|c| !c.is_finished());
                let (serve, stop) = (Arc::clone(&serve), Arc::clone(&stop));
                let conn = thread::Builder::new().name(format!("{name}-conn"));
                // If no thread can be had the stream is dropped: closed.
                if let Ok(conn) = conn.spawn(move || serve(stream, &stop)) {
                    conns.push(conn);
                }
            }
            for conn in conns {
                let _ = conn.join();
            }
        })
        .expect("spawn accept loop")
}

/// Wait for the next frame of at most `cap` bytes. `Ok(None)`: `stop`
/// turned true between read timeouts, or the peer closed at a frame
/// boundary. An error: the stream can no longer be trusted (torn or
/// oversized frame, socket failure).
pub fn next_frame(
    reader: &mut impl Read,
    cap: u32,
    stop: impl Fn() -> bool,
) -> Result<Option<Vec<u8>>> {
    while !stop() {
        match read_frame(reader, cap)? {
            FrameEvent::Frame(payload) => return Ok(Some(payload)),
            FrameEvent::Idle => {}
            FrameEvent::Eof => return Ok(None),
        }
    }
    Ok(None)
}

/// Feed every frame to `on_frame` until [`next_frame`] ends the stream
/// or `on_frame` severs it with an error (an undecodable payload, a
/// frame the plane does not accept, a consumer that is gone).
pub fn read_frames(
    reader: &mut impl Read,
    cap: u32,
    stop: impl Fn() -> bool,
    mut on_frame: impl FnMut(Vec<u8>) -> Result<()>,
) -> Result<()> {
    while let Some(payload) = next_frame(reader, cap, &stop)? {
        on_frame(payload)?;
    }
    Ok(())
}

/// One outbound connection, kept up by a dialer thread. Senders share
/// the writer half and fail fast while the link is down — nothing queues
/// into the void; what a down link loses, the protocol above heals.
pub struct ReconnectingLink {
    addr: String,
    cap: u32,
    /// `None` while the dialer is reconnecting.
    writer: Mutex<Option<TcpStream>>,
}

impl ReconnectingLink {
    /// A link to `addr` carrying frames of at most `cap` bytes; down
    /// until [`ReconnectingLink::dial`] connects it.
    pub fn new(addr: impl Into<String>, cap: u32) -> Arc<ReconnectingLink> {
        Arc::new(ReconnectingLink {
            addr: addr.into(),
            cap,
            writer: Mutex::new(None),
        })
    }

    /// Is a connection established (hello sent) right now?
    pub fn is_up(&self) -> bool {
        self.writer.lock().is_some()
    }

    /// Write one frame; fails at once while the link is down, and takes
    /// the link down when the write fails.
    pub fn send(&self, payload: &[u8]) -> Result<()> {
        let mut guard = self.writer.lock();
        let Some(stream) = guard.as_mut() else {
            return Err(Error::Io(format!("link to {} is down", self.addr)));
        };
        let written = write_frame(stream, payload, self.cap);
        if written.is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            *guard = None;
        }
        written
    }

    /// Spawn the dialer thread `name`: until `stop` is set, connect,
    /// send `hello` as the first frame, bring the link up, and run
    /// [`read_frames`] into `on_frame` until the connection ends.
    /// Every redial first waits out the current backoff — after a
    /// refused connect *and* after a dropped connection, so a listener
    /// that accepts and closes is not hammered — which resets only after
    /// a connection that carried a frame or outlived the ceiling.
    pub fn dial(
        self: &Arc<Self>,
        name: String,
        hello: Vec<u8>,
        stop: Arc<AtomicBool>,
        mut on_frame: impl FnMut(Vec<u8>) -> Result<()> + Send + 'static,
    ) -> JoinHandle<()> {
        let link = Arc::clone(self);
        let run = move || {
            let stopped = || stop.load(Ordering::Relaxed);
            let mut backoff = DIAL_BACKOFF_MIN;
            while !stopped() {
                if let Ok(stream) = TcpStream::connect(&link.addr) {
                    configure_stream(&stream);
                    let (connected_at, mut carried_a_frame) = (Instant::now(), false);
                    let mut writer = stream.try_clone().ok();
                    // Hello is on the wire before any sender can see
                    // the writer, so it is always the first frame.
                    let greet = |w: &mut TcpStream| write_frame(w, &hello, link.cap).is_ok();
                    if writer.as_mut().is_some_and(greet) {
                        *link.writer.lock() = writer;
                        let _ = read_frames(&mut &stream, link.cap, stopped, |payload| {
                            carried_a_frame = true;
                            on_frame(payload)
                        });
                        *link.writer.lock() = None;
                    }
                    let _ = stream.shutdown(Shutdown::Both);
                    if carried_a_frame || connected_at.elapsed() >= DIAL_BACKOFF_MAX {
                        backoff = DIAL_BACKOFF_MIN;
                    }
                }
                let mut waited = Duration::ZERO;
                while !stopped() && waited < backoff {
                    thread::sleep(POLL);
                    waited += POLL;
                }
                backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
            }
        };
        let dialer = thread::Builder::new().name(name);
        dialer.spawn(run).expect("spawn link dialer")
    }
}

/// Bind a TCP listener with `SO_REUSEADDR` set, so restarting a process
/// on the same port succeeds while old connections sit in `TIME_WAIT`.
///
/// Falls back to a plain [`TcpListener::bind`] on non-Linux targets and
/// for IPv6 addresses.
pub fn bind_reuse<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
    let mut last_err = None;
    for sa in addr.to_socket_addrs()? {
        match bind_one(sa) {
            Ok(l) => return Ok(l),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses to bind")))
}

#[cfg(target_os = "linux")]
fn bind_one(addr: SocketAddr) -> io::Result<TcpListener> {
    let SocketAddr::V4(v4) = addr else {
        return TcpListener::bind(addr);
    };
    linux::bind_v4_reuse(v4)
}

#[cfg(not(target_os = "linux"))]
fn bind_one(addr: SocketAddr) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::fd::FromRawFd;
    use std::os::raw::{c_int, c_uint, c_void};

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const LISTEN_BACKLOG: c_int = 1024;

    /// `struct sockaddr_in` as the Linux kernel lays it out.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16, // network byte order
        sin_addr: u32, // network byte order
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: c_uint,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const SockaddrIn, len: c_uint) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn check(ret: c_int, fd: Option<c_int>) -> io::Result<()> {
        if ret < 0 {
            let err = io::Error::last_os_error();
            if let Some(fd) = fd {
                // SAFETY: fd was returned by socket() and is still open.
                unsafe { close(fd) };
            }
            return Err(err);
        }
        Ok(())
    }

    pub(super) fn bind_v4_reuse(addr: SocketAddrV4) -> io::Result<TcpListener> {
        // SAFETY: plain syscalls on integers/structs we own; the fd is
        // closed on every error path and otherwise handed to TcpListener,
        // which owns it from then on.
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            check(fd, None)?;
            let one: c_int = 1;
            check(
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    SO_REUSEADDR,
                    &one as *const c_int as *const c_void,
                    std::mem::size_of::<c_int>() as c_uint,
                ),
                Some(fd),
            )?;
            let sa = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: addr.port().to_be(),
                sin_addr: u32::from_be_bytes(addr.ip().octets()).to_be(),
                sin_zero: [0u8; 8],
            };
            check(
                bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as c_uint),
                Some(fd),
            )?;
            check(listen(fd, LISTEN_BACKLOG), Some(fd))?;
            Ok(TcpListener::from_raw_fd(fd))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::{unbounded, Receiver};
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

    const CAP: u32 = 64;
    const SOON: Duration = Duration::from_secs(5);

    /// An accept loop whose connections report every frame they read;
    /// a frame starting with `!` is one the plane cannot decode.
    fn frame_server(listener: TcpListener) -> (Arc<AtomicBool>, JoinHandle<()>, Receiver<Vec<u8>>) {
        let stop = Arc::new(AtomicBool::new(false));
        let (seen_tx, seen_rx) = unbounded();
        let accept = accept_loop(
            listener,
            "test".into(),
            Arc::clone(&stop),
            move |stream, stop| {
                let stopped = || stop.load(Ordering::Relaxed);
                let _ = read_frames(&mut &stream, CAP, stopped, |payload| {
                    if payload.starts_with(b"!") {
                        return Err(Error::Codec("undecodable".into()));
                    }
                    seen_tx
                        .send(payload)
                        .map_err(|_| Error::Shutdown("test over".into()))
                });
            },
        );
        (stop, accept, seen_rx)
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + SOON;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn link_delivers_hello_then_frames_in_order_and_redials_a_rebound_port() {
        let listener = bind_reuse("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (server_stop, server, seen) = frame_server(listener);

        let link = ReconnectingLink::new(addr.to_string(), CAP);
        assert!(link.send(b"early").is_err(), "down until dialed");
        let link_stop = Arc::new(AtomicBool::new(false));
        let (reply_tx, reply_rx) = unbounded();
        let dialer = link.dial(
            "test-dial".into(),
            b"hello".to_vec(),
            Arc::clone(&link_stop),
            move |payload| {
                reply_tx
                    .send(payload)
                    .map_err(|_| Error::Shutdown("test over".into()))
            },
        );
        wait_until("the link is up", || link.is_up());
        for frame in [&b"one"[..], b"two", b"three"] {
            link.send(frame).unwrap();
        }
        for expected in [&b"hello"[..], b"one", b"two", b"three"] {
            assert_eq!(seen.recv_timeout(SOON).unwrap(), expected);
        }

        // The server goes away: the link notices, and sends fail at once
        // instead of queueing or blocking.
        server_stop.store(true, Ordering::Relaxed);
        server.join().unwrap();
        wait_until("the link is down", || !link.is_up());
        let t0 = Instant::now();
        assert!(matches!(link.send(b"lost"), Err(Error::Io(_))));
        assert!(t0.elapsed() < POLL, "a down link fails fast");

        // It comes back on the same port: the link redials by itself and
        // introduces itself again.
        let (server_stop, server, seen) = frame_server(bind_reuse(addr).unwrap());
        wait_until("the link is up again", || link.is_up());
        link.send(b"again").unwrap();
        assert_eq!(seen.recv_timeout(SOON).unwrap(), b"hello");
        assert_eq!(seen.recv_timeout(SOON).unwrap(), b"again");
        assert!(reply_rx.try_recv().is_err(), "the server never wrote");

        // The stop flags end the accept loop with its connections, and
        // the link, within two polls.
        let t0 = Instant::now();
        server_stop.store(true, Ordering::Relaxed);
        link_stop.store(true, Ordering::Relaxed);
        server.join().unwrap();
        dialer.join().unwrap();
        assert!(t0.elapsed() < 2 * POLL, "took {:?}", t0.elapsed());
        assert!(!link.is_up() && link.send(b"late").is_err());
    }

    #[test]
    fn a_bad_frame_severs_its_connection_and_the_next_one_is_served() {
        let listener = bind_reuse("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop, server, seen) = frame_server(listener);
        let severed = |bad: &[u8]| {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.set_read_timeout(Some(SOON)).unwrap();
            conn.write_all(bad).unwrap();
            // The server closes without answering: a clean EOF (or a
            // reset, if it closed with our bytes unread).
            assert!(matches!(conn.read(&mut [0u8; 1]), Ok(0) | Err(_)));
        };
        // A length prefix beyond the cap; a frame the handler rejects; a
        // frame torn by a disconnect.
        severed(&(CAP + 1).to_be_bytes());
        severed(&[&3u32.to_be_bytes()[..], b"!no"].concat());
        drop(TcpStream::connect(addr).unwrap().write_all(&[0, 0]));
        // None of it reached the handler's consumer, and the accept loop
        // still serves.
        let mut good = TcpStream::connect(addr).unwrap();
        write_frame(&mut good, b"fine", CAP).unwrap();
        assert_eq!(seen.recv_timeout(SOON).unwrap(), b"fine");
        assert!(seen.try_recv().is_err());
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap();
    }

    #[test]
    fn a_listener_that_accepts_and_closes_is_redialed_with_backoff() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (accepted, done) = (
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicBool::new(false)),
        );
        let acceptor = {
            let (accepted, done) = (Arc::clone(&accepted), Arc::clone(&done));
            thread::spawn(move || {
                for conn in listener.incoming() {
                    if done.load(Ordering::Relaxed) {
                        return;
                    }
                    accepted.fetch_add(1, Ordering::Relaxed);
                    drop(conn);
                }
            })
        };
        let link = ReconnectingLink::new(addr.to_string(), CAP);
        let stop = Arc::new(AtomicBool::new(false));
        let dialer = link.dial(
            "test-dial".into(),
            b"hello".to_vec(),
            Arc::clone(&stop),
            |_| Ok(()),
        );
        thread::sleep(Duration::from_secs(1));
        // 100 ms, 200 ms, 400 ms, … between dials: a handful, where a
        // dialer that sleeps only after a refused connect makes thousands.
        let accepted = accepted.load(Ordering::Relaxed);
        assert!(
            (1..=10).contains(&accepted),
            "{accepted} connections in 1 s"
        );
        stop.store(true, Ordering::Relaxed);
        dialer.join().unwrap();
        done.store(true, Ordering::Relaxed);
        drop(TcpStream::connect(addr));
        acceptor.join().unwrap();
    }

    #[test]
    fn bind_reuse_rebinds_immediately() {
        // Bind an ephemeral port, connect once so an accepted socket
        // exists, drop everything, and rebind the same port right away.
        let first = bind_reuse("127.0.0.1:0").unwrap();
        let port = first.local_addr().unwrap().port();
        let client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        let (accepted, _) = first.accept().unwrap();
        drop(accepted);
        drop(client);
        drop(first);
        let again = bind_reuse(("127.0.0.1", port)).unwrap();
        assert_eq!(again.local_addr().unwrap().port(), port);
    }

    #[test]
    fn bound_listener_accepts_connections() {
        let l = bind_reuse("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let t = std::thread::spawn(move || std::net::TcpStream::connect(addr).map(|_| ()));
        let (_s, _) = l.accept().unwrap();
        t.join().unwrap().unwrap();
    }
}
