//! The simulated network: registered endpoints, a delivery scheduler
//! thread, per-link bandwidth serialization.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_common::error::{Error, Result};
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::profile::NetProfile;

/// A delivered message with its origin.
#[derive(Clone, Debug)]
pub struct Delivered<M> {
    /// Sender endpoint name.
    pub from: String,
    /// The message.
    pub msg: M,
}

struct Scheduled<M> {
    deliver_at: Instant,
    seq: u64,
    to: String,
    delivered: Delivered<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
    }
}

struct State<M> {
    endpoints: HashMap<String, Sender<Delivered<M>>>,
    /// Endpoints currently cut off: messages from *or* to them are
    /// silently dropped at delivery time, while sends still succeed —
    /// exactly how a network partition looks to the sender (no error,
    /// just silence). Heal with [`SimNetwork::set_partitioned`].
    partitioned: HashSet<String>,
    queue: BinaryHeap<Scheduled<M>>,
    /// Next instant each directed link is free (bandwidth serialization).
    link_free: HashMap<(String, String), Instant>,
    /// Last scheduled delivery per link: jitter must never reorder a
    /// stream (links model TCP/TLS connections, which are FIFO).
    link_last_delivery: HashMap<(String, String), Instant>,
    profile: NetProfile,
    seq: u64,
    /// Deterministic jitter source (xorshift; no external dependency).
    rng_state: u64,
    shutdown: bool,
}

/// An in-process network with simulated delays.
///
/// Clone the `Arc` and hand it to every component; each component
/// registers an endpoint and receives messages on its channel.
pub struct SimNetwork<M> {
    state: Mutex<State<M>>,
    wake: Condvar,
}

impl<M: Send + Clone + 'static> SimNetwork<M> {
    /// Create a network with the given profile; spawns the delivery thread.
    pub fn new(profile: NetProfile) -> Arc<SimNetwork<M>> {
        let net = Arc::new(SimNetwork {
            state: Mutex::new(State {
                endpoints: HashMap::new(),
                partitioned: HashSet::new(),
                queue: BinaryHeap::new(),
                link_free: HashMap::new(),
                link_last_delivery: HashMap::new(),
                profile,
                seq: 0,
                rng_state: 0x9e3779b97f4a7c15,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let worker = Arc::clone(&net);
        std::thread::Builder::new()
            .name("simnet-delivery".into())
            .spawn(move || worker.delivery_loop())
            .expect("spawn delivery thread");
        net
    }

    /// Register an endpoint; returns its receive channel.
    pub fn register(&self, name: impl Into<String>) -> Receiver<Delivered<M>> {
        let (tx, rx) = unbounded();
        self.state.lock().endpoints.insert(name.into(), tx);
        rx
    }

    /// Remove an endpoint (simulating a node crash); queued messages to it
    /// are dropped at delivery time.
    pub fn unregister(&self, name: &str) {
        self.state.lock().endpoints.remove(name);
    }

    /// Cut an endpoint off (network partition) or heal it. While
    /// partitioned, messages from or to the endpoint are dropped at
    /// delivery time but sends still *succeed* — senders see silence,
    /// not errors, matching a real partition. In-flight messages
    /// scheduled before the heal are dropped too.
    pub fn set_partitioned(&self, name: &str, partitioned: bool) {
        let mut st = self.state.lock();
        if partitioned {
            st.partitioned.insert(name.to_string());
        } else {
            st.partitioned.remove(name);
            // Messages addressed to or from the endpoint while it was cut
            // off are gone for good — drop them now so the heal does not
            // retroactively deliver them.
            let drained: Vec<Scheduled<M>> = std::mem::take(&mut st.queue)
                .into_iter()
                .filter(|s| s.to != name && s.delivered.from != name)
                .collect();
            st.queue = drained.into();
        }
    }

    /// Is the endpoint currently partitioned away?
    pub fn is_partitioned(&self, name: &str) -> bool {
        self.state.lock().partitioned.contains(name)
    }

    /// Registered endpoint names (sorted).
    pub fn endpoint_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.lock().endpoints.keys().cloned().collect();
        names.sort();
        names
    }

    /// Send `msg` of `size` bytes from `from` to `to`.
    pub fn send(&self, from: &str, to: &str, msg: M, size: usize) -> Result<()> {
        let mut st = self.state.lock();
        if st.shutdown {
            return Err(Error::Shutdown("network stopped".into()));
        }
        if !st.endpoints.contains_key(to) {
            return Err(Error::NotFound(format!("network endpoint {to}")));
        }
        let now = Instant::now();
        let profile = st.profile;
        // Jitter via xorshift64*.
        let jitter = if profile.jitter.is_zero() {
            Duration::ZERO
        } else {
            let mut x = st.rng_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            st.rng_state = x;
            let frac = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f64 / (1u64 << 24) as f64;
            profile.jitter.mul_f64(frac)
        };
        // Per-link bandwidth serialization: the link transmits one message
        // at a time.
        let link = (from.to_string(), to.to_string());
        let tx_delay = profile.transmission_delay(size);
        let free_at = st.link_free.get(&link).copied().unwrap_or(now).max(now);
        let tx_done = free_at + tx_delay;
        st.link_free.insert(link.clone(), tx_done);
        let mut deliver_at = tx_done + profile.latency + jitter;
        // FIFO per link: never deliver before an earlier message on the
        // same link.
        if let Some(last) = st.link_last_delivery.get(&link) {
            deliver_at = deliver_at.max(*last);
        }
        st.link_last_delivery.insert(link, deliver_at);

        st.seq += 1;
        let seq = st.seq;
        st.queue.push(Scheduled {
            deliver_at,
            seq,
            to: to.to_string(),
            delivered: Delivered {
                from: from.to_string(),
                msg,
            },
        });
        drop(st);
        self.wake.notify_one();
        Ok(())
    }

    /// Broadcast to every endpoint except the sender.
    pub fn broadcast(&self, from: &str, msg: &M, size: usize) -> Result<usize> {
        let targets: Vec<String> = {
            let st = self.state.lock();
            st.endpoints
                .keys()
                .filter(|n| n.as_str() != from)
                .cloned()
                .collect()
        };
        let mut sent = 0;
        for t in &targets {
            if self.send(from, t, msg.clone(), size).is_ok() {
                sent += 1;
            }
        }
        Ok(sent)
    }

    /// Stop the delivery thread and release everything the network
    /// holds: queued messages are dropped, and so is every endpoint —
    /// which closes its channel, so a thread blocked receiving on one
    /// ends instead of outliving the network (and keeping alive whatever
    /// it serves).
    pub fn shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        st.endpoints.clear();
        st.queue.clear();
        drop(st);
        self.wake.notify_all();
    }

    fn delivery_loop(&self) {
        let mut st = self.state.lock();
        loop {
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            // Deliver everything due.
            while let Some(next) = st.queue.peek() {
                if next.deliver_at > now {
                    break;
                }
                let item = st.queue.pop().expect("peeked");
                if st.partitioned.contains(&item.to)
                    || st.partitioned.contains(&item.delivered.from)
                {
                    continue; // dropped by the partition
                }
                if let Some(tx) = st.endpoints.get(&item.to) {
                    // Receiver may be gone (dropped receiver): ignore.
                    let _ = tx.send(item.delivered);
                }
            }
            match st.queue.peek().map(|n| n.deliver_at) {
                Some(at) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    self.wake
                        .wait_for(&mut st, timeout.max(Duration::from_micros(10)));
                }
                None => {
                    self.wake.wait(&mut st);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn basic_delivery() {
        let net: Arc<SimNetwork<String>> = SimNetwork::new(NetProfile::instant());
        let rx_b = net.register("b");
        net.register("a");
        net.send("a", "b", "hello".into(), 5).unwrap();
        let got = rx_b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.from, "a");
        assert_eq!(got.msg, "hello");
        net.shutdown();
    }

    #[test]
    fn unknown_endpoint_is_error() {
        let net: Arc<SimNetwork<u32>> = SimNetwork::new(NetProfile::instant());
        net.register("a");
        assert!(net.send("a", "nope", 1, 4).is_err());
        net.shutdown();
    }

    #[test]
    fn latency_is_applied() {
        let profile = NetProfile {
            latency: Duration::from_millis(30),
            jitter: Duration::ZERO,
            bandwidth_bytes_per_sec: None,
        };
        let net: Arc<SimNetwork<u32>> = SimNetwork::new(profile);
        let rx = net.register("b");
        net.register("a");
        let t0 = Instant::now();
        net.send("a", "b", 7, 8).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(got.msg, 7);
        assert!(elapsed >= Duration::from_millis(28), "{elapsed:?}");
        net.shutdown();
    }

    #[test]
    fn ordering_preserved_per_link() {
        let net: Arc<SimNetwork<u32>> = SimNetwork::new(NetProfile::instant());
        let rx = net.register("b");
        net.register("a");
        for i in 0..100u32 {
            net.send("a", "b", i, 4).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap().msg, i);
        }
        net.shutdown();
    }

    #[test]
    fn bandwidth_serializes_large_messages() {
        // 1 MB/s link: two 100 KB messages take ≥ ~200 ms in total.
        let profile = NetProfile {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bandwidth_bytes_per_sec: Some(1_000_000),
        };
        let net: Arc<SimNetwork<u32>> = SimNetwork::new(profile);
        let rx = net.register("b");
        net.register("a");
        let t0 = Instant::now();
        net.send("a", "b", 1, 100_000).unwrap();
        net.send("a", "b", 2, 100_000).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(180), "{elapsed:?}");
        net.shutdown();
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let net: Arc<SimNetwork<u32>> = SimNetwork::new(NetProfile::instant());
        let rx_a = net.register("a");
        let rx_b = net.register("b");
        let rx_c = net.register("c");
        let sent = net.broadcast("a", &9, 4).unwrap();
        assert_eq!(sent, 2);
        assert_eq!(rx_b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 9);
        assert_eq!(rx_c.recv_timeout(Duration::from_secs(1)).unwrap().msg, 9);
        assert!(rx_a.recv_timeout(Duration::from_millis(50)).is_err());
        net.shutdown();
    }

    #[test]
    fn partition_drops_silently_and_heals() {
        let net: Arc<SimNetwork<u32>> = SimNetwork::new(NetProfile::instant());
        let rx_b = net.register("b");
        net.register("a");
        net.set_partitioned("b", true);
        assert!(net.is_partitioned("b"));
        // Sends into the partition succeed (the sender sees silence, not
        // an error) but never deliver — even after the heal.
        net.send("a", "b", 1, 4).unwrap();
        assert!(rx_b.recv_timeout(Duration::from_millis(50)).is_err());
        net.set_partitioned("b", false);
        assert!(rx_b.recv_timeout(Duration::from_millis(50)).is_err());
        // Post-heal traffic flows again.
        net.send("a", "b", 2, 4).unwrap();
        assert_eq!(rx_b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 2);
        net.shutdown();
    }

    #[test]
    fn unregister_simulates_crash() {
        let net: Arc<SimNetwork<u32>> = SimNetwork::new(NetProfile::instant());
        net.register("a");
        let _rx = net.register("b");
        net.unregister("b");
        assert!(net.send("a", "b", 1, 4).is_err());
        assert_eq!(net.endpoint_names(), vec!["a".to_string()]);
        net.shutdown();
    }
}
