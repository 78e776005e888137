//! What the harness needs from the host rather than from bcrdb: CPU
//! accounting, the process's peak memory, and the block watcher of the
//! traced run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::sut::Sut;

/// `(stolen, total)` CPU time of the host so far, in clock ticks: what
/// the hypervisor took from this guest, for the validity note.
pub fn cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal …
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of the CPU time of a quarter-second probe — every CPU kept busy,
/// since an idle guest is never stolen from — that the hypervisor gave to
/// someone else. `None` where `/proc/stat` does not say.
fn stolen_share_now() -> Option<f64> {
    const PROBE: Duration = Duration::from_millis(250);
    let (steal0, total0) = cpu_ticks()?;
    let until = Instant::now() + PROBE;
    std::thread::scope(|s| {
        for _ in 0..std::thread::available_parallelism().map_or(1, |n| n.get()) {
            s.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
    let (steal1, total1) = cpu_ticks()?;
    Some((steal1 - steal0) / (total1 - total0).max(1.0))
}

/// Hold the run back while the host is oversubscribed: on the shared
/// reference host the hypervisor now and then takes 30–50 % of the CPU
/// time for minutes on end, and a run measured then says nothing about
/// bcrdb (every latency comes out 5–50 × its quiet value). Probes every
/// two seconds until the stolen share is below a tenth (the probe
/// resolves 2 %) or `limit` has passed; returns how long it waited.
pub fn await_quiet_host(limit: Duration) -> Duration {
    let started = Instant::now();
    while stolen_share_now().is_some_and(|share| share > 0.10) && started.elapsed() < limit {
        std::thread::sleep(Duration::from_secs(2));
    }
    started.elapsed()
}

/// A run during which more than this share of the CPU time was stolen is
/// marked `NOISY host`.
pub const NOISY_SHARE: f64 = 0.02;

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Block sightings on `OrderingService::subscribe()`, recorded by a
/// thread that only blocks on the subscription channel.
pub struct BlockWatch {
    seen: Arc<Mutex<Vec<(u64, f64, usize)>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BlockWatch {
    /// Subscribe to the ordering service's block stream.
    pub fn start(sut: &Sut, epoch: Instant) -> BlockWatch {
        let rx = sut.ordering().subscribe();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let seen = Arc::clone(&seen);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(block) = rx.recv_timeout(Duration::from_millis(50)) {
                        let at = epoch.elapsed().as_secs_f64();
                        seen.lock()
                            .expect("block watch")
                            .push((block.number, at, block.txs.len()));
                    }
                }
            })
        };
        BlockWatch {
            seen,
            stop,
            handle: Some(handle),
        }
    }

    /// `(block number, first seen, transactions)` so far.
    pub fn snapshot(&self) -> Vec<(u64, f64, usize)> {
        self.seen.lock().expect("block watch").clone()
    }
}

impl Drop for BlockWatch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_host_gate_probes_once_and_honours_its_limit() {
        let waited = await_quiet_host(Duration::ZERO);
        assert!(waited < Duration::from_secs(3), "{waited:?}");
        if let Some(share) = stolen_share_now() {
            assert!((0.0..=1.0).contains(&share), "{share}");
        }
    }
}
