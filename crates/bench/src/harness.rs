//! Open-loop workload driver and micro-metric collection.
//!
//! The driver reproduces the paper's measurement methodology (§5): clients
//! submit transactions at a fixed arrival rate (load-balanced across
//! organizations), latency is measured from submission to the commit
//! notification, throughput counts unique committed transactions per
//! second, and the seven micro-metrics (brr, bpr, bpt, bet, bct, tet, mt)
//! plus system utilization come from the first node's block processor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::ledger::TxStatus;
use bcrdb_common::error::Result;
use bcrdb_common::ids::GlobalTxId;
use bcrdb_common::ids::TxId;
use bcrdb_common::value::Value;
use bcrdb_core::{Network, NetworkConfig};
use bcrdb_node::MetricsSnapshot;
use bcrdb_storage::version::Version;
use parking_lot::Mutex;

use crate::contracts::Workload;

/// A network plus the workload wiring used by one experiment run.
pub struct BenchNetwork {
    /// The running network.
    pub net: Network,
    /// The workload.
    pub workload: Workload,
}

impl BenchNetwork {
    /// Build a network, bootstrap the workload schema/contracts and seed
    /// the reference tables identically on every node.
    pub fn build(config: NetworkConfig, workload: Workload) -> Result<BenchNetwork> {
        let net = Network::build(config)?;
        net.bootstrap_sql(&workload.bootstrap_sql())?;
        for (table, rows) in workload.seed() {
            seed_genesis_rows(&net, &table, &rows)?;
        }
        Ok(BenchNetwork { net, workload })
    }
}

/// Install identical committed rows at genesis (height 0) on every node —
/// the pre-loaded reference data of the paper's complex contracts — and
/// seal the planner statistics over them, as a node restoring a snapshot
/// does: rows appended behind the commit path's back are otherwise
/// planned for as an empty table. Must be called before any traffic.
pub fn seed_genesis_rows(net: &Network, table: &str, rows: &[Vec<Value>]) -> Result<()> {
    for node in net.nodes() {
        let t = node.catalog().get(table)?;
        for row in rows {
            let schema = t.schema();
            let row = schema.check_row(row.clone())?;
            let rid = t.alloc_row_id();
            t.append_restored(Version::restored(TxId::INVALID, row, rid, 0, None, None));
        }
        t.rebuild_stats(0);
    }
    Ok(())
}

/// Results of one measured run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Transactions submitted.
    pub submitted: u64,
    /// Committed (counted from notifications on the clients' home nodes).
    pub committed: u64,
    /// Aborted.
    pub aborted: u64,
    /// Measured wall-clock duration (s).
    pub duration_s: f64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Mean commit latency (ms).
    pub avg_latency_ms: f64,
    /// Median commit latency (ms).
    pub p50_latency_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_latency_ms: f64,
    /// Micro-metrics from the first node.
    pub micro: MetricsSnapshot,
}

/// Drive the workload open-loop at `arrival_tps` for `duration` on a
/// network that has seen no other run (transaction numbers start at 0).
/// Returns measured statistics.
pub fn run_open_loop(
    bench: &BenchNetwork,
    arrival_tps: f64,
    duration: Duration,
) -> Result<RunStats> {
    let orgs: Vec<String> = bench.net.config().orgs.clone();
    let clients: Vec<_> = orgs
        .iter()
        .map(|o| bench.net.client(o, "bench").expect("client"))
        .collect();

    // Latency collectors: one firehose subscription per node; submit times
    // recorded by id.
    let submit_times: Arc<Mutex<std::collections::HashMap<GlobalTxId, Instant>>> =
        Arc::new(Mutex::new(std::collections::HashMap::new()));
    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut collector_handles = Vec::new();
    // Each client's home node notifies exactly its own submissions, so the
    // union over nodes counts every transaction exactly once.
    for node in bench.net.nodes() {
        let rx = node.subscribe_notifications();
        let submit_times = Arc::clone(&submit_times);
        let committed = Arc::clone(&committed);
        let aborted = Arc::clone(&aborted);
        let latencies = Arc::clone(&latencies);
        collector_handles.push(std::thread::spawn(move || {
            for n in rx.iter() {
                let now = Instant::now();
                let Some(t0) = submit_times.lock().remove(&n.id) else {
                    continue;
                };
                match n.status {
                    TxStatus::Committed => {
                        committed.fetch_add(1, Ordering::Relaxed);
                        latencies
                            .lock()
                            .push(now.duration_since(t0).as_secs_f64() * 1000.0);
                    }
                    TxStatus::Aborted(_) => {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    // Warm-up: a short burst at a quarter of the target rate fills caches,
    // spins up worker threads and lets the first blocks cut before the
    // measured window opens.
    let warm = Duration::from_millis(400);
    let warm_interval = Duration::from_secs_f64(4.0 / arrival_tps.max(4.0));
    let warm_start = Instant::now();
    let mut warm_n = 0u64;
    while warm_start.elapsed() < warm {
        let client = &clients[(warm_n as usize) % clients.len()];
        let args = bench.workload.args(u64::MAX - 1_000_000 + warm_n);
        if let Ok(p) = client.call(bench.workload.contract()).args(args).submit() {
            submit_times.lock().insert(p.id, Instant::now());
        }
        warm_n += 1;
        let next = warm_start + warm_interval.mul_f64(warm_n as f64);
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
    }
    // Let warm-up traffic settle, then reset every counter it touched.
    std::thread::sleep(Duration::from_millis(300));
    submit_times.lock().clear();
    latencies.lock().clear();
    committed.store(0, Ordering::Relaxed);
    aborted.store(0, Ordering::Relaxed);
    let _ = bench.net.nodes()[0].metrics().take();

    // Paced submission: one generator thread per organization's client,
    // each offering an equal share on its own absolute schedule (no drift
    // under slow submission), so a synchronous `submit` on one client
    // does not cap the offered load. Lane `l` of `k` numbers its
    // transactions l, l + k, l + 2k, …
    let start = Instant::now();
    let interval = Duration::from_secs_f64(clients.len() as f64 / arrival_tps.max(1.0));
    let lane_count = clients.len() as u64;
    let submitted: u64 = std::thread::scope(|s| {
        let lanes: Vec<_> = (clients.iter().zip(0u64..))
            .map(|(client, lane)| {
                let submit_times = &submit_times;
                s.spawn(move || {
                    let mut sent = 0u64;
                    while start.elapsed() < duration {
                        let args = bench.workload.args(sent * lane_count + lane);
                        // A refused submission counts as offered load
                        // that never commits.
                        if let Ok(p) = client.call(bench.workload.contract()).args(args).submit() {
                            submit_times.lock().insert(p.id, Instant::now());
                        }
                        sent += 1;
                        let next = start + interval.mul_f64(sent as f64);
                        std::thread::sleep(next.saturating_duration_since(Instant::now()));
                    }
                    sent
                })
            })
            .collect();
        lanes
            .into_iter()
            .map(|lane| lane.join().expect("generator thread"))
            .sum()
    });
    let offered_duration = start.elapsed();
    // Steady-state throughput: commits observed within the offered window
    // only (commits during the drain would overstate a saturated system).
    let committed_in_window = committed.load(Ordering::Relaxed);
    // The micro-metrics cover the same window, so a saturated run's rates
    // are not diluted by the drain.
    let micro = bench.net.nodes()[0].metrics().take();

    // Drain: wait for in-flight transactions to resolve (bounded).
    let drain_deadline = Instant::now() + Duration::from_secs(15);
    while !submit_times.lock().is_empty() && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }

    let committed = committed.load(Ordering::Relaxed);
    let aborted = aborted.load(Ordering::Relaxed);
    let mut lat = latencies.lock().clone();
    lat.sort_by(|a, b| a.total_cmp(b));
    let avg = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let pct = |p: usize| match lat.len() {
        0 => 0.0,
        n => lat[(n * p / 100).min(n - 1)],
    };

    Ok(RunStats {
        submitted,
        committed,
        aborted,
        duration_s: offered_duration.as_secs_f64(),
        throughput: committed_in_window as f64 / offered_duration.as_secs_f64(),
        avg_latency_ms: avg,
        p50_latency_ms: pct(50),
        p95_latency_ms: pct(95),
        micro,
    })
}

/// Closed-loop batch driver: sign and submit `count` workload
/// transactions as one [`bcrdb_core::PendingBatch`] per client and wait
/// for every outcome. Replaces the open-coded per-transaction channel
/// loops for closed workloads (convergence tests, ablation baselines).
/// Returns `(committed, aborted)`.
pub fn run_batch(
    bench: &BenchNetwork,
    count: u64,
    id_base: u64,
    timeout: Duration,
) -> Result<(u64, u64)> {
    let orgs: Vec<String> = bench.net.config().orgs.clone();
    let clients: Vec<_> = orgs
        .iter()
        .map(|o| bench.net.client(o, "bench-batch").expect("client"))
        .collect();
    // Round-robin the batch across organizations, one submit_all each.
    let mut batches = Vec::with_capacity(clients.len());
    for (i, client) in clients.iter().enumerate() {
        let calls: Vec<bcrdb_core::Call> = (0..count)
            .filter(|n| (*n as usize) % clients.len() == i)
            .map(|n| {
                bcrdb_core::Call::new(bench.workload.contract())
                    .args(bench.workload.args(id_base + n))
            })
            .collect();
        if !calls.is_empty() {
            batches.push(client.submit_all(calls)?);
        }
    }
    let mut committed = 0;
    let mut aborted = 0;
    for batch in batches {
        for n in batch.wait_all(timeout)? {
            match n.status {
                TxStatus::Committed => committed += 1,
                TxStatus::Aborted(_) => aborted += 1,
            }
        }
    }
    Ok((committed, aborted))
}

/// Standard benchmark network configuration: three organizations, Sim
/// signatures (the protocol, not our hash-based crypto, is under test —
/// see DESIGN.md), 8 executor threads, instant local network unless the
/// experiment models a deployment.
pub fn bench_config(
    flow: bcrdb_txn::ssi::Flow,
    block_size: usize,
    block_timeout: Duration,
) -> NetworkConfig {
    let mut cfg = NetworkConfig::quick(&["org1", "org2", "org3"], flow);
    cfg.ordering = bcrdb_ordering::OrderingConfig::kafka(3, block_size, block_timeout);
    cfg.executor_threads = 8;
    cfg
}
