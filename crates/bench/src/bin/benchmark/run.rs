//! One run of one workload: set-up (repeated, so `setup_s` is a median),
//! the timed phases in their fixed order on one network, convergence,
//! the correctness gate, and the metric arithmetic.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bcrdb_core::Client;
use bcrdb_node::MetricsSnapshot;

use crate::check;
use crate::faults::{drive_faults, unavailable_ms, FaultLog};
use crate::host::{await_quiet_host, cpu_ticks, peak_rss_mb, BlockWatch, NOISY_SHARE};
use crate::load::{closed_loop, open_loop, OpResult, PhaseOutcome};
use crate::names;
use crate::stats::{median, percentile, slice_median, steady_rate, Timed};
use crate::sut::{Sut, OP_TIMEOUT};
use crate::trace;
use crate::workload::{
    fault_schedule, op_stream, seed_calls, Mix, Op, Spec, Storage, Transport, SUBMITTERS,
};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub spec: &'static Spec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds, split over the phases by `Spec::shares`.
    pub seconds: f64,
    /// Traced run: boundary observations, spans and layer probes instead
    /// of the end-to-end metrics.
    pub traced: bool,
    /// Where to write the spans of a traced run.
    pub spans_path: Option<PathBuf>,
    /// Where durable state may be written (removed afterwards).
    pub data_dir: PathBuf,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that never committed.
    pub failed: u64,
    /// Metric values by name (units live in [`crate::names`]).
    pub metrics: BTreeMap<String, f64>,
    /// Notes for the human reader (validity of the run).
    pub notes: Vec<String>,
}

impl Report {
    /// Record the value of a listed metric.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(names::is_listed(name), "{name} is not a listed metric");
        self.metrics.insert(name.to_string(), value);
    }

    /// The recorded value, 0 when the metric does not apply.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// Longest a run waits for the hypervisor to give the guest its CPUs back
/// before it measures anyway (the driver allows a run 180 s in all).
const QUIET_HOST_WAIT: Duration = Duration::from_secs(60);
/// Seeding calls per `submit_all` during set-up.
const SEED_BATCH: usize = 500;
/// Most set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// No further set-up is started once this many seconds went into them
/// (one long set-up is as steady as three short ones).
const SETUP_BUDGET_S: f64 = 3.0;
/// Length of the slices whose median is reported.
const SLICE_S: f64 = 0.5;
/// A slice needs this many samples to vote.
const MIN_PER_SLICE: usize = 40;
/// `capacity_tps` leaves out this many batch completions at either end of
/// the closed loop: the ramp while one batch per connection slot goes out,
/// and the drain when the operation list runs dry.
const CAPACITY_RAMP: usize = SUBMITTERS * 2 - 1;

/// The phases, in the order they run; the discriminant is also the
/// generator's stream id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseId {
    /// Warm-up, inside set-up (untimed).
    Warm = 0,
    /// Open loop at the `low` rate.
    Low = 1,
    /// Open loop at the `high` rate.
    High = 2,
    /// Closed loop.
    Capacity = 3,
    /// Open loop at the `low` rate under the fault schedule.
    Faults = 4,
    /// The `low` phase again with spans (traced runs only).
    LowTraced = 5,
}

impl PhaseId {
    fn name(self) -> &'static str {
        match self {
            PhaseId::Warm => "warm-up",
            PhaseId::Low => "low",
            PhaseId::High => "high",
            PhaseId::Capacity => "capacity",
            PhaseId::Faults => "faults",
            PhaseId::LowTraced => "low-traced",
        }
    }
}

/// One timed phase: what was generated and what came of it.
pub struct Phase {
    /// Which phase.
    pub id: PhaseId,
    /// The generated operations.
    pub ops: Vec<Op>,
    /// What the load generator observed.
    pub outcome: PhaseOutcome,
}

/// Everything the timed part of a run produced.
pub struct Measured {
    /// The timed phases in the order they ran.
    pub phases: Vec<Phase>,
    /// Node 0's metrics window at the start and over the `high` phase.
    pub pre_high: MetricsSnapshot,
    /// See `pre_high`.
    pub high_window: MetricsSnapshot,
    /// What the fault driver saw (`oe-bft-faults`).
    pub fault_log: FaultLog,
    /// Block sightings (traced runs).
    pub blocks: Vec<(u64, f64, usize)>,
    /// View changes the ordering service installed over the whole run.
    pub view_changes: u64,
}

impl Measured {
    /// The phase `id`, if it ran.
    pub fn phase(&self, id: PhaseId) -> Option<&PhaseOutcome> {
        self.phases.iter().find(|p| p.id == id).map(|p| &p.outcome)
    }
}

/// A deployment that finished set-up: warm, with its load connections.
struct Ready {
    sut: Sut,
    clients: Vec<Client>,
    /// What the warm-up committed (the correctness gate counts its rows).
    warm: check::Tally,
}

/// Build the deployment, seed it and warm it up.
fn set_up(opts: &Options, attempt: usize, epoch: Instant) -> Result<Ready, String> {
    let spec = opts.spec;
    let dir = opts.data_dir.join(format!("setup{attempt}"));
    let _ = std::fs::remove_dir_all(&dir);
    let sut = Sut::build(spec, &dir).map_err(|e| format!("building the network: {e}"))?;
    let clients: Vec<Client> = (0..SUBMITTERS)
        .map(|i| sut.client(i))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connecting client: {e}"))?;

    if spec.mix == Mix::Mixed {
        let calls = seed_calls(opts.seed);
        let per_client = calls.len().div_ceil(clients.len());
        let failed = Mutex::new(None::<String>);
        std::thread::scope(|s| {
            for (client, share) in clients.iter().zip(calls.chunks(per_client)) {
                let failed = &failed;
                s.spawn(move || {
                    for chunk in share.chunks(SEED_BATCH) {
                        let outcome = client
                            .submit_all(chunk.to_vec())
                            .and_then(|b| b.wait_committed_all(OP_TIMEOUT));
                        if let Err(e) = outcome {
                            *failed.lock().expect("seed error slot") = Some(e.to_string());
                            return;
                        }
                    }
                });
            }
        });
        if let Some(e) = failed.into_inner().expect("seed error slot") {
            return Err(format!("seeding: {e}"));
        }
        // Each client only heard its own node commit its own share.
        sut.converge().map_err(|e| format!("seeding: {e}"))?;
    }

    // Warm-up: one second of the `low` rate, so statement caches, worker
    // threads and the first blocks exist before anything is timed; on the
    // paged workload, until the first spill cycle has written pages.
    let mut warm = check::Tally::default();
    let mut round = 0u64;
    loop {
        let count = if round == 0 {
            spec.low_rate as usize
        } else {
            200
        };
        let ops = op_stream(
            spec.mix,
            opts.seed,
            PhaseId::Warm as u64 + 100 * round,
            count,
        );
        let outcome = open_loop(&clients, &ops, spec.low_rate, epoch, false);
        if outcome.failed() > 0 {
            return Err(format!(
                "warm-up: {} operations failed (first: {})",
                outcome.failed(),
                outcome.first_failure.as_deref().unwrap_or("a read")
            ));
        }
        warm.add(&ops, &outcome, false);
        let spilled = sut.nodes()[0]
            .paged_store()
            .is_none_or(|p| p.pages_written() > 0);
        if spilled {
            break;
        }
        round += 1;
        if round > 100 {
            return Err("warm-up: no spill cycle after 20,000 extra operations".into());
        }
    }
    sut.converge().map_err(|e| format!("warm-up: {e}"))?;
    Ok(Ready { sut, clients, warm })
}

/// Latencies of the committed operations of a phase by due time relative
/// to the phase start; reads or writes.
fn timed(phase: &PhaseOutcome, reads: bool) -> Vec<Timed> {
    phase
        .results
        .iter()
        .filter(|r| r.ok && r.read == reads)
        .map(|r| Timed {
            due_s: r.due_s - phase.start_s,
            value: r.latency_ms(),
        })
        .collect()
}

/// Median over slices of the per-slice percentile; thin slices vote only
/// when no slice is thick enough.
fn slice_pct(samples: &[Timed], pct: f64) -> f64 {
    slice_median(samples, SLICE_S, pct, MIN_PER_SLICE)
        .or_else(|| slice_median(samples, SLICE_S, pct, 1))
        .unwrap_or(0.0)
}

/// Run the timed phases on a warm deployment.
fn run_phases(
    opts: &Options,
    sut: &Sut,
    clients: &[Client],
    epoch: Instant,
) -> Result<Measured, String> {
    let spec = opts.spec;
    let phase_s = |share: usize| opts.seconds * spec.shares[share];
    let count = |rate: f64, share: usize| ((rate * phase_s(share)) as usize).max(SUBMITTERS * 2);
    let stream = |id: PhaseId, n: usize| op_stream(spec.mix, opts.seed, id as u64, n);
    let node_window = || sut.nodes()[0].metrics_report();
    let watch = opts.traced.then(|| BlockWatch::start(sut, epoch));
    let mut phases = Vec::new();
    let mut open = |id: PhaseId, ops: Vec<Op>, rate: f64, traced: bool| {
        let outcome = open_loop(clients, &ops, rate, epoch, traced);
        phases.push(Phase { id, ops, outcome });
    };

    // low (open loop), untraced; a traced run repeats it with spans.
    let low_count = count(spec.low_rate, 0);
    open(
        PhaseId::Low,
        stream(PhaseId::Low, low_count),
        spec.low_rate,
        false,
    );
    if opts.traced {
        let ops = stream(PhaseId::LowTraced, low_count);
        open(PhaseId::LowTraced, ops, spec.low_rate, true);
    }
    if spec.storage == Storage::DurableFsync {
        check::restart_keeps_state(sut)?;
    }

    // high (open loop).
    let pre_high = node_window();
    let ops = stream(PhaseId::High, count(spec.high_rate, 1));
    open(PhaseId::High, ops, spec.high_rate, opts.traced);
    let high_window = node_window();

    // capacity (closed loop).
    let ops = stream(
        PhaseId::Capacity,
        count(spec.capacity_ref, 2).max(SUBMITTERS * spec.batch * 4),
    );
    let outcome = closed_loop(clients, &ops, spec.batch, epoch);
    phases.push(Phase {
        id: PhaseId::Capacity,
        ops,
        outcome,
    });

    // faults (open loop at the low rate under the schedule).
    let mut fault_log = FaultLog::default();
    if spec.bft_faults {
        let ops = stream(PhaseId::Faults, count(spec.low_rate, 3));
        let schedule = fault_schedule(opts.seed, phase_s(3));
        // Matches the lead `open_loop` gives its own schedule.
        let phase_start = Instant::now() + crate::load::START_LEAD;
        let load_done = AtomicBool::new(false);
        let outcome = std::thread::scope(|s| {
            let driver = s.spawn(|| drive_faults(sut, &schedule, phase_start, epoch, &load_done));
            let outcome = open_loop(clients, &ops, spec.low_rate, epoch, opts.traced);
            load_done.store(true, Ordering::Relaxed);
            fault_log = driver.join().expect("fault driver");
            outcome
        });
        phases.push(Phase {
            id: PhaseId::Faults,
            ops,
            outcome,
        });
        if !fault_log.errors.is_empty() {
            return Err(format!("fault schedule: {}", fault_log.errors.join("; ")));
        }
    }

    Ok(Measured {
        phases,
        pre_high,
        high_window,
        fault_log,
        blocks: watch.map(|w| w.snapshot()).unwrap_or_default(),
        view_changes: sut.ordering().stats_snapshot().view_changes,
    })
}

/// Run the workload and report.
pub fn run(opts: &Options, process_start: Instant) -> Result<Report, String> {
    let spec = opts.spec;
    let epoch = process_start;
    let held_back = await_quiet_host(QUIET_HOST_WAIT);
    let ticks_before = cpu_ticks();

    // Set-up, repeated so the reported value is a median.
    let mut setup_times: Vec<f64> = Vec::new();
    let Ready {
        sut,
        clients,
        warm: mut tally,
    } = loop {
        let t0 = Instant::now();
        let ready = set_up(opts, setup_times.len(), epoch)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        let enough =
            setup_times.len() >= SETUPS || setup_times.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if opts.traced || enough {
            break ready;
        }
        ready.sut.shutdown();
    };

    let measured = run_phases(opts, &sut, &clients, epoch)?;

    // Converge, then the correctness gate.
    sut.converge().map_err(|e| format!("convergence: {e}"))?;
    let disk_bytes = sut.disk_bytes();
    for phase in &measured.phases {
        tally.add(&phase.ops, &phase.outcome, true);
    }
    check::gate(&sut, spec, &tally)?;

    let mut report = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        ..Report::default()
    };
    let low = measured.phase(PhaseId::Low).expect("low phase ran");
    let high = measured.phase(PhaseId::High).expect("high phase ran");
    let capacity = measured.phase(PhaseId::Capacity).expect("capacity ran");
    let capacity_tps = steady_rate(&capacity.batch_events, CAPACITY_RAMP).unwrap_or(0.0);
    let low_p50 = slice_pct(&timed(low, false), 50.0);

    if !opts.traced {
        report.set("setup_s", median(&setup_times).unwrap_or(0.0));
        report.set("commit_low_p50_ms", low_p50);
        report.set("commit_low_p95_ms", slice_pct(&timed(low, false), 95.0));
        report.set("commit_high_p50_ms", slice_pct(&timed(high, false), 50.0));
        report.set("commit_high_p95_ms", slice_pct(&timed(high, false), 95.0));
        report.set("peak_rss_mb", peak_rss_mb());
        report.notes.push(format!(
            "capacity_tps {capacity_tps:.1} tx/s (ungated; the traced run reports it)"
        ));
    } else {
        report.set("capacity_tps", capacity_tps);
        report.set("query_p50_ms", slice_pct(&timed(high, true), 50.0));
        report.set("query_p95_ms", slice_pct(&timed(high, true), 95.0));
        report.set(
            "failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        report.set(
            "disk_bytes_per_tx",
            disk_bytes as f64 / (tally.inserts + tally.transfers).max(1) as f64,
        );
        if let Some(faults) = measured.phase(PhaseId::Faults) {
            let log = &measured.fault_log;
            report.set(
                "unavailable_ms",
                unavailable_ms(&faults.results, &log.stalls_s),
            );
            report.set("catchup_ms", log.catchup_ms);
            report.set(
                "ordering.view_change_ms",
                median(&log.view_change_ms).unwrap_or(0.0),
            );
            report.set("node.sync_rounds", log.sync_rounds);
            report.set("node.catchup_blocks_per_s", log.catchup_blocks_per_s);
        }
        let all: Vec<f64> = [low, high]
            .iter()
            .flat_map(|p| p.results.iter().filter(|r| r.ok && !r.read))
            .map(OpResult::latency_ms)
            .collect();
        report.set(
            "core.commit_p99_all_ms",
            percentile(&all, 99.0).unwrap_or(0.0),
        );
        trace::boundary_metrics(&mut report, &measured);

        let traced_low = measured.phase(PhaseId::LowTraced).expect("traced low ran");
        let mut spans = trace::tx_spans(traced_low, &measured.blocks);
        let traced_p50 = slice_pct(&timed(traced_low, false), 50.0);
        report.set(
            "trace.overhead_share",
            (traced_p50 - low_p50) / low_p50.max(1e-9),
        );
        report.set("trace.unaccounted_share", trace::unaccounted_share(&spans));
        crate::probes::run_all(&mut report, spec, opts, &mut spans, epoch);
        if let Some(path) = &opts.spans_path {
            trace::write_spans(path, spec.name, opts.seed, &spans)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }

    if held_back > Duration::from_secs(1) {
        report.notes.push(format!(
            "the run waited {:.0} s for the hypervisor to return the CPUs",
            held_back.as_secs_f64()
        ));
    }
    validity_notes(&mut report, opts, &measured, ticks_before, capacity_tps);
    sut.shutdown();
    let _ = std::fs::remove_dir_all(&opts.data_dir);
    Ok(report)
}

/// Notes on whether the run measured bcrdb: the host, failed operations,
/// and the generator's own lateness and headroom.
fn validity_notes(
    report: &mut Report,
    opts: &Options,
    measured: &Measured,
    ticks_before: Option<(f64, f64)>,
    capacity_tps: f64,
) {
    let spec = opts.spec;
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, cpu_ticks()) {
        let share = (steal1 - steal0) / (total1 - total0).max(1.0);
        if opts.traced {
            report.set("gen.cpu_steal_share", share);
        }
        if share > NOISY_SHARE {
            report.notes.push(format!(
                "NOISY host: the hypervisor stole {:.1} % of the CPU time during this run",
                share * 100.0
            ));
        }
    }
    for phase in &measured.phases {
        let (name, outcome) = (phase.id.name(), &phase.outcome);
        if let Some(why) = &outcome.first_failure {
            report.notes.push(format!(
                "phase {name}: {} of {} operations failed; first: {why}",
                outcome.failed(),
                outcome.results.len()
            ));
        }
        if outcome.wake_late_ms.is_empty() {
            continue;
        }
        // Lateness the generator and the scheduler own: only operations
        // the submitter slept for. An operation is also late when the
        // previous synchronous `submit` on its connection had not
        // returned, which is the system's doing and already part of the
        // measured latency.
        let rate = if phase.id == PhaseId::High {
            spec.high_rate
        } else {
            spec.low_rate
        };
        let interval_ms = SUBMITTERS as f64 * 1000.0 / rate;
        let wake_p99 = percentile(&outcome.wake_late_ms, 99.0).unwrap_or(0.0);
        let latencies: Vec<f64> = outcome
            .results
            .iter()
            .filter(|r| r.ok)
            .map(OpResult::latency_ms)
            .collect();
        let commit_p50 = percentile(&latencies, 50.0).unwrap_or(0.0);
        if wake_p99 > interval_ms.max(0.25 * commit_p50) {
            report.notes.push(format!(
                "INVALID phase {name}: the generator woke {wake_p99:.3} ms late at p99, more than \
                 one send interval ({interval_ms:.3} ms) and a quarter of the median commit \
                 latency ({commit_p50:.3} ms); the generator, not bcrdb, shaped this phase"
            ));
        }
    }
    if opts.traced {
        let dry_tps = report.get("gen.dry_tps");
        if spec.transport == Transport::InProcess && dry_tps < 2.0 * capacity_tps {
            report.notes.push(format!(
                "INVALID capacity: the generator alone reaches {dry_tps:.0} ops/s, less than \
                 twice capacity_tps ({capacity_tps:.0}); the generator, not bcrdb, was measured"
            ));
        }
    }
}
