//! `reproduce` — the paper's evaluation (§5) as one table of experiments.
//!
//! Each experiment is `(id, the paper's claim, run → rows, shape checks
//! over those rows)`. The binary prints, per experiment, the claim, the
//! measured rows, every check and a `match`/`mismatch` verdict;
//! `docs/REPRODUCTION.md` is that output, committed, with the measured
//! reason beside every mismatch.
//!
//! ```text
//! cargo run --release -p bcrdb-bench --bin reproduce            # all, ≈ 6 min
//! cargo run --release -p bcrdb-bench --bin reproduce -- table3 fig6
//! ```
//!
//! Positional experiment names select a subset; there are no flags and
//! no environment knobs, and every row runs at one scale. Both flows
//! always run on the same transport (in-process clients, the simulated
//! peer/orderer network), and nothing sleeps in place of work: an
//! experiment whose claim needs execution cost runs the complex-join
//! contract.

use std::time::{Duration, Instant};

use bcrdb_bench::contracts::{Workload, WorkloadKind, GROUPS};
use bcrdb_bench::harness::{
    bench_config, run_batch, run_open_loop, seed_genesis_rows, BenchNetwork, RunStats,
};
use bcrdb_chain::blockstore::TAIL_BLOCKS;
use bcrdb_chain::ledger::LEDGER_TABLE_NAME;
use bcrdb_chain::tx::{Payload, Transaction};
use bcrdb_common::value::Value;
use bcrdb_core::{Network, NetworkConfig};
use bcrdb_crypto::identity::{CertificateRegistry, KeyPair, Scheme};
use bcrdb_engine::PreparedQuery;
use bcrdb_network::NetProfile;
use bcrdb_ordering::{OrderingConfig, OrderingService};
use bcrdb_txn::ssi::Flow;

/// Measured window of every open-loop row.
const RUN: Duration = Duration::from_secs(3);
/// Block timeout of every network.
const CUT: Duration = Duration::from_millis(250);
/// Reference rows seeded for the complex contracts.
const SEED_ROWS: usize = 4_000;
/// An offered load above what the complex contracts sustain: the
/// committed rate of such a row is the peak.
const COMPLEX_SATURATING: f64 = 4_500.0;
/// The same for the simple contract. Not higher: past the peak the
/// generator threads only take the host's two hardware threads away
/// from the nodes.
const SIMPLE_SATURATING: f64 = 24_000.0;
/// An offered load below the complex-join peak of either flow, for the
/// experiments that ask what else moves throughput or latency.
const BELOW_JOIN_PEAK: f64 = 600.0;

const FLOWS: [(Flow, &str); 2] = [
    (Flow::OrderThenExecute, "OE"),
    (Flow::ExecuteOrderParallel, "EO"),
];

// ------------------------------------------------------------- the table

/// Measured rows: a key per row, one value per column.
struct Table {
    columns: &'static [&'static str],
    rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    fn new(columns: &'static [&'static str]) -> Table {
        let rows = Vec::new();
        Table { columns, rows }
    }

    fn push(&mut self, key: String, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row {key}");
        self.rows.push((key, values));
    }

    /// The value at (`key`, `column`); both are spelled by the experiment
    /// that built the table, so a miss is a bug in it.
    fn get(&self, key: &str, column: &str) -> f64 {
        let col = self.columns.iter().position(|c| *c == column);
        let row = self.rows.iter().find(|(k, _)| k == key);
        match (row, col) {
            (Some((_, values)), Some(col)) => values[col],
            _ => panic!("no cell ({key}, {column})"),
        }
    }

    fn print(&self) {
        let key_width = self.rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        print!("  {:<key_width$}", "");
        self.columns.iter().for_each(|c| print!(" {c:>8}"));
        println!();
        for (key, values) in &self.rows {
            print!("  {key:<key_width$}");
            for (v, column) in values.iter().zip(self.columns) {
                let w = column.len().max(8);
                match v.abs() {
                    a if a >= 100.0 => print!(" {v:>w$.0}"),
                    a if a >= 10.0 => print!(" {v:>w$.1}"),
                    _ => print!(" {v:>w$.2}"),
                }
            }
            println!();
        }
    }
}

/// One shape check over a table.
struct Check {
    ok: bool,
    what: String,
}

fn check(ok: bool, what: String) -> Check {
    Check { ok, what }
}

struct Experiment {
    id: &'static str,
    claim: &'static str,
    run: fn() -> Table,
    shape: fn(&Table) -> Vec<Check>,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig5",
        claim: "Fig. 5, simple contract: throughput follows the arrival rate up to a peak and \
                latency climbs past it; below the peak larger blocks cost latency; EO's peak is \
                about 1.5x OE's (2700 vs 1800 tps).",
        run: fig5,
        shape: fig5_shape,
    },
    Experiment {
        id: "fig6",
        claim: "Fig. 6, complex-join contract: tet is ~160x the simple contract's, so the peak \
                falls to ~22% of simple's and bet dominates bpt; EO peaks at about 2x OE because \
                execution overlaps ordering, and its bet is below OE's at equal block size.",
        run: fig6,
        shape: fig6_shape,
    },
    Experiment {
        id: "fig7",
        claim: "Fig. 7, complex-group contract at block size 100: peaks about 1.75x (OE) and \
                1.6x (EO) above complex-join, since grouping one indexed region is cheaper than \
                the two-table join.",
        run: fig7,
        shape: fig7_shape,
    },
    Experiment {
        id: "fig8a",
        claim: "Fig. 8(a), complex-join on a multi-cloud WAN vs one LAN: the WAN costs commit \
                latency (about +100 ms), not throughput (-4% at block size 100).",
        run: fig8a,
        shape: fig8a_shape,
    },
    Experiment {
        id: "fig8b",
        claim: "Fig. 8(b), ordering service alone at 3000 tps offered: Kafka-style ordering stays \
                flat as orderers are added; BFT falls (3000 -> ~650 tps from 4 to 32 orderers).",
        run: fig8b,
        shape: fig8b_shape,
    },
    Experiment {
        id: "table3",
        claim: "Table 3: provenance queries are plain SQL over HISTORY(table) joined with the \
                ledger; every historic version of a row stays queryable with who wrote it.",
        run: table3,
        shape: table3_shape,
    },
    Experiment {
        id: "table4",
        claim: "Table 4, OE micro-metrics near saturation: brr and bpr fall in proportion to \
                block size; one block of 500 costs less than 50 blocks of 10; bet is several \
                times bct; su is ~100%.",
        run: table4,
        shape: table4_shape,
    },
    Experiment {
        id: "table5",
        claim: "Table 5, EO micro-metrics: bet is below OE's at equal block size (execution began \
                before the block arrived), and transactions lost in forwarding show up as mt, \
                executed by the block processor when their block arrives.",
        run: table5,
        shape: table5_shape,
    },
    Experiment {
        id: "eth_serial",
        claim: "Sec. 5.1: executing and committing one transaction at a time (Ethereum-style) \
                reaches ~40% of the SSI-parallel OE throughput (800 vs 1800 tps).",
        run: eth_serial,
        shape: eth_serial_shape,
    },
    Experiment {
        id: "contention",
        claim: "Sec. 3.3.3/4.3: concurrent writers of one row never block each other during \
                execution; the block-order winner commits and the rest abort, so aborts track \
                the hot share while the rate of processed transactions holds.",
        run: contention,
        shape: contention_shape,
    },
    Experiment {
        id: "memory",
        claim: "Sec. 4.2: pgBlockstore is an append-only file beside the database, so what a node \
                keeps in memory per transaction is its rows, its ledger entry and their index \
                entries; the chain itself costs a bounded number of resident blocks however long \
                it grows.",
        run: memory,
        shape: memory_shape,
    },
    Experiment {
        id: "prepared",
        claim: "Sec. 4.3: the client interface is libpq's, so a prepared statement is parsed \
                once; reuse beats re-parsing where parsing dominates (point reads) and does not \
                lose where execution does (the complex join).",
        run: prepared,
        shape: prepared_shape,
    },
    Experiment {
        id: "cut",
        claim:
            "Not in the paper, which cuts on size or timeout only (Sec. 4.4) and so has to tune \
                block size to the arrival rate (Fig. 5): cutting as soon as the nodes are idle \
                takes block size out of the latency below the knee, and leaves it as the cap \
                that saturated blocks still fill.",
        run: cut,
        shape: cut_shape,
    },
];

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !EXPERIMENTS.iter().any(|e| e.id == *w))
    {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!(
            "reproduce: unknown experiment {unknown}; known: {}",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: {cores} hardware threads; every open-loop row measures {} s after a warm-up",
        RUN.as_secs()
    );
    let started = Instant::now();
    for e in EXPERIMENTS {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == e.id) {
            continue;
        }
        println!("\n== {} ==", e.id);
        println!("claim: {}", e.claim);
        let table = (e.run)();
        println!("rows:");
        table.print();
        let checks = (e.shape)(&table);
        println!("checks:");
        for c in &checks {
            println!("  [{}] {}", if c.ok { "ok" } else { "NO" }, c.what);
        }
        let verdict = if checks.iter().all(|c| c.ok) {
            "match"
        } else {
            "mismatch"
        };
        println!("verdict: {verdict}");
    }
    println!("\ntotal: {:.0} s", started.elapsed().as_secs_f64());
}

// ------------------------------------------------- open-loop experiments

/// Columns of every open-loop row, in the paper's vocabulary (Tables 4
/// and 5) plus the whole-block split of where the time goes:
///
/// * `dist_ms` = 1000 / brr, the interval between block arrivals at the
///   node: the pace at which submit → order → cut → deliver hands it work;
/// * `bet_ms`, the node's wait at the head of its pipeline for the
///   block's executions, and `commit_ms`, its serial commit and
///   post-commit stages: what the node then spends on the block.
///
/// `bpt_ms` runs from a block's admission to the end of its post-commit
/// work. The node admits up to four blocks, so under load `bpt - bet`
/// (the paper's bct) is mostly time queued behind earlier blocks;
/// `commit_ms` is the measured stage time. `su` = bpr x bpt, capped at 1.
const LOAD: &[&str] = &[
    "offered",
    "tput",
    "avg_ms",
    "p95_ms",
    "abort%",
    "brr",
    "bpr",
    "dist_ms",
    "bpt_ms",
    "bet_ms",
    "commit_ms",
    "tet_us",
    "mt",
    "su",
];

fn load_row(s: &RunStats) -> Vec<f64> {
    let (m, resolved) = (&s.micro, (s.committed + s.aborted).max(1));
    vec![
        s.submitted as f64 / s.duration_s,
        s.throughput,
        s.avg_latency_ms,
        s.p95_latency_ms,
        100.0 * s.aborted as f64 / resolved as f64,
        m.brr,
        m.bpr,
        if m.brr > 0.0 { 1000.0 / m.brr } else { 0.0 },
        m.bpt_ms,
        m.bet_ms,
        m.commit_stage_ms + m.post_stage_ms,
        m.tet_ms * 1000.0,
        m.mt_per_s,
        m.su,
    ]
}

/// A fresh three-organization network running `kind`, tuned by `tweak`.
fn network(
    flow: Flow,
    block_size: usize,
    kind: WorkloadKind,
    tweak: impl FnOnce(&mut NetworkConfig),
) -> BenchNetwork {
    let mut cfg = bench_config(flow, block_size, CUT);
    tweak(&mut cfg);
    BenchNetwork::build(cfg, Workload::new(kind, SEED_ROWS)).expect("network")
}

/// One open-loop row on a fresh network.
fn measure(
    flow: Flow,
    block_size: usize,
    kind: WorkloadKind,
    tps: f64,
    tweak: impl FnOnce(&mut NetworkConfig),
) -> Vec<f64> {
    let bench = network(flow, block_size, kind, tweak);
    let stats = run_open_loop(&bench, tps, RUN).expect("run");
    bench.net.shutdown();
    load_row(&stats)
}

fn no_tweak(_: &mut NetworkConfig) {}

/// `a` is at least `factor` times `b`, spelled for a check line.
fn at_least(label: &str, a: f64, factor: f64, b: f64) -> Check {
    check(
        a >= factor * b,
        format!("{label}: {a:.2} >= {factor} x {b:.2}"),
    )
}

fn fig5() -> Table {
    let mut t = Table::new(LOAD);
    for (flow, name) in FLOWS {
        for bs in [10, 100, 500] {
            for rate in [1_000.0, 4_000.0, SIMPLE_SATURATING] {
                let row = measure(flow, bs, WorkloadKind::Simple, rate, no_tweak);
                t.push(format!("{name} bs={bs} @{rate}"), row);
            }
        }
    }
    t
}

fn fig5_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut peaks = Vec::new();
    for (_, flow) in FLOWS {
        let cell = |bs: usize, rate: f64, col: &str| t.get(&format!("{flow} bs={bs} @{rate}"), col);
        checks.push(at_least(
            &format!("{flow}: below the peak throughput follows the arrival rate (bs=100 @1000)"),
            cell(100, 1_000.0, "tput"),
            0.9,
            cell(100, 1_000.0, "offered"),
        ));
        checks.push(at_least(
            &format!("{flow}: p95 latency climbs past the peak (bs=100, saturating vs @1000)"),
            cell(100, SIMPLE_SATURATING, "p95_ms"),
            2.0,
            cell(100, 1_000.0, "p95_ms"),
        ));
        checks.push(at_least(
            &format!("{flow}: below the peak larger blocks cost latency (@1000, bs=500 vs bs=10)"),
            cell(500, 1_000.0, "avg_ms"),
            2.0,
            cell(10, 1_000.0, "avg_ms"),
        ));
        let rows = t.rows.iter().filter(|(k, _)| k.starts_with(flow));
        peaks.push(rows.map(|(k, _)| t.get(k, "tput")).fold(0.0, f64::max));
    }
    checks.push(at_least(
        "EO peak vs OE peak (paper 1.5x)",
        peaks[1],
        1.2,
        peaks[0],
    ));
    checks
}

/// Rates of the `cut` experiment: two below every block size's knee and
/// one above.
const CUT_RATES: [f64; 3] = [500.0, 2_000.0, SIMPLE_SATURATING];

fn cut() -> Table {
    let mut t = Table::new(&[
        "offered", "tput", "p50_ms", "p95_ms", "tx/blk", "bpr", "su", "by_size", "by_timer",
        "by_idle",
    ]);
    for bs in [10, 100, 500] {
        for rate in CUT_RATES {
            let bench = network(Flow::OrderThenExecute, bs, WorkloadKind::Simple, no_tweak);
            let s = run_open_loop(&bench, rate, RUN).expect("run");
            // Whole run (warm-up and drain included), unlike the
            // window the other columns cover.
            let cuts = bench.net.ordering().stats_snapshot();
            bench.net.shutdown();
            t.push(
                format!("OE bs={bs} @{rate}"),
                vec![
                    s.submitted as f64 / s.duration_s,
                    s.throughput,
                    s.p50_latency_ms,
                    s.p95_latency_ms,
                    s.throughput / s.micro.bpr.max(1e-9),
                    s.micro.bpr,
                    s.micro.su,
                    cuts.cut_size as f64,
                    cuts.cut_timeout as f64,
                    cuts.cut_idle as f64,
                ],
            );
        }
    }
    t
}

fn cut_shape(t: &Table) -> Vec<Check> {
    let cell = |bs: usize, rate: f64, col: &str| t.get(&format!("OE bs={bs} @{rate}"), col);
    let mut checks = Vec::new();
    for rate in &CUT_RATES[..2] {
        let p50s = [10, 100, 500].map(|bs| cell(bs, *rate, "p50_ms"));
        let (lo, hi) = (
            p50s.iter().copied().fold(f64::MAX, f64::min),
            p50s.iter().copied().fold(0.0, f64::max),
        );
        checks.push(check(
            hi <= 2.0 * lo,
            format!("@{rate}: p50 within 2x across block sizes 10/100/500: {p50s:.2?}"),
        ));
        let quarter = CUT.as_secs_f64() * 1000.0 / 4.0;
        checks.push(check(
            hi < quarter,
            format!("@{rate}: slowest p50 {hi:.2} ms under a quarter of the timer ({quarter} ms)"),
        ));
    }
    for bs in [10, 100, 500] {
        let sat = |col: &str| cell(bs, SIMPLE_SATURATING, col);
        checks.push(at_least(
            &format!("bs={bs}: blocks grow with the load (tx/blk, saturating vs @2000)"),
            sat("tx/blk"),
            3.0,
            cell(bs, 2_000.0, "tx/blk"),
        ));
        // A row that kept up with the offered load is not saturated and
        // says nothing about the cap.
        if sat("tput") < 0.95 * sat("offered") {
            checks.push(at_least(
                &format!("bs={bs}, saturated: blocks still fill (tx/blk vs cap)"),
                sat("tx/blk"),
                0.9,
                bs as f64,
            ));
        }
    }
    checks
}

fn fig6() -> Table {
    let mut t = Table::new(LOAD);
    let simple = measure(
        Flow::OrderThenExecute,
        100,
        WorkloadKind::Simple,
        SIMPLE_SATURATING,
        no_tweak,
    );
    t.push("simple OE bs=100".into(), simple);
    for (flow, name) in FLOWS {
        for bs in [10, 50, 100] {
            let row = measure(
                flow,
                bs,
                WorkloadKind::ComplexJoin,
                COMPLEX_SATURATING,
                no_tweak,
            );
            t.push(format!("join {name} bs={bs}"), row);
        }
    }
    t
}

fn fig6_shape(t: &Table) -> Vec<Check> {
    let join = |flow: &str, bs: usize, col: &str| t.get(&format!("join {flow} bs={bs}"), col);
    let simple = |col: &str| t.get("simple OE bs=100", col);
    let mut checks = vec![
        at_least(
            "tet: complex-join vs simple (paper 160x)",
            join("OE", 100, "tet_us"),
            20.0,
            simple("tet_us"),
        ),
        at_least(
            "OE peak: simple vs complex-join (paper 4.5x)",
            simple("tput"),
            2.0,
            join("OE", 100, "tput"),
        ),
        at_least(
            "OE bs=100: bet vs commit (paper: bet is most of bpt)",
            join("OE", 100, "bet_ms"),
            2.0,
            join("OE", 100, "commit_ms"),
        ),
        at_least(
            "peak at bs=100: EO vs OE (paper 2x)",
            join("EO", 100, "tput"),
            1.3,
            join("OE", 100, "tput"),
        ),
    ];
    for bs in [10, 50, 100] {
        checks.push(at_least(
            &format!("bet at bs={bs}: OE vs EO"),
            join("OE", bs, "bet_ms"),
            1.0,
            join("EO", bs, "bet_ms"),
        ));
    }
    checks
}

fn fig7() -> Table {
    let mut t = Table::new(LOAD);
    for (flow, name) in FLOWS {
        for kind in [WorkloadKind::ComplexJoin, WorkloadKind::ComplexGroup] {
            let row = measure(flow, 100, kind, COMPLEX_SATURATING, no_tweak);
            t.push(format!("{} {name}", kind.name()), row);
        }
    }
    t
}

fn fig7_shape(t: &Table) -> Vec<Check> {
    let peak = |kind: &str, flow: &str| t.get(&format!("{kind} {flow}"), "tput");
    let check = |flow: &str, paper: &str| {
        at_least(
            &format!("{flow} peak: complex-group vs complex-join (paper {paper})"),
            peak("complex-group", flow),
            1.2,
            peak("complex-join", flow),
        )
    };
    vec![check("OE", "1.75x"), check("EO", "1.6x")]
}

fn fig8a() -> Table {
    let mut t = Table::new(LOAD);
    for (flow, name) in FLOWS {
        for (profile, net) in [(NetProfile::lan(), "LAN"), (NetProfile::wan(), "WAN")] {
            let row = measure(
                flow,
                100,
                WorkloadKind::ComplexJoin,
                BELOW_JOIN_PEAK,
                |cfg| cfg.net_profile = profile,
            );
            t.push(format!("{name} {net}"), row);
        }
    }
    t
}

fn fig8a_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for (_, flow) in FLOWS {
        let cell = |net: &str, col: &str| t.get(&format!("{flow} {net}"), col);
        checks.push(at_least(
            &format!("{flow}: WAN throughput vs LAN (paper 0.96x)"),
            cell("WAN", "tput"),
            0.9,
            cell("LAN", "tput"),
        ));
        // The WAN profile delays every message by 50 +/- 10 ms one way.
        let added = cell("WAN", "avg_ms") - cell("LAN", "avg_ms");
        checks.push(check(
            (25.0..=200.0).contains(&added),
            format!("{flow}: WAN adds {added:.0} ms of commit latency (paper ~100; 25..200)"),
        ));
    }
    checks
}

fn fig8b() -> Table {
    let offered = 3_000.0;
    let key = KeyPair::generate("bench/client", b"bench", Scheme::Sim);
    let mut t = Table::new(&["tput"]);
    type Backend = fn(usize, usize, Duration) -> OrderingConfig;
    let backends: [(Backend, &str); 2] = [
        (OrderingConfig::kafka, "kafka"),
        (OrderingConfig::bft, "bft"),
    ];
    for (backend, name) in backends {
        for n in [4, 16, 32] {
            let cfg = backend(n, 100, Duration::from_millis(100));
            let svc = OrderingService::start(cfg, &CertificateRegistry::new());
            let _delivery = svc.subscribe();
            let start = Instant::now();
            let interval = Duration::from_secs_f64(1.0 / offered);
            let mut sent = 0u64;
            while start.elapsed() < RUN {
                let call = Payload::new("f", vec![Value::Int(sent as i64)]);
                let tx = Transaction::new_order_execute("bench/client", call, sent, &key);
                let _ = svc.submit(tx.expect("sign"));
                sent += 1;
                let next = start + interval.mul_f64(sent as f64);
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
            }
            let (_, ordered) = svc.stats();
            t.push(
                format!("{name} n={n}"),
                vec![ordered as f64 / start.elapsed().as_secs_f64()],
            );
            svc.shutdown();
        }
    }
    t
}

fn fig8b_shape(t: &Table) -> Vec<Check> {
    let tput = |backend: &str, n: usize| t.get(&format!("{backend} n={n}"), "tput");
    vec![
        at_least(
            "kafka: 32 orderers vs 4",
            tput("kafka", 32),
            0.9,
            tput("kafka", 4),
        ),
        at_least(
            "bft: 4 orderers vs 32 (paper 4.6x)",
            tput("bft", 4),
            1.5,
            tput("bft", 32),
        ),
    ]
}

/// About the peak `fig5` finds for block size 10 on this host: the
/// paper's tables use one arrival rate for every block size, and this is
/// the highest that all three come close to sustaining.
const TABLE4_OFFERED: f64 = 8_000.0;

fn table4() -> Table {
    let mut t = Table::new(LOAD);
    for bs in [10, 100, 500] {
        let row = measure(
            Flow::OrderThenExecute,
            bs,
            WorkloadKind::Simple,
            TABLE4_OFFERED,
            no_tweak,
        );
        t.push(format!("OE bs={bs}"), row);
    }
    t
}

fn table4_shape(t: &Table) -> Vec<Check> {
    let cell = |bs: usize, col: &str| t.get(&format!("OE bs={bs}"), col);
    let ratio = cell(10, "brr") / cell(500, "brr").max(1e-9);
    vec![
        check(
            (25.0..=100.0).contains(&ratio),
            format!("brr(bs=10) / brr(bs=500) = {ratio:.1} (block size ratio 50; 25..100)"),
        ),
        at_least(
            "bpr keeps up with brr at bs=10",
            cell(10, "bpr"),
            0.9,
            cell(10, "brr"),
        ),
        at_least(
            "50 blocks of 10 vs one block of 500 (bpt)",
            50.0 * cell(10, "bpt_ms"),
            1.0,
            cell(500, "bpt_ms"),
        ),
        at_least(
            "bet vs commit at bs=100 (paper: bet 5.7x bct)",
            cell(100, "bet_ms"),
            2.0,
            cell(100, "commit_ms"),
        ),
        at_least("su at bs=100 (paper 0.99)", cell(100, "su"), 0.9, 1.0),
    ]
}

fn table5() -> Table {
    let mut t = Table::new(LOAD);
    for (flow, name) in FLOWS {
        for bs in [10, 100, 500] {
            // Both flows on a LAN, so forwarded transactions race their
            // block; 15% of forwards are lost, the paper's source of
            // missing transactions (§3.4.3). OE forwards nothing.
            let row = measure(flow, bs, WorkloadKind::Simple, TABLE4_OFFERED, |cfg| {
                cfg.net_profile = NetProfile::lan();
                cfg.forward_drop_permille = 150;
            });
            t.push(format!("{name} bs={bs}"), row);
        }
    }
    t
}

fn table5_shape(t: &Table) -> Vec<Check> {
    let cell = |flow: &str, bs: usize, col: &str| t.get(&format!("{flow} bs={bs}"), col);
    let mut checks = Vec::new();
    for bs in [10, 100, 500] {
        checks.push(at_least(
            &format!("bet at bs={bs}: OE vs EO (paper 2.4x-4.8x)"),
            cell("OE", bs, "bet_ms"),
            1.0,
            cell("EO", bs, "bet_ms"),
        ));
    }
    // 15% of 2/3 of the offered load: each node's own third needs no
    // forwarding.
    let lost = 0.15 * TABLE4_OFFERED * 2.0 / 3.0;
    checks.push(at_least(
        "EO mt at bs=100 vs forwards lost/s",
        cell("EO", 100, "mt"),
        0.8,
        lost,
    ));
    checks.push(at_least("no mt in OE", 0.0, 1.0, cell("OE", 100, "mt")));
    checks
}

fn eth_serial() -> Table {
    let mut t = Table::new(LOAD);
    for (serial, name) in [(true, "serial"), (false, "SSI-parallel")] {
        // One organization: its node has the host's hardware threads to
        // itself, as each of the paper's nodes had its 32 vCPUs. Three
        // replicas executing serially already fill a two-thread host.
        let kind = WorkloadKind::ComplexJoin;
        let row = measure(
            Flow::OrderThenExecute,
            100,
            kind,
            COMPLEX_SATURATING,
            |cfg| {
                cfg.orgs.truncate(1);
                cfg.serial_execution = serial
            },
        );
        t.push(name.into(), row);
    }
    t
}

fn eth_serial_shape(t: &Table) -> Vec<Check> {
    vec![at_least(
        "peak: SSI-parallel vs serial (paper 2.25x)",
        t.get("SSI-parallel", "tput"),
        1.25,
        t.get("serial", "tput"),
    )]
}

/// Hot-row shares of the contention sweep, per mille.
const HOT_SHARES: [u64; 4] = [0, 100, 300, 600];

fn contention() -> Table {
    let mut t = Table::new(LOAD);
    for hot in HOT_SHARES {
        // The complex-join contract, followed by a bump of one of 5,000
        // counters: row 0 for a `hot` share of transactions.
        let mut bench = network(
            Flow::OrderThenExecute,
            100,
            WorkloadKind::ComplexJoin,
            no_tweak,
        );
        let extra = "CREATE TABLE counters (id INT PRIMARY KEY, n INT NOT NULL); \
                     CREATE FUNCTION join_and_bump(run_id INT, dept INT, counter INT) AS $$ \
                       INSERT INTO bench_results \
                         SELECT $1, SUM(o.amount) \
                         FROM bench_items i JOIN bench_orders o ON o.item_id = i.id \
                         WHERE i.dept = $2 GROUP BY i.dept; \
                       UPDATE counters SET n = n + 1 WHERE id = $3 $$";
        bench.net.bootstrap_sql(extra).expect("bootstrap");
        let counters: Vec<Vec<Value>> = (0..5_000)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect();
        seed_genesis_rows(&bench.net, "counters", &counters).expect("seed");
        let args = move |n: u64| {
            let counter = if (n * 1009) % 1000 < hot {
                0
            } else {
                n % 4_999 + 1
            };
            let dept = n % GROUPS as u64;
            vec![
                Value::Int(n as i64),
                Value::Int(dept as i64),
                Value::Int(counter as i64),
            ]
        };
        bench.workload.custom = Some(("join_and_bump".into(), std::sync::Arc::new(args)));
        let stats = run_open_loop(&bench, BELOW_JOIN_PEAK, RUN).expect("run");
        bench.net.shutdown();
        t.push(format!("hot {}%", hot / 10), load_row(&stats));
    }
    t
}

fn contention_shape(t: &Table) -> Vec<Check> {
    let cell = |hot: u64, col: &str| t.get(&format!("hot {}%", hot / 10), col);
    let mut checks = Vec::new();
    for pair in HOT_SHARES.windows(2) {
        checks.push(at_least(
            &format!("abort% at hot {}% vs {}%", pair[1] / 10, pair[0] / 10),
            cell(pair[1], "abort%"),
            1.0,
            cell(pair[0], "abort%"),
        ));
    }
    for hot in HOT_SHARES {
        // Only writers of the hot row can lose; one of them wins per block.
        let (aborts, share) = (cell(hot, "abort%"), hot as f64 / 10.0);
        checks.push(check(
            aborts <= share + 2.0,
            format!("hot {share}%: abort% {aborts:.1} <= hot share + 2"),
        ));
    }
    // Processed = committed + aborted per second: nobody waited for a lock.
    let processed = |hot: u64| cell(hot, "tput") / (1.0 - cell(hot, "abort%") / 100.0).max(1e-9);
    checks.push(at_least(
        "processed/s at hot 60% vs 0%",
        processed(600),
        0.9,
        processed(0),
    ));
    checks
}

// ---------------------------------------------------- closed experiments

/// Invoices and revisions per invoice in `table3`.
const INVOICES: u64 = 100;
const REVISIONS: u64 = 4;

fn table3() -> Table {
    let mut cfg = NetworkConfig::quick(&["supplier", "manufacturer"], Flow::OrderThenExecute);
    cfg.ordering = OrderingConfig::kafka(2, 200, Duration::from_millis(100));
    let net = Network::build(cfg).expect("network");
    net.bootstrap_sql(
        "CREATE TABLE invoices (invoice_id INT PRIMARY KEY, supplier TEXT NOT NULL, \
             amount FLOAT NOT NULL); \
         CREATE FUNCTION create_invoice(id INT, supplier TEXT, amount FLOAT) AS $$ \
             INSERT INTO invoices VALUES ($1, $2, $3) $$; \
         CREATE FUNCTION revise_invoice(id INT, amount FLOAT) AS $$ \
             UPDATE invoices SET amount = $2 WHERE invoice_id = $1 $$",
    )
    .expect("bootstrap");
    let mut bench = BenchNetwork {
        net: net.handle(),
        workload: Workload::new(WorkloadKind::Simple, 0),
    };
    // Rounds of one closed batch each; `run_batch` deals transaction n
    // to organization n % 2, so the supplier's user writes the even
    // invoices in every round.
    let wait = Duration::from_secs(60);
    let create = |n: u64| {
        vec![
            Value::Int(n as i64),
            Value::Text("s".into()),
            Value::Float(100.0),
        ]
    };
    bench.workload.custom = Some(("create_invoice".into(), std::sync::Arc::new(create)));
    let outcome = run_batch(&bench, INVOICES, 0, wait).expect("create");
    assert_eq!(outcome, (INVOICES, 0), "creates commit");
    for round in 1..=REVISIONS {
        let revise = move |n: u64| vec![Value::Int(n as i64), Value::Float(100.0 + round as f64)];
        bench.workload.custom = Some(("revise_invoice".into(), std::sync::Arc::new(revise)));
        let outcome = run_batch(&bench, INVOICES, 0, wait).expect("revise");
        assert_eq!(outcome, (INVOICES, 0), "revisions commit");
    }

    let node = net.node("supplier").expect("node");
    let mut t = Table::new(&["rows", "expected", "ms"]);
    let mut query = |key: &str, expected: u64, sql: &str, params: &[Value]| {
        let t0 = Instant::now();
        let rows = node.query(sql, params).expect("query").len();
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        t.push(key.into(), vec![rows as f64, expected as f64, ms]);
    };
    query(
        "live versions written by the supplier's user in blocks 2..tip",
        INVOICES / 2,
        "SELECT h.invoice_id, h.amount FROM HISTORY(invoices) h, ledger l \
         WHERE l.block BETWEEN 2 AND $1 AND l.username = 'supplier/bench-batch' \
           AND h.xmin = l.txid AND h._deleter_block IS NULL",
        &[Value::Int(node.height() as i64)],
    );
    query(
        "every version of one invoice, with its writer and block",
        REVISIONS + 1,
        "SELECT h.amount, l.username, l.block FROM HISTORY(invoices) h, ledger l \
         WHERE h.invoice_id = $1 AND h.xmin = l.txid ORDER BY l.block DESC",
        &[Value::Int(INVOICES as i64 / 2)],
    );
    net.shutdown();
    t
}

fn table3_shape(t: &Table) -> Vec<Check> {
    let exact = |(key, values): &(String, Vec<f64>)| {
        check(
            values[0] == values[1],
            format!("{key}: {} rows, expected {}", values[0], values[1]),
        )
    };
    t.rows.iter().map(exact).collect()
}

/// Transactions of the `memory` census, submitted in closed rounds.
const CENSUS_TXS: u64 = 50_000;
/// One `submit_all` per client and round: a third of this must fit the
/// 1,024-transaction client window.
const CENSUS_ROUND: u64 = 2_500;
/// Process RSS growth per transaction of this run on the commit before
/// the block store was bounded (PR 16; three runs 5,687 / 5,693 / 5,750 on
/// the two-thread host, all three nodes in the one process).
const PARENT_RSS_PER_TX: f64 = 5_690.0;

/// Resident set of this process, from `/proc/self/status`.
fn vm_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:"));
    let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok());
    kb.expect("VmRSS line") * 1024.0
}

fn memory() -> Table {
    let root = std::env::temp_dir().join(format!("bcrdb-reproduce-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = bench_config(Flow::OrderThenExecute, 100, Duration::from_millis(100));
    cfg.data_root = Some(root.clone());
    let workload = Workload::new(WorkloadKind::Simple, 0);
    let bench = BenchNetwork::build(cfg, workload).expect("network");
    let before = vm_rss_bytes();
    for round in 0..CENSUS_TXS / CENSUS_ROUND {
        let outcome = run_batch(
            &bench,
            CENSUS_ROUND,
            round * CENSUS_ROUND,
            Duration::from_secs(120),
        );
        assert_eq!(outcome.expect("round"), (CENSUS_ROUND, 0), "inserts commit");
    }
    let nodes = bench.net.nodes();
    let head = nodes.iter().map(|n| n.height()).max().expect("nodes");
    bench
        .net
        .await_height(head, Duration::from_secs(60))
        .expect("every node at the head");
    let grown = vm_rss_bytes() - before;

    let mut t = Table::new(&["count", "per_tx"]);
    let mut row = |key: String, count: f64| t.push(key, vec![count, count / CENSUS_TXS as f64]);
    for node in &nodes {
        let org = &node.config.org;
        row(
            format!("{org} blocks stored"),
            node.blockstore.height() as f64,
        );
        row(
            format!("{org} blocks resident decoded"),
            node.blockstore.resident_blocks() as f64,
        );
        for name in ["bench_simple", LEDGER_TABLE_NAME] {
            let table = node.catalog().get(name).expect("table");
            let index_entries: usize = (0..table.schema().arity())
                .filter_map(|c| table.index_for(c))
                .map(|index| index.entry_count())
                .sum();
            let stats_keys: u64 = table
                .stats_summary_at(node.height())
                .map_or(0, |s| s.columns.iter().map(|(_, c)| c.distinct).sum());
            row(
                format!("{org} {name} heap versions"),
                table.version_count() as f64,
            );
            row(format!("{org} {name} index entries"), index_entries as f64);
            row(format!("{org} {name} stats keys"), stats_keys as f64);
        }
        row(
            format!("{org} processed ids"),
            node.processed_count() as f64,
        );
    }
    row("process VmRSS growth, bytes".into(), grown);
    bench.net.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    t
}

fn memory_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for org in ["org1", "org2", "org3"] {
        let (stored, resident) = (
            t.get(&format!("{org} blocks stored"), "count"),
            t.get(&format!("{org} blocks resident decoded"), "count"),
        );
        checks.push(check(
            resident <= TAIL_BLOCKS as f64 && stored > resident,
            format!("{org}: {resident} of {stored} blocks resident, bound {TAIL_BLOCKS}"),
        ));
    }
    let per_tx = t.get("process VmRSS growth, bytes", "per_tx");
    checks.push(check(
        per_tx < PARENT_RSS_PER_TX,
        format!("RSS growth {per_tx:.0} B/tx < the parent's {PARENT_RSS_PER_TX:.0} B/tx"),
    ));
    checks
}

fn prepared() -> Table {
    /// Executions per leg.
    const EXECUTIONS: u64 = 2_000;
    let mut cfg = bench_config(Flow::OrderThenExecute, 100, CUT);
    cfg.orgs.truncate(1);
    let kind = WorkloadKind::ComplexJoin;
    let bench = BenchNetwork::build(cfg, Workload::new(kind, SEED_ROWS)).expect("network");
    let node = bench.net.nodes().remove(0);
    let mut t = Table::new(&["reparse_ms", "prepared_ms", "speedup"]);
    for (name, sql) in [
        (
            "join",
            "SELECT i.dept, SUM(o.amount) FROM bench_items i \
             JOIN bench_orders o ON o.item_id = i.id WHERE i.dept = $1 GROUP BY i.dept",
        ),
        ("point", "SELECT price FROM bench_items WHERE id = $1"),
    ] {
        let (handle, _) = node.prepare_handle(sql).expect("prepare");
        // The two legs take turns, so neither owns the warm cache. The
        // node caches every statement it is sent, so the re-parse leg
        // pays for the parse a cacheless server would do per execution.
        let (mut reparse, mut reuse) = (Duration::ZERO, Duration::ZERO);
        for n in 0..EXECUTIONS {
            let params = [Value::Int((n % GROUPS as u64) as i64)];
            let t0 = Instant::now();
            PreparedQuery::parse(sql).expect("parse");
            node.query_by_handle(handle, &params, None).expect("query");
            let t1 = Instant::now();
            node.query_by_handle(handle, &params, None).expect("query");
            reparse += t1 - t0;
            reuse += t1.elapsed();
        }
        let (reparse, reuse) = (reparse.as_secs_f64() * 1e3, reuse.as_secs_f64() * 1e3);
        t.push(name.into(), vec![reparse, reuse, reparse / reuse]);
    }
    bench.net.shutdown();
    t
}

fn prepared_shape(t: &Table) -> Vec<Check> {
    vec![
        at_least(
            "point read: re-parse time vs prepared",
            t.get("point", "reparse_ms"),
            1.0,
            t.get("point", "prepared_ms"),
        ),
        at_least(
            "join: 1.05 x re-parse time vs prepared",
            1.05 * t.get("join", "reparse_ms"),
            1.0,
            t.get("join", "prepared_ms"),
        ),
    ]
}
