//! CI smoke benchmark: a serial-vs-pipelined block-commit comparison, a
//! crash-and-rejoin catch-up scenario, an orderer-leader-failover
//! scenario, a paged-storage cold-vs-hot scan comparison, and a
//! cost-based-planner analytics comparison (index union / covering scan
//! / sort-merge join vs the old heuristic's plans), emitting one
//! machine-readable `BENCH_smoke.json` artifact so the perf trajectory
//! (pipeline speedup, catch-up duration, failover recovery time,
//! buffer-pool fault cost) is tracked run over run — and gated against
//! `BENCH_baseline.json` by the `bench_compare` bin. End-to-end
//! throughput and latency are the repo benchmark's job (`BENCHMARK.json`,
//! `crates/bench/src/bin/benchmark/`), which saturates the system instead
//! of echoing a fixed offered load.
//!
//! Output path: `$BENCH_OUT` or `./BENCH_smoke.json`. Runtime target is
//! well under a minute — this is a trend line, not a rigorous benchmark.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::ledger::TxStatus;
use bcrdb_common::value::Value;
use bcrdb_core::{Call, Network, NetworkConfig};
use bcrdb_network::NetProfile;
use bcrdb_ordering::OrderingConfig;
use bcrdb_txn::ssi::Flow;

fn main() {
    // `BENCH_PHASES=pipeline,storage` runs a subset (local tuning /
    // CI triage); skipped phases emit `null` and their gates report the
    // metric as missing.
    let only: Option<Vec<String>> = std::env::var("BENCH_PHASES")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let want = |name: &str| only.as_ref().is_none_or(|v| v.iter().any(|p| p == name));
    let pipeline = if want("pipeline") {
        pipeline_phase()
    } else {
        "null".into()
    };
    let catch_up = if want("catch_up") {
        catch_up_phase()
    } else {
        "null".into()
    };
    let failover = if want("failover") {
        failover_phase()
    } else {
        "null".into()
    };
    let storage = if want("storage") {
        storage_phase()
    } else {
        "null".into()
    };
    let analytics = if want("analytics") {
        analytics_phase()
    } else {
        "null".into()
    };

    let json = format!(
        "{{\n  \"schema\": \"bcrdb-bench-smoke-v8\",\n  \"pipeline\": {pipeline},\n  \
         \"catch_up\": {catch_up},\n  \"failover\": {failover},\n  \
         \"storage\": {storage},\n  \"analytics\": {analytics}\n}}\n"
    );
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_smoke.json".into());
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}:\n{json}");
}

/// One run of the pipeline comparison: a pre-built chain fed straight
/// into the node's block processor, so the block processor — exactly the
/// subsystem the pipeline restructures — is the bottleneck, not the
/// ordering service. Both runs process the identical chain.
struct PipelineRun {
    blocks: u64,
    secs: f64,
    bps: f64,
    tps: f64,
    commit_p50_ms: f64,
    commit_p95_ms: f64,
    /// Windowed average of the write-set publish slice of the commit stage.
    apply_stage_ms: f64,
}

fn percentile_ms(samples: &[u64], pct: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[(s.len() * pct / 100).min(s.len() - 1)] as f64 / 1000.0
}

/// Blocks per pipeline run and transactions per block.
const PIPE_BLOCKS: u64 = 40;
const PIPE_BLOCK_TXS: u64 = 64;
/// Simulated per-transaction backend cost (µs) — the `min_exec_micros`
/// calibration knob (see DESIGN.md's substitution table) that stands in
/// for the paper's PostgreSQL parse/plan/WAL overhead, giving the
/// execution stage a realistic weight against the post-commit stage.
const PIPE_MIN_EXEC_US: u64 = 1200;
/// Tables the fixture's write sets spread across.
const PIPE_TABLES: u64 = 8;
/// Payload bytes per row: write-set hashing, ledger appends and the
/// group fsync all scale with this, which is exactly the post-commit
/// work the pipeline overlaps.
const PIPE_PAYLOAD: usize = 2 * 1024;

/// Deterministic identities + the pre-built chain shared by both runs.
struct PipelineFixture {
    certs: Arc<bcrdb_crypto::identity::CertificateRegistry>,
    blocks: Vec<Arc<bcrdb_chain::block::Block>>,
}

fn pipeline_fixture() -> PipelineFixture {
    use bcrdb_chain::block::{genesis_prev_hash, Block};
    use bcrdb_chain::tx::{Payload, Transaction};
    use bcrdb_crypto::identity::{Certificate, CertificateRegistry, KeyPair, Role, Scheme};

    let client = KeyPair::generate("org1/bench", b"bench", Scheme::Sim);
    let orderer = KeyPair::generate("ordering/orderer0", b"ord", Scheme::Sim);
    let certs = CertificateRegistry::new();
    certs.register(Certificate {
        name: "org1/bench".into(),
        org: "org1".into(),
        role: Role::Client,
        public_key: client.public_key(),
    });
    certs.register(Certificate {
        name: "ordering/orderer0".into(),
        org: "ordering".into(),
        role: Role::Orderer,
        public_key: orderer.public_key(),
    });

    let mut blocks = Vec::with_capacity(PIPE_BLOCKS as usize);
    let mut prev = genesis_prev_hash();
    let mut n = 0u64;
    for number in 1..=PIPE_BLOCKS {
        let txs: Vec<Transaction> = (0..PIPE_BLOCK_TXS)
            .map(|_| {
                n += 1;
                // One fat row per transaction: the post-commit stage
                // (write-set hashing, ledger records, group fsync) scales
                // with written bytes, which is exactly the work the
                // pipeline overlaps with the next block's execution.
                let args = vec![
                    Value::Int(n as i64),
                    Value::Text(format!("payload-{n}-{}", "x".repeat(PIPE_PAYLOAD))),
                ];
                Transaction::new_order_execute(
                    "org1/bench",
                    Payload::new(format!("bench_tx{}", n % PIPE_TABLES), args),
                    n,
                    &client,
                )
                .unwrap()
            })
            .collect();
        let mut block = Block::build(number, prev, txs, "solo", vec![]);
        block.sign(&orderer).unwrap();
        prev = block.hash;
        blocks.push(Arc::new(block));
    }
    PipelineFixture { certs, blocks }
}

/// One pipeline-phase run: the staged commit pipeline, or — with
/// `serial_execution` — the Ethereum-style order-then-serial-execute
/// baseline (§5.1), one transaction at a time, inline at its commit point.
fn pipeline_run(fixture: &PipelineFixture, serial_execution: bool) -> PipelineRun {
    use bcrdb_node::{Node, NodeConfig};

    let label = if serial_execution {
        "serial"
    } else {
        "pipelined"
    };
    let dir = std::env::temp_dir().join(format!("bcrdb-bench-pipe-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut cfg = NodeConfig::new("org1/peer", "org1", Flow::OrderThenExecute);
    cfg.serial_execution = serial_execution;
    // Wide enough that the exec stage (sleep-dominated, overlappable)
    // never caps the pipeline: 64 tx × PIPE_MIN_EXEC_US / 32 keeps the
    // per-block pool floor below the commit thread's serial work, so
    // head waits stay near zero even on one core.
    cfg.executor_threads = 32;
    cfg.min_exec_micros = PIPE_MIN_EXEC_US;
    // Durable store so both runs pay the group fsync before notifying.
    cfg.fsync = true;
    cfg.data_dir = Some(dir.clone());
    let node = Node::new(cfg, Arc::clone(&fixture.certs), vec!["org1".into()]).expect("node");
    let ddl: String = (0..PIPE_TABLES)
        .map(|t| {
            format!(
                "CREATE TABLE bench_pipe{t} (id INT PRIMARY KEY, payload TEXT NOT NULL); \
                 CREATE FUNCTION bench_tx{t}(id INT, p TEXT) AS $$ \
                   INSERT INTO bench_pipe{t} VALUES ($1, $2) $$; "
            )
        })
        .collect();
    bcrdb_core::network::apply_bootstrap_sql(&node, &ddl, Flow::OrderThenExecute).expect("ddl");

    let (tx, rx) = crossbeam_channel::unbounded();
    node.start(rx);
    let t0 = Instant::now();
    for b in &fixture.blocks {
        tx.send(Arc::clone(b)).expect("feed block");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while node.postcommit_height() < PIPE_BLOCKS {
        assert!(Instant::now() < deadline, "pipeline bench run stalled");
        std::thread::sleep(Duration::from_micros(200));
    }
    let secs = t0.elapsed().as_secs_f64();
    let committed = node.metrics().committed();
    assert_eq!(
        committed,
        PIPE_BLOCKS * PIPE_BLOCK_TXS,
        "no aborts expected"
    );
    let samples = node.metrics().commit_stage_samples();
    let m = node.metrics().take();
    if std::env::var("BENCH_PIPE_DEBUG").is_ok() {
        eprintln!(
            "debug[{label}]: bpt {:.2} ms, bet {:.2} ms, commit {:.2} ms \
             (apply {:.3} ms), post {:.2} ms",
            m.bpt_ms, m.bet_ms, m.commit_stage_ms, m.apply_stage_ms, m.post_stage_ms
        );
    }
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    PipelineRun {
        blocks: PIPE_BLOCKS,
        secs,
        bps: PIPE_BLOCKS as f64 / secs,
        tps: committed as f64 / secs,
        commit_p50_ms: percentile_ms(&samples, 50),
        commit_p95_ms: percentile_ms(&samples, 95),
        apply_stage_ms: m.apply_stage_ms,
    }
}

/// Serial vs pipelined block commit on the same pre-built chain — the
/// headline number for the staged commit pipeline (execution of block
/// N+1 and post-commit work of block N overlap the serial commit core)
/// against the paper's serial-execution baseline (§5.1).
fn pipeline_phase() -> String {
    let fixture = pipeline_fixture();
    // Best-of-N per run kind: on loaded single-core CI runners, scheduler
    // noise dwarfs the effect under test; the best run is the cleanest
    // observation of each kind's capability on identical work.
    let runs = 3;
    let best = |serial_execution: bool| {
        (0..runs)
            .map(|_| pipeline_run(&fixture, serial_execution))
            .max_by(|a, b| a.bps.total_cmp(&b.bps))
            .expect("runs > 0")
    };
    // Pipelined first: the serial runs are 3.5 s of 1.2 ms sleeps each and
    // leave the cores clocked down, and a 0.2 s pipelined run right behind
    // them measures the ramp-up (10–25 % low, and noisy).
    let pipelined = best(false);
    let serial = best(true);
    let speedup = if serial.bps > 0.0 {
        pipelined.bps / serial.bps
    } else {
        0.0
    };
    for (kind, run) in [("serial", &serial), ("pipelined", &pipelined)] {
        println!(
            "pipeline: {kind:<10} {:>6.1} blocks/s ({} blocks in {:.2}s, {:>6.0} tx/s, \
             commit p50/p95 {:.2}/{:.2} ms, apply {:.3} ms)",
            run.bps,
            run.blocks,
            run.secs,
            run.tps,
            run.commit_p50_ms,
            run.commit_p95_ms,
            run.apply_stage_ms
        );
    }
    println!("pipeline: pipelined vs serial {speedup:.2}x");
    format!(
        "{{ \"serial_bps\": {:.2}, \"pipelined_bps\": {:.2}, \"speedup\": {:.3}, \
         \"serial_tps\": {:.1}, \"pipelined_tps\": {:.1}, \
         \"serial_commit_p50_ms\": {:.3}, \"serial_commit_p95_ms\": {:.3}, \
         \"pipelined_commit_p50_ms\": {:.3}, \"pipelined_commit_p95_ms\": {:.3}, \
         \"pipelined_apply_stage_ms\": {:.3} }}",
        serial.bps,
        pipelined.bps,
        speedup,
        serial.tps,
        pipelined.tps,
        serial.commit_p50_ms,
        serial.commit_p95_ms,
        pipelined.commit_p50_ms,
        pipelined.commit_p95_ms,
        pipelined.apply_stage_ms
    )
}

/// Crash-and-rejoin under a WAN profile: stop one node, commit blocks
/// without it, rejoin, and report how long peer catch-up took — the
/// acceptance signal for the §3.6 sync subsystem.
fn catch_up_phase() -> String {
    let root = std::env::temp_dir().join(format!("bcrdb-bench-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp root");

    let mut cfg = NetworkConfig::quick(&["org1", "org2", "org3"], Flow::OrderThenExecute);
    cfg.net_profile = NetProfile::wan();
    cfg.data_root = Some(root.clone());
    cfg.genesis_sql = Some(
        "CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL); \
         CREATE FUNCTION put(k INT, v INT) AS $$ INSERT INTO kv VALUES ($1, $2) $$"
            .into(),
    );
    let net = Network::build(cfg).expect("build network");

    let pump = |net: &Network, start: i64, count: i64| {
        let client = net.client("org1", "smoke").expect("client");
        for k in start..start + count {
            client
                .call("put")
                .arg(k)
                .arg(k)
                .submit_wait_retrying(Duration::from_secs(30))
                .expect("commit");
        }
    };

    pump(&net, 1, 3);
    net.stop_node("org3").expect("stop");
    pump(&net, 100, 10);

    let t0 = Instant::now();
    let node = net.rejoin_node("org3").expect("rejoin");
    let rejoin_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let stats = node.last_sync_stats().expect("catch-up ran");
    let head = net
        .nodes()
        .iter()
        .map(|n| n.height())
        .max()
        .unwrap_or_default();
    net.await_height(head, Duration::from_secs(30))
        .expect("convergence");
    net.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    println!(
        "catch-up: {} blocks fetched ({} replayed) in {:.1} ms ({} rounds, fast-sync: {:?})",
        stats.fetched,
        stats.replayed,
        stats.duration.as_secs_f64() * 1000.0,
        stats.rounds,
        stats.fast_sync_height
    );
    format!(
        "{{ \"blocks_fetched\": {}, \"blocks_replayed\": {}, \"rounds\": {}, \
         \"duration_ms\": {:.2}, \"rejoin_total_ms\": {:.2}, \"fast_sync\": {} }}",
        stats.fetched,
        stats.replayed,
        stats.rounds,
        stats.duration.as_secs_f64() * 1000.0,
        rejoin_ms,
        stats.fast_sync_height.is_some()
    )
}

/// Orderer leader failover under load: kill the BFT leader with a batch
/// in flight and report how long until every transaction of the batch is
/// committed under the rotated leader — the acceptance signal for the
/// PBFT view-change subsystem.
fn failover_phase() -> String {
    let mut cfg = NetworkConfig::quick(&["org1", "org2", "org3"], Flow::OrderThenExecute);
    let mut ord = OrderingConfig::bft(4, 8, Duration::from_millis(50));
    ord.bft_msg_cost = Duration::from_micros(50);
    ord.view_change_timeout = Duration::from_millis(300);
    cfg.ordering = ord;
    cfg.gap_timeout = Duration::from_millis(300);
    cfg.genesis_sql = Some(
        "CREATE TABLE fo (k INT PRIMARY KEY, v INT NOT NULL); \
         CREATE FUNCTION fput(k INT, v INT) AS $$ INSERT INTO fo VALUES ($1, $2) $$"
            .into(),
    );
    let net = Network::build(cfg).expect("build network");

    // Warm traffic in view 0.
    let warm = net.client("org1", "warm").expect("client");
    for k in 1..4i64 {
        warm.call("fput")
            .arg(k)
            .arg(k)
            .submit_wait_retrying(Duration::from_secs(30))
            .expect("warm commit");
    }

    // A batch in flight when the leader dies.
    let client = net.client("org2", "burst").expect("client");
    let calls: Vec<Call> = (100..120i64)
        .map(|k| Call::new("fput").arg(k).arg(k))
        .collect();
    let batch = client.submit_all(calls).expect("batch");
    net.stop_orderer(0).expect("stop leader");
    let t0 = Instant::now();
    let outcomes = batch
        .wait_all(Duration::from_secs(60))
        .expect("batch resolves across failover");
    let resume_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let mut committed = HashSet::new();
    for n in &outcomes {
        assert!(
            matches!(n.status, TxStatus::Committed),
            "transaction lost across failover"
        );
        assert!(committed.insert(n.id), "transaction duplicated");
    }
    let stats = net.ordering().stats_snapshot();
    net.shutdown();

    println!(
        "failover: {} txs re-committed {resume_ms:.1} ms after leader kill \
         (view {} after {} view change(s))",
        committed.len(),
        stats.current_view,
        stats.view_changes
    );
    format!(
        "{{ \"committed\": {}, \"resume_ms\": {:.2}, \"view_changes\": {}, \
         \"current_view\": {} }}",
        committed.len(),
        resume_ms,
        stats.view_changes,
        stats.current_view
    )
}

/// Disk-backed paged storage at the engine level (no node, no network):
/// fill a multi-segment heap, spill every cold segment to slotted-page
/// files through a deliberately tiny buffer pool, then compare a cold
/// full scan (every chain faulted from disk, clock eviction churning)
/// against an immediate hot re-scan (segments rehydrated and resident).
/// The cold/hot gap is the page-fault cost the pool and the spill
/// quiescence rules are designed to keep off the commit path.
fn storage_phase() -> String {
    use bcrdb_common::schema::{Column, DataType, TableSchema};
    use bcrdb_storage::table::SEGMENT_SIZE;
    use bcrdb_storage::{Catalog, PagedStore, Version};

    /// Full heap segments to spill; the tail segment stays resident.
    const SEGMENTS: usize = 8;
    /// Buffer-pool frames — far below the spilled page count, so both
    /// the spill write-back and the cold scan exercise eviction.
    const FRAMES: usize = 64;
    /// Payload bytes per row; sizes the cells so each segment chains
    /// across many 8 KB pages.
    const PAYLOAD: usize = 192;

    let dir = std::env::temp_dir().join(format!("bcrdb-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PagedStore::open(&dir, FRAMES, false).expect("page store");
    let catalog = Catalog::with_store(Arc::clone(&store));
    let schema = TableSchema::new(
        "bench_store",
        vec![
            Column::new("id", DataType::Int),
            Column::new("payload", DataType::Text),
        ],
        vec![0],
    )
    .expect("schema");
    let table = catalog.create_table(schema).expect("table");

    // SEGMENTS full segments plus one tail row (a full segment only
    // stops being the tail — and becomes spillable — once the next
    // append extends the directory past it).
    let rows = SEGMENTS * SEGMENT_SIZE + 1;
    for n in 0..rows {
        let row = vec![
            Value::Int(n as i64),
            Value::Text(format!("payload-{n}-{}", "x".repeat(PAYLOAD))),
        ];
        table.append_restored(Version::restored(
            bcrdb_common::TxId(1),
            row,
            bcrdb_common::RowId(n as u64 + 1),
            1,
            None,
            None,
        ));
    }

    let t0 = Instant::now();
    let spilled = table.spill(2, 1);
    store.sync().expect("page sync");
    let spill_ms = t0.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(spilled, SEGMENTS, "every full non-tail segment spills");

    let t0 = Instant::now();
    let cold = table.all_versions().len();
    let cold_s = t0.elapsed().as_secs_f64();
    assert_eq!(cold, rows, "cold scan sees every version");
    let t0 = Instant::now();
    let hot = table.all_versions().len();
    let hot_s = t0.elapsed().as_secs_f64();
    assert_eq!(hot, rows, "hot scan sees every version");

    let cold_rps = rows as f64 / cold_s;
    let hot_rps = rows as f64 / hot_s;
    let pages_written = store.pages_written();
    let pages_read = store.pages_read();
    let pages_evicted = store.pages_evicted();
    let hit_rate = store.pool_hit_rate();
    drop(table);
    drop(catalog);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "storage: cold scan {cold_rps:.0} rows/s, hot scan {hot_rps:.0} rows/s \
         ({rows} rows, {spilled} segments spilled in {spill_ms:.1} ms, \
         {pages_written} pages written, {pages_read} read, {pages_evicted} evicted, \
         hit rate {hit_rate:.3})"
    );
    format!(
        "{{ \"rows\": {rows}, \"spilled_segments\": {spilled}, \"spill_ms\": {spill_ms:.2}, \
         \"cold_rows_per_s\": {cold_rps:.1}, \"hot_rows_per_s\": {hot_rps:.1}, \
         \"pages_written\": {pages_written}, \"pages_read\": {pages_read}, \
         \"pages_evicted\": {pages_evicted}, \"pool_hit_rate\": {hit_rate:.4} }}"
    )
}

/// The cost-based planner at the engine level (no node, no network): a
/// multi-thousand-row indexed fact table with sealed statistics, timing
/// each new access path against the plan the old heuristic would have
/// picked for the same question. The old planner full-scanned every
/// `OR` predicate and faulted the heap under every index scan, so each
/// comparison leg forces that shape — a non-indexable extra disjunct
/// for the union leg, a second consumed column for the covering leg —
/// and the speedup ratios are self-relative, robust to machine speed.
fn analytics_phase() -> String {
    use bcrdb_common::schema::{Column, DataType, TableSchema};
    use bcrdb_engine::exec::{Executor, StatementEffect};
    use bcrdb_sql::parse_statement;
    use bcrdb_storage::snapshot::ScanMode;
    use bcrdb_storage::Catalog;
    use bcrdb_txn::context::TxnCtx;
    use bcrdb_txn::ssi::SsiManager;

    /// Fact-table rows; large enough that a full scan visibly loses to
    /// two index probes, small enough to seed in well under a second.
    const FACT_ROWS: i64 = 20_000;
    /// Distinct customers (the indexed dimension key): 1000 fact rows
    /// per customer, so the covering leg's per-row heap-fault saving
    /// dominates the fixed per-query parse/plan cost.
    const CUSTOMERS: i64 = 20;
    /// Repetitions for the index-driven legs.
    const LOOKUPS: usize = 300;
    /// Repetitions for legs that visit every fact row (full scans and
    /// the join); far fewer are needed for a stable number.
    const SCANS: usize = 10;

    let mgr = Arc::new(SsiManager::new());
    let catalog = Catalog::new();
    // The fact row carries a wide payload column: a covering scan's
    // win is skipping the per-row heap materialization, which only
    // shows up when the row is more than a couple of scalars.
    let mut orders = TableSchema::new(
        "orders",
        vec![
            Column::new("id", DataType::Int),
            Column::new("customer", DataType::Int),
            Column::new("amount", DataType::Float),
            Column::new("note", DataType::Text),
        ],
        vec![0],
    )
    .expect("orders schema");
    orders
        .add_index("idx_orders_customer", "customer")
        .expect("orders index");
    let orders = catalog.create_table(orders).expect("orders table");
    let customers = TableSchema::new(
        "customers",
        vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ],
        vec![0],
    )
    .expect("customers schema");
    let customers = catalog.create_table(customers).expect("customers table");

    let seed = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
    for c in 0..CUSTOMERS {
        seed.insert(
            &customers,
            vec![Value::Int(c), Value::Text(format!("customer-{c}"))],
        )
        .expect("seed customer");
    }
    for i in 0..FACT_ROWS {
        seed.insert(
            &orders,
            vec![
                Value::Int(i),
                Value::Int(i % CUSTOMERS),
                Value::Float((i % 97) as f64),
                Value::Text(format!("order-{i}-{}", "x".repeat(160))),
            ],
        )
        .expect("seed order");
    }
    assert!(
        seed.apply_commit(1, 0, bcrdb_txn::ssi::Flow::OrderThenExecute)
            .is_committed(),
        "analytics seed commits"
    );
    // Seal exact statistics at the seeded height, the way the vacuum
    // tick's dirty-flag rebuild does on a live node.
    for name in catalog.table_names() {
        catalog.get(&name).expect("table").rebuild_stats(1);
    }

    let run_query = |sql: &str| -> usize {
        let ctx = TxnCtx::read_only(&mgr, 1);
        let exec = Executor::new(&catalog, &ctx, &[]);
        let stmt = parse_statement(sql).expect("bench query parses");
        match exec.execute(&stmt).expect("bench query runs") {
            StatementEffect::Rows(r) => r.rows.len(),
            other => panic!("expected rows, got {other:?}"),
        }
    };
    let plan_of = |sql: &str| -> String {
        let ctx = TxnCtx::read_only(&mgr, 1);
        let exec = Executor::new(&catalog, &ctx, &[]);
        let stmt = parse_statement(&format!("EXPLAIN {sql}")).expect("explain parses");
        match exec.execute(&stmt).expect("explain runs") {
            StatementEffect::Rows(r) => r
                .rows
                .iter()
                .map(|row| match &row[0] {
                    Value::Text(s) => s.clone(),
                    other => panic!("plan line is not text: {other:?}"),
                })
                .collect::<Vec<_>>()
                .join("\n"),
            other => panic!("expected rows, got {other:?}"),
        }
    };

    // Leg 1: sequential aggregate over an unindexed column — the
    // baseline rows/s the other legs are measured against.
    let seq_sql = "SELECT COUNT(amount) FROM orders";
    assert!(plan_of(seq_sql).contains("SeqScan orders"), "seq leg plan");
    let t0 = Instant::now();
    for _ in 0..SCANS {
        assert_eq!(run_query(seq_sql), 1);
    }
    let seq_rps = (SCANS as i64 * FACT_ROWS) as f64 / t0.elapsed().as_secs_f64();

    // Leg 2: OR of two point predicates. The planner probes the primary
    // index per disjunct and unions the row ids; the old heuristic
    // full-scanned. The heuristic shape is forced with an extra
    // disjunct on the unindexed column (never true, so both legs return
    // the same two rows).
    let union_plan = plan_of("SELECT amount FROM orders WHERE id = 17 OR id = 19017");
    assert!(
        union_plan.contains("IndexUnion orders"),
        "union leg plan: {union_plan}"
    );
    assert!(
        plan_of("SELECT amount FROM orders WHERE id = 17 OR id = 19017 OR amount < -1.0")
            .contains("SeqScan orders"),
        "full-scan leg plan"
    );
    let t0 = Instant::now();
    for k in 0..LOOKUPS {
        let a = (k as i64 * 37) % FACT_ROWS;
        let b = (a + FACT_ROWS / 2) % FACT_ROWS;
        let sql = format!("SELECT amount FROM orders WHERE id = {a} OR id = {b}");
        assert_eq!(run_query(&sql), 2);
    }
    let union_lps = LOOKUPS as f64 / t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for k in 0..SCANS {
        let a = (k as i64 * 37) % FACT_ROWS;
        let b = (a + FACT_ROWS / 2) % FACT_ROWS;
        let sql = format!("SELECT amount FROM orders WHERE id = {a} OR id = {b} OR amount < -1.0");
        assert_eq!(run_query(&sql), 2);
    }
    let fullscan_lps = SCANS as f64 / t0.elapsed().as_secs_f64();
    let union_speedup = union_lps / fullscan_lps;

    // Leg 3: aggregate answered entirely from the secondary index
    // (consumed columns ⊆ {customer}) versus the same aggregate forced
    // to fault 200 heap rows by consuming a second column — the plan
    // the old planner produced for every index scan.
    assert!(
        plan_of("SELECT COUNT(customer) FROM orders WHERE customer = 7")
            .contains("CoveringIndexScan orders"),
        "covering leg plan"
    );
    assert!(
        plan_of("SELECT COUNT(id) FROM orders WHERE customer = 7").contains("IndexScan orders"),
        "heap leg plan"
    );
    let t0 = Instant::now();
    for k in 0..LOOKUPS {
        let sql = format!(
            "SELECT COUNT(customer) FROM orders WHERE customer = {}",
            k as i64 % CUSTOMERS
        );
        assert_eq!(run_query(&sql), 1);
    }
    let covering_lps = LOOKUPS as f64 / t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for k in 0..LOOKUPS {
        let sql = format!(
            "SELECT COUNT(id) FROM orders WHERE customer = {}",
            k as i64 % CUSTOMERS
        );
        assert_eq!(run_query(&sql), 1);
    }
    let heap_lps = LOOKUPS as f64 / t0.elapsed().as_secs_f64();
    let covering_speedup = covering_lps / heap_lps;

    // Leg 4: fact-to-dimension join, ordered on the join key so the
    // sort credit puts sort-merge ahead of the hash join.
    let join_sql = "SELECT c.name, o.amount FROM orders o \
                    JOIN customers c ON o.customer = c.id ORDER BY o.customer";
    let join_plan = plan_of(join_sql);
    assert!(
        join_plan.contains("SortMergeJoin"),
        "join leg plan: {join_plan}"
    );
    let t0 = Instant::now();
    for _ in 0..SCANS {
        assert_eq!(run_query(join_sql), FACT_ROWS as usize);
    }
    let join_rps = (SCANS as i64 * FACT_ROWS) as f64 / t0.elapsed().as_secs_f64();

    // Leg 5: SSI abort rate under contention. Each round runs two
    // concurrent read-then-write transactions whose index-backed reads
    // overlap only on a row *neither writes*: with the planner's
    // narrow per-disjunct predicate locks the pair is serializable and
    // both commit, but a regression to full-scan reads would register
    // table-wide predicate locks, manufacture rw cycles, and abort one
    // transaction per round — the §4.3 read-set-shrinkage win measured
    // directly.
    const CONTENTION_ROUNDS: usize = 200;
    let mut committed = 0u64;
    let mut aborted = 0u64;
    for k in 0..CONTENTION_ROUNDS {
        let block = 2 + k as u64;
        let a = (k as i64 * 131) % (FACT_ROWS - 3);
        let t1 = TxnCtx::begin(&mgr, block - 1, ScanMode::Relaxed);
        let t2 = TxnCtx::begin(&mgr, block - 1, ScanMode::Relaxed);
        for (t, lo, write) in [(&t1, a, a), (&t2, a + 1, a + 2)] {
            let exec = Executor::new(&catalog, t, &[]);
            let read = parse_statement(&format!(
                "SELECT amount FROM orders WHERE id = {lo} OR id = {}",
                lo + 1
            ))
            .expect("contention read parses");
            exec.execute(&read).expect("contention read runs");
            let update = parse_statement(&format!(
                "UPDATE orders SET amount = {}.0 WHERE id = {write}",
                k % 7
            ))
            .expect("contention write parses");
            exec.execute(&update).expect("contention write runs");
        }
        for (pos, t) in [(0u32, t1), (1u32, t2)] {
            if t.apply_commit(block, pos, bcrdb_txn::ssi::Flow::OrderThenExecute)
                .is_committed()
            {
                committed += 1;
            } else {
                aborted += 1;
            }
        }
    }
    let abort_rate = aborted as f64 / (committed + aborted) as f64;

    println!(
        "analytics: seq {seq_rps:.0} rows/s; union {union_lps:.0} lookups/s vs full-scan \
         {fullscan_lps:.0} ({union_speedup:.1}x); covering {covering_lps:.0} lookups/s vs \
         heap {heap_lps:.0} ({covering_speedup:.2}x); sort-merge join {join_rps:.0} rows/s; \
         contention abort rate {abort_rate:.3} ({aborted}/{})",
        committed + aborted
    );
    format!(
        "{{ \"fact_rows\": {FACT_ROWS}, \"seq_rows_per_s\": {seq_rps:.1}, \
         \"union_lookups_per_s\": {union_lps:.1}, \"fullscan_or_lookups_per_s\": {fullscan_lps:.1}, \
         \"union_speedup\": {union_speedup:.2}, \"covering_lookups_per_s\": {covering_lps:.1}, \
         \"heap_lookups_per_s\": {heap_lps:.1}, \"covering_speedup\": {covering_speedup:.3}, \
         \"join_rows_per_s\": {join_rps:.1}, \"contention_txns\": {}, \
         \"ssi_abort_rate\": {abort_rate:.4} }}",
        committed + aborted
    )
}
