//! Layer probes of the traced run: the workload's own first
//! [`PROBE_TXS`] generated transactions pushed through one layer's public
//! functions at a time, on one thread, outside any network. Each reports
//! the median µs per call (or a rate) and leaves one span per call batch.
//!
//! A probe is the number a layer could reach if nothing else were in the
//! way; the gap between `node.replay_tps` and `capacity_tps`, say, is
//! ordering plus the client plane. Which probes run depends on what the
//! workload exercises (the pager probes only where tables are paged, the
//! socket probes only over TCP, …); the rest report 0.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb_chain::block::{genesis_prev_hash, Block};
use bcrdb_chain::blockstore::BlockStore;
use bcrdb_chain::tx::{Payload, Transaction};
use bcrdb_common::codec::Encode;
use bcrdb_common::ids::{RowId, TxId};
use bcrdb_common::schema::{Column, TableSchema};
use bcrdb_common::value::Value;
use bcrdb_core::network::PeerMsg;
use bcrdb_core::PeerFrame;
use bcrdb_crypto::identity::{
    verify_digest, Certificate, CertificateRegistry, KeyPair, Role, Scheme,
};
use bcrdb_crypto::merkle::MerkleTree;
use bcrdb_crypto::sha256::sha256;
use bcrdb_engine::exec::Executor;
use bcrdb_engine::procedures::{ContractRegistry, Invocation};
use bcrdb_network::wire::{framed_size, read_frame, write_frame, FrameEvent, MAX_PEER_FRAME};
use bcrdb_network::{NetProfile, SimNetwork};
use bcrdb_node::{
    ClientFrame, ClientRequest, ClientResponse, Frontend, Node, NodeConfig, NodeHooks,
};
use bcrdb_ordering::cutter::BlockCutter;
use bcrdb_ordering::{OrderingConfig, OrderingService};
use bcrdb_sql::ast::Statement;
use bcrdb_storage::index::KeyRange;
use bcrdb_storage::snapshot::ScanMode;
use bcrdb_storage::table::SEGMENT_SIZE;
use bcrdb_storage::{Catalog, PagedStore, Version};
use bcrdb_txn::context::TxnCtx;
use bcrdb_txn::ssi::{Flow, SsiManager};

use crate::run::{Options, PhaseId, Report};
use crate::stats::median;
use crate::trace::Span;
use crate::workload::{
    genesis_sql, op_stream, seed_invocations, Mix, Op, Spec, Storage, Transport, BLOCK_SIZE,
    BLOCK_TIMEOUT, EXECUTOR_THREADS, POINT_QUERY, POOL_FRAMES, SPILL_RETENTION,
};

/// Transactions each probe pushes through its layer.
pub const PROBE_TXS: usize = 2_000;
/// Calls per span (and per median sample).
const CALL_BATCH: usize = 100;
/// `events` rows seeded for the engine and node probes — enough for
/// point lookups to traverse a real index, small enough to seed in well
/// under a second.
const PROBE_EVENTS: i64 = 10_000;
/// Pre-built transactions fed to an ordering service running alone.
const ORDERING_ALONE_TXS: usize = 20_000;
/// The user all probe transactions are signed by.
const PROBE_USER: &str = "org1/probe";

/// Shared state of one probe session.
struct Probes<'a> {
    report: &'a mut Report,
    spans: &'a mut Vec<Span>,
    epoch: Instant,
}

impl Probes<'_> {
    fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            id: "probe".into(),
            parent: None,
            start_s: start.duration_since(self.epoch).as_secs_f64(),
            end_s: end.duration_since(self.epoch).as_secs_f64(),
        });
    }

    /// Call `f(i)` for `i in 0..calls`, [`CALL_BATCH`] calls per span;
    /// the metric is the median over batches of µs per call.
    fn per_call_us(&mut self, name: &'static str, calls: usize, mut f: impl FnMut(usize)) {
        let mut per_call = Vec::new();
        let mut i = 0;
        while i < calls {
            let n = CALL_BATCH.min(calls - i);
            let t0 = Instant::now();
            for k in i..i + n {
                f(k);
            }
            let t1 = Instant::now();
            self.span(name, t0, t1);
            per_call.push((t1 - t0).as_secs_f64() * 1e6 / n as f64);
            i += n;
        }
        self.report.set(name, median(&per_call).unwrap_or(0.0));
    }

    /// Record per-call samples gathered by an interleaved loop (several
    /// layers timed inside one pass): median µs per call, one span for
    /// the whole pass.
    fn record_samples(&mut self, name: &'static str, us: &[f64], start: Instant, end: Instant) {
        self.span(name, start, end);
        self.report.set(name, median(us).unwrap_or(0.0));
    }
}

/// The write operations the probes replay: the first [`PROBE_TXS`] writes
/// of the workload's `low` stream (drawn again here: same seed and phase,
/// same stream).
fn probe_writes(spec: &Spec, seed: u64) -> Vec<Op> {
    // At least half of any mix are writes.
    op_stream(spec.mix, seed, PhaseId::Low as u64, PROBE_TXS * 2)
        .into_iter()
        .filter(|o| !o.is_read())
        .take(PROBE_TXS)
        .collect()
}

fn payload_of(op: &Op) -> Payload {
    let (contract, args) = op.invocation().expect("writes only");
    Payload::new(contract, args)
}

/// Sign `payload` the way the workload's flow does: under `nonce` in
/// the OE flow, pinned to snapshot `height` in the EO flow.
fn sign(flow: Flow, payload: Payload, nonce: u64, height: u64, key: &KeyPair) -> Transaction {
    match flow {
        Flow::OrderThenExecute => Transaction::new_order_execute(PROBE_USER, payload, nonce, key),
        Flow::ExecuteOrderParallel => {
            Transaction::new_execute_order(PROBE_USER, payload, height, key)
        }
    }
    .expect("sim keys never run out of signatures")
}

/// The point lookup that fits the workload's tables, and keys that exist.
fn point_lookups(spec: &Spec, writes: &[Op]) -> (&'static str, Vec<i64>) {
    match spec.mix {
        Mix::Simple => (
            "SELECT f1 FROM bench_simple WHERE id = $1",
            writes
                .iter()
                .filter_map(|o| match o {
                    Op::Simple { id, .. } => Some(*id),
                    _ => None,
                })
                .collect(),
        ),
        Mix::Mixed => (
            POINT_QUERY,
            (0..PROBE_TXS as i64)
                .map(|i| (i * 7919) % PROBE_EVENTS)
                .collect(),
        ),
    }
}

struct Identities {
    certs: Arc<CertificateRegistry>,
    client: KeyPair,
    orderer: KeyPair,
}

fn identities() -> Identities {
    let client = KeyPair::generate(PROBE_USER, b"probe-client", Scheme::Sim);
    let orderer = KeyPair::generate("ordering/orderer0", b"probe-orderer", Scheme::Sim);
    let certs = CertificateRegistry::new();
    certs.register(Certificate {
        name: PROBE_USER.into(),
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
    Identities {
        certs,
        client,
        orderer,
    }
}

/// Chain `txs` into signed blocks of [`BLOCK_SIZE`] on top of `prev`.
fn build_chain(
    txs: &[Transaction],
    first_number: u64,
    mut prev: [u8; 32],
    orderer: &KeyPair,
) -> Vec<Arc<Block>> {
    txs.chunks(BLOCK_SIZE)
        .enumerate()
        .map(|(i, chunk)| {
            let mut block = Block::build(
                first_number + i as u64,
                prev,
                chunk.to_vec(),
                "probe",
                vec![],
            );
            block.sign(orderer).expect("sign block");
            prev = block.hash;
            Arc::new(block)
        })
        .collect()
}

/// Apply genesis DDL to a bare catalog and contract registry (what
/// `Network::bootstrap_sql` does on a node).
fn install_ddl(catalog: &Catalog, contracts: &ContractRegistry, sql: &str) {
    for stmt in bcrdb_sql::parse_statements(sql).expect("genesis parses") {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                let cols: Vec<Column> = columns
                    .iter()
                    .map(|c| Column {
                        name: c.name.clone(),
                        dtype: c.dtype,
                        nullable: c.nullable && !c.inline_pk,
                    })
                    .collect();
                let pk: Vec<usize> = if primary_key.is_empty() {
                    (0..columns.len())
                        .filter(|i| columns[*i].inline_pk)
                        .collect()
                } else {
                    primary_key
                        .iter()
                        .map(|n| {
                            columns
                                .iter()
                                .position(|c| &c.name == n)
                                .expect("pk column")
                        })
                        .collect()
                };
                let schema = TableSchema::new(name, cols, pk).expect("schema");
                catalog.create_table(schema).expect("create table");
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => catalog
                .get(&table)
                .expect("indexed table")
                .add_index(&name, &column)
                .expect("create index"),
            Statement::CreateFunction(def) => contracts.install(def).expect("install contract"),
            _ => {}
        }
    }
}

/// Run every probe that applies to `spec`.
pub fn run_all(
    report: &mut Report,
    spec: &Spec,
    opts: &Options,
    spans: &mut Vec<Span>,
    epoch: Instant,
) {
    let mut p = Probes {
        report,
        spans,
        epoch,
    };
    let ids = identities();
    let writes = probe_writes(spec, opts.seed);
    // Block `b` carries transactions `100 (b − 1) ..` pinned to height `b − 1`.
    let txs: Vec<Transaction> = writes
        .iter()
        .enumerate()
        .map(|(n, op)| {
            let height = (n / BLOCK_SIZE) as u64;
            sign(spec.flow, payload_of(op), n as u64, height, &ids.client)
        })
        .collect();
    let dir = opts.data_dir.join("probes");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("probe directory");

    generator(&mut p, spec, opts.seed);
    crypto(&mut p, &ids, &txs);
    chain(&mut p, spec, &ids, &writes, &txs, &dir);
    sql(&mut p, spec);
    engine_and_txn(&mut p, spec, opts.seed, &writes);
    storage(&mut p, spec, &dir);
    ordering(&mut p, spec, &ids, &txs);
    network(&mut p, spec, &txs);
    node(&mut p, spec, opts.seed, &ids, &writes, &dir);

    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ generator

/// `gen.dry_tps`: the generator with a no-op sink — draw the stream and
/// build every call, submit nothing.
fn generator(p: &mut Probes, spec: &Spec, seed: u64) {
    let n = 50_000;
    let t0 = Instant::now();
    let ops = op_stream(spec.mix, seed, 99, n);
    let mut built = 0usize;
    for op in &ops {
        if let Some(call) = op.call() {
            built += std::hint::black_box(call).contract().len();
        }
    }
    std::hint::black_box(built);
    let t1 = Instant::now();
    p.span("gen.dry_tps", t0, t1);
    p.report
        .set("gen.dry_tps", n as f64 / (t1 - t0).as_secs_f64());
}

// --------------------------------------------------------------- crypto

fn crypto(p: &mut Probes, ids: &Identities, txs: &[Transaction]) {
    let digests: Vec<[u8; 32]> = txs.iter().map(Transaction::signed_digest).collect();
    let mut sigs = Vec::with_capacity(digests.len());
    p.per_call_us("crypto.sign_us", digests.len(), |i| {
        sigs.push(ids.client.sign_digest(&digests[i]).expect("signature"));
    });
    let pk = ids.client.public_key();
    p.per_call_us("crypto.verify_us", digests.len(), |i| {
        assert!(verify_digest(&pk, &digests[i], &sigs[i]));
    });

    let buf = vec![0xA5u8; 1 << 20];
    let t0 = Instant::now();
    let rounds = 16;
    for _ in 0..rounds {
        std::hint::black_box(sha256(std::hint::black_box(&buf)));
    }
    let t1 = Instant::now();
    p.span("crypto.sha256_mb_s", t0, t1);
    p.report.set(
        "crypto.sha256_mb_s",
        rounds as f64 / (t1 - t0).as_secs_f64(),
    );

    // One Merkle root per block's worth of canonical transaction bytes.
    let leaves: Vec<Vec<u8>> = txs.iter().map(Transaction::canonical_bytes).collect();
    let blocks: Vec<&[Vec<u8>]> = leaves.chunks(BLOCK_SIZE).collect();
    let mut per_block = Vec::new();
    let t0 = Instant::now();
    for b in &blocks {
        let s = Instant::now();
        std::hint::black_box(MerkleTree::build(b).root());
        per_block.push(s.elapsed().as_secs_f64() * 1e6);
    }
    p.record_samples("crypto.merkle_root_us", &per_block, t0, Instant::now());
}

// ---------------------------------------------------------------- chain

fn chain(
    p: &mut Probes,
    spec: &Spec,
    ids: &Identities,
    writes: &[Op],
    txs: &[Transaction],
    dir: &Path,
) {
    let payloads: Vec<Payload> = writes.iter().map(payload_of).collect();
    let mut payloads = payloads.into_iter();
    p.per_call_us("chain.tx_build_us", writes.len(), |i| {
        let payload = payloads.next().expect("one payload per call");
        std::hint::black_box(sign(spec.flow, payload, i as u64, 0, &ids.client));
    });
    p.per_call_us("chain.tx_verify_us", txs.len(), |i| {
        txs[i]
            .verify(&ids.certs)
            .expect("probe transaction verifies");
    });

    // Blocks of BLOCK_SIZE transactions: build, verify, encode, append.
    let mut inputs: Vec<Vec<Transaction>> = txs.chunks(BLOCK_SIZE).map(<[_]>::to_vec).collect();
    let mut built: Vec<Block> = Vec::with_capacity(inputs.len());
    let mut build_us = Vec::new();
    let mut prev = genesis_prev_hash();
    let t0 = Instant::now();
    for (i, chunk) in inputs.drain(..).enumerate() {
        let s = Instant::now();
        let mut block = Block::build(i as u64 + 1, prev, chunk, "probe", vec![]);
        build_us.push(s.elapsed().as_secs_f64() * 1e6);
        block.sign(&ids.orderer).expect("sign block");
        prev = block.hash;
        built.push(block);
    }
    p.record_samples("chain.block_build_us", &build_us, t0, Instant::now());

    let mut verify_us = Vec::new();
    let mut prev = genesis_prev_hash();
    let t0 = Instant::now();
    for block in &built {
        let s = Instant::now();
        block
            .verify(&prev, &ids.certs)
            .expect("probe block verifies");
        verify_us.push(s.elapsed().as_secs_f64() * 1e6);
        prev = block.hash;
    }
    p.record_samples("chain.block_verify_us", &verify_us, t0, Instant::now());

    let bytes: usize = built.iter().map(|b| b.encode_to_vec().len()).sum();
    p.report.set(
        "chain.block_bytes_per_tx",
        bytes as f64 / txs.len().max(1) as f64,
    );

    // The block store as the workload configures it: in memory, or a
    // file that is fsynced by `sync`.
    let store = match spec.storage {
        Storage::Memory => BlockStore::in_memory(),
        Storage::DurableFsync => {
            BlockStore::open_with(dir.join("probe-chain"), true).expect("block store")
        }
        Storage::Paged => {
            BlockStore::open_with(dir.join("probe-chain"), false).expect("block store")
        }
    };
    let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for block in built {
        let s = Instant::now();
        store.append_deferred(block).expect("append");
        let m = Instant::now();
        store.sync().expect("sync");
        append_us.push((m - s).as_secs_f64() * 1e6);
        sync_us.push(m.elapsed().as_secs_f64() * 1e6);
    }
    let t1 = Instant::now();
    p.record_samples("chain.store_append_us", &append_us, t0, t1);
    p.record_samples("chain.store_sync_us", &sync_us, t0, t1);
}

// ------------------------------------------------------------------ sql

fn sql(p: &mut Probes, spec: &Spec) {
    // The body of the workload's `bench_tx` contract, cut out of its
    // genesis DDL (the text between the `$$` quotes).
    let genesis = genesis_sql(spec);
    let contract = genesis[genesis
        .find("CREATE FUNCTION bench_tx")
        .expect("genesis defines bench_tx")..]
        .split("$$")
        .nth(1)
        .expect("bench_tx has a body");
    p.per_call_us("sql.parse_contract_us", PROBE_TXS, |_| {
        std::hint::black_box(bcrdb_sql::parse_statements(contract).expect("contract parses"));
    });
    let query = match spec.mix {
        Mix::Simple => "SELECT f1 FROM bench_simple WHERE id = $1",
        Mix::Mixed => POINT_QUERY,
    };
    p.per_call_us("sql.parse_query_us", PROBE_TXS, |_| {
        std::hint::black_box(bcrdb_sql::parse_statements(query).expect("query parses"));
    });
}

// ---------------------------------------------------------- engine, txn

/// A bare catalog seeded like the workload, the workload's writes invoked
/// and committed block by block: `TxnCtx::begin`, `ContractRegistry::
/// invoke` and `TxnCtx::apply_commit` each timed per call.
fn engine_and_txn(p: &mut Probes, spec: &Spec, seed: u64, writes: &[Op]) {
    let mgr = Arc::new(SsiManager::new());
    let catalog = Catalog::new();
    let contracts = ContractRegistry::new();
    install_ddl(&catalog, &contracts, &genesis_sql(spec));
    let scan_mode = match spec.flow {
        Flow::OrderThenExecute => ScanMode::Relaxed,
        Flow::ExecuteOrderParallel => ScanMode::Strict,
    };
    let mut height = 0u64;
    if spec.mix == Mix::Mixed {
        // Seed through the seeding contracts, one block per 100 calls.
        for chunk in seed_invocations(seed, PROBE_EVENTS).chunks(BLOCK_SIZE) {
            height += 1;
            for (pos, (contract, args)) in chunk.iter().enumerate() {
                let ctx = TxnCtx::begin(&mgr, height - 1, ScanMode::Relaxed);
                contracts
                    .invoke(&catalog, &ctx, &Invocation::new(*contract, args.clone()))
                    .expect("seed invocation");
                assert!(ctx
                    .apply_commit(height, pos as u32, Flow::OrderThenExecute)
                    .is_committed());
            }
        }
        for name in catalog.table_names() {
            catalog.get(&name).expect("table").rebuild_stats(height);
        }
    }

    let mut begin_us = Vec::new();
    let mut invoke_us: [Vec<f64>; 3] = Default::default();
    let mut commit_us: [Vec<f64>; 2] = Default::default();
    let t_start = Instant::now();
    // One block per transaction, each begun at the height the previous
    // one committed: serial execution then leaves nothing to conflict
    // with (under block-height SSI two transfers sharing a block and an
    // account would abort the second), so an abort here is a finding.
    for op in writes {
        height += 1;
        let (contract, args) = op.invocation().expect("writes only");
        let invocation = Invocation::new(contract, args);
        let t0 = Instant::now();
        let ctx = TxnCtx::begin(&mgr, height - 1, scan_mode);
        let t1 = Instant::now();
        let outcome = contracts.invoke(&catalog, &ctx, &invocation);
        let t2 = Instant::now();
        outcome.expect("probe invocation");
        assert!(ctx.apply_commit(height, 0, spec.flow).is_committed());
        let t3 = Instant::now();
        begin_us.push((t1 - t0).as_secs_f64() * 1e6);
        let kind = match op {
            Op::Simple { .. } => 0,
            Op::Join { .. } => 1,
            _ => 2,
        };
        invoke_us[kind].push((t2 - t1).as_secs_f64() * 1e6);
        commit_us[usize::from(kind == 1)].push((t3 - t2).as_secs_f64() * 1e6);
    }
    let t_end = Instant::now();
    p.record_samples("txn.begin_us", &begin_us, t_start, t_end);
    for (name, samples) in [
        ("engine.invoke_simple_us", &invoke_us[0]),
        ("engine.invoke_join_us", &invoke_us[1]),
        ("engine.invoke_transfer_us", &invoke_us[2]),
    ] {
        if !samples.is_empty() {
            p.record_samples(name, samples, t_start, t_end);
        }
    }
    p.record_samples("txn.apply_commit_us", &commit_us[0], t_start, t_end);
    if !commit_us[1].is_empty() {
        p.record_samples("txn.apply_commit_join_us", &commit_us[1], t_start, t_end);
    }

    // Point lookups through the executor on the same catalog.
    let (sql, keys) = point_lookups(spec, writes);
    let stmt = bcrdb_sql::parse_statement(sql).expect("point query parses");
    p.per_call_us("engine.point_query_us", keys.len(), |i| {
        let ctx = TxnCtx::read_only(&mgr, height);
        let params = [Value::Int(keys[i])];
        let exec = Executor::new(&catalog, &ctx, &params);
        std::hint::black_box(exec.execute(&stmt).expect("point query runs"));
    });
}

// -------------------------------------------------------------- storage

fn storage(p: &mut Probes, spec: &Spec, dir: &Path) {
    let schema = || {
        TableSchema::new(
            "probe_store",
            vec![
                Column::new("id", bcrdb_common::schema::DataType::Int),
                Column::new("payload", bcrdb_common::schema::DataType::Text),
            ],
            vec![0],
        )
        .expect("schema")
    };
    let row = |n: usize| {
        vec![
            Value::Int(n as i64),
            Value::Text(format!("payload-{n}-{}", "x".repeat(180))),
        ]
    };
    let version = |n: usize| Version::restored(TxId(1), row(n), RowId(n as u64 + 1), 1, None, None);

    // In-memory heap: append, primary-index lookup, hot scan.
    let catalog = Catalog::new();
    let table = catalog.create_table(schema()).expect("table");
    let mut rows: Vec<Version> = (0..PROBE_TXS).map(version).collect();
    rows.reverse();
    p.per_call_us("storage.append_us", PROBE_TXS, |_| {
        table.append_restored(rows.pop().expect("one row per call"));
    });
    p.per_call_us("storage.index_lookup_us", PROBE_TXS, |i| {
        let key = Value::Int(((i * 7919) % PROBE_TXS) as i64);
        let hit = table
            .index_scan(0, &KeyRange::eq(key))
            .expect("primary index");
        assert_eq!(hit.len(), 1);
    });
    let t0 = Instant::now();
    let scans = 20;
    for _ in 0..scans {
        assert_eq!(table.all_versions().len(), PROBE_TXS);
    }
    let t1 = Instant::now();
    p.span("storage.hot_scan_rows_per_s", t0, t1);
    p.report.set(
        "storage.hot_scan_rows_per_s",
        (scans * PROBE_TXS) as f64 / (t1 - t0).as_secs_f64(),
    );
    if spec.storage != Storage::Paged {
        return;
    }

    // Paged heap through the workload's pool size: spill every full
    // segment, then scan cold (every chain faulted back through the pool).
    // More rows than the pool holds, so the spill evicts as it writes and
    // the cold scan faults every chain back in.
    const SEGMENTS: usize = 16;
    let store = PagedStore::open(dir.join("probe-pages"), POOL_FRAMES, false).expect("page store");
    let catalog = Catalog::with_store(Arc::clone(&store));
    let table = catalog.create_table(schema()).expect("paged table");
    let rows = SEGMENTS * SEGMENT_SIZE + 1;
    for n in 0..rows {
        table.append_restored(version(n));
    }
    let t0 = Instant::now();
    let spilled = table.spill(2, 1);
    store.sync().expect("page sync");
    let t1 = Instant::now();
    p.span("storage.spill_ms_per_segment", t0, t1);
    p.report.set(
        "storage.spill_ms_per_segment",
        (t1 - t0).as_secs_f64() * 1000.0 / spilled.max(1) as f64,
    );
    let read_before = store.pages_read();
    let t0 = Instant::now();
    assert_eq!(table.all_versions().len(), rows);
    let t1 = Instant::now();
    p.span("storage.cold_scan_rows_per_s", t0, t1);
    let cold_s = (t1 - t0).as_secs_f64();
    p.report
        .set("storage.cold_scan_rows_per_s", rows as f64 / cold_s);
    let faulted = store.pages_read().saturating_sub(read_before).max(1);
    p.report
        .set("storage.fault_us_per_page", cold_s * 1e6 / faulted as f64);
}

// ------------------------------------------------------------- ordering

/// Feed `txs` to an ordering service running alone and wait for all of
/// them to come back in blocks; returns transactions per second.
fn ordering_alone(config: OrderingConfig, txs: &[Transaction]) -> f64 {
    let certs = CertificateRegistry::new();
    let service = OrderingService::start(config, &certs);
    let blocks = service.subscribe();
    let t0 = Instant::now();
    for tx in txs {
        service.submit(tx.clone()).expect("submit to orderer");
    }
    let mut delivered = 0;
    while delivered < txs.len() {
        match blocks.recv_timeout(Duration::from_secs(30)) {
            Ok(block) => delivered += block.txs.len(),
            Err(_) => break,
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    service.shutdown();
    delivered as f64 / secs
}

fn bft_config(block_size: usize) -> OrderingConfig {
    let mut cfg = OrderingConfig::bft(4, block_size, BLOCK_TIMEOUT);
    cfg.bft_msg_cost = Duration::from_micros(50);
    cfg.view_change_timeout = Duration::from_millis(300);
    cfg
}

fn ordering(p: &mut Probes, spec: &Spec, ids: &Identities, txs: &[Transaction]) {
    let mut cutter = BlockCutter::new(BLOCK_SIZE, BLOCK_TIMEOUT);
    let mut input: Vec<Transaction> = txs.iter().rev().cloned().collect();
    p.per_call_us("ordering.cutter_push_us", txs.len(), |_| {
        let tx = input.pop().expect("one transaction per call");
        std::hint::black_box(cutter.push_tx(tx, Instant::now()));
    });

    // More transactions than the probe set, so the service reaches its
    // steady state: the probe set's payloads re-signed under fresh nonces.
    let many: Vec<Transaction> = (0..ORDERING_ALONE_TXS)
        .map(|n| {
            let base = &txs[n % txs.len()];
            sign(
                Flow::OrderThenExecute,
                base.payload.clone(),
                1_000_000 + n as u64,
                0,
                &ids.client,
            )
        })
        .collect();
    let t0 = Instant::now();
    if spec.bft_faults {
        let tps = ordering_alone(bft_config(BLOCK_SIZE), &many);
        p.span("ordering.bft_alone_tps", t0, Instant::now());
        p.report.set("ordering.bft_alone_tps", tps);

        // One transaction per block: the latency of a PBFT round.
        let certs = CertificateRegistry::new();
        let service = OrderingService::start(bft_config(1), &certs);
        let blocks = service.subscribe();
        let mut round_ms = Vec::new();
        let t0 = Instant::now();
        for tx in many.iter().take(50) {
            let s = Instant::now();
            service.submit(tx.clone()).expect("submit to orderer");
            if blocks.recv_timeout(Duration::from_secs(10)).is_err() {
                break;
            }
            round_ms.push(s.elapsed().as_secs_f64() * 1000.0);
        }
        service.shutdown();
        p.span("ordering.bft_round_ms", t0, Instant::now());
        p.report
            .set("ordering.bft_round_ms", median(&round_ms).unwrap_or(0.0));
    } else {
        let orderers = if spec.transport == Transport::Tcp {
            4
        } else {
            3
        };
        let tps = ordering_alone(
            OrderingConfig::kafka(orderers, BLOCK_SIZE, BLOCK_TIMEOUT),
            &many,
        );
        p.span("ordering.kafka_alone_tps", t0, Instant::now());
        p.report.set("ordering.kafka_alone_tps", tps);
    }
}

// -------------------------------------------------------------- network

fn network(p: &mut Probes, spec: &Spec, txs: &[Transaction]) {
    // Bytes one transaction puts on the client plane (request, ack and
    // notification frames) and on the peer plane (the EO forward plus its
    // share of the block that carries it).
    let sample = &txs[..txs.len().min(BLOCK_SIZE)];
    let client_bytes: usize = sample
        .iter()
        .map(|tx| {
            let request = ClientFrame::Request {
                seq: 1,
                req: ClientRequest::Submit(Box::new(tx.clone())),
            };
            let ack = ClientFrame::Response {
                seq: 1,
                resp: Ok(ClientResponse::Ack),
            };
            let note = ClientFrame::Notification(bcrdb_node::TxNotification {
                id: tx.id,
                block: 1,
                status: bcrdb_chain::ledger::TxStatus::Committed,
            });
            [request, ack, note]
                .iter()
                .map(|f| framed_size(f.encode_to_vec().len()))
                .sum::<usize>()
        })
        .sum();
    p.report.set(
        "network.client_bytes_per_tx",
        client_bytes as f64 / sample.len() as f64,
    );
    let forward_bytes: usize = sample
        .iter()
        .map(|tx| {
            framed_size(
                PeerFrame::Msg(PeerMsg::Tx(Box::new(tx.clone())))
                    .encode_to_vec()
                    .len(),
            )
        })
        .sum();
    let block = Block::build(1, genesis_prev_hash(), sample.to_vec(), "probe", vec![]);
    let block_bytes = framed_size(
        PeerFrame::Msg(PeerMsg::Block(Arc::new(block)))
            .encode_to_vec()
            .len(),
    );
    let forwarded = if spec.flow == Flow::ExecuteOrderParallel {
        forward_bytes
    } else {
        0
    };
    p.report.set(
        "network.peer_bytes_per_tx",
        (forwarded + block_bytes) as f64 / sample.len() as f64,
    );

    if spec.lan {
        let net: Arc<SimNetwork<u64>> = SimNetwork::new(NetProfile::lan());
        let _a = net.register("a");
        let _b = net.register("b");
        p.per_call_us("network.sim_send_us", PROBE_TXS, |i| {
            net.send("a", "b", i as u64, 300).expect("sim send");
        });
        net.shutdown();
    }
    if spec.transport == Transport::Tcp {
        frame_echo(p, &txs[0]);
    }
}

/// `write_frame`/`read_frame` against an echo thread over a loopback
/// socket pair: round trip of one Submit-sized frame, and MB/s of 64 KB
/// frames.
fn frame_echo(p: &mut Probes, tx: &Transaction) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let echo = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _ = stream.set_nodelay(true);
        while let Ok(FrameEvent::Frame(payload)) = read_frame(&mut stream, MAX_PEER_FRAME) {
            if write_frame(&mut stream, &payload, MAX_PEER_FRAME).is_err() {
                break;
            }
        }
    });
    let mut stream = std::net::TcpStream::connect(addr).expect("connect loopback");
    let _ = stream.set_nodelay(true);
    let small = ClientFrame::Request {
        seq: 1,
        req: ClientRequest::Submit(Box::new(tx.clone())),
    }
    .encode_to_vec();
    let mut round_trip = |payload: &[u8]| {
        write_frame(&mut stream, payload, MAX_PEER_FRAME).expect("write frame");
        match read_frame(&mut stream, MAX_PEER_FRAME).expect("read frame") {
            FrameEvent::Frame(back) => assert_eq!(back.len(), payload.len()),
            other => panic!("echo closed: {other:?}"),
        }
    };
    p.per_call_us("network.frame_rtt_us", 1_000, |_| round_trip(&small));
    let big = vec![0x5Au8; 64 * 1024];
    let t0 = Instant::now();
    let frames = 256;
    for _ in 0..frames {
        round_trip(&big);
    }
    let t1 = Instant::now();
    p.span("network.frame_mb_s", t0, t1);
    // Each frame crosses the socket twice.
    p.report.set(
        "network.frame_mb_s",
        (2 * frames * big.len()) as f64 / (1 << 20) as f64 / (t1 - t0).as_secs_f64(),
    );
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    let _ = echo.join();
}

// ----------------------------------------------------------------- node

/// One node alone, configured like the workload's nodes, fed a pre-signed
/// chain of the workload's own transactions.
fn node(p: &mut Probes, spec: &Spec, seed: u64, ids: &Identities, writes: &[Op], dir: &Path) {
    let mut cfg = NodeConfig::new("org1/peer", "org1", spec.flow);
    cfg.executor_threads = EXECUTOR_THREADS;
    match spec.storage {
        Storage::Memory => {}
        Storage::DurableFsync => {
            cfg.data_dir = Some(dir.join("probe-node"));
            cfg.fsync = true;
        }
        Storage::Paged => {
            cfg.data_dir = Some(dir.join("probe-node"));
            cfg.page_dir = Some(dir.join("probe-node").join("pages"));
            cfg.buffer_pool_frames = POOL_FRAMES;
            cfg.spill_retention = SPILL_RETENTION;
        }
    }
    let node = Node::new(cfg, Arc::clone(&ids.certs), vec!["org1".into()]).expect("probe node");
    install_ddl(node.catalog(), node.contracts(), &genesis_sql(spec));
    // Submissions go nowhere: the probe times the node's own part.
    node.set_hooks(NodeHooks {
        forward_tx: Some(Arc::new(|_tx: &Transaction| {})),
        submit_orderer: Some(Arc::new(|_tx: Transaction| Ok(()))),
        ..NodeHooks::default()
    });
    let (feed, rx) = crossbeam_channel::unbounded();
    node.start(rx);
    let wait_for = |height: u64| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while node.postcommit_height() < height && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        node.postcommit_height() >= height
    };

    // Seeding blocks first (untimed), then the workload's chain (timed).
    let mut prev = genesis_prev_hash();
    let mut next = 1u64;
    if spec.mix == Mix::Mixed {
        let seeds: Vec<Transaction> = seed_invocations(seed, PROBE_EVENTS)
            .into_iter()
            .enumerate()
            .map(|(n, (contract, args))| {
                // Executed at the height below its own block, like the
                // workload's transactions.
                let height = (n / BLOCK_SIZE) as u64;
                let payload = Payload::new(contract, args);
                sign(
                    spec.flow,
                    payload,
                    5_000_000 + n as u64,
                    height,
                    &ids.client,
                )
            })
            .collect();
        let chain = build_chain(&seeds, next, prev, &ids.orderer);
        prev = chain.last().expect("seed blocks").hash;
        next += chain.len() as u64;
        for b in chain {
            feed.send(b).expect("feed seed block");
        }
        assert!(wait_for(next - 1), "probe node stalled while seeding");
    }
    // Re-sign the probe set for the heights it will actually land on.
    let replay: Vec<Transaction> = writes
        .iter()
        .enumerate()
        .map(|(n, op)| {
            let height = next - 1 + (n / BLOCK_SIZE) as u64;
            sign(spec.flow, payload_of(op), n as u64, height, &ids.client)
        })
        .collect();
    let chain = build_chain(&replay, next, prev, &ids.orderer);
    let last = next + chain.len() as u64 - 1;
    let t0 = Instant::now();
    for b in chain {
        feed.send(b).expect("feed block");
    }
    let reached = wait_for(last);
    let t1 = Instant::now();
    p.span("node.replay_tps", t0, t1);
    if reached {
        p.report.set(
            "node.replay_tps",
            replay.len() as f64 / (t1 - t0).as_secs_f64(),
        );
    }

    // Point queries against the replayed state.
    let (sql, keys) = point_lookups(spec, writes);
    p.per_call_us("node.query_us", keys.len(), |i| {
        let rows = node
            .query(sql, &[Value::Int(keys[i])])
            .expect("point query");
        assert_eq!(rows.len(), 1);
    });

    let t0 = Instant::now();
    let rounds = 5;
    for _ in 0..rounds {
        std::hint::black_box(node.state_hash());
    }
    let t1 = Instant::now();
    p.span("node.state_hash_ms", t0, t1);
    p.report.set(
        "node.state_hash_ms",
        (t1 - t0).as_secs_f64() * 1000.0 / rounds as f64,
    );

    // `Frontend::handle(Submit)`: verification, admission and hand-off
    // (to the executor pool in the EO flow, to the ordering hook in OE).
    let (frontend, _notifications) = Frontend::new(Arc::clone(&node));
    let height = node.height();
    let mut fresh: Vec<Transaction> = writes
        .iter()
        .enumerate()
        .map(|(n, op)| {
            sign(
                spec.flow,
                payload_of(op),
                9_000_000 + n as u64,
                height,
                &ids.client,
            )
        })
        .rev()
        .collect();
    p.per_call_us("node.frontend_submit_us", fresh.len(), |_| {
        let tx = fresh.pop().expect("one transaction per call");
        // A full pending queue refuses further EO submissions; that is an
        // answer too, and costs what it costs.
        let _ = frontend.handle(ClientRequest::Submit(Box::new(tx)));
    });
    frontend.disconnect();
    node.shutdown();
}
