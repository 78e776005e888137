//! The four workloads: what each one configures, and the seeded
//! generator that turns `--seed` into the operation stream and the fault
//! schedule. The program under test sees only the generated calls.
//!
//! Why these four (the table in `README.md` has the long form): two run
//! the *same* one-row INSERT so that any difference between them is the
//! transaction flow plus the transport (`oe-simple-durable` pays fsync
//! and the simulated LAN, `eo-simple-tcp` pays real sockets and the EO
//! snapshot-height RPC); `eo-mixed-paged` is the only one where the
//! engine, SSI conflicts and the pager carry the load and where data
//! exceeds the buffer pool; `oe-bft-faults` is the only one with PBFT
//! rounds, view changes and peer catch-up on the path.

use std::time::Duration;

use bcrdb_bench::contracts::{Workload, WorkloadKind, GROUPS};
use bcrdb_common::value::Value;
use bcrdb_core::Call;
use bcrdb_txn::ssi::Flow;

/// How clients and nodes are connected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `Network`: in-process clients, simulated links between nodes and
    /// orderers.
    InProcess,
    /// `TcpCluster`: real loopback sockets on all three planes.
    Tcp,
}

/// Where committed state lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// Everything in memory.
    Memory,
    /// Block store under `data_root`, fsynced.
    DurableFsync,
    /// Paged heap through a small buffer pool, block store not fsynced.
    Paged,
}

/// Which calls the generator draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// The paper's *simple* contract: one-row INSERT.
    Simple,
    /// 50 % complex-join contract, 20 % transfer, 30 % PK point reads.
    Mixed,
}

/// Everything that distinguishes one workload from another. Rates are
/// frozen at the seed commit — `README.md` has the table and the reason
/// for each value, and a unit test holds the two equal — so that every
/// phase is a fixed operation count.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Normative workload name.
    pub name: &'static str,
    /// One-line reason the workload exists (`BENCHMARK.json` `why`).
    pub why: &'static str,
    /// Transaction flow.
    pub flow: Flow,
    /// Client/node/orderer connectivity.
    pub transport: Transport,
    /// Simulated LAN between nodes and orderers (in-process only).
    pub lan: bool,
    /// Storage configuration.
    pub storage: Storage,
    /// PBFT ordering with the fault schedule, instead of Kafka.
    pub bft_faults: bool,
    /// Operation mix.
    pub mix: Mix,
    /// Open-loop rate of the `low` phase, ops/s.
    pub low_rate: f64,
    /// Open-loop rate of the `high` phase, ops/s.
    pub high_rate: f64,
    /// `capacity_tps` measured at the seed commit; sizes the closed-loop
    /// phase's fixed operation count.
    pub capacity_ref: f64,
    /// Calls per closed-loop `submit_all` batch; each submitter keeps two
    /// outstanding. 500 (2 × 500 fits the 1024-transaction client window)
    /// unless that much conflicting work in flight would exhaust retries.
    pub batch: usize,
    /// Shares of `--seconds` given to `low`, `high`, `capacity` and the
    /// fault phase.
    pub shares: [f64; 4],
}

/// Block size on every workload.
pub const BLOCK_SIZE: usize = 100;
/// Block-cut timeout on every workload.
pub const BLOCK_TIMEOUT: Duration = Duration::from_millis(100);
/// Executor threads per node where the deployment lets us set it.
pub const EXECUTOR_THREADS: usize = 2;
/// Submitter threads = client connections = `nproc` of the reference host.
pub const SUBMITTERS: usize = 2;

/// Buffer-pool frames of `eo-mixed-paged` (256 × 8 KB = 2 MB).
pub const POOL_FRAMES: usize = 256;
/// Blocks of history kept resident on `eo-mixed-paged`.
pub const SPILL_RETENTION: u64 = 4;

/// Seeded reference data of `eo-mixed-paged`.
pub const ITEMS: i64 = 1_000;
/// Departments the items fall into (one join reads `ITEMS / DEPTS` items).
pub const DEPTS: i64 = GROUPS;
/// Seeded orders (joined against the items).
pub const ORDERS: i64 = 4_000;
/// Accounts; transfer destinations are uniform over all of them.
pub const ACCOUNTS: i64 = 10_000;
/// Transfer sources are uniform over this hot prefix of the accounts.
pub const HOT_ACCOUNTS: i64 = 1_000;
/// Opening balance of every account.
pub const OPENING_BALANCE: i64 = 1_000_000;
/// Rows of the point-read table (~200 B each, ≈ 10 × the pool).
pub const EVENTS: i64 = 100_000;
/// Rows inserted per seeding transaction.
pub const SEED_ROWS_PER_TX: i64 = 100;

/// The four workloads, in reporting order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "oe-simple-durable",
        why: "Ordering and the node commit path (SSI gate, apply, ledger, group fsync) do nearly all the work; engine, pager and sockets almost none.",
        flow: Flow::OrderThenExecute,
        transport: Transport::InProcess,
        lan: true,
        storage: Storage::DurableFsync,
        bft_faults: false,
        mix: Mix::Simple,
        low_rate: 2000.0,
        high_rate: 6000.0,
        capacity_ref: 14000.0,
        batch: 500,
        shares: [0.15, 0.35, 0.5, 0.0],
    },
    Spec {
        name: "eo-simple-tcp",
        why: "Same SQL as oe-simple-durable over real sockets and the EO flow, so a difference is flow + framing; an fsync or pager change must not move it.",
        flow: Flow::ExecuteOrderParallel,
        transport: Transport::Tcp,
        lan: false,
        storage: Storage::Memory,
        bft_faults: false,
        mix: Mix::Simple,
        low_rate: 1000.0,
        high_rate: 1500.0,
        capacity_ref: 6000.0,
        batch: 500,
        shares: [0.15, 0.35, 0.5, 0.0],
    },
    Spec {
        name: "eo-mixed-paged",
        why: "Joins, conflicting transfers and point reads over data 10x the buffer pool: engine, planner, SSI retries and the pager carry the load.",
        flow: Flow::ExecuteOrderParallel,
        transport: Transport::InProcess,
        lan: false,
        storage: Storage::Paged,
        bft_faults: false,
        mix: Mix::Mixed,
        low_rate: 200.0,
        high_rate: 400.0,
        capacity_ref: 1150.0,
        batch: 125,
        shares: [0.15, 0.35, 0.5, 0.0],
    },
    Spec {
        name: "oe-bft-faults",
        why: "Only workload with PBFT rounds, view changes and peer catch-up on the path; requests keep arriving on schedule during each fault.",
        flow: Flow::OrderThenExecute,
        transport: Transport::InProcess,
        lan: true,
        storage: Storage::Memory,
        bft_faults: true,
        mix: Mix::Simple,
        low_rate: 500.0,
        high_rate: 4000.0,
        capacity_ref: 14500.0,
        batch: 500,
        shares: [0.1, 0.3, 0.3, 0.3],
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Genesis DDL of the *simple* contract — the same text
/// `ClusterSpec::new` installs by default, so both simple workloads and
/// the TCP cluster run one contract.
pub const SIMPLE_SQL: &str = bcrdb_core::DEFAULT_GENESIS_SQL;

/// Genesis DDL of `eo-mixed-paged`: the paper's complex-join schema and
/// contract exactly as `bcrdb_bench::contracts` defines them (`bench_tx`
/// there is the join), plus a two-UPDATE transfer, the `events`
/// point-read table, and the bulk-seeding contracts (each inserts
/// [`SEED_ROWS_PER_TX`] consecutive rows computed from its base id, so
/// seeding travels the chain like any other transaction). The seeded
/// `bench_items`/`bench_orders` columns follow `Workload::seed`.
pub fn mixed_sql() -> String {
    fn rows(cols: impl Fn(&str) -> String) -> String {
        (0..SEED_ROWS_PER_TX)
            .map(|k| format!("({})", cols(&format!("($1 + {k})"))))
            .collect::<Vec<_>>()
            .join(", ")
    }
    let join = Workload::new(WorkloadKind::ComplexJoin, ORDERS as usize).bootstrap_sql();
    let items = rows(|id| format!("{id}, {id} % {DEPTS}, 1.0 + {id} % 17"));
    let orders = rows(|id| format!("{id}, {id} % {ITEMS}, 0.5 + {id} % 31"));
    let accounts = rows(|id| format!("{id}, {OPENING_BALANCE}"));
    let events = rows(|id| format!("{id}, {id} % 7, $2"));
    format!(
        "{join}; \
         CREATE TABLE accounts (id INT PRIMARY KEY, balance INT NOT NULL); \
         CREATE TABLE events (id INT PRIMARY KEY, kind INT NOT NULL, payload TEXT NOT NULL); \
         CREATE FUNCTION transfer(src INT, dst INT, amount INT) AS $$ \
           UPDATE accounts SET balance = balance - $3 WHERE id = $1; \
           UPDATE accounts SET balance = balance + $3 WHERE id = $2 $$; \
         CREATE FUNCTION seed_items(base INT) AS $$ INSERT INTO bench_items VALUES {items} $$; \
         CREATE FUNCTION seed_orders(base INT) AS $$ INSERT INTO bench_orders VALUES {orders} $$; \
         CREATE FUNCTION seed_accounts(base INT) AS $$ INSERT INTO accounts VALUES {accounts} $$; \
         CREATE FUNCTION seed_events(base INT, payload TEXT) AS $$ INSERT INTO events VALUES {events} $$"
    )
}

/// The read-only point lookup of `eo-mixed-paged`.
pub const POINT_QUERY: &str = "SELECT id, kind, payload FROM events WHERE id = $1";

/// Genesis DDL for `spec`.
pub fn genesis_sql(spec: &Spec) -> String {
    match spec.mix {
        Mix::Simple => SIMPLE_SQL.to_string(),
        Mix::Mixed => mixed_sql(),
    }
}

// ------------------------------------------------------------ generator

/// SplitMix64: tiny, seedable, and good enough to draw keys and mixes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (phase number,
    /// fault schedule, …) so streams never overlap.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias at these sizes is far
    /// below anything the benchmark resolves).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `bench_tx(id, f1, f2, f3, f4)`: the one-row INSERT.
    Simple {
        /// Primary key (unique across the run).
        id: i64,
        /// Seeded column values.
        f1: i64,
        /// Seeded column values.
        f2: i64,
        /// Seeded payload text.
        f3: String,
    },
    /// `bench_tx(run_id, dept)`: the complex-join contract.
    Join {
        /// Primary key of the result row (unique across the run).
        run_id: i64,
        /// Department to aggregate.
        dept: i64,
    },
    /// `transfer(src, dst, amount)`; `amount` is unique per operation so
    /// no two transfers ever hash to one EO transaction id.
    Transfer {
        /// Source account (hot set).
        src: i64,
        /// Destination account.
        dst: i64,
        /// Amount moved.
        amount: i64,
    },
    /// Read-only PK lookup in `events`.
    Read {
        /// The key looked up.
        key: i64,
    },
}

impl Op {
    /// Contract name and argument values of a write operation; `None`
    /// for a read.
    pub fn invocation(&self) -> Option<(&'static str, Vec<Value>)> {
        match self {
            Op::Simple { id, f1, f2, f3 } => Some((
                "bench_tx",
                vec![
                    Value::Int(*id),
                    Value::Int(*f1),
                    Value::Int(*f2),
                    Value::Text(f3.clone()),
                    Value::Float(*id as f64 * 0.5),
                ],
            )),
            Op::Join { run_id, dept } => {
                Some(("bench_tx", vec![Value::Int(*run_id), Value::Int(*dept)]))
            }
            Op::Transfer { src, dst, amount } => Some((
                "transfer",
                vec![Value::Int(*src), Value::Int(*dst), Value::Int(*amount)],
            )),
            Op::Read { .. } => None,
        }
    }

    /// The signed-transaction call for a write operation; `None` for a
    /// read.
    pub fn call(&self) -> Option<Call> {
        self.invocation()
            .map(|(contract, args)| Call::new(contract).args(args))
    }

    /// Is this the read-only lookup?
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read { .. })
    }

    /// Does a commit of this operation add one row to an insert table?
    pub fn is_insert(&self) -> bool {
        matches!(self, Op::Simple { .. } | Op::Join { .. })
    }
}

/// Phases draw their ids from disjoint ranges so a later phase can never
/// collide with an earlier one's primary keys.
const PHASE_ID_STRIDE: i64 = 100_000_000;

/// The `count` operations of phase number `phase` for `seed`.
pub fn op_stream(mix: Mix, seed: u64, phase: u64, count: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, phase);
    let base = (phase as i64 + 1) * PHASE_ID_STRIDE;
    (0..count as i64)
        .map(|i| match mix {
            Mix::Simple => simple_op(&mut rng, base + i),
            Mix::Mixed => match rng.below(100) {
                0..=49 => Op::Join {
                    run_id: base + i,
                    dept: rng.below(DEPTS as u64) as i64,
                },
                50..=69 => {
                    let src = rng.below(HOT_ACCOUNTS as u64) as i64;
                    let mut dst = rng.below(ACCOUNTS as u64) as i64;
                    if dst == src {
                        dst = (dst + 1) % ACCOUNTS;
                    }
                    Op::Transfer {
                        src,
                        dst,
                        amount: base + i,
                    }
                }
                _ => Op::Read {
                    key: rng.below(EVENTS as u64) as i64,
                },
            },
        })
        .collect()
}

fn simple_op(rng: &mut Rng, id: i64) -> Op {
    Op::Simple {
        id,
        f1: rng.below(1000) as i64,
        f2: rng.below(77) as i64,
        f3: format!("payload-{:016x}", rng.next()),
    }
}

/// The seeding invocations of `eo-mixed-paged` in submission order, with
/// an `events` table of `events` rows. The event payload text (~180 B) is
/// drawn from the seed.
pub fn seed_invocations(seed: u64, events: i64) -> Vec<(&'static str, Vec<Value>)> {
    let mut rng = Rng::new(seed, u64::MAX);
    let mut out = Vec::new();
    let bases = |total: i64| (0..total / SEED_ROWS_PER_TX).map(|b| b * SEED_ROWS_PER_TX);
    for (contract, total) in [
        ("seed_items", ITEMS),
        ("seed_orders", ORDERS),
        ("seed_accounts", ACCOUNTS),
    ] {
        out.extend(bases(total).map(|base| (contract, vec![Value::Int(base)])));
    }
    for base in bases(events) {
        let payload: String = (0..11).map(|_| format!("{:016x}", rng.next())).collect();
        out.push(("seed_events", vec![Value::Int(base), Value::Text(payload)]));
    }
    out
}

/// The seeding calls of `eo-mixed-paged` at full size.
pub fn seed_calls(seed: u64) -> Vec<Call> {
    seed_invocations(seed, EVENTS)
        .into_iter()
        .map(|(contract, args)| Call::new(contract).args(args))
        .collect()
}

// -------------------------------------------------------- fault schedule

/// One step of the `oe-bft-faults` schedule; offsets are seconds from the
/// start of the fault phase.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// `stop_node(org)`.
    StopNode {
        /// When.
        at_s: f64,
    },
    /// `rejoin_node(org)`.
    RejoinNode {
        /// When.
        at_s: f64,
    },
    /// `stall_orderer(current_view % orderers)`, then `unstall_orderer`
    /// once `current_view` has advanced.
    StallLeader {
        /// When.
        at_s: f64,
    },
}

/// Number of leader stalls in the schedule.
pub const STALLS: usize = 5;

/// The fault schedule for a fault phase of `phase_s` seconds: the crashed
/// node is down from 5 % to 25 % of the phase, and the five leader stalls
/// are spread evenly over the second half-and-a-bit (40 %–88 %), each
/// moved by a seeded offset of up to ±5 % of the stall spacing so that no
/// two seeds line up with the block-cut timer the same way.
pub fn fault_schedule(seed: u64, phase_s: f64) -> Vec<Fault> {
    let mut rng = Rng::new(seed, u64::MAX - 1);
    let mut out = vec![
        Fault::StopNode {
            at_s: 0.05 * phase_s,
        },
        Fault::RejoinNode {
            at_s: 0.25 * phase_s,
        },
    ];
    let spacing = 0.12 * phase_s;
    for i in 0..STALLS {
        let jitter = (rng.below(2001) as f64 / 1000.0 - 1.0) * 0.05 * spacing;
        out.push(Fault::StallLeader {
            at_s: 0.40 * phase_s + i as f64 * spacing + jitter,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for mix in [Mix::Simple, Mix::Mixed] {
            let a = format!("{:?}", op_stream(mix, 7, 2, 500));
            let b = format!("{:?}", op_stream(mix, 7, 2, 500));
            let c = format!("{:?}", op_stream(mix, 8, 2, 500));
            let d = format!("{:?}", op_stream(mix, 7, 3, 500));
            assert_eq!(a, b, "same seed, same phase: byte-identical stream");
            assert_ne!(a, c, "another seed draws another stream");
            assert_ne!(a, d, "another phase draws another stream");
        }
        assert_eq!(
            format!("{:?}", fault_schedule(7, 10.0)),
            format!("{:?}", fault_schedule(7, 10.0))
        );
        assert_ne!(fault_schedule(7, 10.0), fault_schedule(8, 10.0));
        assert_eq!(
            format!("{:?}", seed_calls(7)),
            format!("{:?}", seed_calls(7))
        );
    }

    /// The committed A/A sets and the bounds in `BENCHMARK.json` describe
    /// the program at the rates `README.md` records; a rate edited here
    /// alone would silently measure another program.
    #[test]
    fn frozen_rates_match_the_readme_table() {
        let readme = include_str!("README.md");
        let number = |cell: &str| -> f64 {
            let first = cell.split_whitespace().next().unwrap_or("");
            first.replace(',', "").parse().unwrap_or(0.0)
        };
        for spec in &SPECS {
            let row = readme
                .lines()
                .find(|l| l.starts_with(&format!("| `{}` | ≈", spec.name)))
                .unwrap_or_else(|| panic!("no frozen-rates row for {}", spec.name));
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert_eq!(number(cells[3]), spec.low_rate, "{row}");
            assert_eq!(number(cells[4]), spec.high_rate, "{row}");
            assert_eq!(number(cells[5]), spec.capacity_ref, "{row}");
            let shares: Vec<f64> = cells[6].split('/').map(number).collect();
            assert_eq!(shares, spec.shares, "{row}");
        }
    }

    #[test]
    fn mixed_stream_has_the_stated_shares_and_unique_keys() {
        let ops = op_stream(Mix::Mixed, 1, 0, 20_000);
        let joins = ops.iter().filter(|o| matches!(o, Op::Join { .. })).count();
        let transfers = ops
            .iter()
            .filter(|o| matches!(o, Op::Transfer { .. }))
            .count();
        let reads = ops.iter().filter(|o| o.is_read()).count();
        assert!((joins as f64 / 20_000.0 - 0.5).abs() < 0.02);
        assert!((transfers as f64 / 20_000.0 - 0.2).abs() < 0.02);
        assert!((reads as f64 / 20_000.0 - 0.3).abs() < 0.02);
        let mut amounts: Vec<i64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Transfer { amount, src, dst } => {
                    assert!(*src < HOT_ACCOUNTS && *dst < ACCOUNTS && src != dst);
                    Some(*amount)
                }
                _ => None,
            })
            .collect();
        amounts.sort_unstable();
        amounts.dedup();
        assert_eq!(amounts.len(), transfers, "transfer payloads are unique");
    }

    #[test]
    fn fault_schedule_fits_its_phase_and_keeps_order() {
        let sched = fault_schedule(3, 10.0);
        assert_eq!(sched.len(), 2 + STALLS);
        let times: Vec<f64> = sched
            .iter()
            .map(|f| match f {
                Fault::StopNode { at_s }
                | Fault::RejoinNode { at_s }
                | Fault::StallLeader { at_s } => *at_s,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        assert!(*times.last().unwrap() < 9.0, "room to recover: {times:?}");
    }

    #[test]
    fn genesis_sql_parses_under_the_flow_rules() {
        for spec in &SPECS {
            let sql = genesis_sql(spec);
            let stmts = bcrdb_sql::parse_statements(&sql).expect("genesis parses");
            assert!(!stmts.is_empty());
        }
        assert_eq!(
            seed_calls(1).len() as i64,
            (ITEMS + ORDERS + ACCOUNTS + EVENTS) / SEED_ROWS_PER_TX
        );
    }
}
