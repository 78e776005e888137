//! `bcrdb-node` — run one process of a TCP deployment.
//!
//! Two roles share the binary:
//!
//! * `--role node` runs one organization's database node: it serves the
//!   client plane (typed RPC frontend) and the peer plane on two TCP
//!   listeners, dials the other organizations' peers and its orderer
//!   replica, and commits blocks to `--data-dir`.
//! * `--role ordering` runs the ordering service with one orderer
//!   replica listener per organization.
//!
//! Every process of one deployment must be started with the same
//! cluster-wide flags (`--orgs`, `--flow`, `--block-size`,
//! `--block-timeout-ms`, `--bench-clients`, `--genesis`): all identities
//! derive deterministically from them, so the processes agree on the
//! certificate registry without exchanging keys.
//!
//! The process runs until SIGINT/SIGTERM, then shuts down gracefully.
//!
//! ```text
//! bcrdb-node --role ordering --orgs org1,org2 --flow eo \
//!     --listen-orderer 127.0.0.1:7301 --listen-orderer 127.0.0.1:7302
//! bcrdb-node --role node --org org1 --orgs org1,org2 --flow eo \
//!     --listen-client 127.0.0.1:7101 --listen-peer 127.0.0.1:7201 \
//!     --peer org2=127.0.0.1:7202 --orderer-addr 127.0.0.1:7301 \
//!     --data-dir /tmp/bcrdb/org1
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use bcrdb_core::{install_stop_signals, run_node_process, run_ordering_process, ClusterSpec};
use bcrdb_core::{NodeSpec, DEFAULT_GENESIS_SQL};
use bcrdb_network::tcp::bind_reuse;
use bcrdb_network::PeerAddr;
use bcrdb_txn::ssi::Flow;

const USAGE: &str = "\
Usage: bcrdb-node --role node|ordering [options]

Cluster-wide options (must match on every process of a deployment):
  --orgs a,b,c           comma-separated organizations (required)
  --flow oe|eo           transaction flow: order-then-execute (oe) or
                         execute-order-in-parallel (eo) [default: eo]
  --block-size N         cap on transactions per block [default: 64]
  --block-timeout-ms N   fallback block cut timeout in milliseconds, for when
                         no majority of the nodes is voting [default: 100]
  --bench-clients N      pre-registered bench users per org [default: 64]
  --genesis FILE|none    genesis SQL file, or `none` for an empty chain
                         [default: built-in bench_simple schema]

Role `node`:
  --org NAME             this node's organization (required)
  --listen-client ADDR   client-plane listen address (required)
  --listen-peer ADDR     peer-plane listen address (required)
  --peer ORG=ADDR        peer-plane address of another org's node
                         (repeatable; one per other org)
  --orderer-addr ADDR    this node's orderer replica (required)
  --data-dir DIR         block store / snapshot directory
  --fsync                fsync the block store on append
  --paged                disk-backed paged table storage: spill cold
                         heap segments to page files under
                         <data-dir>/pages (requires --data-dir)
  --pool-frames N        buffer-pool capacity in 8 KB frames with
                         --paged [default: 1024]
  --rejoin               catch up from peers before serving clients
                         (restart / late join)

Role `ordering`:
  --listen-orderer ADDR  listen address of one orderer replica
                         (repeatable; exactly one per org, in org order)
";

struct Opts {
    role: String,
    orgs: Vec<String>,
    flow: Flow,
    block_size: usize,
    block_timeout_ms: u64,
    bench_clients: usize,
    genesis: Option<String>,
    fsync: bool,
    org: Option<String>,
    listen_client: Option<String>,
    listen_peer: Option<String>,
    peers: Vec<String>,
    orderer_addr: Option<String>,
    data_dir: Option<PathBuf>,
    paged: bool,
    pool_frames: usize,
    rejoin: bool,
    listen_orderer: Vec<String>,
}

fn fail(msg: &str) -> ! {
    eprintln!("bcrdb-node: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        role: String::new(),
        orgs: Vec::new(),
        flow: Flow::ExecuteOrderParallel,
        block_size: 64,
        block_timeout_ms: 100,
        bench_clients: 64,
        genesis: None,
        fsync: false,
        org: None,
        listen_client: None,
        listen_peer: None,
        peers: Vec::new(),
        orderer_addr: None,
        data_dir: None,
        paged: false,
        pool_frames: bcrdb_core::DEFAULT_POOL_FRAMES,
        rejoin: false,
        listen_orderer: Vec::new(),
    };
    let mut genesis_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} requires a value")))
                .clone()
        };
        match flag.as_str() {
            "--role" => o.role = val("--role"),
            "--orgs" => {
                o.orgs = val("--orgs")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--flow" => {
                o.flow = match val("--flow").as_str() {
                    "oe" | "order-execute" => Flow::OrderThenExecute,
                    "eo" | "eop" | "execute-order" => Flow::ExecuteOrderParallel,
                    other => fail(&format!("unknown flow `{other}` (expected oe|eo)")),
                };
            }
            "--block-size" => o.block_size = parse_num(&val("--block-size"), "--block-size"),
            "--block-timeout-ms" => {
                o.block_timeout_ms = parse_num(&val("--block-timeout-ms"), "--block-timeout-ms");
            }
            "--bench-clients" => {
                o.bench_clients = parse_num(&val("--bench-clients"), "--bench-clients");
            }
            "--genesis" => genesis_file = Some(val("--genesis")),
            "--fsync" => o.fsync = true,
            "--org" => o.org = Some(val("--org")),
            "--listen-client" => o.listen_client = Some(val("--listen-client")),
            "--listen-peer" => o.listen_peer = Some(val("--listen-peer")),
            "--peer" => o.peers.push(val("--peer")),
            "--orderer-addr" => o.orderer_addr = Some(val("--orderer-addr")),
            "--data-dir" => o.data_dir = Some(PathBuf::from(val("--data-dir"))),
            "--paged" => o.paged = true,
            "--pool-frames" => o.pool_frames = parse_num(&val("--pool-frames"), "--pool-frames"),
            "--rejoin" => o.rejoin = true,
            "--listen-orderer" => o.listen_orderer.push(val("--listen-orderer")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    o.genesis = match genesis_file.as_deref() {
        None => Some(DEFAULT_GENESIS_SQL.to_string()),
        Some("none") => None,
        Some(path) => Some(
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read genesis file {path}: {e}"))),
        ),
    };
    if o.orgs.is_empty() {
        fail("--orgs is required");
    }
    o
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: invalid number `{s}`")))
}

fn cluster_spec(o: &Opts) -> ClusterSpec {
    let org_refs: Vec<&str> = o.orgs.iter().map(String::as_str).collect();
    let mut spec = ClusterSpec::new(&org_refs, o.flow);
    spec.genesis_sql = o.genesis.clone();
    spec.block_size = o.block_size;
    spec.block_timeout = Duration::from_millis(o.block_timeout_ms);
    spec.bench_clients = o.bench_clients;
    spec.fsync = o.fsync;
    spec
}

fn main() {
    let stop = install_stop_signals();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        fail("no arguments");
    }
    let opts = parse_opts(&args);
    let spec = cluster_spec(&opts);

    match opts.role.as_str() {
        "node" => {
            let org = opts
                .org
                .clone()
                .unwrap_or_else(|| fail("--org is required"));
            let listen_client = opts
                .listen_client
                .clone()
                .unwrap_or_else(|| fail("--listen-client is required"));
            let listen_peer = opts
                .listen_peer
                .clone()
                .unwrap_or_else(|| fail("--listen-peer is required"));
            let orderer_addr = opts
                .orderer_addr
                .clone()
                .unwrap_or_else(|| fail("--orderer-addr is required"));
            let client_listener = bind_reuse(&listen_client)
                .unwrap_or_else(|e| fail(&format!("bind {listen_client}: {e}")));
            let peer_listener = bind_reuse(&listen_peer)
                .unwrap_or_else(|e| fail(&format!("bind {listen_peer}: {e}")));
            let peers: Vec<PeerAddr> = opts
                .peers
                .iter()
                .map(|s| PeerAddr::parse(s).unwrap_or_else(|e| fail(&format!("--peer {s}: {e}"))))
                .collect();
            let proc = run_node_process(
                &spec,
                NodeSpec {
                    org: org.clone(),
                    client_listener,
                    peer_listener,
                    peers,
                    orderer_addr,
                    data_dir: opts.data_dir.clone(),
                    paged: opts.paged,
                    pool_frames: opts.pool_frames.max(1),
                    rejoin: opts.rejoin,
                },
            )
            .unwrap_or_else(|e| {
                eprintln!("bcrdb-node: start failed for {org}: {e}");
                std::process::exit(1);
            });
            println!(
                "bcrdb-node: ready role=node org={org} client={listen_client} peer={listen_peer}"
            );
            let _ = std::io::stdout().flush();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
            }
            proc.shutdown();
            println!("bcrdb-node: stopped org={org}");
        }
        "ordering" => {
            let listeners: Vec<_> = opts
                .listen_orderer
                .iter()
                .map(|a| bind_reuse(a).unwrap_or_else(|e| fail(&format!("bind {a}: {e}"))))
                .collect();
            let proc = run_ordering_process(&spec, listeners).unwrap_or_else(|e| {
                eprintln!("bcrdb-node: ordering start failed: {e}");
                std::process::exit(1);
            });
            println!(
                "bcrdb-node: ready role=ordering replicas={}",
                opts.listen_orderer.len()
            );
            let _ = std::io::stdout().flush();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
            }
            proc.shutdown();
            println!("bcrdb-node: stopped role=ordering");
        }
        "" => fail("--role is required"),
        other => fail(&format!("unknown role `{other}` (expected node|ordering)")),
    }
}
