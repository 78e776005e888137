//! The block-cut policy end to end (DESIGN.md "Block cutting"): a
//! network whose nodes vote cuts a pending transaction as soon as a
//! majority of them have committed the last block, keeps doing so with a
//! node down, falls back to the timer when most are silent, and resumes
//! when they return — on both flows and both ordering backends, leaving a
//! chain of uneven blocks that every node agrees on and that replays. A
//! network whose votes are withheld cuts as the paper's does.

#[path = "common/replay.rs"]
mod replay;
#[path = "common/votes.rs"]
mod votes;

use std::time::{Duration, Instant};

use bcrdb::ordering::{OrderingConfig, OrderingStatsSnapshot};
use bcrdb::prelude::*;

const WAIT: Duration = Duration::from_secs(30);
const BLOCK_TIMEOUT: Duration = Duration::from_secs(2);
/// Far below the timer, far above a commit on an idle network.
const EARLY: Duration = Duration::from_millis(500);

const GENESIS: &str = "CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL); \
     CREATE FUNCTION put(k INT, v INT) AS $$ INSERT INTO kv VALUES ($1, $2) $$";

fn build(flow: Flow, ordering: OrderingConfig) -> Network {
    let mut cfg = NetworkConfig::quick(&["org1", "org2", "org3"], flow);
    cfg.ordering = ordering;
    // In the configuration, so a rejoining node starts from it too.
    cfg.genesis_sql = Some(GENESIS.into());
    Network::build(cfg).unwrap()
}

fn kafka() -> OrderingConfig {
    OrderingConfig::kafka(3, 100, BLOCK_TIMEOUT)
}

fn bft() -> OrderingConfig {
    let mut cfg = OrderingConfig::bft(4, 100, BLOCK_TIMEOUT);
    cfg.bft_msg_cost = Duration::from_micros(100);
    cfg.view_change_timeout = Duration::from_secs(8);
    cfg.net_profile = bcrdb::network::NetProfile::instant();
    cfg
}

/// Commit `put(k, k)` for each key, one at a time; returns how long the
/// slowest took.
fn commit_each(client: &Client, keys: std::ops::Range<i64>) -> Duration {
    keys.map(|k| {
        let t0 = Instant::now();
        client.call("put").arg(k).arg(k).submit_wait(WAIT).unwrap();
        t0.elapsed()
    })
    .max()
    .unwrap()
}

/// The cuts made since `before`, as `(idle, timeout, size)`.
fn cuts_since(net: &Network, before: OrderingStatsSnapshot) -> (u64, u64, u64) {
    let now = net.ordering().stats_snapshot();
    (
        now.cut_idle - before.cut_idle,
        now.cut_timeout - before.cut_timeout,
        now.cut_size - before.cut_size,
    )
}

fn idle_cuts_follow_the_voting_majority(flow: Flow, ordering: OrderingConfig) {
    let what = format!("{flow:?}/{}", ordering.kind.as_str());
    let net = build(flow, ordering);
    let client = net.client("org1", "alice").unwrap();
    let stats = || net.ordering().stats_snapshot();

    // Nobody has voted yet: the first block waits for the timer.
    assert!(commit_each(&client, 0..1) >= BLOCK_TIMEOUT, "{what}");
    assert_eq!(cuts_since(&net, Default::default()), (0, 1, 0), "{what}");

    // From here every commit leaves the nodes idle, so the next
    // transaction is a block of its own the moment it arrives.
    let before = stats();
    let slowest = commit_each(&client, 1..21);
    assert!(
        slowest < EARLY,
        "{what}: {slowest:?} with three nodes voting"
    );
    assert_eq!(cuts_since(&net, before), (20, 0, 0), "{what}");

    // Two of three voting is still a majority.
    net.stop_node("org3").unwrap();
    let before = stats();
    let slowest = commit_each(&client, 21..26);
    assert!(slowest < EARLY, "{what}: {slowest:?} with one node down");
    assert_eq!(cuts_since(&net, before), (5, 0, 0), "{what}");

    // One of three is not — once the tip has moved past what the second
    // stopped node had voted for. Then the timer takes over and nothing
    // is lost.
    net.stop_node("org2").unwrap();
    commit_each(&client, 26..27);
    let before = stats();
    commit_each(&client, 27..29);
    assert_eq!(cuts_since(&net, before), (0, 2, 0), "{what}");

    // Both return, catch up (voting as they go) and the early cuts
    // resume: the first commit may still find one of them behind.
    net.rejoin_node("org2").unwrap();
    net.rejoin_node("org3").unwrap();
    commit_each(&client, 29..30);
    let before = stats();
    let slowest = commit_each(&client, 30..35);
    assert!(slowest < EARLY, "{what}: {slowest:?} after the rejoin");
    assert_eq!(cuts_since(&net, before), (5, 0, 0), "{what}");

    // 35 transactions in 35 blocks of one, cut by two different rules:
    // one chain, one state, and it replays.
    let head = net.ordering().height();
    assert_eq!(head, 35, "{what}");
    net.await_height(head, WAIT).unwrap();
    let nodes = net.nodes();
    let fps: Vec<_> = nodes.iter().map(replay::fingerprint).collect();
    for (node, fp) in nodes.iter().zip(&fps).skip(1) {
        assert_eq!(fp.chain, fps[0].chain, "{what}: {}", node.config.name);
        assert_eq!(fp.state, fps[0].state, "{what}: {}", node.config.name);
    }
    replay::assert_replay_matches(&net, &nodes[0], GENESIS);
    net.shutdown();
}

#[test]
fn idle_cuts_follow_the_voting_majority_oe_kafka() {
    idle_cuts_follow_the_voting_majority(Flow::OrderThenExecute, kafka());
}

#[test]
fn idle_cuts_follow_the_voting_majority_eo_kafka() {
    idle_cuts_follow_the_voting_majority(Flow::ExecuteOrderParallel, kafka());
}

#[test]
fn idle_cuts_follow_the_voting_majority_oe_bft() {
    idle_cuts_follow_the_voting_majority(Flow::OrderThenExecute, bft());
}

#[test]
fn idle_cuts_follow_the_voting_majority_eo_bft() {
    idle_cuts_follow_the_voting_majority(Flow::ExecuteOrderParallel, bft());
}

/// With the votes withheld the same network is the paper's cutter: a
/// lone transaction waits out the timer, a burst fills blocks to the cap
/// and leaves the remainder to the timer.
#[test]
fn withheld_votes_leave_size_and_timeout() {
    let timeout = Duration::from_millis(300);
    for flow in [Flow::OrderThenExecute, Flow::ExecuteOrderParallel] {
        let net = build(flow, OrderingConfig::kafka(3, 4, timeout));
        votes::withhold_votes(&net.nodes());
        let client = net.client("org1", "alice").unwrap();
        for k in 0..3 {
            assert!(commit_each(&client, k..k + 1) >= timeout, "{flow:?}");
        }
        let burst = (10..20).map(|k| Call::new("put").arg(k).arg(k));
        client.submit_all(burst).unwrap().wait_all(WAIT).unwrap();
        let sizes: Vec<usize> = (1..=net.ordering().height())
            .map(|h| net.nodes()[0].blockstore.get(h).unwrap().txs.len())
            .collect();
        assert_eq!(sizes, [1, 1, 1, 4, 4, 2], "{flow:?}");
        assert_eq!(cuts_since(&net, Default::default()), (0, 4, 2), "{flow:?}");
        net.shutdown();
    }
}
