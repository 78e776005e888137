//! The submission path, scenario by scenario, written once against a
//! node handle and its clients so that `session_api.rs` runs them over
//! the in-process and simulated connections and `tcp_deploy.rs` over real
//! sockets: a submission registers for its own notification, and whatever
//! happens to it — the client leaves, the same id is submitted again, the
//! node refuses a member — no waiter is left behind and no live one lost.

mod votes;

use std::sync::Arc;
use std::time::{Duration, Instant};

use bcrdb::chain::tx::{Payload, Transaction};
use bcrdb::common::error::AbortReason;
use bcrdb::crypto::identity::{KeyPair, Scheme};
use bcrdb::node::{Node, NodeHooks};
use bcrdb::prelude::*;
pub use votes::withhold_votes;

const WAIT: Duration = Duration::from_secs(20);

fn call(payload: Payload) -> Call {
    Call::new(payload.contract).args(payload.args)
}

fn await_no_waiters(node: &Node, what: &str) {
    let deadline = Instant::now() + WAIT;
    while node.pending_notification_waiters() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(node.pending_notification_waiters(), 0, "{what}");
}

/// A client that goes away with submitted, unresolved transactions —
/// one of them still in flight, the others acknowledged by a node whose
/// orderer never hears of them, so nothing but the disconnect can ever
/// clear their registrations — leaves no waiter on its node. Wants the
/// order-then-execute flow; `insert(k)` is a contract call inserting key
/// `k`.
pub fn dropped_client_leaves_no_waiters(
    node: &Arc<Node>,
    client: Client,
    insert: &dyn Fn(i64) -> Payload,
) {
    assert_eq!(node.pending_notification_waiters(), 0);
    let in_flight = client.submit(call(insert(1))).unwrap();
    node.set_hooks(NodeHooks {
        submit_orderer: Some(Arc::new(|_| Ok(()))),
        ..NodeHooks::default()
    });
    let lost = client.submit(call(insert(2))).unwrap();
    let lost_batch = client
        .submit_all([call(insert(3)), call(insert(4))])
        .unwrap();
    assert!(node.pending_notification_waiters() >= 3);

    drop((in_flight, lost, lost_batch));
    drop(client);
    // Over a wire the disconnect reaches the node asynchronously.
    await_no_waiters(node, "the disconnect leaked waiters");
}

/// The same call submitted twice on one connection is one transaction
/// id with two waits, and both hear the outcome; a third submission of
/// that id which the node refuses takes back its own registration and
/// nobody else's. Wants the execute-order-in-parallel flow and a network
/// whose votes are withheld, with a block timeout long enough that the
/// first submission is still in flight for the few calls that follow it.
pub fn duplicate_submissions_share_one_outcome(
    node: &Arc<Node>,
    client: &Client,
    insert: &dyn Fn(i64) -> Payload,
) {
    let height = client.chain_height().unwrap();
    let first = client.submit(call(insert(1)).at_height(height)).unwrap();
    let second = client.submit(call(insert(1)).at_height(height)).unwrap();
    assert_eq!(first.id, second.id);

    // Same user, payload and height, hence the same id — under a key
    // that is not the user's, so the node refuses it.
    let impostor = KeyPair::generate(client.name(), b"not the user's seed", Scheme::Sim);
    let forged =
        Transaction::new_execute_order(client.name(), insert(1), height, &impostor).unwrap();
    assert_eq!(forged.id, first.id);
    let refused = client.transport().submit(vec![forged]).err();
    assert!(matches!(refused, Some(Error::Crypto(_))), "{refused:?}");
    assert_eq!(
        node.pending_notification_waiters(),
        1,
        "the refused resubmission must spare the waits in flight"
    );

    let outcome = first.wait_committed(WAIT).unwrap();
    assert_eq!(second.wait_committed(WAIT).unwrap(), outcome);
    await_no_waiters(node, "a resolved id kept a waiter");
}

/// A batch fails on the first member the node refuses, with that
/// member's error: the members before it stay submitted and commit, the
/// ones after it never reach the node, and no waiter is left for any of
/// them. `stranger` is a client whose user the node does not know (every
/// member refused); `keys` lists the table's keys in order. Wants the
/// execute-order-in-parallel flow, where the node checks a submission
/// before accepting it.
pub fn refused_member_fails_the_batch(
    node: &Arc<Node>,
    client: &Client,
    stranger: &Client,
    insert: &dyn Fn(i64) -> Payload,
    keys: &str,
) {
    let err = stranger
        .submit_all([call(insert(8)), call(insert(9))])
        .unwrap_err();
    assert!(
        matches!(&err, Error::Crypto(m) if m.contains("unknown user")),
        "{err}"
    );
    assert_eq!(node.pending_notification_waiters(), 0);
    assert_eq!(stranger.in_flight(), 0);

    // Pinned to the same height, the middle member below is the id the
    // node has already processed.
    let height = client.chain_height().unwrap();
    client
        .submit(call(insert(1)).at_height(height))
        .unwrap()
        .wait_committed(WAIT)
        .unwrap();
    let err = client
        .submit_all([
            call(insert(2)),
            call(insert(1)).at_height(height),
            call(insert(3)),
        ])
        .unwrap_err();
    assert!(
        matches!(err, Error::Abort(AbortReason::DuplicateTxId)),
        "{err}"
    );
    assert_eq!(client.in_flight(), 0, "a failed batch holds no window slot");

    let committed = || -> Vec<i64> {
        let rows: Vec<(i64,)> = client.select(keys).fetch_as().unwrap();
        rows.into_iter().map(|(k,)| k).collect()
    };
    let deadline = Instant::now() + WAIT;
    while committed() != [1, 2] && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        committed(),
        [1, 2],
        "member 0 commits, member 2 was never sent"
    );
    await_no_waiters(node, "the refused batch leaked waiters");
}
