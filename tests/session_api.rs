//! The typed session API end-to-end: fluent calls, prepared statements,
//! typed rows, batch submission, time-travel reads and the error
//! taxonomy (`Timeout` vs `TxAborted` vs `Decode` vs `Busy`) — all
//! exercised over **both** `NodeTransport` backends, plus the transport
//! semantics themselves (disconnect cleanup, admission control,
//! statement-cache eviction).

mod common;

use std::sync::Arc;
use std::time::Duration;

use bcrdb::chain::tx::Payload;
use bcrdb::crypto::identity::{KeyPair, Scheme};
use bcrdb::node::{ClientRequest, ClientResponse};
use bcrdb::prelude::*;

const WAIT: Duration = Duration::from_secs(20);
const TRANSPORTS: [TransportKind; 2] = [TransportKind::InProcess, TransportKind::Simulated];

const SCHEMA: &str = "CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL, label TEXT); \
     CREATE FUNCTION put(k INT, v INT, label TEXT) AS $$ \
       INSERT INTO kv VALUES ($1, $2, $3) $$; \
     CREATE FUNCTION bump(k INT) AS $$ UPDATE kv SET v = v + 1 WHERE k = $1 $$; \
     CREATE FUNCTION fail_div(k INT) AS $$ \
       UPDATE kv SET v = v / 0 WHERE k = $1 $$";

fn build(flow: Flow, transport: TransportKind) -> Network {
    build_with(flow, transport, |_| {})
}

fn build_with(
    flow: Flow,
    transport: TransportKind,
    tweak: impl FnOnce(&mut NetworkConfig),
) -> Network {
    let mut cfg = NetworkConfig::quick(&["org1", "org2"], flow);
    cfg.client_transport = transport;
    tweak(&mut cfg);
    let net = Network::build(cfg).unwrap();
    net.bootstrap_sql(SCHEMA).unwrap();
    net
}

// ---------------------------------------------------------- time travel

#[test]
fn query_at_returns_each_historical_snapshot() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let c = net.client("org1", "alice").unwrap();
        c.call("put")
            .arg(1)
            .arg(0)
            .arg("x")
            .submit_wait(WAIT)
            .unwrap();
        let h0 = c.chain_height().unwrap();
        // Record the height after each bump; each height is its own snapshot.
        let mut heights = vec![h0];
        for _ in 0..3 {
            c.call("bump").arg(1).submit_wait(WAIT).unwrap();
            heights.push(c.chain_height().unwrap());
        }
        // The value at each recorded height is exactly the bump count then.
        let probe = c.prepare("SELECT v FROM kv WHERE k = $1").unwrap();
        for (expect, h) in heights.iter().enumerate() {
            let v: i64 = probe.run().bind(1).at_height(*h).fetch_scalar().unwrap();
            assert_eq!(v, expect as i64, "height {h}");
        }
        // Height 0 (genesis): the row does not exist yet.
        let r = probe.query_at(&[Value::Int(1)], 0).unwrap();
        assert!(r.is_empty(), "row visible at genesis: {r:?}");
        net.shutdown();
    }
}

#[test]
fn query_at_future_height_errors_cleanly() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let c = net.client("org1", "alice").unwrap();
        c.call("put")
            .arg(1)
            .arg(7)
            .arg("x")
            .submit_wait(WAIT)
            .unwrap();
        let tip = c.chain_height().unwrap();
        // A snapshot beyond the committed tip cannot be served: its blocks
        // have not committed on this node. The error names both heights
        // and survives the transport with its variant intact.
        let err = c
            .select("SELECT v FROM kv WHERE k = $1")
            .bind(1)
            .at_height(tip + 10)
            .fetch()
            .unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, Error::Analysis(_)), "{msg}");
        assert!(msg.contains(&format!("{}", tip + 10)), "{msg}");
        assert!(msg.contains("committed height"), "{msg}");
        // Prepared statements hit the same guard.
        let probe = c.prepare("SELECT v FROM kv WHERE k = $1").unwrap();
        assert!(probe.query_at(&[Value::Int(1)], tip + 1).is_err());
        net.shutdown();
    }
}

// --------------------------------------------------------- error paths

#[test]
fn submit_wait_surfaces_tx_aborted_with_reason() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let c = net.client("org1", "alice").unwrap();
        c.call("put")
            .arg(1)
            .arg(1)
            .arg("x")
            .submit_wait(WAIT)
            .unwrap();
        // A contract error (division by zero) is a terminal abort: the typed
        // error carries the transaction id and the ledger's reason string.
        let pending = c.call("fail_div").arg(1).submit().unwrap();
        let id = pending.id;
        match pending.wait_committed(WAIT) {
            Err(e @ Error::TxAborted { .. }) => {
                let Error::TxAborted { id: got, reason } = &e else {
                    unreachable!()
                };
                assert_eq!(*got, id);
                assert!(reason.contains("division by zero"), "{reason}");
                assert!(!e.is_retriable(), "contract errors are not retriable");
            }
            other => panic!("expected TxAborted, got {other:?}"),
        }
        // submit_wait is the same path.
        match c.call("fail_div").arg(1).submit_wait(WAIT) {
            Err(Error::TxAborted { reason, .. }) => {
                assert!(reason.contains("division by zero"), "{reason}")
            }
            other => panic!("expected TxAborted, got {other:?}"),
        }
        net.shutdown();
    }
}

#[test]
fn wait_timeout_is_a_timeout_not_an_abort() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        common::withhold_votes(&net.nodes());
        let c = net.client("org1", "alice").unwrap();
        let pending = c.call("put").arg(1).arg(1).arg("x").submit().unwrap();
        // A zero timeout cannot have a final status yet: the block timer
        // holds the transaction for 50 ms.
        match pending.wait(Duration::ZERO) {
            Err(e @ Error::Timeout(_)) => assert!(!e.is_retriable()),
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The transaction still commits afterwards — Timeout is not final.
        pending.wait_committed(WAIT).unwrap();
        net.shutdown();
    }
}

// ----------------------------------------------------- typed decoding

#[test]
fn typed_rows_and_decode_errors() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let c = net.client("org1", "alice").unwrap();
        c.call("put")
            .arg(1)
            .arg(10)
            .arg("a")
            .submit_wait(WAIT)
            .unwrap();
        c.call("put")
            .arg(2)
            .arg(20)
            .arg(None::<String>)
            .submit_wait(WAIT)
            .unwrap();

        let rows: Vec<(i64, i64, Option<String>)> = c
            .select("SELECT k, v, label FROM kv ORDER BY k")
            .fetch_as()
            .unwrap();
        assert_eq!(rows, vec![(1, 10, Some("a".into())), (2, 20, None)]);

        // By-name access through RowRef.
        let r = c
            .select("SELECT k, v, label FROM kv ORDER BY k")
            .fetch()
            .unwrap();
        assert_eq!(r.row(0).unwrap().get::<i64>("v").unwrap(), 10);
        assert_eq!(
            r.row(1).unwrap().get::<Option<String>>("label").unwrap(),
            None
        );

        // Wrong target type → Decode, not a panic or engine error.
        match c
            .select("SELECT label FROM kv WHERE k = 1")
            .fetch_scalar::<i64>()
        {
            Err(Error::Decode(msg)) => assert!(msg.contains("expected Int"), "{msg}"),
            other => panic!("expected Decode, got {other:?}"),
        }
        // fetch_one on a two-row result → Decode.
        assert!(matches!(
            c.select("SELECT k FROM kv ORDER BY k")
                .fetch_one::<(i64,)>(),
            Err(Error::Decode(_))
        ));
        net.shutdown();
    }
}

// ------------------------------------------------- prepared statements

#[test]
fn prepared_statements_reuse_one_parse() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let c = net.client("org1", "alice").unwrap();
        for k in 0..10 {
            c.call("put")
                .arg(k)
                .arg(k * 100)
                .arg("x")
                .submit_wait(WAIT)
                .unwrap();
        }
        let node = net.node("org1").unwrap();
        let baseline = node.prepared_statement_count();

        let probe = c.prepare("SELECT v FROM kv WHERE k = $1").unwrap();
        assert_eq!(probe.param_count(), 1);
        assert_eq!(node.prepared_statement_count(), baseline + 1);

        // Many executions with fresh params; no cache growth.
        for k in 0..10i64 {
            let v: i64 = probe.run().bind(k).fetch_scalar().unwrap();
            assert_eq!(v, k * 100);
        }
        assert_eq!(node.prepared_statement_count(), baseline + 1);

        // The same SQL text prepared again (or run via select()) shares the
        // cached parse — and the same server-side handle.
        let again = c.prepare("SELECT v FROM kv WHERE k = $1").unwrap();
        assert_eq!(again.sql(), probe.sql());
        assert_eq!(again.handle(), probe.handle());
        let _ = c
            .select("SELECT v FROM kv WHERE k = $1")
            .bind(3)
            .fetch()
            .unwrap();
        assert_eq!(node.prepared_statement_count(), baseline + 1);

        // Writes cannot be prepared.
        assert!(c.prepare("DELETE FROM kv").is_err());
        // Missing parameters fail cleanly.
        assert!(probe.query(&[]).is_err());
        net.shutdown();
    }
}

#[test]
fn statement_cache_evicts_lru_and_reprepares_transparently() {
    for transport in TRANSPORTS {
        let net = build_with(Flow::OrderThenExecute, transport, |cfg| {
            cfg.statement_cache_cap = 4;
        });
        let c = net.client("org1", "alice").unwrap();
        c.call("put")
            .arg(1)
            .arg(10)
            .arg("x")
            .submit_wait(WAIT)
            .unwrap();
        let probe = c.prepare("SELECT v FROM kv WHERE k = $1").unwrap();
        let first_handle = probe.handle();
        assert_eq!(probe.run().bind(1).fetch_scalar::<i64>().unwrap(), 10);

        // Flood the node with distinct statements: the cache stays
        // bounded instead of growing with every new SQL text.
        for i in 0..20 {
            c.prepare(&format!("SELECT v FROM kv WHERE k = {i}"))
                .unwrap();
        }
        let node = net.node("org1").unwrap();
        assert!(
            node.prepared_statement_count() <= 4,
            "cache grew to {}",
            node.prepared_statement_count()
        );

        // The probe's handle was evicted server-side; execution
        // re-prepares transparently under a fresh handle.
        assert_eq!(probe.run().bind(1).fetch_scalar::<i64>().unwrap(), 10);
        assert_ne!(
            probe.handle(),
            first_handle,
            "expected a re-prepared handle"
        );
        net.shutdown();
    }
}

// -------------------------------------------------- batch submission

#[test]
fn batch_submission_fans_in_notifications() {
    for flow in [Flow::OrderThenExecute, Flow::ExecuteOrderParallel] {
        for transport in TRANSPORTS {
            let net = build(flow, transport);
            let c = net.client("org1", "alice").unwrap();
            let batch = c
                .submit_all((0..25).map(|k| Call::new("put").arg(k).arg(k).arg("b")))
                .unwrap();
            assert_eq!(batch.len(), 25);
            let outcomes = batch.wait_all(WAIT).unwrap();
            assert_eq!(outcomes.len(), 25);
            // Results come back in submission order regardless of commit order.
            for (i, (n, id)) in outcomes.iter().zip(batch.ids()).enumerate() {
                assert_eq!(n.id, *id, "position {i}");
                assert!(
                    matches!(n.status, TxStatus::Committed),
                    "{flow:?} position {i}"
                );
            }
            let count: i64 = c.select("SELECT COUNT(*) FROM kv").fetch_scalar().unwrap();
            assert_eq!(count, 25, "{flow:?}");
            net.shutdown();
        }
    }
}

#[test]
fn failed_submission_does_not_leak_waiters() {
    // A submission that fails at the node (here: resubmitting an
    // already-processed EO transaction id) must deregister its
    // notification waiter — otherwise retry loops grow the hub forever.
    for transport in TRANSPORTS {
        let net = build(Flow::ExecuteOrderParallel, transport);
        let c = net.client("org1", "alice").unwrap();
        let h = c.chain_height().unwrap();
        c.call("put")
            .arg(1)
            .arg(1)
            .arg("x")
            .at_height(h)
            .submit_wait(WAIT)
            .unwrap();
        let node = net.node("org1").unwrap();
        let baseline = node.pending_notification_waiters();
        for _ in 0..5 {
            // Same contract, args and pinned height → same global id → the
            // node rejects the duplicate at submission time.
            let res = c.call("put").arg(1).arg(1).arg("x").at_height(h).submit();
            assert!(res.is_err(), "duplicate pinned resubmission must fail");
        }
        assert_eq!(
            node.pending_notification_waiters(),
            baseline,
            "failed submits leaked notification waiters ({transport:?})"
        );
        net.shutdown();
    }
}

#[test]
fn batch_wait_committed_all_reports_first_abort_in_order() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let c = net.client("org1", "alice").unwrap();
        c.call("put")
            .arg(0)
            .arg(0)
            .arg("seed")
            .submit_wait(WAIT)
            .unwrap();
        // Middle call fails (duplicate key 0); the rest commit.
        let batch = c
            .submit_all([
                Call::new("put").arg(1).arg(1).arg("ok"),
                Call::new("put").arg(0).arg(9).arg("dup"),
                Call::new("put").arg(2).arg(2).arg("ok"),
            ])
            .unwrap();
        let failing_id = batch.ids()[1];
        match batch.wait_committed_all(WAIT) {
            Err(Error::TxAborted { id, reason }) => {
                assert_eq!(id, failing_id);
                assert!(reason.contains("duplicate"), "{reason}");
            }
            other => panic!("expected TxAborted, got {other:?}"),
        }
        // Non-failing members still committed.
        let count: i64 = c.select("SELECT COUNT(*) FROM kv").fetch_scalar().unwrap();
        assert_eq!(count, 3); // seed + two ok
        net.shutdown();
    }
}

// ------------------------------------------------- transport semantics

/// `put(k, k, "x")` — what the shared submission scenarios insert.
fn put(k: i64) -> Payload {
    let label = Value::Text("x".into());
    Payload::new("put", vec![Value::Int(k), Value::Int(k), label])
}

#[test]
fn dropped_client_leaves_no_pending_waiters() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let node = net.node("org1").unwrap();
        let c = net.client("org1", "alice").unwrap();
        common::dropped_client_leaves_no_waiters(&node, c, &put);
        net.shutdown();
    }
}

#[test]
fn duplicate_submissions_share_one_outcome() {
    for transport in TRANSPORTS {
        let net = build_with(Flow::ExecuteOrderParallel, transport, |cfg| {
            cfg.ordering.block_timeout = Duration::from_secs(1);
        });
        common::withhold_votes(&net.nodes());
        let node = net.node("org1").unwrap();
        let c = net.client("org1", "alice").unwrap();
        common::duplicate_submissions_share_one_outcome(&node, &c, &put);
        net.shutdown();
    }
}

#[test]
fn refused_batch_member_fails_the_call_and_leaks_nothing() {
    for transport in TRANSPORTS {
        let net = build(Flow::ExecuteOrderParallel, transport);
        let node = net.node("org1").unwrap();
        let c = net.client("org1", "alice").unwrap();
        // A key of the caller's own making, certified by nobody.
        let key = KeyPair::generate("org1/nobody", b"nobody", Scheme::Sim);
        let stranger = net.attach_client("org1", "nobody", Arc::new(key)).unwrap();
        let keys = "SELECT k FROM kv ORDER BY k";
        common::refused_member_fails_the_batch(&node, &c, &stranger, &put, keys);
        net.shutdown();
    }
}

#[test]
fn admission_window_bounds_in_flight_transactions() {
    for transport in TRANSPORTS {
        let net = build_with(Flow::OrderThenExecute, transport, |cfg| {
            cfg.client_window = 2;
        });
        let c = net.client("org1", "alice").unwrap();
        let p1 = c.call("put").arg(1).arg(1).arg("a").submit().unwrap();
        let p2 = c.call("put").arg(2).arg(2).arg("b").submit().unwrap();
        assert_eq!(c.in_flight(), 2);
        // The window is full: nothing is signed or submitted.
        match c.call("put").arg(3).arg(3).arg("c").submit() {
            Err(Error::Busy(msg)) => assert!(msg.contains("window full"), "{msg}"),
            other => panic!("expected Busy, got {other:?}"),
        }
        // Releasing a handle frees its slot.
        p1.wait_committed(WAIT).unwrap();
        drop(p1);
        assert_eq!(c.in_flight(), 1);
        let p3 = c.call("put").arg(3).arg(3).arg("c").submit().unwrap();
        p3.wait_committed(WAIT).unwrap();
        p2.wait_committed(WAIT).unwrap();
        // A batch larger than the whole window is rejected up front.
        match c.submit_all((10..20).map(|k| Call::new("put").arg(k).arg(k).arg("x"))) {
            Err(Error::Busy(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("expected Busy, got {other:?}"),
        }
        net.shutdown();
    }
}

#[test]
fn raw_rpc_surface_round_trips() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let c = net.client("org1", "alice").unwrap();
        c.call("put")
            .arg(1)
            .arg(5)
            .arg("x")
            .submit_wait(WAIT)
            .unwrap();
        assert!(c.chain_height().unwrap() >= 1);
        let m = c.node_metrics().unwrap();
        assert!(m.committed >= 1, "{transport:?}: {m:?}");
        // The typed request enum is usable directly for custom drivers.
        match c
            .transport()
            .call(ClientRequest::Query {
                sql: "SELECT v FROM kv".into(),
                params: vec![],
                height: None,
            })
            .unwrap()
        {
            ClientResponse::Rows(r) => assert_eq!(r.rows.len(), 1),
            other => panic!("expected Rows, got {other:?}"),
        }
        net.shutdown();
    }
}

// --------------------------------------------------------------- EXPLAIN

/// Tentpole acceptance: `EXPLAIN` rides the ordinary row-result path
/// through both simulated transports, and — because plans are a pure
/// function of the catalog and the commit-sealed statistics — every
/// node renders byte-identical plan text for the same statement.
#[test]
fn explain_round_trips_identically_on_every_node() {
    for transport in TRANSPORTS {
        let net = build(Flow::OrderThenExecute, transport);
        let c1 = net.client("org1", "alice").unwrap();
        for k in 0..8 {
            c1.call("put")
                .arg(k)
                .arg(k * 10)
                .arg("x")
                .submit_wait(WAIT)
                .unwrap();
        }
        let h = c1.chain_height().unwrap();
        net.await_height(h, WAIT).unwrap();
        let c2 = net.client("org2", "bob").unwrap();

        // Client::explain adds the EXPLAIN prefix when missing; both
        // spellings reach the same planner.
        let sql = "SELECT v FROM kv WHERE k = 1 OR k = 2";
        let p1 = c1.explain(sql).unwrap();
        let p2 = c2.explain(&format!("EXPLAIN {sql}")).unwrap();
        assert!(!p1.is_empty(), "empty plan ({transport:?})");
        assert!(
            p1.iter()
                .any(|l| l.contains("est=") && l.contains("actual=")),
            "no estimated/actual counts in {p1:?}"
        );
        assert!(
            p1.iter().any(|l| l.contains("IndexUnion kv")),
            "OR over the key should plan as an index union with stats: {p1:?}"
        );
        assert_eq!(p1, p2, "plan text diverged across nodes ({transport:?})");

        // EXPLAIN of a write is rejected like any non-SELECT read.
        assert!(c1.explain("DELETE FROM kv").is_err());
        net.shutdown();
    }
}
