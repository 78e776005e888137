//! Canonical binary codec for the client↔node RPC surface.
//!
//! This module is the *only* description of a client-plane message:
//! the TCP link writes [`ClientFrame`]'s encoding to its socket, and the
//! simulated link carries the same `ClientFrame` by value and charges
//! `framed_size(frame.encoded_len())` — the byte count of that socket
//! write, measured by the encoder itself.
//!
//! Errors cross the wire **variant-precise** ([`encode_error`] /
//! [`decode_error`]): clients branch on `Error::NotFound` (transparent
//! re-prepare), `Error::Busy` (admission control), retriable
//! [`AbortReason`]s, and `Error::TxAborted`, so flattening errors to
//! rendered strings would break the session layer on TCP.
//!
//! Corrupt input is always [`bcrdb_common::error::Error::Codec`]
//! (mapped to a connection close by the transport), never a panic: all
//! counts are bounds-checked against the remaining input before
//! allocation.

use bcrdb_chain::ledger::TxStatus;
use bcrdb_chain::tx::Transaction;
use bcrdb_chain::wire::MIN_TX_ENCODING;
use bcrdb_common::codec::{Decode, Decoder, Encode, Encoder};
use bcrdb_common::error::{AbortReason, Error, Result};
use bcrdb_common::ids::{BlockHeight, GlobalTxId};
use bcrdb_engine::result::QueryResult;

use crate::frontend::{ClientRequest, ClientResponse};
use crate::metrics::{MetricsSnapshot, OrderingSnapshot};
use crate::notify::TxNotification;

/// One message on a client↔node connection, either direction, on
/// either link (socket or simulated network).
///
/// Requests and responses are correlated by `seq` (one connection
/// multiplexes many in-flight RPCs); notifications are server-push and
/// carry no sequence number — they belong to the connection itself.
// Same rationale as `ClientResponse`: transient per-RPC frames with a
// fixed-shape codec — boxing would add indirection without saving
// resident memory.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ClientFrame {
    /// Client → node: one RPC call.
    Request {
        /// Correlation id chosen by the client.
        seq: u64,
        /// The call.
        req: ClientRequest,
    },
    /// Node → client: the answer to `Request { seq, .. }`.
    Response {
        /// Correlation id of the answered request.
        seq: u64,
        /// The typed outcome.
        resp: Result<ClientResponse>,
    },
    /// Node → client: the final status of a transaction this connection
    /// submitted.
    Notification(TxNotification),
}

impl Encode for ClientFrame {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ClientFrame::Request { seq, req } => {
                enc.put_u8(0);
                enc.put_u64(*seq);
                req.encode(enc);
            }
            ClientFrame::Response { seq, resp } => {
                enc.put_u8(1);
                enc.put_u64(*seq);
                encode_result(resp, enc);
            }
            ClientFrame::Notification(n) => {
                enc.put_u8(2);
                n.encode(enc);
            }
        }
    }
}

impl Decode for ClientFrame {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(ClientFrame::Request {
                seq: dec.get_u64()?,
                req: ClientRequest::decode(dec)?,
            }),
            1 => Ok(ClientFrame::Response {
                seq: dec.get_u64()?,
                resp: decode_result(dec)?,
            }),
            2 => Ok(ClientFrame::Notification(TxNotification::decode(dec)?)),
            t => Err(Error::Codec(format!("unknown client frame tag {t}"))),
        }
    }
}

// --------------------------------------------------------- requests

impl Encode for ClientRequest {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ClientRequest::Submit(tx) => {
                enc.put_u8(0);
                tx.encode(enc);
            }
            ClientRequest::SubmitBatch(txs) => {
                enc.put_u8(1);
                enc.put_u32(txs.len() as u32);
                for tx in txs {
                    tx.encode(enc);
                }
            }
            ClientRequest::Query {
                sql,
                params,
                height,
            } => {
                enc.put_u8(2);
                enc.put_str(sql);
                enc.put_row(params);
                put_height(enc, *height);
            }
            ClientRequest::Prepare { sql } => {
                enc.put_u8(3);
                enc.put_str(sql);
            }
            ClientRequest::QueryPrepared {
                handle,
                params,
                height,
            } => {
                enc.put_u8(4);
                enc.put_u64(*handle);
                enc.put_row(params);
                put_height(enc, *height);
            }
            ClientRequest::ChainHeight => enc.put_u8(5),
            ClientRequest::Metrics => enc.put_u8(6),
        }
    }
}

impl Decode for ClientRequest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(ClientRequest::Submit(Box::new(Transaction::decode(dec)?))),
            1 => {
                let n = dec.get_count(MIN_TX_ENCODING, "batch transaction")?;
                let mut txs = Vec::with_capacity(n);
                for _ in 0..n {
                    txs.push(Transaction::decode(dec)?);
                }
                Ok(ClientRequest::SubmitBatch(txs))
            }
            2 => Ok(ClientRequest::Query {
                sql: dec.get_str()?,
                params: dec.get_row()?,
                height: get_height(dec)?,
            }),
            3 => Ok(ClientRequest::Prepare {
                sql: dec.get_str()?,
            }),
            4 => Ok(ClientRequest::QueryPrepared {
                handle: dec.get_u64()?,
                params: dec.get_row()?,
                height: get_height(dec)?,
            }),
            5 => Ok(ClientRequest::ChainHeight),
            6 => Ok(ClientRequest::Metrics),
            t => Err(Error::Codec(format!("unknown client request tag {t}"))),
        }
    }
}

/// A query's optional snapshot height, flagged the way a transaction's
/// is (`None` reads at the current committed height; 0 is genesis).
fn put_height(enc: &mut Encoder, height: Option<BlockHeight>) {
    enc.put_bool(height.is_some());
    if let Some(h) = height {
        enc.put_u64(h);
    }
}

fn get_height(dec: &mut Decoder<'_>) -> Result<Option<BlockHeight>> {
    Ok(if dec.get_bool()? {
        Some(dec.get_u64()?)
    } else {
        None
    })
}

// -------------------------------------------------------- responses

impl Encode for ClientResponse {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ClientResponse::Ack => enc.put_u8(0),
            ClientResponse::Rows(r) => {
                enc.put_u8(1);
                encode_query_result(r, enc);
            }
            ClientResponse::Statement {
                handle,
                param_count,
            } => {
                enc.put_u8(2);
                enc.put_u64(*handle);
                enc.put_u32(*param_count as u32);
            }
            ClientResponse::Height(h) => {
                enc.put_u8(3);
                enc.put_u64(*h);
            }
            ClientResponse::Metrics(m) => {
                enc.put_u8(4);
                m.encode(enc);
            }
        }
    }
}

impl Decode for ClientResponse {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let tag = dec.get_u8()?;
        decode_response_body(tag, dec)
    }
}

fn decode_response_body(tag: u8, dec: &mut Decoder<'_>) -> Result<ClientResponse> {
    match tag {
        0 => Ok(ClientResponse::Ack),
        1 => Ok(ClientResponse::Rows(decode_query_result(dec)?)),
        2 => Ok(ClientResponse::Statement {
            handle: dec.get_u64()?,
            param_count: dec.get_u32()? as usize,
        }),
        3 => Ok(ClientResponse::Height(dec.get_u64()?)),
        4 => Ok(ClientResponse::Metrics(MetricsSnapshot::decode(dec)?)),
        t => Err(Error::Codec(format!("unknown client response tag {t}"))),
    }
}

/// Tag distinguishing an error payload from the [`ClientResponse`] tags
/// (0–4) in [`encode_result`]'s tag position.
const ERR_TAG: u8 = 0xFF;

/// Encode a typed RPC outcome. `Ok` responses reuse the
/// [`ClientResponse`] tag space; errors use the reserved `ERR_TAG`
/// (0xFF) followed by a variant-precise error payload.
pub fn encode_result(resp: &Result<ClientResponse>, enc: &mut Encoder) {
    match resp {
        Ok(r) => r.encode(enc),
        Err(e) => {
            enc.put_u8(ERR_TAG);
            encode_error(e, enc);
        }
    }
}

/// Inverse of [`encode_result`].
pub fn decode_result(dec: &mut Decoder<'_>) -> Result<Result<ClientResponse>> {
    let tag = dec.get_u8()?;
    if tag == ERR_TAG {
        return Ok(Err(decode_error(dec)?));
    }
    decode_response_body(tag, dec).map(Ok)
}

// ----------------------------------------------------- notifications

impl Encode for TxNotification {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.id.0);
        enc.put_u64(self.block);
        match &self.status {
            TxStatus::Committed => enc.put_u8(0),
            TxStatus::Aborted(reason) => {
                enc.put_u8(1);
                enc.put_str(reason);
            }
        }
    }
}

impl Decode for TxNotification {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let id = GlobalTxId(dec.get_digest()?);
        let block = dec.get_u64()?;
        let status = match dec.get_u8()? {
            0 => TxStatus::Committed,
            1 => TxStatus::Aborted(dec.get_str()?),
            t => Err(Error::Codec(format!("unknown tx status tag {t}")))?,
        };
        Ok(TxNotification { id, block, status })
    }
}

// ------------------------------------------------------ query results

/// Encode a [`QueryResult`] (column names, then rows). A free function
/// because `QueryResult` and `Encode` both live in other crates.
pub fn encode_query_result(r: &QueryResult, enc: &mut Encoder) {
    enc.put_u32(r.columns.len() as u32);
    for c in &r.columns {
        enc.put_str(c);
    }
    enc.put_u32(r.rows.len() as u32);
    for row in &r.rows {
        enc.put_row(row);
    }
}

/// Inverse of [`encode_query_result`]. Counts are bounds-checked
/// against the remaining input before any allocation.
pub fn decode_query_result(dec: &mut Decoder<'_>) -> Result<QueryResult> {
    // Every column name costs at least its 4-byte length prefix.
    let ncols = dec.get_count(4, "column")?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(dec.get_str()?);
    }
    // Every row costs at least its 4-byte value count.
    let nrows = dec.get_count(4, "row")?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        rows.push(dec.get_row()?);
    }
    Ok(QueryResult { columns, rows })
}

// ----------------------------------------------------------- metrics

impl Encode for MetricsSnapshot {
    /// One 8-byte slot per field, in declaration order (`halted` widens
    /// to a `u64` slot). The struct literals in `decode` and in the
    /// round-trip test must name every field, so a field added without
    /// its slot fails to compile or fails `metrics_snapshot_roundtrips_exactly`.
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.window_secs);
        enc.put_f64(self.brr);
        enc.put_f64(self.bpr);
        enc.put_f64(self.bpt_ms);
        enc.put_f64(self.bet_ms);
        enc.put_f64(self.bct_ms);
        enc.put_f64(self.tet_ms);
        enc.put_f64(self.mt_per_s);
        enc.put_f64(self.su);
        enc.put_u64(self.committed);
        enc.put_u64(self.aborted);
        enc.put_f64(self.commit_stage_ms);
        enc.put_f64(self.apply_stage_ms);
        enc.put_f64(self.post_stage_ms);
        enc.put_u64(self.pipeline_depth);
        enc.put_u64(self.postcommit_depth);
        enc.put_u64(self.halted as u64);
        enc.put_u64(self.committed_height);
        enc.put_u64(self.postcommit_height);
        enc.put_u64(self.vacuum_runs);
        enc.put_u64(self.versions_reclaimed);
        enc.put_u64(self.held_back);
        enc.put_u64(self.gap_events);
        enc.put_u64(self.pending_evicted);
        enc.put_u64(self.sync_fetched);
        enc.put_u64(self.sync_replayed);
        enc.put_u64(self.sync_fast_syncs);
        enc.put_u64(self.pages_read);
        enc.put_u64(self.pages_written);
        enc.put_u64(self.pages_evicted);
        enc.put_f64(self.pool_hit_rate);
        enc.put_u64(self.plans_index_intersection);
        enc.put_u64(self.plans_covering);
        enc.put_u64(self.stats_rebuilds);
        enc.put_u64(self.ordering.forwarded);
        enc.put_u64(self.ordering.cut);
        enc.put_u64(self.ordering.delivered);
        enc.put_u64(self.ordering.current_view);
        enc.put_u64(self.ordering.view_changes);
    }
}

impl Decode for MetricsSnapshot {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(MetricsSnapshot {
            window_secs: dec.get_f64()?,
            brr: dec.get_f64()?,
            bpr: dec.get_f64()?,
            bpt_ms: dec.get_f64()?,
            bet_ms: dec.get_f64()?,
            bct_ms: dec.get_f64()?,
            tet_ms: dec.get_f64()?,
            mt_per_s: dec.get_f64()?,
            su: dec.get_f64()?,
            committed: dec.get_u64()?,
            aborted: dec.get_u64()?,
            commit_stage_ms: dec.get_f64()?,
            apply_stage_ms: dec.get_f64()?,
            post_stage_ms: dec.get_f64()?,
            pipeline_depth: dec.get_u64()?,
            postcommit_depth: dec.get_u64()?,
            halted: dec.get_u64()? != 0,
            committed_height: dec.get_u64()?,
            postcommit_height: dec.get_u64()?,
            vacuum_runs: dec.get_u64()?,
            versions_reclaimed: dec.get_u64()?,
            held_back: dec.get_u64()?,
            gap_events: dec.get_u64()?,
            pending_evicted: dec.get_u64()?,
            sync_fetched: dec.get_u64()?,
            sync_replayed: dec.get_u64()?,
            sync_fast_syncs: dec.get_u64()?,
            pages_read: dec.get_u64()?,
            pages_written: dec.get_u64()?,
            pages_evicted: dec.get_u64()?,
            pool_hit_rate: dec.get_f64()?,
            plans_index_intersection: dec.get_u64()?,
            plans_covering: dec.get_u64()?,
            stats_rebuilds: dec.get_u64()?,
            ordering: OrderingSnapshot {
                forwarded: dec.get_u64()?,
                cut: dec.get_u64()?,
                delivered: dec.get_u64()?,
                current_view: dec.get_u64()?,
                view_changes: dec.get_u64()?,
            },
        })
    }
}

// ------------------------------------------------------------ errors

/// Encode an [`Error`] variant-precisely (one tag byte per variant,
/// nested [`AbortReason`] tags for `Error::Abort`). A free function
/// because `Error` and `Encode` live in `bcrdb-common` (orphan rule).
pub fn encode_error(e: &Error, enc: &mut Encoder) {
    match e {
        Error::Parse(m) => put_str_variant(enc, 0, m),
        Error::Analysis(m) => put_str_variant(enc, 1, m),
        Error::Type(m) => put_str_variant(enc, 2, m),
        Error::Constraint(m) => put_str_variant(enc, 3, m),
        Error::Abort(r) => {
            enc.put_u8(4);
            encode_abort_reason(r, enc);
        }
        Error::Determinism(m) => put_str_variant(enc, 5, m),
        Error::NotFound(m) => put_str_variant(enc, 6, m),
        Error::AlreadyExists(m) => put_str_variant(enc, 7, m),
        Error::Crypto(m) => put_str_variant(enc, 8, m),
        Error::TamperDetected(m) => put_str_variant(enc, 9, m),
        Error::Io(m) => put_str_variant(enc, 10, m),
        Error::Codec(m) => put_str_variant(enc, 11, m),
        Error::Config(m) => put_str_variant(enc, 12, m),
        Error::Shutdown(m) => put_str_variant(enc, 13, m),
        Error::Busy(m) => put_str_variant(enc, 14, m),
        Error::Timeout(m) => put_str_variant(enc, 15, m),
        Error::TxAborted { id, reason } => {
            enc.put_u8(16);
            enc.put_digest(&id.0);
            enc.put_str(reason);
        }
        Error::Decode(m) => put_str_variant(enc, 17, m),
        Error::Internal(m) => put_str_variant(enc, 18, m),
    }
}

fn put_str_variant(enc: &mut Encoder, tag: u8, m: &str) {
    enc.put_u8(tag);
    enc.put_str(m);
}

/// Inverse of [`encode_error`].
pub fn decode_error(dec: &mut Decoder<'_>) -> Result<Error> {
    let tag = dec.get_u8()?;
    Ok(match tag {
        0 => Error::Parse(dec.get_str()?),
        1 => Error::Analysis(dec.get_str()?),
        2 => Error::Type(dec.get_str()?),
        3 => Error::Constraint(dec.get_str()?),
        4 => Error::Abort(decode_abort_reason(dec)?),
        5 => Error::Determinism(dec.get_str()?),
        6 => Error::NotFound(dec.get_str()?),
        7 => Error::AlreadyExists(dec.get_str()?),
        8 => Error::Crypto(dec.get_str()?),
        9 => Error::TamperDetected(dec.get_str()?),
        10 => Error::Io(dec.get_str()?),
        11 => Error::Codec(dec.get_str()?),
        12 => Error::Config(dec.get_str()?),
        13 => Error::Shutdown(dec.get_str()?),
        14 => Error::Busy(dec.get_str()?),
        15 => Error::Timeout(dec.get_str()?),
        16 => Error::TxAborted {
            id: GlobalTxId(dec.get_digest()?),
            reason: dec.get_str()?,
        },
        17 => Error::Decode(dec.get_str()?),
        18 => Error::Internal(dec.get_str()?),
        t => return Err(Error::Codec(format!("unknown error tag {t}"))),
    })
}

fn encode_abort_reason(r: &AbortReason, enc: &mut Encoder) {
    match r {
        AbortReason::SsiDangerousStructure => enc.put_u8(0),
        AbortReason::SsiDoomedByPeer => enc.put_u8(1),
        AbortReason::PhantomRead => enc.put_u8(2),
        AbortReason::StaleRead => enc.put_u8(3),
        AbortReason::WwConflict => enc.put_u8(4),
        AbortReason::DuplicateTxId => enc.put_u8(5),
        AbortReason::ContractError(m) => {
            enc.put_u8(6);
            enc.put_str(m);
        }
        AbortReason::AuthenticationFailed => enc.put_u8(7),
        AbortReason::AccessDenied(m) => {
            enc.put_u8(8);
            enc.put_str(m);
        }
    }
}

fn decode_abort_reason(dec: &mut Decoder<'_>) -> Result<AbortReason> {
    Ok(match dec.get_u8()? {
        0 => AbortReason::SsiDangerousStructure,
        1 => AbortReason::SsiDoomedByPeer,
        2 => AbortReason::PhantomRead,
        3 => AbortReason::StaleRead,
        4 => AbortReason::WwConflict,
        5 => AbortReason::DuplicateTxId,
        6 => AbortReason::ContractError(dec.get_str()?),
        7 => AbortReason::AuthenticationFailed,
        8 => AbortReason::AccessDenied(dec.get_str()?),
        t => return Err(Error::Codec(format!("unknown abort reason tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_chain::tx::Payload;
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{KeyPair, Scheme};

    fn roundtrip_frame(f: &ClientFrame) -> ClientFrame {
        ClientFrame::decode_all(&f.encode_to_vec()).unwrap()
    }

    fn sample_metrics() -> MetricsSnapshot {
        MetricsSnapshot {
            window_secs: 1.5,
            brr: 2.0,
            bpr: 3.0,
            bpt_ms: 4.0,
            bet_ms: 5.0,
            bct_ms: 6.0,
            tet_ms: 7.0,
            mt_per_s: 8.0,
            su: 0.9,
            committed: 10,
            aborted: 11,
            commit_stage_ms: 12.0,
            apply_stage_ms: 12.5,
            post_stage_ms: 13.0,
            pipeline_depth: 14,
            postcommit_depth: 15,
            halted: true,
            committed_height: 16,
            postcommit_height: 17,
            vacuum_runs: 18,
            versions_reclaimed: 19,
            held_back: 20,
            gap_events: 21,
            pending_evicted: 22,
            sync_fetched: 23,
            sync_replayed: 24,
            sync_fast_syncs: 25,
            pages_read: 31,
            pages_written: 32,
            pages_evicted: 33,
            pool_hit_rate: 0.75,
            plans_index_intersection: 34,
            plans_covering: 35,
            stats_rebuilds: 36,
            ordering: OrderingSnapshot {
                forwarded: 26,
                cut: 27,
                delivered: 28,
                current_view: 29,
                view_changes: 30,
            },
        }
    }

    fn sample_tx(nonce: u64) -> Transaction {
        let key = KeyPair::generate("org1/alice", b"alice", Scheme::Sim);
        let payload = Payload::new("put", vec![Value::Int(nonce as i64)]);
        Transaction::new_order_execute("org1/alice", payload, nonce, &key).unwrap()
    }

    #[test]
    fn requests_roundtrip_byte_exact() {
        let requests = vec![
            ClientRequest::Submit(Box::new(sample_tx(1))),
            ClientRequest::Query {
                sql: "SELECT * FROM t WHERE a = $1".into(),
                params: vec![Value::Int(7), Value::Text("x".into())],
                height: None,
            },
            ClientRequest::Query {
                sql: "SELECT 1".into(),
                params: vec![],
                height: Some(42),
            },
            ClientRequest::Prepare {
                sql: "SELECT a FROM t".into(),
            },
            ClientRequest::QueryPrepared {
                handle: 9,
                params: vec![Value::Float(1.25)],
                height: Some(3),
            },
            ClientRequest::QueryPrepared {
                handle: 9,
                params: vec![],
                height: None,
            },
            ClientRequest::ChainHeight,
            ClientRequest::Metrics,
        ];
        for req in requests {
            let bytes = req.encode_to_vec();
            assert_eq!(bytes.len(), req.encoded_len(), "{req:?}");
            let back = ClientRequest::decode_all(&bytes).unwrap();
            assert_eq!(back.encode_to_vec(), bytes, "round trip for {req:?}");
        }
        // Genesis is a height like any other, not "no height".
        let genesis = ClientRequest::QueryPrepared {
            handle: 1,
            params: vec![],
            height: Some(0),
        };
        match ClientRequest::decode_all(&genesis.encode_to_vec()).unwrap() {
            ClientRequest::QueryPrepared { height, .. } => assert_eq!(height, Some(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn submit_batches_roundtrip_at_any_size() {
        for n in [0u64, 1, 500] {
            let txs: Vec<Transaction> = (0..n).map(sample_tx).collect();
            let ids: Vec<GlobalTxId> = txs.iter().map(|t| t.id).collect();
            let req = ClientRequest::SubmitBatch(txs);
            let bytes = req.encode_to_vec();
            assert_eq!(bytes.len(), req.encoded_len());
            match ClientRequest::decode_all(&bytes).unwrap() {
                ClientRequest::SubmitBatch(back) => {
                    assert_eq!(back.iter().map(|t| t.id).collect::<Vec<_>>(), ids);
                    assert_eq!(ClientRequest::SubmitBatch(back).encode_to_vec(), bytes);
                }
                other => panic!("{other:?}"),
            }
        }
        // One member costs a `Submit` plus the count.
        let one = ClientRequest::SubmitBatch(vec![sample_tx(7)]).encoded_len();
        let single = ClientRequest::Submit(Box::new(sample_tx(7))).encoded_len();
        assert_eq!(one, single + 4);
    }

    #[test]
    fn responses_roundtrip_byte_exact() {
        let mut r = QueryResult::empty(vec!["a".into(), "b".into()]);
        r.rows.push(vec![Value::Int(1), Value::Text("x".into())]);
        r.rows.push(vec![Value::Null, Value::Bool(true)]);
        let responses = vec![
            ClientResponse::Ack,
            ClientResponse::Rows(r),
            ClientResponse::Statement {
                handle: 5,
                param_count: 2,
            },
            ClientResponse::Height(77),
            ClientResponse::Metrics(sample_metrics()),
        ];
        for resp in responses {
            let bytes = resp.encode_to_vec();
            assert_eq!(bytes.len(), resp.encoded_len(), "{resp:?}");
            let back = ClientResponse::decode_all(&bytes).unwrap();
            assert_eq!(back.encode_to_vec(), bytes, "round trip for {resp:?}");
        }
    }

    #[test]
    fn metrics_snapshot_roundtrips_exactly() {
        let m = sample_metrics();
        let bytes = m.encode_to_vec();
        assert_eq!(MetricsSnapshot::decode_all(&bytes).unwrap(), m);
    }

    #[test]
    fn errors_cross_the_wire_variant_precise() {
        let errors = vec![
            Error::Parse("near `FROM`".into()),
            Error::Abort(AbortReason::SsiDangerousStructure),
            Error::Abort(AbortReason::ContractError("div by zero".into())),
            Error::Abort(AbortReason::AccessDenied("not admin".into())),
            Error::NotFound("prepared statement handle 9".into()),
            Error::Busy("window full".into()),
            Error::Timeout("no notification".into()),
            Error::TxAborted {
                id: GlobalTxId([9; 32]),
                reason: "serialization failure: concurrent write-write conflict".into(),
            },
            Error::Internal("bug".into()),
        ];
        for e in errors {
            let mut enc = Encoder::new();
            encode_result(&Err(e.clone()), &mut enc);
            let bytes = enc.finish();
            let back = decode_result(&mut Decoder::new(&bytes))
                .unwrap()
                .unwrap_err();
            // Error is not PartialEq; variant + rendered message must
            // survive, and so must retriability (the session layer's
            // retry loop depends on it).
            assert_eq!(back.to_string(), e.to_string());
            assert_eq!(back.is_retriable(), e.is_retriable());
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(&e),
                "variant drifted for {e:?}"
            );
        }
    }

    #[test]
    fn frames_roundtrip() {
        let f = ClientFrame::Request {
            seq: 42,
            req: ClientRequest::ChainHeight,
        };
        match roundtrip_frame(&f) {
            ClientFrame::Request {
                seq: 42,
                req: ClientRequest::ChainHeight,
            } => {}
            other => panic!("{other:?}"),
        }
        let f = ClientFrame::Response {
            seq: 7,
            resp: Ok(ClientResponse::Height(3)),
        };
        match roundtrip_frame(&f) {
            ClientFrame::Response {
                seq: 7,
                resp: Ok(ClientResponse::Height(3)),
            } => {}
            other => panic!("{other:?}"),
        }
        let f = ClientFrame::Notification(TxNotification {
            id: GlobalTxId([8; 32]),
            block: 12,
            status: TxStatus::Aborted("boom".into()),
        });
        match roundtrip_frame(&f) {
            ClientFrame::Notification(n) => {
                assert_eq!(n.id, GlobalTxId([8; 32]));
                assert_eq!(n.block, 12);
                assert_eq!(n.status, TxStatus::Aborted("boom".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn notifications_roundtrip_byte_exact() {
        for n in [
            TxNotification {
                id: GlobalTxId([1; 32]),
                block: 5,
                status: TxStatus::Committed,
            },
            TxNotification {
                id: GlobalTxId([2; 32]),
                block: 6,
                status: TxStatus::Aborted("stale read".into()),
            },
        ] {
            let bytes = n.encode_to_vec();
            assert_eq!(bytes.len(), n.encoded_len());
            assert_eq!(TxNotification::decode_all(&bytes).unwrap(), n);
        }
    }

    #[test]
    fn corrupt_payloads_are_codec_errors() {
        // Unknown tags.
        for bytes in [vec![200u8], vec![0u8]] {
            assert!(ClientRequest::decode_all(&bytes).is_err());
        }
        // Truncated request.
        let good = ClientRequest::Query {
            sql: "SELECT 1".into(),
            params: vec![],
            height: Some(3),
        }
        .encode_to_vec();
        for cut in 1..good.len() {
            let err = ClientRequest::decode_all(&good[..cut]).unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "{err}");
        }
        // A batch claiming 2^32 - 1 members in a frame that holds one is
        // refused by the count check, before anything is reserved for it.
        let mut enc = Encoder::new();
        enc.put_u8(1);
        enc.put_u32(u32::MAX);
        sample_tx(1).encode(&mut enc);
        let err = ClientRequest::decode_all(&enc.finish()).unwrap_err();
        assert!(
            matches!(&err, Error::Codec(m) if m.contains("batch transaction count")),
            "{err}"
        );
        // Absurd row/column counts in a Rows response.
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX);
        let err = decode_query_result(&mut Decoder::new(&enc.finish())).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err}");
    }
}
