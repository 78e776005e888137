//! Peer catch-up wire messages (§3.6).
//!
//! A node that crashed, was partitioned away, or joined late "retrieves
//! any missing blocks, processes and commits them one by one" (§3.6). The
//! retrieval protocol is a single request/response pair carried over the
//! peer network:
//!
//! * [`SyncRequest`] — "give me blocks after `from_height`", bounded by
//!   `max_blocks` per round so one response never monopolizes a link;
//! * [`SyncResponse::Blocks`] — the next batch of verified blocks from
//!   the serving peer's block store, plus that peer's tip height so the
//!   requester knows when it has converged;
//! * [`SyncResponse::Snapshot`] — fast-sync: when the requester is more
//!   than a configurable threshold behind *and* signalled that it is
//!   quiescent (`allow_snapshot`), the server ships its latest state
//!   snapshot instead, letting the requester skip re-executing the bulk
//!   of the chain (re-execution, not transfer, dominates replay cost).
//!
//! Both messages have one canonical codec: the TCP transport sends its
//! bytes and the simulated network charges their count (`encoded_len`).

use bcrdb_common::codec::{Decode, Decoder, Encode, Encoder};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;

use crate::block::Block;
use crate::wire::MIN_BLOCK_ENCODING;

/// A catch-up request: "send me what comes after `from_height`".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncRequest {
    /// The requester's current chain height (it wants `from_height + 1`
    /// onwards).
    pub from_height: BlockHeight,
    /// Maximum blocks the server should return in one response.
    pub max_blocks: u64,
    /// Whether the requester can install a state snapshot. Only true
    /// while the requester is quiescent (recovery, before accepting
    /// traffic); a live node that merely hit a delivery gap must stay on
    /// the block path.
    pub allow_snapshot: bool,
}

/// The server's answer to a [`SyncRequest`].
#[derive(Clone, Debug)]
pub enum SyncResponse {
    /// Blocks `from_height + 1 ..` in order (possibly empty when the
    /// requester is already at `tip`).
    Blocks {
        /// The next consecutive blocks from the server's store.
        blocks: Vec<Block>,
        /// The server's chain height when it answered.
        tip: BlockHeight,
    },
    /// Snapshot fast-sync: opaque node-state snapshot bytes taken at
    /// `height` (the requester still fetches the skipped blocks to keep
    /// its store complete, but does not re-execute them).
    Snapshot {
        /// Height the snapshot captures.
        height: BlockHeight,
        /// Encoded node state (see `bcrdb-node`'s snapshot codec).
        state: Vec<u8>,
        /// The server's chain height when it answered.
        tip: BlockHeight,
    },
}

impl Encode for SyncRequest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.from_height);
        enc.put_u64(self.max_blocks);
        enc.put_bool(self.allow_snapshot);
    }
}

impl Decode for SyncRequest {
    fn decode(dec: &mut Decoder<'_>) -> Result<SyncRequest> {
        Ok(SyncRequest {
            from_height: dec.get_u64()?,
            max_blocks: dec.get_u64()?,
            allow_snapshot: dec.get_bool()?,
        })
    }
}

impl Encode for SyncResponse {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SyncResponse::Blocks { blocks, tip } => {
                enc.put_u8(0);
                enc.put_u64(*tip);
                enc.put_u32(blocks.len() as u32);
                for b in blocks {
                    b.encode(enc);
                }
            }
            SyncResponse::Snapshot { height, state, tip } => {
                enc.put_u8(1);
                enc.put_u64(*tip);
                enc.put_u64(*height);
                enc.put_bytes(state);
            }
        }
    }
}

impl Decode for SyncResponse {
    fn decode(dec: &mut Decoder<'_>) -> Result<SyncResponse> {
        match dec.get_u8()? {
            0 => {
                let tip = dec.get_u64()?;
                let n = dec.get_count(MIN_BLOCK_ENCODING, "sync block")?;
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    blocks.push(Block::decode(dec)?);
                }
                Ok(SyncResponse::Blocks { blocks, tip })
            }
            1 => {
                let tip = dec.get_u64()?;
                let height = dec.get_u64()?;
                let state = dec.get_bytes()?;
                Ok(SyncResponse::Snapshot { height, state, tip })
            }
            t => Err(Error::Codec(format!("bad sync response tag {t}"))),
        }
    }
}

impl SyncResponse {
    /// The serving peer's tip height.
    pub fn tip(&self) -> BlockHeight {
        match self {
            SyncResponse::Blocks { tip, .. } | SyncResponse::Snapshot { tip, .. } => *tip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::genesis_prev_hash;
    use crate::tx::{Payload, Transaction};
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{KeyPair, Scheme};

    fn blocks(n: u64) -> Vec<Block> {
        let key = KeyPair::generate("org1/alice", b"alice", Scheme::Sim);
        let mut prev = genesis_prev_hash();
        (1..=n)
            .map(|i| {
                let tx = Transaction::new_order_execute(
                    "org1/alice",
                    Payload::new("f", vec![Value::Int(i as i64)]),
                    i,
                    &key,
                )
                .unwrap();
                let b = Block::build(i, prev, vec![tx], "solo", vec![]);
                prev = b.hash;
                b
            })
            .collect()
    }

    #[test]
    fn request_roundtrip() {
        let req = SyncRequest {
            from_height: 7,
            max_blocks: 64,
            allow_snapshot: true,
        };
        let bytes = req.encode_to_vec();
        let back = SyncRequest::decode_all(&bytes).unwrap();
        assert_eq!(back, req);
        assert_eq!(req.encoded_len(), 17);
    }

    #[test]
    fn blocks_response_roundtrip() {
        let resp = SyncResponse::Blocks {
            blocks: blocks(3),
            tip: 9,
        };
        let bytes = resp.encode_to_vec();
        let back = SyncResponse::decode_all(&bytes).unwrap();
        let SyncResponse::Blocks { blocks, tip } = back else {
            panic!("wrong variant");
        };
        assert_eq!(tip, 9);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[1].number, 2);
        blocks[2].verify_integrity().unwrap();
    }

    #[test]
    fn snapshot_response_roundtrip() {
        let resp = SyncResponse::Snapshot {
            height: 42,
            state: vec![7u8; 1000],
            tip: 50,
        };
        let bytes = resp.encode_to_vec();
        let back = SyncResponse::decode_all(&bytes).unwrap();
        let SyncResponse::Snapshot { height, state, tip } = back else {
            panic!("wrong variant");
        };
        assert_eq!((height, tip), (42, 50));
        assert_eq!(state.len(), 1000);
        assert_eq!(resp.tip(), 50);
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        let resp = SyncResponse::Blocks {
            blocks: blocks(1),
            tip: 1,
        };
        let bytes = resp.encode_to_vec();
        assert!(SyncResponse::decode_all(&bytes[..bytes.len() - 2]).is_err());
        assert!(SyncResponse::decode_all(&[9]).is_err());
    }
}
