//! Canonical binary codec for the node↔orderer TCP plane.
//!
//! A database node holds one TCP connection to its ordering-service
//! replica. Upstream it sends [`OrdererWire::Hello`] once, then
//! [`OrdererWire::Submit`] transactions and [`OrdererWire::Vote`]
//! checkpoint votes; downstream the orderer pushes every delivered
//! block as [`OrdererWire::Block`]. This mirrors exactly the calls the
//! in-process deployment makes on [`crate::OrderingService`]
//! (`submit`, `submit_checkpoint`, `subscribe_to`), so both transports
//! drive the same service surface.

use std::sync::Arc;

use bcrdb_chain::block::{Block, CheckpointVote};
use bcrdb_chain::tx::Transaction;
use bcrdb_common::codec::{Decode, Decoder, Encode, Encoder};
use bcrdb_common::error::{Error, Result};

/// One message on a node↔orderer connection, either direction.
#[derive(Clone, Debug)]
pub enum OrdererWire {
    /// Node → orderer, first frame: identifies the connecting node (for
    /// diagnostics; authenticity still rests on transaction and block
    /// signatures, exactly as on the simulated network).
    Hello {
        /// The connecting node's name (`<org>/peer`).
        node: String,
    },
    /// Node → orderer: a transaction for ordering.
    Submit(Box<Transaction>),
    /// Node → orderer: a checkpoint vote to embed in block metadata.
    Vote(CheckpointVote),
    /// Orderer → node: a delivered block.
    Block(Arc<Block>),
}

impl Encode for OrdererWire {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            OrdererWire::Hello { node } => {
                enc.put_u8(0);
                enc.put_str(node);
            }
            OrdererWire::Submit(tx) => {
                enc.put_u8(1);
                tx.encode(enc);
            }
            OrdererWire::Vote(v) => {
                enc.put_u8(2);
                v.encode(enc);
            }
            OrdererWire::Block(b) => {
                enc.put_u8(3);
                b.encode(enc);
            }
        }
    }
}

impl Decode for OrdererWire {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(OrdererWire::Hello {
                node: dec.get_str()?,
            }),
            1 => Ok(OrdererWire::Submit(Box::new(Transaction::decode(dec)?))),
            2 => Ok(OrdererWire::Vote(CheckpointVote::decode(dec)?)),
            3 => Ok(OrdererWire::Block(Arc::new(Block::decode(dec)?))),
            t => Err(Error::Codec(format!("unknown orderer wire tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_and_vote_roundtrip() {
        let hello = OrdererWire::Hello {
            node: "org1/peer".into(),
        };
        match OrdererWire::decode_all(&hello.encode_to_vec()).unwrap() {
            OrdererWire::Hello { node } => assert_eq!(node, "org1/peer"),
            other => panic!("{other:?}"),
        }
        let vote = OrdererWire::Vote(CheckpointVote {
            node: "org2/peer".into(),
            block: 9,
            state_hash: [7u8; 32],
        });
        match OrdererWire::decode_all(&vote.encode_to_vec()).unwrap() {
            OrdererWire::Vote(v) => {
                assert_eq!(v.node, "org2/peer");
                assert_eq!(v.block, 9);
                assert_eq!(v.state_hash, [7u8; 32]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_input_is_codec_error() {
        assert!(matches!(
            OrdererWire::decode_all(&[9u8]),
            Err(Error::Codec(_))
        ));
        let good = OrdererWire::Hello {
            node: "org1/peer".into(),
        }
        .encode_to_vec();
        for cut in 1..good.len() {
            assert!(matches!(
                OrdererWire::decode_all(&good[..cut]),
                Err(Error::Codec(_))
            ));
        }
    }
}
