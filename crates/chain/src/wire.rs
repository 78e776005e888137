//! Canonical codec for chain structures (signatures, transactions,
//! blocks), used by the file-backed block store and anywhere a block needs
//! a stable byte representation.

use bcrdb_common::codec::{Decode, Decoder, Encode, Encoder};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::GlobalTxId;
use bcrdb_crypto::identity::Signature;
use bcrdb_crypto::merkle::{MerkleProof, ProofStep};
use bcrdb_crypto::mss::MssSignature;
use bcrdb_crypto::wots::WotsSignature;

use crate::block::{Block, CheckpointVote};
use crate::tx::{Payload, Transaction};

/// Encode a signature (free function: `Signature` and `Encode` both live
/// in other crates, so a trait impl would violate the orphan rule).
pub fn encode_signature(sig: &Signature, enc: &mut Encoder) {
    match sig {
        Signature::Sim(d) => {
            enc.put_u8(0);
            enc.put_digest(d);
        }
        Signature::HashBased(sig) => {
            enc.put_u8(1);
            enc.put_u64(sig.leaf_index);
            enc.put_u32(sig.wots.values.len() as u32);
            for v in &sig.wots.values {
                enc.put_digest(v);
            }
            enc.put_u32(sig.auth_path.leaf_index as u32);
            enc.put_u32(sig.auth_path.steps.len() as u32);
            for s in &sig.auth_path.steps {
                enc.put_digest(&s.sibling);
                enc.put_bool(s.sibling_is_left);
            }
        }
    }
}

/// Decode a signature (see [`encode_signature`]).
pub fn decode_signature(dec: &mut Decoder<'_>) -> Result<Signature> {
    match dec.get_u8()? {
        0 => Ok(Signature::Sim(dec.get_digest()?)),
        1 => {
            let leaf_index = dec.get_u64()?;
            let n = dec.get_u32()? as usize;
            if n > 1024 {
                return Err(Error::Codec("oversized WOTS signature".into()));
            }
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(dec.get_digest()?);
            }
            let proof_leaf = dec.get_u32()? as usize;
            let steps_len = dec.get_u32()? as usize;
            if steps_len > 64 {
                return Err(Error::Codec("oversized Merkle auth path".into()));
            }
            let mut steps = Vec::with_capacity(steps_len);
            for _ in 0..steps_len {
                steps.push(ProofStep {
                    sibling: dec.get_digest()?,
                    sibling_is_left: dec.get_bool()?,
                });
            }
            Ok(Signature::HashBased(Box::new(MssSignature {
                leaf_index,
                wots: WotsSignature { values },
                auth_path: MerkleProof {
                    leaf_index: proof_leaf,
                    steps,
                },
            })))
        }
        t => Err(Error::Codec(format!("bad signature tag {t}"))),
    }
}

/// Fewest bytes a [`Signature`] encodes to: the hash-based variant with
/// no chain values and no auth-path steps (tag, leaf index, three counts).
const MIN_SIGNATURE_ENCODING: usize = 1 + 8 + 4 + 4 + 4;

/// Fewest bytes a [`Transaction`] encodes to: id, empty user, contract
/// and argument row, the snapshot flag, and a minimal signature.
pub const MIN_TX_ENCODING: usize = 32 + 4 + 4 + 4 + 1 + MIN_SIGNATURE_ENCODING;

/// Fewest bytes a [`CheckpointVote`] encodes to (empty node name).
const MIN_VOTE_ENCODING: usize = 4 + 8 + 32;

/// Fewest bytes a [`Block`] encodes to: number, three digests, empty
/// consensus tag, and three zero counts. Decoders bound every element
/// count by the remaining input over these minima *before* reserving
/// memory, so a 44-byte frame cannot claim a million transactions.
pub(crate) const MIN_BLOCK_ENCODING: usize = 8 + 32 + 4 + 4 + 4 + 32 + 32 + 4;

impl Encode for CheckpointVote {
    /// The one spelling of a vote's field order: embedded in blocks, in
    /// the block-hash preimage, and on the node→orderer plane.
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.node);
        enc.put_u64(self.block);
        enc.put_digest(&self.state_hash);
    }
}

impl Decode for CheckpointVote {
    fn decode(dec: &mut Decoder<'_>) -> Result<CheckpointVote> {
        Ok(CheckpointVote {
            node: dec.get_str()?,
            block: dec.get_u64()?,
            state_hash: dec.get_digest()?,
        })
    }
}

impl Encode for Transaction {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.id.0);
        enc.put_str(&self.user);
        enc.put_str(&self.payload.contract);
        enc.put_row(&self.payload.args);
        match self.snapshot_height {
            Some(h) => {
                enc.put_bool(true);
                enc.put_u64(h);
            }
            None => enc.put_bool(false),
        }
        encode_signature(&self.signature, enc);
    }
}

impl Decode for Transaction {
    fn decode(dec: &mut Decoder<'_>) -> Result<Transaction> {
        let id = GlobalTxId(dec.get_digest()?);
        let user = dec.get_str()?;
        let contract = dec.get_str()?;
        let args = dec.get_row()?;
        let snapshot_height = if dec.get_bool()? {
            Some(dec.get_u64()?)
        } else {
            None
        };
        let signature = decode_signature(dec)?;
        Ok(Transaction {
            id,
            user,
            payload: Payload { contract, args },
            snapshot_height,
            signature,
        })
    }
}

impl Encode for Block {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.number);
        enc.put_digest(&self.prev_hash);
        enc.put_u32(self.txs.len() as u32);
        for tx in &self.txs {
            tx.encode(enc);
        }
        enc.put_str(&self.consensus);
        enc.put_u32(self.checkpoints.len() as u32);
        for cv in &self.checkpoints {
            cv.encode(enc);
        }
        enc.put_digest(&self.tx_root);
        enc.put_digest(&self.hash);
        enc.put_u32(self.signatures.len() as u32);
        for (name, sig) in &self.signatures {
            enc.put_str(name);
            encode_signature(sig, enc);
        }
    }
}

impl Decode for Block {
    fn decode(dec: &mut Decoder<'_>) -> Result<Block> {
        let number = dec.get_u64()?;
        let prev_hash = dec.get_digest()?;
        let tx_count = dec.get_count(MIN_TX_ENCODING, "transaction")?;
        let mut txs = Vec::with_capacity(tx_count);
        for _ in 0..tx_count {
            txs.push(Transaction::decode(dec)?);
        }
        let consensus = dec.get_str()?;
        let cv_count = dec.get_count(MIN_VOTE_ENCODING, "checkpoint vote")?;
        let mut checkpoints = Vec::with_capacity(cv_count);
        for _ in 0..cv_count {
            checkpoints.push(CheckpointVote::decode(dec)?);
        }
        let tx_root = dec.get_digest()?;
        let hash = dec.get_digest()?;
        // Each entry is a (possibly empty) name plus a signature.
        let sig_count = dec.get_count(4 + MIN_SIGNATURE_ENCODING, "block signature")?;
        let mut signatures = Vec::with_capacity(sig_count);
        for _ in 0..sig_count {
            let name = dec.get_str()?;
            signatures.push((name, decode_signature(dec)?));
        }
        Ok(Block {
            number,
            prev_hash,
            txs,
            consensus,
            checkpoints,
            tx_root,
            hash,
            signatures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::genesis_prev_hash;
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{KeyPair, Scheme};

    fn sample_block(scheme: Scheme) -> Block {
        let client = KeyPair::generate("org1/alice", b"alice", scheme);
        let orderer = KeyPair::generate("org1/ord", b"ord", scheme);
        let txs = vec![
            Transaction::new_order_execute(
                "org1/alice",
                Payload::new(
                    "f",
                    vec![Value::Int(1), Value::Text("x".into()), Value::Null],
                ),
                1,
                &client,
            )
            .unwrap(),
            Transaction::new_execute_order(
                "org1/alice",
                Payload::new("g", vec![Value::Float(2.5)]),
                4,
                &client,
            )
            .unwrap(),
        ];
        let mut b = Block::build(
            1,
            genesis_prev_hash(),
            txs,
            "kafka",
            vec![CheckpointVote {
                node: "n1".into(),
                block: 0,
                state_hash: [3u8; 32],
            }],
        );
        b.sign(&orderer).unwrap();
        b
    }

    #[test]
    fn block_roundtrip_sim_signatures() {
        let b = sample_block(Scheme::Sim);
        let bytes = b.encode_to_vec();
        let back = Block::decode_all(&bytes).unwrap();
        assert_eq!(back.number, b.number);
        assert_eq!(back.hash, b.hash);
        assert_eq!(back.txs.len(), 2);
        assert_eq!(back.txs[0].payload, b.txs[0].payload);
        assert_eq!(back.txs[1].snapshot_height, Some(4));
        assert_eq!(back.checkpoints, b.checkpoints);
        assert_eq!(back.signatures.len(), 1);
        back.verify_integrity().unwrap();
    }

    /// Golden pin: round trips cannot tell whether an encoder's output
    /// *changed*, and block store files, block hashes and every TCP frame
    /// depend on these exact bytes.
    #[test]
    fn golden_block_hash_and_encoding_are_pinned() {
        use bcrdb_crypto::sha256::{sha256, to_hex};
        let b = sample_block(Scheme::Sim);
        assert_eq!(
            to_hex(&b.hash),
            "1f33d71c61b7358ce5f6502ba0da327502070a10c7d8cc41af621786e88c41db"
        );
        assert_eq!(
            to_hex(&sha256(&b.encode_to_vec())),
            "a6e7216b69031c327e56215d50fe11d839c7e644f04bbf35366870334c15e810"
        );
    }

    #[test]
    fn block_roundtrip_hashbased_signatures() {
        let b = sample_block(Scheme::HashBased { height: 3 });
        let bytes = b.encode_to_vec();
        let back = Block::decode_all(&bytes).unwrap();
        assert_eq!(back.txs[0].signature, b.txs[0].signature);
        back.verify_integrity().unwrap();
    }

    #[test]
    fn truncation_is_an_error() {
        let b = sample_block(Scheme::Sim);
        let bytes = b.encode_to_vec();
        for cut in [1usize, 10, 50, bytes.len() - 1] {
            assert!(Block::decode_all(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    /// A count is honoured only if the input can back it: each of these
    /// inputs claims far more elements than its remaining bytes could
    /// hold, and must be refused *before* `Vec::with_capacity` runs.
    #[test]
    fn element_counts_are_bounded_by_remaining_input() {
        fn assert_refused<T>(r: Result<T>) {
            match r {
                Err(Error::Codec(m)) => assert!(m.ends_with("exceeds remaining input"), "{m}"),
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("hostile count accepted"),
            }
        }
        // Number, prev_hash, then "1,000,000 transactions": 44 bytes that
        // would reserve 160 MB if the count were honoured.
        let mut enc = Encoder::new();
        enc.put_u64(1);
        enc.put_digest(&[0u8; 32]);
        let header = enc.len();
        enc.put_u32(1_000_000);
        let tx_bomb = enc.finish();
        assert_eq!(tx_bomb.len(), 44);
        assert_refused(Block::decode_all(&tx_bomb));

        // The same header with no transactions, then a vote count …
        let mut enc = Encoder::new();
        enc.put_u32(0);
        enc.put_str("kafka");
        let no_txs = [&tx_bomb[..header], &enc.finish()].concat();
        let vote_bomb = [&no_txs[..], &1_000_000u32.to_be_bytes()].concat();
        assert_refused(Block::decode_all(&vote_bomb));

        // … or no votes either, two digests, then a signature count.
        let sig_bomb = [&no_txs[..], &[0u8; 4 + 64], &100_000u32.to_be_bytes()].concat();
        assert_refused(Block::decode_all(&sig_bomb));

        // A sync response (tag, tip) claiming 100,000 blocks in 13 bytes.
        let sync_bomb = [&[0u8; 9][..], &100_000u32.to_be_bytes()].concat();
        assert_refused(crate::sync::SyncResponse::decode_all(&sync_bomb));
    }

    #[test]
    fn minimum_encodings_are_what_empty_values_encode_to() {
        let vote = CheckpointVote {
            node: String::new(),
            block: 0,
            state_hash: [0u8; 32],
        };
        assert_eq!(vote.encoded_len(), MIN_VOTE_ENCODING);
        let empty = Block::build(0, [0u8; 32], vec![], "", vec![]);
        assert_eq!(empty.encoded_len(), MIN_BLOCK_ENCODING);
        // Real transactions sit above their floor.
        let b = sample_block(Scheme::Sim);
        assert!(b.txs.iter().all(|t| t.encoded_len() > MIN_TX_ENCODING));
        assert_eq!(b.encoded_len(), b.encode_to_vec().len());
    }

    #[test]
    fn bad_tags_are_errors() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        let bytes = enc.finish();
        assert!(decode_signature(&mut Decoder::new(&bytes)).is_err());
    }
}
