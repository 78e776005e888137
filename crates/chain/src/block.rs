//! Blocks.
//!
//! Per §3.1 of the paper a block consists of (a) a sequence number, (b) a
//! set of transactions, (c) metadata associated with the consensus
//! protocol, (d) the hash of the previous block, (e) the hash of the
//! current block — `hash(a, b, c, d)` — and (f) orderer signatures on that
//! hash. Transactions are summarized by a Merkle root so light clients can
//! verify membership; the checkpointing phase's state-change hashes from
//! previous blocks ride along in the metadata (§3.3.4: "state change
//! hashes are added in the next block").

use bcrdb_common::codec::{Encode, Encoder};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;
use bcrdb_crypto::identity::{CertificateRegistry, KeyPair, Signature};
use bcrdb_crypto::merkle::MerkleTree;
use bcrdb_crypto::sha256::{sha256, Digest};

use crate::tx::Transaction;

/// A node's vote on the state produced by a block: the hash of the block's
/// write set (§3.3.4). Collected by the ordering service and embedded in a
/// subsequent block's metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointVote {
    /// Voting database node.
    pub node: String,
    /// The block whose write set was hashed.
    pub block: BlockHeight,
    /// Hash of the union of state changes made by that block.
    pub state_hash: Digest,
}

/// The hash of the conventional genesis predecessor (block 0's
/// `prev_hash`).
pub fn genesis_prev_hash() -> Digest {
    sha256(b"bcrdb-genesis")
}

/// A block of ordered transactions.
#[derive(Clone, Debug)]
pub struct Block {
    /// Sequence number (height). The bootstrap block is 1; `prev_hash` of
    /// block 1 is [`genesis_prev_hash`].
    pub number: BlockHeight,
    /// Hash of the previous block.
    pub prev_hash: Digest,
    /// Ordered transactions.
    pub txs: Vec<Transaction>,
    /// Consensus metadata: which backend ordered this block.
    pub consensus: String,
    /// Checkpoint votes for earlier blocks, relayed by the orderer.
    pub checkpoints: Vec<CheckpointVote>,
    /// Merkle root over the transactions' canonical bytes.
    pub tx_root: Digest,
    /// `hash(number, tx_root, consensus, checkpoints, prev_hash)`.
    pub hash: Digest,
    /// Orderer signatures over `hash`.
    pub signatures: Vec<(String, Signature)>,
}

impl Block {
    /// Assemble and hash a block (unsigned; orderers then
    /// [`Block::sign`] it).
    pub fn build(
        number: BlockHeight,
        prev_hash: Digest,
        txs: Vec<Transaction>,
        consensus: impl Into<String>,
        checkpoints: Vec<CheckpointVote>,
    ) -> Block {
        let consensus = consensus.into();
        let leaves: Vec<Vec<u8>> = txs.iter().map(Transaction::canonical_bytes).collect();
        let tx_root = MerkleTree::build(&leaves).root();
        let hash = Self::compute_hash(number, &tx_root, &consensus, &checkpoints, &prev_hash);
        Block {
            number,
            prev_hash,
            txs,
            consensus,
            checkpoints,
            tx_root,
            hash,
            signatures: Vec::new(),
        }
    }

    fn compute_hash(
        number: BlockHeight,
        tx_root: &Digest,
        consensus: &str,
        checkpoints: &[CheckpointVote],
        prev_hash: &Digest,
    ) -> Digest {
        let mut enc = Encoder::new();
        enc.put_u64(number);
        enc.put_digest(tx_root);
        enc.put_str(consensus);
        enc.put_u32(checkpoints.len() as u32);
        for cv in checkpoints {
            cv.encode(&mut enc);
        }
        enc.put_digest(prev_hash);
        sha256(&enc.finish())
    }

    /// Append an orderer signature.
    pub fn sign(&mut self, orderer: &KeyPair) -> Result<()> {
        let sig = orderer
            .sign_digest(&self.hash)
            .ok_or_else(|| Error::Crypto("orderer signing key exhausted".into()))?;
        self.signatures.push((orderer.name().to_string(), sig));
        Ok(())
    }

    /// Recompute the hash and Merkle root, detecting in-flight tampering.
    pub fn verify_integrity(&self) -> Result<()> {
        let leaves: Vec<Vec<u8>> = self.txs.iter().map(Transaction::canonical_bytes).collect();
        let tx_root = MerkleTree::build(&leaves).root();
        if tx_root != self.tx_root {
            return Err(Error::TamperDetected(format!(
                "block {}: transaction root mismatch",
                self.number
            )));
        }
        let hash = Self::compute_hash(
            self.number,
            &self.tx_root,
            &self.consensus,
            &self.checkpoints,
            &self.prev_hash,
        );
        if hash != self.hash {
            return Err(Error::TamperDetected(format!(
                "block {}: hash mismatch",
                self.number
            )));
        }
        Ok(())
    }

    /// Full verification on receipt (§3.3.2): integrity, chain linkage to
    /// `prev` and at least one valid orderer signature registered in
    /// `certs`.
    pub fn verify(&self, prev_hash_expected: &Digest, certs: &CertificateRegistry) -> Result<()> {
        self.verify_integrity()?;
        if self.prev_hash != *prev_hash_expected {
            return Err(Error::TamperDetected(format!(
                "block {}: previous-hash mismatch (chain broken)",
                self.number
            )));
        }
        let mut any_valid = false;
        for (name, sig) in &self.signatures {
            if let Some(cert) = certs.lookup(name) {
                if bcrdb_crypto::identity::verify_digest(&cert.public_key, &self.hash, sig) {
                    any_valid = true;
                    break;
                }
            }
        }
        if !any_valid {
            return Err(Error::Crypto(format!(
                "block {}: no valid orderer signature",
                self.number
            )));
        }
        Ok(())
    }

    /// Merkle membership proof for the transaction at `index`.
    pub fn prove_tx(&self, index: usize) -> bcrdb_crypto::merkle::MerkleProof {
        let leaves: Vec<Vec<u8>> = self.txs.iter().map(Transaction::canonical_bytes).collect();
        MerkleTree::build(&leaves).prove(index)
    }

    /// Verify a transaction-membership proof against this block's root.
    pub fn verify_tx_proof(
        root: &Digest,
        tx: &Transaction,
        proof: &bcrdb_crypto::merkle::MerkleProof,
    ) -> bool {
        MerkleTree::verify(root, &tx.canonical_bytes(), proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Payload;
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{Certificate, Role, Scheme};

    fn tx(key: &KeyPair, nonce: u64) -> Transaction {
        Transaction::new_order_execute(
            "org1/alice",
            Payload::new("f", vec![Value::Int(nonce as i64)]),
            nonce,
            key,
        )
        .unwrap()
    }

    fn setup() -> (KeyPair, KeyPair, std::sync::Arc<CertificateRegistry>) {
        let client = KeyPair::generate("org1/alice", b"alice", Scheme::HashBased { height: 5 });
        let orderer = KeyPair::generate("org1/orderer", b"ord", Scheme::HashBased { height: 5 });
        let certs = CertificateRegistry::new();
        certs.register(Certificate {
            name: "org1/alice".into(),
            org: "org1".into(),
            role: Role::Client,
            public_key: client.public_key(),
        });
        certs.register(Certificate {
            name: "org1/orderer".into(),
            org: "org1".into(),
            role: Role::Orderer,
            public_key: orderer.public_key(),
        });
        (client, orderer, certs)
    }

    #[test]
    fn build_sign_verify_chain() {
        let (client, orderer, certs) = setup();
        let mut b1 = Block::build(
            1,
            genesis_prev_hash(),
            vec![tx(&client, 1), tx(&client, 2)],
            "solo",
            vec![],
        );
        b1.sign(&orderer).unwrap();
        b1.verify(&genesis_prev_hash(), &certs).unwrap();

        let mut b2 = Block::build(2, b1.hash, vec![tx(&client, 3)], "solo", vec![]);
        b2.sign(&orderer).unwrap();
        b2.verify(&b1.hash, &certs).unwrap();
        // Wrong predecessor fails.
        assert!(b2.verify(&genesis_prev_hash(), &certs).is_err());
    }

    #[test]
    fn tampered_transaction_detected() {
        let (client, orderer, certs) = setup();
        let mut b = Block::build(1, genesis_prev_hash(), vec![tx(&client, 1)], "solo", vec![]);
        b.sign(&orderer).unwrap();
        // Tamper with a transaction argument after sealing.
        b.txs[0].payload.args[0] = Value::Int(999);
        let err = b.verify(&genesis_prev_hash(), &certs).unwrap_err();
        assert!(matches!(err, Error::TamperDetected(_)));
    }

    #[test]
    fn tampered_header_detected() {
        let (client, orderer, certs) = setup();
        let mut b = Block::build(1, genesis_prev_hash(), vec![tx(&client, 1)], "solo", vec![]);
        b.sign(&orderer).unwrap();
        b.number = 5;
        assert!(b.verify(&genesis_prev_hash(), &certs).is_err());
    }

    #[test]
    fn unsigned_block_rejected() {
        let (client, _, certs) = setup();
        let b = Block::build(1, genesis_prev_hash(), vec![tx(&client, 1)], "solo", vec![]);
        assert!(b.verify(&genesis_prev_hash(), &certs).is_err());
    }

    #[test]
    fn signature_by_unregistered_orderer_rejected() {
        let (client, _, certs) = setup();
        let rogue = KeyPair::generate("evil/orderer", b"rogue", Scheme::HashBased { height: 2 });
        let mut b = Block::build(1, genesis_prev_hash(), vec![tx(&client, 1)], "solo", vec![]);
        b.sign(&rogue).unwrap();
        assert!(b.verify(&genesis_prev_hash(), &certs).is_err());
    }

    #[test]
    fn checkpoint_votes_affect_hash() {
        let (client, _, _) = setup();
        let txs = vec![tx(&client, 1)];
        let a = Block::build(2, genesis_prev_hash(), txs.clone(), "solo", vec![]);
        let b = Block::build(
            2,
            genesis_prev_hash(),
            txs,
            "solo",
            vec![CheckpointVote {
                node: "org1/peer".into(),
                block: 1,
                state_hash: [1u8; 32],
            }],
        );
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn tx_membership_proofs() {
        let (client, _, _) = setup();
        let txs: Vec<Transaction> = (0..5).map(|i| tx(&client, i)).collect();
        let b = Block::build(1, genesis_prev_hash(), txs, "solo", vec![]);
        for i in 0..5 {
            let proof = b.prove_tx(i);
            assert!(Block::verify_tx_proof(&b.tx_root, &b.txs[i], &proof));
            // A proof does not validate a different transaction.
            let other = (i + 1) % 5;
            assert!(!Block::verify_tx_proof(&b.tx_root, &b.txs[other], &proof));
        }
    }

    #[test]
    fn empty_block_is_valid() {
        let (_, orderer, certs) = setup();
        let mut b = Block::build(1, genesis_prev_hash(), vec![], "solo", vec![]);
        b.sign(&orderer).unwrap();
        b.verify(&genesis_prev_hash(), &certs).unwrap();
    }
}
