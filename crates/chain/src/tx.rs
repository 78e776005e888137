//! Signed transaction envelopes.
//!
//! ### Order-then-execute (§3.3)
//! A transaction comprises (a) a unique identifier, (b) the client's
//! username, (c) the procedure execution command, and (d) a digital
//! signature over `hash(a, b, c)`. The identifier is chosen by the client
//! (here derived from a client nonce so it cannot collide by accident).
//!
//! ### Execute-order-in-parallel (§3.4)
//! A transaction comprises (a) the username, (b) the procedure command,
//! (c) a snapshot block number, (d) a unique identifier **computed as
//! `hash(a, b, c)`** — mandated by §3.4.3 so two different transactions can
//! never share an id — and (e) a signature over `hash(a, b, c, d)`.

use bcrdb_common::codec::Encoder;
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::{BlockHeight, GlobalTxId};
use bcrdb_common::value::Value;
use bcrdb_crypto::identity::{CertificateRegistry, KeyPair, Signature};
use bcrdb_crypto::sha256::{sha256, Digest};

/// The procedure invocation carried by a transaction ("the PL/SQL
/// procedure execution command with the name of the procedure and
/// arguments").
#[derive(Clone, Debug, PartialEq)]
pub struct Payload {
    /// Contract (procedure) name.
    pub contract: String,
    /// Argument values.
    pub args: Vec<Value>,
}

impl Payload {
    /// Convenience constructor.
    pub fn new(contract: impl Into<String>, args: Vec<Value>) -> Payload {
        Payload {
            contract: contract.into(),
            args,
        }
    }

    /// Canonical encoding (signed content).
    pub fn encode_canonical(&self, enc: &mut Encoder) {
        enc.put_str(&self.contract);
        enc.put_row(&self.args);
    }
}

/// A signed blockchain transaction.
#[derive(Clone, Debug)]
pub struct Transaction {
    /// Network-unique identifier.
    pub id: GlobalTxId,
    /// Invoking user (certificate name, `org/user`).
    pub user: String,
    /// Procedure invocation.
    pub payload: Payload,
    /// EO flow: the snapshot height this transaction must execute at
    /// (§3.4.1). `None` in the OE flow, where every transaction executes on
    /// the state left by the previous block.
    pub snapshot_height: Option<BlockHeight>,
    /// Client signature.
    pub signature: Signature,
}

fn hash_user_payload(user: &str, payload: &Payload, extra: Option<u64>) -> Digest {
    let mut enc = Encoder::new();
    enc.put_str(user);
    payload.encode_canonical(&mut enc);
    if let Some(e) = extra {
        enc.put_u64(e);
    }
    sha256(&enc.finish())
}

impl Transaction {
    /// Build an order-then-execute transaction. The unique identifier is
    /// `hash(user, payload, nonce)`; the signature covers
    /// `hash(id, user, payload)` per §3.3.
    pub fn new_order_execute(
        user: &str,
        payload: Payload,
        nonce: u64,
        key: &KeyPair,
    ) -> Result<Transaction> {
        let id = GlobalTxId(hash_user_payload(user, &payload, Some(nonce)));
        let digest = Self::signed_digest_oe(&id, user, &payload);
        let signature = key
            .sign_digest(&digest)
            .ok_or_else(|| Error::Crypto("signing key exhausted".into()))?;
        Ok(Transaction {
            id,
            user: user.to_string(),
            payload,
            snapshot_height: None,
            signature,
        })
    }

    /// Build an execute-order-in-parallel transaction at `snapshot_height`.
    /// The identifier is `hash(user, payload, block#)` (§3.4.3) and the
    /// signature covers `hash(user, payload, block#, id)`.
    pub fn new_execute_order(
        user: &str,
        payload: Payload,
        snapshot_height: BlockHeight,
        key: &KeyPair,
    ) -> Result<Transaction> {
        let id = GlobalTxId(hash_user_payload(user, &payload, Some(snapshot_height)));
        let digest = Self::signed_digest_eo(&id, user, &payload, snapshot_height);
        let signature = key
            .sign_digest(&digest)
            .ok_or_else(|| Error::Crypto("signing key exhausted".into()))?;
        Ok(Transaction {
            id,
            user: user.to_string(),
            payload,
            snapshot_height: Some(snapshot_height),
            signature,
        })
    }

    fn signed_digest_oe(id: &GlobalTxId, user: &str, payload: &Payload) -> Digest {
        let mut enc = Encoder::new();
        enc.put_digest(&id.0);
        enc.put_str(user);
        payload.encode_canonical(&mut enc);
        sha256(&enc.finish())
    }

    fn signed_digest_eo(
        id: &GlobalTxId,
        user: &str,
        payload: &Payload,
        height: BlockHeight,
    ) -> Digest {
        let mut enc = Encoder::new();
        enc.put_str(user);
        payload.encode_canonical(&mut enc);
        enc.put_u64(height);
        enc.put_digest(&id.0);
        sha256(&enc.finish())
    }

    /// The digest the signature covers.
    pub fn signed_digest(&self) -> Digest {
        match self.snapshot_height {
            None => Self::signed_digest_oe(&self.id, &self.user, &self.payload),
            Some(h) => Self::signed_digest_eo(&self.id, &self.user, &self.payload, h),
        }
    }

    /// Verify the envelope: (1) for EO transactions, the id actually equals
    /// `hash(user, payload, block#)` — the §3.4.3 anti-collision rule;
    /// (2) the signature verifies against the registered certificate.
    pub fn verify(&self, certs: &CertificateRegistry) -> Result<()> {
        if let Some(h) = self.snapshot_height {
            let expected = GlobalTxId(hash_user_payload(&self.user, &self.payload, Some(h)));
            if expected != self.id {
                return Err(Error::Crypto(format!(
                    "transaction id {} does not match hash(user, payload, block)",
                    self.id.short()
                )));
            }
        }
        let cert = certs
            .lookup(&self.user)
            .ok_or_else(|| Error::Crypto(format!("unknown user {}", self.user)))?;
        let digest = self.signed_digest();
        if !bcrdb_crypto::identity::verify_digest(&cert.public_key, &digest, &self.signature) {
            return Err(Error::Crypto(format!(
                "signature verification failed for transaction {} by {}",
                self.id.short(),
                self.user
            )));
        }
        Ok(())
    }

    /// Canonical content bytes (identifies the transaction inside blocks;
    /// the Merkle leaf for the block's transaction root).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_digest(&self.id.0);
        enc.put_str(&self.user);
        self.payload.encode_canonical(&mut enc);
        match self.snapshot_height {
            Some(h) => {
                enc.put_bool(true);
                enc.put_u64(h);
            }
            None => enc.put_bool(false),
        }
        enc.finish().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_crypto::identity::{Certificate, Role, Scheme};

    fn setup() -> (KeyPair, std::sync::Arc<CertificateRegistry>) {
        let key = KeyPair::generate("org1/alice", b"alice", Scheme::HashBased { height: 4 });
        let certs = CertificateRegistry::new();
        certs.register(Certificate {
            name: "org1/alice".into(),
            org: "org1".into(),
            role: Role::Client,
            public_key: key.public_key(),
        });
        (key, certs)
    }

    fn payload() -> Payload {
        Payload::new(
            "transfer",
            vec![Value::Int(1), Value::Int(2), Value::Float(5.0)],
        )
    }

    #[test]
    fn oe_transaction_roundtrip() {
        let (key, certs) = setup();
        let tx = Transaction::new_order_execute("org1/alice", payload(), 42, &key).unwrap();
        assert!(tx.snapshot_height.is_none());
        tx.verify(&certs).unwrap();
        // Distinct nonces → distinct ids.
        let tx2 = Transaction::new_order_execute("org1/alice", payload(), 43, &key).unwrap();
        assert_ne!(tx.id, tx2.id);
    }

    #[test]
    fn eo_transaction_roundtrip_and_id_binding() {
        let (key, certs) = setup();
        let tx = Transaction::new_execute_order("org1/alice", payload(), 7, &key).unwrap();
        assert_eq!(tx.snapshot_height, Some(7));
        tx.verify(&certs).unwrap();
        // Same (user, payload, height) → same id (resubmission dedupes).
        let tx2 = Transaction::new_execute_order("org1/alice", payload(), 7, &key).unwrap();
        assert_eq!(tx.id, tx2.id);
        // Different height → different id.
        let tx3 = Transaction::new_execute_order("org1/alice", payload(), 8, &key).unwrap();
        assert_ne!(tx.id, tx3.id);
    }

    #[test]
    fn forged_id_rejected() {
        let (key, certs) = setup();
        let mut tx = Transaction::new_execute_order("org1/alice", payload(), 7, &key).unwrap();
        tx.id = GlobalTxId([9u8; 32]);
        assert!(tx.verify(&certs).is_err());
    }

    #[test]
    fn tampered_payload_rejected() {
        let (key, certs) = setup();
        let mut tx = Transaction::new_order_execute("org1/alice", payload(), 1, &key).unwrap();
        tx.payload.args[2] = Value::Float(5000.0);
        assert!(tx.verify(&certs).is_err());
    }

    #[test]
    fn unknown_user_rejected() {
        let (key, certs) = setup();
        let mut tx = Transaction::new_order_execute("org1/alice", payload(), 1, &key).unwrap();
        tx.user = "org1/mallory".into();
        assert!(tx.verify(&certs).is_err());
    }

    #[test]
    fn canonical_bytes_differ_per_transaction() {
        let (key, _) = setup();
        let a = Transaction::new_order_execute("org1/alice", payload(), 1, &key).unwrap();
        let b = Transaction::new_order_execute("org1/alice", payload(), 2, &key).unwrap();
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }
}
