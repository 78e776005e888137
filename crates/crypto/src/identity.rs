//! Identities, certificates and the certificate registry.
//!
//! Every participant — client users, organization admins, database peer
//! nodes and orderer nodes — holds a key pair and registers a certificate
//! with every database node (the paper's `pgCerts` catalog table, §4.2).
//! Transactions are signed by the invoking client and verified by each node
//! before execution; blocks are signed by orderer nodes and verified by the
//! middleware on receipt.
//!
//! Two schemes are provided:
//!
//! * [`Scheme::HashBased`] — the real many-time hash-based signature
//!   ([`crate::mss`]). Unforgeable; used by default and by all security
//!   tests.
//! * [`Scheme::Sim`] — a *simulated* signature (`sha256(pk ‖ msg)`): the
//!   correct wire shape and deterministic verification outcome but **no
//!   unforgeability**. It exists so the performance benchmarks measure the
//!   paper's protocol costs rather than our hash-based crypto, mirroring
//!   the substitution table in DESIGN.md. Never use it outside benchmarks.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::mss::{MssPrivateKey, MssPublicKey, MssSignature};
use crate::sha256::{sha256, Digest, Sha256};

/// Signature scheme selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Real hash-based many-time signatures; `height` bounds the number of
    /// signatures to `2^height`.
    HashBased {
        /// Merkle tree height of the MSS key.
        height: u32,
    },
    /// Simulated signatures for performance benchmarking only.
    Sim,
}

/// The role a certificate grants on the network (used for access control of
/// system contracts, §3.7).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Role {
    /// Organization administrator: may deploy/approve contracts and manage
    /// users.
    Admin,
    /// Ordinary client user: may invoke deployed contracts and query.
    Client,
    /// A database peer node's own identity.
    Peer,
    /// An ordering service node's identity.
    Orderer,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Admin => "admin",
            Role::Client => "client",
            Role::Peer => "peer",
            Role::Orderer => "orderer",
        };
        f.write_str(s)
    }
}

/// A public key under either scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PublicKey {
    /// MSS root + height.
    HashBased(MssPublicKey),
    /// Simulated key: just a unique digest.
    Sim(Digest),
}

impl PublicKey {
    /// Stable byte representation (for hashing into transaction ids).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            PublicKey::HashBased(pk) => {
                let mut v = Vec::with_capacity(37);
                v.push(1u8);
                v.extend_from_slice(&pk.root);
                v.extend_from_slice(&pk.height.to_be_bytes());
                v
            }
            PublicKey::Sim(d) => {
                let mut v = Vec::with_capacity(33);
                v.push(2u8);
                v.extend_from_slice(d);
                v
            }
        }
    }
}

/// A signature under either scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Signature {
    /// Hash-based MSS signature.
    HashBased(Box<MssSignature>),
    /// Simulated signature digest.
    Sim(Digest),
}

/// A private signing key plus its public half.
pub struct KeyPair {
    name: String,
    public: PublicKey,
    inner: KeyPairInner,
}

enum KeyPairInner {
    HashBased(MssPrivateKey),
    /// The simulated scheme is keyless by construction (see module docs);
    /// the "secret" only feeds public-key derivation in `generate`.
    Sim,
}

impl KeyPair {
    /// Deterministically generate a key pair from a seed string.
    pub fn generate(name: impl Into<String>, seed: &[u8], scheme: Scheme) -> KeyPair {
        let name = name.into();
        match scheme {
            Scheme::HashBased { height } => {
                let sk = MssPrivateKey::generate(seed, height);
                let public = PublicKey::HashBased(sk.public_key());
                KeyPair {
                    name,
                    public,
                    inner: KeyPairInner::HashBased(sk),
                }
            }
            Scheme::Sim => {
                let mut h = Sha256::new();
                h.update(b"sim-keypair");
                h.update(seed);
                let secret = h.finalize();
                let public = PublicKey::Sim(sha256(&secret));
                KeyPair {
                    name,
                    public,
                    inner: KeyPairInner::Sim,
                }
            }
        }
    }

    /// Key owner's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Public half.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Sign a message (hashed internally). Returns `None` only when a
    /// hash-based key pair has exhausted its one-time keys.
    pub fn sign(&self, message: &[u8]) -> Option<Signature> {
        let digest = sha256(message);
        self.sign_digest(&digest)
    }

    /// Sign a precomputed digest.
    pub fn sign_digest(&self, digest: &Digest) -> Option<Signature> {
        match &self.inner {
            KeyPairInner::HashBased(sk) => {
                sk.sign(digest).map(|s| Signature::HashBased(Box::new(s)))
            }
            KeyPairInner::Sim => {
                // The simulated scheme binds signer identity and message but
                // is forgeable by anyone knowing the public key (see module
                // docs). Shape-compatible, security-free.
                Some(Signature::Sim(sim_signature(&self.public, digest)))
            }
        }
    }

    /// Remaining signatures (hash-based keys are finite).
    pub fn remaining_signatures(&self) -> Option<u64> {
        match &self.inner {
            KeyPairInner::HashBased(sk) => Some(sk.remaining()),
            KeyPairInner::Sim => None,
        }
    }
}

fn sim_signature(pk: &PublicKey, digest: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"sim-signature");
    h.update(&pk.to_bytes());
    h.update(digest);
    h.finalize()
}

/// Verify `signature` over `message` against `public_key`.
pub fn verify(public_key: &PublicKey, message: &[u8], signature: &Signature) -> bool {
    verify_digest(public_key, &sha256(message), signature)
}

/// Verify against a precomputed digest.
pub fn verify_digest(public_key: &PublicKey, digest: &Digest, signature: &Signature) -> bool {
    match (public_key, signature) {
        (PublicKey::HashBased(pk), Signature::HashBased(sig)) => sig.verify(digest, pk),
        (PublicKey::Sim(_), Signature::Sim(sig)) => *sig == sim_signature(public_key, digest),
        _ => false,
    }
}

/// A certificate binding a user name to a public key, organization and
/// role. In the paper certificates are registered with every node at
/// network-setup time (§3.7); deploy-time user-management system contracts
/// can add more.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Network-unique user name, conventionally `org/user`.
    pub name: String,
    /// Owning organization.
    pub org: String,
    /// Role granted.
    pub role: Role,
    /// The registered public key.
    pub public_key: PublicKey,
}

/// The certificate registry each node keeps (the `pgCerts` analogue).
///
/// Lookups are by user name. The registry is shared between node
/// components via `Arc` and is append/update-only.
#[derive(Default)]
pub struct CertificateRegistry {
    certs: parking::RwLock<HashMap<String, Certificate>>,
}

/// Tiny RwLock shim over std so this crate keeps zero dependencies.
mod parking {
    /// Re-export std's RwLock under the structure the rest of the crate
    /// expects (`read()`/`write()` that never poison-panic in practice:
    /// we map poisoning into the inner value since all writers are
    /// panic-free data inserts).
    pub struct RwLock<T>(std::sync::RwLock<T>);

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock(std::sync::RwLock::new(T::default()))
        }
    }

    impl<T> RwLock<T> {
        pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(|e| e.into_inner())
        }

        pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(|e| e.into_inner())
        }
    }
}

impl CertificateRegistry {
    /// Empty registry.
    pub fn new() -> Arc<CertificateRegistry> {
        Arc::new(CertificateRegistry::default())
    }

    /// Register (or replace) a certificate.
    pub fn register(&self, cert: Certificate) {
        self.certs.write().insert(cert.name.clone(), cert);
    }

    /// Remove a certificate; returns true if it existed.
    pub fn revoke(&self, name: &str) -> bool {
        self.certs.write().remove(name).is_some()
    }

    /// Look up a certificate by user name.
    pub fn lookup(&self, name: &str) -> Option<Certificate> {
        self.certs.read().get(name).cloned()
    }

    /// All registered names (sorted, for deterministic iteration).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.certs.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered certificates.
    pub fn len(&self) -> usize {
        self.certs.read().len()
    }

    /// True if no certificates are registered.
    pub fn is_empty(&self) -> bool {
        self.certs.read().is_empty()
    }

    /// Verify a signature by a named user; false if unknown user.
    pub fn verify_by_name(&self, name: &str, message: &[u8], sig: &Signature) -> bool {
        match self.lookup(name) {
            Some(cert) => verify(&cert.public_key, message, sig),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashbased_sign_verify() {
        let kp = KeyPair::generate("org1/alice", b"alice-seed", Scheme::HashBased { height: 2 });
        let sig = kp.sign(b"tx payload").unwrap();
        assert!(verify(&kp.public_key(), b"tx payload", &sig));
        assert!(!verify(&kp.public_key(), b"other payload", &sig));
    }

    #[test]
    fn sim_sign_verify() {
        let kp = KeyPair::generate("bench/bob", b"bob-seed", Scheme::Sim);
        let sig = kp.sign(b"tx payload").unwrap();
        assert!(verify(&kp.public_key(), b"tx payload", &sig));
        assert!(!verify(&kp.public_key(), b"other", &sig));
        assert!(kp.remaining_signatures().is_none());
    }

    #[test]
    fn scheme_mismatch_fails() {
        let hb = KeyPair::generate("a", b"s1", Scheme::HashBased { height: 1 });
        let sim = KeyPair::generate("b", b"s2", Scheme::Sim);
        let sig = sim.sign(b"m").unwrap();
        assert!(!verify(&hb.public_key(), b"m", &sig));
    }

    #[test]
    fn registry_lookup_and_verify() {
        let reg = CertificateRegistry::new();
        let kp = KeyPair::generate("org1/alice", b"seed", Scheme::HashBased { height: 2 });
        reg.register(Certificate {
            name: "org1/alice".into(),
            org: "org1".into(),
            role: Role::Client,
            public_key: kp.public_key(),
        });
        let sig = kp.sign(b"hello").unwrap();
        assert!(reg.verify_by_name("org1/alice", b"hello", &sig));
        assert!(!reg.verify_by_name("org1/mallory", b"hello", &sig));
        assert_eq!(reg.names(), vec!["org1/alice".to_string()]);
        assert!(reg.revoke("org1/alice"));
        assert!(!reg.verify_by_name("org1/alice", b"hello", &sig));
        assert!(reg.is_empty());
    }

    #[test]
    fn impersonation_fails() {
        // Mallory registers her own cert but cannot sign as alice.
        let reg = CertificateRegistry::new();
        let alice = KeyPair::generate("org1/alice", b"a", Scheme::HashBased { height: 1 });
        let mallory = KeyPair::generate("org1/mallory", b"m", Scheme::HashBased { height: 1 });
        reg.register(Certificate {
            name: "org1/alice".into(),
            org: "org1".into(),
            role: Role::Client,
            public_key: alice.public_key(),
        });
        let forged = mallory.sign(b"transfer all funds").unwrap();
        assert!(!reg.verify_by_name("org1/alice", b"transfer all funds", &forged));
    }

    #[test]
    fn key_exhaustion_surfaces() {
        let kp = KeyPair::generate("x", b"s", Scheme::HashBased { height: 1 });
        assert_eq!(kp.remaining_signatures(), Some(2));
        assert!(kp.sign(b"1").is_some());
        assert!(kp.sign(b"2").is_some());
        assert!(kp.sign(b"3").is_none());
    }
}
