//! Deterministic identities (§3.7: certificates are distributed out of
//! band before a network starts).
//!
//! Every admin, peer and client key derives from a seed that is a pure
//! function of its name, so each process of a deployment — and a node
//! that restarts — rebuilds the same key pairs and certificates locally;
//! nothing secret ever crosses the wire. Each derivation is written here
//! once; the orderers' is [`bcrdb_ordering::service::orderer_identity`].

use bcrdb_crypto::identity::{Certificate, KeyPair, Role, Scheme};
use bcrdb_network::wire::peer_endpoint;

fn certified(key: KeyPair, org: &str, role: Role) -> (KeyPair, Certificate) {
    let cert = Certificate {
        name: key.name().to_string(),
        org: org.to_string(),
        role,
        public_key: key.public_key(),
    };
    (key, cert)
}

/// `org`'s admin, `{org}/admin`.
pub(crate) fn admin_identity(org: &str, scheme: Scheme) -> (KeyPair, Certificate) {
    let seed = format!("admin-seed-{org}");
    let key = KeyPair::generate(format!("{org}/admin"), seed.as_bytes(), scheme);
    certified(key, org, Role::Admin)
}

/// `org`'s database node, `{org}/peer` (attributes checkpoint votes); a
/// rejoining node keeps its identity. Peers sign nothing, so the scheme
/// is always the simulated one.
pub(crate) fn peer_identity(org: &str) -> (KeyPair, Certificate) {
    let seed = format!("peer-seed-{org}");
    let key = KeyPair::generate(peer_endpoint(org), seed.as_bytes(), Scheme::Sim);
    certified(key, org, Role::Peer)
}

/// Client `user` of `org`, `{org}/{user}`.
pub(crate) fn client_identity(org: &str, user: &str, scheme: Scheme) -> (KeyPair, Certificate) {
    let name = format!("{org}/{user}");
    let seed = format!("client-seed-{name}");
    let key = KeyPair::generate(name, seed.as_bytes(), scheme);
    certified(key, org, Role::Client)
}
