//! Keyed-MAC signatures standing in for public-key signatures.
//!
//! The paper (§2.1) assumes pairwise-authenticated channels and, in the
//! Byzantine model, public-key signatures with every node knowing every other
//! node's public key. Real asymmetric crypto is not available in the offline
//! crate set, so the reproduction substitutes a keyed MAC:
//!
//! * every signer (replica or client) owns a random [`SecretKey`];
//! * a [`Signature`] over a message `m` is `SHA-256(secret ‖ len(m) ‖ m)`;
//! * verification goes through the [`KeyRegistry`], which stores all secrets
//!   and models the paper's PKI assumption.
//!
//! Within the simulation this preserves the only property the protocols rely
//! on — a (simulated) adversary cannot produce a valid signature of an honest
//! node, because it is never handed that node's secret. The *cost* of real
//! signatures is charged by the simulator's cost model instead.

use crate::digest::Digest;
use crate::sha256::Sha256;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a signer. Replica ids and client ids are mapped into this
/// space by the system layer (replicas keep their id, clients are offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignerId(pub u64);

/// A signer's secret key.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey([u8; 32]);

impl SecretKey {
    /// Derives a secret key deterministically from a seed and signer id.
    ///
    /// Deterministic derivation keeps simulations reproducible; the secrecy
    /// argument is about which component of the simulation is handed the key,
    /// not about entropy.
    pub fn derive(seed: u64, signer: SignerId) -> Self {
        let mut h = Sha256::new();
        h.update(b"sharper-secret-key");
        h.update(&seed.to_le_bytes());
        h.update(&signer.0.to_le_bytes());
        SecretKey(h.finalize())
    }
}

impl fmt::Debug for SecretKey {
    // Never leak key material into logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

/// A signature (really a MAC tag) over a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Signature {
    /// Who claims to have produced the signature.
    pub signer: u64,
    /// The MAC tag.
    pub tag: Digest,
}

impl Signature {
    /// A placeholder signature used in the crash-only model, where messages
    /// are not signed (§3.2: "Since all nodes in the system are crash-only
    /// nodes, there is no need to sign messages").
    pub fn unsigned(signer: u64) -> Self {
        Signature {
            signer,
            tag: Digest::ZERO,
        }
    }
}

/// The signing half held by a single node or client.
#[derive(Debug, Clone)]
pub struct Signer {
    id: SignerId,
    secret: SecretKey,
}

impl Signer {
    /// Creates a signer from its id and secret.
    pub fn new(id: SignerId, secret: SecretKey) -> Self {
        Self { id, secret }
    }

    /// The signer's identifier.
    pub fn id(&self) -> SignerId {
        self.id
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            signer: self.id.0,
            tag: mac(&self.secret, message),
        }
    }
}

fn mac(secret: &SecretKey, message: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&secret.0);
    h.update(&(message.len() as u64).to_le_bytes());
    h.update(message);
    Digest(h.finalize())
}

/// The verification side, modelling the paper's PKI ("all nodes have access
/// to the public keys of all other nodes").
///
/// The registry is immutable after construction and cheap to clone (`Arc`
/// inside), so every simulated replica can hold one.
#[derive(Debug, Clone)]
pub struct KeyRegistry {
    secrets: Arc<HashMap<SignerId, SecretKey>>,
}

impl KeyRegistry {
    /// Builds a registry (and the matching signers) for `signers` ids using
    /// the deterministic seed `seed`.
    pub fn generate(seed: u64, signers: impl IntoIterator<Item = SignerId>) -> (Self, Vec<Signer>) {
        let mut secrets = HashMap::new();
        let mut out = Vec::new();
        for id in signers {
            let sk = SecretKey::derive(seed, id);
            secrets.insert(id, sk.clone());
            out.push(Signer::new(id, sk));
        }
        (
            Self {
                secrets: Arc::new(secrets),
            },
            out,
        )
    }

    /// Returns the signer handle for `id`, if it is registered.
    pub fn signer(&self, id: SignerId) -> Option<Signer> {
        self.secrets.get(&id).map(|sk| Signer::new(id, sk.clone()))
    }

    /// Verifies that `sig` is a valid signature by `sig.signer` over
    /// `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        match self.secrets.get(&SignerId(sig.signer)) {
            Some(secret) => mac(secret, message) == sig.tag,
            None => false,
        }
    }

    /// Number of registered signers.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: u64) -> (KeyRegistry, Vec<Signer>) {
        KeyRegistry::generate(42, (0..n).map(SignerId))
    }

    #[test]
    fn sign_and_verify_round_trip() {
        let (reg, signers) = registry(4);
        let msg = b"propose block 7";
        for s in &signers {
            let sig = s.sign(msg);
            assert!(reg.verify(msg, &sig));
        }
    }

    #[test]
    fn tampered_message_fails_verification() {
        let (reg, signers) = registry(2);
        let sig = signers[0].sign(b"transfer 10 from a1 to a2");
        assert!(!reg.verify(b"transfer 99 from a1 to a2", &sig));
    }

    #[test]
    fn signature_cannot_be_claimed_by_another_signer() {
        let (reg, signers) = registry(2);
        let msg = b"message";
        let mut sig = signers[0].sign(msg);
        // An adversary relabels the signature as coming from signer 1.
        sig.signer = 1;
        assert!(!reg.verify(msg, &sig));
    }

    #[test]
    fn unknown_signer_is_rejected() {
        let (reg, _) = registry(2);
        let rogue = Signer::new(SignerId(99), SecretKey::derive(7, SignerId(99)));
        let sig = rogue.sign(b"m");
        assert!(!reg.verify(b"m", &sig));
    }

    #[test]
    fn unsigned_placeholder_never_verifies_under_byzantine_checks() {
        let (reg, _) = registry(2);
        let sig = Signature::unsigned(0);
        assert!(!reg.verify(b"anything", &sig));
    }

    #[test]
    fn derivation_is_deterministic_per_seed_and_id() {
        let a = SecretKey::derive(1, SignerId(5));
        let b = SecretKey::derive(1, SignerId(5));
        let c = SecretKey::derive(2, SignerId(5));
        let d = SecretKey::derive(1, SignerId(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let sk = SecretKey::derive(1, SignerId(1));
        assert_eq!(format!("{sk:?}"), "SecretKey(<redacted>)");
    }

    #[test]
    fn registry_lookup() {
        let (reg, _) = registry(3);
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
        assert!(reg.signer(SignerId(2)).is_some());
        assert!(reg.signer(SignerId(9)).is_none());
        let s = reg.signer(SignerId(2)).unwrap();
        assert!(reg.verify(b"x", &s.sign(b"x")));
    }
}
