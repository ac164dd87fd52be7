//! # sharper-crypto
//!
//! Cryptographic primitives for the SharPer reproduction.
//!
//! SharPer (§2.1) assumes collision-resistant hashes for block chaining and
//! message digests, and public-key signatures for the Byzantine failure
//! model. This crate provides:
//!
//! * a from-scratch [`sha256`] implementation (no external crypto crates are
//!   available offline) with the standard NIST test vectors. Its compression
//!   function has two kernels behind one seam — a portable scalar loop and
//!   the x86-64 SHA extensions — chosen at run time from what the CPU
//!   reports; [`sha256::kernel`] names the one in use,
//! * [`Digest`], the 32-byte hash value used for block parents and message
//!   digests,
//! * a keyed-MAC signature scheme ([`keys`]) standing in for public-key
//!   signatures: every node holds a secret key, signatures are
//!   `SHA-256(secret ‖ message)`, and verification is performed through a
//!   [`KeyRegistry`] that models the paper's assumption that "all nodes have
//!   access to the public keys of all other nodes". Simulated Byzantine nodes
//!   never receive the secrets of honest nodes, so unforgeability holds
//!   within the simulation. The CPU cost of real asymmetric signatures is
//!   charged separately by the simulator's cost model (see
//!   `sharper_common::CostModel`).
//! * a [`merkle`] tree with leaf/node domain separation, used by the ledger
//!   to commit a block's transaction batch to a single root digest,
//! * [`cert`]: quorum certificates aggregating signatures by distinct
//!   signers, used by the Byzantine view change's prepared-certificates.
//!
//! # `unsafe` policy
//!
//! Every other crate of the workspace is `#![forbid(unsafe_code)]`. This one
//! is `#![deny(unsafe_code)]` with exactly one `#[allow]`: the private module
//! holding the SHA-extensions kernel, because calling code compiled for CPU
//! features the build target does not guarantee has no safe form. The module
//! exports only safe functions (the call is guarded by a value that proves
//! the features were detected), its kernel body uses no raw pointers, and
//! every `unsafe` block must carry a `// SAFETY:` comment
//! (`clippy::undocumented_unsafe_blocks` is denied).

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod cert;
pub mod digest;
pub mod keys;
pub mod merkle;
pub mod sha256;

pub use cert::QuorumCert;
pub use digest::Digest;
pub use keys::{KeyRegistry, SecretKey, Signature, Signer};
pub use merkle::{merkle_proof, merkle_root, verify_proof};
pub use sha256::Sha256;

/// Convenience: hash a byte slice with SHA-256.
pub fn hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    Digest(h.finalize())
}

/// Convenience: hash the concatenation of several byte slices.
pub fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    Digest(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_parts_equals_hash_of_concatenation() {
        let a = b"hello ";
        let b = b"world";
        let concat = hash(b"hello world");
        let parts = hash_parts(&[a.as_slice(), b.as_slice()]);
        assert_eq!(concat, parts);
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash(b"x"), hash(b"x"));
        assert_ne!(hash(b"x"), hash(b"y"));
    }
}
