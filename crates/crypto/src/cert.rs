//! Quorum certificates: aggregated signatures proving that a quorum of
//! distinct signers endorsed the same statement.
//!
//! SharPer's Byzantine view change carries, per replayed round, a
//! prepared-certificate of `2f+1` prepare signatures. The certificate is
//! self-certifying: a backup verifies every member signature against the
//! registry before trusting the replayed log, so a Byzantine new primary
//! cannot smuggle a never-prepared value into the new view.

use crate::keys::{KeyRegistry, Signature};

/// An aggregate of signatures by distinct signers over (per-signer) known
/// bytes. The container deduplicates by signer id and keeps the signatures
/// sorted, so its serialized form is canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuorumCert {
    sigs: Vec<Signature>,
}

impl QuorumCert {
    /// An empty certificate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a certificate from an iterator of signatures, deduplicating by
    /// signer (first signature per signer wins).
    pub fn from_signatures(sigs: impl IntoIterator<Item = Signature>) -> Self {
        let mut cert = Self::new();
        for sig in sigs {
            cert.add(sig);
        }
        cert
    }

    /// Adds one signature. Returns `false` (and keeps the existing entry) if
    /// the signer is already represented.
    pub fn add(&mut self, sig: Signature) -> bool {
        match self.sigs.binary_search_by_key(&sig.signer, |s| s.signer) {
            Ok(_) => false,
            Err(pos) => {
                self.sigs.insert(pos, sig);
                true
            }
        }
    }

    /// Number of distinct signers represented.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the certificate holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The member signatures, sorted by signer id.
    pub fn signatures(&self) -> &[Signature] {
        &self.sigs
    }

    /// Verifies that at least `quorum` *distinct, allowed* signers produced
    /// valid signatures. `bytes_for` maps a signer id to the bytes that
    /// signer must have signed, or `None` if the signer is not allowed to
    /// appear (not a member, unknown id).
    ///
    /// Distinctness is re-checked here rather than trusted from the
    /// container: a certificate received over the network may have been
    /// constructed with duplicate entries.
    pub fn verify_quorum<F>(&self, registry: &KeyRegistry, quorum: usize, bytes_for: F) -> bool
    where
        F: Fn(u64) -> Option<Vec<u8>>,
    {
        if quorum == 0 {
            return false;
        }
        let mut valid = 0usize;
        let mut last_signer: Option<u64> = None;
        for sig in &self.sigs {
            if last_signer == Some(sig.signer) {
                continue;
            }
            last_signer = Some(sig.signer);
            let Some(bytes) = bytes_for(sig.signer) else {
                continue;
            };
            if registry.verify(&bytes, sig) {
                valid += 1;
            }
        }
        valid >= quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SignerId;
    use crate::Digest;

    fn registry_with(n: u64) -> (KeyRegistry, Vec<crate::keys::Signer>) {
        KeyRegistry::generate(7, (0..n).map(SignerId))
    }

    #[test]
    fn add_deduplicates_and_sorts_by_signer() {
        let (_, signers) = registry_with(3);
        let mut cert = QuorumCert::new();
        assert!(cert.add(signers[2].sign(b"m")));
        assert!(cert.add(signers[0].sign(b"m")));
        assert!(!cert.add(signers[2].sign(b"other")));
        assert_eq!(cert.len(), 2);
        let ids: Vec<u64> = cert.signatures().iter().map(|s| s.signer).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn quorum_verification_counts_only_valid_allowed_signers() {
        let (registry, signers) = registry_with(4);
        let cert = QuorumCert::from_signatures(signers.iter().map(|s| s.sign(b"stmt")));
        let all = |_: u64| Some(b"stmt".to_vec());
        assert!(cert.verify_quorum(&registry, 4, all));
        assert!(!cert.verify_quorum(&registry, 5, all));
        // Disallowing one signer drops it below the quorum.
        let not_zero = |id: u64| (id != 0).then(|| b"stmt".to_vec());
        assert!(!cert.verify_quorum(&registry, 4, not_zero));
        assert!(cert.verify_quorum(&registry, 3, not_zero));
        // Wrong bytes fail verification.
        let wrong = |_: u64| Some(b"forged".to_vec());
        assert!(!cert.verify_quorum(&registry, 1, wrong));
    }

    #[test]
    fn forged_and_duplicate_signatures_do_not_count() {
        let (registry, signers) = registry_with(3);
        let mut cert = QuorumCert::new();
        cert.add(signers[0].sign(b"stmt"));
        // A forged tag under a registered id.
        cert.add(Signature {
            signer: 1,
            tag: Digest::ZERO,
        });
        // An unregistered signer.
        cert.add(Signature {
            signer: 99,
            tag: signers[2].sign(b"stmt").tag,
        });
        let bytes = |id: u64| (id < 3).then(|| b"stmt".to_vec());
        assert!(cert.verify_quorum(&registry, 1, bytes));
        assert!(!cert.verify_quorum(&registry, 2, bytes));
        assert!(
            !cert.verify_quorum(&registry, 0, bytes),
            "quorum 0 is vacuous"
        );
    }
}
