//! The 32-byte digest type used for block parents and message digests.

use std::fmt;

/// A SHA-256 digest. The paper writes `D(m)` for the digest of a message `m`
/// and `H(t)` for the hash of a block `t`; both are values of this type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the parent of the genesis block λ.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Hex representation (lowercase, 64 chars).
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A short prefix of the hex representation, for logs and Display.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// The first eight bytes as a little-endian `u64` — the compact identity
    /// that trace events carry for batches and blocks (`sharper_common::obs`
    /// cannot depend on this crate).
    pub fn short_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }

    /// Builds a digest from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash;

    #[test]
    fn zero_digest_is_all_zero() {
        assert_eq!(Digest::ZERO.as_bytes(), &[0u8; 32]);
        assert_eq!(Digest::default(), Digest::ZERO);
    }

    #[test]
    fn hex_and_short_formats() {
        let d = hash(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(d.short().len(), 8);
        assert!(d.to_hex().starts_with(&d.short()));
        assert_eq!(
            d.to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn debug_and_display_are_short() {
        let d = hash(b"abc");
        assert!(format!("{d:?}").contains(&d.short()));
        assert_eq!(format!("{d}"), d.short());
    }

    #[test]
    fn short_u64_is_first_eight_bytes_le() {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(
            Digest::from_bytes(bytes).short_u64(),
            u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8])
        );
        assert_eq!(Digest::ZERO.short_u64(), 0);
    }

    #[test]
    fn as_ref_exposes_bytes() {
        let d = hash(b"xyz");
        assert_eq!(d.as_ref().len(), 32);
        assert_eq!(Digest::from_bytes(*d.as_bytes()), d);
    }
}
