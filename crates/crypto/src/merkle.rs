//! A binary Merkle tree over transaction digests.
//!
//! Blocks carry a *batch* of transactions whose block digest commits to the
//! Merkle root of the batch (the batching layer at the primary amortises the
//! per-transaction digest cost and makes inclusion proofs possible). The
//! ledger audit re-derives the root from the carried transactions, so any
//! post-commit tampering with a transaction inside a batch is detected.
//!
//! # Domain separation
//!
//! Leaf hashes and internal-node hashes live in disjoint hash domains:
//!
//! * a **leaf** digest `l` enters the tree as `H("sharper-merkle-leaf" ‖ l)`;
//! * an **internal node** over children `a, b` is
//!   `H("sharper-merkle-node" ‖ a ‖ b)`.
//!
//! Without the split, an attacker could present an internal node as a leaf
//! (or vice versa) and forge a second preimage for the root of a different
//! tree shape. With it, no concatenation of node digests can collide with a
//! leaf encoding.
//!
//! Domain separation does **not** remove the classic odd-level-duplication
//! ambiguity of Bitcoin-style trees (CVE-2012-2459): because odd levels
//! duplicate their last element, `[a, b, c]` and `[a, b, c, c]` hash to the
//! identical root. Callers that key protocol state on a root must therefore
//! reject inputs with duplicated entries — the ledger's batch validation
//! does exactly that (`Batch::has_duplicate_tx_ids`), mirroring Bitcoin's
//! fix of rejecting blocks with duplicate transactions.
//!
//! # Edge cases (handled explicitly)
//!
//! * An **empty** leaf set has the reserved root [`Digest::ZERO`]. No
//!   non-empty tree can produce it (that would be a SHA-256 preimage of
//!   zero), so the empty batch is distinguishable by construction.
//! * A **single leaf** has root `hash_leaf(l)` — the leaf-domain hash, *not*
//!   the raw leaf, so a one-element tree cannot be confused with the bare
//!   digest it commits to.
//! * Odd levels duplicate the last element (Bitcoin-style).

use crate::digest::Digest;
use crate::sha256::Sha256;

/// Hashes a leaf digest into the leaf domain of the tree.
pub fn hash_leaf(leaf: Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"sharper-merkle-leaf");
    h.update(leaf.as_bytes());
    Digest(h.finalize())
}

/// Hashes two child digests into an internal node.
fn hash_node(left: Digest, right: Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"sharper-merkle-node");
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    Digest(h.finalize())
}

/// Overwrites the front of `level` with its parent level — pair `i` is read
/// before slot `i` is written and never again — and returns the parent
/// level's length. An odd level pairs its last element with itself.
fn reduce_level(level: &mut [Digest]) -> usize {
    let parents = level.len().div_ceil(2);
    for i in 0..parents {
        let left = level[2 * i];
        let right = *level.get(2 * i + 1).unwrap_or(&left);
        level[i] = hash_node(left, right);
    }
    parents
}

/// Computes the Merkle root of a list of leaf digests.
///
/// * An empty list hashes to the reserved root [`Digest::ZERO`].
/// * A single leaf's root is `hash_leaf(leaf)`.
/// * Odd levels duplicate the last element.
///
/// The tree is reduced level by level inside the one leaf-level buffer.
pub fn merkle_root(leaves: &[Digest]) -> Digest {
    if leaves.is_empty() {
        return Digest::ZERO;
    }
    let mut level: Vec<Digest> = leaves.iter().copied().map(hash_leaf).collect();
    let mut len = level.len();
    while len > 1 {
        len = reduce_level(&mut level[..len]);
    }
    level[0]
}

/// Computes the Merkle root and an inclusion proof for `index`.
///
/// The proof is the list of sibling digests from the leaf level up; the leaf
/// itself is *not* part of the proof.
pub fn merkle_proof(leaves: &[Digest], index: usize) -> Option<(Digest, Vec<Digest>)> {
    if index >= leaves.len() {
        return None;
    }
    let mut proof = Vec::new();
    let mut level: Vec<Digest> = leaves.iter().copied().map(hash_leaf).collect();
    let mut len = level.len();
    let mut idx = index;
    while len > 1 {
        let sibling = if idx.is_multiple_of(2) {
            *level[..len].get(idx + 1).unwrap_or(&level[idx])
        } else {
            level[idx - 1]
        };
        proof.push(sibling);
        len = reduce_level(&mut level[..len]);
        idx /= 2;
    }
    Some((level[0], proof))
}

/// Verifies an inclusion proof produced by [`merkle_proof`].
pub fn verify_proof(leaf: Digest, index: usize, proof: &[Digest], root: Digest) -> bool {
    let mut acc = hash_leaf(leaf);
    let mut idx = index;
    for sibling in proof {
        acc = if idx.is_multiple_of(2) {
            hash_node(acc, *sibling)
        } else {
            hash_node(*sibling, acc)
        };
        idx /= 2;
    }
    acc == root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| hash(&(i as u64).to_le_bytes())).collect()
    }

    /// The level-by-level construction, a fresh vector per level: the
    /// reference the in-place reduction is compared against.
    fn next_level(level: &[Digest]) -> Vec<Digest> {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            let left = pair[0];
            let right = if pair.len() == 2 { pair[1] } else { pair[0] };
            next.push(hash_node(left, right));
        }
        next
    }

    fn reference_proof(leaves: &[Digest], index: usize) -> Option<(Digest, Vec<Digest>)> {
        if index >= leaves.len() {
            return None;
        }
        let mut proof = Vec::new();
        let mut level: Vec<Digest> = leaves.iter().copied().map(hash_leaf).collect();
        let mut idx = index;
        while level.len() > 1 {
            let sibling = if idx.is_multiple_of(2) {
                *level.get(idx + 1).unwrap_or(&level[idx])
            } else {
                level[idx - 1]
            };
            proof.push(sibling);
            level = next_level(&level);
            idx /= 2;
        }
        Some((level[0], proof))
    }

    #[test]
    fn in_place_reduction_matches_the_level_by_level_reference() {
        // 0..=33 crosses every shape: the empty tree, the lone leaf, odd
        // levels at each height, and the duplicated tail just past 2^k.
        for n in 0..=33usize {
            let l = leaves(n);
            let root = merkle_root(&l);
            match n {
                0 => assert_eq!(root, Digest::ZERO),
                1 => assert_eq!(root, hash_leaf(l[0])),
                _ => {}
            }
            for i in 0..n {
                let (reference_root, reference_siblings) = reference_proof(&l, i).unwrap();
                assert_eq!(root, reference_root, "n={n}");
                let (proved_root, siblings) = merkle_proof(&l, i).unwrap();
                assert_eq!(proved_root, reference_root, "n={n} i={i}");
                assert_eq!(siblings, reference_siblings, "n={n} i={i}");
            }
            assert_eq!(merkle_proof(&l, n), reference_proof(&l, n), "n={n}");
        }
    }

    #[test]
    fn empty_leaf_set_has_the_reserved_zero_root() {
        assert_eq!(merkle_root(&[]), Digest::ZERO);
    }

    #[test]
    fn single_leaf_root_is_the_leaf_domain_hash_not_the_raw_leaf() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), hash_leaf(l[0]));
        assert_ne!(merkle_root(&l), l[0], "leaf domain separation");
    }

    #[test]
    fn leaf_and_node_domains_are_disjoint() {
        // An internal node over (a, a) must differ from the leaf hash of any
        // digest derived from a, and a leaf must never equal a node encoding.
        let a = hash(b"a");
        let node = merkle_root(&[a, a]);
        assert_ne!(node, hash_leaf(a));
        assert_ne!(hash_leaf(a), a, "leaf hashing is not the identity");
        // A single-leaf tree routes through the leaf domain, so its root can
        // never equal the raw digest it commits to.
        assert_eq!(merkle_root(&[node]), hash_leaf(node));
    }

    #[test]
    fn root_changes_when_any_leaf_changes() {
        let base = leaves(8);
        let root = merkle_root(&base);
        for i in 0..8 {
            let mut modified = base.clone();
            modified[i] = hash(b"tampered");
            assert_ne!(merkle_root(&modified), root, "leaf {i}");
        }
    }

    #[test]
    fn root_is_sensitive_to_leaf_order_and_count() {
        let base = leaves(4);
        let mut swapped = base.clone();
        swapped.swap(0, 1);
        assert_ne!(merkle_root(&swapped), merkle_root(&base));
        assert_ne!(merkle_root(&base[..3]), merkle_root(&base));
    }

    #[test]
    fn odd_level_duplication_ambiguity_is_a_known_property() {
        // CVE-2012-2459 pattern: duplicating the trailing leaf of an
        // odd-length list reproduces the same root. This is pinned here so
        // the property stays visible — callers (the ledger's batch
        // validation) must reject duplicated entries rather than rely on
        // root uniqueness.
        let abc = leaves(3);
        let mut abcc = abc.clone();
        abcc.push(abc[2]);
        assert_eq!(merkle_root(&abc), merkle_root(&abcc));
    }

    #[test]
    fn proofs_verify_for_every_leaf_and_size() {
        for n in 1..=17usize {
            let l = leaves(n);
            let root = merkle_root(&l);
            for (i, leaf) in l.iter().enumerate() {
                let (proved_root, proof) = merkle_proof(&l, i).unwrap();
                assert_eq!(proved_root, root);
                assert!(verify_proof(*leaf, i, &proof, root), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_or_index_fails_verification() {
        let l = leaves(6);
        let root = merkle_root(&l);
        let (_, proof) = merkle_proof(&l, 2).unwrap();
        assert!(!verify_proof(hash(b"other"), 2, &proof, root));
        assert!(!verify_proof(l[2], 3, &proof, root));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let l = leaves(3);
        assert!(merkle_proof(&l, 3).is_none());
    }

    #[test]
    fn single_leaf_proof_is_empty() {
        let l = leaves(1);
        let (root, proof) = merkle_proof(&l, 0).unwrap();
        assert!(proof.is_empty());
        assert!(verify_proof(l[0], 0, &proof, root));
    }
}
