//! Blocks of the SharPer ledger.
//!
//! The paper's base protocol puts a single transaction in each block (§2.3);
//! the reproduction generalises this to a [`Batch`] of transactions whose
//! Merkle root the block digest commits to. A single-transaction batch
//! reproduces the paper's semantics exactly. Each block carries one parent
//! digest per involved cluster: "each cross-shard transaction includes the
//! cryptographic hash of the previous transaction of every involved cluster".

use crate::batch::{Batch, VerifiedBatch};
use sharper_common::{ClusterId, TxId};
use sharper_crypto::{Digest, Sha256};
use sharper_state::Transaction;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The parents of a block: one digest per involved cluster, in ascending
/// cluster order, no cluster twice — the order the block digest, the
/// cross-shard vote digest and the commit messages all stream them in.
///
/// One flat shared slice: an intra-shard block's single parent is one
/// allocation of 56 bytes, and cloning it — into a commit message's fan-out,
/// a replica's appended block — is a reference-count bump. There is no
/// public field; every constructor sorts, and a repeated cluster has no
/// representation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parents(Arc<[(ClusterId, Digest)]>);

impl Parents {
    /// The parents of a block chained after `parent` in `cluster` alone.
    pub fn single(cluster: ClusterId, parent: Digest) -> Self {
        Self(Arc::new([(cluster, parent)]))
    }

    /// The parents named by `pairs`, in any order; `None` if a cluster
    /// appears twice.
    pub fn new(pairs: impl IntoIterator<Item = (ClusterId, Digest)>) -> Option<Self> {
        let mut pairs: Vec<(ClusterId, Digest)> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(cluster, _)| cluster);
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        Some(Self(pairs.into()))
    }

    /// The parent digest recorded for `cluster`, if it is involved.
    pub fn get(&self, cluster: ClusterId) -> Option<Digest> {
        let i = self.0.binary_search_by_key(&cluster, |&(c, _)| c).ok()?;
        Some(self.0[i].1)
    }

    /// The involved clusters, ascending.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.0.iter().map(|&(cluster, _)| cluster)
    }

    /// The parent digests, in cluster order.
    pub fn digests(&self) -> impl Iterator<Item = Digest> + '_ {
        self.0.iter().map(|&(_, digest)| digest)
    }
}

impl Deref for Parents {
    type Target = [(ClusterId, Digest)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl From<BTreeMap<ClusterId, Digest>> for Parents {
    fn from(map: BTreeMap<ClusterId, Digest>) -> Self {
        Self(map.into_iter().collect())
    }
}

impl From<Arc<BTreeMap<ClusterId, Digest>>> for Parents {
    fn from(map: Arc<BTreeMap<ClusterId, Digest>>) -> Self {
        Self(
            map.iter()
                .map(|(&cluster, &parent)| (cluster, parent))
                .collect(),
        )
    }
}

/// The payload of a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockBody {
    /// The unique initialisation block λ (§2.3). Every cluster's view starts
    /// with the same genesis block.
    Genesis,
    /// A block carrying an ordered batch of transactions. The batch shares
    /// its transactions (`Arc`), so blocks clone in O(1) regardless of batch
    /// size — commit paths, deferred-append parking and post-run ledger
    /// audits all copy blocks freely.
    Batch(Batch),
}

/// A block of the DAG ledger.
///
/// `parents` holds, for every involved cluster, the digest of the previous
/// block of that cluster; an intra-shard block has a single parent.
/// The block digest commits to all parents and to the batch's Merkle root
/// (which [`verify_integrity`](Block::verify_integrity) re-derives from the
/// transactions instead of trusting the cache), so both the chaining and the
/// batch contents are tamper-evident. A `Block` is plain data — its fields
/// are public and anyone can build one; [`VerifiedBlock`] is the form that
/// records that the holder made that check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Parent digests, one per involved cluster, in cluster order. Each
    /// block builder allocates its own small slice (intra-shard blocks are
    /// built per replica); clones of one block — a cross-shard commit's
    /// fan-out and the blocks appended from it — share it.
    pub parents: Parents,
    /// The block body (genesis or a transaction batch).
    pub body: BlockBody,
    /// The digest of this block (computed over parents and body).
    digest: Digest,
}

impl Block {
    /// The genesis block λ shared by every cluster.
    pub fn genesis() -> Self {
        let parents = Parents::default();
        let digest = Self::compute_digest(&parents, &BlockBody::Genesis);
        Self {
            parents,
            body: BlockBody::Genesis,
            digest,
        }
    }

    /// Creates a block carrying `batch` with the given parents.
    ///
    /// The caller (the consensus layer) supplies one parent digest per
    /// involved cluster; this constructor does not check that the set of
    /// parents matches the batch's involved clusters because the consensus
    /// layer may legitimately involve a superset (e.g. a read-only shard);
    /// the audit layer verifies the correspondence that matters — that each
    /// *view* chains correctly.
    pub fn batch(batch: impl Into<Batch>, parents: impl Into<Parents>) -> Self {
        let parents = parents.into();
        let body = BlockBody::Batch(batch.into());
        let digest = Self::compute_digest(&parents, &body);
        Self {
            parents,
            body,
            digest,
        }
    }

    /// Convenience: a block carrying a single-transaction batch (the paper's
    /// one-transaction block).
    pub fn transaction(tx: impl Into<Arc<Transaction>>, parents: impl Into<Parents>) -> Self {
        Self::batch(Batch::single(tx.into()), parents)
    }

    /// The digest of this block (`H(t)` in the paper).
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// The batch carried by this block, if it is not the genesis.
    pub fn body_batch(&self) -> Option<&Batch> {
        match &self.body {
            BlockBody::Genesis => None,
            BlockBody::Batch(batch) => Some(batch),
        }
    }

    /// The transactions carried by this block, in order (empty for genesis).
    pub fn txs(&self) -> &[Arc<Transaction>] {
        self.body_batch().map_or(&[], Batch::txs)
    }

    /// The ids of the carried transactions, in order.
    pub fn tx_ids(&self) -> impl Iterator<Item = TxId> + '_ {
        self.txs().iter().map(|tx| tx.id)
    }

    /// Number of transactions in this block (0 for the genesis block).
    pub fn tx_count(&self) -> usize {
        self.txs().len()
    }

    /// Whether this is the genesis block.
    pub fn is_genesis(&self) -> bool {
        matches!(self.body, BlockBody::Genesis)
    }

    /// The clusters this block is chained into (those of `parents`).
    pub fn involved_clusters(&self) -> Vec<ClusterId> {
        self.parents.clusters().collect()
    }

    /// Whether the block spans more than one cluster.
    pub fn is_cross_shard(&self) -> bool {
        self.parents.len() > 1
    }

    /// The parent digest recorded for `cluster`, if the block involves it.
    pub fn parent_for(&self, cluster: ClusterId) -> Option<Digest> {
        self.parents.get(cluster)
    }

    /// Recomputes the digest from the current contents — re-deriving the
    /// batch's Merkle root from the transactions — and checks it matches the
    /// stored digest. Returns `false` for tampered blocks, including a
    /// transaction swapped inside the batch.
    pub fn verify_integrity(&self) -> bool {
        if let BlockBody::Batch(batch) = &self.body {
            if !batch.verify_root() {
                return false;
            }
        }
        Self::compute_digest(&self.parents, &self.body) == self.digest
    }

    fn compute_digest(parents: &Parents, body: &BlockBody) -> Digest {
        // Every field streams straight into the hasher: a digest is computed
        // for every block built, appended and audited, so it allocates nothing.
        let mut h = Sha256::new();
        h.update(b"sharper-block");
        for (cluster, parent) in parents.iter() {
            h.update(&cluster.0.to_le_bytes());
            h.update(parent.as_bytes());
        }
        match body {
            BlockBody::Genesis => h.update(b"genesis-lambda"),
            BlockBody::Batch(batch) => {
                // The cached root keeps block construction O(1) in batch
                // size. Nothing here vouches for it: a block's digest is
                // only *relied on* through a `VerifiedBlock`, which exists
                // either because the root came with a `VerifiedBatch`
                // (`VerifiedBlock::chain`) or because `verify_integrity`
                // re-derived it from the transactions first
                // (`VerifiedBlock::check`) — so a batch whose contents were
                // swapped under a stale cached root can never be appended.
                h.update(b"batch:");
                h.update(&(batch.len() as u64).to_le_bytes());
                h.update(batch.digest().as_bytes());
            }
        }
        Digest(h.finalize())
    }
}

/// A [`Block`] whose digest — and, through it, whose batch root — the holder
/// has established: the counterpart of [`VerifiedBatch`] one level up, and
/// what [`LedgerView::append_verified`](crate::LedgerView::append_verified)
/// takes so that an honest block is hashed once per replica.
///
/// The field is private and there are exactly two ways in: [`chain`] a batch
/// the holder already verified at given parents (one block digest, no root
/// derivation), or [`check`] a block of unknown provenance (everything
/// [`Block::verify_integrity`] re-derives). No `From<Block>` or `Default`
/// impl exists, it derefs to the block for reading and offers nothing
/// mutable — `Block`'s public fields cannot be reached for writing through
/// it.
///
/// [`chain`]: VerifiedBlock::chain
/// [`check`]: VerifiedBlock::check
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedBlock(Block);

impl VerifiedBlock {
    /// The block carrying `batch` right after `parents`, exactly as
    /// [`Block::batch`] builds it.
    pub fn chain(batch: VerifiedBatch, parents: impl Into<Parents>) -> Self {
        Self(Block::batch(batch.into_batch(), parents))
    }

    /// Re-derives `block`'s batch root and digest; `None` if either is not
    /// what the block claims.
    pub fn check(block: Block) -> Option<Self> {
        block.verify_integrity().then_some(Self(block))
    }

    /// The plain block, as stored in a view. The witness stays behind: an
    /// audit of the stored block re-derives everything.
    pub fn into_block(self) -> Block {
        self.0
    }
}

impl Deref for VerifiedBlock {
    type Target = Block;

    fn deref(&self) -> &Block {
        &self.0
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            BlockBody::Genesis => write!(f, "λ[{}]", self.digest),
            BlockBody::Batch(batch) => write!(f, "B({batch})[{}]", self.digest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{AccountId, ClientId};

    fn tx(seq: u64) -> Transaction {
        Transaction::transfer(ClientId(1), seq, AccountId(1), AccountId(2), 10)
    }

    fn single_parent(cluster: u32, d: Digest) -> BTreeMap<ClusterId, Digest> {
        let mut m = BTreeMap::new();
        m.insert(ClusterId(cluster), d);
        m
    }

    #[test]
    fn genesis_has_no_parents_and_is_stable() {
        let g1 = Block::genesis();
        let g2 = Block::genesis();
        assert!(g1.is_genesis());
        assert!(g1.parents.is_empty());
        assert_eq!(g1.digest(), g2.digest());
        assert!(g1.verify_integrity());
        assert!(g1.txs().is_empty());
        assert_eq!(g1.tx_count(), 0);
        assert!(!g1.is_cross_shard());
    }

    #[test]
    fn intra_shard_block_has_one_parent() {
        let g = Block::genesis();
        let b = Block::transaction(tx(0), single_parent(0, g.digest()));
        assert!(!b.is_cross_shard());
        assert_eq!(b.involved_clusters(), vec![ClusterId(0)]);
        assert_eq!(b.parent_for(ClusterId(0)), Some(g.digest()));
        assert_eq!(b.parent_for(ClusterId(1)), None);
        assert!(b.verify_integrity());
        assert_eq!(
            b.tx_ids().collect::<Vec<_>>(),
            vec![TxId::new(ClientId(1), 0)]
        );
    }

    #[test]
    fn cross_shard_block_records_parent_per_cluster() {
        let g = Block::genesis();
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), g.digest());
        parents.insert(ClusterId(2), g.digest());
        let b = Block::transaction(tx(1), parents);
        assert!(b.is_cross_shard());
        assert_eq!(b.involved_clusters(), vec![ClusterId(0), ClusterId(2)]);
    }

    #[test]
    fn digest_commits_to_parents_and_body() {
        let g = Block::genesis();
        let a = Block::transaction(tx(0), single_parent(0, g.digest()));
        let b = Block::transaction(tx(0), single_parent(1, g.digest()));
        let c = Block::transaction(tx(1), single_parent(0, g.digest()));
        let d = Block::transaction(tx(0), single_parent(0, a.digest()));
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn streamed_digest_equals_the_hash_of_the_concatenated_fields() {
        // The digest format, spelled out part by part as the reference.
        let g = Block::genesis();
        assert_eq!(
            g.digest(),
            sharper_crypto::hash_parts(&[b"sharper-block", b"genesis-lambda"])
        );
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), g.digest());
        parents.insert(ClusterId(2), Digest::ZERO);
        let batch = Batch::new(vec![Arc::new(tx(0)), Arc::new(tx(1))]);
        let b = Block::batch(batch.clone(), parents);
        assert_eq!(
            b.digest(),
            sharper_crypto::hash_parts(&[
                b"sharper-block",
                &0u32.to_le_bytes(),
                g.digest().as_bytes(),
                &2u32.to_le_bytes(),
                Digest::ZERO.as_bytes(),
                b"batch:",
                &2u64.to_le_bytes(),
                batch.digest().as_bytes(),
            ])
        );
    }

    #[test]
    fn a_map_a_shared_map_and_unsorted_pairs_build_the_same_block() {
        let g = Block::genesis();
        let map = BTreeMap::from([(ClusterId(0), g.digest()), (ClusterId(2), Digest::ZERO)]);
        let batch = Batch::new(vec![Arc::new(tx(0)), Arc::new(tx(1))]);
        let from_map = Block::batch(batch.clone(), map.clone());
        let from_shared = Block::batch(batch.clone(), Arc::new(map));
        let unsorted = Parents::new([(ClusterId(2), Digest::ZERO), (ClusterId(0), g.digest())]);
        let from_pairs = Block::batch(batch, unsorted.unwrap());
        assert_eq!(from_map.digest(), from_shared.digest());
        assert_eq!(from_map.digest(), from_pairs.digest());
        assert_eq!(from_map, from_pairs);
        assert_eq!(
            from_pairs.parents.clusters().collect::<Vec<_>>(),
            [ClusterId(0), ClusterId(2)]
        );
        assert_eq!(from_pairs.parent_for(ClusterId(2)), Some(Digest::ZERO));
        assert_eq!(from_pairs.parent_for(ClusterId(1)), None);
    }

    #[test]
    fn a_duplicate_cluster_cannot_be_represented() {
        let g = Block::genesis().digest();
        assert!(Parents::new([(ClusterId(1), g), (ClusterId(1), Digest::ZERO)]).is_none());
        // Not even with the same digest twice, nor apart in the input.
        assert!(Parents::new([(ClusterId(1), g), (ClusterId(0), g), (ClusterId(1), g)]).is_none());
        assert_eq!(
            Parents::new([(ClusterId(3), g)]),
            Some(Parents::single(ClusterId(3), g))
        );
        // An intra-shard block's parent is one allocation of at most 64
        // bytes: two reference counts and one (cluster, digest) pair.
        assert!(
            2 * std::mem::size_of::<usize>() + std::mem::size_of::<(ClusterId, Digest)>() <= 64
        );
    }

    #[test]
    fn digest_commits_to_the_whole_batch() {
        let g = Block::genesis();
        let two = Block::batch(
            Batch::new(vec![Arc::new(tx(0)), Arc::new(tx(1))]),
            single_parent(0, g.digest()),
        );
        let reordered = Block::batch(
            Batch::new(vec![Arc::new(tx(1)), Arc::new(tx(0))]),
            single_parent(0, g.digest()),
        );
        let one = Block::transaction(tx(0), single_parent(0, g.digest()));
        assert_eq!(two.tx_count(), 2);
        assert!(two.verify_integrity());
        assert_ne!(two.digest(), reordered.digest());
        assert_ne!(two.digest(), one.digest());
    }

    #[test]
    fn tampering_is_detected() {
        let g = Block::genesis();
        let mut b = Block::transaction(tx(0), single_parent(0, g.digest()));
        assert!(b.verify_integrity());
        b.body = BlockBody::Batch(Batch::single(tx(99)));
        assert!(!b.verify_integrity());
    }

    #[test]
    fn tampered_transaction_inside_a_batch_is_detected() {
        // The adversary swaps one transaction inside a committed batch while
        // keeping the cached Merkle root — the re-derived root exposes it.
        let g = Block::genesis();
        let honest = Batch::new(vec![Arc::new(tx(0)), Arc::new(tx(1)), Arc::new(tx(2))]);
        let mut b = Block::batch(honest.clone(), single_parent(0, g.digest()));
        assert!(b.verify_integrity());
        let mut txs = honest.txs().to_vec();
        txs[1] = Arc::new(tx(77));
        b.body = BlockBody::Batch(Batch::with_claimed_root(txs, honest.digest()));
        assert!(!b.verify_integrity());
    }

    #[test]
    fn a_forged_block_never_becomes_a_witness() {
        let g = Block::genesis();
        let honest = Batch::new(vec![Arc::new(tx(0)), Arc::new(tx(1)), Arc::new(tx(2))]);
        let mut txs = honest.txs().to_vec();
        txs[1] = Arc::new(tx(77));
        let forged_batch = Batch::with_claimed_root(txs, honest.digest());
        // The forged batch cannot be chained: there is no witness to chain.
        assert!(VerifiedBatch::check(forged_batch.clone()).is_none());

        // Built with the forger's own constructor the block digest matches
        // the claimed root, so only the re-derived root exposes it.
        let forged = Block::batch(forged_batch.clone(), single_parent(0, g.digest()));
        let real = Block::batch(honest.clone(), single_parent(0, g.digest()));
        assert_eq!(forged.digest(), real.digest());
        assert!(VerifiedBlock::check(forged).is_none());

        // A body or a parent swapped after construction fails on the digest.
        let mut swapped_body = real.clone();
        swapped_body.body = BlockBody::Batch(forged_batch);
        assert!(VerifiedBlock::check(swapped_body).is_none());
        let mut moved = real.clone();
        moved.parents = single_parent(0, Digest::ZERO).into();
        assert!(VerifiedBlock::check(moved).is_none());

        assert_eq!(*VerifiedBlock::check(real.clone()).unwrap(), real);
        assert!(VerifiedBlock::check(g).is_some());
    }

    #[test]
    fn chaining_a_verified_batch_derives_no_root_and_equals_block_batch() {
        use crate::batch::root_derivations;
        let g = Block::genesis();
        let sealed = VerifiedBatch::seal(vec![Arc::new(tx(0)), Arc::new(tx(1))]);
        let before = root_derivations();
        let first = VerifiedBlock::chain(sealed.clone(), single_parent(0, g.digest()));
        // The same verified batch re-chained at another parent: O(1).
        let second = VerifiedBlock::chain(sealed.clone(), single_parent(0, first.digest()));
        assert_eq!(root_derivations(), before, "chaining hashes no transaction");
        assert_eq!(
            first.clone().into_block(),
            Block::batch(sealed.clone().into_batch(), single_parent(0, g.digest()))
        );
        assert_ne!(first.digest(), second.digest());
        // Checking a block is what costs the derivation.
        VerifiedBlock::check(second.into_block()).unwrap();
        assert_eq!(root_derivations(), before + 1);
    }

    #[test]
    fn display_formats_genesis_and_transactions() {
        let g = Block::genesis();
        assert!(g.to_string().starts_with('λ'));
        let b = Block::transaction(tx(0), single_parent(0, g.digest()));
        assert!(b.to_string().contains("t1.0"));
    }
}
