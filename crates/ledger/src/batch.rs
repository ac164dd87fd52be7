//! Transaction batches: the payload of a block.
//!
//! The batching layer at the primary groups pending client requests into a
//! [`Batch`] and runs one consensus round per batch instead of one per
//! transaction. A batch commits to its contents through a Merkle root over
//! the transaction digests (`sharper_crypto::merkle`, leaf/node domain
//! separated), so
//!
//! * the block digest only has to absorb the 32-byte root, amortising the
//!   digest cost over the whole batch, and
//! * any transaction's inclusion in a committed block can be proven with a
//!   logarithmic Merkle proof.
//!
//! A batch is immutable after construction and shares its transactions
//! behind [`Arc`]s, so cloning a batch — and therefore a block or a protocol
//! message carrying one — is O(1) regardless of batch size.

use serde::{Deserialize, Serialize};
use sharper_common::{ClusterId, TxId};
use sharper_crypto::{merkle, Digest};
use sharper_state::{Partitioner, Transaction};
use std::fmt;
use std::sync::Arc;

/// An ordered batch of transactions, committed to by a Merkle root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batch {
    /// The transactions, in proposal (and execution) order.
    txs: Arc<Vec<Arc<Transaction>>>,
    /// Merkle root over the transaction digests, cached at construction.
    root: Digest,
}

impl Batch {
    /// Creates a batch over the given transactions, computing the root.
    pub fn new(txs: Vec<Arc<Transaction>>) -> Self {
        let root = Self::compute_root(&txs);
        Self {
            txs: Arc::new(txs),
            root,
        }
    }

    /// A batch holding a single transaction (the paper's one-transaction
    /// block, `max_batch_size = 1`).
    pub fn single(tx: impl Into<Arc<Transaction>>) -> Self {
        Self::new(vec![tx.into()])
    }

    /// The empty batch. Its root is the reserved [`Digest::ZERO`]; it is
    /// never proposed and serves only as a placeholder (e.g. a PBFT round
    /// whose `prepare` overtook its `pre-prepare`).
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// Re-derives the Merkle root from a transaction list.
    pub fn compute_root(txs: &[Arc<Transaction>]) -> Digest {
        let leaves: Vec<Digest> = txs.iter().map(|tx| tx.digest()).collect();
        merkle::merkle_root(&leaves)
    }

    /// The batch digest `D(m)`: the cached Merkle root the batch was built
    /// with. Consensus rounds are keyed by this value.
    pub fn digest(&self) -> Digest {
        self.root
    }

    /// Recomputes the root from the carried transactions and checks it
    /// against the cached one. `false` means the batch was tampered with
    /// after construction.
    pub fn verify_root(&self) -> bool {
        Self::compute_root(&self.txs) == self.root
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the batch holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// The transactions in order.
    pub fn txs(&self) -> &[Arc<Transaction>] {
        &self.txs
    }

    /// The transaction ids in order.
    pub fn tx_ids(&self) -> impl Iterator<Item = TxId> + '_ {
        self.txs.iter().map(|tx| tx.id)
    }

    /// Whether the batch contains the given transaction id.
    pub fn contains(&self, id: TxId) -> bool {
        self.txs.iter().any(|tx| tx.id == id)
    }

    /// Whether the batch carries the same transaction id more than once.
    ///
    /// Honest primaries never build such batches (the pending queues
    /// de-duplicate), but validators must reject them: a duplicated tail
    /// also closes the classic Merkle odd-level-duplication ambiguity
    /// (CVE-2012-2459 pattern — `[a, b, c]` and `[a, b, c, c]` share a
    /// root), and a double-carried transaction would otherwise execute
    /// twice.
    pub fn has_duplicate_tx_ids(&self) -> bool {
        // Fewer than two transactions cannot repeat one: no set is built.
        if self.txs.len() < 2 {
            return false;
        }
        let mut seen = std::collections::HashSet::with_capacity(self.txs.len());
        self.txs.iter().any(|tx| !seen.insert(tx.id))
    }

    /// The union of the involved clusters of every transaction, sorted
    /// ascending. The batching layer only groups cross-shard transactions
    /// with identical cluster sets, so for protocol batches this equals each
    /// member's involved set.
    pub fn involved_clusters(&self, partitioner: &Partitioner) -> Vec<ClusterId> {
        let mut set = std::collections::BTreeSet::new();
        for tx in self.txs.iter() {
            set.extend(tx.involved_clusters(partitioner));
        }
        set.into_iter().collect()
    }

    /// A Merkle inclusion proof for the transaction at `index`, verifiable
    /// against [`Batch::digest`] with [`sharper_crypto::merkle::verify_proof`]
    /// and the transaction's digest as the leaf.
    pub fn proof_for(&self, index: usize) -> Option<Vec<Digest>> {
        let leaves: Vec<Digest> = self.txs.iter().map(|tx| tx.digest()).collect();
        merkle::merkle_proof(&leaves, index).map(|(_, proof)| proof)
    }

    /// Builds a batch that *claims* the given root without recomputing it.
    /// Exists so adversarial tests can model a tampered batch; never used on
    /// the protocol path.
    #[doc(hidden)]
    pub fn with_claimed_root(txs: Vec<Arc<Transaction>>, root: Digest) -> Self {
        Self {
            txs: Arc::new(txs),
            root,
        }
    }
}

impl From<Arc<Transaction>> for Batch {
    fn from(tx: Arc<Transaction>) -> Self {
        Self::single(tx)
    }
}

impl From<Transaction> for Batch {
    fn from(tx: Transaction) -> Self {
        Self::single(tx)
    }
}

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.txs.as_slice() {
            [] => write!(f, "batch[]"),
            [tx] => write!(f, "{tx}"),
            [first, ..] => write!(f, "batch[{} txs, {first}, ...]", self.txs.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{AccountId, ClientId};
    use sharper_crypto::merkle::verify_proof;

    fn tx(seq: u64) -> Arc<Transaction> {
        Arc::new(Transaction::transfer(
            ClientId(1),
            seq,
            AccountId(1),
            AccountId(2),
            10,
        ))
    }

    #[test]
    fn empty_batch_has_zero_root() {
        let b = Batch::empty();
        assert!(b.is_empty());
        assert_eq!(b.digest(), Digest::ZERO);
        assert!(b.verify_root());
    }

    #[test]
    fn digest_commits_to_contents_and_order() {
        let a = Batch::new(vec![tx(0), tx(1)]);
        let b = Batch::new(vec![tx(1), tx(0)]);
        let c = Batch::new(vec![tx(0), tx(1), tx(2)]);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), Batch::new(vec![tx(0), tx(1)]).digest());
    }

    #[test]
    fn single_batch_differs_from_raw_tx_digest() {
        let t = tx(0);
        let b = Batch::single(Arc::clone(&t));
        assert_ne!(b.digest(), t.digest(), "leaf domain separation");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn tampered_batch_fails_root_verification() {
        let honest = Batch::new(vec![tx(0), tx(1), tx(2)]);
        let mut txs: Vec<Arc<Transaction>> = honest.txs().to_vec();
        txs[1] = tx(99);
        let forged = Batch::with_claimed_root(txs, honest.digest());
        assert!(!forged.verify_root());
        assert!(honest.verify_root());
    }

    #[test]
    fn contains_and_ids() {
        let b = Batch::new(vec![tx(3), tx(4)]);
        assert!(b.contains(TxId::new(ClientId(1), 3)));
        assert!(!b.contains(TxId::new(ClientId(1), 5)));
        let ids: Vec<TxId> = b.tx_ids().collect();
        assert_eq!(
            ids,
            vec![TxId::new(ClientId(1), 3), TxId::new(ClientId(1), 4)]
        );
    }

    #[test]
    fn involved_clusters_is_the_union() {
        let p = Partitioner::range(4, 100);
        let intra = Batch::new(vec![tx(0)]);
        assert_eq!(intra.involved_clusters(&p), vec![ClusterId(0)]);
        let cross = Batch::new(vec![Arc::new(Transaction::transfer(
            ClientId(1),
            1,
            AccountId(1),
            AccountId(150),
            1,
        ))]);
        assert_eq!(
            cross.involved_clusters(&p),
            vec![ClusterId(0), ClusterId(1)]
        );
    }

    #[test]
    fn inclusion_proofs_verify_against_the_batch_digest() {
        let txs: Vec<Arc<Transaction>> = (0..5).map(tx).collect();
        let b = Batch::new(txs.clone());
        for (i, t) in txs.iter().enumerate() {
            let proof = b.proof_for(i).unwrap();
            assert!(verify_proof(t.digest(), i, &proof, b.digest()), "tx {i}");
        }
        assert!(b.proof_for(5).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Batch::empty().to_string(), "batch[]");
        assert!(Batch::single(tx(0)).to_string().contains("t1.0"));
        assert!(Batch::new(vec![tx(0), tx(1)])
            .to_string()
            .starts_with("batch[2 txs"));
    }
}
