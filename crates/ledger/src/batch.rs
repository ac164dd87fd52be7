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
//!
//! ## Hashing a batch once: [`VerifiedBatch`]
//!
//! A [`Batch`] *claims* a root; whoever receives one (in a message, out of a
//! stored block) must re-derive the root before relying on it, and deriving
//! it is the most expensive step of a commit. [`VerifiedBatch`] is the proof,
//! held as a value, that *this holder* made that derivation: it can only be
//! obtained by sealing a transaction list or by checking a `Batch`. Code that
//! takes a `VerifiedBatch` therefore needs no second derivation, and code
//! that takes a `Batch` still has to make its own. The witness is never part
//! of a `Batch`, never serialised and never sent: a message carries the plain
//! `Batch`, so one replica's check cannot stand in for another's.

use sharper_common::{ClusterId, TxId};
use sharper_crypto::{merkle, Digest};
use sharper_state::{Partitioner, Transaction};
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

thread_local! {
    /// Merkle roots derived on this thread (see [`root_derivations`]).
    static ROOT_DERIVATIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many times [`Batch::compute_root`] has run on the calling thread.
/// Tests difference it around a consensus round to pin how often a replica
/// hashes a batch; nothing on the protocol path reads it.
#[doc(hidden)]
pub fn root_derivations() -> u64 {
    ROOT_DERIVATIONS.get()
}

/// An ordered batch of transactions, committed to by a Merkle root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The transactions, in proposal (and execution) order.
    txs: Arc<Vec<Arc<Transaction>>>,
    /// Merkle root over the transaction digests, cached at construction.
    root: Digest,
}

impl Batch {
    /// Creates a batch over the given transactions, computing the root.
    /// The witness of that computation is dropped; keep it with
    /// [`VerifiedBatch::seal`] when the batch is going to be appended here.
    pub fn new(txs: Vec<Arc<Transaction>>) -> Self {
        VerifiedBatch::seal(txs).into_batch()
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
        ROOT_DERIVATIONS.set(ROOT_DERIVATIONS.get() + 1);
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
    /// after construction. [`VerifiedBatch::check`] is the same check,
    /// keeping the answer as a value.
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

/// A [`Batch`] whose cached root the holder has derived from its
/// transactions — by building it or by checking it.
///
/// The field is private and there are exactly two ways in, [`seal`] and
/// [`check`], each of which runs [`Batch::compute_root`]; there is
/// deliberately no `From<Batch>` or `Default` impl. It derefs to the
/// batch for reading and offers nothing mutable, so the witness stays true
/// for as long as it exists. Cloning shares the transactions like a `Batch`
/// clone does.
///
/// [`seal`]: VerifiedBatch::seal
/// [`check`]: VerifiedBatch::check
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedBatch(Batch);

impl VerifiedBatch {
    /// Builds a batch over `txs`, deriving its root.
    pub fn seal(txs: Vec<Arc<Transaction>>) -> Self {
        let root = Batch::compute_root(&txs);
        Self(Batch {
            txs: Arc::new(txs),
            root,
        })
    }

    /// Re-derives `batch`'s root from its transactions; `None` if it is not
    /// the root the batch claims.
    pub fn check(batch: Batch) -> Option<Self> {
        batch.verify_root().then_some(Self(batch))
    }

    /// The plain batch, e.g. to put into a message. The witness stays
    /// behind: whoever receives the batch checks it again.
    pub fn into_batch(self) -> Batch {
        self.0
    }
}

impl Deref for VerifiedBatch {
    type Target = Batch;

    fn deref(&self) -> &Batch {
        &self.0
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
    fn a_forged_batch_never_becomes_a_witness() {
        let honest = Batch::new(vec![tx(0), tx(1), tx(2)]);
        let mut swapped: Vec<Arc<Transaction>> = honest.txs().to_vec();
        swapped[1] = tx(99);
        let forgeries = [
            // A transaction swapped under the honest root.
            Batch::with_claimed_root(swapped, honest.digest()),
            // The honest transactions under another root.
            Batch::with_claimed_root(honest.txs().to_vec(), Digest::ZERO),
            // Transactions claiming the empty batch's reserved root.
            Batch::with_claimed_root(vec![tx(0)], Batch::empty().digest()),
            // No transactions under a non-empty batch's root.
            Batch::with_claimed_root(Vec::new(), honest.digest()),
        ];
        for forged in forgeries {
            assert!(VerifiedBatch::check(forged.clone()).is_none(), "{forged}");
            // A clone of a forgery shares its `Arc` with the original; the
            // check of one says nothing about the other.
            assert!(!forged.verify_root());
        }
        // The honest batch, and a correctly claimed one, pass — each at the
        // price of one derivation — and come back unchanged.
        let before = root_derivations();
        let checked = VerifiedBatch::check(honest.clone()).expect("honest batch verifies");
        assert_eq!(root_derivations(), before + 1);
        assert_eq!(*checked, honest);
        assert_eq!(checked.clone().into_batch(), honest);
        let claimed = Batch::with_claimed_root(honest.txs().to_vec(), honest.digest());
        assert!(VerifiedBatch::check(claimed).is_some());
    }

    #[test]
    fn sealing_derives_the_root_once_and_equals_batch_new() {
        let txs = vec![tx(0), tx(1), tx(2)];
        let before = root_derivations();
        let sealed = VerifiedBatch::seal(txs.clone());
        assert_eq!(root_derivations(), before + 1);
        assert_eq!(sealed.digest(), Batch::compute_root(&txs));
        assert_eq!(sealed.into_batch(), Batch::new(txs));
        assert_eq!(
            VerifiedBatch::seal(Vec::new()).into_batch(),
            Batch::empty(),
            "the empty batch seals to the reserved zero root"
        );
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
