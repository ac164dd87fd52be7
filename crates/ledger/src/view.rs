//! A cluster's view of the blockchain ledger.
//!
//! "The entire blockchain ledger is not maintained by any cluster and each
//! cluster only maintains its own view of the blockchain ledger including the
//! transactions that access the data shard of the cluster" (§2.3). Within a
//! view the blocks are totally ordered and chained by hashes: an incoming
//! block is accepted only if its parent digest *for this cluster* equals the
//! digest of the view's current head.
//!
//! ## Bounded memory: checkpoint + truncation behind the audit watermark
//!
//! Retaining every block forever makes long sweeps memory-bound, so a view
//! can fold its oldest blocks into a [`Checkpoint`] and drop their payloads.
//! Truncation *is* the incremental audit: every block is re-verified
//! (integrity + parent link) at the moment it is folded, so a block mutated
//! below the watermark is caught before it can silently leave the window.
//! The checkpoint carries a rolling digest chain over the folded block
//! digests, and the view keeps reporting its *logical* length and committed
//! count, so `ledger_digest()` over `(head, len)` is bit-identical whether
//! or not the history behind the watermark is resident. The digest → height
//! and transaction → height indexes are kept for all history (a few dozen
//! bytes per block or transaction, vs. the kilobytes of a batched block
//! payload), which lets every consensus-side query — "is this digest a
//! committed position?", "is this transaction committed?" — answer
//! identically before and after pruning.

use crate::block::{Block, VerifiedBlock};
use sharper_common::{ClusterId, Error, LedgerConfig, Result, TxId};
use sharper_crypto::{hash_parts, Digest};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Domain separator for the rolling checkpoint digest chain.
const CHECKPOINT_DOMAIN: &[u8] = b"sharper-checkpoint";

/// The compact commitment a view keeps for history pruned from memory.
///
/// `rolling_digest` is a hash chain over the digests of every folded block:
/// `r' = H("sharper-checkpoint" ‖ r ‖ block_digest)`, starting from
/// [`Digest::ZERO`]. Two views that folded the same prefix therefore carry
/// the same checkpoint, and no block below the watermark can be swapped or
/// reordered without changing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of blocks folded into this checkpoint (the genesis block
    /// counts once it has been pruned). Equals the absolute height of the
    /// first retained block.
    pub height: usize,
    /// Digest of the last folded block — the parent the first retained
    /// block must chain to. [`Digest::ZERO`] while `height == 0`.
    pub head: Digest,
    /// Rolling digest chain over all folded block digests.
    pub rolling_digest: Digest,
    /// Number of transactions committed in the folded blocks.
    pub committed_count: usize,
}

impl Checkpoint {
    /// The empty checkpoint of a freshly created view (nothing folded).
    pub fn empty() -> Self {
        Self {
            height: 0,
            head: Digest::ZERO,
            rolling_digest: Digest::ZERO,
            committed_count: 0,
        }
    }

    /// Folds one more block digest into the rolling chain.
    fn fold(&mut self, block_digest: Digest, txs: usize) {
        self.rolling_digest = hash_parts(&[
            CHECKPOINT_DOMAIN,
            self.rolling_digest.as_bytes(),
            block_digest.as_bytes(),
        ]);
        self.head = block_digest;
        self.height += 1;
        self.committed_count += txs;
    }
}

/// The totally-ordered ledger view maintained by every replica of a cluster.
#[derive(Debug, Clone)]
pub struct LedgerView {
    cluster: ClusterId,
    /// Resident blocks in commit order. The absolute height of `blocks[i]`
    /// is `checkpoint.height + i`; while nothing has been pruned,
    /// `blocks[0]` is the genesis block.
    blocks: Vec<Block>,
    /// Index from block digest to absolute height — **all history**, never
    /// pruned, so position-consumed checks stay exact after truncation.
    index: HashMap<Digest, usize>,
    /// Index from transaction id to absolute height — **all history**, never
    /// pruned, so duplicate detection stays exact after truncation.
    tx_index: HashMap<TxId, usize>,
    /// Commitment to everything pruned from `blocks`.
    checkpoint: Checkpoint,
}

impl LedgerView {
    /// Creates a view containing only the genesis block λ.
    pub fn new(cluster: ClusterId) -> Self {
        let genesis = Block::genesis();
        let mut index = HashMap::new();
        index.insert(genesis.digest(), 0);
        Self {
            cluster,
            blocks: vec![genesis],
            index,
            tx_index: HashMap::new(),
            checkpoint: Checkpoint::empty(),
        }
    }

    /// The cluster whose view this is.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// The digest of the last block in the view — `H(t)` of "the previous
    /// transaction (intra- or cross-shard) that is ordered by the cluster",
    /// which the primary embeds in `pre-prepare`/`propose` messages.
    pub fn head(&self) -> Digest {
        self.blocks
            .last()
            .expect("view always retains its head block")
            .digest()
    }

    /// Logical number of blocks including the genesis block — pruned blocks
    /// still count, so this is identical to an unpruned run of the same
    /// chain (the determinism oracle folds this value).
    pub fn len(&self) -> usize {
        self.checkpoint.height + self.blocks.len()
    }

    /// Whether the view contains only the genesis block.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Logical number of committed transactions (excludes the genesis
    /// block), including transactions folded into the checkpoint. With
    /// batching a block may carry several transactions, so this can exceed
    /// `len() - 1`.
    pub fn committed_count(&self) -> usize {
        self.tx_index.len()
    }

    /// Logical number of committed blocks (excludes the genesis block).
    pub fn committed_blocks(&self) -> usize {
        self.len() - 1
    }

    /// Appends a block of unknown provenance: re-derives its batch root and
    /// digest ([`VerifiedBlock::check`]), then
    /// [`append_verified`](Self::append_verified).
    ///
    /// Returns an error if the block is the genesis block, if its digest
    /// does not verify (including the batch's re-derived Merkle root), and
    /// every error `append_verified` returns.
    pub fn append(&mut self, block: Block) -> Result<()> {
        let digest = block.digest();
        let block = VerifiedBlock::check(block).ok_or_else(|| {
            Error::IntegrityViolation(format!("block {digest} fails digest verification"))
        })?;
        self.append_verified(block)
    }

    /// Appends a block whose digest the caller has already established,
    /// enforcing the hash chain for this cluster. Hashes nothing; every
    /// other admission check runs.
    ///
    /// Returns an error if the block is the genesis block, if it does not
    /// reference this cluster, if its parent digest for this cluster is not
    /// the current head, or if any carried transaction appears twice in it
    /// or was already committed, in any block of the view's history
    /// (duplicate detection).
    pub fn append_verified(&mut self, block: VerifiedBlock) -> Result<()> {
        if block.is_genesis() {
            return Err(Error::ProtocolViolation(
                "the genesis block cannot be appended".into(),
            ));
        }
        let parent = block.parent_for(self.cluster).ok_or_else(|| {
            Error::ProtocolViolation(format!(
                "block {} does not involve cluster {}",
                block.digest(),
                self.cluster
            ))
        })?;
        if parent != self.head() {
            return Err(Error::SafetyViolation(format!(
                "block {} chains to {} but the head of {} is {}",
                block.digest(),
                parent,
                self.cluster,
                self.head()
            )));
        }
        if block
            .body_batch()
            .is_some_and(crate::batch::Batch::has_duplicate_tx_ids)
        {
            return Err(Error::ProtocolViolation(format!(
                "block {} carries a transaction more than once",
                block.digest()
            )));
        }
        // One walk over the ids: each is looked up and claimed in the same
        // probe. The ids are distinct (checked above), so on a collision
        // exactly the ids claimed so far are released and the view is left
        // as it was.
        let height = self.len();
        for (claimed, tx_id) in block.tx_ids().enumerate() {
            match self.tx_index.entry(tx_id) {
                Entry::Vacant(slot) => {
                    slot.insert(height);
                }
                Entry::Occupied(_) => {
                    for earlier in block.tx_ids().take(claimed) {
                        self.tx_index.remove(&earlier);
                    }
                    return Err(Error::ProtocolViolation(format!(
                        "transaction {tx_id} is already committed in this view"
                    )));
                }
            }
        }
        self.index.insert(block.digest(), height);
        self.blocks.push(block.into_block());
        Ok(())
    }

    /// Whether a transaction is committed in this view — answered from the
    /// all-history index, so truncation never changes the answer.
    pub fn contains_tx(&self, tx: TxId) -> bool {
        self.tx_index.contains_key(&tx)
    }

    /// The position (1-based absolute block height) of a committed
    /// transaction, folded behind the watermark or not.
    pub fn position_of(&self, tx: TxId) -> Option<usize> {
        self.tx_index.get(&tx).copied()
    }

    /// Looks up a retained block by digest. Returns `None` for blocks
    /// folded behind the watermark (use [`knows_block`](Self::knows_block)
    /// to test committedness regardless of retention).
    pub fn block(&self, digest: Digest) -> Option<&Block> {
        let &h = self.index.get(&digest)?;
        self.blocks.get(h.checked_sub(self.checkpoint.height)?)
    }

    /// Whether `digest` is a block this view has ever committed — answered
    /// from the all-history index, so truncation never changes the answer.
    pub fn knows_block(&self, digest: Digest) -> bool {
        self.index.contains_key(&digest)
    }

    /// The absolute height of a block this view has ever committed.
    pub fn height_of(&self, digest: Digest) -> Option<usize> {
        self.index.get(&digest).copied()
    }

    /// Iterates over the retained blocks in commit order (starting with the
    /// genesis block while nothing has been pruned).
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// The retained blocks in commit order, indexable: `retained()[i]` sits
    /// at absolute height `first_retained_height() + i`.
    pub(crate) fn retained(&self) -> &[Block] {
        &self.blocks
    }

    /// The retained blocks, writable — for tests that forge a committed
    /// block in place.
    #[cfg(test)]
    pub(crate) fn retained_mut(&mut self) -> &mut [Block] {
        &mut self.blocks
    }

    /// The index in [`retained`](Self::retained) of the block stored under
    /// `digest`: one lookup in the digest → height index, confirmed against
    /// the block found there. `None` for a digest never committed, folded
    /// behind the watermark, or whose index entry no longer names that block.
    pub(crate) fn retained_index(&self, digest: Digest) -> Option<usize> {
        let i = self
            .height_of(digest)?
            .checked_sub(self.checkpoint.height)?;
        (self.blocks.get(i)?.digest() == digest).then_some(i)
    }

    /// Number of blocks currently resident in memory.
    pub fn retained_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The absolute height of the first retained block (the watermark).
    pub fn first_retained_height(&self) -> usize {
        self.checkpoint.height
    }

    /// The commitment to everything pruned behind the watermark.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// The transactions of the retained blocks in order. Within a block,
    /// transactions appear in batch (execution) order.
    pub fn transactions(&self) -> impl Iterator<Item = &sharper_state::Transaction> {
        self.blocks
            .iter()
            .flat_map(|b| b.txs().iter().map(|tx| tx.as_ref()))
    }

    /// Audits and prunes according to `cfg`, returning how many blocks were
    /// folded into the checkpoint (0 when truncation is disabled or the
    /// window has not yet outgrown `retain_blocks + checkpoint_interval`).
    ///
    /// The trigger is a pure function of the chain length and the
    /// configuration, so every replica of every run prunes at exactly the
    /// same heights — and because every consensus-visible query answers
    /// identically before and after, results stay bit-identical to a
    /// retain-all run.
    pub fn maybe_checkpoint(&mut self, cfg: &LedgerConfig) -> Result<usize> {
        if !cfg.is_truncating() {
            return Ok(0);
        }
        let threshold = cfg.retain_blocks.saturating_add(cfg.checkpoint_interval);
        if self.blocks.len() < threshold {
            return Ok(0);
        }
        let fold = self.blocks.len() - cfg.retain_blocks;
        self.truncate_prefix(fold)?;
        Ok(fold)
    }

    /// Folds the oldest `count` retained blocks into the checkpoint and
    /// drops their payloads (the digest and transaction indexes keep their
    /// entries). Each block is
    /// re-verified — integrity and parent link — before folding; this is the
    /// incremental audit at the watermark, and it fails (leaving the view
    /// untouched) if any block below the watermark was tampered with.
    pub fn truncate_prefix(&mut self, count: usize) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        if count >= self.blocks.len() {
            return Err(Error::ProtocolViolation(format!(
                "cannot truncate {count} of {} retained blocks: the head must stay resident",
                self.blocks.len()
            )));
        }
        // Audit the prefix before mutating anything.
        let mut prev = (self.checkpoint.height > 0).then_some(self.checkpoint.head);
        for (i, block) in self.blocks[..count].iter().enumerate() {
            let height = self.checkpoint.height + i;
            if height == 0 {
                if !block.is_genesis() {
                    return Err(Error::SafetyViolation(
                        "view does not start with the genesis block".into(),
                    ));
                }
            } else {
                if !block.verify_integrity() {
                    return Err(Error::IntegrityViolation(format!(
                        "block {} at height {height} fails digest verification at the watermark",
                        block.digest()
                    )));
                }
                match (block.parent_for(self.cluster), prev) {
                    (Some(parent), Some(expected)) if parent == expected => {}
                    (Some(parent), Some(expected)) => {
                        return Err(Error::SafetyViolation(format!(
                        "block {} at height {height} chains to {parent} but expected {expected}",
                        block.digest()
                    )))
                    }
                    _ => {
                        return Err(Error::SafetyViolation(format!(
                            "block {} does not involve cluster {}",
                            block.digest(),
                            self.cluster
                        )))
                    }
                }
            }
            prev = Some(block.digest());
        }
        // Fold and drop.
        for block in self.blocks.drain(..count) {
            self.checkpoint.fold(block.digest(), block.tx_ids().count());
        }
        Ok(())
    }

    /// Verifies the retained chain: every resident block's integrity and
    /// parent link, anchored at the genesis block — or, once truncation has
    /// folded history away, at the checkpoint head (whose own lineage was
    /// verified incrementally as it crossed the watermark).
    pub fn verify_chain(&self) -> Result<()> {
        let mut resident = self.blocks.iter();
        let mut head = if self.checkpoint.height == 0 {
            let genesis = resident.next().expect("view always retains its head block");
            if !genesis.is_genesis() {
                return Err(Error::SafetyViolation(
                    "view does not start with the genesis block".into(),
                ));
            }
            genesis.digest()
        } else {
            self.checkpoint.head
        };
        for block in resident {
            if !block.verify_integrity() {
                return Err(Error::IntegrityViolation(format!(
                    "block {} fails digest verification",
                    block.digest()
                )));
            }
            match block.parent_for(self.cluster) {
                Some(parent) if parent == head => head = block.digest(),
                Some(parent) => {
                    return Err(Error::SafetyViolation(format!(
                        "block {} chains to {parent} but expected {head}",
                        block.digest()
                    )))
                }
                None => {
                    return Err(Error::SafetyViolation(format!(
                        "block {} does not involve cluster {}",
                        block.digest(),
                        self.cluster
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{AccountId, ClientId};
    use sharper_state::Transaction;
    use std::collections::BTreeMap;

    fn tx(client: u64, seq: u64) -> Transaction {
        Transaction::transfer(ClientId(client), seq, AccountId(1), AccountId(2), 5)
    }

    fn intra_block(view: &LedgerView, t: Transaction) -> Block {
        let mut parents = BTreeMap::new();
        parents.insert(view.cluster(), view.head());
        Block::transaction(t, parents)
    }

    #[test]
    fn new_view_contains_only_genesis() {
        let v = LedgerView::new(ClusterId(2));
        assert_eq!(v.len(), 1);
        assert!(v.is_empty());
        assert_eq!(v.committed_count(), 0);
        assert_eq!(v.head(), Block::genesis().digest());
        assert_eq!(v.cluster(), ClusterId(2));
        assert_eq!(*v.checkpoint(), Checkpoint::empty());
        v.verify_chain().unwrap();
    }

    #[test]
    fn append_extends_the_chain() {
        let mut v = LedgerView::new(ClusterId(0));
        for seq in 0..5 {
            let b = intra_block(&v, tx(1, seq));
            let d = b.digest();
            v.append(b).unwrap();
            assert_eq!(v.head(), d);
        }
        assert_eq!(v.committed_count(), 5);
        assert!(v.contains_tx(sharper_common::TxId::new(ClientId(1), 3)));
        assert_eq!(
            v.position_of(sharper_common::TxId::new(ClientId(1), 0)),
            Some(1)
        );
        v.verify_chain().unwrap();
        assert_eq!(v.transactions().count(), 5);
    }

    #[test]
    fn append_rejects_wrong_parent() {
        let mut v = LedgerView::new(ClusterId(0));
        let b1 = intra_block(&v, tx(1, 0));
        v.append(b1).unwrap();
        // A block chaining to the genesis (not the new head) must be refused.
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), Block::genesis().digest());
        let stale = Block::transaction(tx(1, 1), parents);
        let err = v.append(stale).unwrap_err();
        assert!(matches!(err, Error::SafetyViolation(_)));
    }

    #[test]
    fn append_rejects_foreign_and_duplicate_blocks() {
        let mut v = LedgerView::new(ClusterId(0));
        // Block for another cluster.
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(1), v.head());
        let foreign = Block::transaction(tx(1, 0), parents);
        assert!(v.append(foreign).is_err());

        // Duplicate transaction id.
        let b = intra_block(&v, tx(1, 0));
        v.append(b).unwrap();
        let dup = intra_block(&v, tx(1, 0));
        let err = v.append(dup).unwrap_err();
        assert!(matches!(err, Error::ProtocolViolation(_)));

        // Genesis cannot be appended.
        assert!(v.append(Block::genesis()).is_err());
    }

    #[test]
    fn cross_shard_blocks_chain_into_both_views() {
        let mut v0 = LedgerView::new(ClusterId(0));
        let mut v1 = LedgerView::new(ClusterId(1));

        // One intra-shard block in each cluster first.
        let b0 = intra_block(&v0, tx(1, 0));
        v0.append(b0).unwrap();
        let b1 = intra_block(&v1, tx(2, 0));
        v1.append(b1).unwrap();

        // A cross-shard block referencing both heads.
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), v0.head());
        parents.insert(ClusterId(1), v1.head());
        let cross = Block::transaction(tx(3, 0), parents);
        v0.append(cross.clone()).unwrap();
        v1.append(cross).unwrap();

        v0.verify_chain().unwrap();
        v1.verify_chain().unwrap();
        assert_eq!(v0.head(), v1.head());
    }

    #[test]
    fn batched_blocks_index_every_transaction() {
        use crate::batch::Batch;
        use std::sync::Arc;
        let mut v = LedgerView::new(ClusterId(0));
        let batch = Batch::new(vec![
            Arc::new(tx(1, 0)),
            Arc::new(tx(1, 1)),
            Arc::new(tx(2, 0)),
        ]);
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), v.head());
        v.append(Block::batch(batch, parents)).unwrap();
        assert_eq!(v.committed_count(), 3);
        assert_eq!(v.committed_blocks(), 1);
        assert!(v.contains_tx(sharper_common::TxId::new(ClientId(2), 0)));
        assert_eq!(v.transactions().count(), 3);
        v.verify_chain().unwrap();

        // A later batch that re-carries an already committed transaction is
        // rejected.
        let dup = Batch::new(vec![Arc::new(tx(3, 0)), Arc::new(tx(1, 1))]);
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), v.head());
        let err = v.append(Block::batch(dup, parents)).unwrap_err();
        assert!(matches!(err, Error::ProtocolViolation(_)));
        assert!(!v.contains_tx(sharper_common::TxId::new(ClientId(3), 0)));
    }

    #[test]
    fn a_batch_carrying_the_same_transaction_twice_is_rejected() {
        use crate::batch::Batch;
        use std::sync::Arc;
        let mut v = LedgerView::new(ClusterId(0));
        let dup = Batch::new(vec![
            Arc::new(tx(1, 0)),
            Arc::new(tx(2, 0)),
            Arc::new(tx(1, 0)),
        ]);
        assert!(dup.has_duplicate_tx_ids());
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), v.head());
        let err = v.append(Block::batch(dup, parents)).unwrap_err();
        assert!(matches!(err, Error::ProtocolViolation(_)));
        assert_eq!(v.committed_count(), 0, "nothing was indexed");
    }

    #[test]
    fn audit_detects_a_tampered_transaction_inside_a_committed_batch() {
        use crate::batch::Batch;
        use std::sync::Arc;
        let mut v = LedgerView::new(ClusterId(0));
        let honest = Batch::new(vec![Arc::new(tx(1, 0)), Arc::new(tx(1, 1))]);
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), v.head());
        v.append(Block::batch(honest.clone(), parents)).unwrap();
        v.verify_chain().unwrap();
        crate::audit::audit_views(std::slice::from_ref(&v)).unwrap();

        // Tamper with the committed copy: swap a transaction inside the batch
        // while keeping the cached Merkle root. The chain audit re-derives the
        // root and rejects the view.
        let mut forged_txs = honest.txs().to_vec();
        forged_txs[0] = Arc::new(tx(9, 9));
        v.blocks[1].body =
            crate::block::BlockBody::Batch(Batch::with_claimed_root(forged_txs, honest.digest()));
        let err = v.verify_chain().unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)));
        assert!(crate::audit::audit_views(std::slice::from_ref(&v)).is_err());
    }

    #[test]
    fn a_tampered_batch_fails_the_replica_audit_borrowed_and_owned_alike() {
        use crate::audit::audit_replica_views;
        use crate::batch::Batch;
        use std::sync::Arc;
        let mut v = LedgerView::new(ClusterId(0));
        let honest = Batch::new(vec![Arc::new(tx(1, 0)), Arc::new(tx(1, 1))]);
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), v.head());
        v.append(Block::batch(honest.clone(), parents)).unwrap();
        let mut forged_txs = honest.txs().to_vec();
        forged_txs[0] = Arc::new(tx(9, 9));
        v.blocks[1].body =
            crate::block::BlockBody::Batch(Batch::with_claimed_root(forged_txs, honest.digest()));

        let lent = audit_replica_views(&[(ClusterId(0), &v)]).unwrap_err();
        assert!(matches!(lent, Error::IntegrityViolation(_)));
        assert_eq!(lent, audit_replica_views(&[(ClusterId(0), v)]).unwrap_err());
    }

    #[test]
    fn the_witness_path_hashes_nothing_and_still_runs_every_other_check() {
        use crate::batch::{root_derivations, VerifiedBatch};
        use std::sync::Arc;
        let seal =
            |txs: Vec<Transaction>| VerifiedBatch::seal(txs.into_iter().map(Arc::new).collect());
        let at = |cluster: u32, parent: Digest| BTreeMap::from([(ClusterId(cluster), parent)]);
        let mut v = LedgerView::new(ClusterId(0));
        let mut plain = v.clone();

        // An honest verified block appends without a derivation and leaves
        // the view exactly as `append(Block)` leaves it.
        let first = VerifiedBlock::chain(seal(vec![tx(1, 0), tx(1, 1)]), at(0, v.head()));
        let before = root_derivations();
        v.append_verified(first.clone()).unwrap();
        assert_eq!(
            root_derivations(),
            before,
            "the witness path derives no root"
        );
        plain.append(first.clone().into_block()).unwrap();
        assert_eq!(root_derivations(), before + 1, "the plain path derives one");
        assert_eq!(v.head(), plain.head());
        assert_eq!(v.committed_count(), plain.committed_count());
        assert_eq!(v.position_of(TxId::new(ClientId(1), 1)), Some(1));
        v.verify_chain().unwrap();

        // Genesis, a foreign cluster, a stale parent, a transaction carried
        // twice, a transaction already committed: the errors of `append`.
        let genesis = VerifiedBlock::check(Block::genesis()).unwrap();
        assert!(matches!(
            v.append_verified(genesis),
            Err(Error::ProtocolViolation(_))
        ));
        let foreign = VerifiedBlock::chain(seal(vec![tx(2, 0)]), at(1, v.head()));
        assert!(matches!(
            v.append_verified(foreign),
            Err(Error::ProtocolViolation(_))
        ));
        let stale = VerifiedBlock::chain(seal(vec![tx(2, 0)]), at(0, Block::genesis().digest()));
        assert!(matches!(
            v.append_verified(stale),
            Err(Error::SafetyViolation(_))
        ));
        let twice = VerifiedBlock::chain(seal(vec![tx(2, 0), tx(3, 0), tx(2, 0)]), at(0, v.head()));
        assert!(matches!(
            v.append_verified(twice),
            Err(Error::ProtocolViolation(_))
        ));
        let again = VerifiedBlock::chain(seal(vec![tx(4, 0), tx(1, 1)]), at(0, v.head()));
        assert!(matches!(
            v.append_verified(again),
            Err(Error::ProtocolViolation(_))
        ));
        // Every refusal left the view untouched.
        assert_eq!(v.head(), first.digest());
        assert_eq!(v.committed_count(), 2);
        assert!(
            !v.contains_tx(TxId::new(ClientId(4), 0)),
            "claim rolled back"
        );
    }

    #[test]
    fn append_refuses_a_forged_batch_however_its_block_was_built() {
        use crate::batch::Batch;
        use std::sync::Arc;
        let mut v = LedgerView::new(ClusterId(0));
        let honest = Batch::new(vec![Arc::new(tx(1, 0)), Arc::new(tx(1, 1))]);
        let mut forged_txs = honest.txs().to_vec();
        forged_txs[0] = Arc::new(tx(9, 9));
        let forged = Batch::with_claimed_root(forged_txs, honest.digest());
        let parents = BTreeMap::from([(ClusterId(0), v.head())]);
        // Built from the forgery, the block digest is self-consistent; only
        // the re-derived root can refuse it — and `append` still does.
        let err = v.append(Block::batch(forged, parents.clone())).unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)));
        assert!(v.is_empty());
        v.append(Block::batch(honest, parents)).unwrap();
    }

    #[test]
    fn block_lookup_by_digest() {
        let mut v = LedgerView::new(ClusterId(0));
        let b = intra_block(&v, tx(1, 0));
        let d = b.digest();
        v.append(b).unwrap();
        assert!(v.block(d).is_some());
        assert!(v.block(Digest::ZERO).is_none());
    }

    #[test]
    fn truncation_preserves_logical_lengths_and_head() {
        let mut all = LedgerView::new(ClusterId(0));
        let mut pruned = LedgerView::new(ClusterId(0));
        let cfg = LedgerConfig::checkpointed(2, 3);
        for seq in 0..20 {
            let b = intra_block(&all, tx(1, seq));
            all.append(b.clone()).unwrap();
            pruned.append(b).unwrap();
            pruned.maybe_checkpoint(&cfg).unwrap();
            // Retain-all never prunes.
            assert_eq!(all.maybe_checkpoint(&LedgerConfig::retain_all()), Ok(0));
        }
        assert!(pruned.retained_blocks() < all.retained_blocks());
        assert!(pruned.retained_blocks() <= 3 + 2);
        assert!(pruned.first_retained_height() > 0);
        // Everything consensus (and the determinism oracle) can see agrees.
        assert_eq!(pruned.head(), all.head());
        assert_eq!(pruned.len(), all.len());
        assert_eq!(pruned.committed_count(), all.committed_count());
        assert_eq!(pruned.committed_blocks(), all.committed_blocks());
        pruned.verify_chain().unwrap();
        all.verify_chain().unwrap();
        // The all-history index still answers for pruned digests...
        for block in all.blocks() {
            let d = block.digest();
            assert!(pruned.knows_block(d));
            assert_eq!(pruned.height_of(d), all.height_of(d));
        }
        // ...while payload lookups are confined to the retained window.
        let old = all.blocks().nth(1).unwrap().digest();
        assert!(pruned.block(old).is_none());
        assert!(all.block(old).is_some());
        assert!(pruned.block(pruned.head()).is_some());
    }

    #[test]
    fn a_truncated_view_still_refuses_a_transaction_folded_behind_the_watermark() {
        let mut v = LedgerView::new(ClusterId(0));
        for seq in 0..6 {
            let b = intra_block(&v, tx(1, seq));
            v.append(b).unwrap();
        }
        v.truncate_prefix(3).unwrap();
        let folded = TxId::new(ClientId(1), 0);
        assert!(v.first_retained_height() > v.position_of(folded).unwrap());
        assert!(v.contains_tx(folded));
        assert_eq!(v.committed_count(), 6);
        // Re-committing the folded transaction at the head is a duplicate.
        let replay = intra_block(&v, tx(1, 0));
        assert!(matches!(v.append(replay), Err(Error::ProtocolViolation(_))));
        assert_eq!(v.committed_count(), 6);
        assert_eq!(v.len(), 7);
    }

    #[test]
    fn truncation_folds_the_same_rolling_digest_regardless_of_schedule() {
        // Fold in different step sizes; the rolling chain only depends on
        // the folded prefix, not on when the folds happened.
        let mut a = LedgerView::new(ClusterId(0));
        let mut b = LedgerView::new(ClusterId(0));
        for seq in 0..12 {
            let blk = intra_block(&a, tx(1, seq));
            a.append(blk.clone()).unwrap();
            b.append(blk).unwrap();
        }
        a.truncate_prefix(1).unwrap();
        a.truncate_prefix(4).unwrap();
        a.truncate_prefix(5).unwrap();
        b.truncate_prefix(10).unwrap();
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(a.checkpoint().height, 10);
        assert_eq!(a.checkpoint().committed_count, 9, "genesis carries no tx");
        assert_ne!(a.checkpoint().rolling_digest, Digest::ZERO);
        a.verify_chain().unwrap();
        b.verify_chain().unwrap();
    }

    #[test]
    fn truncation_never_evicts_the_head() {
        let mut v = LedgerView::new(ClusterId(0));
        v.append(intra_block(&v, tx(1, 0))).unwrap();
        assert!(v.truncate_prefix(2).is_err(), "head must stay resident");
        v.truncate_prefix(1).unwrap();
        assert_eq!(v.retained_blocks(), 1);
        assert_eq!(v.len(), 2);
        v.verify_chain().unwrap();
        // The smallest truncating config keeps exactly one resident block.
        let cfg = LedgerConfig::checkpointed(1, 1);
        for seq in 1..5 {
            v.append(intra_block(&v, tx(1, seq))).unwrap();
            v.maybe_checkpoint(&cfg).unwrap();
        }
        assert_eq!(v.retained_blocks(), 1);
        assert_eq!(v.len(), 6);
        v.verify_chain().unwrap();
    }

    #[test]
    fn a_block_tampered_below_the_watermark_is_caught_at_fold_time() {
        use crate::batch::Batch;
        use std::sync::Arc;
        let mut v = LedgerView::new(ClusterId(0));
        let honest = Batch::new(vec![Arc::new(tx(1, 0)), Arc::new(tx(1, 1))]);
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), v.head());
        v.append(Block::batch(honest.clone(), parents)).unwrap();
        for seq in 2..8 {
            v.append(intra_block(&v, tx(1, seq))).unwrap();
        }

        // Mutate the batch payload of block 1 (keeping its claimed root) —
        // it sits below the watermark the next truncation would establish.
        let mut forged_txs = honest.txs().to_vec();
        forged_txs[0] = Arc::new(tx(9, 9));
        v.blocks[1].body =
            crate::block::BlockBody::Batch(Batch::with_claimed_root(forged_txs, honest.digest()));

        let err = v
            .maybe_checkpoint(&LedgerConfig::checkpointed(1, 2))
            .unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)));
        // The failed audit left the view untouched (nothing folded).
        assert_eq!(v.first_retained_height(), 0);
        assert_eq!(v.retained_blocks(), 8);
    }

    #[test]
    fn a_block_swapped_below_the_watermark_breaks_the_parent_chain_at_fold_time() {
        let mut v = LedgerView::new(ClusterId(0));
        for seq in 0..6 {
            v.append(intra_block(&v, tx(1, seq))).unwrap();
        }
        // Replace block 2 with a well-formed block that chains elsewhere
        // (a rewritten-history splice).
        let mut parents = BTreeMap::new();
        parents.insert(ClusterId(0), Block::genesis().digest());
        v.blocks[2] = Block::transaction(tx(8, 8), parents);
        let err = v.truncate_prefix(4).unwrap_err();
        assert!(matches!(err, Error::SafetyViolation(_)));
        assert_eq!(v.first_retained_height(), 0, "audit failure folds nothing");
    }
}
