//! The cluster's chain as this replica sees it: one ordering log.
//!
//! Every SharPer block names `H(t)`, the previous block its cluster ordered
//! (§3.1), so a cluster's order is one hash chain. [`ChainLog`] holds it in
//! three parts:
//!
//! * the *decided prefix*: the [`LedgerView`], appended in chain order; its
//!   all-history transaction index is the replica's committed set;
//! * the *ordering tail*: the last block this replica agreed to order. A
//!   primary's tail runs ahead of the ledger head by its proposals in
//!   flight, so consecutive proposals chain while earlier ones gather votes;
//! * the *parked* blocks: decided blocks whose parent is not appended yet.
//!
//! A position is named by its parent digest (the wire carries no slot).

use super::Replica;
use crate::messages::Msg;
use sharper_common::{ClusterId, LedgerConfig, TxId};
use sharper_crypto::Digest;
use sharper_ledger::{Block, LedgerView, VerifiedBlock};
use sharper_net::Context;
use std::collections::HashMap;

/// One replica's view of its cluster's chain (see the module docs).
pub(super) struct ChainLog {
    cluster: ClusterId,
    ledger: LedgerView,
    tail: Digest,
    /// Chain height of `tail`, genesis included.
    tail_height: u64,
    /// Decided blocks waiting for their parent to be appended, keyed by that
    /// parent, each with whether its commit answers the clients.
    parked: HashMap<Digest, Vec<(VerifiedBlock, bool)>>,
}

impl ChainLog {
    /// The log of a fresh replica: the genesis block, tail at genesis.
    pub(super) fn new(cluster: ClusterId) -> Self {
        let ledger = LedgerView::new(cluster);
        Self {
            cluster,
            tail: ledger.head(),
            tail_height: 1,
            ledger,
            parked: HashMap::new(),
        }
    }

    /// The decided prefix.
    pub(super) fn ledger(&self) -> &LedgerView {
        &self.ledger
    }

    /// The hash of the last block this replica has agreed to order: the
    /// parent of its next proposal or cross-shard accept.
    pub(super) fn tail(&self) -> Digest {
        self.tail
    }

    /// The chain height of [`tail`](Self::tail).
    pub(super) fn tail_height(&self) -> u64 {
        self.tail_height
    }

    /// Whether `tx` is committed here, in any block of the chain's history.
    pub(super) fn committed(&self, tx: TxId) -> bool {
        self.ledger.contains_tx(tx)
    }

    /// Whether any of `ids` is committed here.
    pub(super) fn any_committed(&self, mut ids: impl Iterator<Item = TxId>) -> bool {
        ids.any(|id| self.committed(id))
    }

    /// Whether every one of `ids` is committed here.
    pub(super) fn all_committed(&self, mut ids: impl Iterator<Item = TxId>) -> bool {
        ids.all(|id| self.committed(id))
    }

    /// Advances the ordering tail when `block` extends it.
    pub(super) fn advance(&mut self, block: &Block) {
        if block.parent_for(self.cluster) == Some(self.tail) {
            self.tail = block.digest();
            self.tail_height += 1;
        }
    }

    /// Whether a decided block already fills the position after `parent`:
    /// `parent` is a strict ancestor of the head (all-history index, so the
    /// answer holds below the checkpoint too), or a block parked after it.
    pub(super) fn position_taken(&self, parent: Digest) -> bool {
        parent != self.ledger.head()
            && (self.ledger.knows_block(parent) || self.parked.contains_key(&parent))
    }

    /// Abandons the uncommitted proposal chain (a view was installed): the
    /// tail falls back to the ledger head, and parked blocks whose
    /// transactions all committed — chained behind an abandoned proposal,
    /// they would never append — are dropped.
    pub(super) fn reset(&mut self) {
        self.tail = self.ledger.head();
        self.tail_height = self.ledger.len() as u64;
        let ledger = &self.ledger;
        self.parked.retain(|_, blocks| {
            blocks.retain(|(block, _)| block.tx_ids().any(|tx| !ledger.contains_tx(tx)));
            !blocks.is_empty()
        });
    }

    /// Appends a block that chains to the head, then audits and prunes at
    /// the watermark — a pure storage operation after which every query
    /// answers identically, so truncation never perturbs results.
    pub(super) fn append(&mut self, block: VerifiedBlock, cfg: &LedgerConfig) {
        self.advance(&block);
        self.ledger
            .append_verified(block)
            .expect("parent was checked against the head");
        self.ledger
            .maybe_checkpoint(cfg)
            .expect("committed chain re-verifies at the watermark");
    }

    /// Number of parked blocks.
    #[cfg(test)]
    pub(super) fn parked_len(&self) -> usize {
        self.parked.values().map(Vec::len).sum()
    }
}

impl Replica {
    /// Appends a decided block in chain order, executes its batch and
    /// optionally replies to the clients. A block whose parent is not
    /// appended yet parks; an append then appends the parked blocks that
    /// chain after it. The caller sealed or checked the batch (the witness),
    /// so the append derives no root.
    pub(super) fn commit_block(
        &mut self,
        ctx: &mut Context<Msg>,
        block: VerifiedBlock,
        reply: bool,
    ) {
        if block.tx_count() == 0 || self.log.any_committed(block.tx_ids()) {
            // Usually a duplicate delivery. A *partial* overlap arises only
            // through the Byzantine new-view gap (see ROADMAP); such a block
            // could never append, so it is dropped deterministically.
            return;
        }
        // Decided: the next proposal chains after it even if the append has
        // to wait (otherwise a later proposal would fork the chain).
        self.log.advance(&block);
        let parent = block
            .parent_for(self.cluster)
            .expect("commit_block is only called with blocks involving this cluster");
        if parent != self.log.ledger.head() {
            self.log
                .parked
                .entry(parent)
                .or_default()
                .push((block, reply));
            return;
        }
        self.apply_block(ctx, block, reply);
        // Of the blocks parked behind the new head, the first that still
        // chains there appends; a later one at the same, now filled,
        // position is dropped.
        while let Some(children) = self.log.parked.remove(&self.log.ledger.head()) {
            let mut advanced = false;
            for (child, child_reply) in children {
                if child.parent_for(self.cluster) == Some(self.log.ledger.head())
                    && !self.log.any_committed(child.tx_ids())
                {
                    self.apply_block(ctx, child, child_reply);
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }
    }

    /// Whether anything still waits for the primary, which keeps the
    /// view-change timer armed. Parked blocks count: one whose parent never
    /// arrives must still get a primary elected to repair the chain.
    pub(super) fn has_outstanding_work(&self) -> bool {
        !self.buffered.is_empty()
            || self.intra.values().any(|r| !r.committed)
            || self.cross.values().any(|r| !r.committed)
            || !self.log.parked.is_empty()
    }
}
