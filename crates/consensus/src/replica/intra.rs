//! Intra-shard consensus (§3.1): Paxos for crash-only clusters, PBFT for
//! Byzantine clusters.
//!
//! Both are driven by the cluster's primary and order one Merkle-committed
//! [`Batch`] per round, chaining each proposal to the hash of the cluster's
//! previous block (`H(t)` plays the role of the sequence number). With
//! `max_batch_size = 1` the rounds are bit-for-bit the paper's.

use super::Replica;
use crate::messages::{proposal_sign_bytes, vote_sign_bytes, Ballot, Msg};
use sharper_common::{ClusterId, FailureModel, NodeId, TraceKind};
use sharper_crypto::{Digest, Signature};
use sharper_ledger::{Batch, Block, Parents, VerifiedBatch, VerifiedBlock};
use sharper_net::{ActorId, Context};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// State of one in-flight intra-shard consensus round.
///
/// A round holds *witnesses*: this replica derived the batch's Merkle root
/// itself (sealing it as primary, or checking the proposal), so the commit
/// appends without hashing the batch a second time. What a round sends is
/// the plain [`Batch`]; every receiver makes its own check.
#[derive(Debug, Clone)]
pub(super) struct IntraRound {
    /// The batch under agreement (sharing its transactions with the message
    /// plane), kept beside the block so that a round moved to another chain
    /// position re-chains it in O(1). Empty for a PBFT round whose `prepare`
    /// overtook its `pre-prepare`.
    pub(super) batch: VerifiedBatch,
    /// The block under agreement: the batch chained at the proposed
    /// position, built when the round is created or re-positioned and
    /// reused by the tail advance and the commit.
    pub(super) block: VerifiedBlock,
    /// The ballot the round was last proposed under (crash: the Paxos
    /// ballot; Byzantine: `(view, primary)` of the proposing view).
    pub(super) ballot: Ballot,
    /// Paxos `accepted` votes / PBFT `prepare` votes (node ids).
    pub(super) prepares: BTreeSet<NodeId>,
    /// PBFT `commit` votes.
    pub(super) commits: BTreeSet<NodeId>,
    /// The verified prepare signatures (Byzantine model), pre-prepare
    /// included: the raw material of a prepared-certificate.
    pub(super) prepare_sigs: BTreeMap<NodeId, Signature>,
    /// Whether this replica already moved to the commit phase.
    pub(super) sent_commit: bool,
    /// Whether the block was appended locally.
    pub(super) committed: bool,
}

impl IntraRound {
    fn new(cluster: ClusterId, batch: VerifiedBatch, parent: Digest, ballot: Ballot) -> Self {
        Self {
            block: VerifiedBlock::chain(batch.clone(), Parents::single(cluster, parent)),
            batch,
            ballot,
            prepares: BTreeSet::new(),
            commits: BTreeSet::new(),
            prepare_sigs: BTreeMap::new(),
            sent_commit: false,
            committed: false,
        }
    }

    /// The chain position the round proposes to fill.
    pub(super) fn parent(&self) -> Digest {
        self.block
            .parents
            .digests()
            .next()
            .expect("an intra-shard block has one parent")
    }

    /// The round's batch chained right after `parent`, without deriving its
    /// root again.
    fn block_at(&self, cluster: ClusterId, parent: Digest) -> VerifiedBlock {
        if self.parent() == parent {
            self.block.clone()
        } else {
            VerifiedBlock::chain(self.batch.clone(), Parents::single(cluster, parent))
        }
    }

    /// Moves the round to the position after `parent` (a replay under a
    /// newer ballot or view may re-assign it).
    fn reposition(&mut self, cluster: ClusterId, parent: Digest) {
        self.block = self.block_at(cluster, parent);
    }

    /// Gives a placeholder round (a PBFT `prepare` that overtook its
    /// `pre-prepare`) the payload the pre-prepare delivered.
    fn fill(&mut self, cluster: ClusterId, batch: VerifiedBatch, parent: Digest) {
        self.block = VerifiedBlock::chain(batch.clone(), Parents::single(cluster, parent));
        self.batch = batch;
    }
}

impl Replica {
    /// Starts ordering an intra-shard batch at the ordering tail. Called on
    /// the primary.
    pub(super) fn start_intra(&mut self, batch: VerifiedBatch, ctx: &mut Context<Msg>) {
        if self.intra.contains_key(&batch.digest()) || self.log.all_committed(batch.tx_ids()) {
            return;
        }
        let parent = self.log.tail();
        self.propose_round(batch, parent, ctx);
    }

    /// Proposes `batch` at an explicit chain position (used by the
    /// view-change state transfer to replay rounds of the previous view at
    /// their original positions). Any existing round state for the digest is
    /// replaced: votes gathered under the old view are void in the new one.
    pub(super) fn propose_at(
        &mut self,
        batch: VerifiedBatch,
        parent: Digest,
        ctx: &mut Context<Msg>,
    ) {
        self.intra.remove(&batch.digest());
        self.propose_round(batch, parent, ctx);
    }

    /// Opens a round for `batch` after `parent` under this primary's view
    /// and multicasts the proposal: a Paxos `accept` (Figure 3(a)) or a
    /// signed PBFT `pre-prepare` (Figure 3(b)). The primary's own vote
    /// counts towards the quorum, and the tail moves past the proposal so
    /// the next one chains after it even before it commits.
    fn propose_round(&mut self, batch: VerifiedBatch, parent: Digest, ctx: &mut Context<Msg>) {
        let d = batch.digest();
        let ballot = Ballot::new(self.view, self.node);
        let mut round = IntraRound::new(self.cluster, batch.clone(), parent, ballot);
        round.prepares.insert(self.node);
        let sig = match self.model() {
            // Proposing is implicitly a self-promise, so a demoted primary
            // cannot later accept older ballots it already proposed above.
            FailureModel::Crash => {
                self.promised = self.promised.max(ballot);
                None
            }
            // The pre-prepare stands in for the primary's prepare vote; its
            // signature is kept so a later view change can prove the round
            // prepared.
            FailureModel::Byzantine => {
                let sig = self
                    .signer
                    .sign(&proposal_sign_bytes(self.view, &parent, &d));
                round.prepare_sigs.insert(self.node, sig);
                Some(sig)
            }
        };
        self.log.advance(&round.block);
        self.intra.insert(d, round);
        let batch = batch.into_batch();
        let proposal = match sig {
            None => Msg::PaxosAccept {
                ballot,
                parent,
                batch,
            },
            Some(sig) => {
                self.charge_message(ctx, 0, 1);
                Msg::PrePrepare {
                    view: self.view,
                    parent,
                    batch,
                    sig,
                }
            }
        };
        ctx.trace(|| TraceKind::Propose {
            batch: d.short_u64(),
            view: ballot.view,
        });
        ctx.multicast(self.cluster_peers(), proposal);
        if sig.is_none() {
            // A single-node cluster (f = 0) commits immediately.
            self.try_commit_paxos(d, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Paxos (crash-only clusters), Figure 3(a)
    // ------------------------------------------------------------------

    /// Backup handling of the primary's `accept` message (Paxos phase 2a).
    pub(super) fn handle_paxos_accept(
        &mut self,
        from: ActorId,
        ballot: Ballot,
        parent: Digest,
        batch: Batch,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Crash || batch.is_empty() {
            return;
        }
        // The ballot must name its view's primary, who must be the sender.
        let Ok(expected) = self.cfg.system.primary(self.cluster, ballot.view) else {
            return;
        };
        if ballot.proposer != expected || from != ActorId::Node(ballot.proposer) {
            return;
        }
        // Phase 2b: proposals below the promise are rejected — endorsing one
        // could commit two values at one chain position.
        if ballot < self.promised {
            return;
        }
        self.promised = ballot;
        // A valid higher-ballot proposal proves a newer primary is active;
        // follow it even if its NewView announcement was lost.
        self.adopt_view(ballot.view, ctx);
        let d = batch.digest();
        if self.log.any_committed(batch.tx_ids()) {
            // The proposal may be the new primary's replay of a round this
            // replica already committed (view-change state transfer). If it
            // names the bit-identical block — looked up by digest in the
            // all-history index, so the claimed root is enough — endorse it
            // so the cluster converges on one chain; anything else
            // overlapping committed transactions is stale and dropped.
            let replay = Block::batch(batch, Parents::single(self.cluster, parent));
            if self.log.ledger().knows_block(replay.digest()) {
                self.send_accepted(from, ballot, d, ctx);
            }
            return;
        }
        // Position-taken rejection: if a different decided block already
        // fills the position after the named parent (often a cross-shard
        // block the proposer has not appended yet), endorsing the proposal
        // would vouch a second block for a decided height — the exact shape
        // of a fork — so it is dropped; the proposer learns the true head
        // from the commits still in flight to it and re-proposes there. The
        // test holds below the checkpoint too: the incremental-audit
        // watermark is a hard floor for view-change replays.
        if self.log.position_taken(parent) {
            return;
        }
        // Remember the batch (with its ballot) so the view-change path can
        // transfer it, and start the liveness timer. A first sight of the
        // batch derives its root, the one derivation the commit relies on; a
        // replay under a higher ballot updates the round's ballot and
        // position.
        let cluster = self.cluster;
        let round = match self.intra.entry(d) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let Some(batch) = VerifiedBatch::check(batch) else {
                    return;
                };
                slot.insert(IntraRound::new(cluster, batch, parent, ballot))
            }
        };
        // A replay under a newer ballot voids acceptances gathered under the
        // old one — they endorsed a possibly different chain position.
        if round.ballot != ballot {
            round.prepares.clear();
            round.sent_commit = false;
        }
        round.ballot = ballot;
        round.reposition(cluster, parent);
        let block = round.block.clone();
        self.ensure_view_change_timer(ctx);
        self.log.advance(&block);
        self.send_accepted(from, ballot, d, ctx);
    }

    /// Endorses the proposal `d` under `ballot` (Paxos phase 2b).
    fn send_accepted(&self, to: ActorId, ballot: Ballot, d: Digest, ctx: &mut Context<Msg>) {
        ctx.trace(|| TraceKind::Accept {
            batch: d.short_u64(),
            view: ballot.view,
        });
        let node = self.node;
        ctx.send(to, Msg::PaxosAccepted { ballot, d, node });
    }

    /// Primary handling of a backup's `accepted` message.
    pub(super) fn handle_paxos_accepted(
        &mut self,
        ballot: Ballot,
        d: Digest,
        node: NodeId,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Crash {
            return;
        }
        if let Some(round) = self.intra.get_mut(&d) {
            // Acceptances of an older ballot do not stack with the current
            // quorum.
            if round.ballot == ballot {
                round.prepares.insert(node);
            }
        }
        self.try_commit_paxos(d, ctx);
    }

    fn try_commit_paxos(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let quorum = self.quorum_of(self.cluster);
        let Some(round) = self.intra.get_mut(&d) else {
            return;
        };
        if round.sent_commit || round.prepares.len() < quorum {
            return;
        }
        round.sent_commit = true;
        round.committed = true;
        let block = round.block.clone();
        let commit = Msg::PaxosCommit {
            ballot: round.ballot,
            parent: round.parent(),
            batch: Batch::clone(&round.batch),
        };
        ctx.trace(|| TraceKind::Commit {
            batch: d.short_u64(),
        });
        ctx.multicast(self.cluster_peers(), commit);
        // In the crash model only the primary replies to the clients.
        self.commit_block(ctx, block, true);
    }

    /// Backup handling of the primary's `commit` message.
    pub(super) fn handle_paxos_commit(
        &mut self,
        ballot: Ballot,
        parent: Digest,
        batch: Batch,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Crash || batch.is_empty() {
            return;
        }
        // The ballot must name its view's primary. Commits from views this
        // replica moved past are dropped: a decided value re-arrives through
        // the new view's replay, and the stale copy could land at a position
        // the new primary has re-assigned.
        if self.cfg.system.primary(self.cluster, ballot.view).ok() != Some(ballot.proposer)
            || ballot.view < self.view
        {
            return;
        }
        // A commit under a higher view proves a quorum follows that view's
        // primary; adopt it (the NewView announcement may have been lost).
        self.adopt_view(ballot.view, ctx);
        let d = batch.digest();
        // The accepted round's verified batch is chained where the commit
        // says; only a replica that never saw the accept derives the root.
        let block = match self.intra.get_mut(&d) {
            Some(round) => {
                round.committed = true;
                Some(round.block_at(self.cluster, parent))
            }
            None => self
                .verify_unseen_commit(batch)
                .map(|batch| VerifiedBlock::chain(batch, Parents::single(self.cluster, parent))),
        };
        ctx.trace(|| TraceKind::Commit {
            batch: d.short_u64(),
        });
        if let Some(block) = block {
            self.commit_block(ctx, block, false);
        }
    }

    /// Adopts a higher view evidenced by a valid higher-ballot message, whose
    /// `NewView` may have been lost.
    pub(super) fn adopt_view(&mut self, view: u64, ctx: &mut Context<Msg>) {
        if view > self.view {
            let proposer = self
                .cfg
                .system
                .primary(self.cluster, view)
                .map(|n| n.0 as u64)
                .unwrap_or(0);
            ctx.trace(|| TraceKind::BallotAdopt { view, proposer });
            self.install_view(view, ctx);
        }
    }

    // ------------------------------------------------------------------
    // PBFT (Byzantine clusters), Figure 3(b)
    // ------------------------------------------------------------------

    /// Replica handling of the primary's `pre-prepare`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_pre_prepare(
        &mut self,
        from: ActorId,
        view: u64,
        parent: Digest,
        batch: Batch,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Byzantine || view != self.view || batch.is_empty() {
            return;
        }
        let primary = self.primary_of(self.cluster);
        if from != ActorId::Node(primary) {
            return;
        }
        let d = batch.digest();
        // The claimed root must match the carried transactions, and no
        // transaction may appear twice (a duplicated tail would
        // double-execute and alias another batch's root through the Merkle
        // odd-level duplication). The check is the replica's one derivation
        // for the block.
        if batch.has_duplicate_tx_ids() {
            return;
        }
        let Some(batch) = VerifiedBatch::check(batch) else {
            return;
        };
        // Verify the primary's signature over (view, parent, d).
        let bytes = proposal_sign_bytes(view, &parent, &d);
        if !self.verify_signed(ctx, super::node_signer_id(primary), &bytes, &sig) {
            return;
        }
        if self.log.any_committed(batch.tx_ids()) {
            return;
        }
        // Prepared-lock: a replica that helped prepare a value at a chain
        // position prepares no other value there in a later view, unless the
        // certified new-view carried the replacement.
        let quorum = self.quorum_of(self.cluster);
        let conflicting_lock = self.intra.iter().any(|(other, r)| {
            *other != d
                && !r.committed
                && r.parent() == parent
                && r.prepares.len() >= quorum
                && !r.batch.is_empty()
        });
        if conflicting_lock
            && self
                .newview_certs
                .get(&parent)
                .is_none_or(|(_, authorized)| *authorized != d)
        {
            return;
        }
        let block = {
            let cluster = self.cluster;
            let round = match self.intra.entry(d) {
                Entry::Vacant(slot) => slot.insert(IntraRound::new(
                    cluster,
                    batch,
                    parent,
                    Ballot::new(view, primary),
                )),
                Entry::Occupied(slot) => {
                    let round = slot.into_mut();
                    if round.batch.is_empty() {
                        round.fill(cluster, batch, parent);
                    } else {
                        round.reposition(cluster, parent);
                    }
                    round
                }
            };
            // Votes of an older view signed different bytes: void.
            if round.ballot.view != view {
                round.prepares.clear();
                round.prepare_sigs.clear();
                round.commits.clear();
                round.sent_commit = false;
            }
            round.ballot = Ballot::new(view, primary);
            // The pre-prepare is the primary's prepare; ours is multicast below.
            round.prepares.insert(primary);
            round.prepares.insert(self.node);
            round.prepare_sigs.insert(primary, sig);
            round.block.clone()
        };
        self.ensure_view_change_timer(ctx);
        self.log.advance(&block);
        let vote_bytes = vote_sign_bytes(b"prepare", view, &parent, &d);
        let vote_sig = self.signer.sign(&vote_bytes);
        if let Some(round) = self.intra.get_mut(&d) {
            round.prepare_sigs.insert(self.node, vote_sig);
        }
        self.charge_message(ctx, 0, 1);
        ctx.trace(|| TraceKind::Accept {
            batch: d.short_u64(),
            view,
        });
        ctx.multicast(
            self.cluster_peers(),
            Msg::Prepare {
                view,
                parent,
                d,
                node: self.node,
                sig: vote_sig,
            },
        );
        self.try_send_pbft_commit(d, ctx);
    }

    /// Replica handling of a `prepare` vote.
    pub(super) fn handle_prepare(
        &mut self,
        view: u64,
        parent: Digest,
        d: Digest,
        node: NodeId,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Byzantine || view != self.view || !self.is_member(node) {
            return;
        }
        let bytes = vote_sign_bytes(b"prepare", view, &parent, &d);
        if !self.verify_signed(ctx, super::node_signer_id(node), &bytes, &sig) {
            return;
        }
        let primary = self.primary_of(self.cluster);
        let cluster = self.cluster;
        let round = self.intra.entry(d).or_insert_with(|| {
            // Batch not yet known (prepare overtook the pre-prepare); the
            // empty placeholder is replaced when the pre-prepare arrives.
            IntraRound::new(
                cluster,
                VerifiedBatch::seal(Vec::new()),
                parent,
                Ballot::new(view, primary),
            )
        });
        // Votes only stack with the view the round currently runs under.
        if round.ballot.view != view {
            return;
        }
        round.prepares.insert(node);
        round.prepare_sigs.insert(node, sig);
        self.try_send_pbft_commit(d, ctx);
    }

    fn try_send_pbft_commit(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let quorum = self.quorum_of(self.cluster);
        let view = self.view;
        let Some(round) = self.intra.get_mut(&d) else {
            return;
        };
        if round.sent_commit
            || round.ballot.view != view
            || round.batch.is_empty()
            || round.prepares.len() < quorum
        {
            return;
        }
        round.sent_commit = true;
        round.commits.insert(self.node);
        let parent = round.parent();
        let bytes = vote_sign_bytes(b"commit", view, &parent, &d);
        let sig = self.signer.sign(&bytes);
        self.charge_message(ctx, 0, 1);
        ctx.multicast(
            self.cluster_peers(),
            Msg::PbftCommit {
                view,
                parent,
                d,
                node: self.node,
                sig,
            },
        );
        self.try_finalize_pbft(d, ctx);
    }

    /// Replica handling of a `commit` vote.
    pub(super) fn handle_pbft_commit(
        &mut self,
        view: u64,
        parent: Digest,
        d: Digest,
        node: NodeId,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Byzantine || view != self.view || !self.is_member(node) {
            return;
        }
        let bytes = vote_sign_bytes(b"commit", view, &parent, &d);
        if !self.verify_signed(ctx, super::node_signer_id(node), &bytes, &sig) {
            return;
        }
        if let Some(round) = self.intra.get_mut(&d) {
            if round.ballot.view == view {
                round.commits.insert(node);
            }
        }
        self.try_finalize_pbft(d, ctx);
    }

    fn try_finalize_pbft(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let quorum = self.quorum_of(self.cluster);
        let view = self.view;
        let Some(round) = self.intra.get_mut(&d) else {
            return;
        };
        if round.committed
            || !round.sent_commit
            || round.ballot.view != view
            || round.batch.is_empty()
            || round.commits.len() < quorum
        {
            return;
        }
        round.committed = true;
        let block = round.block.clone();
        ctx.trace(|| TraceKind::Commit {
            batch: d.short_u64(),
        });
        // Every replica replies; the client waits for f+1 matching replies.
        self.commit_block(ctx, block, true);
    }
}
