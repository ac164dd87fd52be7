//! Intra-shard consensus (§3.1): Paxos for crash-only clusters, PBFT for
//! Byzantine clusters.
//!
//! Both protocols are driven by the cluster's primary and order one
//! Merkle-committed [`Batch`] per round, chaining each proposal to the hash
//! of the cluster's previous block (`H(t)` plays the role of the sequence
//! number). The intra-shard protocol is pluggable in SharPer; these two are
//! the ones evaluated in the paper. With `max_batch_size = 1` every batch
//! holds a single transaction and the rounds are bit-for-bit the paper's.

use super::{IntraRound, Replica};
use crate::messages::{proposal_sign_bytes, vote_sign_bytes, Ballot, Msg};
use sharper_common::{FailureModel, TraceKind};
use sharper_crypto::{Digest, Signature};
use sharper_ledger::{Batch, Block, Parents, VerifiedBatch, VerifiedBlock};
use sharper_net::{ActorId, Context};
use std::collections::hash_map::Entry;

impl Replica {
    /// Starts ordering an intra-shard batch. Called on the primary.
    pub(super) fn start_intra(&mut self, batch: VerifiedBatch, ctx: &mut Context<Msg>) {
        match self.model() {
            FailureModel::Crash => self.start_paxos(batch, ctx),
            FailureModel::Byzantine => self.start_pbft(batch, ctx),
        }
    }

    // ------------------------------------------------------------------
    // Paxos (crash-only clusters), Figure 3(a)
    // ------------------------------------------------------------------

    fn start_paxos(&mut self, batch: VerifiedBatch, ctx: &mut Context<Msg>) {
        let d = batch.digest();
        if self.intra.contains_key(&d) || batch.tx_ids().all(|id| self.committed_txs.contains(&id))
        {
            return;
        }
        let parent = self.ordering_tail();
        self.propose_paxos_round(batch, parent, d, ctx);
    }

    /// Proposes `batch` at an explicit chain position (used by the
    /// view-change state transfer to replay accepted rounds of the previous
    /// view at their original positions). Any existing round state for the
    /// digest is replaced: votes gathered under the old view are void in the
    /// new one. The batch comes out of a view-change vote, i.e. off the
    /// wire, so this is where its root is derived.
    pub(super) fn propose_paxos_at(
        &mut self,
        batch: Batch,
        parent: Digest,
        ctx: &mut Context<Msg>,
    ) {
        let d = batch.digest();
        if batch.tx_ids().all(|id| self.committed_txs.contains(&id)) {
            return;
        }
        let Some(batch) = VerifiedBatch::check(batch) else {
            return;
        };
        self.intra.remove(&d);
        self.propose_paxos_round(batch, parent, d, ctx);
    }

    fn propose_paxos_round(
        &mut self,
        batch: VerifiedBatch,
        parent: Digest,
        d: Digest,
        ctx: &mut Context<Msg>,
    ) {
        // Proposals carry this primary's ballot; proposing is implicitly a
        // self-promise, so a demoted primary cannot later accept older
        // ballots it already proposed above.
        let ballot = Ballot::new(self.view, self.node);
        self.promised = self.promised.max(ballot);
        let mut round = IntraRound::new(self.cluster, batch.clone(), parent, ballot);
        // The primary's own acceptance counts towards the majority.
        round.prepares.insert(self.node);
        // Chain the next proposal after this one even before it commits.
        self.advance_tail(&round.block);
        self.intra.insert(d, round);
        ctx.trace(|| TraceKind::Propose {
            batch: d.short_u64(),
            view: ballot.view,
        });
        ctx.multicast(
            self.cluster_peers(),
            Msg::PaxosAccept {
                ballot,
                parent,
                batch: batch.into_batch(),
            },
        );
        // A single-node cluster (f = 0) commits immediately.
        self.try_commit_paxos(d, ctx);
    }

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
        // The ballot must belong to the primary its view elects, and the
        // message must come from that primary.
        let Ok(expected) = self.cfg.system.primary(self.cluster, ballot.view) else {
            return;
        };
        if ballot.proposer != expected || from != ActorId::Node(ballot.proposer) {
            return;
        }
        // Phase-2b acceptance: proposals below the promise are rejected —
        // the acceptor already helped elect (or accept from) a higher
        // ballot, and endorsing this one could commit two values at one
        // chain position.
        if ballot < self.promised {
            return;
        }
        self.promised = ballot;
        // A valid higher-ballot proposal proves a newer primary is active;
        // follow it even if its NewView announcement was lost.
        self.adopt_view(ballot.view, ctx);
        let d = batch.digest();
        if batch.tx_ids().any(|id| self.committed_txs.contains(&id)) {
            // The proposal may be the new primary's replay of a round this
            // replica already committed (view-change state transfer). If it
            // names the bit-identical block, endorse it so the new primary
            // can gather its quorum and the cluster converges on one chain;
            // anything else overlapping committed transactions is stale and
            // is dropped.
            // Only the digest is looked up, so the claimed root is enough:
            // a forged batch under a committed root endorses that root's
            // committed block, nothing else.
            let replay = Block::batch(batch, Parents::single(self.cluster, parent));
            // All-history membership: a truncating ledger no longer holds the
            // payload, but the digest index still answers exactly.
            if self.ledger.knows_block(replay.digest()) {
                ctx.trace(|| TraceKind::Accept {
                    batch: d.short_u64(),
                    view: ballot.view,
                });
                ctx.send(
                    from,
                    Msg::PaxosAccepted {
                        ballot,
                        d,
                        node: self.node,
                    },
                );
            }
            return;
        }
        // Position-taken rejection: if the named parent is a strict ancestor
        // of this replica's head, or a committed block is already parked
        // waiting to append right after it, the position after the parent is
        // filled by a different committed block (often a cross-shard block
        // the proposer has not appended yet). Endorsing the proposal would
        // vouch a second block for a committed height — the exact shape of a
        // fork — so it is dropped; the proposer learns the true head from
        // the commits still in flight to it and re-proposes there. The
        // ancestor test uses the all-history digest index, so a replica that
        // pruned its view still refuses to re-accept a position below its
        // checkpoint — the incremental-audit watermark is a hard floor for
        // view-change replays.
        if parent != self.ledger.head()
            && (self.ledger.knows_block(parent) || self.deferred.contains_key(&parent))
        {
            return;
        }
        // Remember the batch (with its ballot) so the view-change path can
        // transfer it, and start the liveness timer for the in-flight
        // request. A first sight of the batch is where this replica derives
        // its root — the one derivation the commit will rely on; a batch
        // whose transactions do not hash to the root it claims is dropped. A
        // replay under a higher ballot finds the round, whose own verified
        // batch already has this root, and updates its ballot and position.
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
        self.advance_tail(&block);
        ctx.trace(|| TraceKind::Accept {
            batch: d.short_u64(),
            view: ballot.view,
        });
        ctx.send(
            from,
            Msg::PaxosAccepted {
                ballot,
                d,
                node: self.node,
            },
        );
    }

    /// Primary handling of a backup's `accepted` message.
    pub(super) fn handle_paxos_accepted(
        &mut self,
        ballot: Ballot,
        d: Digest,
        node: sharper_common::NodeId,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Crash {
            return;
        }
        if let Some(round) = self.intra.get_mut(&d) {
            // Count the vote only for the ballot the round currently runs
            // under; acceptances of an older ballot (or a stale replay) do
            // not stack with the current quorum.
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
            batch: round.batch().clone(),
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
        // The ballot must name the legitimate primary of its view. Commits
        // from views this replica already moved past are dropped: the value,
        // if truly decided, re-arrives through the new view's ballot-checked
        // replay, while applying the stale copy here could place it at a
        // chain position the new primary has re-assigned.
        if self.cfg.system.primary(self.cluster, ballot.view).ok() != Some(ballot.proposer)
            || ballot.view < self.view
        {
            return;
        }
        // A commit under a higher view proves a quorum follows that view's
        // primary; adopt it (the NewView announcement may have been lost).
        self.adopt_view(ballot.view, ctx);
        let d = batch.digest();
        // The accepted round already holds this block. If the commit names
        // another position than the one this replica accepted, the round's
        // verified batch is re-chained there; only a replica that never saw
        // the accept has to derive the root of the commit's own batch.
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

    /// Adopts a higher view evidenced by a valid higher-ballot message. The
    /// announcement of that view (`NewView`) may have been lost; following
    /// the ballot keeps this replica useful to the new primary's quorum.
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

    fn start_pbft(&mut self, batch: VerifiedBatch, ctx: &mut Context<Msg>) {
        let d = batch.digest();
        if self.intra.contains_key(&d) || batch.tx_ids().all(|id| self.committed_txs.contains(&id))
        {
            return;
        }
        let parent = self.ordering_tail();
        self.propose_pbft_round(batch, parent, d, ctx);
    }

    /// Proposes `batch` at an explicit chain position (used by the Byzantine
    /// new-view replay of certified prepared rounds). Existing round state is
    /// replaced: votes gathered under the old view are void in the new one.
    pub(super) fn propose_pbft_at(
        &mut self,
        batch: VerifiedBatch,
        parent: Digest,
        ctx: &mut Context<Msg>,
    ) {
        let d = batch.digest();
        if batch.tx_ids().all(|id| self.committed_txs.contains(&id)) {
            return;
        }
        self.intra.remove(&d);
        self.propose_pbft_round(batch, parent, d, ctx);
    }

    fn propose_pbft_round(
        &mut self,
        batch: VerifiedBatch,
        parent: Digest,
        d: Digest,
        ctx: &mut Context<Msg>,
    ) {
        let sig = self
            .signer
            .sign(&proposal_sign_bytes(self.view, &parent, &d));
        let mut round = IntraRound::new(
            self.cluster,
            batch.clone(),
            parent,
            Ballot::new(self.view, self.node),
        );
        // The primary's pre-prepare stands in for its prepare vote; keep its
        // signature so a later view change can prove the round prepared.
        round.prepares.insert(self.node);
        round.prepare_sigs.insert(self.node, sig);
        self.advance_tail(&round.block);
        self.intra.insert(d, round);
        self.charge_message(ctx, 0, 1);
        ctx.trace(|| TraceKind::Propose {
            batch: d.short_u64(),
            view: self.view,
        });
        ctx.multicast(
            self.cluster_peers(),
            Msg::PrePrepare {
                view: self.view,
                parent,
                batch: batch.into_batch(),
                sig,
            },
        );
    }

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
        // The claimed root must match the carried transactions — a primary
        // cannot commit the cluster to a root whose preimage it never sent —
        // and no transaction may appear twice (a duplicated tail would both
        // double-execute and exploit the Merkle odd-level duplication
        // ambiguity to alias another batch's root). The check's witness is
        // what the commit appends under: this is the replica's one
        // derivation for the block.
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
        if batch.tx_ids().any(|id| self.committed_txs.contains(&id)) {
            return;
        }
        // Prepared-lock: once this replica helped prepare a value at a chain
        // position, it must not prepare a different value there in a later
        // view unless the new primary's certified new-view explicitly carried
        // the replacement (in which case the replacement *is* the prepared
        // value, re-proposed).
        let quorum = self.quorum_of(self.cluster);
        let conflicting_lock = self.intra.iter().any(|(other, r)| {
            *other != d
                && !r.committed
                && r.parent() == parent
                && r.prepares.len() >= quorum
                && !r.batch().is_empty()
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
                    if round.batch().is_empty() {
                        round.fill(cluster, batch, parent);
                    } else {
                        round.reposition(cluster, parent);
                    }
                    round
                }
            };
            // A re-proposal under a newer view voids any votes gathered under
            // the old one: they signed different view/parent bytes.
            if round.ballot.view != view {
                round.prepares.clear();
                round.prepare_sigs.clear();
                round.commits.clear();
                round.sent_commit = false;
            }
            round.ballot = Ballot::new(view, primary);
            // The pre-prepare carries the primary's implicit prepare; this
            // replica's own prepare is counted when it multicasts below.
            round.prepares.insert(primary);
            round.prepares.insert(self.node);
            round.prepare_sigs.insert(primary, sig);
            round.block.clone()
        };
        self.ensure_view_change_timer(ctx);
        self.advance_tail(&block);

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
        node: sharper_common::NodeId,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Byzantine || view != self.view {
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

    fn round_has_payload(round: &IntraRound) -> bool {
        !round.batch().is_empty()
    }

    fn try_send_pbft_commit(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let quorum = self.quorum_of(self.cluster);
        let view = self.view;
        let Some(round) = self.intra.get_mut(&d) else {
            return;
        };
        if round.sent_commit
            || round.ballot.view != view
            || !Self::round_has_payload(round)
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
        node: sharper_common::NodeId,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Byzantine || view != self.view {
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
            || !Self::round_has_payload(round)
            || round.commits.len() < quorum
        {
            return;
        }
        round.committed = true;
        let block = round.block.clone();
        ctx.trace(|| TraceKind::Commit {
            batch: d.short_u64(),
        });
        // In PBFT every replica replies; the client waits for f+1 matching
        // replies (Figure 3(b)).
        self.commit_block(ctx, block, true);
    }
}
