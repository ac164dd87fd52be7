//! Primary replacement (view change) for liveness — and, on the crash path,
//! for safety.
//!
//! "If the primary fails, the view change routine is triggered by timeouts
//! and require enough non-faulty replicas to exchange view change messages"
//! (§3.2, §3.3). A backup with work in flight that sees no commit within the
//! view-change timeout votes for view `v+1`; the would-be primary of that
//! view, on a quorum of votes, installs it, announces it with `NewView` and
//! takes over the uncommitted work it knows about. Clients retransmit
//! requests that time out, covering those the failed primary never
//! forwarded.
//!
//! Crash model: the view change doubles as Paxos phase 1. A vote promises
//! the ballot `(new_view, primary(new_view))` and carries the voter's
//! accepted-but-uncommitted rounds **with their ballots**; the new primary
//! adopts, per chain position, the highest-ballot value reported and
//! re-proposes it under its own ballot. A value that may have committed was
//! accepted by a majority every view-change quorum intersects, so the
//! highest-ballot rule picks it over stale leftovers.
//!
//! Byzantine model: votes carry *prepared certificates* (`2f+1` prepare
//! signatures per round) that the new primary and every backup verify, so a
//! lying new primary cannot smuggle an unprepared value into the new view.
//!
//! A candidate whose chain is shorter than the longest the quorum reported
//! *declines* to lead; the next timeout rotates to another candidate.

use super::{cross_priority_key, node_signer_id, Replica, VcVote};
use crate::messages::{
    proposal_sign_bytes, timer_tags, vote_sign_bytes, AcceptedRound, Ballot, Msg, PreparedCert,
};
use crate::timeouts;
use sharper_common::{ClusterId, FailureModel, NodeId, TraceKind};
use sharper_crypto::{Digest, QuorumCert, Signature};
use sharper_ledger::{Batch, VerifiedBatch};
use sharper_net::{ActorId, Context, TimerId};
use std::collections::{BTreeMap, HashSet};

fn view_change_sign_bytes(label: &[u8], cluster: ClusterId, new_view: u64) -> Vec<u8> {
    let context = ((cluster.0 as u64) << 32) | (new_view & 0xFFFF_FFFF);
    vote_sign_bytes(label, context, &Digest::ZERO, &Digest::ZERO)
}

/// A round the new primary replays: a crash-model accepted round arrives
/// unchecked off the wire, a Byzantine certified round with the witness of
/// its certificate's check.
trait Replayed {
    fn batch(&self) -> &Batch;
    /// The witness the replay proposes; derives the root if not yet done.
    fn verified(self) -> Option<VerifiedBatch>;
}

impl Replayed for AcceptedRound {
    fn batch(&self) -> &Batch {
        &self.batch
    }
    fn verified(self) -> Option<VerifiedBatch> {
        VerifiedBatch::check(self.batch)
    }
}

impl Replayed for (PreparedCert, VerifiedBatch) {
    fn batch(&self) -> &Batch {
        &self.1
    }
    fn verified(self) -> Option<VerifiedBatch> {
        Some(self.1)
    }
}

impl Replica {
    /// Arms the view-change timer if work is in flight and no timer is armed.
    pub(super) fn ensure_view_change_timer(&mut self, ctx: &mut Context<Msg>) {
        if self.vc_timer.is_none() {
            self.vc_timer = Some(ctx.set_timer(timeouts::VIEW_CHANGE, timer_tags::VIEW_CHANGE));
        }
    }

    /// Called after every commit, evidence that the primary makes progress:
    /// the suspicion timer restarts, or stops if nothing waits any more.
    pub(super) fn maybe_cancel_view_change_timer(&mut self, ctx: &mut Context<Msg>) {
        if let Some(timer) = self.vc_timer.take() {
            ctx.cancel_timer(timer);
        }
        if self.has_outstanding_work() {
            self.ensure_view_change_timer(ctx);
        }
    }

    /// The view-change timer fired.
    pub(super) fn handle_view_change_timer(&mut self, timer: TimerId, ctx: &mut Context<Msg>) {
        if self.vc_timer != Some(timer) {
            return;
        }
        self.vc_timer = None;
        if !self.has_outstanding_work() {
            return;
        }
        // Suspect the primary and vote for the next view, strictly above any
        // view voted for before, so a cascading failover converges instead
        // of splitting votes.
        let new_view = self.view.max(self.vc_highest_voted) + 1;
        self.vc_highest_voted = new_view;
        self.stats.view_changes_started += 1;
        ctx.trace(|| TraceKind::ViewChangeStart { view: new_view });
        // Crash model: the vote is a phase-1b promise, so the accepted set it
        // reports cannot be extended behind the new primary's back.
        if self.model() == FailureModel::Crash {
            if let Ok(primary) = self.cfg.system.primary(self.cluster, new_view) {
                self.promised = self.promised.max(Ballot::new(new_view, primary));
            }
        }
        let accepted = self.accepted_rounds_for_transfer();
        let prepared = self.prepared_certs_for_transfer();
        let chain_len = self.log.ledger().len() as u64;
        self.record_view_change_vote(
            new_view,
            self.node,
            VcVote {
                accepted: accepted.clone(),
                prepared: prepared.clone(),
                chain_len,
            },
        );
        let sig = self.signer.sign(&view_change_sign_bytes(
            b"viewchange",
            self.cluster,
            new_view,
        ));
        if self.model().requires_signatures() {
            self.charge_message(ctx, 0, 1);
        }
        ctx.multicast(
            self.cluster_peers(),
            Msg::ViewChange {
                cluster: self.cluster,
                new_view,
                node: self.node,
                accepted,
                prepared,
                chain_len,
                sig,
            },
        );
        // Re-arm in case this view change also stalls.
        self.ensure_view_change_timer(ctx);
        self.try_install_view(new_view, ctx);
    }

    /// The accepted-but-uncommitted rounds this replica reports in its vote
    /// (crash model), sorted so the vote is deterministic.
    fn accepted_rounds_for_transfer(&self) -> Vec<AcceptedRound> {
        if self.model() != FailureModel::Crash {
            return Vec::new();
        }
        let mut rounds: Vec<AcceptedRound> = self
            .intra
            .values()
            .filter(|round| !round.committed && !round.batch.is_empty())
            .map(|round| AcceptedRound {
                ballot: round.ballot,
                parent: round.parent(),
                batch: Batch::clone(&round.batch),
            })
            .collect();
        rounds.sort_by_key(|r| (r.ballot, r.parent, r.batch.digest()));
        rounds
    }

    /// The prepared certificates this replica reports in its vote (Byzantine
    /// model): every uncommitted round it holds `2f+1` prepare signatures for.
    fn prepared_certs_for_transfer(&self) -> Vec<PreparedCert> {
        if self.model() != FailureModel::Byzantine {
            return Vec::new();
        }
        let quorum = self.quorum_of(self.cluster);
        let mut certs: Vec<PreparedCert> = self
            .intra
            .values()
            .filter(|round| {
                !round.committed && !round.batch.is_empty() && round.prepare_sigs.len() >= quorum
            })
            .map(|round| PreparedCert {
                view: round.ballot.view,
                parent: round.parent(),
                batch: Batch::clone(&round.batch),
                sigs: QuorumCert::from_signatures(round.prepare_sigs.values().copied()),
            })
            .collect();
        certs.sort_by_key(|c| (c.view, c.parent, c.batch.digest()));
        certs
    }

    fn record_view_change_vote(&mut self, new_view: u64, node: NodeId, vote: VcVote) {
        self.vc_votes
            .entry(new_view)
            .or_default()
            .insert(node, vote);
    }

    /// Another replica of this cluster votes for a view change.
    pub(super) fn handle_view_change(
        &mut self,
        cluster: ClusterId,
        new_view: u64,
        node: NodeId,
        vote: VcVote,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if cluster != self.cluster || new_view <= self.view || !self.is_member(node) {
            return;
        }
        if self.model().requires_signatures() {
            let bytes = view_change_sign_bytes(b"viewchange", cluster, new_view);
            if !self.verify_signed(ctx, node_signer_id(node), &bytes, &sig) {
                return;
            }
        }
        self.record_view_change_vote(new_view, node, vote);
        self.try_install_view(new_view, ctx);
    }

    fn try_install_view(&mut self, new_view: u64, ctx: &mut Context<Msg>) {
        if new_view <= self.view {
            return;
        }
        let Some(votes) = self.vc_votes.get(&new_view) else {
            return;
        };
        if votes.len() < self.quorum_of(self.cluster) {
            return;
        }
        let new_primary = self
            .cfg
            .system
            .primary(self.cluster, new_view)
            .expect("cluster exists");
        if new_primary != self.node {
            // Wait for the new primary's announcement.
            return;
        }
        // Decline to lead from behind: re-proposing over an older head could
        // fork the chain at the heights we are missing.
        let frontier = votes.values().map(|v| v.chain_len).max().unwrap_or(0);
        if (self.log.ledger().len() as u64) < frontier {
            return;
        }
        match self.model() {
            FailureModel::Crash => self.install_view_as_primary_crash(new_view, ctx),
            FailureModel::Byzantine => self.install_view_as_primary_byzantine(new_view, ctx),
        }
    }

    /// Crash-model takeover: adopt, per chain position, the highest-ballot
    /// accepted value the quorum reported, and re-propose it.
    fn install_view_as_primary_crash(&mut self, new_view: u64, ctx: &mut Context<Msg>) {
        let mut adopted: BTreeMap<Digest, AcceptedRound> = BTreeMap::new();
        let consider = |adopted: &mut BTreeMap<Digest, AcceptedRound>, r: &AcceptedRound| {
            let rank = (r.ballot, r.batch.digest());
            match adopted.get(&r.parent) {
                Some(cur) if (cur.ballot, cur.batch.digest()) >= rank => {}
                _ => {
                    adopted.insert(r.parent, r.clone());
                }
            }
        };
        if let Some(votes) = self.vc_votes.get(&new_view) {
            for vote in votes.values() {
                for round in &vote.accepted {
                    consider(&mut adopted, round);
                }
            }
        }
        for round in self.accepted_rounds_for_transfer() {
            consider(&mut adopted, &round);
        }
        self.announce_view(new_view, Vec::new(), ctx);
        self.replay_rounds(adopted, ctx);
        self.take_over_pending_work(ctx);
    }

    /// Byzantine takeover: adopt, per chain position, the highest-view
    /// verified certificate, announce the selection (so backups can check
    /// it) and re-propose it.
    fn install_view_as_primary_byzantine(&mut self, new_view: u64, ctx: &mut Context<Msg>) {
        let candidates: Vec<PreparedCert> = self
            .vc_votes
            .get(&new_view)
            .map(|votes| {
                votes
                    .values()
                    .flat_map(|v| v.prepared.iter().cloned())
                    .collect()
            })
            .unwrap_or_default();
        let own = self.prepared_certs_for_transfer();
        // Each certificate keeps its batch check's witness for the replay.
        let mut selected: BTreeMap<Digest, (PreparedCert, VerifiedBatch)> = BTreeMap::new();
        for cert in candidates.into_iter().chain(own) {
            let Some(batch) = self.verify_prepared_cert(&cert, ctx) else {
                continue;
            };
            let rank = (cert.view, cert.batch.digest());
            match selected.get(&cert.parent) {
                Some((cur, _)) if (cur.view, cur.batch.digest()) >= rank => {}
                _ => {
                    selected.insert(cert.parent, (cert, batch));
                }
            }
        }
        let certs = selected.values().map(|(c, _)| c.clone()).collect();
        self.announce_view(new_view, certs, ctx);
        self.replay_rounds(selected, ctx);
        self.take_over_pending_work(ctx);
    }

    /// The new primary installs its view and announces it with `NewView`,
    /// carrying the certified rounds it will replay (none in the crash model).
    fn announce_view(&mut self, new_view: u64, certs: Vec<PreparedCert>, ctx: &mut Context<Msg>) {
        self.enter_view(new_view, &certs, ctx);
        let sig = self
            .signer
            .sign(&view_change_sign_bytes(b"newview", self.cluster, new_view));
        if self.model().requires_signatures() {
            self.charge_message(ctx, 0, 1);
        }
        let announce = Msg::NewView {
            cluster: self.cluster,
            new_view,
            node: self.node,
            certs,
            sig,
        };
        ctx.multicast(self.cluster_peers(), announce);
    }

    /// Checks a prepared certificate: a well-formed batch plus a quorum of
    /// valid prepare signatures (the view's primary signs the pre-prepare
    /// bytes) by distinct members. Yields the witness of the batch check.
    pub(super) fn verify_prepared_cert(
        &mut self,
        cert: &PreparedCert,
        ctx: &mut Context<Msg>,
    ) -> Option<VerifiedBatch> {
        if cert.batch.is_empty() || cert.batch.has_duplicate_tx_ids() {
            return None;
        }
        let batch = VerifiedBatch::check(cert.batch.clone())?;
        let cert_primary = self.cfg.system.primary(self.cluster, cert.view).ok()?;
        let members = self.cluster_members(self.cluster);
        let quorum = self.quorum_of(self.cluster);
        let d = cert.batch.digest();
        self.charge_message(ctx, cert.sigs.len(), 0);
        cert.sigs
            .verify_quorum(&self.cfg.registry, quorum, |signer| {
                let node = members.iter().find(|n| node_signer_id(**n).0 == signer)?;
                Some(if *node == cert_primary {
                    proposal_sign_bytes(cert.view, &cert.parent, &d)
                } else {
                    vote_sign_bytes(b"prepare", cert.view, &cert.parent, &d)
                })
            })
            .then_some(batch)
    }

    /// Re-proposes the adopted rounds in parent-chain order from the ledger
    /// head, so a batch committed at height `h` in the old view is
    /// re-proposed as the bit-identical block at height `h`. Rounds off that
    /// chain were never committed anywhere (a committed block's whole prefix
    /// was, with quorums this one intersects) and take fresh positions.
    fn replay_rounds<R: Replayed>(
        &mut self,
        mut rounds: BTreeMap<Digest, R>,
        ctx: &mut Context<Msg>,
    ) {
        let mut seen: HashSet<Digest> = HashSet::new();
        while let Some(round) = rounds.remove(&self.log.tail()) {
            let parent = self.log.tail();
            self.replay(round, parent, &mut seen, ctx);
        }
        for (_, round) in rounds {
            let parent = self.log.tail();
            self.replay(round, parent, &mut seen, ctx);
        }
    }

    /// Re-proposes one replayed round after `parent`, unless its batch was
    /// replayed already or has fully committed.
    fn replay<R: Replayed>(
        &mut self,
        round: R,
        parent: Digest,
        seen: &mut HashSet<Digest>,
        ctx: &mut Context<Msg>,
    ) {
        if !seen.insert(round.batch().digest()) || self.log.all_committed(round.batch().tx_ids()) {
            return;
        }
        if let Some(batch) = round.verified() {
            self.propose_at(batch, parent, ctx);
        }
    }

    /// The new primary announces the installed view.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_new_view(
        &mut self,
        cluster: ClusterId,
        new_view: u64,
        node: NodeId,
        certs: Vec<PreparedCert>,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if cluster != self.cluster || new_view <= self.view {
            return;
        }
        let expected_primary = self
            .cfg
            .system
            .primary(self.cluster, new_view)
            .expect("cluster exists");
        if node != expected_primary {
            return;
        }
        if self.model().requires_signatures() {
            let bytes = view_change_sign_bytes(b"newview", cluster, new_view);
            if !self.verify_signed(ctx, node_signer_id(node), &bytes, &sig) {
                return;
            }
            // A single forged certificate discredits the whole announcement.
            for cert in &certs {
                if self.verify_prepared_cert(cert, ctx).is_none() {
                    return;
                }
            }
        }
        self.enter_view(new_view, &certs, ctx);
        // Hand any buffered client requests to the new primary, and the
        // requests still waiting in this (demoted) replica's batching queues.
        let to = ActorId::Node(expected_primary);
        for (_, msg) in std::mem::take(&mut self.buffered) {
            if matches!(msg, Msg::Request { .. }) {
                ctx.send(to, msg);
            }
        }
        let epoch = self.map_epoch;
        for (tx, sig) in self.mempool.drain_all() {
            ctx.send(to, Msg::Request { tx, epoch, sig });
        }
    }

    /// Installs a view announced by a `NewView`, sent or received. Byzantine
    /// model: remembers the value the certified new-view authorises at each
    /// chain position, the only replacement the prepared-lock admits.
    fn enter_view(&mut self, new_view: u64, certs: &[PreparedCert], ctx: &mut Context<Msg>) {
        self.install_view(new_view, ctx);
        if self.model() == FailureModel::Byzantine {
            self.newview_certs = certs
                .iter()
                .map(|c| (c.parent, (c.view, c.batch.digest())))
                .collect();
        }
    }

    pub(super) fn install_view(&mut self, new_view: u64, ctx: &mut Context<Msg>) {
        ctx.trace(|| TraceKind::ViewChangeEnd { view: new_view });
        self.view = new_view;
        self.vc_highest_voted = self.vc_highest_voted.max(new_view);
        // Entering a view promises its primary's ballot.
        if self.model() == FailureModel::Crash {
            if let Ok(primary) = self.cfg.system.primary(self.cluster, new_view) {
                self.promised = self.promised.max(Ballot::new(new_view, primary));
            }
        }
        // Abandon the old primary's uncommitted proposal chain.
        self.log.reset();
        self.vc_votes.retain(|v, _| *v > new_view);
        if let Some(timer) = self.vc_timer.take() {
            ctx.cancel_timer(timer);
        }
        // Keep accepted-but-uncommitted rounds (an acceptor that forgets an
        // accepted value breaks Paxos); drop those whose transactions all
        // committed.
        let log = &self.log;
        self.intra.retain(|_, r| {
            r.committed || (!r.batch.is_empty() && !log.all_committed(r.batch.tx_ids()))
        });
        self.initiating = None;
    }

    /// The freshly installed primary re-initiates the uncommitted work it
    /// knows about ("the new primary then handles the uncommitted requests").
    fn take_over_pending_work(&mut self, ctx: &mut Context<Msg>) {
        // Re-propose buffered client requests first.
        let buffered: Vec<_> = self.buffered.drain(..).collect();
        for (from, msg) in buffered {
            self.dispatch(from, msg, ctx);
        }
        // Re-initiate cross-shard rounds that never committed: the first in
        // priority order restarts; the rest are left to client retransmission.
        let mut pending: Vec<_> = self
            .cross
            .iter()
            .filter(|(_, r)| !r.committed && !r.sent_commit && r.initiator == self.cluster)
            .map(|(d, r)| (*d, r.batch.clone(), r.involved.clone()))
            .collect();
        pending.sort_by_key(|(d, ..)| cross_priority_key(*d, self.cluster));
        for (d, batch, involved) in pending {
            self.cross.remove(&d);
            if !self.is_blocked() {
                self.start_cross(batch, involved, ctx);
            }
        }
        // Batches queued while this replica was a backup can start now.
        if !self.is_blocked() {
            self.flush_pending(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_bytes_distinguish_cluster_view_and_label() {
        let a = view_change_sign_bytes(b"viewchange", ClusterId(1), 2);
        let b = view_change_sign_bytes(b"viewchange", ClusterId(1), 3);
        let c = view_change_sign_bytes(b"viewchange", ClusterId(2), 2);
        let d = view_change_sign_bytes(b"newview", ClusterId(1), 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
