//! Primary replacement (view change) for liveness — and, on the crash path,
//! for safety.
//!
//! "If the primary fails, the view change routine is triggered by timeouts
//! and require enough non-faulty replicas to exchange view change messages"
//! (§3.2, §3.3). The reproduction implements the PBFT-style skeleton: a
//! backup that has an in-flight request and does not observe its commit
//! within the view-change timeout votes for view `v+1`; when a quorum of
//! votes for the same view is observed by the would-be primary of that view,
//! it installs the view, announces it with `NewView` and takes over the
//! uncommitted requests it knows about. Clients additionally retransmit
//! requests that time out, which covers requests the failed primary never
//! forwarded.
//!
//! Crash model: the view change doubles as Paxos phase 1. A view-change vote
//! is a promise for the ballot `(new_view, primary(new_view))`; it carries
//! the voter's accepted-but-uncommitted rounds **with their ballots**, and
//! the new primary adopts, per chain position, the highest-ballot value any
//! quorum member reported before re-proposing it under its own ballot. This
//! is what makes the replay safe: a value that may have committed in the old
//! view was accepted by a majority, every view-change quorum intersects that
//! majority, and the highest-ballot rule picks the possibly-committed value
//! over stale lower-ballot leftovers.
//!
//! Byzantine model: votes instead carry *prepared certificates* — `2f+1`
//! prepare signatures per carried round — and both the new primary and every
//! backup verify them before trusting the replayed log, so a lying
//! new-primary cannot smuggle an unprepared value into the new view.
//!
//! A candidate whose own chain is shorter than the longest chain reported by
//! the view-change quorum *declines* to lead (it could not safely extend a
//! frontier it has not seen); the next timeout rotates to another candidate.

use super::{Replica, VcVote};
use crate::messages::{
    proposal_sign_bytes, timer_tags, vote_sign_bytes, AcceptedRound, Ballot, Msg, PreparedCert,
};
use crate::timeouts;
use sharper_common::{ClusterId, FailureModel, NodeId, TraceKind};
use sharper_crypto::{Digest, QuorumCert, Signature};
use sharper_ledger::VerifiedBatch;
use sharper_net::{Context, TimerId};
use std::collections::{BTreeMap, HashSet};

fn view_change_sign_bytes(label: &[u8], cluster: ClusterId, new_view: u64) -> Vec<u8> {
    let context = ((cluster.0 as u64) << 32) | (new_view & 0xFFFF_FFFF);
    vote_sign_bytes(label, context, &Digest::ZERO, &Digest::ZERO)
}

impl Replica {
    /// Arms the view-change timer if work is in flight and no timer is armed.
    pub(super) fn ensure_view_change_timer(&mut self, ctx: &mut Context<Msg>) {
        if self.vc_timer.is_none() {
            self.vc_timer = Some(ctx.set_timer(timeouts::VIEW_CHANGE, timer_tags::VIEW_CHANGE));
        }
    }

    /// Called after every commit: the commit is evidence that the primary is
    /// making progress, so the suspicion timer is pushed back. It is cancelled
    /// outright when nothing is waiting for the primary any more.
    pub(super) fn maybe_cancel_view_change_timer(&mut self, ctx: &mut Context<Msg>) {
        if let Some(timer) = self.vc_timer.take() {
            ctx.cancel_timer(timer);
        }
        if self.has_outstanding_work() {
            self.ensure_view_change_timer(ctx);
        }
    }

    fn has_outstanding_work(&self) -> bool {
        // Deferred blocks count: a block parked behind a parent that never
        // arrives (e.g. a chain wedged on a stale view-change replay) must
        // keep the suspicion timer armed, or the cluster would stall without
        // ever electing a primary to repair the chain.
        !self.buffered.is_empty()
            || self.intra.values().any(|r| !r.committed)
            || self.cross.values().any(|r| !r.committed)
            || !self.deferred.is_empty()
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
        // Suspect the primary and vote for the next view. Voting is
        // monotonic across cascading view changes: a replica never votes for
        // a view at or below one it already voted for, so a second failover
        // (the new primary crashing too) converges on a view above the first
        // instead of splitting votes across it.
        let new_view = self.view.max(self.vc_highest_voted) + 1;
        self.vc_highest_voted = new_view;
        self.stats.view_changes_started += 1;
        ctx.trace(|| TraceKind::ViewChangeStart { view: new_view });
        // Crash model: the vote is a Paxos phase-1b promise for the new
        // primary's ballot; after this the replica rejects lower ballots, so
        // the accepted set it just reported cannot be extended behind the new
        // primary's back.
        if self.model() == FailureModel::Crash {
            if let Ok(primary) = self.cfg.system.primary(self.cluster, new_view) {
                self.promised = self.promised.max(Ballot::new(new_view, primary));
            }
        }
        let accepted = self.accepted_rounds_for_transfer();
        let prepared = self.prepared_certs_for_transfer();
        let chain_len = self.ledger.len() as u64;
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

    /// The accepted-but-uncommitted intra-shard rounds this replica reports
    /// in its view-change vote (crash-model state transfer; see
    /// [`AcceptedRound`]). Sorted so the vote is a deterministic function of
    /// the round set.
    fn accepted_rounds_for_transfer(&self) -> Vec<AcceptedRound> {
        if self.model() != FailureModel::Crash {
            return Vec::new();
        }
        let mut rounds: Vec<AcceptedRound> = self
            .intra
            .values()
            .filter(|round| !round.committed && !round.batch().is_empty())
            .map(|round| AcceptedRound {
                ballot: round.ballot,
                parent: round.parent(),
                batch: round.batch().clone(),
            })
            .collect();
        rounds.sort_by_key(|r| (r.ballot, r.parent, r.batch.digest()));
        rounds
    }

    /// The prepared certificates this replica reports in its view-change vote
    /// (Byzantine state transfer): every uncommitted round for which it holds
    /// `2f+1` prepare signatures, with those signatures aggregated so the new
    /// primary — and every backup receiving the new-view — can verify the
    /// round really prepared.
    fn prepared_certs_for_transfer(&self) -> Vec<PreparedCert> {
        if self.model() != FailureModel::Byzantine {
            return Vec::new();
        }
        let quorum = self.quorum_of(self.cluster);
        let mut certs: Vec<PreparedCert> = self
            .intra
            .values()
            .filter(|round| {
                !round.committed && !round.batch().is_empty() && round.prepare_sigs.len() >= quorum
            })
            .map(|round| PreparedCert {
                view: round.ballot.view,
                parent: round.parent(),
                batch: round.batch().clone(),
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
        if cluster != self.cluster || new_view <= self.view {
            return;
        }
        if self.model().requires_signatures() {
            let bytes = view_change_sign_bytes(b"viewchange", cluster, new_view);
            if !self.verify_signed(ctx, super::node_signer_id(node), &bytes, &sig) {
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
        // Decline to lead from behind: a voter whose chain is longer than
        // ours has committed blocks we have not seen, and re-proposing over
        // an older head could fork the chain at the heights we are missing.
        // Staying silent lets the next timeout rotate the candidate.
        let frontier = votes.values().map(|v| v.chain_len).max().unwrap_or(0);
        if (self.ledger.len() as u64) < frontier {
            return;
        }
        match self.model() {
            FailureModel::Crash => self.install_view_as_primary_crash(new_view, ctx),
            FailureModel::Byzantine => self.install_view_as_primary_byzantine(new_view, ctx),
        }
    }

    /// Crash-model takeover: adopt, per chain position, the highest-ballot
    /// accepted value reported by the view-change quorum (Paxos phase-1a
    /// synthesis), then re-propose those values under this primary's own
    /// ballot.
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
        self.install_view(new_view, ctx);
        let sig = self
            .signer
            .sign(&view_change_sign_bytes(b"newview", self.cluster, new_view));
        ctx.multicast(
            self.cluster_peers(),
            Msg::NewView {
                cluster: self.cluster,
                new_view,
                node: self.node,
                certs: Vec::new(),
                sig,
            },
        );
        self.repropose_adopted_rounds(adopted, ctx);
        self.take_over_pending_work(ctx);
    }

    /// Byzantine takeover: verify every prepared certificate carried by the
    /// quorum's votes, adopt per chain position the highest-view certified
    /// value, announce the selection in the new-view (so backups can check
    /// it) and re-propose it under the new view.
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
        // Each selected certificate keeps the witness of its batch check: the
        // replay below proposes (and may commit) exactly what was verified.
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
        self.install_view(new_view, ctx);
        self.newview_certs = selected
            .values()
            .map(|(c, _)| (c.parent, (c.view, c.batch.digest())))
            .collect();
        let certs: Vec<PreparedCert> = selected.values().map(|(c, _)| c.clone()).collect();
        let sig = self
            .signer
            .sign(&view_change_sign_bytes(b"newview", self.cluster, new_view));
        self.charge_message(ctx, 0, 1);
        ctx.multicast(
            self.cluster_peers(),
            Msg::NewView {
                cluster: self.cluster,
                new_view,
                node: self.node,
                certs,
                sig,
            },
        );
        self.repropose_certified_rounds(selected, ctx);
        self.take_over_pending_work(ctx);
    }

    /// Checks a prepared certificate: a well-formed batch plus a quorum of
    /// valid prepare signatures by distinct cluster members over that batch
    /// at that chain position in the certificate's view (the primary of that
    /// view signs the pre-prepare bytes instead of a prepare vote). A valid
    /// certificate yields the witness of its batch check, `None` otherwise.
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
                let node = members
                    .iter()
                    .find(|n| super::node_signer_id(**n).0 == signer)?;
                Some(if *node == cert_primary {
                    proposal_sign_bytes(cert.view, &cert.parent, &d)
                } else {
                    vote_sign_bytes(b"prepare", cert.view, &cert.parent, &d)
                })
            })
            .then_some(batch)
    }

    /// Re-proposes the rounds adopted through a crash-model view change.
    ///
    /// Rounds are replayed in parent-chain order starting from this replica's
    /// ledger head, so a batch committed at height `h` in the old view is
    /// re-proposed as the bit-identical block at height `h` (block digests
    /// are pure functions of parent and batch). Rounds whose parent chain
    /// cannot be reproduced were never committed anywhere — a committed
    /// block's whole prefix was committed with quorums this view-change
    /// quorum intersects — and are re-proposed at fresh positions instead.
    fn repropose_adopted_rounds(
        &mut self,
        mut adopted: BTreeMap<Digest, AcceptedRound>,
        ctx: &mut Context<Msg>,
    ) {
        let mut seen: HashSet<Digest> = HashSet::new();
        // Chain-ordered replay at original positions.
        loop {
            let tail = self.ordering_tail();
            let Some(round) = adopted.remove(&tail) else {
                break;
            };
            if !seen.insert(round.batch.digest()) {
                continue;
            }
            self.propose_paxos_at(round.batch, round.parent, ctx);
        }
        // Orphaned rounds (uncommitted anywhere): fresh positions, in
        // deterministic (parent-sorted) order.
        for (_, round) in adopted {
            if !seen.insert(round.batch.digest()) {
                continue;
            }
            let parent = self.ordering_tail();
            self.propose_paxos_at(round.batch, parent, ctx);
        }
    }

    /// Byzantine counterpart of [`Self::repropose_adopted_rounds`]: replays
    /// the certified prepared rounds under the new view.
    fn repropose_certified_rounds(
        &mut self,
        mut certified: BTreeMap<Digest, (PreparedCert, VerifiedBatch)>,
        ctx: &mut Context<Msg>,
    ) {
        let mut seen: HashSet<Digest> = HashSet::new();
        loop {
            let tail = self.ordering_tail();
            let Some((cert, batch)) = certified.remove(&tail) else {
                break;
            };
            if !seen.insert(batch.digest()) {
                continue;
            }
            self.propose_pbft_at(batch, cert.parent, ctx);
        }
        for (_, (_, batch)) in certified {
            if !seen.insert(batch.digest()) {
                continue;
            }
            let parent = self.ordering_tail();
            self.propose_pbft_at(batch, parent, ctx);
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
            if !self.verify_signed(ctx, super::node_signer_id(node), &bytes, &sig) {
                return;
            }
            // Every carried certificate must verify: a single forged entry
            // means the announcer is lying about the prepared log, and
            // nothing it says can be trusted.
            for cert in &certs {
                if self.verify_prepared_cert(cert, ctx).is_none() {
                    return;
                }
            }
        }
        self.install_view(new_view, ctx);
        // Remember which value the certified new-view authorises at each
        // chain position: the prepared-lock in `handle_pre_prepare` admits a
        // replacement pre-prepare only if it matches this map.
        if self.model() == FailureModel::Byzantine {
            self.newview_certs = certs
                .iter()
                .map(|c| (c.parent, (c.view, c.batch.digest())))
                .collect();
        }
        // Hand any buffered client requests to the new primary.
        let buffered: Vec<_> = self.buffered.drain(..).collect();
        for (_, msg) in buffered {
            if let Msg::Request { tx, epoch, sig } = msg {
                ctx.send(
                    sharper_net::ActorId::Node(expected_primary),
                    Msg::Request { tx, epoch, sig },
                );
            }
        }
        // Requests still waiting in this (demoted) replica's batching queues
        // belong to the new primary now.
        let fwd_epoch = self.map_epoch;
        for (tx, sig) in self.drain_pending_requests() {
            ctx.send(
                sharper_net::ActorId::Node(expected_primary),
                Msg::Request {
                    tx,
                    epoch: fwd_epoch,
                    sig,
                },
            );
        }
    }

    pub(super) fn install_view(&mut self, new_view: u64, ctx: &mut Context<Msg>) {
        ctx.trace(|| TraceKind::ViewChangeEnd { view: new_view });
        self.view = new_view;
        self.vc_highest_voted = self.vc_highest_voted.max(new_view);
        // Entering a view promises its primary's ballot, whichever message
        // proved the view exists (vote quorum, NewView, or a higher-ballot
        // proposal).
        if self.model() == FailureModel::Crash {
            if let Ok(primary) = self.cfg.system.primary(self.cluster, new_view) {
                self.promised = self.promised.max(Ballot::new(new_view, primary));
            }
        }
        // Abandon the old primary's uncommitted proposal chain.
        self.tail = self.ledger.head();
        self.tail_height = self.ledger.len() as u64;
        self.vc_votes.retain(|v, _| *v > new_view);
        if let Some(timer) = self.vc_timer.take() {
            ctx.cancel_timer(timer);
        }
        // Keep accepted-but-uncommitted rounds: an acceptor that forgets an
        // accepted value breaks Paxos — those rounds are exactly what the
        // next view change's state transfer must report. Rounds whose
        // transactions all committed are dropped.
        let committed = &self.committed_txs;
        self.intra.retain(|_, r| {
            r.committed
                || (!r.batch().is_empty() && !r.batch().tx_ids().all(|id| committed.contains(&id)))
        });
        if self.initiating.is_some() {
            self.initiating = None;
        }
        // Drop deferred blocks whose transactions already committed (their
        // parked copy chains behind an abandoned proposal and would never
        // append); the rest stay parked until the repaired chain reaches
        // their parent.
        self.deferred.retain(|_, blocks| {
            blocks.retain(|(block, _)| block.tx_ids().any(|tx| !self.committed_txs.contains(&tx)));
            !blocks.is_empty()
        });
    }

    /// The freshly installed primary re-initiates the uncommitted work it
    /// knows about ("the new primary then handles the uncommitted requests").
    fn take_over_pending_work(&mut self, ctx: &mut Context<Msg>) {
        // Re-propose buffered client requests first.
        let buffered: Vec<_> = self.buffered.drain(..).collect();
        for (from, msg) in buffered {
            self.dispatch(from, msg, ctx);
        }
        // Re-initiate cross-shard rounds that never committed.
        let pending: Vec<_> = self
            .cross
            .iter()
            .filter(|(_, r)| !r.committed && !r.sent_commit && r.initiator == self.cluster)
            .map(|(d, r)| (*d, r.batch.clone(), r.involved.clone()))
            .collect();
        for (d, batch, involved) in pending {
            self.cross.remove(&d);
            if !self.is_blocked() {
                self.start_cross(batch, involved, ctx);
            }
        }
        // Batches queued while this replica was a backup (or carried over
        // from its own past primaryship) can start now.
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
