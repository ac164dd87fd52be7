//! The flattened cross-shard consensus protocols (§3.2–§3.3).
//!
//! Algorithm 1 (crash-only): the initiator primary multicasts `propose` to
//! every node of every involved cluster, collects `accept` messages from a
//! majority (`f+1`) of **each** involved cluster, then multicasts `commit`
//! carrying one parent hash per involved cluster.
//!
//! Algorithm 2 (Byzantine): the same three phases, but `accept` and `commit`
//! are all-to-all among the involved clusters' nodes and quorums are `2f+1`
//! per cluster, with every message signed.
//!
//! Both run on one message family (`XPropose`, `XAccept`, `XCommit`) and one
//! handler per phase. The handlers share every check the models share; only
//! what Algorithm 1 and 2 really do differently branches on the replica's
//! failure model: the crash initiator's yield-or-buffer, stale-primary veto
//! and lone commit, and the Byzantine signatures, early-vote parking and
//! commit-vote count. Crash-model messages carry an unsigned placeholder.
//!
//! A cross-shard [`Batch`] holds transactions of one involved-cluster set.
//! Overlapping proposals conflict on per-node reservations (a node that
//! accepted a proposal buffers every other transaction until the commit);
//! `cross_recovery` resolves what stalls.

use super::{cross_priority_key, node_signer_id, Replica};
use crate::messages::{proposal_sign_bytes, timer_tags, vote_sign_bytes, Msg};
use crate::timeouts;
use sharper_common::{ClusterId, FailureModel, NodeId, TraceKind};
use sharper_crypto::{Digest, Sha256, Signature};
use sharper_ledger::{Batch, Parents, VerifiedBatch, VerifiedBlock};
use sharper_net::{ActorId, Context, TimerId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Digest of a block's parents, used as the signing context of commit votes:
/// the tag, then each `(cluster, digest)` in cluster order, streamed.
pub(super) fn parents_digest(parents: &Parents) -> Digest {
    let mut h = Sha256::new();
    h.update(b"sharper-parents");
    for (cluster, digest) in parents.iter() {
        h.update(&cluster.0.to_le_bytes());
        h.update(digest.as_bytes());
    }
    Digest(h.finalize())
}

/// State of one in-flight cross-shard consensus round.
#[derive(Debug, Clone)]
pub(super) struct CrossRound {
    /// The batch under agreement (shares its transactions with the message
    /// plane), root derived by this replica when it sealed or checked it. All
    /// member transactions have the same involved-cluster set.
    pub(super) batch: VerifiedBatch,
    pub(super) involved: Vec<ClusterId>,
    pub(super) initiator: ClusterId,
    pub(super) attempt: u32,
    /// Accept votes: cluster → (node → reported parent hash and its chain
    /// height). The height lets the initiator reject a stale primary's
    /// parent (a member ahead of the primary has built past it).
    pub(super) accepts: HashMap<ClusterId, BTreeMap<NodeId, (Digest, u64)>>,
    /// Byzantine commit votes: cluster → nodes whose commit matched ours.
    pub(super) commit_votes: HashMap<ClusterId, BTreeSet<NodeId>>,
    /// The parents assembled from the accept quorums (fixed once reached).
    pub(super) parents: Option<Parents>,
    /// Whether this replica already multicast its commit (Byzantine) or the
    /// commit message (crash initiator).
    pub(super) sent_commit: bool,
    /// Whether the block was appended locally.
    pub(super) committed: bool,
    /// The initiator's retry timer, if armed.
    pub(super) retry_timer: Option<TimerId>,
}

impl CrossRound {
    pub(super) fn new(
        batch: VerifiedBatch,
        involved: Vec<ClusterId>,
        initiator: ClusterId,
        attempt: u32,
    ) -> Self {
        Self {
            batch,
            involved,
            initiator,
            attempt,
            accepts: HashMap::new(),
            commit_votes: HashMap::new(),
            parents: None,
            sent_commit: false,
            committed: false,
            retry_timer: None,
        }
    }
}

/// A reservation taken when this node accepted a cross-shard proposal and is
/// waiting for its commit (§3.2).
#[derive(Debug, Clone, Copy)]
pub(super) struct Reservation {
    pub(super) d: Digest,
    pub(super) timer: TimerId,
    /// How many times the conflict timer expired and was re-armed while this
    /// reservation was held (primaries only; drives the status probe).
    pub(super) renewals: u32,
}

impl Replica {
    /// Starts the flattened protocol for a cross-shard batch. Called on the
    /// primary of the initiator cluster.
    pub(super) fn start_cross(
        &mut self,
        batch: VerifiedBatch,
        involved: Vec<ClusterId>,
        ctx: &mut Context<Msg>,
    ) {
        let d = batch.digest();
        if self.cross.contains_key(&d) || self.log.all_committed(batch.tx_ids()) {
            return;
        }
        // A re-initiation supersedes the abort retransmissions (FIFO links:
        // the new propose cannot be overtaken by an already-sent abort).
        if let Some(retx) = self.abort_retx.remove(&d) {
            ctx.cancel_timer(retx.timer);
        }
        self.cross
            .insert(d, CrossRound::new(batch, involved, self.cluster, 0));
        self.initiating = Some(d);
        self.propose_cross(d, ctx);
    }

    /// The initiator's fan-out for round `d` at its current attempt: the
    /// proposal, chained at the ordering tail, goes to every node of every
    /// involved cluster, and the retry timer is armed. The primary's own
    /// accept counts towards its cluster's quorum (Byzantine: it is signed
    /// and multicast, like every node's).
    pub(super) fn propose_cross(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let (parent, height) = (self.log.tail(), self.log.tail_height());
        let attempt = self.cross[&d].attempt;
        let retry = ctx.set_timer(self.retry_delay(d, attempt), timer_tags::RETRY);
        let round = self.cross.get_mut(&d).expect("round exists");
        round
            .accepts
            .entry(self.cluster)
            .or_default()
            .insert(self.node, (parent, height));
        round.retry_timer = Some(retry);
        let round = &self.cross[&d];
        // The messages carry the plain batch; every receiver checks it.
        let batch = Batch::clone(&round.batch);
        let recipients = self.members_of_all_except_self(&round.involved);
        let initiator = self.cluster;
        ctx.trace(|| TraceKind::XPropose {
            batch: d.short_u64(),
            attempt: u64::from(attempt),
        });
        let sig = self.sign_cross(ctx, || proposal_sign_bytes(initiator.0 as u64, &parent, &d));
        let propose = Msg::XPropose {
            initiator,
            attempt,
            parent,
            batch,
            sig,
        };
        if self.model() == FailureModel::Crash {
            ctx.multicast(recipients, propose);
            return;
        }
        ctx.multicast(recipients.clone(), propose);
        let bytes = vote_sign_bytes(b"xaccept", initiator.0 as u64, &parent, &d);
        let sig = self.signer.sign(&bytes);
        // A retry does not charge this signature: a known under-charge
        // (ROADMAP item 10).
        if attempt == 0 {
            self.charge_message(ctx, 0, 1);
        }
        ctx.trace(|| TraceKind::XAccept {
            batch: d.short_u64(),
        });
        let accept = Msg::XAccept {
            d,
            attempt,
            parent,
            height,
            node: self.node,
            sig,
        };
        ctx.multicast(recipients, accept);
    }

    /// This replica's signature over `bytes()`, charged as one signing, in
    /// the Byzantine model; the crash model sends the unsigned placeholder.
    fn sign_cross(&self, ctx: &mut Context<Msg>, bytes: impl FnOnce() -> Vec<u8>) -> Signature {
        if self.model() == FailureModel::Crash {
            return Signature::unsigned(node_signer_id(self.node).0);
        }
        let sig = self.signer.sign(&bytes());
        self.charge_message(ctx, 0, 1);
        sig
    }

    /// Reserves this node for proposal `d` (§3.2): it starts no other
    /// transaction until the commit or abort. `false` if it is reserved for
    /// another proposal (defensive: dispatch buffers those).
    fn reserve(&mut self, d: Digest, ctx: &mut Context<Msg>) -> bool {
        if let Some(res) = self.reservation {
            return res.d == d;
        }
        let timer = ctx.set_timer(timeouts::CONFLICT, timer_tags::CONFLICT);
        self.reservation = Some(Reservation {
            d,
            timer,
            renewals: 0,
        });
        ctx.trace(|| TraceKind::ReservationAcquire {
            batch: d.short_u64(),
        });
        true
    }

    /// A node of an involved cluster receives the initiator's `propose`: it
    /// tracks the round, reserves itself and answers with its `accept` (to
    /// the initiator in the crash model, to every involved node in the
    /// Byzantine one).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_xpropose(
        &mut self,
        from: ActorId,
        initiator: ClusterId,
        attempt: u32,
        parent: Digest,
        batch: Batch,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if batch.is_empty() {
            return;
        }
        let d = batch.digest();
        let byz = self.model() == FailureModel::Byzantine;
        // Byzantine: every propose re-derives the claimed root over its
        // transactions, each at most once (see `handle_pre_prepare`), and
        // must be signed by the initiator cluster's primary.
        let mut checked = None;
        if byz {
            if batch.has_duplicate_tx_ids() {
                return;
            }
            let Some(verified) = VerifiedBatch::check(batch.clone()) else {
                return;
            };
            let primary = self.primary_of(initiator);
            let bytes = proposal_sign_bytes(initiator.0 as u64, &parent, &d);
            if !self.verify_signed(ctx, node_signer_id(primary), &bytes, &sig) {
                return;
            }
            checked = Some(verified);
        }
        if self.log.any_committed(batch.tx_ids()) {
            return;
        }
        let involved = batch.involved_clusters(&self.pmap);
        if !involved.contains(&self.cluster) {
            return;
        }
        // Deadlock avoidance (crash): a primary initiating another batch
        // yields to a higher-priority initiator (`cross_priority_key`) while
        // it safely can (`yield_initiation`); otherwise the incoming proposal
        // waits in the buffer — accepting it would vouch one position twice.
        // A Byzantine initiator never yields: its signed accept is already in
        // flight, so `dispatch` keeps the proposal buffered.
        if let Some(own) = self.initiating.filter(|own| !byz && *own != d) {
            if cross_priority_key(d, initiator) < cross_priority_key(own, self.cluster) {
                self.yield_initiation(own, ctx);
            }
            if self.initiating.is_some() {
                let propose = Msg::XPropose {
                    initiator,
                    attempt,
                    parent,
                    batch,
                    sig,
                };
                self.buffered.push_back((from, propose));
                return;
            }
        }
        // Track the round so a view change can take over uncommitted work. A
        // crash replica derives the root on first sight of the batch, the one
        // derivation the commit relies on.
        let round = match self.cross.entry(d) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let Some(batch) = checked.or_else(|| VerifiedBatch::check(batch)) else {
                    return;
                };
                slot.insert(CrossRound::new(batch, involved, initiator, attempt))
            }
        };
        round.attempt = attempt;
        if !self.reserve(d, ctx) {
            return;
        }
        let (my_parent, height) = (self.log.tail(), self.log.tail_height());
        let cluster = self.cluster;
        let sig = self.sign_cross(ctx, || {
            vote_sign_bytes(b"xaccept", cluster.0 as u64, &my_parent, &d)
        });
        ctx.trace(|| TraceKind::XAccept {
            batch: d.short_u64(),
        });
        let accept = Msg::XAccept {
            d,
            attempt,
            parent: my_parent,
            height,
            node: self.node,
            sig,
        };
        if !byz {
            ctx.send(from, accept);
            return;
        }
        // Byzantine accepts are all-to-all, this node's included in its own
        // cluster's quorum.
        let recipients = self.members_of_all_except_self(&self.cross[&d].involved);
        let round = self.cross.get_mut(&d).expect("round exists");
        round
            .accepts
            .entry(cluster)
            .or_default()
            .insert(self.node, (my_parent, height));
        ctx.multicast(recipients, accept);
        // Any votes that overtook the proposal can be counted now.
        if let Some(early) = self.early_cross.remove(&d) {
            for (from, msg) in early {
                self.dispatch(from, msg, ctx);
            }
        }
        self.try_send_xcommit(d, ctx);
    }

    /// A node's `accept`, received by the initiator primary (crash) or by
    /// every involved node (Byzantine). It counts towards the cluster the
    /// configuration puts its signer in.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_xaccept(
        &mut self,
        from: ActorId,
        d: Digest,
        attempt: u32,
        parent: Digest,
        height: u64,
        node: NodeId,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        let Ok(cluster) = self.cfg.system.cluster_of(node) else {
            return;
        };
        let byz = self.model() == FailureModel::Byzantine;
        if byz {
            let bytes = vote_sign_bytes(b"xaccept", cluster.0 as u64, &parent, &d);
            if !self.verify_signed(ctx, node_signer_id(node), &bytes, &sig) {
                return;
            }
        }
        let am_primary = self.is_primary();
        let Some(round) = self.cross.get_mut(&d) else {
            if byz {
                // The accept overtook the propose.
                let accept = Msg::XAccept {
                    d,
                    attempt,
                    parent,
                    height,
                    node,
                    sig,
                };
                self.park_early(d, from, accept);
            } else {
                // A stale accept: tell the reserved responder the batch's
                // fate, so one lost abort cannot wedge it forever.
                self.answer_cross_fate(d, ActorId::Node(node), ctx);
            }
            return;
        };
        // A demoted crash initiator must not assemble a commit: the new
        // primary re-initiates the round, and two commits could name
        // different parents.
        if !byz && round.initiator == self.cluster && !am_primary {
            return;
        }
        if round.sent_commit || round.attempt != attempt || !round.involved.contains(&cluster) {
            return;
        }
        round
            .accepts
            .entry(cluster)
            .or_default()
            .insert(node, (parent, height));
        self.try_send_xcommit(d, ctx);
    }

    /// Sends this replica's `commit` once the accept quorums assemble the
    /// parents: the crash initiator's decision, which it appends at once, or
    /// a Byzantine node's signed commit vote.
    fn try_send_xcommit(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let Some(round) = self.cross.get(&d) else {
            return;
        };
        if round.sent_commit {
            return;
        }
        let Some(parents) = self.assemble_parents(round) else {
            return;
        };
        let byz = self.model() == FailureModel::Byzantine;
        let (node, cluster) = (self.node, self.cluster);
        let round = self.cross.get_mut(&d).expect("round exists");
        round.sent_commit = true;
        round.parents = Some(parents.clone());
        if byz {
            round.commit_votes.entry(cluster).or_default().insert(node);
        }
        let batch = round.batch.clone();
        let recipients = self.members_of_all_except_self(&self.cross[&d].involved);
        let sig = self.sign_cross(ctx, || {
            vote_sign_bytes(b"xcommit", cluster.0 as u64, &parents_digest(&parents), &d)
        });
        let commit = Msg::XCommit {
            parents: parents.clone(),
            batch: Batch::clone(&batch),
            node,
            sig,
        };
        ctx.multicast(recipients, commit);
        if byz {
            self.try_finalize_cross_bft(d, ctx);
            return;
        }
        self.initiating = None;
        // The crash initiator primary executes, appends and replies to the
        // clients.
        self.close_cross(d, Some(VerifiedBlock::chain(batch, parents)), true, ctx);
    }

    /// A node of an involved cluster receives a `commit`: the crash
    /// initiator's decision, or one node's Byzantine commit vote (counted
    /// towards its signer's cluster).
    pub(super) fn handle_xcommit(
        &mut self,
        from: ActorId,
        parents: Parents,
        batch: Batch,
        node: NodeId,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if batch.is_empty() || parents.get(self.cluster).is_none() {
            return;
        }
        let d = batch.digest();
        if self.model() == FailureModel::Crash {
            // Only a replica that never saw the proposal derives the root.
            let batch = match self.cross.get(&d) {
                Some(round) => Some(round.batch.clone()),
                None => self.verify_unseen_commit(batch),
            };
            let block = batch.map(|batch| VerifiedBlock::chain(batch, parents));
            self.close_cross(d, block, false, ctx);
            return;
        }
        let Ok(cluster) = self.cfg.system.cluster_of(node) else {
            return;
        };
        let pd = parents_digest(&parents);
        let bytes = vote_sign_bytes(b"xcommit", cluster.0 as u64, &pd, &d);
        if !self.verify_signed(ctx, node_signer_id(node), &bytes, &sig) {
            return;
        }
        // A vote for an unseen or unassembled round is kept for later; one
        // for different parents (a Byzantine sender) is ignored. The round's
        // own batch is what commits, never the vote's.
        let early = match self.cross.get_mut(&d) {
            None => true,
            Some(round) if !round.involved.contains(&cluster) => return,
            Some(round) => match &round.parents {
                None => true,
                Some(ours) if *ours != parents => return,
                Some(_) => {
                    round.commit_votes.entry(cluster).or_default().insert(node);
                    false
                }
            },
        };
        if !early {
            self.try_finalize_cross_bft(d, ctx);
            return;
        }
        let commit = Msg::XCommit {
            parents,
            batch,
            node,
            sig,
        };
        self.park_early(d, from, commit);
    }

    /// Byzantine: the round decides on `2f+1` matching commit votes from
    /// every involved cluster.
    fn try_finalize_cross_bft(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let Some(round) = self.cross.get(&d) else {
            return;
        };
        if round.committed || round.parents.is_none() {
            return;
        }
        for cluster in &round.involved {
            let votes = round.commit_votes.get(cluster).map_or(0, |v| v.len());
            if votes < self.quorum_of(*cluster) {
                return;
            }
        }
        let parents = round.parents.clone().expect("checked above");
        let block = VerifiedBlock::chain(round.batch.clone(), parents);
        if self.initiating == Some(d) {
            self.initiating = None;
        }
        // Every replica replies; the client waits for f+1 matching replies.
        self.close_cross(d, Some(block), true, ctx);
    }

    // ------------------------------------------------------------------
    // Shared cross-shard helpers
    // ------------------------------------------------------------------

    /// The shared end of a decided cross-shard round on this replica: the
    /// round is closed, its reservation released, the block (if a verified
    /// batch is at hand) appended — replying to the clients if `reply` — and
    /// the buffered work replayed.
    fn close_cross(
        &mut self,
        d: Digest,
        block: Option<VerifiedBlock>,
        reply: bool,
        ctx: &mut Context<Msg>,
    ) {
        if let Some(round) = self.cross.get_mut(&d) {
            round.committed = true;
            if let Some(timer) = round.retry_timer.take() {
                ctx.cancel_timer(timer);
            }
        }
        ctx.trace(|| TraceKind::XCommit {
            batch: d.short_u64(),
        });
        self.release_reservation_if(d, ctx);
        if let Some(block) = block {
            self.commit_block(ctx, block, reply);
        }
        self.process_buffered(ctx);
    }

    /// Checks whether every involved cluster has contributed a quorum of
    /// accepts (plus its primary's accept) and, if so, returns the assembled
    /// parents.
    ///
    /// Each cluster's parent is its primary's ordering tail: the only value
    /// that places the block *after* every intra-shard block that primary
    /// already proposed (backups behind it append once they catch up).
    /// An accept from a member *ahead* of the primary vetoes the commit
    /// (crash model): the primary is stale — typically demoted by a view
    /// change — and its parent's height is already taken, so committing
    /// there would fork. The retry collects fresh tails until they converge.
    fn assemble_parents(&self, round: &CrossRound) -> Option<Parents> {
        let mut parents = Vec::with_capacity(round.involved.len());
        for cluster in &round.involved {
            let quorum = self.quorum_of(*cluster);
            let votes = round.accepts.get(cluster)?;
            if votes.len() < quorum {
                return None;
            }
            let primary = self.primary_of(*cluster);
            let &(parent, primary_height) = votes.get(&primary)?;
            if self.model() == FailureModel::Crash
                && votes
                    .values()
                    .any(|&(p, h)| h > primary_height || (h == primary_height && p != parent))
            {
                return None;
            }
            parents.push((*cluster, parent));
        }
        Some(Parents::new(parents).expect("involved clusters are distinct"))
    }

    pub(super) fn release_reservation_if(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        if let Some(res) = self.reservation.filter(|res| res.d == d) {
            ctx.cancel_timer(res.timer);
            self.reservation = None;
            ctx.trace(|| TraceKind::ReservationRelease {
                batch: d.short_u64(),
            });
        }
    }

    /// Parks a vote that arrived before its round could count it, until the
    /// propose arrives (bounded: at most 256 per digest). A vote trailing a
    /// batch this replica already appended is dropped: the round is gone and
    /// no propose for it gets far enough to replay the vote.
    fn park_early(&mut self, d: Digest, from: ActorId, msg: Msg) {
        if self.cross_blocks.contains_key(&d) {
            return;
        }
        let parked = self.early_cross.entry(d).or_default();
        if parked.len() < 256 {
            parked.push((from, msg));
        }
    }
}
