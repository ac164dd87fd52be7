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
//! With batching, a cross-shard proposal carries a [`Batch`] whose member
//! transactions all share one involved-cluster set (cross-shard transactions
//! batch only with same-cluster-set peers), so the commit still needs exactly
//! one parent hash per involved cluster.
//!
//! Conflicts between concurrent overlapping proposals are handled with
//! per-node reservations (a node that accepted a proposal buffers every other
//! transaction until the commit or a conflict timeout) and initiator-side
//! retries; the super-primary policy (chosen in the system configuration)
//! removes most conflicts up front.

use super::{AbortRetx, CrossRound, Replica, Reservation};
use crate::messages::{proposal_sign_bytes, timer_tags, vote_sign_bytes, Msg};
use crate::timeouts;
use sharper_common::{ClusterId, Duration, FailureModel, NodeId, TraceKind};
use sharper_crypto::{Digest, Sha256, Signature};
use sharper_ledger::{Batch, Parents, VerifiedBatch, VerifiedBlock};
use sharper_net::{ActorId, Context, TimerId};
use std::collections::hash_map::Entry;

/// Digest of a block's parents, used as the signing context of commit votes:
/// the tag, then each `(cluster, digest)` in cluster order, streamed.
fn parents_digest(parents: &Parents) -> Digest {
    let mut h = Sha256::new();
    h.update(b"sharper-parents");
    for (cluster, digest) in parents.iter() {
        h.update(&cluster.0.to_le_bytes());
        h.update(digest.as_bytes());
    }
    Digest(h.finalize())
}

impl Replica {
    /// Retry delay for a cross-shard round: [`timeouts::RETRY`] plus a
    /// deterministic jitter in `[0, RETRY/4)` derived from the batch digest,
    /// the attempt number and this node's id. Without the jitter every
    /// initiator retries in lockstep at exact multiples of the retry
    /// timeout, so under heavy cross-shard conflict whole seeds either
    /// always win or always lose the race against the 400ms conflict timeout
    /// — fixed seeds showed ~5× throughput swings. The jitter is a pure
    /// function of simulation state, so runs stay bit-identical across
    /// thread modes. Worst-case give-up window stays 1.25 × RETRY ×
    /// MAX_RETRIES, still below the reservation probe threshold (checked by
    /// a config test).
    fn retry_delay(&self, d: Digest, attempt: u32) -> Duration {
        let base = timeouts::RETRY;
        let span = (base.as_micros() / 4).max(1);
        let mut h = d
            .short_u64()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(u64::from(self.node.0));
        h ^= h >> 31;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 29;
        base + Duration::from_micros(h % span)
    }

    /// Starts the flattened protocol for a cross-shard batch. Called on the
    /// primary of the initiator cluster.
    pub(super) fn start_cross(
        &mut self,
        batch: VerifiedBatch,
        involved: Vec<ClusterId>,
        ctx: &mut Context<Msg>,
    ) {
        let d = batch.digest();
        if self.cross.contains_key(&d) || batch.tx_ids().all(|id| self.committed_txs.contains(&id))
        {
            return;
        }
        // A re-initiation of a batch we previously gave up on supersedes the
        // abort retransmissions (links are FIFO, so the new propose cannot be
        // overtaken by an already-sent abort).
        if let Some(retx) = self.abort_retx.remove(&d) {
            ctx.cancel_timer(retx.timer);
        }
        let parent = self.ordering_tail();
        let mut round = CrossRound::new(batch.clone(), involved.clone(), self.cluster, 0);
        // The messages carry the plain batch; every receiver checks it.
        let batch = batch.into_batch();
        round
            .accepts
            .entry(self.cluster)
            .or_default()
            .insert(self.node, (parent, self.tail_height));
        let retry = ctx.set_timer(self.retry_delay(d, 0), timer_tags::RETRY);
        round.retry_timer = Some(retry);
        self.cross.insert(d, round);
        self.initiating = Some(d);

        let recipients = self.members_of_all_except_self(&involved);
        ctx.trace(|| TraceKind::XPropose {
            batch: d.short_u64(),
            attempt: 0,
        });
        match self.model() {
            FailureModel::Crash => {
                ctx.multicast(
                    recipients,
                    Msg::XPropose {
                        initiator: self.cluster,
                        attempt: 0,
                        parent,
                        batch,
                    },
                );
            }
            FailureModel::Byzantine => {
                let sig =
                    self.signer
                        .sign(&proposal_sign_bytes(self.cluster.0 as u64, &parent, &d));
                self.charge_message(ctx, 0, 1);
                ctx.multicast(
                    recipients.clone(),
                    Msg::XProposeB {
                        initiator: self.cluster,
                        attempt: 0,
                        parent,
                        batch,
                        sig,
                    },
                );
                // The primary also participates as an ordinary node of its
                // cluster: its accept vote is multicast to everyone.
                let accept_sig = self.signer.sign(&vote_sign_bytes(
                    b"xaccept",
                    self.cluster.0 as u64,
                    &parent,
                    &d,
                ));
                self.charge_message(ctx, 0, 1);
                ctx.trace(|| TraceKind::XAccept {
                    batch: d.short_u64(),
                });
                ctx.multicast(
                    recipients,
                    Msg::XAcceptB {
                        d,
                        attempt: 0,
                        cluster: self.cluster,
                        parent,
                        node: self.node,
                        sig: accept_sig,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 1: crash-only nodes
    // ------------------------------------------------------------------

    /// A node of an involved cluster receives the initiator's `propose`.
    pub(super) fn handle_xpropose(
        &mut self,
        from: ActorId,
        initiator: ClusterId,
        attempt: u32,
        _parent: Digest,
        batch: Batch,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Crash || batch.is_empty() {
            return;
        }
        let d = batch.digest();
        if batch.tx_ids().any(|id| self.committed_txs.contains(&id)) {
            return;
        }
        let involved = batch.involved_clusters(&self.pmap);
        if !involved.contains(&self.cluster) {
            return;
        }
        // Deadlock avoidance: if this replica is the primary of its cluster
        // and is itself initiating another cross-shard batch, it yields to
        // the higher-priority initiator: it withdraws its own proposal
        // (explicit abort, so remote reservations are released immediately)
        // and re-initiates it from its retry timer once the higher-priority
        // transaction is out of the way. Priority is the total order over
        // `(batch digest, initiator cluster)` — digest first, so who yields
        // rotates per batch instead of always favouring low cluster ids
        // (which starves high-numbered initiators at full cross-shard load).
        // Yielding is only safe while no other cluster has accepted our
        // proposal yet; if it is not safe (or the proposal has lower
        // priority), the incoming proposal waits in the buffer instead —
        // accepting it now would vouch the same chain position for two
        // different proposals.
        if let Some(own) = self.initiating {
            if own != d {
                if super::cross_priority_key(d, initiator)
                    < super::cross_priority_key(own, self.cluster)
                {
                    self.yield_initiation(own, ctx);
                }
                if self.initiating.is_some() {
                    self.buffer(
                        from,
                        Msg::XPropose {
                            initiator,
                            attempt,
                            parent: _parent,
                            batch,
                        },
                    );
                    return;
                }
            }
        }
        // Track the round so a view change can take over uncommitted work.
        // A first sight of the batch is where this replica derives its root
        // — the one derivation the commit will rely on; a batch whose
        // transactions do not hash to the root it claims is dropped.
        let round = match self.cross.entry(d) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let Some(batch) = VerifiedBatch::check(batch) else {
                    return;
                };
                slot.insert(CrossRound::new(batch, involved, initiator, attempt))
            }
        };
        round.attempt = attempt;
        // Reserve this node for the proposal: no other transaction is
        // processed until the commit arrives or the conflict timer fires.
        match self.reservation {
            Some(res) if res.d == d => {
                // Retry of the proposal we are already reserved for.
            }
            Some(_) => {
                // dispatch() only routes conflicting proposals here when we
                // are not reserved; being defensive, ignore.
                return;
            }
            None => {
                let timer = ctx.set_timer(timeouts::CONFLICT, timer_tags::CONFLICT);
                self.reservation = Some(Reservation {
                    d,
                    timer,
                    renewals: 0,
                });
                ctx.trace(|| TraceKind::ReservationAcquire {
                    batch: d.short_u64(),
                });
            }
        }
        let my_parent = self.ordering_tail();
        ctx.trace(|| TraceKind::XAccept {
            batch: d.short_u64(),
        });
        ctx.send(
            from,
            Msg::XAccept {
                d,
                attempt,
                cluster: self.cluster,
                parent: my_parent,
                height: self.tail_height,
                node: self.node,
            },
        );
    }

    /// The initiator primary receives an `accept` from a node of an involved
    /// cluster.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_xaccept(
        &mut self,
        d: Digest,
        attempt: u32,
        cluster: ClusterId,
        parent: Digest,
        height: u64,
        node: NodeId,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Crash {
            return;
        }
        let am_primary = self.is_primary();
        let Some(round) = self.cross.get_mut(&d) else {
            // A stale accept for a round this replica no longer tracks. The
            // responder is reserved for it and waiting on an outcome; tell it
            // the batch's fate (commit if it committed here, abort if this
            // primary gave up) so one lost abort cannot wedge it forever.
            self.answer_cross_fate(d, ActorId::Node(node), ctx);
            return;
        };
        // A demoted initiator primary must not keep assembling a commit: the
        // new primary of this cluster re-initiates the round with its own
        // ordering tail, and two commits for one batch could name different
        // parents.
        if round.initiator == self.cluster && !am_primary {
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
        self.try_commit_cross_crash(d, ctx);
    }

    fn try_commit_cross_crash(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let Some(round) = self.cross.get(&d) else {
            return;
        };
        if round.sent_commit {
            return;
        }
        let Some(parents) = self.assemble_parents(round) else {
            return;
        };
        let round = self.cross.get_mut(&d).expect("round exists");
        round.sent_commit = true;
        round.committed = true;
        round.parents = Some(parents.clone());
        let batch = round.batch.clone();
        let involved = round.involved.clone();
        if let Some(timer) = round.retry_timer.take() {
            ctx.cancel_timer(timer);
        }
        // One allocation backs the fan-out message and the appended block.
        ctx.trace(|| TraceKind::XCommit {
            batch: d.short_u64(),
        });
        ctx.multicast(
            self.members_of_all_except_self(&involved),
            Msg::XCommit {
                d,
                parents: parents.clone(),
                batch: Batch::clone(&batch),
            },
        );
        self.initiating = None;
        let block = VerifiedBlock::chain(batch, parents);
        // The initiator primary executes, appends and replies to the clients.
        self.commit_block(ctx, block, true);
        self.process_buffered(ctx);
    }

    /// A node of an involved cluster receives the initiator's `commit`.
    pub(super) fn handle_xcommit(
        &mut self,
        d: Digest,
        parents: Parents,
        batch: Batch,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Crash || batch.is_empty() {
            return;
        }
        if parents.get(self.cluster).is_none() {
            return;
        }
        // The round holds the batch this replica verified when the proposal
        // arrived; only a replica that never saw the proposal has to derive
        // the root of the commit's own batch.
        let batch = match self.cross.get(&d) {
            Some(round) => Some(round.batch.clone()),
            None => self.verify_unseen_commit(batch),
        };
        ctx.trace(|| TraceKind::XCommit {
            batch: d.short_u64(),
        });
        self.release_reservation_if(d, ctx);
        if let Some(round) = self.cross.get_mut(&d) {
            round.committed = true;
            if let Some(timer) = round.retry_timer.take() {
                ctx.cancel_timer(timer);
            }
        }
        if let Some(batch) = batch {
            self.commit_block(ctx, VerifiedBlock::chain(batch, parents), false);
        }
        self.process_buffered(ctx);
    }

    // ------------------------------------------------------------------
    // Algorithm 2: Byzantine nodes
    // ------------------------------------------------------------------

    /// A node of an involved cluster receives the initiator's signed
    /// `propose`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_xpropose_b(
        &mut self,
        _from: ActorId,
        initiator: ClusterId,
        attempt: u32,
        parent: Digest,
        batch: Batch,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Byzantine || batch.is_empty() {
            return;
        }
        let d = batch.digest();
        // The claimed root must be the root of the carried transactions, and
        // no transaction may appear twice (double execution / Merkle
        // odd-level duplication aliasing). The check's witness is what the
        // commit appends under.
        if batch.has_duplicate_tx_ids() {
            return;
        }
        let Some(batch) = VerifiedBatch::check(batch) else {
            return;
        };
        // The proposal must be signed by the initiator cluster's primary.
        let primary = self.primary_of(initiator);
        let bytes = proposal_sign_bytes(initiator.0 as u64, &parent, &d);
        if !self.verify_signed(ctx, super::node_signer_id(primary), &bytes, &sig) {
            return;
        }
        if batch.tx_ids().any(|id| self.committed_txs.contains(&id)) {
            return;
        }
        let involved = batch.involved_clusters(&self.pmap);
        if !involved.contains(&self.cluster) {
            return;
        }
        // Unlike the crash-only protocol, a Byzantine initiator never yields
        // an initiation it has already broadcast: its signed accept is
        // already in flight to every involved node, so withdrawing could let
        // two blocks commit with the same parent. Conflicts between
        // concurrently initiating primaries are instead resolved by the
        // bounded give-up in the retry path plus client retransmission.
        self.cross
            .entry(d)
            .or_insert_with(|| CrossRound::new(batch, involved, initiator, attempt));
        match self.reservation {
            Some(res) if res.d == d => {}
            Some(_) => return,
            None => {
                let timer = ctx.set_timer(timeouts::CONFLICT, timer_tags::CONFLICT);
                self.reservation = Some(Reservation {
                    d,
                    timer,
                    renewals: 0,
                });
                ctx.trace(|| TraceKind::ReservationAcquire {
                    batch: d.short_u64(),
                });
            }
        }
        let my_parent = self.ordering_tail();
        {
            let round = self.cross.get_mut(&d).expect("round exists");
            round.attempt = attempt;
            round
                .accepts
                .entry(self.cluster)
                .or_default()
                .insert(self.node, (my_parent, 0));
        }
        let accept_sig = self.signer.sign(&vote_sign_bytes(
            b"xaccept",
            self.cluster.0 as u64,
            &my_parent,
            &d,
        ));
        self.charge_message(ctx, 0, 1);
        let involved = self.cross.get(&d).expect("round exists").involved.clone();
        ctx.trace(|| TraceKind::XAccept {
            batch: d.short_u64(),
        });
        ctx.multicast(
            self.members_of_all_except_self(&involved),
            Msg::XAcceptB {
                d,
                attempt,
                cluster: self.cluster,
                parent: my_parent,
                node: self.node,
                sig: accept_sig,
            },
        );
        // Any votes that overtook the proposal can be counted now.
        self.drain_early_cross(d, ctx);
        self.try_send_xcommit_b(d, ctx);
    }

    /// A node receives another node's signed cross-shard `accept`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_xaccept_b(
        &mut self,
        from: ActorId,
        d: Digest,
        attempt: u32,
        cluster: ClusterId,
        parent: Digest,
        node: NodeId,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Byzantine {
            return;
        }
        let bytes = vote_sign_bytes(b"xaccept", cluster.0 as u64, &parent, &d);
        if !self.verify_signed(ctx, super::node_signer_id(node), &bytes, &sig) {
            return;
        }
        if !self.cross.contains_key(&d) {
            // The accept overtook the propose; park it until the propose
            // arrives (bounded: one entry per digest and sender).
            let entry = self.early_cross.entry(d).or_default();
            if entry.len() < 256 {
                entry.push((
                    from,
                    Msg::XAcceptB {
                        d,
                        attempt,
                        cluster,
                        parent,
                        node,
                        sig,
                    },
                ));
            }
            return;
        }
        let round = self.cross.get_mut(&d).expect("round exists");
        if round.attempt != attempt || !round.involved.contains(&cluster) {
            return;
        }
        // Byzantine accepts carry no height: the stale-primary veto below is
        // crash-model-only (Byzantine cross-shard safety rests on the 2f+1
        // matching commit votes per cluster instead).
        round
            .accepts
            .entry(cluster)
            .or_default()
            .insert(node, (parent, 0));
        self.try_send_xcommit_b(d, ctx);
    }

    fn try_send_xcommit_b(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let Some(round) = self.cross.get(&d) else {
            return;
        };
        if round.sent_commit {
            return;
        }
        let Some(parents) = self.assemble_parents(round) else {
            return;
        };
        let round = self.cross.get_mut(&d).expect("round exists");
        round.sent_commit = true;
        round.parents = Some(parents.clone());
        round
            .commit_votes
            .entry(self.cluster)
            .or_default()
            .insert(self.node);
        let involved = round.involved.clone();
        let pd = parents_digest(&parents);
        let sig = self
            .signer
            .sign(&vote_sign_bytes(b"xcommit", self.cluster.0 as u64, &pd, &d));
        self.charge_message(ctx, 0, 1);
        ctx.multicast(
            self.members_of_all_except_self(&involved),
            Msg::XCommitB {
                d,
                parents,
                cluster: self.cluster,
                node: self.node,
                sig,
            },
        );
        self.try_finalize_cross_bft(d, ctx);
    }

    /// A node receives another node's signed cross-shard `commit`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_xcommit_b(
        &mut self,
        from: ActorId,
        d: Digest,
        parents: Parents,
        cluster: ClusterId,
        node: NodeId,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Byzantine {
            return;
        }
        let pd = parents_digest(&parents);
        let bytes = vote_sign_bytes(b"xcommit", cluster.0 as u64, &pd, &d);
        if !self.verify_signed(ctx, super::node_signer_id(node), &bytes, &sig) {
            return;
        }
        let Some(round) = self.cross.get_mut(&d) else {
            let entry = self.early_cross.entry(d).or_default();
            if entry.len() < 256 {
                entry.push((
                    from,
                    Msg::XCommitB {
                        d,
                        parents,
                        cluster,
                        node,
                        sig,
                    },
                ));
            }
            return;
        };
        if !round.involved.contains(&cluster) {
            return;
        }
        match &round.parents {
            Some(ours) if *ours == parents => {
                round.commit_votes.entry(cluster).or_default().insert(node);
                self.try_finalize_cross_bft(d, ctx);
            }
            Some(_) => {
                // A vote for a different parents assembly (possible only with
                // Byzantine senders); ignore it.
            }
            None => {
                // We have not assembled parents yet; keep the vote for later.
                let entry = self.early_cross.entry(d).or_default();
                if entry.len() < 256 {
                    entry.push((
                        from,
                        Msg::XCommitB {
                            d,
                            parents,
                            cluster,
                            node,
                            sig,
                        },
                    ));
                }
            }
        }
    }

    fn try_finalize_cross_bft(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        let Some(round) = self.cross.get(&d) else {
            return;
        };
        if round.committed || round.parents.is_none() {
            return;
        }
        // 2f+1 matching commits from every involved cluster.
        for cluster in &round.involved {
            let votes = round.commit_votes.get(cluster).map_or(0, |v| v.len());
            if votes < self.quorum_of(*cluster) {
                return;
            }
        }
        let round = self.cross.get_mut(&d).expect("round exists");
        round.committed = true;
        let parents = round.parents.clone().expect("checked above");
        let batch = round.batch.clone();
        if let Some(timer) = round.retry_timer.take() {
            ctx.cancel_timer(timer);
        }
        if self.initiating == Some(d) {
            self.initiating = None;
        }
        ctx.trace(|| TraceKind::XCommit {
            batch: d.short_u64(),
        });
        self.release_reservation_if(d, ctx);
        let block = VerifiedBlock::chain(batch, parents);
        // Every replica replies; the client waits for f+1 matching replies.
        self.commit_block(ctx, block, true);
        self.process_buffered(ctx);
    }

    // ------------------------------------------------------------------
    // Shared cross-shard helpers
    // ------------------------------------------------------------------

    /// Checks whether every involved cluster has contributed a quorum of
    /// accepts (plus its primary's accept) and, if so, returns the assembled
    /// parents.
    ///
    /// The parent recorded for each cluster is the one reported by that
    /// cluster's primary: the primary is the replica that orders the
    /// cluster's intra-shard transactions, so its ordering tail is the only
    /// value that places the cross-shard block consistently *after* every
    /// intra-shard block the primary has already proposed. Backups whose
    /// accept reported an older head simply append the cross-shard block
    /// after they catch up (the deferred-append path).
    ///
    /// An accept from a member *ahead* of the primary, however, vetoes the
    /// commit: it proves the cluster has already ordered a block past the
    /// primary's tail (the primary is stale — typically demoted by a view
    /// change this initiator has not heard about), so committing against its
    /// parent would place a second block at an already-taken height — a
    /// fork. The round simply waits; the initiator's retry collects fresh
    /// tails until the accepts of a live primary and its cluster converge.
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

    fn release_reservation_if(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        if let Some(res) = self.reservation {
            if res.d == d {
                ctx.cancel_timer(res.timer);
                self.reservation = None;
                ctx.trace(|| TraceKind::ReservationRelease {
                    batch: d.short_u64(),
                });
            }
        }
    }

    fn drain_early_cross(&mut self, d: Digest, ctx: &mut Context<Msg>) {
        if let Some(pending) = self.early_cross.remove(&d) {
            for (from, msg) in pending {
                self.dispatch(from, msg, ctx);
            }
        }
    }

    /// Withdraws this primary's own in-flight cross-shard initiation so a
    /// higher-priority initiator can make progress. Only performed while no
    /// foreign cluster has accepted the proposal yet (otherwise the batch may
    /// already be committing and is left alone).
    fn yield_initiation(&mut self, own: Digest, ctx: &mut Context<Msg>) {
        let Some(round) = self.cross.get_mut(&own) else {
            self.initiating = None;
            return;
        };
        if round.sent_commit || round.committed {
            return;
        }
        let foreign_accepts = round
            .accepts
            .iter()
            .any(|(cluster, votes)| *cluster != self.cluster && !votes.is_empty());
        if foreign_accepts {
            return;
        }
        let involved = round.involved.clone();
        // Reset the round; the retry timer re-initiates it later.
        round.accepts.clear();
        round.commit_votes.clear();
        round.parents = None;
        self.initiating = None;
        ctx.trace(|| TraceKind::XAbortSent {
            batch: own.short_u64(),
        });
        ctx.multicast(
            self.members_of_all_except_self(&involved),
            Msg::XAbort {
                d: own,
                initiator: self.cluster,
            },
        );
    }

    /// An initiator withdrew its proposal: release the reservation and drop
    /// the round so the slot can be used by other transactions.
    pub(super) fn handle_xabort(
        &mut self,
        d: Digest,
        initiator: ClusterId,
        ctx: &mut Context<Msg>,
    ) {
        ctx.trace(|| TraceKind::XAbortRecv {
            batch: d.short_u64(),
        });
        let drop_round = match self.cross.get(&d) {
            Some(round) => !round.committed && round.initiator == initiator,
            None => false,
        };
        if drop_round {
            self.cross.remove(&d);
        }
        // The withdrawn proposal may still be sitting in the buffer (it
        // arrived while this replica was reserved for another transaction).
        // Replaying it later would reserve this replica for a proposal whose
        // initiator has already moved on — a reservation nothing will ever
        // release on a primary — so it must be purged alongside the round.
        self.buffered.retain(|(_, msg)| match msg {
            Msg::XPropose {
                batch,
                initiator: proposer,
                ..
            }
            | Msg::XProposeB {
                batch,
                initiator: proposer,
                ..
            } => !(*proposer == initiator && batch.digest() == d),
            _ => true,
        });
        self.release_reservation_if(d, ctx);
        self.process_buffered(ctx);
    }

    /// An `XAbort` retransmission timer fired: re-announce the withdrawal to
    /// every involved node and re-arm until the budget is spent.
    pub(super) fn handle_xabort_retx_timer(&mut self, timer: TimerId, ctx: &mut Context<Msg>) {
        let Some((&d, _)) = self.abort_retx.iter().find(|(_, st)| st.timer == timer) else {
            return;
        };
        let retx = self.abort_retx.get_mut(&d).expect("entry exists");
        retx.left = retx.left.saturating_sub(1);
        let involved = retx.involved.clone();
        if retx.left == 0 {
            self.abort_retx.remove(&d);
        } else {
            let next = ctx.set_timer(
                timeouts::XABORT_RETRANSMIT_INTERVAL,
                timer_tags::XABORT_RETRANSMIT,
            );
            self.abort_retx.get_mut(&d).expect("entry exists").timer = next;
        }
        ctx.trace(|| TraceKind::Retransmit {
            batch: d.short_u64(),
        });
        ctx.multicast(
            self.members_of_all_except_self(&involved),
            Msg::XAbort {
                d,
                initiator: self.cluster,
            },
        );
    }

    /// A remote replica stuck on a long-lived reservation probes the
    /// initiator cluster for the fate of the reserved batch (crash model;
    /// Byzantine reservations rely on the signed all-to-all commits instead).
    pub(super) fn handle_xstatus(
        &mut self,
        d: Digest,
        _cluster: ClusterId,
        node: NodeId,
        ctx: &mut Context<Msg>,
    ) {
        if self.model() != FailureModel::Crash {
            return;
        }
        self.answer_cross_fate(d, ActorId::Node(node), ctx);
    }

    /// Answers what became of cross-shard batch `d`: a committed batch is
    /// re-announced with its original commit (bit-identical block), an
    /// abandoned one with an abort. Batches still in flight need no answer —
    /// the ordinary protocol resolves them.
    fn answer_cross_fate(&mut self, d: Digest, to: ActorId, ctx: &mut Context<Msg>) {
        if let Some(block_digest) = self.cross_blocks.get(&d).copied() {
            if let Some(block) = self.ledger.block(block_digest) {
                if let Some(batch) = block.body_batch() {
                    ctx.send(
                        to,
                        Msg::XCommit {
                            d,
                            parents: block.parents.clone(),
                            batch: batch.clone(),
                        },
                    );
                    return;
                }
            }
            // The batch committed but its block was pruned behind the
            // checkpoint watermark, so the commit cannot be re-announced —
            // and answering "abort" for a committed batch would be a safety
            // violation. Stay silent: the prober's own cluster quorum
            // retains the fate. (Unreachable with retain-all, and under
            // truncation only for reservations older than the retained
            // window, which the probe timers resolve elsewhere.)
            return;
        }
        if self.cross.contains_key(&d) {
            return;
        }
        // Unknown and not in flight: the batch was given up on (or this
        // replica never saw it — aborting is still safe, the initiator
        // retries or the client retransmits). Only the primary speaks for
        // the cluster.
        if self.is_primary() {
            ctx.trace(|| TraceKind::XAbortSent {
                batch: d.short_u64(),
            });
            ctx.send(
                to,
                Msg::XAbort {
                    d,
                    initiator: self.cluster,
                },
            );
        }
    }

    /// The initiator's retry timer fired: if the batch is still uncommitted,
    /// re-initiate it with a fresh parent hash (§3.2: "the (primary node of)
    /// initiator clusters try to resend their own transactions").
    pub(super) fn handle_retry_timer(&mut self, timer: TimerId, ctx: &mut Context<Msg>) {
        let Some((&d, _)) = self
            .cross
            .iter()
            .find(|(_, r)| r.retry_timer == Some(timer))
        else {
            return;
        };
        let round = self.cross.get_mut(&d).expect("round exists");
        round.retry_timer = None;
        if round.committed || round.sent_commit {
            return;
        }
        if self.initiating != Some(d) {
            // This primary yielded its initiation to a higher-priority
            // initiator; re-initiate now if possible, otherwise check back
            // after another retry interval.
            if round.initiator != self.cluster {
                return;
            }
            if self.initiating.is_some() || self.reservation.is_some() {
                let attempt = self.cross.get(&d).map_or(0, |r| r.attempt);
                let retry = ctx.set_timer(self.retry_delay(d, attempt), timer_tags::RETRY);
                self.cross.get_mut(&d).expect("round exists").retry_timer = Some(retry);
                return;
            }
            self.initiating = Some(d);
        }
        let give_up_allowed = self.model() == FailureModel::Crash;
        let round = self.cross.get_mut(&d).expect("round exists");
        if round.attempt >= timeouts::MAX_RETRIES && give_up_allowed {
            // Give up: unblock the primary; the clients will eventually
            // retransmit and the transactions will be re-initiated. This is
            // safe in the crash model because the initiator is the only
            // replica that can send the commit, so an abandoned batch can
            // never commit behind its back. A Byzantine initiator keeps
            // retrying instead (its signed propose and accept are already out
            // there), relying on the view change for liveness if it is truly
            // stuck.
            //
            // The withdrawal must be announced: remote replicas that accepted
            // one of the attempts hold reservations for it, and reserved
            // *primaries* never release on the conflict timeout (releasing
            // would let them fork their chain position). Without the explicit
            // abort those primaries stay reserved forever and the whole
            // cluster livelocks behind them.
            let involved = round.involved.clone();
            self.cross.remove(&d);
            self.initiating = None;
            ctx.trace(|| TraceKind::XAbortSent {
                batch: d.short_u64(),
            });
            ctx.multicast(
                self.members_of_all_except_self(&involved),
                Msg::XAbort {
                    d,
                    initiator: self.cluster,
                },
            );
            // The abort is the only thing standing between a reserved remote
            // primary and a livelock; losing the single copy must not be
            // fatal, so it is retransmitted a few times.
            let timer = ctx.set_timer(
                timeouts::XABORT_RETRANSMIT_INTERVAL,
                timer_tags::XABORT_RETRANSMIT,
            );
            self.abort_retx.insert(
                d,
                AbortRetx {
                    involved,
                    left: timeouts::XABORT_RETRANSMITS,
                    timer,
                },
            );
            self.process_buffered(ctx);
            return;
        }
        round.attempt += 1;
        round.accepts.clear();
        round.commit_votes.clear();
        round.parents = None;
        self.stats.retries += 1;
        let attempt = round.attempt;
        let batch = Batch::clone(&round.batch);
        let involved = round.involved.clone();
        let parent = self.ordering_tail();
        self.cross
            .get_mut(&d)
            .expect("round exists")
            .accepts
            .entry(self.cluster)
            .or_default()
            .insert(self.node, (parent, self.tail_height));
        let retry = ctx.set_timer(self.retry_delay(d, attempt), timer_tags::RETRY);
        self.cross.get_mut(&d).expect("round exists").retry_timer = Some(retry);

        let recipients = self.members_of_all_except_self(&involved);
        ctx.trace(|| TraceKind::XPropose {
            batch: d.short_u64(),
            attempt: u64::from(attempt),
        });
        match self.model() {
            FailureModel::Crash => ctx.multicast(
                recipients,
                Msg::XPropose {
                    initiator: self.cluster,
                    attempt,
                    parent,
                    batch,
                },
            ),
            FailureModel::Byzantine => {
                let sig =
                    self.signer
                        .sign(&proposal_sign_bytes(self.cluster.0 as u64, &parent, &d));
                self.charge_message(ctx, 0, 1);
                ctx.multicast(
                    recipients.clone(),
                    Msg::XProposeB {
                        initiator: self.cluster,
                        attempt,
                        parent,
                        batch,
                        sig,
                    },
                );
                let accept_sig = self.signer.sign(&vote_sign_bytes(
                    b"xaccept",
                    self.cluster.0 as u64,
                    &parent,
                    &d,
                ));
                ctx.trace(|| TraceKind::XAccept {
                    batch: d.short_u64(),
                });
                ctx.multicast(
                    recipients,
                    Msg::XAcceptB {
                        d,
                        attempt,
                        cluster: self.cluster,
                        parent,
                        node: self.node,
                        sig: accept_sig,
                    },
                );
            }
        }
    }
}
