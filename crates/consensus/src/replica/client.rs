//! The client plane: request routing, the primary-side batching layer,
//! execution of committed blocks and the replies.
//!
//! A request waits in the primary's [`Mempool`](crate::mempool::Mempool)
//! until a batch of its kind fills (up to `batch.max_batch_size`) or the
//! batch timer fires. `max_batch_size = 1` reproduces the paper's
//! one-transaction blocks: every request is proposed on arrival.

use super::{client_signer_id, Replica};
use crate::messages::{timer_tags, Msg};
use crate::timeouts;
use sharper_common::{ClusterId, FailureModel, TraceKind, TxId};
use sharper_crypto::keys::SignerId;
use sharper_crypto::{hash, Signature};
use sharper_ledger::{Batch, VerifiedBatch, VerifiedBlock};
use sharper_net::{ActorId, Context, TimerId};
use sharper_state::{ExecPlan, ExecutionOutcome, Transaction};
use std::sync::Arc;

impl Replica {
    /// Entry point for client requests (possibly forwarded by peers).
    pub(super) fn handle_request(
        &mut self,
        from: ActorId,
        tx: Arc<Transaction>,
        epoch: u64,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        // A client must not freeze a range or forge a handover.
        if tx.is_reshard() && matches!(from, ActorId::Client(_)) {
            return;
        }
        if self.log.committed(tx.id) {
            // Retransmission of an already committed request: just reply.
            self.reply_to_client(ctx, tx.id, true);
            return;
        }
        // In the Byzantine model the client signature must verify (§2.1);
        // retransmissions of an identical signed request hit the cache.
        if self.model().requires_signatures() {
            let expected = client_signer_id(tx.client());
            if !self.verify_request_sig(ctx, expected, &tx.canonical_bytes(), &sig) {
                return;
            }
        }
        // A client routing under a stale shard map gets the current one back
        // (crash model). Purely advisory: the request is STILL processed, so
        // a stale map costs one extra hop, never liveness.
        if self.model() == FailureModel::Crash
            && epoch < self.map_epoch
            && matches!(from, ActorId::Client(_))
        {
            ctx.send(
                ActorId::Client(tx.client()),
                Msg::Redirect {
                    tx: tx.id,
                    epoch: self.map_epoch,
                    overlays: self.pmap.overlays().to_vec(),
                },
            );
        }
        // An intra-shard transaction is ordered by its home cluster, a
        // cross-shard one by the initiator cluster the configured policy
        // picks (super primary by default, §3.2). Any replica but that
        // cluster's primary forwards the request there.
        let involved = tx.involved_clusters(&self.pmap);
        let cross = involved.len() > 1;
        let target = if cross {
            self.cfg
                .system
                .initiator_cluster(&involved, Some(self.cluster))
                .expect("involved clusters exist")
        } else {
            involved.first().copied().unwrap_or(self.cluster)
        };
        if target != self.cluster || !self.is_primary() {
            let epoch = self.map_epoch;
            ctx.send(
                ActorId::Node(self.primary_of(target)),
                Msg::Request { tx, epoch, sig },
            );
            return;
        }
        self.enqueue(tx, sig, cross.then_some(involved), ctx);
    }

    /// Verifies a client request signature through the LRU cache of
    /// verified `(signer, digest)` pairs: a retransmission with identical
    /// bytes *and tag* skips the check and its simulated cost; a swapped
    /// signature misses the cache.
    fn verify_request_sig(
        &mut self,
        ctx: &mut Context<Msg>,
        expected: SignerId,
        bytes: &[u8],
        sig: &Signature,
    ) -> bool {
        if sig.signer != expected.0 {
            return false;
        }
        let key = (sig.signer, hash(bytes));
        if self.verified_sigs.check(key, sig.tag) {
            self.stats.sig_cache_hits += 1;
            return true;
        }
        ctx.charge(self.cfg.cost.verification(self.model()));
        let ok = self.cfg.registry.verify(bytes, sig);
        if ok {
            self.verified_sigs.insert(key, sig.tag);
        }
        ok
    }

    fn reply_to_client(&self, ctx: &mut Context<Msg>, tx: TxId, applied: bool) {
        ctx.trace(|| TraceKind::Reply { tx, applied });
        ctx.send(
            ActorId::Client(tx.client),
            Msg::Reply {
                tx,
                node: self.node,
                applied,
            },
        );
    }

    /// Whether `id` is queued or carried by an uncommitted round: no
    /// transaction is proposed in two batches.
    fn tx_pending_or_in_flight(&self, id: TxId) -> bool {
        self.mempool.contains(id)
            || self
                .intra
                .values()
                .any(|r| !r.committed && r.batch.contains(id))
            || self
                .cross
                .values()
                .any(|r| !r.committed && r.batch.contains(id))
    }

    fn max_batch(&self) -> usize {
        self.cfg.batch.max_batch_size.max(1)
    }

    fn ensure_batch_timer(&mut self, ctx: &mut Context<Msg>) {
        if self.batch_timer.is_none() {
            self.batch_timer = Some(ctx.set_timer(timeouts::BATCH, timer_tags::BATCH));
        }
    }

    /// Queues a request on the primary — intra-shard, or cross-shard under
    /// its involved-cluster set — and flushes its queue once a batch is full.
    pub(super) fn enqueue(
        &mut self,
        tx: Arc<Transaction>,
        sig: Signature,
        involved: Option<Vec<ClusterId>>,
        ctx: &mut Context<Msg>,
    ) {
        if self.tx_pending_or_in_flight(tx.id) {
            self.mempool.note_duplicate();
            return;
        }
        let id = tx.id;
        let now = ctx.now();
        let depth = match &involved {
            None => self.mempool.admit_intra(tx, sig, now),
            Some(set) => self.mempool.admit_cross(tx, sig, set.clone(), now),
        };
        ctx.trace(|| TraceKind::MempoolAdmit {
            tx: id,
            cross: involved.is_some(),
            depth: depth as u64,
        });
        if depth >= self.max_batch() {
            self.flush(involved.as_deref(), ctx);
        } else {
            self.ensure_batch_timer(ctx);
        }
    }

    /// Proposes one batch from the intra-shard queue (`None`) or from one
    /// involved-cluster set's queue. No-op while reserved/initiating (the
    /// batch timer can still fire then).
    fn flush(&mut self, set: Option<&[ClusterId]>, ctx: &mut Context<Msg>) {
        if self.is_blocked() {
            return;
        }
        let queued = match set {
            None => self.mempool.intra_len(),
            Some(set) => self.mempool.cross_len_of(set),
        };
        let take = self.max_batch().min(queued);
        if take == 0 {
            return;
        }
        let popped = match set {
            None => self.mempool.pop_intra(take, ctx.now()),
            Some(set) => self.mempool.pop_cross(set, take, ctx.now()),
        };
        let txs: Vec<Arc<Transaction>> = popped
            .into_iter()
            .map(|(tx, _)| tx)
            .filter(|tx| !self.log.committed(tx.id))
            .collect();
        if !txs.is_empty() {
            self.propose_batch(txs, set, ctx);
        }
    }

    /// Seals `txs` into a batch and starts ordering it: intra-shard, or
    /// cross-shard over the involved-cluster `set`.
    pub(super) fn propose_batch(
        &mut self,
        txs: Vec<Arc<Transaction>>,
        set: Option<&[ClusterId]>,
        ctx: &mut Context<Msg>,
    ) {
        let batch = VerifiedBatch::seal(txs);
        ctx.trace(|| TraceKind::BatchSeal {
            batch: batch.digest().short_u64(),
            txs: batch.tx_ids().collect(),
            cross: set.is_some(),
        });
        match set {
            None => self.start_intra(batch, ctx),
            Some(set) => self.start_cross(batch, set.to_vec(), ctx),
        }
    }

    /// Flushes whatever pending work can start right now: all full or timed
    /// out intra batches, then cross-shard sets until one blocks the
    /// primary. Called from the batch timer and from every unblock point.
    pub(super) fn flush_pending(&mut self, ctx: &mut Context<Msg>) {
        while !self.is_blocked() && self.mempool.intra_len() > 0 {
            self.flush(None, ctx);
        }
        for set in self.mempool.cross_sets() {
            if self.is_blocked() {
                break;
            }
            self.flush(Some(&set), ctx);
        }
        if !self.mempool.is_empty() {
            self.ensure_batch_timer(ctx);
        }
    }

    pub(super) fn handle_batch_timer(&mut self, timer: TimerId, ctx: &mut Context<Msg>) {
        if self.batch_timer != Some(timer) {
            return;
        }
        self.batch_timer = None;
        self.flush_pending(ctx);
    }

    /// The witness for a batch a commit delivers without a round here.
    /// `None` for a duplicate delivery (not worth a root derivation) or a
    /// batch whose transactions do not hash to its claimed root.
    pub(super) fn verify_unseen_commit(&self, batch: Batch) -> Option<VerifiedBatch> {
        if self.log.any_committed(batch.tx_ids()) {
            return None;
        }
        VerifiedBatch::check(batch)
    }

    /// Appends a block that chains to the ledger head, executes its batch
    /// atomically in order and optionally replies to the clients.
    pub(super) fn apply_block(
        &mut self,
        ctx: &mut Context<Msg>,
        block: VerifiedBlock,
        reply: bool,
    ) {
        let batch = block
            .body_batch()
            .cloned()
            .expect("only batch blocks are committed");
        let cross = block.is_cross_shard();
        if cross {
            // Remember where the batch landed so a status probe for it can be
            // answered with a retransmitted commit after the round is purged.
            self.cross_blocks.insert(batch.digest(), block.digest());
        }
        self.log.append(block, &self.cfg.ledger);
        // One execution-cost charge per transaction plus one block digest,
        // identical in every executor mode.
        ctx.charge(self.cfg.cost.execution_batch(batch.len()));
        // The batch applies atomically in order; the partitioned scheduler
        // merges outcomes back in batch order, so both paths are
        // bit-identical. With one executor thread the scheduler would only
        // reorder the same work on this thread, so the batch applies
        // serially; the plan is built for the trace alone. Reshard control
        // transactions span every partition and always take the serial path.
        let has_reshard = batch.txs().iter().any(|tx| tx.is_reshard());
        let partitioned = self.cfg.exec.is_partitioned() && !has_reshard;
        if partitioned {
            ctx.trace(|| {
                let plan = ExecPlan::build(&self.executor, self.store.partition_map(), batch.txs());
                TraceKind::ExecPlan {
                    batch: batch.digest().short_u64(),
                    partitions: plan.active_partitions() as u64,
                    steps: plan.total_steps() as u64,
                    max_queue_depth: plan.max_queue_depth() as u64,
                    makespan_units: plan.makespan_units(),
                }
            });
        }
        let outcomes = if partitioned && self.cfg.exec.exec_threads > 1 {
            self.executor
                .apply_batch_partitioned(&mut self.store, batch.txs(), self.cfg.exec.exec_threads)
                .outcomes
        } else {
            self.executor.apply_batch(&mut self.store, batch.txs())
        };
        ctx.trace(|| TraceKind::Execute {
            block: self.log.ledger().head().short_u64(),
            batch: batch.digest().short_u64(),
            txs: batch.tx_ids().collect(),
            cross,
        });
        for (tx, outcome) in batch.txs().iter().zip(outcomes) {
            let applied = matches!(outcome, ExecutionOutcome::Applied);
            if matches!(outcome, ExecutionOutcome::Aborted) {
                self.stats.aborted_executions += 1;
            }
            if cross {
                self.stats.committed_cross += 1;
            } else {
                self.stats.committed_intra += 1;
            }
            if applied {
                self.note_commit_load(tx);
            }
            // Reshard control transactions are system-submitted; there is no
            // client actor to answer.
            if reply && !tx.is_reshard() {
                self.reply_to_client(ctx, tx.id, applied);
            }
        }
        self.stats.committed_blocks += 1;
        if has_reshard {
            self.after_reshard_block(&batch, ctx);
        }
        // Drop completed rounds, and uncommitted ones whose transactions all
        // committed elsewhere (they could never append). Payload-less PBFT
        // placeholders stay: their pre-prepare may still arrive.
        let log = &self.log;
        self.intra.retain(|_, r| {
            !r.committed && (r.batch.is_empty() || !log.all_committed(r.batch.tx_ids()))
        });
        self.cross.retain(|_, r| !r.committed);
        self.maybe_cancel_view_change_timer(ctx);
    }
}
