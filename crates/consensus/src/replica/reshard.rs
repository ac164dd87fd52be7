//! Dynamic resharding: load tracking, the coordinator's split/merge
//! decisions, and the freeze → snapshot → handover pipeline.
//!
//! The control plane is simple and fully deterministic:
//!
//! * Every primary counts committed operations per *bucket* (a fixed
//!   `accounts_per_shard / buckets_per_shard` slice of the key space) and
//!   periodically reports them to the coordinator, the primary of cluster 0.
//! * The coordinator directs a bucket hotter than `split_factor ×` the mean
//!   to the least-loaded cluster, and a displaced bucket cooler than
//!   `merge_factor ×` the mean back home (restoring the genesis map).
//! * The range's owner executes a directive as two consensus-ordered
//!   phases: an intra-shard **freeze** (client transactions touching the
//!   range abort deterministically), then a cross-shard **handover**
//!   carrying the frozen balances, committed atomically on both chains by
//!   the ordinary flattened protocol. Applying it bumps the shard-map epoch
//!   on the involved replicas; the others learn the map from a `MapAnnounce`
//!   (replicas) or a `Redirect` (clients).
//!
//! One directive is in flight at a time, so epochs advance strictly in
//! order. Crash model only (see README, "Dynamic resharding").

use super::Replica;
use crate::messages::{timer_tags, Msg};
use sharper_common::{
    AccountId, ClientId, ClusterId, FailureModel, ReshardConfig, TraceKind, TxId,
};
use sharper_crypto::Signature;
use sharper_ledger::Batch;
use sharper_net::{ActorId, Context};
use sharper_state::{Executor, Operation, Transaction};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Base of the per-cluster system client ids under which reshard control
/// transactions are submitted (far above any workload client id).
const SYS_CLIENT_BASE: u64 = 0xFFFF_FF00;

/// A directive this primary is executing: the freeze has been enqueued (or
/// applied) and the handover is pending.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingMove {
    pub start: u64,
    pub len: u64,
    pub to: ClusterId,
    pub epoch: u64,
}

/// Per-replica dynamic-resharding state. Inert unless a reshard policy is
/// configured and the failure model is crash.
#[derive(Debug, Default)]
pub(super) struct ReshardState {
    /// Per-bucket `(total, movable)` commit counts since the last load
    /// report. A commit is *movable* when every account it touches lives in
    /// that one bucket; anything else is pinned load, which migrating its
    /// bucket would turn into cross-shard traffic.
    load: BTreeMap<u64, (u64, u64)>,
    /// Coordinator: the latest report per cluster (bucket → (total, movable)).
    reports: BTreeMap<ClusterId, BTreeMap<u64, (u64, u64)>>,
    /// Coordinator: the directive in flight, `(epoch, start, len, to)`, kept
    /// whole so the check timer can re-send it over the lossy network.
    inflight: Option<(u64, u64, u64, ClusterId)>,
    /// Coordinator: the highest epoch ever directed.
    directed_epoch: u64,
    /// Coordinator: index of the next scripted move not yet issued.
    next_forced: usize,
    /// Source primary: the move being executed (freeze enqueued, handover
    /// not yet committed).
    pub(super) pending_move: Option<PendingMove>,
    /// Source primary: a built handover transaction waiting for the primary
    /// to unblock (it starts a cross-shard round).
    pending_handover: Option<(Arc<Transaction>, Vec<ClusterId>)>,
    /// Sequence counter for this primary's system transactions.
    sys_seq: u64,
}

impl Replica {
    /// The resharding policy, if the plane is active on this replica: one
    /// is configured and the failure model is crash.
    fn reshard_policy(&self) -> Option<&ReshardConfig> {
        match self.model() {
            FailureModel::Crash => self.cfg.reshard.as_ref(),
            FailureModel::Byzantine => None,
        }
    }

    /// Whether the dynamic-resharding plane is active on this replica.
    pub(super) fn reshard_active(&self) -> bool {
        self.reshard_policy().is_some()
    }

    /// The system client id this cluster's primary submits reshard
    /// transactions under.
    fn sys_client(&self) -> ClientId {
        ClientId(SYS_CLIENT_BASE + u64::from(self.cluster.0))
    }

    /// The coordinator of the resharding plane: the primary of cluster 0.
    fn coordinator(&self) -> ActorId {
        ActorId::Node(self.primary_of(ClusterId(0)))
    }

    fn is_coordinator(&self) -> bool {
        self.cluster == ClusterId(0) && self.is_primary()
    }

    /// Size of one load bucket in accounts (`None` when the plane is
    /// inactive or the partitioner is not range-based — resharding is inert
    /// then).
    fn bucket_size(&self) -> Option<u64> {
        let policy = self.reshard_policy()?;
        let aps = self.pmap.accounts_per_shard()?;
        Some((aps / policy.buckets_per_shard.max(1)).max(1))
    }

    /// Arms the periodic reshard timers. Called from `on_start`; primaries
    /// report load, the coordinator additionally evaluates decisions.
    pub(super) fn start_reshard_timers(&mut self, ctx: &mut Context<Msg>) {
        let (Some(policy), Some(_)) = (self.reshard_policy(), self.bucket_size()) else {
            return;
        };
        ctx.set_timer(policy.report_interval, timer_tags::LOAD_REPORT);
        if self.is_coordinator() {
            ctx.set_timer(policy.check_interval, timer_tags::RESHARD_CHECK);
        }
    }

    /// Counts one committed transaction's locally-owned accounts into their
    /// load buckets (called from the apply path; primaries of every cluster
    /// keep counting so a view change does not lose the signal).
    pub(super) fn note_commit_load(&mut self, tx: &Transaction) {
        let Some(bucket_size) = self.bucket_size() else {
            return;
        };
        if tx.is_reshard() {
            return;
        }
        let accounts = tx.accounts();
        let movable = {
            let mut buckets = accounts.iter().map(|a| a.0 / bucket_size);
            let first = buckets.next();
            first.is_some() && buckets.all(|b| Some(b) == first)
        };
        for account in accounts {
            if self.pmap.owns(self.cluster, account) {
                let entry = self
                    .reshard
                    .load
                    .entry(account.0 / bucket_size)
                    .or_insert((0, 0));
                entry.0 += 1;
                if movable {
                    entry.1 += 1;
                }
            }
        }
    }

    /// The load-report timer fired: ship the counts to the coordinator and
    /// re-arm. Counts reset each interval, so a report is a rate, not a
    /// cumulative total — drift moves the hot buckets between reports.
    pub(super) fn handle_load_report_timer(&mut self, ctx: &mut Context<Msg>) {
        let Some(policy) = self.reshard_policy() else {
            return;
        };
        ctx.set_timer(policy.report_interval, timer_tags::LOAD_REPORT);
        if !self.is_primary() {
            self.reshard.load.clear();
            return;
        }
        let buckets: Vec<(u64, u64, u64)> = std::mem::take(&mut self.reshard.load)
            .into_iter()
            .map(|(bucket, (total, movable))| (bucket, total, movable))
            .collect();
        if self.is_coordinator() {
            // The coordinator reports to itself without a network hop.
            let (cluster, epoch) = (self.cluster, self.map_epoch);
            self.handle_load_report(cluster, epoch, buckets);
        } else {
            ctx.send(
                self.coordinator(),
                Msg::LoadReport {
                    cluster: self.cluster,
                    epoch: self.map_epoch,
                    buckets,
                },
            );
        }
    }

    /// Coordinator: a primary reported its per-bucket load.
    pub(super) fn handle_load_report(
        &mut self,
        cluster: ClusterId,
        epoch: u64,
        buckets: Vec<(u64, u64, u64)>,
    ) {
        if !self.reshard_active() || !self.is_coordinator() || epoch < self.map_epoch {
            return;
        }
        self.reshard.reports.insert(
            cluster,
            buckets
                .into_iter()
                .map(|(bucket, total, movable)| (bucket, (total, movable)))
                .collect(),
        );
    }

    /// Coordinator: the decision timer fired. Issue at most one directive
    /// (scripted moves first, then load-driven split/merge) and re-arm.
    pub(super) fn handle_reshard_check_timer(&mut self, ctx: &mut Context<Msg>) {
        let Some(policy) = self.reshard_policy().filter(|_| self.is_coordinator()) else {
            return;
        };
        ctx.set_timer(policy.check_interval, timer_tags::RESHARD_CHECK);
        if let Some((epoch, start, len, to)) = self.reshard.inflight {
            // Re-send: the directive or its ack may have been dropped. The
            // owner dedups via its pending move and re-acks completed ones.
            self.send_directive(epoch, start, len, to, ctx);
            return;
        }
        if let Some(mv) =
            self.next_decision(ctx.now().saturating_since(sharper_common::SimTime::ZERO))
        {
            self.issue_directive(mv, ctx);
        }
    }

    /// The next move to direct, if any: the next due scripted move, else the
    /// load-driven split/merge decision.
    fn next_decision(
        &mut self,
        elapsed: sharper_common::Duration,
    ) -> Option<(u64, u64, ClusterId)> {
        let forced = &self.reshard_policy()?.forced;
        let (next, scripted) = (
            forced.get(self.reshard.next_forced).copied(),
            !forced.is_empty(),
        );
        // Scripted moves fire in order once their time arrives.
        if let Some(forced) = next {
            if elapsed >= forced.at {
                self.reshard.next_forced += 1;
                return Some((forced.start, forced.len, ClusterId(forced.to)));
            }
            // Scripted runs hold load-driven decisions back entirely so the
            // move sequence (and thus every golden digest) is exactly the
            // script.
            return None;
        }
        if scripted {
            return None;
        }
        self.load_driven_decision()
    }

    /// Split/merge by observed load. All arithmetic is integer-free of
    /// iteration-order dependence: buckets aggregate into a `BTreeMap` and
    /// ties break towards the lowest bucket / cluster id.
    fn load_driven_decision(&self) -> Option<(u64, u64, ClusterId)> {
        let policy = self.reshard_policy()?;
        let bucket_size = self.bucket_size()?;
        let mut by_bucket: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut total_by_cluster: BTreeMap<ClusterId, u64> = BTreeMap::new();
        for c in 0..self.pmap.shard_count() {
            total_by_cluster.entry(ClusterId(c)).or_insert(0);
        }
        for (cluster, buckets) in &self.reshard.reports {
            let mut sum = 0;
            for (bucket, (total, movable)) in buckets {
                let entry = by_bucket.entry(*bucket).or_insert((0, 0));
                entry.0 += total;
                entry.1 += movable;
                sum += total;
            }
            *total_by_cluster.entry(*cluster).or_insert(0) += sum;
        }
        if by_bucket.is_empty() {
            return None;
        }
        let grand_total: u64 = by_bucket.values().map(|(total, _)| total).sum();
        let bucket_count =
            (u64::from(self.pmap.shard_count()) * policy.buckets_per_shard.max(1)).max(1);
        let mean = grand_total as f64 / bucket_count as f64;
        if grand_total == 0 {
            return None;
        }
        // Merge first: a displaced range that has cooled goes home, keeping
        // the overlay set (and the map message size) small. The threshold
        // scales with the number of buckets the overlay spans.
        for mv in self.pmap.overlays() {
            let first = mv.start / bucket_size;
            let n = mv.len.div_ceil(bucket_size).max(1);
            let load: u64 = (first..first + n)
                .map(|b| by_bucket.get(&b).map_or(0, |(total, _)| *total))
                .sum();
            if (load as f64) < policy.merge_factor * mean * n as f64 {
                let home = self.pmap.base_shard_of(AccountId(mv.start));
                return Some((mv.start, mv.len, home));
            }
        }
        // Split: the hottest *fully movable* bucket, if hot enough, moves to
        // the least-loaded cluster (moving pinned load would cost more in
        // cross-shard traffic than the imbalance it cures).
        let (&hot_bucket, &(hot_load, _)) = by_bucket
            .iter()
            .filter(|(_, (total, movable))| total == movable)
            .max_by_key(|(bucket, (total, _))| (*total, std::cmp::Reverse(**bucket)))?;
        if (hot_load as f64) <= policy.split_factor * mean {
            return None;
        }
        let start = hot_bucket * bucket_size;
        let owner = self.pmap.shard_of(AccountId(start));
        let (&coldest, &coldest_load) = total_by_cluster
            .iter()
            .min_by_key(|(cluster, load)| (**load, cluster.0))?;
        // Only move if it strictly improves the balance (which stops the
        // irreducible Zipf head bucket from ping-ponging). `target` is the
        // mass that would meet the owner and the receiver half-way.
        let owner_load = total_by_cluster.get(&owner).copied().unwrap_or(0);
        if coldest == owner || coldest_load + hot_load >= owner_load {
            return None;
        }
        let target = owner_load.saturating_sub(coldest_load) / 2;
        // A Zipf hot window makes the hottest buckets *adjacent*, so the run
        // of contiguous fully-movable buckets behind the head moves as one
        // directive: one freeze and one handover for the whole head.
        let mut run = 1u64;
        let mut mass = hot_load;
        while let Some(&(total, movable)) = by_bucket.get(&(hot_bucket + run)) {
            let next_start = (hot_bucket + run) * bucket_size;
            if total != movable
                || total == 0
                || mass + total > target
                || self.pmap.shard_of(AccountId(next_start)) != owner
            {
                break;
            }
            mass += total;
            run += 1;
        }
        Some((start, run * bucket_size, coldest))
    }

    /// Coordinator: direct the current owner of `[start, start+len)` to move
    /// the range to `to`.
    fn issue_directive(&mut self, (start, len, to): (u64, u64, ClusterId), ctx: &mut Context<Msg>) {
        if to.0 >= self.pmap.shard_count() || len == 0 {
            return;
        }
        let owner = self.pmap.shard_of(AccountId(start));
        if owner == to {
            return;
        }
        let epoch = self.reshard.directed_epoch + 1;
        self.reshard.directed_epoch = epoch;
        self.reshard.inflight = Some((epoch, start, len, to));
        ctx.trace(|| TraceKind::ReshardDirective {
            epoch,
            start,
            len,
            to: u64::from(to.0),
        });
        self.send_directive(epoch, start, len, to, ctx);
    }

    /// Routes a directive to the primary the coordinator believes owns the
    /// range (handling it directly when that is the coordinator itself).
    fn send_directive(
        &mut self,
        epoch: u64,
        start: u64,
        len: u64,
        to: ClusterId,
        ctx: &mut Context<Msg>,
    ) {
        let owner = self.pmap.shard_of(AccountId(start));
        if owner == self.cluster && self.is_primary() {
            self.handle_reshard_directive(epoch, start, len, to, ctx);
        } else {
            ctx.send(
                ActorId::Node(self.primary_of(owner)),
                Msg::ReshardDirective {
                    epoch,
                    start,
                    len,
                    to,
                },
            );
        }
    }

    /// Owner primary: a directive arrived. Phase 1 — order an intra-shard
    /// freeze for the range through the ordinary batching path.
    pub(super) fn handle_reshard_directive(
        &mut self,
        epoch: u64,
        start: u64,
        len: u64,
        to: ClusterId,
        ctx: &mut Context<Msg>,
    ) {
        if !self.reshard_active() || !self.is_primary() {
            return;
        }
        if epoch <= self.map_epoch {
            // A re-sent directive this cluster already executed (its
            // `ReshardDone` was lost): re-ack so the coordinator unblocks.
            ctx.send(
                self.coordinator(),
                Msg::ReshardDone {
                    epoch,
                    cluster: self.cluster,
                },
            );
            return;
        }
        if self.reshard.pending_move.is_some() || !self.pmap.owns(self.cluster, AccountId(start)) {
            return;
        }
        self.reshard.pending_move = Some(PendingMove {
            start,
            len,
            to,
            epoch,
        });
        let seq = self.reshard.sys_seq;
        self.reshard.sys_seq += 1;
        let tx = Arc::new(Transaction::freeze(
            self.sys_client(),
            seq,
            start,
            len,
            epoch,
        ));
        self.enqueue(tx, Signature::unsigned(0), None, ctx);
        if !self.is_blocked() {
            self.flush_pending(ctx);
        }
    }

    /// Called after a block carrying reshard transactions applied: a freeze
    /// this primary waited for triggers the snapshot and handover; a
    /// handover switches the map epoch.
    pub(super) fn after_reshard_block(&mut self, batch: &Batch, ctx: &mut Context<Msg>) {
        for tx in batch.txs() {
            for op in &tx.operations {
                match op {
                    Operation::Freeze { start, len, epoch } => {
                        self.on_freeze_applied(*start, *len, *epoch, ctx);
                    }
                    Operation::Handover {
                        start,
                        len,
                        from,
                        to,
                        epoch,
                        ..
                    } => {
                        self.on_handover_applied(*start, *len, *from, *to, *epoch, ctx);
                    }
                    _ => {}
                }
            }
        }
    }

    /// A freeze for `[start, start+len)` applied on this replica's chain.
    /// The source primary snapshots the now-stable range and initiates the
    /// handover; every other replica only carries the frozen flag.
    fn on_freeze_applied(&mut self, start: u64, len: u64, epoch: u64, ctx: &mut Context<Msg>) {
        let Some(mv) = self.reshard.pending_move else {
            return;
        };
        if !self.is_primary() || mv.start != start || mv.len != len || mv.epoch != epoch {
            return;
        }
        // Every replica holds the identical store at this block, so the
        // snapshot is a pure function of the chain.
        let entries = Executor::snapshot_range(&self.store, start, len);
        let seq = self.reshard.sys_seq;
        self.reshard.sys_seq += 1;
        let tx = Arc::new(Transaction::new(
            TxId::new(self.sys_client(), seq),
            vec![Operation::Handover {
                start,
                len,
                from: self.cluster,
                to: mv.to,
                epoch,
                entries,
            }],
        ));
        let mut involved = vec![self.cluster, mv.to];
        involved.sort_unstable();
        self.reshard.pending_handover = Some((tx, involved));
        self.try_start_pending_handover(ctx);
    }

    /// Starts the pending handover if the primary is free to initiate
    /// (called from every unblock point).
    pub(super) fn try_start_pending_handover(&mut self, ctx: &mut Context<Msg>) {
        if self.is_blocked() {
            return;
        }
        let Some((tx, involved)) = self.reshard.pending_handover.take() else {
            return;
        };
        self.propose_batch(vec![tx], Some(&involved), ctx);
    }

    /// A handover block applied: the range moved between `from` and `to`.
    /// Every involved replica switches its shard map to the new epoch and
    /// rebuilds its executor; the source primary additionally announces the
    /// map to the rest of the system and releases the coordinator.
    fn on_handover_applied(
        &mut self,
        start: u64,
        len: u64,
        from: ClusterId,
        to: ClusterId,
        epoch: u64,
        ctx: &mut Context<Msg>,
    ) {
        if epoch <= self.map_epoch {
            return;
        }
        self.pmap.apply_range_move(start, len, to);
        self.map_epoch = epoch;
        self.executor = Executor::new(self.cluster, self.pmap.clone());
        self.stats.reshards_applied += 1;
        ctx.trace(|| TraceKind::ReshardApply {
            epoch,
            start,
            len,
            from: u64::from(from.0),
            to: u64::from(to.0),
        });
        if self.cluster == from && self.is_primary() {
            self.reshard.pending_move = None;
            // Replicas of non-involved clusters learn the new map here (the
            // involved ones just applied the handover block themselves).
            let others: Vec<ClusterId> = (0..self.pmap.shard_count())
                .map(ClusterId)
                .filter(|c| *c != from && *c != to)
                .collect();
            if !others.is_empty() {
                let recipients = self.members_of_all_except_self(&others);
                ctx.multicast(
                    recipients,
                    Msg::MapAnnounce {
                        epoch,
                        overlays: self.pmap.overlays().to_vec(),
                    },
                );
            }
            ctx.send(
                self.coordinator(),
                Msg::ReshardDone {
                    epoch,
                    cluster: from,
                },
            );
        }
    }

    /// A non-involved replica receives the post-handover shard map.
    pub(super) fn handle_map_announce(
        &mut self,
        epoch: u64,
        overlays: Vec<sharper_state::RangeMove>,
    ) {
        if self.model() != FailureModel::Crash || epoch <= self.map_epoch {
            return;
        }
        self.pmap.install_overlays(overlays);
        self.map_epoch = epoch;
        self.executor = Executor::new(self.cluster, self.pmap.clone());
    }

    /// Coordinator: a handover completed; the next directive may be issued.
    pub(super) fn handle_reshard_done(&mut self, epoch: u64, _cluster: ClusterId) {
        if !self.reshard_active() || !self.is_coordinator() {
            return;
        }
        if self.reshard.inflight.map(|(e, ..)| e) == Some(epoch) {
            self.reshard.inflight = None;
            // Reports predating the move describe the old placement.
            self.reshard.reports.clear();
        }
    }
}
