//! The SharPer replica: one protocol state machine per node.
//!
//! A replica composes, by submodule,
//!
//! * `log`: its cluster's chain as one ordering log — the [`LedgerView`],
//!   the ordering tail and the decided blocks waiting for their parent;
//! * `client`: the client plane — request routing, the primary-side
//!   batching layer, execution and replies;
//! * `intra`: the intra-shard engine of its cluster (Paxos or PBFT);
//! * `cross`: the flattened cross-shard engine, one handler per phase for
//!   both Algorithm 1 and 2, and `cross_recovery` its retry, withdrawal and
//!   fate-probe paths;
//! * `view_change`: the view-change sub-protocol;
//! * `reshard`: dynamic resharding of the shard's [`PartitionedStore`].
//!
//! Each protocol phase has one code path; where the failure models differ
//! only in message type or signing, the path branches at that point alone.
//! The replica is a pure [`Actor`]: all inputs arrive as messages or timer
//! expirations, all outputs leave through the [`Context`]. This module holds
//! the shared state, the helpers and the message dispatch.

mod client;
mod cross;
mod cross_recovery;
mod intra;
mod log;
mod reshard;
#[cfg(test)]
mod tests;
mod view_change;

use crate::config::ReplicaConfig;
use crate::mempool::Mempool;
use crate::messages::{timer_tags, AcceptedRound, Ballot, Msg, PreparedCert};
use crate::sigcache::SigCache;
use cross::{CrossRound, Reservation};
use cross_recovery::AbortRetx;
use intra::IntraRound;
use sharper_common::{ClientId, ClusterId, FailureModel, NodeId};
use sharper_crypto::keys::SignerId;
use sharper_crypto::{Digest, Signature, Signer};
use sharper_ledger::LedgerView;
use sharper_net::{Actor, ActorId, Context, TimerId};
use sharper_state::{AccountStore, Executor, PartitionedStore, Partitioner};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Number of `(signer, digest)` pairs remembered by the verified-signature
/// cache (retransmissions skip re-verification).
const SIG_CACHE_CAPACITY: usize = 4_096;

/// Maps a replica id into the signer-id space of the key registry.
pub fn node_signer_id(node: NodeId) -> SignerId {
    SignerId(node.0 as u64)
}

/// The total priority order that breaks circular waits between
/// concurrently initiating cross-shard primaries: lower key wins. Keyed by
/// the batch digest *first*, so which initiator yields varies per batch (a
/// fixed cluster order starved high-numbered initiators at 100% cross-shard
/// load); the initiator id keeps the order total.
pub(super) fn cross_priority_key(d: Digest, initiator: ClusterId) -> (u64, u32) {
    (d.short_u64(), initiator.0)
}

/// Maps a client id into the signer-id space of the key registry.
pub fn client_signer_id(client: ClientId) -> SignerId {
    SignerId(1_000_000 + client.0)
}

/// Counters exposed by a replica for tests and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Intra-shard transactions this replica appended.
    pub committed_intra: usize,
    /// Cross-shard transactions this replica appended.
    pub committed_cross: usize,
    /// Blocks (batches) this replica appended.
    pub committed_blocks: usize,
    /// Protocol messages handled.
    pub messages_handled: usize,
    /// Cross-shard re-initiations performed (as initiator primary).
    pub retries: usize,
    /// View changes this replica voted to start.
    pub view_changes_started: usize,
    /// Transactions whose execution aborted at the application level.
    pub aborted_executions: usize,
    /// Signature verifications skipped thanks to the verified-pair cache.
    pub sig_cache_hits: usize,
    /// Handover blocks applied (shard-map epoch switches) on this replica.
    pub reshards_applied: usize,
}

/// One voter's view-change vote as recorded by the would-be new primary.
#[derive(Debug, Clone)]
struct VcVote {
    /// Accepted rounds reported for the crash-model state transfer.
    accepted: Vec<AcceptedRound>,
    /// Prepared-certificates reported for the Byzantine state transfer.
    prepared: Vec<PreparedCert>,
    /// The voter's committed chain length.
    chain_len: u64,
}

/// A SharPer replica.
pub struct Replica {
    node: NodeId,
    cluster: ClusterId,
    cfg: Arc<ReplicaConfig>,
    signer: Signer,
    executor: Executor,
    /// The shard's account state, split by account range into
    /// `cfg.exec.partitions` disjoint partitions.
    store: PartitionedStore,
    /// The cluster's chain: the ledger, the ordering tail and the decided
    /// blocks waiting for their parent.
    log: log::ChainLog,
    /// This cluster's current view (primary = `view % cluster size`).
    view: u64,
    /// The highest ballot this replica has promised (crash model): proposals
    /// below it are rejected. Voting for and installing a view both raise it
    /// (the phase-1b half of Paxos).
    promised: Ballot,
    /// The highest view this replica has ever voted for; successive votes go
    /// strictly above it.
    vc_highest_voted: u64,
    intra: HashMap<Digest, IntraRound>,
    cross: HashMap<Digest, CrossRound>,
    reservation: Option<Reservation>,
    /// Digest of the cross-shard batch this primary is currently
    /// initiating; while set, the primary starts no other transaction.
    initiating: Option<Digest>,
    /// Primary-side mempool: requests awaiting proposal, with their client
    /// signatures (to re-forward them across a view change).
    mempool: Mempool,
    /// The batch timer bounding how long a partial batch may wait.
    batch_timer: Option<TimerId>,
    /// Transaction-starting messages buffered while reserved/initiating.
    buffered: VecDeque<(ActorId, Msg)>,
    /// Cross-shard votes that arrived before their propose message.
    early_cross: HashMap<Digest, Vec<(ActorId, Msg)>>,
    /// Batch root → block digest for every committed cross-shard block, so
    /// the status probe can retransmit the commit of an already purged round.
    cross_blocks: HashMap<Digest, Digest>,
    /// `XAbort` retransmission state per withdrawn digest (initiator side).
    abort_retx: HashMap<Digest, AbortRetx>,
    /// The rounds authorized by the last accepted new-view (Byzantine):
    /// parent → (view, digest), the exceptions to the prepared-lock.
    newview_certs: HashMap<Digest, (u64, Digest)>,
    /// View-change votes per proposed view: voter → its vote (used by the
    /// new primary for state transfer and the chain-frontier check).
    vc_votes: HashMap<u64, BTreeMap<NodeId, VcVote>>,
    vc_timer: Option<TimerId>,
    /// LRU cache of `(signer, digest-of-signed-bytes)` pairs that already
    /// verified, so retransmissions skip the signature check.
    verified_sigs: SigCache,
    /// The replica's *current* shard map: the genesis partitioner plus every
    /// installed overlay. All routing goes through this, never through
    /// `cfg.partitioner`, which stays frozen at genesis.
    pmap: Partitioner,
    /// The epoch of `pmap`; bumped exactly once per applied handover.
    map_epoch: u64,
    /// Dynamic-resharding state, inert unless `cfg.reshard` is set.
    reshard: reshard::ReshardState,
    stats: ReplicaStats,
}

impl Replica {
    /// Creates a replica with an already initialised shard store.
    pub fn new(node: NodeId, cfg: Arc<ReplicaConfig>, store: AccountStore) -> Self {
        let cluster = cfg
            .system
            .cluster_of(node)
            .expect("replica node must be in the configuration");
        let signer = cfg
            .registry
            .signer(node_signer_id(node))
            .expect("replica key must be registered");
        let pmap = cfg.partitioner.clone();
        let executor = Executor::new(cluster, pmap.clone());
        let genesis_primary = cfg
            .system
            .primary(cluster, 0)
            .expect("cluster exists in the configuration");
        // Split the shard state by account range; one partition (the serial
        // default) wraps the flat store unchanged.
        let store = PartitionedStore::from_store(
            store,
            cfg.exec.partitions,
            PartitionedStore::chunk_for(cfg.partitioner.accounts_per_shard(), cfg.exec.partitions),
        );
        Self {
            node,
            cluster,
            cfg,
            signer,
            executor,
            store,
            log: log::ChainLog::new(cluster),
            view: 0,
            promised: Ballot::new(0, genesis_primary),
            vc_highest_voted: 0,
            intra: HashMap::new(),
            cross: HashMap::new(),
            reservation: None,
            initiating: None,
            mempool: Mempool::new(),
            batch_timer: None,
            buffered: VecDeque::new(),
            early_cross: HashMap::new(),
            cross_blocks: HashMap::new(),
            abort_retx: HashMap::new(),
            newview_certs: HashMap::new(),
            vc_votes: HashMap::new(),
            vc_timer: None,
            verified_sigs: SigCache::new(SIG_CACHE_CAPACITY),
            pmap,
            map_epoch: 0,
            reshard: reshard::ReshardState::default(),
            stats: ReplicaStats::default(),
        }
    }

    /// Creates a replica and populates its shard with `accounts_per_shard`
    /// accounts of `initial_balance` units each, owned by client `i` for
    /// account `i` (the convention used by the evaluation workload).
    pub fn with_genesis(
        node: NodeId,
        cfg: Arc<ReplicaConfig>,
        accounts_per_shard: u64,
        initial_balance: u64,
    ) -> Self {
        let cluster = cfg
            .system
            .cluster_of(node)
            .expect("replica node must be in the configuration");
        let executor = Executor::new(cluster, cfg.partitioner.clone());
        let store = executor.genesis_store(accounts_per_shard, initial_balance, ClientId);
        Self::new(node, cfg, store)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This replica's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cluster (shard) this replica belongs to.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// The replica's current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether this replica is currently the primary of its cluster.
    pub fn is_primary(&self) -> bool {
        self.primary_of(self.cluster) == self.node
    }

    /// The replica's ledger view.
    pub fn ledger(&self) -> &LedgerView {
        self.log.ledger()
    }

    /// The replica's shard store (partitioned by account range; one
    /// partition in the serial default).
    pub fn store(&self) -> &PartitionedStore {
        &self.store
    }

    /// The replica's pending-request mempool (primary-side batching queues
    /// plus depth / age / admission metrics).
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Counters for tests and reports.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// The shard-map epoch this replica currently routes under.
    pub fn map_epoch(&self) -> u64 {
        self.map_epoch
    }

    /// The replica's current shard map (genesis partitioner plus the
    /// overlays installed by committed handovers).
    pub fn shard_map(&self) -> &Partitioner {
        &self.pmap
    }

    /// Number of transactions this replica has committed (appended).
    pub fn committed_count(&self) -> usize {
        self.log.ledger().committed_count()
    }

    /// Whether the replica has no in-flight work (used by quiescence checks).
    pub fn is_idle(&self) -> bool {
        self.reservation.is_none()
            && self.initiating.is_none()
            && self.buffered.is_empty()
            && self.mempool.is_empty()
            && self.intra.values().all(|r| r.committed)
            && self.cross.values().all(|r| r.committed)
    }

    // ------------------------------------------------------------------
    // Shared helpers used by the protocol submodules
    // ------------------------------------------------------------------

    fn model(&self) -> FailureModel {
        self.cfg.system.failure_model
    }

    fn quorum_of(&self, cluster: ClusterId) -> usize {
        self.cfg.system.quorum(cluster).expect("cluster exists")
    }

    /// The primary of `cluster` as this replica believes it to be: its own
    /// cluster's follows its view; any other cluster's is view 0's, because
    /// nothing tells a replica another cluster's view. A known limitation
    /// (ROADMAP item 1): once a remote primary fails over, as in the
    /// `failover_lossy_b16` benchmark workload, wrong-shard and cross-shard
    /// forwarding still target its dead view-0 primary.
    fn primary_of(&self, cluster: ClusterId) -> NodeId {
        let view = if cluster == self.cluster {
            self.view
        } else {
            0
        };
        self.cfg
            .system
            .primary(cluster, view)
            .expect("cluster exists")
    }

    /// Whether `node` belongs to this replica's cluster: only members vote
    /// in its intra-shard and view-change quorums.
    fn is_member(&self, node: NodeId) -> bool {
        self.cfg.system.cluster_of(node).ok() == Some(self.cluster)
    }

    fn cluster_members(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.cfg
            .system
            .members(cluster)
            .expect("cluster exists")
            .to_vec()
    }

    /// All replicas of all `clusters` except this one, as actor ids.
    fn members_of_all_except_self(&self, clusters: &[ClusterId]) -> Vec<ActorId> {
        self.cfg
            .system
            .members_of_all(clusters)
            .expect("clusters exist")
            .into_iter()
            .filter(|n| *n != self.node)
            .map(ActorId::Node)
            .collect()
    }

    /// Peers of this replica's own cluster (everyone but itself).
    fn cluster_peers(&self) -> Vec<ActorId> {
        self.cluster_members(self.cluster)
            .into_iter()
            .filter(|n| *n != self.node)
            .map(ActorId::Node)
            .collect()
    }

    fn charge_message(&self, ctx: &mut Context<Msg>, verify: usize, sign: usize) {
        ctx.charge(self.cfg.cost.protocol_message(self.model(), verify, sign));
    }

    /// Verifies a protocol signature that must come from `expected`
    /// (Byzantine model), charging the verification cost. No cache: votes
    /// and proposals carry round-unique bytes, so a cache would only add a
    /// hash pass to the hot path.
    fn verify_signed(
        &mut self,
        ctx: &mut Context<Msg>,
        expected: SignerId,
        bytes: &[u8],
        sig: &Signature,
    ) -> bool {
        if sig.signer != expected.0 {
            return false;
        }
        ctx.charge(self.cfg.cost.verification(self.model()));
        self.cfg.registry.verify(bytes, sig)
    }

    /// Whether this replica must not start work on new transactions right now.
    fn is_blocked(&self) -> bool {
        self.reservation.is_some() || self.initiating.is_some()
    }

    /// Re-processes buffered messages while the replica is unblocked, then
    /// flushes any batch that can start.
    fn process_buffered(&mut self, ctx: &mut Context<Msg>) {
        // A parked handover batch starts the moment the replica unblocks,
        // BEFORE buffered client requests can re-block it: otherwise a steady
        // stream of client cross-shard rounds starves the handover forever.
        self.try_start_pending_handover(ctx);
        let mut guard = 0usize;
        while !self.is_blocked() && !self.buffered.is_empty() && guard < 10_000 {
            let (from, msg) = self.buffered.pop_front().expect("non-empty");
            self.dispatch(from, msg, ctx);
            guard += 1;
        }
        if !self.is_blocked() && !self.mempool.is_empty() {
            self.flush_pending(ctx);
        }
        self.try_start_pending_handover(ctx);
    }

    /// The single dispatch point shared by `on_message` and the buffered
    /// replay path.
    fn dispatch(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<Msg>) {
        // Reserved/initiating replicas do not start work on new transactions
        // (§3.2); such messages wait in the buffer. Messages that advance
        // already-started rounds (accepts, commits, votes) always flow.
        if msg.starts_new_transaction() && self.is_blocked() {
            let pass_through = match &msg {
                // A re-proposal (retry) of the batch we are already reserved
                // for must be processed, not buffered. Deadlock avoidance
                // (crash model only): an initiating primary yields to
                // proposals that precede its own in `cross_priority_key`
                // order. A Byzantine initiator's signed accept is already in
                // flight, so it must not vouch a second proposal for the
                // same chain position; such proposals stay buffered until
                // its own commits.
                Msg::XPropose {
                    batch, initiator, ..
                } => {
                    let d = batch.digest();
                    let same_reserved = self.reservation.as_ref().is_some_and(|res| res.d == d);
                    let higher_priority = self.model() == FailureModel::Crash
                        && self.reservation.is_none()
                        && self.initiating.is_some_and(|own| {
                            cross_priority_key(d, *initiator)
                                < cross_priority_key(own, self.cluster)
                        });
                    same_reserved || higher_priority
                }
                _ => false,
            };
            if !pass_through {
                self.buffered.push_back((from, msg));
                return;
            }
        }
        match msg {
            Msg::Request { tx, epoch, sig } => self.handle_request(from, tx, epoch, sig, ctx),
            Msg::Reply { .. } | Msg::Redirect { .. } => { /* client-bound only */ }

            Msg::LoadReport {
                cluster,
                epoch,
                buckets,
            } => self.handle_load_report(cluster, epoch, buckets),
            Msg::ReshardDirective {
                epoch,
                start,
                len,
                to,
            } => self.handle_reshard_directive(epoch, start, len, to, ctx),
            Msg::ReshardDone { epoch, cluster } => self.handle_reshard_done(epoch, cluster),
            Msg::MapAnnounce { epoch, overlays } => self.handle_map_announce(epoch, overlays),

            Msg::PaxosAccept {
                ballot,
                parent,
                batch,
            } => self.handle_paxos_accept(from, ballot, parent, batch, ctx),
            Msg::PaxosAccepted { ballot, d, node } => {
                self.handle_paxos_accepted(ballot, d, node, ctx)
            }
            Msg::PaxosCommit {
                ballot,
                parent,
                batch,
            } => self.handle_paxos_commit(ballot, parent, batch, ctx),

            Msg::PrePrepare {
                view,
                parent,
                batch,
                sig,
            } => self.handle_pre_prepare(from, view, parent, batch, sig, ctx),
            Msg::Prepare {
                view,
                parent,
                d,
                node,
                sig,
            } => self.handle_prepare(view, parent, d, node, sig, ctx),
            Msg::PbftCommit {
                view,
                parent,
                d,
                node,
                sig,
            } => self.handle_pbft_commit(view, parent, d, node, sig, ctx),

            Msg::XPropose {
                initiator,
                attempt,
                parent,
                batch,
                sig,
            } => self.handle_xpropose(from, initiator, attempt, parent, batch, sig, ctx),
            Msg::XAccept {
                d,
                attempt,
                parent,
                height,
                node,
                sig,
            } => self.handle_xaccept(from, d, attempt, parent, height, node, sig, ctx),
            Msg::XCommit {
                parents,
                batch,
                node,
                sig,
            } => self.handle_xcommit(from, parents, batch, node, sig, ctx),
            Msg::XAbort { d, initiator } => self.handle_xabort(d, initiator, ctx),
            Msg::XStatus { d, node } => self.handle_xstatus(d, node, ctx),

            Msg::ViewChange {
                cluster,
                new_view,
                node,
                accepted,
                prepared,
                chain_len,
                sig,
            } => self.handle_view_change(
                cluster,
                new_view,
                node,
                VcVote {
                    accepted,
                    prepared,
                    chain_len,
                },
                sig,
                ctx,
            ),
            Msg::NewView {
                cluster,
                new_view,
                node,
                certs,
                sig,
            } => self.handle_new_view(cluster, new_view, node, certs, sig, ctx),
        }
    }
}

impl Actor<Msg> for Replica {
    fn id(&self) -> ActorId {
        ActorId::Node(self.node)
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<Msg>) {
        self.stats.messages_handled += 1;
        // Base cost of receiving and parsing the message; signature
        // verification is charged where it happens (and skipped on cache
        // hits), signing costs where messages are emitted.
        self.charge_message(ctx, 0, 0);
        self.dispatch(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut Context<Msg>) {
        match tag {
            timer_tags::CONFLICT => self.handle_conflict_timer(timer, ctx),
            timer_tags::RETRY => self.handle_retry_timer(timer, ctx),
            timer_tags::VIEW_CHANGE => self.handle_view_change_timer(timer, ctx),
            timer_tags::BATCH => self.handle_batch_timer(timer, ctx),
            timer_tags::XABORT_RETRANSMIT => self.handle_xabort_retx_timer(timer, ctx),
            timer_tags::LOAD_REPORT => self.handle_load_report_timer(ctx),
            timer_tags::RESHARD_CHECK => self.handle_reshard_check_timer(ctx),
            _ => {}
        }
    }

    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.start_reshard_timers(ctx);
    }
}
