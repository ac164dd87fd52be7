//! The SharPer replica: one protocol state machine per node.
//!
//! A replica composes
//!
//! * the intra-shard engine of its cluster (Paxos or PBFT, `intra`),
//! * the flattened cross-shard engine (Algorithm 1 or 2, `cross`),
//! * the view-change sub-protocol (`view_change`),
//! * its cluster's [`LedgerView`] and the shard's [`AccountStore`],
//! * the primary-side batching layer: pending client requests are
//!   accumulated into Merkle-committed [`Batch`]es (up to
//!   `batch.max_batch_size` per block, flushed early by the batch timer), so
//!   one consensus round orders many transactions. `max_batch_size = 1`
//!   reproduces the paper's one-transaction blocks exactly: every request is
//!   proposed the moment it arrives and no batch timer is armed.
//!
//! The replica is a pure [`Actor`]: all inputs arrive as messages or timer
//! expirations, all outputs leave through the [`Context`]. This module holds
//! the shared state and helpers; the protocol phases live in the submodules.

mod cross;
mod intra;
mod reshard;
#[cfg(test)]
mod tests;
mod view_change;

use crate::config::ReplicaConfig;
use crate::mempool::Mempool;
use crate::messages::{timer_tags, AcceptedRound, Ballot, Msg, PreparedCert};
use crate::sigcache::SigCache;
use crate::timeouts;
use sharper_common::{ClientId, ClusterId, FailureModel, NodeId, TraceKind, TxId};
use sharper_crypto::keys::SignerId;
use sharper_crypto::{hash, Digest, Signature, Signer};
use sharper_ledger::{Batch, Block, LedgerView, Parents, VerifiedBatch, VerifiedBlock};
use sharper_net::{Actor, ActorId, Context, TimerId};
use sharper_state::{
    AccountStore, ExecutionOutcome, Executor, PartitionedStore, Partitioner, Transaction,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Number of `(signer, digest)` pairs remembered by the verified-signature
/// cache (retransmissions skip re-verification; satellite of the batching
/// work, see ROADMAP "signature-verification cost").
const SIG_CACHE_CAPACITY: usize = 4_096;

/// Maps a replica id into the signer-id space of the key registry.
pub fn node_signer_id(node: NodeId) -> SignerId {
    SignerId(node.0 as u64)
}

/// The total priority order used to break circular waits between
/// concurrently initiating cross-shard primaries: lower key wins. Keyed by
/// the batch digest *first* so that which initiator yields varies per batch
/// (load-balanced fairness) instead of always favouring low cluster ids —
/// the fixed `initiator < cluster` order starved high-numbered initiator
/// clusters at 100% cross-shard load. The initiator id breaks digest
/// collisions, keeping the order total.
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

/// State of one in-flight intra-shard consensus round.
///
/// A round holds *witnesses*, not plain values: this replica derived the
/// batch's Merkle root itself — when it sealed the batch as primary, or when
/// it checked the proposal that carried it — so the commit appends through
/// [`LedgerView::append_verified`] without hashing the batch a second time.
/// What a round sends is always the plain [`Batch`]; every receiver makes its
/// own check.
#[derive(Debug, Clone)]
struct IntraRound {
    /// The batch under agreement (sharing its transactions with the message
    /// plane), kept beside the block so that a round moved to another chain
    /// position re-chains it in O(1).
    batch: VerifiedBatch,
    /// The block under agreement: the batch chained at the proposed
    /// position. Built once, when the round is created or re-positioned, and
    /// reused by the tail advance and the commit — a round never digests the
    /// same block twice.
    block: VerifiedBlock,
    /// The ballot the round was last proposed under (crash: the Paxos
    /// ballot; Byzantine: `(view, primary)` of the proposing view).
    ballot: Ballot,
    /// Paxos `accepted` votes / PBFT `prepare` votes (node ids).
    prepares: BTreeSet<NodeId>,
    /// PBFT `commit` votes.
    commits: BTreeSet<NodeId>,
    /// The verified prepare signatures gathered for this round (Byzantine
    /// model): the primary's pre-prepare signature plus the backups'
    /// prepares, the raw material of a prepared-certificate.
    prepare_sigs: BTreeMap<NodeId, Signature>,
    /// Whether this replica already moved to the commit phase.
    sent_commit: bool,
    /// Whether the block was appended locally.
    committed: bool,
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

    /// The batch under agreement (empty for a PBFT round whose `prepare`
    /// overtook its `pre-prepare`).
    fn batch(&self) -> &Batch {
        &self.batch
    }

    /// The chain position the round proposes to fill.
    fn parent(&self) -> Digest {
        self.block
            .parents
            .digests()
            .next()
            .expect("an intra-shard block has one parent")
    }

    /// The round's batch chained right after `parent`: the round's own block
    /// if that is where it sits, its verified batch re-chained otherwise. No
    /// root is derived either way.
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

/// Retransmission state for an `XAbort` the initiator announced after giving
/// up on a cross-shard batch.
#[derive(Debug, Clone)]
struct AbortRetx {
    involved: Vec<ClusterId>,
    left: u32,
    timer: TimerId,
}

/// State of one in-flight cross-shard consensus round.
#[derive(Debug, Clone)]
struct CrossRound {
    /// The batch under agreement (shares its transactions with the message
    /// plane), root derived by this replica when it sealed or checked it. All
    /// member transactions have the same involved-cluster set.
    batch: VerifiedBatch,
    involved: Vec<ClusterId>,
    initiator: ClusterId,
    attempt: u32,
    /// Accept votes: cluster → (node → reported parent hash and its chain
    /// height). The height lets the initiator reject a stale primary's
    /// parent (a member ahead of the primary has built past it).
    accepts: HashMap<ClusterId, BTreeMap<NodeId, (Digest, u64)>>,
    /// Byzantine commit votes: cluster → nodes whose commit matched ours.
    commit_votes: HashMap<ClusterId, BTreeSet<NodeId>>,
    /// The parents assembled from the accept quorums (fixed once reached).
    parents: Option<Parents>,
    /// Whether this replica already multicast its commit (Byzantine) or the
    /// commit message (crash initiator).
    sent_commit: bool,
    /// Whether the block was appended locally.
    committed: bool,
    /// The initiator's retry timer, if armed.
    retry_timer: Option<TimerId>,
}

impl CrossRound {
    fn new(
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
struct Reservation {
    d: Digest,
    timer: TimerId,
    /// How many times the conflict timer expired and was re-armed while this
    /// reservation was held (primaries only; drives the status probe).
    renewals: u32,
}

/// A SharPer replica.
pub struct Replica {
    node: NodeId,
    cluster: ClusterId,
    cfg: Arc<ReplicaConfig>,
    signer: Signer,
    executor: Executor,
    /// The shard's account state, split by account range into
    /// `cfg.exec.partitions` disjoint partitions (one partition with the
    /// serial default — identical to the seed's flat store).
    store: PartitionedStore,
    ledger: LedgerView,
    /// This cluster's current view (primary = `view % cluster size`).
    view: u64,
    /// The highest ballot this replica has promised (crash model): proposals
    /// below it are rejected. Voting for a view change and installing a view
    /// both raise the promise to that view's ballot — the phase-1b half of
    /// Paxos that makes the view-change replay safe.
    promised: Ballot,
    /// The highest view this replica has ever voted for; successive votes go
    /// strictly above it so cascading view changes cannot re-elect a failed
    /// candidate view forever.
    vc_highest_voted: u64,
    /// Hash of the last block this replica has agreed to order for its
    /// cluster (the "previous transaction ordered by the cluster", §3.1).
    /// For a primary this runs ahead of the ledger head by the proposals
    /// still in flight, which is what lets consecutive proposals chain
    /// correctly while earlier ones are still gathering votes.
    tail: Digest,
    /// Chain height of `tail` (blocks from genesis, inclusive): the ledger
    /// height plus every in-flight proposal the tail has advanced over.
    tail_height: u64,
    intra: HashMap<Digest, IntraRound>,
    cross: HashMap<Digest, CrossRound>,
    reservation: Option<Reservation>,
    /// Digest of the cross-shard batch this primary is currently
    /// initiating; while set, the primary starts no other transaction.
    initiating: Option<Digest>,
    /// Primary-side mempool: intra- and cross-shard requests awaiting
    /// proposal, with their client signatures (kept so they can be
    /// re-forwarded across a view change), instrumented with depth / age /
    /// admission metrics.
    mempool: Mempool,
    /// The batch timer bounding how long a partial batch may wait.
    batch_timer: Option<TimerId>,
    /// Transaction-starting messages buffered while reserved/initiating.
    buffered: VecDeque<(ActorId, Msg)>,
    /// Cross-shard votes that arrived before their propose message.
    early_cross: HashMap<Digest, Vec<(ActorId, Msg)>>,
    /// Committed blocks waiting for their parent to be appended first,
    /// keyed by the required parent digest.
    deferred: HashMap<Digest, Vec<(VerifiedBlock, bool)>>,
    committed_txs: HashSet<TxId>,
    /// Batch root → block digest for every committed cross-shard block, so
    /// the status probe can retransmit the commit of an already purged round.
    cross_blocks: HashMap<Digest, Digest>,
    /// `XAbort` retransmission state per withdrawn digest (initiator side).
    abort_retx: HashMap<Digest, AbortRetx>,
    /// The rounds authorized by the most recently accepted new-view message
    /// (Byzantine): parent → (view, digest). A backup holding a prepared
    /// lock at a chain position only accepts a different digest there when
    /// this map names it.
    newview_certs: HashMap<Digest, (u64, Digest)>,
    /// View-change votes per proposed view: voter → its vote (used by the
    /// new primary for state transfer and the chain-frontier check).
    vc_votes: HashMap<u64, BTreeMap<NodeId, VcVote>>,
    vc_timer: Option<TimerId>,
    /// LRU cache of `(signer, digest-of-signed-bytes)` pairs that already
    /// verified, so retransmissions skip the signature check.
    verified_sigs: SigCache,
    /// The replica's *current* shard map: the genesis partitioner plus every
    /// overlay installed by committed handover blocks (or map announces).
    /// All routing and involved-cluster computations go through this, never
    /// through `cfg.partitioner`, which stays frozen at genesis.
    pmap: Partitioner,
    /// The epoch of `pmap`; bumped exactly once per applied handover.
    map_epoch: u64,
    /// Dynamic-resharding state (load buckets, coordinator bookkeeping, the
    /// freeze → handover pipeline). Inert unless `cfg.reshard` is set.
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
            ledger: LedgerView::new(cluster),
            view: 0,
            promised: Ballot::new(0, genesis_primary),
            vc_highest_voted: 0,
            tail: Block::genesis().digest(),
            tail_height: 1,
            intra: HashMap::new(),
            cross: HashMap::new(),
            reservation: None,
            initiating: None,
            mempool: Mempool::new(),
            batch_timer: None,
            buffered: VecDeque::new(),
            early_cross: HashMap::new(),
            deferred: HashMap::new(),
            committed_txs: HashSet::new(),
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
        &self.ledger
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
        self.ledger.committed_count()
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

    /// The primary of `cluster` as this replica currently believes it to be.
    /// For the replica's own cluster this follows its view number; for other
    /// clusters it is always view 0's primary, because nothing tells a
    /// replica another cluster's view. That is a known limitation (ROADMAP
    /// item 1): once a remote primary fails over, as in the
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
    /// (Byzantine model), charging the verification cost. Protocol
    /// votes/proposals carry round-unique bytes, so no cache is consulted —
    /// caching here would add a hash pass to the hot path for repeats that
    /// never occur in fault-free runs.
    pub(super) fn verify_signed(
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

    /// Verifies a client request signature through the LRU cache of
    /// already-verified `(signer, digest)` pairs: a retransmission carrying
    /// the identical bytes *and tag* skips the recomputation and its
    /// simulated CPU cost. Only successful verifications enter the cache,
    /// and a hit requires the cached tag to match, so a replay with a
    /// swapped signature falls through to real verification.
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

    /// Whether this replica must not start work on new transactions right now.
    fn is_blocked(&self) -> bool {
        self.reservation.is_some() || self.initiating.is_some()
    }

    /// The hash of the last block this replica has agreed to order for its
    /// cluster (used as the parent of the next proposal / cross-shard accept).
    pub(super) fn ordering_tail(&self) -> Digest {
        self.tail
    }

    /// Advances the ordering tail when `block` extends it.
    pub(super) fn advance_tail(&mut self, block: &Block) {
        if block.parent_for(self.cluster) == Some(self.tail) {
            self.tail = block.digest();
            self.tail_height += 1;
        }
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

    /// Whether `id` is already queued for batching or carried by an
    /// in-flight (uncommitted) round. Guards against proposing the same
    /// transaction in two different batches (e.g. a client retransmission
    /// racing a view-change replay).
    fn tx_pending_or_in_flight(&self, id: TxId) -> bool {
        self.mempool.contains(id)
            || self
                .intra
                .values()
                .any(|r| !r.committed && r.batch().contains(id))
            || self
                .cross
                .values()
                .any(|r| !r.committed && r.batch.contains(id))
    }

    // ------------------------------------------------------------------
    // Primary-side batching
    // ------------------------------------------------------------------

    fn max_batch(&self) -> usize {
        self.cfg.batch.max_batch_size.max(1)
    }

    fn ensure_batch_timer(&mut self, ctx: &mut Context<Msg>) {
        if self.batch_timer.is_none() {
            self.batch_timer = Some(ctx.set_timer(timeouts::BATCH, timer_tags::BATCH));
        }
    }

    fn any_pending(&self) -> bool {
        !self.mempool.is_empty()
    }

    /// Queues an intra-shard request on the primary and flushes a full batch
    /// immediately. With `max_batch_size = 1` this proposes on arrival,
    /// exactly like the unbatched protocol.
    fn enqueue_intra(&mut self, tx: Arc<Transaction>, sig: Signature, ctx: &mut Context<Msg>) {
        if self.tx_pending_or_in_flight(tx.id) {
            self.mempool.note_duplicate();
            return;
        }
        let id = tx.id;
        let depth = self.mempool.admit_intra(tx, sig, ctx.now());
        ctx.trace(|| TraceKind::MempoolAdmit {
            tx: id,
            cross: false,
            depth: depth as u64,
        });
        if depth >= self.max_batch() {
            self.flush_intra(ctx);
        } else {
            self.ensure_batch_timer(ctx);
        }
    }

    /// Queues a cross-shard request (keyed by its involved-cluster set) on
    /// the initiator primary and flushes a full batch if possible.
    fn enqueue_cross(
        &mut self,
        tx: Arc<Transaction>,
        sig: Signature,
        involved: Vec<ClusterId>,
        ctx: &mut Context<Msg>,
    ) {
        if self.tx_pending_or_in_flight(tx.id) {
            self.mempool.note_duplicate();
            return;
        }
        let id = tx.id;
        let depth = self
            .mempool
            .admit_cross(tx, sig, involved.clone(), ctx.now());
        ctx.trace(|| TraceKind::MempoolAdmit {
            tx: id,
            cross: true,
            depth: depth as u64,
        });
        if depth >= self.max_batch() {
            self.flush_cross_set(&involved, ctx);
        } else {
            self.ensure_batch_timer(ctx);
        }
    }

    /// Proposes one batch from the intra-shard queue. No-op while the
    /// replica is reserved/initiating (dispatch buffers request messages in
    /// that state, but the batch timer can still fire).
    fn flush_intra(&mut self, ctx: &mut Context<Msg>) {
        if self.is_blocked() || self.mempool.intra_len() == 0 {
            return;
        }
        let take = self.max_batch().min(self.mempool.intra_len());
        let txs: Vec<Arc<Transaction>> = self
            .mempool
            .pop_intra(take, ctx.now())
            .into_iter()
            .map(|(tx, _)| tx)
            .filter(|tx| !self.committed_txs.contains(&tx.id))
            .collect();
        if txs.is_empty() {
            return;
        }
        let batch = VerifiedBatch::seal(txs);
        ctx.trace(|| TraceKind::BatchSeal {
            batch: batch.digest().short_u64(),
            txs: batch.tx_ids().collect(),
            cross: false,
        });
        self.start_intra(batch, ctx);
    }

    /// Starts the cross-shard protocol for one batch of the given cluster
    /// set. Initiating blocks the primary, so at most one set flushes.
    fn flush_cross_set(&mut self, involved: &[ClusterId], ctx: &mut Context<Msg>) {
        if self.is_blocked() {
            return;
        }
        let take = self.max_batch().min(self.mempool.cross_len_of(involved));
        if take == 0 {
            return;
        }
        let committed = &self.committed_txs;
        let txs: Vec<Arc<Transaction>> = self
            .mempool
            .pop_cross(involved, take, ctx.now())
            .into_iter()
            .map(|(tx, _)| tx)
            .filter(|tx| !committed.contains(&tx.id))
            .collect();
        if txs.is_empty() {
            return;
        }
        let batch = VerifiedBatch::seal(txs);
        ctx.trace(|| TraceKind::BatchSeal {
            batch: batch.digest().short_u64(),
            txs: batch.tx_ids().collect(),
            cross: true,
        });
        self.start_cross(batch, involved.to_vec(), ctx);
    }

    /// Flushes whatever pending work can start right now: all full or timed
    /// out intra batches, then cross-shard sets until one blocks the
    /// primary. Called from the batch timer and from every unblock point.
    pub(super) fn flush_pending(&mut self, ctx: &mut Context<Msg>) {
        while !self.is_blocked() && self.mempool.intra_len() > 0 {
            self.flush_intra(ctx);
        }
        for set in self.mempool.cross_sets() {
            if self.is_blocked() {
                break;
            }
            self.flush_cross_set(&set, ctx);
        }
        if self.any_pending() {
            self.ensure_batch_timer(ctx);
        }
    }

    fn handle_batch_timer(&mut self, timer: TimerId, ctx: &mut Context<Msg>) {
        if self.batch_timer != Some(timer) {
            return;
        }
        self.batch_timer = None;
        self.flush_pending(ctx);
    }

    /// Drains every pending request (used when this replica stops being the
    /// primary and must hand its queue to the new one).
    pub(super) fn drain_pending_requests(&mut self) -> Vec<(Arc<Transaction>, Signature)> {
        self.mempool.drain_all()
    }

    // ------------------------------------------------------------------
    // Commit pipeline
    // ------------------------------------------------------------------

    /// The witness for a batch delivered by a commit message this replica
    /// holds no round for (it never saw the proposal, or already purged the
    /// round). `None` if any of its transactions is already committed here —
    /// a duplicate delivery, which [`commit_block`](Self::commit_block)
    /// would drop, is not worth a root derivation — or if its transactions
    /// do not hash to the root it claims.
    fn verify_unseen_commit(&self, batch: Batch) -> Option<VerifiedBatch> {
        if batch.tx_ids().any(|id| self.committed_txs.contains(&id)) {
            return None;
        }
        VerifiedBatch::check(batch)
    }

    /// Appends (or defers) a committed block, executes its batch atomically
    /// in order and optionally replies to the clients. Returns `true` if the
    /// block was appended immediately. Taking the witness is what lets the
    /// append skip the second root derivation: whoever calls this sealed or
    /// checked the block's batch itself.
    fn commit_block(&mut self, ctx: &mut Context<Msg>, block: VerifiedBlock, reply: bool) -> bool {
        if block.tx_count() == 0 {
            return false;
        }
        if block.tx_ids().any(|id| self.committed_txs.contains(&id)) {
            // Usually a duplicate delivery of a fully committed block. A
            // *partial* overlap (some member transaction already committed
            // through a different block) can only arise through the
            // documented Byzantine new-view gap (no prepared-certificate
            // transfer, see ROADMAP); such a block could never append — the
            // ledger rejects duplicate transactions — so it is dropped
            // deterministically instead of poisoning the append path.
            return false;
        }
        // The block is decided for this cluster: the next proposal must chain
        // after it even if the append itself has to wait for an earlier block
        // (otherwise a later proposal would fork the cluster's chain).
        self.advance_tail(&block);
        let parent = block
            .parent_for(self.cluster)
            .expect("commit_block is only called with blocks involving this cluster");
        if parent != self.ledger.head() {
            // The parent has not been appended yet (out-of-order commit
            // delivery); park the block until the chain catches up.
            self.deferred
                .entry(parent)
                .or_default()
                .push((block, reply));
            return false;
        }
        self.apply_block(ctx, block, reply);
        // Appending may unblock deferred children, recursively.
        loop {
            let head = self.ledger.head();
            let Some(children) = self.deferred.remove(&head) else {
                break;
            };
            let mut advanced = false;
            for (child, child_reply) in children {
                if child.parent_for(self.cluster) == Some(self.ledger.head())
                    && !child.tx_ids().any(|id| self.committed_txs.contains(&id))
                {
                    self.apply_block(ctx, child, child_reply);
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }
        true
    }

    fn apply_block(&mut self, ctx: &mut Context<Msg>, block: VerifiedBlock, reply: bool) {
        let batch = block
            .body_batch()
            .cloned()
            .expect("only batch blocks are committed");
        let cross = block.is_cross_shard();
        self.advance_tail(&block);
        if cross {
            // Remember where the batch landed so a status probe for it can be
            // answered with a retransmitted commit after the round is purged.
            self.cross_blocks.insert(batch.digest(), block.digest());
        }
        self.ledger
            .append_verified(block)
            .expect("parent was checked against the head");
        // Audit-and-prune at the watermark. Purely a storage operation: it
        // charges no simulated cost, sends nothing, and every query the
        // protocol asks of the ledger answers identically afterwards — so
        // truncation can never perturb results (the retain-settings golden
        // gate holds it to that).
        self.ledger
            .maybe_checkpoint(&self.cfg.ledger)
            .expect("committed chain re-verifies at the watermark");
        // One execution-cost charge per transaction plus one block digest.
        // The charge is identical in every executor mode: partitioning only
        // models apply-path parallelism and must never perturb simulated
        // timing.
        ctx.charge(self.cfg.cost.execution_batch(batch.len()));
        // The whole batch applies atomically in order (commit_block already
        // rejected blocks overlapping committed transactions). The
        // partitioned scheduler merges outcomes back in batch order, so both
        // paths are bit-identical. Batches carrying reshard control
        // transactions always take the serial path: the freeze/handover
        // effects span every partition, and forcing them serial (a pure
        // function of batch content) keeps all executor modes bit-identical.
        let has_reshard = batch.txs().iter().any(|tx| tx.is_reshard());
        let outcomes = if self.cfg.exec.is_partitioned() && !has_reshard {
            let applied = self.executor.apply_batch_partitioned(
                &mut self.store,
                batch.txs(),
                self.cfg.exec.exec_threads,
            );
            ctx.trace(|| TraceKind::ExecPlan {
                batch: batch.digest().short_u64(),
                partitions: applied.active_partitions as u64,
                steps: applied.total_steps as u64,
                max_queue_depth: applied.max_queue_depth as u64,
                makespan_units: applied.makespan_units,
            });
            applied.outcomes
        } else {
            self.executor.apply_batch(&mut self.store, batch.txs())
        };
        ctx.trace(|| TraceKind::Execute {
            block: self.ledger.head().short_u64(),
            batch: batch.digest().short_u64(),
            txs: batch.tx_ids().collect(),
            cross,
        });
        for (tx, outcome) in batch.txs().iter().zip(outcomes) {
            self.committed_txs.insert(tx.id);
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
        self.after_commit_bookkeeping(ctx);
    }

    fn after_commit_bookkeeping(&mut self, ctx: &mut Context<Msg>) {
        // Drop completed round state to keep memory bounded. An uncommitted
        // round whose every transaction has meanwhile committed through other
        // blocks can never append either and would only pollute future
        // view-change transfers, so it is purged too (payload-less PBFT
        // placeholders are kept: their pre-prepare may still arrive).
        let committed = &self.committed_txs;
        self.intra.retain(|_, r| {
            !r.committed
                && (r.batch().is_empty() || !r.batch().tx_ids().all(|id| committed.contains(&id)))
        });
        self.cross.retain(|_, r| !r.committed);
        self.maybe_cancel_view_change_timer(ctx);
    }

    /// Buffers a transaction-starting message for later processing.
    fn buffer(&mut self, from: ActorId, msg: Msg) {
        self.buffered.push_back((from, msg));
    }

    /// Re-processes buffered messages while the replica is unblocked, then
    /// flushes any batch that can start.
    fn process_buffered(&mut self, ctx: &mut Context<Msg>) {
        // A handover batch parked while this primary was reserved/initiating
        // starts the moment the replica unblocks — BEFORE buffered client
        // requests get a chance to re-block it. Without this priority a
        // steady stream of client cross-shard rounds starves the handover
        // forever and the frozen range aborts clients indefinitely.
        self.try_start_pending_handover(ctx);
        let mut guard = 0usize;
        while !self.is_blocked() && !self.buffered.is_empty() && guard < 10_000 {
            let (from, msg) = self.buffered.pop_front().expect("non-empty");
            self.dispatch(from, msg, ctx);
            guard += 1;
        }
        if !self.is_blocked() && self.any_pending() {
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
                // for must be processed, not buffered.
                Msg::XPropose {
                    batch, initiator, ..
                } => {
                    let d = batch.digest();
                    let same_reserved = self.reservation.as_ref().is_some_and(|res| res.d == d);
                    // Deadlock avoidance (crash model only): an initiating
                    // primary yields to cross-shard proposals that precede
                    // its own in the total priority order over
                    // `(batch digest, initiator cluster)`. Keying the order
                    // by the digest first load-balances who yields — a fixed
                    // cluster-id order would starve high-numbered initiators
                    // at full cross-shard load — while still breaking every
                    // circular wait (the order is total and shared by all
                    // replicas).
                    let higher_priority = self.model() == FailureModel::Crash
                        && self.reservation.is_none()
                        && self.initiating.is_some_and(|own| {
                            cross_priority_key(d, *initiator)
                                < cross_priority_key(own, self.cluster)
                        });
                    same_reserved || higher_priority
                }
                // A Byzantine initiator's signed accept is already in
                // flight, so it must not vouch a second proposal for the
                // same chain position; such proposals stay buffered until
                // its own commits.
                Msg::XProposeB { batch, .. } => self
                    .reservation
                    .as_ref()
                    .is_some_and(|res| res.d == batch.digest()),
                _ => false,
            };
            if !pass_through {
                self.buffer(from, msg);
                return;
            }
        }
        match msg {
            Msg::Request { tx, epoch, sig } => self.handle_request(from, tx, epoch, sig, ctx),
            Msg::Reply { .. } => { /* replicas never receive replies */ }
            Msg::Redirect { .. } => { /* replicas never receive redirects */ }

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
            } => self.handle_xpropose(from, initiator, attempt, parent, batch, ctx),
            Msg::XAccept {
                d,
                attempt,
                cluster,
                parent,
                height,
                node,
            } => self.handle_xaccept(d, attempt, cluster, parent, height, node, ctx),
            Msg::XCommit { d, parents, batch } => self.handle_xcommit(d, parents, batch, ctx),
            Msg::XAbort { d, initiator } => self.handle_xabort(d, initiator, ctx),
            Msg::XStatus { d, cluster, node } => self.handle_xstatus(d, cluster, node, ctx),

            Msg::XProposeB {
                initiator,
                attempt,
                parent,
                batch,
                sig,
            } => self.handle_xpropose_b(from, initiator, attempt, parent, batch, sig, ctx),
            Msg::XAcceptB {
                d,
                attempt,
                cluster,
                parent,
                node,
                sig,
            } => self.handle_xaccept_b(from, d, attempt, cluster, parent, node, sig, ctx),
            Msg::XCommitB {
                d,
                parents,
                cluster,
                node,
                sig,
            } => self.handle_xcommit_b(from, d, parents, cluster, node, sig, ctx),

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

    /// Entry point for client requests (possibly forwarded by peers).
    fn handle_request(
        &mut self,
        from: ActorId,
        tx: Arc<Transaction>,
        epoch: u64,
        sig: Signature,
        ctx: &mut Context<Msg>,
    ) {
        // Reshard control operations are system-internal; a client request
        // carrying one is dropped outright (a client must not be able to
        // freeze a range or forge a handover).
        if tx.is_reshard() && matches!(from, ActorId::Client(_)) {
            return;
        }
        if self.committed_txs.contains(&tx.id) {
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
        // A client routing under a stale shard map gets the current map back
        // (crash model; epoch'd maps are a crash-plane feature). Purely
        // advisory: the request is STILL forwarded and processed below, so a
        // stale map costs one extra hop, never liveness — and the client
        // must not count the redirect against any retry budget.
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
        let fwd_epoch = self.map_epoch;
        let involved = tx.involved_clusters(&self.pmap);
        if involved.len() <= 1 {
            // Intra-shard transaction.
            let target_cluster = involved.first().copied().unwrap_or(self.cluster);
            if target_cluster != self.cluster {
                // Wrong shard: forward to the responsible cluster's primary.
                ctx.send(
                    ActorId::Node(self.primary_of(target_cluster)),
                    Msg::Request {
                        tx,
                        epoch: fwd_epoch,
                        sig,
                    },
                );
                return;
            }
            if !self.is_primary() {
                ctx.send(
                    ActorId::Node(self.primary_of(self.cluster)),
                    Msg::Request {
                        tx,
                        epoch: fwd_epoch,
                        sig,
                    },
                );
                return;
            }
            self.enqueue_intra(tx, sig, ctx);
        } else {
            // Cross-shard transaction: route to the initiator cluster chosen
            // by the configured policy (super primary by default, §3.2).
            let initiator = self
                .cfg
                .system
                .initiator_cluster(&involved, Some(self.cluster))
                .expect("involved clusters exist");
            if initiator != self.cluster {
                ctx.send(
                    ActorId::Node(self.primary_of(initiator)),
                    Msg::Request {
                        tx,
                        epoch: fwd_epoch,
                        sig,
                    },
                );
                return;
            }
            if !self.is_primary() {
                ctx.send(
                    ActorId::Node(self.primary_of(self.cluster)),
                    Msg::Request {
                        tx,
                        epoch: fwd_epoch,
                        sig,
                    },
                );
                return;
            }
            self.enqueue_cross(tx, sig, involved, ctx);
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
            timer_tags::CONFLICT => {
                // The commit for the reserved cross-shard transaction did not
                // arrive in time. In the crash model NO replica releases
                // blindly: every accept vouched a chain position to the
                // initiator, which may still count it towards a commit. A
                // replica that released on a timeout and then endorsed other
                // work at the vouched position would let two blocks commit at
                // one height (a fork). Instead the reservation is renewed and,
                // after enough renewals, the initiator cluster is probed for
                // the batch's fate; the reservation is released only by an
                // explicit commit or abort. A Byzantine *backup* still
                // releases on the timeout (§3.2's pre-determined time): the
                // Byzantine commit needs 2f+1 matching commit votes per
                // cluster, so a stale minority accept cannot fork the chain.
                if let Some(res) = self.reservation {
                    if res.timer == timer {
                        if self.is_primary() || self.model() == FailureModel::Crash {
                            let timer = ctx.set_timer(timeouts::CONFLICT, timer_tags::CONFLICT);
                            let renewals = res.renewals.saturating_add(1);
                            self.reservation = Some(Reservation {
                                d: res.d,
                                timer,
                                renewals,
                            });
                            // After enough renewals the commit/abort is
                            // presumed lost; ask the initiator cluster to
                            // resolve the reservation rather than holding it
                            // (and the cluster) forever. The probe goes to
                            // every member: any replica that committed the
                            // batch retransmits the commit, and the cluster's
                            // *current* primary answers with an abort if the
                            // round is dead — the prober cannot know which
                            // view the initiator cluster is in.
                            if self.model() == FailureModel::Crash
                                && renewals >= timeouts::RESERVATION_PROBE_AFTER
                            {
                                let initiator = self.cross.get(&res.d).map(|round| round.initiator);
                                if let Some(initiator) = initiator {
                                    if initiator != self.cluster {
                                        ctx.trace(|| TraceKind::XStatusProbe {
                                            batch: res.d.short_u64(),
                                        });
                                        let members: Vec<ActorId> = self
                                            .cluster_members(initiator)
                                            .into_iter()
                                            .map(ActorId::Node)
                                            .collect();
                                        ctx.multicast(
                                            members,
                                            Msg::XStatus {
                                                d: res.d,
                                                cluster: self.cluster,
                                                node: self.node,
                                            },
                                        );
                                    }
                                }
                            }
                        } else {
                            self.reservation = None;
                            ctx.trace(|| TraceKind::ReservationRelease {
                                batch: res.d.short_u64(),
                            });
                            self.process_buffered(ctx);
                        }
                    }
                }
            }
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
