//! A parameterised primary-based consensus group.
//!
//! One `GroupReplica` instance per member. The group orders the transactions
//! sent to it (to the primary, or to every member when the *fast* path is
//! enabled), executes them against its shard and replies to the requester.
//! The same type implements:
//!
//! * the single active group of APR-C / APR-B (3-phase, quorum `f+1` /
//!   `2f+1`),
//! * the fast groups of FPaxos / FaB (clients multicast to all members, the
//!   coordinator replies after one round of votes),
//! * the per-cluster shard groups of AHL (ordering both intra-shard
//!   transactions and the reference committee's 2PC sub-requests).

use sharper_common::{ClusterId, CostModel, FailureModel, NodeId, TxId};
use sharper_crypto::Digest;
use sharper_ledger::{Block, LedgerView, Parents};
use sharper_net::{Actor, ActorId, Context};
use sharper_state::{AccountStore, Executor, Partitioner, Transaction};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Messages exchanged by the baseline systems.
///
/// As with the SharPer protocol messages, transactions ride behind [`Arc`]
/// so request forwarding, proposals and fast-path multicasts clone in O(1).
#[derive(Debug, Clone, PartialEq)]
pub enum BMsg {
    /// A request to order `tx`; the reply goes to `reply_to` (a client, or
    /// the AHL reference committee acting as 2PC coordinator).
    Request {
        /// The transaction to order.
        tx: Arc<Transaction>,
        /// Who should receive the reply.
        reply_to: ActorIdWire,
    },
    /// Primary → members: order `tx` after `parent`.
    Propose {
        /// Digest of the transaction.
        d: Digest,
        /// Parent block hash in the group's chain.
        parent: Digest,
        /// The transaction.
        tx: Arc<Transaction>,
        /// Who should receive replies once the transaction executes.
        reply_to: ActorIdWire,
    },
    /// Member → primary: vote for the proposal with digest `d`.
    Vote {
        /// Digest of the transaction voted for.
        d: Digest,
        /// The voting member.
        node: NodeId,
    },
    /// Primary → members: the proposal is decided; execute and append.
    Commit {
        /// Digest of the transaction.
        d: Digest,
        /// Parent block hash in the group's chain.
        parent: Digest,
        /// The transaction.
        tx: Arc<Transaction>,
        /// Who should receive replies once the transaction executes.
        reply_to: ActorIdWire,
    },
    /// Replica → requester: the transaction was executed.
    Reply {
        /// The transaction this reply is for.
        tx: TxId,
        /// The replying replica.
        node: NodeId,
    },
    /// Primary → passive replicas: execution result notification.
    StateUpdate {
        /// The executed transaction.
        tx: Arc<Transaction>,
    },
    /// Reference-committee coordinator → members: run an internal consensus
    /// step (`phase` 1 = prepare, 2 = decide) for cross-shard transaction `d`.
    RcStep {
        /// 2PC phase this step belongs to.
        phase: u8,
        /// Digest of the cross-shard transaction.
        d: Digest,
    },
    /// Reference-committee member → coordinator: acknowledgement of a step.
    RcAck {
        /// 2PC phase being acknowledged.
        phase: u8,
        /// Digest of the cross-shard transaction.
        d: Digest,
        /// The acknowledging member.
        node: NodeId,
    },
}

/// `ActorId` is not serialisable (it is a simulator-level type), so messages
/// carry this wire representation instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorIdWire {
    /// A replica.
    Node(u32),
    /// A client.
    Client(u64),
}

impl From<ActorId> for ActorIdWire {
    fn from(a: ActorId) -> Self {
        match a {
            ActorId::Node(n) => ActorIdWire::Node(n.0),
            ActorId::Client(c) => ActorIdWire::Client(c.0),
        }
    }
}

impl From<ActorIdWire> for ActorId {
    fn from(w: ActorIdWire) -> Self {
        match w {
            ActorIdWire::Node(n) => ActorId::Node(NodeId(n)),
            ActorIdWire::Client(c) => ActorId::Client(sharper_common::ClientId(c)),
        }
    }
}

/// Static parameters of a consensus group.
#[derive(Debug, Clone)]
pub struct GroupParams {
    /// The shard this group is responsible for (for APR/FPaxos/FaB this is a
    /// single shard covering the whole database).
    pub shard: ClusterId,
    /// The group members, in primary-first order.
    pub members: Vec<NodeId>,
    /// Votes required to decide (including the primary's own).
    pub quorum: usize,
    /// Whether clients multicast requests to every member (fast path of
    /// FPaxos / FaB) instead of sending only to the primary.
    pub fast: bool,
    /// Whether every member replies to the requester (Byzantine groups, where
    /// the requester needs `f+1` matching replies) or only the primary does.
    pub all_reply: bool,
    /// Whether messages are signed (charges signature CPU cost).
    pub signed: bool,
    /// Passive replicas that receive execution results from the primary.
    pub passives: Vec<NodeId>,
    /// The failure model (drives the CPU cost of signatures).
    pub failure_model: FailureModel,
    /// CPU cost model.
    pub cost: CostModel,
}

impl GroupParams {
    fn primary(&self) -> NodeId {
        self.members[0]
    }
}

/// One in-flight ordering round.
#[derive(Debug)]
struct Round {
    tx: Arc<Transaction>,
    parent: Digest,
    reply_to: ActorId,
    votes: BTreeSet<NodeId>,
    decided: bool,
}

/// A member of a baseline consensus group.
pub struct GroupReplica {
    node: NodeId,
    params: GroupParams,
    executor: Executor,
    store: AccountStore,
    ledger: LedgerView,
    /// Hash of the last block this replica agreed to order (primaries run
    /// ahead of the committed head by the proposals in flight).
    tail: Digest,
    rounds: HashMap<Digest, Round>,
    /// Requests whose reply target is remembered by members for `all_reply`.
    reply_targets: HashMap<Digest, ActorId>,
    deferred: HashMap<Digest, Vec<(Block, ActorId)>>,
    committed: HashSet<TxId>,
    executed: usize,
}

impl GroupReplica {
    /// Creates a group member with a pre-populated shard store.
    pub fn new(
        node: NodeId,
        params: GroupParams,
        partitioner: Partitioner,
        store: AccountStore,
    ) -> Self {
        let executor = Executor::new(params.shard, partitioner);
        let shard = params.shard;
        Self {
            node,
            params,
            executor,
            store,
            ledger: LedgerView::new(shard),
            tail: Block::genesis().digest(),
            rounds: HashMap::new(),
            reply_targets: HashMap::new(),
            deferred: HashMap::new(),
            committed: HashSet::new(),
            executed: 0,
        }
    }

    /// Number of transactions executed by this replica.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// The replica's ledger view.
    pub fn ledger(&self) -> &LedgerView {
        &self.ledger
    }

    /// The replica's shard store.
    pub fn store(&self) -> &AccountStore {
        &self.store
    }

    fn is_primary(&self) -> bool {
        self.node == self.params.primary()
    }

    fn peers(&self) -> Vec<ActorId> {
        self.params
            .members
            .iter()
            .filter(|n| **n != self.node)
            .map(|n| ActorId::Node(*n))
            .collect()
    }

    fn charge(&self, ctx: &mut Context<BMsg>, verify: usize, sign: usize) {
        let (v, s) = if self.params.signed {
            (verify, sign)
        } else {
            (0, 0)
        };
        ctx.charge(
            self.params
                .cost
                .protocol_message(self.params.failure_model, v, s),
        );
    }

    fn commit_block(&mut self, ctx: &mut Context<BMsg>, block: Block, reply_to: ActorId) {
        // Baseline groups order one transaction per block (they model the
        // reference systems, which the paper compares unbatched).
        let Some(tx_id) = block.tx_ids().next() else {
            return;
        };
        if self.committed.contains(&tx_id) {
            return;
        }
        if block.parent_for(self.ledger.cluster()) == Some(self.tail) {
            self.tail = block.digest();
        }
        let parent = block
            .parent_for(self.ledger.cluster())
            .expect("group blocks involve the group shard");
        if parent != self.ledger.head() {
            self.deferred
                .entry(parent)
                .or_default()
                .push((block, reply_to));
            return;
        }
        self.apply(ctx, block, reply_to);
        loop {
            let head = self.ledger.head();
            let Some(children) = self.deferred.remove(&head) else {
                break;
            };
            let mut advanced = false;
            for (child, child_reply) in children {
                if child.parent_for(self.ledger.cluster()) == Some(self.ledger.head()) {
                    self.apply(ctx, child, child_reply);
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }
    }

    fn apply(&mut self, ctx: &mut Context<BMsg>, block: Block, reply_to: ActorId) {
        let tx = std::sync::Arc::clone(
            block
                .txs()
                .first()
                .expect("baseline blocks carry one transaction"),
        );
        self.ledger.append(block).expect("parent checked");
        self.committed.insert(tx.id);
        ctx.charge(self.params.cost.execution());
        let _ = self.executor.apply(&mut self.store, &tx);
        self.executed += 1;
        let should_reply = self.params.all_reply || self.is_primary();
        if should_reply {
            ctx.send(
                reply_to,
                BMsg::Reply {
                    tx: tx.id,
                    node: self.node,
                },
            );
        }
        // The primary keeps the passive replicas up to date.
        if self.is_primary() && !self.params.passives.is_empty() {
            ctx.multicast(
                self.params.passives.iter().map(|n| ActorId::Node(*n)),
                BMsg::StateUpdate { tx },
            );
        }
    }

    fn start_round(&mut self, tx: Arc<Transaction>, reply_to: ActorId, ctx: &mut Context<BMsg>) {
        let d = tx.digest();
        if self.committed.contains(&tx.id) {
            ctx.send(
                reply_to,
                BMsg::Reply {
                    tx: tx.id,
                    node: self.node,
                },
            );
            return;
        }
        let round = self.rounds.entry(d).or_insert_with(|| Round {
            tx: Arc::clone(&tx),
            parent: self.tail,
            reply_to,
            votes: BTreeSet::new(),
            decided: false,
        });
        if round.votes.is_empty() {
            round.votes.insert(self.node);
            let parent = round.parent;
            // Advance the proposal chain past this round.
            let parents = Parents::single(self.ledger.cluster(), parent);
            let block = Block::transaction(Arc::clone(&tx), parents);
            if parent == self.tail {
                self.tail = block.digest();
            }
            self.charge(ctx, 0, 1);
            ctx.multicast(
                self.peers(),
                BMsg::Propose {
                    d,
                    parent,
                    tx,
                    reply_to: reply_to.into(),
                },
            );
        }
        self.try_decide(d, ctx);
    }

    fn try_decide(&mut self, d: Digest, ctx: &mut Context<BMsg>) {
        let Some(round) = self.rounds.get_mut(&d) else {
            return;
        };
        if round.decided || round.votes.len() < self.params.quorum {
            return;
        }
        round.decided = true;
        let tx = Arc::clone(&round.tx);
        let parent = round.parent;
        let reply_to = round.reply_to;
        ctx.multicast(
            self.peers(),
            BMsg::Commit {
                d,
                parent,
                tx: Arc::clone(&tx),
                reply_to: reply_to.into(),
            },
        );
        let parents = Parents::single(self.ledger.cluster(), parent);
        self.commit_block(ctx, Block::transaction(tx, parents), reply_to);
        self.rounds.remove(&d);
    }
}

impl Actor<BMsg> for GroupReplica {
    fn id(&self) -> ActorId {
        ActorId::Node(self.node)
    }

    fn on_message(&mut self, from: ActorId, msg: BMsg, ctx: &mut Context<BMsg>) {
        self.charge(ctx, 1, 0);
        match msg {
            BMsg::Request { tx, reply_to } => {
                let reply_to: ActorId = reply_to.into();
                if self.is_primary() {
                    self.start_round(tx, reply_to, ctx);
                } else if self.params.fast {
                    // Fast path: members vote directly on the client request.
                    let d = tx.digest();
                    self.reply_targets.insert(d, reply_to);
                    self.charge(ctx, 0, 1);
                    ctx.send(
                        ActorId::Node(self.params.primary()),
                        BMsg::Vote { d, node: self.node },
                    );
                } else {
                    // Forward to the primary.
                    ctx.send(
                        ActorId::Node(self.params.primary()),
                        BMsg::Request {
                            tx,
                            reply_to: reply_to.into(),
                        },
                    );
                }
            }
            BMsg::Propose {
                d,
                parent: _,
                tx,
                reply_to,
            } => {
                if from != ActorId::Node(self.params.primary()) {
                    return;
                }
                let _ = tx;
                self.reply_targets.insert(d, reply_to.into());
                self.charge(ctx, 0, 1);
                ctx.send(
                    ActorId::Node(self.params.primary()),
                    BMsg::Vote { d, node: self.node },
                );
            }
            BMsg::Vote { d, node } => {
                if !self.is_primary() {
                    return;
                }
                if let Some(round) = self.rounds.get_mut(&d) {
                    round.votes.insert(node);
                }
                self.try_decide(d, ctx);
            }
            BMsg::Commit {
                d,
                parent,
                tx,
                reply_to,
            } => {
                if from != ActorId::Node(self.params.primary()) {
                    return;
                }
                self.reply_targets.remove(&d);
                let parents = Parents::single(self.ledger.cluster(), parent);
                self.commit_block(ctx, Block::transaction(tx, parents), reply_to.into());
            }
            BMsg::Reply { .. }
            | BMsg::StateUpdate { .. }
            | BMsg::RcStep { .. }
            | BMsg::RcAck { .. } => {}
        }
    }

    fn on_timer(&mut self, _t: sharper_net::TimerId, _tag: u64, _ctx: &mut Context<BMsg>) {}
}

/// A passive replica: it receives execution results from the active group's
/// primary and applies them to its local copy of the state (APR / FPaxos /
/// FaB use the spare nodes this way).
pub struct PassiveReplica {
    node: NodeId,
    executor: Executor,
    store: AccountStore,
    applied: usize,
    cost: CostModel,
    failure_model: FailureModel,
}

impl PassiveReplica {
    /// Creates a passive replica holding a copy of the full state.
    pub fn new(
        node: NodeId,
        shard: ClusterId,
        partitioner: Partitioner,
        store: AccountStore,
        cost: CostModel,
        failure_model: FailureModel,
    ) -> Self {
        Self {
            node,
            executor: Executor::new(shard, partitioner),
            store,
            applied: 0,
            cost,
            failure_model,
        }
    }

    /// Number of state updates applied.
    pub fn applied(&self) -> usize {
        self.applied
    }
}

impl Actor<BMsg> for PassiveReplica {
    fn id(&self) -> ActorId {
        ActorId::Node(self.node)
    }

    fn on_message(&mut self, _from: ActorId, msg: BMsg, ctx: &mut Context<BMsg>) {
        if let BMsg::StateUpdate { tx } = msg {
            ctx.charge(self.cost.protocol_message(self.failure_model, 0, 0));
            ctx.charge(self.cost.execution());
            let _ = self.executor.apply(&mut self.store, &tx);
            self.applied += 1;
        }
    }

    fn on_timer(&mut self, _t: sharper_net::TimerId, _tag: u64, _ctx: &mut Context<BMsg>) {}
}
