//! Unit tests driving replicas message-by-message through detached contexts.
//!
//! The `TestNet` helper plays the role of a perfectly reliable, instantaneous
//! network: it routes every message a replica emits to its destination until
//! no messages remain. Timers never fire, so these tests exercise exactly the
//! fault-free protocol paths of §3.1–§3.3; timer- and fault-driven behaviour
//! is covered by the integration tests in the workspace root.

use super::*;
use crate::config::ReplicaConfig;
use crate::messages::{proposal_sign_bytes, vote_sign_bytes, Ballot, Msg, PreparedCert};
use cross::CrossRound;
use sharper_common::TxId;
use sharper_common::{
    AccountId, ClientId, ClusterId, CostModel, FailureModel, InitiationPolicy, NodeId, SimTime,
    SystemConfig,
};
use sharper_crypto::{Digest, KeyRegistry, Signature};
use sharper_ledger::audit_views;
use sharper_ledger::batch::root_derivations;
use sharper_ledger::{Batch, Block, Parents, VerifiedBatch};
use sharper_net::Context;
use sharper_state::{Partitioner, Transaction};
use std::collections::BTreeMap;
use std::collections::VecDeque;

const ACCOUNTS_PER_SHARD: u64 = 100;
const INITIAL_BALANCE: u64 = 1_000;

fn test_config(model: FailureModel, clusters: usize, f: usize) -> Arc<ReplicaConfig> {
    test_config_batched(model, clusters, f, 1)
}

fn test_config_batched(
    model: FailureModel,
    clusters: usize,
    f: usize,
    max_batch: usize,
) -> Arc<ReplicaConfig> {
    let system = SystemConfig::uniform(model, clusters, f)
        .unwrap()
        .with_initiation_policy(InitiationPolicy::SuperPrimary);
    let node_signers = system.node_ids().map(node_signer_id).collect::<Vec<_>>();
    let client_signers = (0..32).map(|c| client_signer_id(ClientId(c)));
    let (registry, _) = KeyRegistry::generate(7, node_signers.into_iter().chain(client_signers));
    let partitioner = Partitioner::range(clusters as u32, ACCOUNTS_PER_SHARD);
    Arc::new(ReplicaConfig {
        cost: CostModel::zero(),
        batch: sharper_common::BatchConfig::with_size(max_batch),
        ..ReplicaConfig::new(system, partitioner, registry)
    })
}

fn client_sig(cfg: &ReplicaConfig, tx: &Transaction) -> Signature {
    if cfg.system.failure_model.requires_signatures() {
        cfg.registry
            .signer(client_signer_id(tx.client()))
            .expect("client key registered")
            .sign(&tx.canonical_bytes())
    } else {
        Signature::unsigned(client_signer_id(tx.client()).0)
    }
}

/// A zero-latency, loss-free test network around a set of replicas.
struct TestNet {
    cfg: Arc<ReplicaConfig>,
    replicas: std::collections::BTreeMap<NodeId, Replica>,
    queue: VecDeque<(ActorId, ActorId, Msg)>,
    /// Replies delivered to clients: (client, tx, applied).
    replies: Vec<(ClientId, TxId, bool)>,
    delivered: usize,
}

impl TestNet {
    fn new(cfg: Arc<ReplicaConfig>) -> Self {
        let mut replicas = std::collections::BTreeMap::new();
        for node in cfg.system.node_ids() {
            replicas.insert(
                node,
                Replica::with_genesis(node, Arc::clone(&cfg), ACCOUNTS_PER_SHARD, INITIAL_BALANCE),
            );
        }
        Self {
            cfg,
            replicas,
            queue: VecDeque::new(),
            replies: Vec::new(),
            delivered: 0,
        }
    }

    /// Routes a client request exactly like the client library does: to the
    /// primary of the initiator cluster under the configured policy.
    fn submit(&mut self, tx: Transaction) {
        let involved = tx.involved_clusters(&self.cfg.partitioner);
        let target_cluster = self
            .cfg
            .system
            .initiator_cluster(&involved, None)
            .expect("valid clusters");
        let primary = self.cfg.system.primary(target_cluster, 0).unwrap();
        let sig = client_sig(&self.cfg, &tx);
        self.queue.push_back((
            ActorId::Client(tx.client()),
            ActorId::Node(primary),
            Msg::Request {
                tx: Arc::new(tx),
                epoch: 0,
                sig,
            },
        ));
    }

    /// Injects an arbitrary protocol message.
    fn inject(&mut self, from: ActorId, to: NodeId, msg: Msg) {
        self.queue.push_back((from, ActorId::Node(to), msg));
    }

    /// Delivers queued messages until quiescence (or the safety cap).
    fn run(&mut self) {
        let mut guard = 0usize;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            guard += 1;
            assert!(guard < 200_000, "test network did not quiesce");
            match to {
                ActorId::Node(node) => {
                    let Some(replica) = self.replicas.get_mut(&node) else {
                        continue;
                    };
                    let mut ctx = Context::detached(SimTime::from_millis(guard as u64), to);
                    replica.on_message(from, msg, &mut ctx);
                    self.delivered += 1;
                    for (dest, out) in ctx.take_outbox() {
                        self.queue.push_back((to, dest, out));
                    }
                }
                ActorId::Client(client) => {
                    if let Msg::Reply { tx, applied, .. } = msg {
                        self.replies.push((client, tx, applied));
                    }
                }
            }
        }
    }

    fn replica(&self, node: u32) -> &Replica {
        &self.replicas[&NodeId(node)]
    }

    fn ledgers(&self) -> Vec<sharper_ledger::LedgerView> {
        // One representative (the longest) view per cluster.
        let mut per_cluster: std::collections::BTreeMap<ClusterId, sharper_ledger::LedgerView> =
            std::collections::BTreeMap::new();
        for r in self.replicas.values() {
            per_cluster
                .entry(r.cluster())
                .and_modify(|v| {
                    if r.ledger().len() > v.len() {
                        *v = r.ledger().clone();
                    }
                })
                .or_insert_with(|| r.ledger().clone());
        }
        per_cluster.into_values().collect()
    }

    fn distinct_replies(&self, tx: TxId) -> usize {
        self.replies
            .iter()
            .filter(|(_, t, _)| *t == tx)
            .map(|(_, _, _)| ())
            .count()
    }
}

fn intra_tx(seq: u64) -> Transaction {
    // Accounts 1 and 2 live in shard 0; account 1 is owned by client 1.
    Transaction::transfer(ClientId(1), seq, AccountId(1), AccountId(2), 5)
}

fn intra_tx_in_cluster(cluster: u32, seq: u64) -> Transaction {
    let a = cluster as u64 * ACCOUNTS_PER_SHARD + 1;
    Transaction::transfer(ClientId(1), seq, AccountId(a), AccountId(a + 1), 5)
}

fn cross_tx(seq: u64, to_shard: u64) -> Transaction {
    // Debit shard 0 (account 1, owner client 1), credit shard `to_shard`.
    Transaction::transfer(
        ClientId(1),
        seq,
        AccountId(1),
        AccountId(to_shard * ACCOUNTS_PER_SHARD + 3),
        5,
    )
}

// ---------------------------------------------------------------------
// Paxos intra-shard (crash model)
// ---------------------------------------------------------------------

#[test]
fn paxos_orders_and_executes_an_intra_shard_transaction() {
    let cfg = test_config(FailureModel::Crash, 2, 1);
    let mut net = TestNet::new(cfg);
    net.submit(intra_tx(0));
    net.run();

    // Every replica of cluster 0 appended the block; cluster 1 untouched.
    for node in 0..3u32 {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 1, "replica {node}");
        assert_eq!(r.store().balance(AccountId(1)), Some(INITIAL_BALANCE - 5));
        assert_eq!(r.store().balance(AccountId(2)), Some(INITIAL_BALANCE + 5));
        assert!(r.is_idle());
    }
    for node in 3..6u32 {
        assert_eq!(net.replica(node).committed_count(), 0);
    }
    // The primary replied once.
    assert_eq!(net.distinct_replies(intra_tx(0).id), 1);
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn paxos_orders_a_sequence_of_transactions_in_submission_order() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    for seq in 0..10 {
        net.submit(intra_tx(seq));
    }
    net.run();
    let primary = net.replica(0);
    assert_eq!(primary.committed_count(), 10);
    // Total order: every replica has the same chain.
    let head = primary.ledger().head();
    for node in 1..3u32 {
        assert_eq!(net.replica(node).ledger().head(), head);
    }
    // Balance reflects ten transfers of 5.
    assert_eq!(
        primary.store().balance(AccountId(1)),
        Some(INITIAL_BALANCE - 50)
    );
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn paxos_request_to_backup_is_forwarded_to_primary() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let tx = intra_tx(0);
    let sig = client_sig(&cfg, &tx);
    // Send the request to a backup instead of the primary.
    net.inject(
        ActorId::Client(ClientId(1)),
        NodeId(2),
        Msg::Request {
            tx: Arc::new(tx.clone()),
            epoch: 0,
            sig,
        },
    );
    net.run();
    assert_eq!(net.replica(0).committed_count(), 1);
    assert_eq!(net.replica(2).committed_count(), 1);
    assert_eq!(net.distinct_replies(tx.id), 1);
}

#[test]
fn paxos_intra_transactions_of_different_clusters_proceed_independently() {
    let cfg = test_config(FailureModel::Crash, 4, 1);
    let mut net = TestNet::new(cfg);
    for cluster in 0..4u32 {
        for seq in 0..5 {
            net.submit(intra_tx_in_cluster(cluster, 100 * cluster as u64 + seq));
        }
    }
    net.run();
    for cluster in 0..4u32 {
        let primary = net.replica(cluster * 3);
        assert_eq!(primary.committed_count(), 5, "cluster {cluster}");
        assert_eq!(primary.stats().committed_intra, 5);
        assert_eq!(primary.stats().committed_cross, 0);
    }
    audit_views(&net.ledgers()).unwrap();
}

// ---------------------------------------------------------------------
// PBFT intra-shard (Byzantine model)
// ---------------------------------------------------------------------

#[test]
fn pbft_orders_and_executes_an_intra_shard_transaction() {
    let cfg = test_config(FailureModel::Byzantine, 2, 1);
    let mut net = TestNet::new(cfg);
    let tx = intra_tx(0);
    net.submit(tx.clone());
    net.run();
    for node in 0..4u32 {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 1, "replica {node}");
        assert_eq!(r.store().balance(AccountId(1)), Some(INITIAL_BALANCE - 5));
    }
    // Every replica of the cluster replies; the client needs f+1 = 2 matching.
    assert_eq!(net.distinct_replies(tx.id), 4);
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn pbft_rejects_pre_prepare_with_bad_signature() {
    let cfg = test_config(FailureModel::Byzantine, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let tx = intra_tx(0);
    let forged = Signature::unsigned(node_signer_id(NodeId(0)).0);
    net.inject(
        ActorId::Node(NodeId(0)),
        NodeId(1),
        Msg::PrePrepare {
            view: 0,
            parent: net.replica(1).ledger().head(),
            batch: sharper_ledger::Batch::single(tx),
            sig: forged,
        },
    );
    net.run();
    // Nothing commits anywhere.
    for node in 0..4u32 {
        assert_eq!(net.replica(node).committed_count(), 0);
    }
}

#[test]
fn pbft_rejects_request_with_invalid_client_signature() {
    let cfg = test_config(FailureModel::Byzantine, 1, 1);
    let mut net = TestNet::new(cfg);
    let tx = intra_tx(0);
    net.inject(
        ActorId::Client(ClientId(1)),
        NodeId(0),
        Msg::Request {
            tx: Arc::new(tx),
            epoch: 0,
            sig: Signature::unsigned(client_signer_id(ClientId(1)).0),
        },
    );
    net.run();
    assert_eq!(net.replica(0).committed_count(), 0);
}

#[test]
fn pbft_orders_many_transactions_with_identical_chains() {
    let cfg = test_config(FailureModel::Byzantine, 1, 1);
    let mut net = TestNet::new(cfg);
    for seq in 0..8 {
        net.submit(intra_tx(seq));
    }
    net.run();
    let head = net.replica(0).ledger().head();
    for node in 0..4u32 {
        assert_eq!(net.replica(node).committed_count(), 8);
        assert_eq!(net.replica(node).ledger().head(), head);
    }
    audit_views(&net.ledgers()).unwrap();
}

// ---------------------------------------------------------------------
// Cross-shard consensus, crash model (Algorithm 1)
// ---------------------------------------------------------------------

#[test]
fn cross_shard_crash_commits_on_all_involved_clusters() {
    let cfg = test_config(FailureModel::Crash, 4, 1);
    let mut net = TestNet::new(cfg);
    let tx = cross_tx(0, 1);
    net.submit(tx.clone());
    net.run();

    // Clusters 0 and 1 commit the block, clusters 2 and 3 are untouched.
    for node in 0..6u32 {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 1, "replica {node}");
        assert_eq!(r.stats().committed_cross, 1);
        assert!(r.is_idle(), "replica {node} must release its reservation");
    }
    for node in 6..12u32 {
        assert_eq!(net.replica(node).committed_count(), 0);
    }
    // The debit happened in shard 0, the credit in shard 1.
    assert_eq!(
        net.replica(0).store().balance(AccountId(1)),
        Some(INITIAL_BALANCE - 5)
    );
    assert_eq!(
        net.replica(3).store().balance(AccountId(103)),
        Some(INITIAL_BALANCE + 5)
    );
    // Only the initiator primary replies in the crash model.
    assert_eq!(net.distinct_replies(tx.id), 1);
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn cross_shard_crash_preserves_order_with_intra_shard_traffic() {
    let cfg = test_config(FailureModel::Crash, 2, 1);
    let mut net = TestNet::new(cfg);
    net.submit(intra_tx(0));
    net.submit(cross_tx(1, 1));
    net.submit(intra_tx(2));
    net.submit(intra_tx_in_cluster(1, 3));
    net.run();

    // Cluster 0 sees 2 intra + 1 cross; cluster 1 sees 1 intra + 1 cross.
    assert_eq!(net.replica(0).committed_count(), 3);
    assert_eq!(net.replica(3).committed_count(), 2);
    let report = audit_views(&net.ledgers()).unwrap();
    assert_eq!(report.distinct_transactions, 4);
    assert_eq!(report.cross_shard_transactions, 1);
}

#[test]
fn cross_shard_transactions_with_disjoint_clusters_commit_independently() {
    let cfg = test_config(FailureModel::Crash, 4, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    // t{1,2} over clusters 0-1 and t{3,4} over clusters 2-3 (paper Figure 4).
    let t_a = cross_tx(0, 1);
    let t_b = Transaction::transfer(
        ClientId(2),
        1,
        AccountId(2 * ACCOUNTS_PER_SHARD + 2),
        AccountId(3 * ACCOUNTS_PER_SHARD + 2),
        5,
    );
    net.submit(t_a);
    net.submit(t_b);
    net.run();
    for node in 0..12u32 {
        assert_eq!(net.replica(node).committed_count(), 1, "replica {node}");
    }
    let report = audit_views(&net.ledgers()).unwrap();
    assert_eq!(report.cross_shard_transactions, 2);
}

#[test]
fn reserved_replica_buffers_new_transactions_until_commit() {
    let cfg = test_config(FailureModel::Crash, 2, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let xtx = cross_tx(0, 1);
    let xbatch = sharper_ledger::Batch::single(xtx.clone());
    let d = xbatch.digest();

    // Step 1: deliver only the propose to a backup of cluster 1 by hand.
    net.inject(
        ActorId::Node(NodeId(0)),
        NodeId(4),
        Msg::XPropose {
            initiator: ClusterId(0),
            attempt: 0,
            parent: net.replica(0).ledger().head(),
            batch: xbatch.clone(),
            sig: Signature::unsigned(0),
        },
    );
    // Deliver it and drop the produced accept (do not run the full network).
    {
        let replica = net.replicas.get_mut(&NodeId(4)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(1), ActorId::Node(NodeId(4)));
        let (_, _, msg) = net.queue.pop_front().unwrap();
        replica.on_message(ActorId::Node(NodeId(0)), msg, &mut ctx);
        let out = ctx.take_outbox();
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, Msg::XAccept { d: dd, .. } if *dd == d)),
            "the reserved replica must send an accept"
        );
        assert!(!replica.is_idle(), "the replica is now reserved");
    }

    // Step 2: a Paxos accept for an intra-shard transaction arrives while
    // reserved — it must be buffered, not answered.
    {
        let head = net.replica(4).ledger().head();
        let replica = net.replicas.get_mut(&NodeId(4)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(2), ActorId::Node(NodeId(4)));
        replica.on_message(
            ActorId::Node(NodeId(3)),
            Msg::PaxosAccept {
                ballot: Ballot::new(0, NodeId(3)),
                parent: head,
                batch: sharper_ledger::Batch::single(intra_tx_in_cluster(1, 9)),
            },
            &mut ctx,
        );
        assert!(ctx.take_outbox().is_empty(), "buffered, not processed");
    }

    // Step 3: the commit arrives; the reservation is released. The buffered
    // intra-shard accept named the pre-commit head as its parent, a position
    // the cross-shard block has now taken — endorsing it would vouch a
    // second block for a committed height, so it is dropped, not answered.
    let stale_parent = {
        let stale_parent = net.replica(4).ledger().head();
        let parents = Parents::new([
            (ClusterId(0), net.replica(0).ledger().head()),
            (ClusterId(1), stale_parent),
        ]);
        let replica = net.replicas.get_mut(&NodeId(4)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(3), ActorId::Node(NodeId(4)));
        replica.on_message(
            ActorId::Node(NodeId(0)),
            Msg::XCommit {
                parents: parents.unwrap(),
                batch: xbatch,
                node: NodeId(0),
                sig: Signature::unsigned(0),
            },
            &mut ctx,
        );
        let out = ctx.take_outbox();
        assert_eq!(replica.committed_count(), 1);
        assert!(
            !out.iter()
                .any(|(_, m)| matches!(m, Msg::PaxosAccepted { .. })),
            "an accept at the consumed pre-commit position must not be endorsed"
        );
        stale_parent
    };

    // Step 4: the primary re-proposes the intra-shard batch at the new head
    // (chained after the cross-shard block); now the replica endorses it.
    {
        let head = net.replica(4).ledger().head();
        assert_ne!(head, stale_parent, "the cross-shard block moved the head");
        let replica = net.replicas.get_mut(&NodeId(4)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(4), ActorId::Node(NodeId(4)));
        replica.on_message(
            ActorId::Node(NodeId(3)),
            Msg::PaxosAccept {
                ballot: Ballot::new(0, NodeId(3)),
                parent: head,
                batch: sharper_ledger::Batch::single(intra_tx_in_cluster(1, 9)),
            },
            &mut ctx,
        );
        assert!(
            ctx.take_outbox()
                .iter()
                .any(|(_, m)| matches!(m, Msg::PaxosAccepted { .. })),
            "a re-proposal at the post-commit head must be endorsed"
        );
    }
}

#[test]
fn xstatus_probe_is_answered_with_the_cross_shard_fate() {
    // A remote replica stuck on a long-lived reservation probes the
    // initiator cluster with `XStatus`. A committed batch is re-announced
    // with its original commit; an unknown one is aborted — but only the
    // primary speaks for the cluster, so a lagging backup stays silent.
    let cfg = test_config(FailureModel::Crash, 2, 1);
    let mut net = TestNet::new(cfg);
    let xtx = cross_tx(0, 1);
    let d = sharper_ledger::Batch::single(xtx.clone()).digest();
    net.submit(xtx);
    net.run();
    assert!(net.replica(0).committed_count() >= 1);

    // Probe for the committed batch: answered with a retransmitted XCommit.
    {
        let member = net.replicas.get_mut(&NodeId(0)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(1), ActorId::Node(NodeId(0)));
        member.on_message(
            ActorId::Node(NodeId(4)),
            Msg::XStatus { d, node: NodeId(4) },
            &mut ctx,
        );
        assert!(
            ctx.take_outbox().iter().any(|(to, m)| {
                *to == ActorId::Node(NodeId(4))
                    && matches!(m, Msg::XCommit { batch, .. } if batch.digest() == d)
            }),
            "a committed batch must be re-announced to the probing node"
        );
    }

    // Probe for a batch the cluster never saw: the primary answers XAbort so
    // the reserved replica can release; a backup stays silent.
    let unknown = sharper_ledger::Batch::single(cross_tx(99, 1)).digest();
    {
        let primary = net.replicas.get_mut(&NodeId(0)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(2), ActorId::Node(NodeId(0)));
        primary.on_message(
            ActorId::Node(NodeId(4)),
            Msg::XStatus {
                d: unknown,
                node: NodeId(4),
            },
            &mut ctx,
        );
        assert!(
            ctx.take_outbox().iter().any(|(to, m)| {
                *to == ActorId::Node(NodeId(4))
                    && matches!(m, Msg::XAbort { d: answered, .. } if *answered == unknown)
            }),
            "the primary must abort an unknown probed batch"
        );
    }
    {
        let backup = net.replicas.get_mut(&NodeId(1)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(3), ActorId::Node(NodeId(1)));
        backup.on_message(
            ActorId::Node(NodeId(4)),
            Msg::XStatus {
                d: unknown,
                node: NodeId(4),
            },
            &mut ctx,
        );
        assert!(
            ctx.take_outbox().is_empty(),
            "only the primary speaks for the cluster on unknown batches"
        );
    }
}

// ---------------------------------------------------------------------
// Cross-shard consensus, Byzantine model (Algorithm 2)
// ---------------------------------------------------------------------

#[test]
fn cross_shard_bft_commits_on_all_involved_clusters() {
    let cfg = test_config(FailureModel::Byzantine, 4, 1);
    let mut net = TestNet::new(cfg);
    let tx = cross_tx(0, 2);
    net.submit(tx.clone());
    net.run();

    // Involved clusters: 0 and 2 (accounts 1 and 203).
    for node in (0..4u32).chain(8..12u32) {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 1, "replica {node}");
        assert!(r.is_idle());
    }
    for node in (4..8u32).chain(12..16u32) {
        assert_eq!(net.replica(node).committed_count(), 0, "replica {node}");
    }
    // Every replica of both involved clusters replies (8 replies).
    assert_eq!(net.distinct_replies(tx.id), 8);
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn cross_shard_bft_mixed_with_intra_shard_traffic() {
    let cfg = test_config(FailureModel::Byzantine, 3, 1);
    let mut net = TestNet::new(cfg);
    net.submit(intra_tx(0));
    net.submit(cross_tx(1, 1));
    net.submit(intra_tx_in_cluster(2, 2));
    net.submit(cross_tx(3, 2));
    net.run();

    let report = audit_views(&net.ledgers()).unwrap();
    assert_eq!(report.distinct_transactions, 4);
    assert_eq!(report.cross_shard_transactions, 2);
    // Cluster 0 is involved in: intra, cross(0-1), cross(0-2) = 3 blocks.
    assert_eq!(net.replica(0).committed_count(), 3);
}

#[test]
fn cross_shard_bft_three_cluster_transaction() {
    let cfg = test_config(FailureModel::Byzantine, 3, 1);
    let mut net = TestNet::new(cfg);
    // One transaction touching all three shards.
    let tx = Transaction::new(
        sharper_common::TxId::new(ClientId(1), 0),
        vec![
            sharper_state::Operation::Transfer {
                from: AccountId(1),
                to: AccountId(ACCOUNTS_PER_SHARD + 3),
                amount: 2,
            },
            sharper_state::Operation::Transfer {
                from: AccountId(1),
                to: AccountId(2 * ACCOUNTS_PER_SHARD + 3),
                amount: 3,
            },
        ],
    );
    net.submit(tx);
    net.run();
    for node in 0..12u32 {
        assert_eq!(net.replica(node).committed_count(), 1, "replica {node}");
    }
    let report = audit_views(&net.ledgers()).unwrap();
    assert_eq!(report.cross_shard_transactions, 1);
    // Debit of 5 from account 1, credits of 2 and 3 in shards 1 and 2.
    assert_eq!(
        net.replica(0).store().balance(AccountId(1)),
        Some(INITIAL_BALANCE - 5)
    );
    assert_eq!(
        net.replica(4)
            .store()
            .balance(AccountId(ACCOUNTS_PER_SHARD + 3)),
        Some(INITIAL_BALANCE + 2)
    );
    assert_eq!(
        net.replica(8)
            .store()
            .balance(AccountId(2 * ACCOUNTS_PER_SHARD + 3)),
        Some(INITIAL_BALANCE + 3)
    );
}

#[test]
fn a_late_byzantine_vote_for_a_committed_batch_is_dropped_not_parked() {
    let cfg = test_config(FailureModel::Byzantine, 2, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let tx = cross_tx(0, 1);
    let batch = Batch::single(tx.clone());
    let d = batch.digest();
    net.submit(tx);
    net.run();
    // Every replica decided on its first 2f+1 commit votes per cluster; the
    // votes trailing them found the round gone.
    for node in 0..8u32 {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 1, "replica {node}");
        assert!(r.early_cross.is_empty(), "replica {node}");
    }
    // A retransmitted, validly signed commit vote is dropped too.
    let head = net.replica(4).ledger().head();
    let parents = net.replica(4).ledger().block(head).unwrap().parents.clone();
    let pd = cross::parents_digest(&parents);
    let vote = Msg::XCommit {
        parents,
        batch,
        node: NodeId(1),
        sig: sign_as(&cfg, 1, &vote_sign_bytes(b"xcommit", 0, &pd, &d)),
    };
    assert!(deliver(&mut net, ActorId::Node(NodeId(1)), 4, vote).is_empty());
    assert!(net.replica(4).early_cross.is_empty());
}

#[test]
fn a_byzantine_replica_ignores_crash_form_cross_shard_messages() {
    let cfg = test_config(FailureModel::Byzantine, 2, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(4).ledger().head();
    let batch = Batch::single(cross_tx(0, 1));
    let d = batch.digest();
    let parents = Parents::new([(ClusterId(0), genesis), (ClusterId(1), genesis)]).unwrap();
    // The crash model's unsigned placeholder, as its primary would send it.
    let sig = Signature::unsigned(node_signer_id(NodeId(0)).0);
    let crash_form = [
        Msg::XPropose {
            initiator: ClusterId(0),
            attempt: 0,
            parent: genesis,
            batch: batch.clone(),
            sig,
        },
        Msg::XAccept {
            d,
            attempt: 0,
            parent: genesis,
            height: 1,
            node: NodeId(0),
            sig,
        },
        Msg::XCommit {
            parents,
            batch,
            node: NodeId(0),
            sig,
        },
    ];
    for msg in crash_form {
        let out = deliver(&mut net, ActorId::Node(NodeId(0)), 4, msg);
        assert!(out.is_empty());
        assert_untouched(&net, 4);
        assert!(net.replica(4).early_cross.is_empty());
    }
}

#[test]
fn a_cross_shard_accept_counts_towards_its_signers_cluster_only() {
    let cfg = test_config(FailureModel::Byzantine, 3, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let genesis = net.replica(4).ledger().head();
    let batch = Batch::single(cross_tx(0, 1));
    let d = batch.digest();
    let propose = Msg::XPropose {
        initiator: ClusterId(0),
        attempt: 0,
        parent: genesis,
        batch,
        sig: sign_as(&cfg, 0, &proposal_sign_bytes(0, &genesis, &d)),
    };
    deliver(&mut net, ActorId::Node(NodeId(0)), 4, propose);
    let accept = |node: u32, claimed: u64| Msg::XAccept {
        d,
        attempt: 0,
        parent: genesis,
        height: 1,
        node: NodeId(node),
        sig: sign_as(
            &cfg,
            node,
            &vote_sign_bytes(b"xaccept", claimed, &genesis, &d),
        ),
    };
    // Node 8 of the uninvolved cluster 2 signs for cluster 1, then for its
    // own cluster: neither vote counts.
    for claimed in [1, 2] {
        deliver(&mut net, ActorId::Node(NodeId(8)), 4, accept(8, claimed));
    }
    let accepts = &net.replica(4).cross[&d].accepts;
    assert!(accepts
        .values()
        .all(|votes| !votes.contains_key(&NodeId(8))));
    // Control: a member of cluster 1 signing the same bytes is counted.
    deliver(&mut net, ActorId::Node(NodeId(5)), 4, accept(5, 1));
    assert!(net.replica(4).cross[&d].accepts[&ClusterId(1)].contains_key(&NodeId(5)));
}

#[test]
fn pbft_votes_from_another_cluster_are_not_counted() {
    let cfg = test_config(FailureModel::Byzantine, 2, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let genesis = net.replica(1).ledger().head();
    let batch = Batch::single(intra_tx(0));
    let d = batch.digest();
    let n0 = ActorId::Node(NodeId(0));
    deliver(&mut net, n0, 1, pre_prepare(&cfg, 0, 0, genesis, &batch));
    // Node 4 of cluster 1 votes validly signed; node 2 of cluster 0 is the
    // control.
    for node in [4, 2] {
        let sig = |label: &[u8]| sign_as(&cfg, node, &vote_sign_bytes(label, 0, &genesis, &d));
        let from = ActorId::Node(NodeId(node));
        let prepare = Msg::Prepare {
            view: 0,
            parent: genesis,
            d,
            node: NodeId(node),
            sig: sig(b"prepare"),
        };
        deliver(&mut net, from, 1, prepare);
        let commit = Msg::PbftCommit {
            view: 0,
            parent: genesis,
            d,
            node: NodeId(node),
            sig: sig(b"commit"),
        };
        deliver(&mut net, from, 1, commit);
    }
    let round = &net.replica(1).intra[&d];
    assert!(!round.prepares.contains(&NodeId(4)) && !round.commits.contains(&NodeId(4)));
    assert!(round.prepares.contains(&NodeId(2)) && round.commits.contains(&NodeId(2)));
}

// ---------------------------------------------------------------------
// View change
// ---------------------------------------------------------------------

#[test]
fn view_change_installs_the_next_primary_on_quorum() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    // Nodes 0 (old primary), 1 (next primary), 2 (backup). Nodes 1 and 2 vote
    // for view 1; node 1 must install it and announce NewView.
    let sig = Signature::unsigned(0);
    net.inject(
        ActorId::Node(NodeId(2)),
        NodeId(1),
        Msg::ViewChange {
            cluster: ClusterId(0),
            new_view: 1,
            node: NodeId(2),
            accepted: vec![],
            prepared: vec![],
            chain_len: 0,
            sig,
        },
    );
    // Node 1's own vote arrives via its timer in production; simulate the
    // second vote directly.
    net.inject(
        ActorId::Node(NodeId(1)),
        NodeId(1),
        Msg::ViewChange {
            cluster: ClusterId(0),
            new_view: 1,
            node: NodeId(1),
            accepted: vec![],
            prepared: vec![],
            chain_len: 0,
            sig,
        },
    );
    net.run();
    assert_eq!(net.replica(1).view(), 1);
    assert!(net.replica(1).is_primary());
    // The other replicas learn the view from NewView.
    assert_eq!(net.replica(2).view(), 1);
    assert!(!net.replica(2).is_primary());
}

#[test]
fn new_primary_serves_requests_after_view_change() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let sig = Signature::unsigned(0);
    for voter in [1u32, 2u32] {
        net.inject(
            ActorId::Node(NodeId(voter)),
            NodeId(1),
            Msg::ViewChange {
                cluster: ClusterId(0),
                new_view: 1,
                node: NodeId(voter),
                accepted: vec![],
                prepared: vec![],
                chain_len: 0,
                sig,
            },
        );
    }
    net.run();
    assert_eq!(net.replica(1).view(), 1);

    // A request sent to the old primary is forwarded to the new one and
    // still commits (the old primary is alive here, just demoted).
    let tx = intra_tx(7);
    let csig = client_sig(&cfg, &tx);
    net.inject(
        ActorId::Client(ClientId(1)),
        NodeId(0),
        Msg::Request {
            tx: Arc::new(tx.clone()),
            epoch: 0,
            sig: csig,
        },
    );
    net.run();
    assert!(net.replica(1).committed_count() >= 1);
    assert_eq!(net.distinct_replies(tx.id), 1);
}

#[test]
fn view_change_preserves_a_value_committed_in_the_old_view() {
    // The fork this guards against: the old primary commits T at height 1
    // with accepts from itself and one backup, but its commit messages are
    // lost. If the new primary then proposed fresh work at height 1, the
    // cluster's chain would diverge from the old primary's. The view-change
    // state transfer must re-propose T at its original position instead.
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let tx = intra_tx(0);
    let genesis = net.replica(0).ledger().head();

    // Step 1: the primary (n0) proposes T; deliver the accept to n1 only.
    let accept = {
        let primary = net.replicas.get_mut(&NodeId(0)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(1), ActorId::Node(NodeId(0)));
        primary.on_message(
            ActorId::Client(ClientId(1)),
            Msg::Request {
                tx: Arc::new(tx.clone()),
                epoch: 0,
                sig: client_sig(&cfg, &tx),
            },
            &mut ctx,
        );
        let out = ctx.take_outbox();
        out.into_iter()
            .find_map(|(to, m)| {
                (to == ActorId::Node(NodeId(1)) && matches!(m, Msg::PaxosAccept { .. }))
                    .then_some(m)
            })
            .expect("primary multicasts the accept")
    };
    let accepted = {
        let backup = net.replicas.get_mut(&NodeId(1)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(2), ActorId::Node(NodeId(1)));
        backup.on_message(ActorId::Node(NodeId(0)), accept, &mut ctx);
        ctx.take_outbox()
            .into_iter()
            .find_map(|(_, m)| matches!(m, Msg::PaxosAccepted { .. }).then_some(m))
            .expect("backup votes")
    };
    // Step 2: the primary reaches quorum {n0, n1} and commits T at height 1;
    // its PaxosCommit messages are dropped (network loss).
    {
        let primary = net.replicas.get_mut(&NodeId(0)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(3), ActorId::Node(NodeId(0)));
        primary.on_message(ActorId::Node(NodeId(1)), accepted, &mut ctx);
        let _dropped = ctx.take_outbox();
    }
    assert_eq!(net.replica(0).committed_count(), 1);
    assert_eq!(net.replica(1).committed_count(), 0);

    // Step 3: n1 and n2 elect view 1 (new primary n1). n1's own accepted
    // round for T rides along in the state transfer.
    let sig = Signature::unsigned(0);
    for voter in [1u32, 2u32] {
        net.inject(
            ActorId::Node(NodeId(voter)),
            NodeId(1),
            Msg::ViewChange {
                cluster: ClusterId(0),
                new_view: 1,
                node: NodeId(voter),
                accepted: vec![],
                prepared: vec![],
                chain_len: 0,
                sig,
            },
        );
    }
    net.run();

    // The new primary must have re-proposed T as the bit-identical block:
    // every replica ends with the same chain containing T at height 1.
    assert_eq!(net.replica(1).view(), 1);
    let expected_head = {
        let mut parents = std::collections::BTreeMap::new();
        parents.insert(ClusterId(0), genesis);
        sharper_ledger::Block::transaction(tx.clone(), parents).digest()
    };
    for node in 0..3u32 {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 1, "replica {node} must hold T");
        assert_eq!(
            r.ledger().head(),
            expected_head,
            "replica {node} diverged from the old view's committed block"
        );
    }
    assert!(net.replica(0).ledger().block(expected_head).is_some());
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn lower_ballot_proposal_is_rejected_after_a_promise() {
    // Paxos promise discipline: once a backup accepts a proposal under
    // ballot (1, n1) it has promised that ballot, so the deposed view-0
    // primary's ballot (0, n0) must no longer gather acceptances — counting
    // it toward a quorum could commit two values at one chain position.
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();

    let high = Ballot::new(1, NodeId(1));
    {
        let backup = net.replicas.get_mut(&NodeId(2)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(1), ActorId::Node(NodeId(2)));
        backup.on_message(
            ActorId::Node(NodeId(1)),
            Msg::PaxosAccept {
                ballot: high,
                parent: genesis,
                batch: sharper_ledger::Batch::single(intra_tx(0)),
            },
            &mut ctx,
        );
        assert!(
            ctx.take_outbox().iter().any(|(to, m)| {
                *to == ActorId::Node(NodeId(1))
                    && matches!(m, Msg::PaxosAccepted { ballot, .. } if *ballot == high)
            }),
            "the view-1 primary's ballot must be accepted"
        );
    }
    // A valid higher-ballot proposal also proves view 1 exists.
    assert_eq!(net.replica(2).view(), 1);

    // The old primary's lower ballot is dead: no acceptance.
    {
        let backup = net.replicas.get_mut(&NodeId(2)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(2), ActorId::Node(NodeId(2)));
        backup.on_message(
            ActorId::Node(NodeId(0)),
            Msg::PaxosAccept {
                ballot: Ballot::new(0, NodeId(0)),
                parent: genesis,
                batch: sharper_ledger::Batch::single(intra_tx(1)),
            },
            &mut ctx,
        );
        assert!(
            !ctx.take_outbox()
                .iter()
                .any(|(_, m)| matches!(m, Msg::PaxosAccepted { .. })),
            "a ballot below the promise must be rejected"
        );
    }
}

#[test]
fn cascading_view_change_can_skip_to_a_later_view() {
    // After a failed first view change (its candidate also suspect, or its
    // votes lost), replicas vote directly for view 2. The view-2 candidate
    // must install it without ever seeing view 1 — view numbers are
    // monotonic, not consecutive — and then serve requests as primary.
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let sig = Signature::unsigned(0);
    for voter in [0u32, 1u32] {
        net.inject(
            ActorId::Node(NodeId(voter)),
            NodeId(2),
            Msg::ViewChange {
                cluster: ClusterId(0),
                new_view: 2,
                node: NodeId(voter),
                accepted: vec![],
                prepared: vec![],
                chain_len: 1,
                sig,
            },
        );
    }
    net.run();
    assert_eq!(net.replica(2).view(), 2);
    assert!(net.replica(2).is_primary());
    // The NewView announcement brings the whole cluster to view 2.
    assert_eq!(net.replica(0).view(), 2);
    assert_eq!(net.replica(1).view(), 2);

    // The view-2 primary orders new work.
    let tx = intra_tx(3);
    let csig = client_sig(&cfg, &tx);
    net.inject(
        ActorId::Client(ClientId(1)),
        NodeId(2),
        Msg::Request {
            tx: Arc::new(tx.clone()),
            epoch: 0,
            sig: csig,
        },
    );
    net.run();
    assert!(net.replica(2).committed_count() >= 1);
    assert_eq!(net.distinct_replies(tx.id), 1);
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn byzantine_new_view_rejects_forged_certificates() {
    // A lying new primary announces a view change carrying a
    // prepared-certificate whose quorum signatures are garbage: it claims a
    // round prepared that never did. Backups must refuse the announcement
    // wholesale — one forged entry means nothing the announcer says can be
    // trusted.
    let cfg = test_config(FailureModel::Byzantine, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let genesis = net.replica(2).ledger().head();
    let nv_bytes = vote_sign_bytes(
        b"newview",
        (ClusterId(0).0 as u64) << 32 | 1,
        &sharper_crypto::Digest::ZERO,
        &sharper_crypto::Digest::ZERO,
    );
    let nv_sig = cfg
        .registry
        .signer(node_signer_id(NodeId(1)))
        .expect("node key registered")
        .sign(&nv_bytes);
    let forged = PreparedCert {
        view: 0,
        parent: genesis,
        batch: sharper_ledger::Batch::single(intra_tx(0)),
        sigs: sharper_crypto::QuorumCert::from_signatures(
            (0..3u32).map(|n| Signature::unsigned(node_signer_id(NodeId(n)).0)),
        ),
    };
    net.inject(
        ActorId::Node(NodeId(1)),
        NodeId(2),
        Msg::NewView {
            cluster: ClusterId(0),
            new_view: 1,
            node: NodeId(1),
            certs: vec![forged],
            sig: nv_sig,
        },
    );
    net.run();
    assert_eq!(
        net.replica(2).view(),
        0,
        "a NewView with a forged certificate must not install"
    );

    // Control: the same (valid) signature with no certificates installs, so
    // the rejection above was the certificate check, not the signature.
    net.inject(
        ActorId::Node(NodeId(1)),
        NodeId(3),
        Msg::NewView {
            cluster: ClusterId(0),
            new_view: 1,
            node: NodeId(1),
            certs: vec![],
            sig: nv_sig,
        },
    );
    net.run();
    assert_eq!(net.replica(3).view(), 1);
}

#[test]
fn byzantine_new_view_replays_a_genuinely_prepared_round() {
    // Counterpart of the forged-certificate test: a round that really
    // prepared (2f+1 prepare signatures) but never committed must survive a
    // view change. The new primary carries the certificate in its NewView,
    // backups verify it, and the round re-commits bit-identically in view 1.
    let cfg = test_config(FailureModel::Byzantine, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let tx = intra_tx(0);
    let genesis = net.replica(0).ledger().head();

    // The view-0 primary proposes; capture the pre-prepare.
    let pre_prepare = {
        let primary = net.replicas.get_mut(&NodeId(0)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(1), ActorId::Node(NodeId(0)));
        primary.on_message(
            ActorId::Client(ClientId(1)),
            Msg::Request {
                tx: Arc::new(tx.clone()),
                epoch: 0,
                sig: client_sig(&cfg, &tx),
            },
            &mut ctx,
        );
        ctx.take_outbox()
            .into_iter()
            .find_map(|(_, m)| matches!(m, Msg::PrePrepare { .. }).then_some(m))
            .expect("primary multicasts the pre-prepare")
    };
    // Node 2 prepares; node 1 receives the pre-prepare plus node 2's
    // prepare, so it — and only it — holds a full prepared certificate (the
    // primary's pre-prepare signature, its own prepare, node 2's prepare).
    // All commit votes are dropped: the round is uncommitted everywhere.
    let prepare_2 = {
        let backup = net.replicas.get_mut(&NodeId(2)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(2), ActorId::Node(NodeId(2)));
        backup.on_message(ActorId::Node(NodeId(0)), pre_prepare.clone(), &mut ctx);
        ctx.take_outbox()
            .into_iter()
            .find_map(|(_, m)| matches!(m, Msg::Prepare { .. }).then_some(m))
            .expect("backup votes prepare")
    };
    {
        let backup = net.replicas.get_mut(&NodeId(1)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(3), ActorId::Node(NodeId(1)));
        backup.on_message(ActorId::Node(NodeId(0)), pre_prepare, &mut ctx);
        backup.on_message(ActorId::Node(NodeId(2)), prepare_2, &mut ctx);
        let _dropped = ctx.take_outbox();
    }
    assert_eq!(net.replica(1).committed_count(), 0);

    // Nodes 0, 2 and 3 vote (with real signatures) to make node 1 the
    // view-1 primary. Node 1's own prepared certificate rides into the
    // takeover even though none of the voters carried one.
    for voter in [0u32, 2, 3] {
        let vc_bytes = vote_sign_bytes(
            b"viewchange",
            (ClusterId(0).0 as u64) << 32 | 1,
            &sharper_crypto::Digest::ZERO,
            &sharper_crypto::Digest::ZERO,
        );
        let sig = cfg
            .registry
            .signer(node_signer_id(NodeId(voter)))
            .expect("node key registered")
            .sign(&vc_bytes);
        net.inject(
            ActorId::Node(NodeId(voter)),
            NodeId(1),
            Msg::ViewChange {
                cluster: ClusterId(0),
                new_view: 1,
                node: NodeId(voter),
                accepted: vec![],
                prepared: vec![],
                chain_len: 1,
                sig,
            },
        );
    }
    net.run();

    // The certified round re-committed at its original position in view 1.
    let expected_head = {
        let mut parents = std::collections::BTreeMap::new();
        parents.insert(ClusterId(0), genesis);
        sharper_ledger::Block::transaction(tx, parents).digest()
    };
    for node in 0..4u32 {
        let r = net.replica(node);
        assert_eq!(r.view(), 1, "replica {node}");
        assert_eq!(r.committed_count(), 1, "replica {node}");
        assert_eq!(r.ledger().head(), expected_head, "replica {node}");
    }
    audit_views(&net.ledgers()).unwrap();
}

// ---------------------------------------------------------------------
// Misc replica behaviour
// ---------------------------------------------------------------------

#[test]
fn duplicate_requests_are_answered_without_reordering() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let tx = intra_tx(0);
    net.submit(tx.clone());
    net.run();
    assert_eq!(net.replica(0).committed_count(), 1);
    // Retransmission: the primary replies again but does not re-commit.
    net.submit(tx.clone());
    net.run();
    assert_eq!(net.replica(0).committed_count(), 1);
    assert!(net.replies.iter().filter(|(_, t, _)| *t == tx.id).count() >= 2);
}

#[test]
fn invalid_transfers_commit_in_order_but_abort_at_execution() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    // Client 5 does not own account 1.
    let bad = Transaction::transfer(ClientId(5), 0, AccountId(1), AccountId(2), 5);
    net.submit(bad.clone());
    net.run();
    let primary = net.replica(0);
    // Ordered (appended) but aborted at execution; balances unchanged.
    assert_eq!(primary.committed_count(), 1);
    assert_eq!(primary.stats().aborted_executions, 1);
    assert_eq!(primary.store().balance(AccountId(1)), Some(INITIAL_BALANCE));
    assert_eq!(
        net.replies
            .iter()
            .find(|(_, t, _)| *t == bad.id)
            .map(|(_, _, applied)| *applied),
        Some(false)
    );
}

// ---------------------------------------------------------------------
// Batching
// ---------------------------------------------------------------------

#[test]
fn paxos_batches_accumulate_and_commit_in_one_block() {
    let cfg = test_config_batched(FailureModel::Crash, 1, 1, 4);
    let mut net = TestNet::new(cfg);
    for seq in 0..4 {
        net.submit(intra_tx(seq));
    }
    net.run();
    for node in 0..3u32 {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 4, "replica {node} commits all txs");
        assert_eq!(
            r.stats().committed_blocks,
            1,
            "replica {node} appended one batched block"
        );
        assert_eq!(r.ledger().committed_blocks(), 1);
    }
    // The primary replied once per transaction.
    for seq in 0..4 {
        assert_eq!(net.distinct_replies(intra_tx(seq).id), 1, "tx {seq}");
    }
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn pbft_batches_commit_atomically_with_per_transaction_replies() {
    let cfg = test_config_batched(FailureModel::Byzantine, 1, 1, 4);
    let mut net = TestNet::new(cfg);
    for seq in 0..4 {
        net.submit(intra_tx(seq));
    }
    net.run();
    let head = net.replica(0).ledger().head();
    for node in 0..4u32 {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 4);
        assert_eq!(r.stats().committed_blocks, 1);
        assert_eq!(r.ledger().head(), head);
    }
    // Every replica replies per transaction (4 replicas × 4 txs).
    for seq in 0..4 {
        assert_eq!(net.distinct_replies(intra_tx(seq).id), 4, "tx {seq}");
    }
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn partial_batch_flushes_when_the_batch_timer_fires() {
    let cfg = test_config_batched(FailureModel::Crash, 1, 1, 8);
    let mut net = TestNet::new(Arc::clone(&cfg));
    // Deliver two requests by hand so the primary queues them (batch of 8
    // never fills) and capture the batch timer it arms.
    let mut batch_timer = None;
    for seq in 0..2 {
        let tx = intra_tx(seq);
        let sig = client_sig(&cfg, &tx);
        let primary = net.replicas.get_mut(&NodeId(0)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(seq), ActorId::Node(NodeId(0)));
        primary.on_message(
            ActorId::Client(ClientId(1)),
            Msg::Request {
                tx: Arc::new(tx),
                epoch: 0,
                sig,
            },
            &mut ctx,
        );
        assert!(ctx.take_outbox().is_empty(), "nothing proposed yet");
        for (timer, _, tag) in ctx.take_timers() {
            if tag == crate::messages::timer_tags::BATCH {
                batch_timer = Some(timer);
            }
        }
    }
    let timer = batch_timer.expect("the primary armed a batch timer");
    assert!(!net.replica(0).is_idle(), "requests are pending");

    // Fire the timer: the partial batch (2 transactions) is proposed.
    {
        let primary = net.replicas.get_mut(&NodeId(0)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(5), ActorId::Node(NodeId(0)));
        primary.on_timer(timer, crate::messages::timer_tags::BATCH, &mut ctx);
        let out = ctx.take_outbox();
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, Msg::PaxosAccept { batch, .. } if batch.len() == 2)),
            "the flush proposes a 2-transaction batch"
        );
        for (dest, msg) in out {
            net.queue.push_back((ActorId::Node(NodeId(0)), dest, msg));
        }
    }
    net.run();
    for node in 0..3u32 {
        assert_eq!(net.replica(node).committed_count(), 2, "replica {node}");
        assert_eq!(net.replica(node).stats().committed_blocks, 1);
    }
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn cross_shard_batches_group_same_cluster_set_transactions() {
    let cfg = test_config_batched(FailureModel::Crash, 2, 1, 2);
    let mut net = TestNet::new(cfg);
    net.submit(cross_tx(0, 1));
    net.submit(cross_tx(1, 1));
    net.run();
    // Both transactions share the cluster set {0, 1}, so they commit as one
    // cross-shard block on every replica of both clusters.
    for node in 0..6u32 {
        let r = net.replica(node);
        assert_eq!(r.committed_count(), 2, "replica {node}");
        assert_eq!(r.stats().committed_cross, 2);
        assert_eq!(r.stats().committed_blocks, 1);
        assert!(r.is_idle(), "replica {node} released its reservation");
    }
    let report = audit_views(&net.ledgers()).unwrap();
    assert_eq!(report.cross_shard_transactions, 2);
}

#[test]
fn single_transaction_batches_preserve_unbatched_message_flow() {
    // max_batch_size = 1: requests are proposed on arrival and the replica
    // quiesces without ever arming a batch timer (batched runs would leave a
    // pending timer behind in this instantaneous-network harness).
    let cfg = test_config_batched(FailureModel::Crash, 1, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let tx = intra_tx(0);
    let sig = client_sig(&cfg, &tx);
    let primary = net.replicas.get_mut(&NodeId(0)).unwrap();
    let mut ctx = Context::detached(SimTime::ZERO, ActorId::Node(NodeId(0)));
    primary.on_message(
        ActorId::Client(ClientId(1)),
        Msg::Request {
            tx: Arc::new(tx),
            epoch: 0,
            sig,
        },
        &mut ctx,
    );
    assert!(
        ctx.take_outbox()
            .iter()
            .any(|(_, m)| matches!(m, Msg::PaxosAccept { batch, .. } if batch.len() == 1)),
        "the request is proposed immediately"
    );
    assert!(
        ctx.take_timers()
            .iter()
            .all(|(_, _, tag)| *tag != crate::messages::timer_tags::BATCH),
        "no batch timer at max_batch_size = 1"
    );
}

#[test]
fn byzantine_retransmissions_hit_the_signature_cache() {
    let cfg = test_config_batched(FailureModel::Byzantine, 1, 1, 1);
    let mut net = TestNet::new(cfg);
    let tx = intra_tx(0);
    // The client retransmits before the first copy commits (both requests
    // are queued ahead of the protocol messages): the second signature check
    // over identical bytes is served from the verified-pair cache.
    net.submit(tx.clone());
    net.submit(tx.clone());
    net.run();
    assert!(
        net.replica(0).stats().sig_cache_hits >= 1,
        "the duplicate request verification must be a cache hit"
    );
    assert_eq!(
        net.replica(0).committed_count(),
        1,
        "still exactly one commit"
    );
    audit_views(&net.ledgers()).unwrap();
}

#[test]
fn replica_constructor_wires_cluster_membership() {
    let cfg = test_config(FailureModel::Byzantine, 2, 1);
    let r = Replica::with_genesis(NodeId(5), Arc::clone(&cfg), ACCOUNTS_PER_SHARD, 100);
    assert_eq!(r.node(), NodeId(5));
    assert_eq!(r.cluster(), ClusterId(1));
    assert!(!r.is_primary());
    assert_eq!(r.view(), 0);
    assert_eq!(r.store().len(), ACCOUNTS_PER_SHARD as usize);
    let p = Replica::with_genesis(NodeId(4), cfg, ACCOUNTS_PER_SHARD, 100);
    assert!(p.is_primary());
}

// ---------------------------------------------------------------------
// One block per round: the round's block is built once and reused
// ---------------------------------------------------------------------

/// Delivers one message to one replica and returns what it sent.
fn deliver(net: &mut TestNet, from: ActorId, to: u32, msg: Msg) -> Vec<(ActorId, Msg)> {
    let replica = net.replicas.get_mut(&NodeId(to)).unwrap();
    let mut ctx = Context::detached(SimTime::from_millis(1), ActorId::Node(NodeId(to)));
    replica.on_message(from, msg, &mut ctx);
    ctx.take_outbox()
}

/// The block a replica of cluster 0 would build from scratch.
fn fresh_block(batch: &Batch, parent: Digest) -> Block {
    Block::batch(batch.clone(), BTreeMap::from([(ClusterId(0), parent)]))
}

fn pre_prepare(cfg: &ReplicaConfig, primary: u32, view: u64, parent: Digest, batch: &Batch) -> Msg {
    let sig = cfg
        .registry
        .signer(node_signer_id(NodeId(primary)))
        .expect("node key registered")
        .sign(&crate::messages::proposal_sign_bytes(
            view,
            &parent,
            &batch.digest(),
        ));
    Msg::PrePrepare {
        view,
        parent,
        batch: batch.clone(),
        sig,
    }
}

#[test]
fn the_round_holds_the_block_a_fresh_build_would_give() {
    for model in [FailureModel::Crash, FailureModel::Byzantine] {
        let cfg = test_config(model, 1, 1);
        let mut net = TestNet::new(Arc::clone(&cfg));
        let genesis = net.replica(0).ledger().head();
        let tx = intra_tx(0);
        let batch = Batch::single(tx.clone());
        let expected = fresh_block(&batch, genesis);

        // The primary creates the round when it proposes ...
        let request = Msg::Request {
            tx: Arc::new(tx.clone()),
            epoch: 0,
            sig: client_sig(&cfg, &tx),
        };
        let proposal = deliver(&mut net, ActorId::Client(tx.client()), 0, request)
            .into_iter()
            .find_map(|(_, m)| {
                matches!(m, Msg::PaxosAccept { .. } | Msg::PrePrepare { .. }).then_some(m)
            })
            .expect("the primary proposes");
        // ... and a backup when it accepts the proposal.
        deliver(&mut net, ActorId::Node(NodeId(0)), 1, proposal);
        for node in [0u32, 1] {
            let replica = net.replica(node);
            let round = &replica.intra[&batch.digest()];
            assert_eq!(*round.block, expected, "{model:?} replica {node}");
            assert_eq!(round.parent(), genesis);
            assert_eq!(&*round.batch, &batch);
            assert_eq!(replica.log.tail(), expected.digest());
        }
    }
}

#[test]
fn paxos_replay_at_another_parent_rebuilds_the_rounds_block() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();
    let a = Batch::single(intra_tx(0));
    let b = Batch::single(intra_tx(1));
    let a_at_genesis = fresh_block(&a, genesis).digest();
    let old = Ballot::new(0, NodeId(0));
    let accept = |ballot, parent, batch: &Batch| Msg::PaxosAccept {
        ballot,
        parent,
        batch: batch.clone(),
    };

    // View 0 orders A then B; the backup chains both.
    let n0 = ActorId::Node(NodeId(0));
    deliver(&mut net, n0, 2, accept(old, genesis, &a));
    deliver(&mut net, n0, 2, accept(old, a_at_genesis, &b));
    let stale = fresh_block(&b, a_at_genesis);
    assert_eq!(*net.replica(2).intra[&b.digest()].block, stale);
    assert_eq!(net.replica(2).log.tail(), stale.digest());

    // The view-1 primary replays B right after genesis: same batch, newer
    // ballot, different position. The round's block must follow.
    let new = Ballot::new(1, NodeId(1));
    let n1 = ActorId::Node(NodeId(1));
    let out = deliver(&mut net, n1, 2, accept(new, genesis, &b));
    assert!(out
        .iter()
        .any(|(_, m)| matches!(m, Msg::PaxosAccepted { ballot, .. } if *ballot == new)));
    let moved = fresh_block(&b, genesis);
    assert_ne!(moved.digest(), stale.digest());
    let round = &net.replica(2).intra[&b.digest()];
    assert_eq!(*round.block, moved);
    assert_eq!(round.ballot, new);
    assert_eq!(net.replica(2).log.tail(), moved.digest());

    // The commit appends the re-positioned block.
    let commit = Msg::PaxosCommit {
        ballot: new,
        parent: genesis,
        batch: b.clone(),
    };
    deliver(&mut net, n1, 2, commit);
    assert_eq!(net.replica(2).ledger().head(), moved.digest());
    assert_eq!(net.replica(2).committed_count(), 1);
}

#[test]
fn pbft_replay_at_another_parent_rebuilds_the_rounds_block() {
    let cfg = test_config(FailureModel::Byzantine, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let genesis = net.replica(2).ledger().head();
    let a = Batch::single(intra_tx(0));
    let b = Batch::single(intra_tx(1));
    let a_at_genesis = fresh_block(&a, genesis).digest();

    let n0 = ActorId::Node(NodeId(0));
    deliver(&mut net, n0, 2, pre_prepare(&cfg, 0, 0, genesis, &a));
    deliver(&mut net, n0, 2, pre_prepare(&cfg, 0, 0, a_at_genesis, &b));
    let stale = fresh_block(&b, a_at_genesis);
    assert_eq!(*net.replica(2).intra[&b.digest()].block, stale);

    // View 1 (primary n1) re-proposes B right after genesis.
    {
        let backup = net.replicas.get_mut(&NodeId(2)).unwrap();
        let mut ctx = Context::detached(SimTime::from_millis(1), ActorId::Node(NodeId(2)));
        backup.install_view(1, &mut ctx);
    }
    let n1 = ActorId::Node(NodeId(1));
    let out = deliver(&mut net, n1, 2, pre_prepare(&cfg, 1, 1, genesis, &b));
    assert!(out.iter().any(|(_, m)| matches!(
        m,
        Msg::Prepare { view: 1, parent, .. } if *parent == genesis
    )));
    let moved = fresh_block(&b, genesis);
    let round = &net.replica(2).intra[&b.digest()];
    assert_eq!(*round.block, moved);
    assert_eq!(round.ballot, Ballot::new(1, NodeId(1)));
    assert_eq!(net.replica(2).log.tail(), moved.digest());
}

#[test]
fn a_commit_naming_another_parent_does_not_reuse_the_accepted_block() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();
    let a = Batch::single(intra_tx(0));
    let b = Batch::single(intra_tx(1));
    let a_at_genesis = fresh_block(&a, genesis).digest();
    let ballot = Ballot::new(0, NodeId(0));
    let n0 = ActorId::Node(NodeId(0));
    for (parent, batch) in [(genesis, &a), (a_at_genesis, &b)] {
        let accept = Msg::PaxosAccept {
            ballot,
            parent,
            batch: batch.clone(),
        };
        deliver(&mut net, n0, 2, accept);
    }
    assert_eq!(net.replica(2).intra[&b.digest()].parent(), a_at_genesis);

    // B is decided right after genesis, not where this replica accepted it.
    // The accepted block (B after A) would park forever behind a parent that
    // never commits; the commit's own position must win.
    let commit = Msg::PaxosCommit {
        ballot,
        parent: genesis,
        batch: b.clone(),
    };
    deliver(&mut net, n0, 2, commit);
    assert_eq!(
        net.replica(2).ledger().head(),
        fresh_block(&b, genesis).digest()
    );
    assert_eq!(net.replica(2).committed_count(), 1);
}

// ---------------------------------------------------------------------
// The ordering log: decided blocks append in chain order
// ---------------------------------------------------------------------

fn paxos_commit(parent: Digest, batch: &Batch) -> Msg {
    Msg::PaxosCommit {
        ballot: Ballot::new(0, NodeId(0)),
        parent,
        batch: batch.clone(),
    }
}

#[test]
fn a_backup_appends_commits_that_overtook_each_other_in_chain_order() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();
    let (a, b) = (Batch::single(intra_tx(0)), Batch::single(intra_tx(1)));
    let block_1 = fresh_block(&a, genesis);
    let block_2 = fresh_block(&b, block_1.digest());
    let n0 = ActorId::Node(NodeId(0));

    // Block 2's commit arrives first: it waits for its parent.
    deliver(&mut net, n0, 2, paxos_commit(block_1.digest(), &b));
    assert!(net.replica(2).ledger().is_empty());
    assert_eq!(net.replica(2).log.parked_len(), 1);

    // Block 1 appends, and block 2 right behind it.
    deliver(&mut net, n0, 2, paxos_commit(genesis, &a));
    let replica = net.replica(2);
    let chain: Vec<Digest> = replica.ledger().blocks().map(Block::digest).collect();
    assert_eq!(chain, vec![genesis, block_1.digest(), block_2.digest()]);
    assert_eq!(replica.log.parked_len(), 0);
    assert_eq!(replica.log.tail(), block_2.digest());
    assert_eq!(replica.committed_count(), 2);
}

#[test]
fn a_second_decided_block_at_an_already_filled_position_is_dropped() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();
    let a = Batch::single(intra_tx(0));
    let (b, c) = (Batch::single(intra_tx(1)), Batch::single(intra_tx(2)));
    let block_1 = fresh_block(&a, genesis);
    let n0 = ActorId::Node(NodeId(0));

    // Two decided blocks name block 1 as their parent; both wait for it.
    deliver(&mut net, n0, 2, paxos_commit(block_1.digest(), &b));
    deliver(&mut net, n0, 2, paxos_commit(block_1.digest(), &c));
    assert_eq!(net.replica(2).log.parked_len(), 2);

    // The first fills the position after block 1; the second is dropped.
    deliver(&mut net, n0, 2, paxos_commit(genesis, &a));
    let replica = net.replica(2);
    assert_eq!(replica.ledger().len(), 3);
    assert_eq!(
        replica.ledger().head(),
        fresh_block(&b, block_1.digest()).digest()
    );
    assert_eq!(replica.log.parked_len(), 0);
    assert_eq!(replica.committed_count(), 2);
    assert!(!replica.ledger().contains_tx(intra_tx(2).id));
}

#[test]
fn a_paxos_accept_naming_a_parked_blocks_parent_is_refused() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();
    let block_1 = fresh_block(&Batch::single(intra_tx(0)), genesis);
    let n0 = ActorId::Node(NodeId(0));
    let b = Batch::single(intra_tx(1));
    deliver(&mut net, n0, 2, paxos_commit(block_1.digest(), &b));

    // The position after block 1 is decided (parked), so a proposal for it
    // is not endorsed.
    let c = Batch::single(intra_tx(2));
    let accept = Msg::PaxosAccept {
        ballot: Ballot::new(0, NodeId(0)),
        parent: block_1.digest(),
        batch: c.clone(),
    };
    let out = deliver(&mut net, n0, 2, accept);
    assert!(!out
        .iter()
        .any(|(_, m)| matches!(m, Msg::PaxosAccepted { .. })));
    assert!(!net.replica(2).intra.contains_key(&c.digest()));
}

#[test]
fn install_view_drops_parked_blocks_whose_transactions_all_committed() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();
    let n0 = ActorId::Node(NodeId(0));
    let orphan_parent = fresh_block(&Batch::single(intra_tx(9)), genesis).digest();
    let other_parent = fresh_block(&Batch::single(intra_tx(8)), genesis).digest();
    let settled = Batch::single(intra_tx(0));
    let open = Batch::single(intra_tx(1));
    deliver(&mut net, n0, 2, paxos_commit(orphan_parent, &settled));
    deliver(&mut net, n0, 2, paxos_commit(other_parent, &open));
    // `settled`'s transaction commits through another block.
    deliver(&mut net, n0, 2, paxos_commit(genesis, &settled));
    assert_eq!(net.replica(2).committed_count(), 1);
    assert_eq!(net.replica(2).log.parked_len(), 2);

    let backup = net.replicas.get_mut(&NodeId(2)).unwrap();
    let mut ctx = Context::detached(SimTime::from_millis(1), ActorId::Node(NodeId(2)));
    backup.install_view(1, &mut ctx);
    assert_eq!(
        backup.log.parked_len(),
        1,
        "only the open block stays parked"
    );
    assert_eq!(backup.log.tail(), backup.ledger().head());
}

#[test]
fn a_view_change_vote_from_another_cluster_is_not_counted() {
    let cfg = test_config(FailureModel::Crash, 2, 1);
    let mut net = TestNet::new(cfg);
    let vote = |node: u32| Msg::ViewChange {
        cluster: ClusterId(0),
        new_view: 1,
        node: NodeId(node),
        accepted: vec![],
        prepared: vec![],
        chain_len: 0,
        sig: Signature::unsigned(0),
    };
    // Node 3 belongs to cluster 1: with node 2's vote it would make the f+1
    // quorum that installs node 1 as cluster 0's primary.
    for node in [3, 2] {
        deliver(&mut net, ActorId::Node(NodeId(node)), 1, vote(node));
    }
    let replica = net.replica(1);
    assert_eq!(replica.view(), 0);
    assert_eq!(
        replica.vc_votes[&1].keys().copied().collect::<Vec<_>>(),
        [NodeId(2)]
    );
}

#[test]
fn a_new_primary_restarts_the_first_of_its_initiator_rounds_in_priority_order() {
    let cfg = test_config(FailureModel::Crash, 2, 1);
    let vote = |node: u32| Msg::ViewChange {
        cluster: ClusterId(0),
        new_view: 1,
        node: NodeId(node),
        accepted: vec![],
        prepared: vec![],
        chain_len: 0,
        sig: Signature::unsigned(0),
    };
    // Each pair meets a fresh hash map; every one must restart the same
    // round.
    for pair in 0..8u64 {
        let mut net = TestNet::new(Arc::clone(&cfg));
        let batches = [2 * pair, 2 * pair + 1].map(|seq| Batch::single(cross_tx(seq, 1)));
        let backup = net.replicas.get_mut(&NodeId(1)).unwrap();
        for batch in &batches {
            let involved = batch.involved_clusters(&cfg.partitioner);
            let verified = VerifiedBatch::check(batch.clone()).unwrap();
            let round = CrossRound::new(verified, involved, ClusterId(0), 0);
            backup.cross.insert(batch.digest(), round);
        }
        let first = batches
            .iter()
            .map(Batch::digest)
            .min_by_key(|d| cross_priority_key(*d, ClusterId(0)))
            .unwrap();

        // Node 1 becomes the primary of view 1 and takes over.
        deliver(&mut net, ActorId::Node(NodeId(2)), 1, vote(2));
        let out = deliver(&mut net, ActorId::Node(NodeId(1)), 1, vote(1));
        let replica = net.replica(1);
        assert!(replica.is_primary());
        assert_eq!(replica.initiating, Some(first), "pair {pair}");
        assert_eq!(replica.cross.keys().copied().collect::<Vec<_>>(), [first]);
        let mut proposed: Vec<Digest> = out
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::XPropose { batch, .. } => Some(batch.digest()),
                _ => None,
            })
            .collect();
        proposed.dedup();
        assert_eq!(proposed, [first], "pair {pair}");
    }
}

// ---------------------------------------------------------------------
// Hash once: the verified-batch witness
// ---------------------------------------------------------------------

fn batch_of(txs: impl IntoIterator<Item = Transaction>) -> Batch {
    Batch::new(txs.into_iter().map(Arc::new).collect())
}

/// `honest` with its first transaction swapped for `intruder`, still
/// claiming `honest`'s root — so it is keyed, signed and voted on exactly
/// like the honest batch, and only a root derivation tells them apart.
fn forge(honest: &Batch, intruder: Transaction) -> Batch {
    let mut txs = honest.txs().to_vec();
    txs[0] = Arc::new(intruder);
    let forged = Batch::with_claimed_root(txs, honest.digest());
    assert!(!forged.verify_root());
    forged
}

fn sign_as(cfg: &ReplicaConfig, node: u32, bytes: &[u8]) -> Signature {
    cfg.registry
        .signer(node_signer_id(NodeId(node)))
        .expect("node key registered")
        .sign(bytes)
}

/// The replica holds nothing but the genesis block and no round state.
fn assert_untouched(net: &TestNet, node: u32) {
    let r = net.replica(node);
    assert_eq!(r.committed_count(), 0, "replica {node}");
    assert!(r.ledger().is_empty(), "replica {node}");
    assert!(r.intra.is_empty() && r.cross.is_empty(), "replica {node}");
    assert_eq!(r.log.parked_len(), 0, "replica {node}");
    assert!(r.is_idle(), "replica {node}");
}

#[test]
fn a_forged_batch_in_a_paxos_accept_or_commit_is_never_appended() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();
    let honest = batch_of([intra_tx(0), intra_tx(1)]);
    let forged = forge(&honest, intra_tx(77));
    let d = honest.digest();
    let ballot = Ballot::new(0, NodeId(0));
    let n0 = ActorId::Node(NodeId(0));
    let accept = |batch: &Batch| Msg::PaxosAccept {
        ballot,
        parent: genesis,
        batch: batch.clone(),
    };
    let commit = |batch: &Batch| Msg::PaxosCommit {
        ballot,
        parent: genesis,
        batch: batch.clone(),
    };

    // Forged accept: no vote, no round. Forged commit with no round: nothing
    // appended (before this check the append would have derived the root —
    // and panicked on the mismatch).
    let out = deliver(&mut net, n0, 2, accept(&forged));
    assert!(out.is_empty(), "a forged proposal is not endorsed");
    assert!(deliver(&mut net, n0, 2, commit(&forged)).is_empty());
    assert_untouched(&net, 2);

    // The honest accept is endorsed. A commit that then carries the forgery
    // under the same digest cannot swap the payload: the replica appends the
    // batch *it* verified.
    let out = deliver(&mut net, n0, 2, accept(&honest));
    assert!(out
        .iter()
        .any(|(_, m)| matches!(m, Msg::PaxosAccepted { d: voted, .. } if *voted == d)));
    deliver(&mut net, n0, 2, commit(&forged));
    let expected = fresh_block(&honest, genesis);
    assert_eq!(net.replica(2).ledger().head(), expected.digest());
    assert_eq!(
        net.replica(2).ledger().block(expected.digest()),
        Some(&expected)
    );
    net.replica(2).ledger().verify_chain().unwrap();

    // An honest commit reaching a replica that never saw the accept commits.
    deliver(&mut net, n0, 1, commit(&honest));
    assert_eq!(net.replica(1).ledger().head(), expected.digest());
    assert_eq!(net.replica(1).committed_count(), 2);
}

#[test]
fn a_forged_batch_in_a_pre_prepare_is_never_appended() {
    let cfg = test_config(FailureModel::Byzantine, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let genesis = net.replica(1).ledger().head();
    let honest = batch_of([intra_tx(0), intra_tx(1)]);
    let forged = forge(&honest, intra_tx(77));
    let n0 = ActorId::Node(NodeId(0));

    // The (Byzantine) primary's signature over the claimed digest is valid;
    // only the re-derived root exposes the proposal.
    let out = deliver(&mut net, n0, 1, pre_prepare(&cfg, 0, 0, genesis, &forged));
    assert!(out.is_empty(), "no prepare vote for a forged proposal");
    assert_untouched(&net, 1);

    // The honest proposal, signed identically, runs to commit everywhere.
    for backup in 1..4u32 {
        net.inject(
            n0,
            NodeId(backup),
            pre_prepare(&cfg, 0, 0, genesis, &honest),
        );
    }
    net.run();
    for backup in 1..4u32 {
        assert_eq!(net.replica(backup).committed_count(), 2, "replica {backup}");
        assert_eq!(
            net.replica(backup).ledger().head(),
            fresh_block(&honest, genesis).digest()
        );
    }
}

#[test]
fn a_forged_batch_in_a_new_view_certificate_is_refused() {
    let cfg = test_config(FailureModel::Byzantine, 1, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let genesis = net.replica(2).ledger().head();
    let honest = batch_of([intra_tx(0), intra_tx(1)]);
    let forged = forge(&honest, intra_tx(77));
    let d = honest.digest();
    // A genuine prepared quorum over the digest: the view-0 primary's
    // pre-prepare signature and two prepare votes. Every signature verifies
    // for the forged batch too — it claims the same digest.
    let sigs = sharper_crypto::QuorumCert::from_signatures([
        sign_as(&cfg, 0, &proposal_sign_bytes(0, &genesis, &d)),
        sign_as(&cfg, 1, &vote_sign_bytes(b"prepare", 0, &genesis, &d)),
        sign_as(&cfg, 2, &vote_sign_bytes(b"prepare", 0, &genesis, &d)),
    ]);
    let nv_bytes = vote_sign_bytes(
        b"newview",
        (ClusterId(0).0 as u64) << 32 | 1,
        &Digest::ZERO,
        &Digest::ZERO,
    );
    let new_view = |batch: &Batch| Msg::NewView {
        cluster: ClusterId(0),
        new_view: 1,
        node: NodeId(1),
        certs: vec![PreparedCert {
            view: 0,
            parent: genesis,
            batch: batch.clone(),
            sigs: sigs.clone(),
        }],
        sig: sign_as(&cfg, 1, &nv_bytes),
    };
    let n1 = ActorId::Node(NodeId(1));
    deliver(&mut net, n1, 2, new_view(&forged));
    assert_eq!(net.replica(2).view(), 0, "forged certificate: no install");
    assert!(net.replica(2).newview_certs.is_empty());
    // Control: the same certificate over the honest batch installs.
    deliver(&mut net, n1, 2, new_view(&honest));
    assert_eq!(net.replica(2).view(), 1);
    assert_eq!(net.replica(2).newview_certs[&genesis], (0, d));
}

#[test]
fn a_forged_batch_in_a_cross_shard_propose_or_commit_is_never_appended() {
    let cfg = test_config(FailureModel::Crash, 2, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    // Two members of cluster 1: one sees the propose, one does not.
    let [seen, unseen] = [0, 1].map(|i| cfg.system.members(ClusterId(1)).unwrap()[i].0);
    let genesis = net.replica(seen).ledger().head();
    let honest = batch_of([cross_tx(0, 1), cross_tx(1, 1)]);
    let forged = forge(&honest, cross_tx(77, 1));
    let d = honest.digest();
    let n0 = ActorId::Node(NodeId(0));
    let sig = Signature::unsigned(0);
    let propose = |batch: &Batch| Msg::XPropose {
        initiator: ClusterId(0),
        attempt: 0,
        parent: genesis,
        batch: batch.clone(),
        sig,
    };

    // Forged propose: no accept, no reservation, no round.
    assert!(deliver(&mut net, n0, seen, propose(&forged)).is_empty());
    assert_untouched(&net, seen);
    // The honest proposal is accepted by the same replica.
    let out = deliver(&mut net, n0, seen, propose(&honest));
    assert!(out
        .iter()
        .any(|(_, m)| matches!(m, Msg::XAccept { d: voted, .. } if *voted == d)));

    // A commit smuggling the forgery under the same digest cannot swap the
    // payload — the replica appends the batch it verified. A forged commit
    // reaching a replica with no round appends nothing.
    let parents = Parents::new([(ClusterId(0), genesis), (ClusterId(1), genesis)]).unwrap();
    let commit = |batch: &Batch| Msg::XCommit {
        parents: parents.clone(),
        batch: batch.clone(),
        node: NodeId(0),
        sig,
    };
    let expected = Block::batch(honest.clone(), parents.clone());
    assert!(deliver(&mut net, n0, unseen, commit(&forged)).is_empty());
    assert_untouched(&net, unseen);
    deliver(&mut net, n0, seen, commit(&forged));
    assert_eq!(
        net.replica(seen).ledger().block(expected.digest()),
        Some(&expected)
    );
    assert_eq!(net.replica(seen).stats().committed_cross, 2);
    net.replica(seen).ledger().verify_chain().unwrap();
    assert!(
        net.replica(seen).is_idle(),
        "the commit released the reservation"
    );
    // An honest commit reaching a replica that never saw the propose
    // commits.
    deliver(&mut net, n0, unseen, commit(&honest));
    assert_eq!(net.replica(unseen).ledger().head(), expected.digest());
}

#[test]
fn a_forged_batch_in_a_byzantine_cross_shard_propose_is_never_appended() {
    let cfg = test_config(FailureModel::Byzantine, 2, 1);
    let mut net = TestNet::new(Arc::clone(&cfg));
    let seen = cfg.system.members(ClusterId(1)).unwrap()[0].0;
    let genesis = net.replica(seen).ledger().head();
    let honest = batch_of([cross_tx(0, 1), cross_tx(1, 1)]);
    let forged = forge(&honest, cross_tx(77, 1));
    let d = honest.digest();
    // Signed by the initiator cluster's primary over the claimed digest, so
    // only the root derivation exposes the forgery.
    let propose = |batch: &Batch| Msg::XPropose {
        initiator: ClusterId(0),
        attempt: 0,
        parent: genesis,
        batch: batch.clone(),
        sig: sign_as(&cfg, 0, &proposal_sign_bytes(0, &genesis, &d)),
    };
    let n0 = ActorId::Node(NodeId(0));
    assert!(deliver(&mut net, n0, seen, propose(&forged)).is_empty());
    assert_untouched(&net, seen);

    // The honest proposal is accepted by the same replica ...
    let out = deliver(&mut net, n0, seen, propose(&honest));
    assert!(out
        .iter()
        .any(|(_, m)| matches!(m, Msg::XAccept { d: voted, .. } if *voted == d)));
    // ... and an ordinary Byzantine cross-shard round commits everywhere.
    let mut net = TestNet::new(cfg);
    net.submit(cross_tx(0, 1));
    net.run();
    for node in 0..8u32 {
        assert_eq!(net.replica(node).committed_count(), 1, "replica {node}");
    }
}

#[test]
fn a_commit_naming_another_parent_rechains_without_a_second_derivation() {
    let cfg = test_config(FailureModel::Crash, 1, 1);
    let mut net = TestNet::new(cfg);
    let genesis = net.replica(2).ledger().head();
    let a = batch_of([intra_tx(0)]);
    let b = batch_of([intra_tx(1), intra_tx(2)]);
    let a_at_genesis = fresh_block(&a, genesis).digest();
    let ballot = Ballot::new(0, NodeId(0));
    let n0 = ActorId::Node(NodeId(0));
    let before = root_derivations();
    for (parent, batch) in [(genesis, &a), (a_at_genesis, &b)] {
        let accept = Msg::PaxosAccept {
            ballot,
            parent,
            batch: batch.clone(),
        };
        deliver(&mut net, n0, 2, accept);
    }
    assert_eq!(root_derivations() - before, 2, "one per accepted batch");

    // B is decided right after genesis, not after A where it was accepted:
    // the round's verified batch is re-chained there and appended as is.
    let commit = Msg::PaxosCommit {
        ballot,
        parent: genesis,
        batch: b.clone(),
    };
    deliver(&mut net, n0, 2, commit);
    assert_eq!(root_derivations() - before, 2, "the commit derives nothing");
    let expected = fresh_block(&b, genesis);
    assert_eq!(
        net.replica(2).ledger().block(expected.digest()),
        Some(&expected)
    );
    assert_eq!(net.replica(2).committed_count(), 2);
    net.replica(2).ledger().verify_chain().unwrap();
}

/// Runs `txs` (one batch) to commit and returns how many Merkle roots the
/// whole deployment derived on the way.
fn derivations_to_commit(
    model: FailureModel,
    clusters: usize,
    txs: Vec<Transaction>,
    replicas: std::ops::Range<u32>,
) -> u64 {
    let cfg = test_config_batched(model, clusters, 1, txs.len());
    let mut net = TestNet::new(cfg);
    let expected = txs.len();
    let before = root_derivations();
    for tx in txs {
        net.submit(tx);
    }
    net.run();
    let derived = root_derivations() - before;
    for node in replicas {
        let r = net.replica(node);
        assert_eq!(r.stats().committed_blocks, 1, "{model:?} replica {node}");
        assert_eq!(r.committed_count(), expected, "{model:?} replica {node}");
    }
    audit_views(&net.ledgers()).unwrap();
    derived
}

#[test]
fn each_replica_derives_a_committed_blocks_root_exactly_once() {
    let intra: Vec<Transaction> = (0..4).map(intra_tx).collect();
    let cross: Vec<Transaction> = (0..4).map(|seq| cross_tx(seq, 1)).collect();
    // 4-replica PBFT cluster: the primary seals, three backups check the
    // pre-prepare (was 8: everyone derived again inside `append`).
    assert_eq!(
        derivations_to_commit(FailureModel::Byzantine, 1, intra.clone(), 0..4),
        4
    );
    // 3-replica Paxos cluster: the primary seals, two backups check the
    // accept (was 4).
    assert_eq!(
        derivations_to_commit(FailureModel::Crash, 1, intra, 0..3),
        3
    );
    // Crash cross-shard block over two 3-replica clusters: the initiator
    // primary seals, the other five check the propose (was 7).
    assert_eq!(
        derivations_to_commit(FailureModel::Crash, 2, cross, 0..6),
        6
    );
}
