//! The closed-loop client of the accounting application.
//!
//! The paper's evaluation uses "an increasing number of clients ... until the
//! end-to-end throughput is saturated" (§4). Each client keeps a configurable
//! window of requests outstanding (`max_in_flight`, 1 by default — the
//! paper's one-outstanding-request client): it submits transactions to the
//! primary of the responsible cluster until the window is full, records the
//! end-to-end latency of each reply quorum and refills the window. A window
//! larger than 1 is what lets the primary's batching layer fill blocks.
//! Requests that receive no reply within the retransmission timeout
//! (`sharper_consensus::timeouts::CLIENT_RETRY`) are resubmitted — always to
//! the view-0 primary, since the client does not track views.

use sharper_common::{ClientId, ClusterId, NodeId, TraceKind, TxId};
use sharper_consensus::replica::client_signer_id;
use sharper_consensus::{timeouts, timer_tags, Msg, ReplicaConfig};
use sharper_crypto::Signature;
use sharper_net::{Actor, ActorId, CommitSample, Context, StatsHandle, TimerId};
use sharper_state::{Partitioner, Transaction};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Client behaviour parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClientParams {
    /// How many requests the client keeps in flight. `1` is the paper's
    /// closed-loop client; larger windows feed the primary's batching layer.
    pub max_in_flight: usize,
}

impl Default for ClientParams {
    fn default() -> Self {
        Self { max_in_flight: 1 }
    }
}

/// State of one request currently outstanding at the client.
#[derive(Debug)]
struct Outstanding {
    /// The submitted transaction, shared with the request message so
    /// retransmissions are pointer bumps.
    tx: Arc<Transaction>,
    cross_shard: bool,
    /// The initiator cluster the request was routed to (under the client's
    /// map at submission time) — feeds the per-initiator fairness table.
    initiator: ClusterId,
    submitted_at: sharper_common::SimTime,
    replies: HashSet<NodeId>,
    retry_timer: TimerId,
}

/// A closed-loop client actor with a configurable pipeline depth.
pub struct ClientActor {
    id: ClientId,
    cfg: Arc<ReplicaConfig>,
    params: ClientParams,
    /// The transactions this client will submit, in order.
    script: Box<dyn Iterator<Item = Transaction> + Send>,
    /// In-flight requests keyed by transaction id (BTreeMap for
    /// deterministic iteration).
    outstanding: BTreeMap<TxId, Outstanding>,
    script_exhausted: bool,
    stats: StatsHandle,
    completed: usize,
    retransmissions: usize,
    /// The client's current view of the shard map. Starts at the genesis
    /// map (epoch 0) and advances when a replica answers with a
    /// [`Msg::Redirect`] carrying a newer epoch's overlays.
    pmap: Partitioner,
    map_epoch: u64,
    redirects: usize,
    /// Commits per initiator cluster (the cluster the request was routed
    /// to), for the cross-shard fairness gate.
    completed_by_initiator: BTreeMap<ClusterId, usize>,
}

impl ClientActor {
    /// Creates a client that will submit the transactions yielded by
    /// `script`, keeping up to `params.max_in_flight` of them outstanding.
    pub fn new(
        id: ClientId,
        cfg: Arc<ReplicaConfig>,
        params: ClientParams,
        script: impl Iterator<Item = Transaction> + Send + 'static,
        stats: StatsHandle,
    ) -> Self {
        let pmap = cfg.partitioner.clone();
        Self {
            id,
            cfg,
            params,
            script: Box::new(script),
            outstanding: BTreeMap::new(),
            script_exhausted: false,
            stats,
            completed: 0,
            retransmissions: 0,
            pmap,
            map_epoch: 0,
            redirects: 0,
            completed_by_initiator: BTreeMap::new(),
        }
    }

    /// Number of transactions this client has seen through to commit.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Number of retransmissions this client performed.
    pub fn retransmissions(&self) -> usize {
        self.retransmissions
    }

    /// Number of shard-map redirects this client received. Redirects are
    /// advisory (the stale request is still processed), so they count
    /// neither as retransmissions nor against the in-flight window.
    pub fn redirects(&self) -> usize {
        self.redirects
    }

    /// The shard-map epoch this client currently routes under.
    pub fn map_epoch(&self) -> u64 {
        self.map_epoch
    }

    /// Commits broken down by the initiator cluster each request was routed
    /// to (the cross-shard fairness table's raw data).
    pub fn completed_by_initiator(&self) -> &BTreeMap<ClusterId, usize> {
        &self.completed_by_initiator
    }

    /// The replies a client must collect before accepting the result: one in
    /// the crash model, `f+1` matching replies in the Byzantine model (§3.1).
    fn required_replies(&self, involved: &[ClusterId]) -> usize {
        if !self.cfg.system.failure_model.requires_signatures() {
            return 1;
        }
        let f = involved
            .iter()
            .filter_map(|c| self.cfg.system.cluster(*c).ok())
            .map(|c| c.f)
            .max()
            .unwrap_or(1);
        f + 1
    }

    fn sign(&self, tx: &Transaction) -> Signature {
        if self.cfg.system.failure_model.requires_signatures() {
            self.cfg
                .registry
                .signer(client_signer_id(self.id))
                .expect("client key registered")
                .sign(&tx.canonical_bytes())
        } else {
            Signature::unsigned(client_signer_id(self.id).0)
        }
    }

    /// The replica a request should be sent to: the view-0 primary of the
    /// initiator cluster (super-primary policy for cross-shard transactions),
    /// under the client's current view of the shard map. The client does not
    /// learn views, so after a view change it keeps targeting the old
    /// primary.
    fn target_of(&self, tx: &Transaction) -> (ClusterId, NodeId) {
        let involved = tx.involved_clusters(&self.pmap);
        // Under the any-involved-cluster policy the client nominates the
        // home shard of the transaction's first account (the debited one) as
        // the initiator; the workload spreads homes uniformly, so initiation
        // load spreads across clusters instead of collapsing onto the
        // minimum involved id. Ignored by the super-primary policy.
        let hint = tx
            .operations
            .first()
            .and_then(|op| op.accounts().first().map(|a| self.pmap.shard_of(*a)));
        let cluster = self
            .cfg
            .system
            .initiator_cluster(&involved, hint)
            .expect("transaction touches known clusters");
        let node = self.cfg.system.primary(cluster, 0).expect("cluster exists");
        (cluster, node)
    }

    /// Submits the next scripted transaction, if any.
    fn submit_next(&mut self, ctx: &mut Context<Msg>) {
        let Some(tx) = self.script.next() else {
            self.script_exhausted = true;
            return;
        };
        let tx = Arc::new(tx);
        let involved = tx.involved_clusters(&self.pmap);
        let cross_shard = involved.len() > 1;
        let (initiator, target) = self.target_of(&tx);
        let sig = self.sign(&tx);
        ctx.charge(self.cfg.cost.client());
        self.stats.record_submission();
        ctx.trace(|| TraceKind::ClientSubmit { tx: tx.id });
        let retry_timer = ctx.set_timer(timeouts::CLIENT_RETRY, timer_tags::CLIENT_RETRY);
        self.outstanding.insert(
            tx.id,
            Outstanding {
                tx: Arc::clone(&tx),
                cross_shard,
                initiator,
                submitted_at: ctx.now(),
                replies: HashSet::new(),
                retry_timer,
            },
        );
        ctx.send(
            ActorId::Node(target),
            Msg::Request {
                tx,
                epoch: self.map_epoch,
                sig,
            },
        );
    }

    /// Refills the in-flight window up to `max_in_flight`.
    fn fill_window(&mut self, ctx: &mut Context<Msg>) {
        while !self.script_exhausted && self.outstanding.len() < self.params.max_in_flight.max(1) {
            self.submit_next(ctx);
        }
    }
}

impl Actor<Msg> for ClientActor {
    fn id(&self) -> ActorId {
        ActorId::Client(self.id)
    }

    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.fill_window(ctx);
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<Msg>) {
        // A replica that saw this client route under a stale shard map sends
        // back the current map. The redirect is purely advisory — the stale
        // request was still forwarded and will complete normally — so the
        // outstanding entry, its retry timer and the in-flight window are
        // all left untouched; the new map only changes FUTURE routing. (An
        // earlier draft resubmitted here, which double-charged the window:
        // a redirected request burned a retransmission and, combined with
        // XStatus probes, could wedge a full window behind redirects.)
        if let Msg::Redirect {
            epoch, overlays, ..
        } = &msg
        {
            ctx.charge(self.cfg.cost.client());
            if *epoch > self.map_epoch {
                self.pmap.install_overlays(overlays.clone());
                self.map_epoch = *epoch;
            }
            self.redirects += 1;
            return;
        }
        let Msg::Reply { tx, node, .. } = msg else {
            return;
        };
        ctx.charge(self.cfg.cost.client());
        let Some(outstanding) = self.outstanding.get_mut(&tx) else {
            return;
        };
        outstanding.replies.insert(node);
        let involved = outstanding.tx.involved_clusters(&self.pmap);
        if outstanding.replies.len() < self.required_replies(&involved) {
            return;
        }
        // Committed: record the latency sample and move on.
        let outstanding = self.outstanding.remove(&tx).expect("checked above");
        ctx.cancel_timer(outstanding.retry_timer);
        self.completed += 1;
        *self
            .completed_by_initiator
            .entry(outstanding.initiator)
            .or_default() += 1;
        ctx.trace(|| TraceKind::ClientComplete {
            tx,
            cross: outstanding.cross_shard,
        });
        self.stats.record_commit(CommitSample {
            tx,
            submitted_at: outstanding.submitted_at,
            committed_at: ctx.now(),
            cross_shard: outstanding.cross_shard,
        });
        self.fill_window(ctx);
    }

    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut Context<Msg>) {
        if tag != timer_tags::CLIENT_RETRY {
            return;
        }
        let Some((&id, _)) = self
            .outstanding
            .iter()
            .find(|(_, o)| o.retry_timer == timer)
        else {
            return;
        };
        // No quorum of replies yet: retransmit and arm a fresh timer. The
        // retransmission goes to the view-0 primary like the first
        // transmission (`target_of`), even if that cluster changed view.
        self.retransmissions += 1;
        ctx.trace(|| TraceKind::ClientRetry { tx: id });
        let outstanding = self.outstanding.get_mut(&id).expect("found above");
        let tx = Arc::clone(&outstanding.tx);
        let retry_timer = ctx.set_timer(timeouts::CLIENT_RETRY, timer_tags::CLIENT_RETRY);
        outstanding.retry_timer = retry_timer;
        // Re-route under the client's CURRENT map: the retransmission may go
        // to a different initiator than the original if a redirect advanced
        // the map in the meantime.
        let (initiator, target) = self.target_of(&tx);
        self.outstanding
            .get_mut(&id)
            .expect("found above")
            .initiator = initiator;
        let sig = self.sign(&tx);
        ctx.send(
            ActorId::Node(target),
            Msg::Request {
                tx,
                epoch: self.map_epoch,
                sig,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{AccountId, Duration, FailureModel, SimTime, SystemConfig};
    use sharper_consensus::replica::node_signer_id;
    use sharper_crypto::KeyRegistry;
    use sharper_state::Partitioner;

    fn config(model: FailureModel) -> Arc<ReplicaConfig> {
        let system = SystemConfig::uniform(model, 2, 1).unwrap();
        let signers = system
            .node_ids()
            .map(node_signer_id)
            .chain((0..8).map(|c| client_signer_id(ClientId(c))));
        let (registry, _) = KeyRegistry::generate(3, signers);
        Arc::new(ReplicaConfig::new(
            system,
            Partitioner::range(2, 100),
            registry,
        ))
    }

    fn txs(n: u64) -> impl Iterator<Item = Transaction> + Send {
        (0..n).map(|seq| Transaction::transfer(ClientId(1), seq, AccountId(1), AccountId(2), 1))
    }

    #[test]
    fn client_submits_to_the_primary_of_the_responsible_cluster() {
        let cfg = config(FailureModel::Crash);
        let mut client = ClientActor::new(
            ClientId(1),
            Arc::clone(&cfg),
            ClientParams::default(),
            txs(3),
            StatsHandle::new(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 1);
        // Accounts 1/2 are in shard 0, whose primary (view 0) is node 0.
        assert_eq!(out[0].0, ActorId::Node(NodeId(0)));
        assert!(matches!(out[0].1, Msg::Request { .. }));
    }

    #[test]
    fn crash_client_completes_after_one_reply_and_submits_the_next() {
        let cfg = config(FailureModel::Crash);
        let stats = StatsHandle::new();
        let mut client = ClientActor::new(
            ClientId(1),
            cfg,
            ClientParams::default(),
            txs(2),
            stats.clone(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        ctx.take_outbox();

        let first = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 1);
        let mut ctx = Context::detached(SimTime::from_millis(30), ActorId::Client(ClientId(1)));
        client.on_message(
            ActorId::Node(NodeId(0)),
            Msg::Reply {
                tx: first.id,
                node: NodeId(0),
                applied: true,
            },
            &mut ctx,
        );
        assert_eq!(client.completed(), 1);
        assert_eq!(stats.committed(), 1);
        // The next request went out immediately (closed loop).
        assert!(ctx
            .take_outbox()
            .iter()
            .any(|(_, m)| matches!(m, Msg::Request { .. })));
        let sample = stats.recent_samples()[0];
        assert_eq!(sample.latency(), Duration::from_millis(30));
    }

    #[test]
    fn byzantine_client_waits_for_f_plus_one_matching_replies() {
        let cfg = config(FailureModel::Byzantine);
        let stats = StatsHandle::new();
        let mut client = ClientActor::new(
            ClientId(1),
            cfg,
            ClientParams::default(),
            txs(1),
            stats.clone(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        ctx.take_outbox();

        let tx = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 1);
        let mut ctx = Context::detached(SimTime::from_millis(10), ActorId::Client(ClientId(1)));
        client.on_message(
            ActorId::Node(NodeId(0)),
            Msg::Reply {
                tx: tx.id,
                node: NodeId(0),
                applied: true,
            },
            &mut ctx,
        );
        assert_eq!(client.completed(), 0, "one reply is not enough with f=1");
        client.on_message(
            ActorId::Node(NodeId(1)),
            Msg::Reply {
                tx: tx.id,
                node: NodeId(1),
                applied: true,
            },
            &mut ctx,
        );
        assert_eq!(client.completed(), 1);
        assert_eq!(stats.committed(), 1);
    }

    #[test]
    fn duplicate_replies_from_the_same_node_do_not_count_twice() {
        let cfg = config(FailureModel::Byzantine);
        let mut client = ClientActor::new(
            ClientId(1),
            cfg,
            ClientParams::default(),
            txs(1),
            StatsHandle::new(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        let tx = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 1);
        for _ in 0..3 {
            client.on_message(
                ActorId::Node(NodeId(0)),
                Msg::Reply {
                    tx: tx.id,
                    node: NodeId(0),
                    applied: true,
                },
                &mut ctx,
            );
        }
        assert_eq!(client.completed(), 0);
    }

    #[test]
    fn retry_timer_retransmits_the_outstanding_request() {
        let cfg = config(FailureModel::Crash);
        let mut client = ClientActor::new(
            ClientId(1),
            cfg,
            ClientParams::default(),
            txs(1),
            StatsHandle::new(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        ctx.take_outbox();
        let timers = ctx.take_timers();
        assert_eq!(timers.len(), 1);
        let (timer, _, tag) = timers[0];
        assert_eq!(tag, timer_tags::CLIENT_RETRY);

        let mut ctx = Context::detached(SimTime::from_secs(3), ActorId::Client(ClientId(1)));
        client.on_timer(timer, tag, &mut ctx);
        assert_eq!(client.retransmissions(), 1);
        assert!(ctx
            .take_outbox()
            .iter()
            .any(|(_, m)| matches!(m, Msg::Request { .. })));
    }

    #[test]
    fn client_stops_when_the_script_is_exhausted() {
        let cfg = config(FailureModel::Crash);
        let mut client = ClientActor::new(
            ClientId(1),
            cfg,
            ClientParams::default(),
            txs(1),
            StatsHandle::new(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        ctx.take_outbox();
        let tx = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 1);
        let mut ctx = Context::detached(SimTime::from_millis(5), ActorId::Client(ClientId(1)));
        client.on_message(
            ActorId::Node(NodeId(0)),
            Msg::Reply {
                tx: tx.id,
                node: NodeId(0),
                applied: true,
            },
            &mut ctx,
        );
        assert_eq!(client.completed(), 1);
        assert!(ctx.take_outbox().is_empty(), "no further request");
    }

    #[test]
    fn pipelined_client_keeps_a_window_of_requests_in_flight() {
        let cfg = config(FailureModel::Crash);
        let stats = StatsHandle::new();
        let mut client = ClientActor::new(
            ClientId(1),
            cfg,
            ClientParams { max_in_flight: 4 },
            txs(10),
            stats.clone(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 4, "the window fills on start");
        assert_eq!(ctx.take_timers().len(), 4, "one retry timer per request");

        // One reply frees one slot; exactly one new request goes out.
        let tx = Transaction::transfer(ClientId(1), 2, AccountId(1), AccountId(2), 1);
        let mut ctx = Context::detached(SimTime::from_millis(10), ActorId::Client(ClientId(1)));
        client.on_message(
            ActorId::Node(NodeId(0)),
            Msg::Reply {
                tx: tx.id,
                node: NodeId(0),
                applied: true,
            },
            &mut ctx,
        );
        assert_eq!(client.completed(), 1);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 1, "window refilled by one");
        // Out-of-order replies for still-outstanding requests are accepted.
        let tx0 = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 1);
        client.on_message(
            ActorId::Node(NodeId(0)),
            Msg::Reply {
                tx: tx0.id,
                node: NodeId(0),
                applied: true,
            },
            &mut ctx,
        );
        assert_eq!(client.completed(), 2);
    }

    #[test]
    fn redirect_updates_the_map_without_charging_the_retry_budget() {
        use sharper_state::RangeMove;
        let cfg = config(FailureModel::Crash);
        let mut client = ClientActor::new(
            ClientId(1),
            Arc::clone(&cfg),
            ClientParams::default(),
            txs(2),
            StatsHandle::new(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        ctx.take_outbox();
        assert_eq!(client.map_epoch(), 0);

        // A replica holding a newer map answers the stale request with a
        // redirect carrying the new map's overlays: accounts [0, 50) moved
        // to cluster 1.
        let tx = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 1);
        let mut ctx = Context::detached(SimTime::from_millis(5), ActorId::Client(ClientId(1)));
        client.on_message(
            ActorId::Node(NodeId(0)),
            Msg::Redirect {
                tx: tx.id,
                epoch: 1,
                overlays: vec![RangeMove {
                    start: 0,
                    len: 50,
                    to: ClusterId(1),
                }],
            },
            &mut ctx,
        );
        // The redirect is advisory: the outstanding request stays in flight
        // untouched — it is neither completed, nor retransmitted, nor does
        // it free (or consume) an in-flight window slot.
        assert_eq!(client.redirects(), 1);
        assert_eq!(client.retransmissions(), 0, "redirect is not a retry");
        assert_eq!(client.completed(), 0);
        assert!(ctx.take_outbox().is_empty(), "no resubmission on redirect");
        assert_eq!(client.map_epoch(), 1);

        // The original request still completes normally...
        client.on_message(
            ActorId::Node(NodeId(0)),
            Msg::Reply {
                tx: tx.id,
                node: NodeId(0),
                applied: true,
            },
            &mut ctx,
        );
        assert_eq!(client.completed(), 1);
        // ...and the NEXT submission routes under the new map: accounts 1/2
        // now live on cluster 1, whose primary (view 0) is node 3.
        let out = ctx.take_outbox();
        let (target, msg) = &out[0];
        assert_eq!(*target, ActorId::Node(NodeId(3)));
        let Msg::Request { epoch, .. } = msg else {
            panic!("expected a request");
        };
        assert_eq!(*epoch, 1, "requests carry the client's map epoch");

        // A stale redirect (epoch ≤ current) is counted but changes nothing.
        client.on_message(
            ActorId::Node(NodeId(0)),
            Msg::Redirect {
                tx: tx.id,
                epoch: 0,
                overlays: Vec::new(),
            },
            &mut ctx,
        );
        assert_eq!(client.redirects(), 2);
        assert_eq!(client.map_epoch(), 1);
    }

    #[test]
    fn per_request_retry_timers_only_retransmit_their_own_request() {
        let cfg = config(FailureModel::Crash);
        let mut client = ClientActor::new(
            ClientId(1),
            cfg,
            ClientParams { max_in_flight: 2 },
            txs(2),
            StatsHandle::new(),
        );
        let mut ctx = Context::detached(SimTime::ZERO, ActorId::Client(ClientId(1)));
        client.on_start(&mut ctx);
        ctx.take_outbox();
        let timers = ctx.take_timers();
        assert_eq!(timers.len(), 2);

        let mut ctx = Context::detached(SimTime::from_secs(3), ActorId::Client(ClientId(1)));
        client.on_timer(timers[1].0, timers[1].2, &mut ctx);
        assert_eq!(client.retransmissions(), 1);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 1, "only the timed-out request is retransmitted");
        let Msg::Request { tx, .. } = &out[0].1 else {
            panic!("expected a request");
        };
        assert_eq!(tx.id.seq, 1, "the second request's timer fired");
    }
}
