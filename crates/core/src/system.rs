//! Deployment builder and experiment runner for SharPer.
//!
//! [`SharperSystem`] assembles a full deployment — clusters of replicas,
//! closed-loop clients, the simulated network — runs it for a configured
//! amount of simulated time and returns a [`RunReport`] containing the
//! steady-state throughput/latency summary (the numbers plotted in Figures
//! 6–8), per-replica statistics and the ledger safety audit.

use crate::actor::SharperActor;
use crate::client::{ClientActor, ClientParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sharper_common::{
    AccountId, BatchConfig, ClientId, ClusterId, CostModel, FailureModel, InitiationPolicy,
    LatencyModel, LedgerConfig, NodeId, ReshardConfig, SimConfig, SimTime, StreamingHistogram,
    SystemConfig, ThreadMode, TraceEvent,
};
use sharper_consensus::replica::{client_signer_id, node_signer_id, ReplicaStats};
use sharper_consensus::{Msg, Replica, ReplicaConfig, TimerConfig};
use sharper_crypto::{hash_parts, Digest, KeyRegistry};
use sharper_ledger::{audit_replica_views, AuditReport, LedgerView};
use sharper_net::{FaultPlan, LatencySummary, Simulation, SimulationReport, StatsHandle, Topology};
use sharper_state::{Partitioner, Transaction};
use std::sync::Arc;

/// Parameters of a SharPer deployment.
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// Failure model of all replicas.
    pub failure_model: FailureModel,
    /// Number of clusters (= shards).
    pub clusters: usize,
    /// Fault budget per cluster.
    pub f: usize,
    /// Accounts hosted by each shard.
    pub accounts_per_shard: u64,
    /// Initial balance of every account.
    pub initial_balance: u64,
    /// Cross-shard initiation policy (super primary by default).
    pub initiation_policy: InitiationPolicy,
    /// CPU cost model for the simulation.
    pub cost: CostModel,
    /// Network latency model for the simulation.
    pub latency: LatencyModel,
    /// Protocol timers.
    pub timers: TimerConfig,
    /// Primary-side transaction batching (`max_batch_size = 1` reproduces
    /// the paper's one-transaction blocks).
    pub batch: BatchConfig,
    /// Fault injection plan.
    pub faults: FaultPlan,
    /// Simulator execution strategy (sequential or conservative-parallel
    /// lanes). Never changes results, only wall-clock time.
    pub sim: SimConfig,
    /// Seed for all pseudo-randomness (network jitter, workload).
    pub seed: u64,
    /// Client behaviour.
    pub client: ClientParams,
    /// Length of the warm-up period excluded from the steady-state summary.
    pub warmup: SimTime,
    /// Dynamic resharding policy (disabled by default; crash model only).
    pub reshard: ReshardConfig,
}

impl SystemParams {
    /// Parameters matching the paper's deployments: `clusters` clusters of
    /// the minimum size for fault budget `f`, default models and timers.
    pub fn new(failure_model: FailureModel, clusters: usize, f: usize) -> Self {
        Self {
            failure_model,
            clusters,
            f,
            accounts_per_shard: 10_000,
            initial_balance: 1_000_000,
            initiation_policy: InitiationPolicy::SuperPrimary,
            cost: CostModel::default(),
            latency: LatencyModel::default(),
            timers: TimerConfig::default(),
            batch: BatchConfig::default(),
            faults: FaultPlan::none(),
            sim: SimConfig::default(),
            seed: 42,
            client: ClientParams::default(),
            warmup: SimTime::from_millis(500),
            reshard: ReshardConfig::default(),
        }
    }

    /// Sets the dynamic resharding policy (builder style).
    pub fn with_reshard(mut self, reshard: ReshardConfig) -> Self {
        self.reshard = reshard;
        self
    }

    /// Sets the fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulator threading mode (builder style). Parallel modes
    /// produce bit-identical results to sequential runs — the golden-seed
    /// suite enforces it — so this only trades wall-clock time.
    pub fn with_threads(mut self, threads: ThreadMode) -> Self {
        self.sim.threads = threads;
        self
    }

    /// Sets the initiation policy (builder style).
    pub fn with_initiation_policy(mut self, policy: InitiationPolicy) -> Self {
        self.initiation_policy = policy;
        self
    }

    /// Enables or disables the deterministic trace plane (builder style).
    /// Tracing only observes — it charges no simulated cost and draws no
    /// randomness — so toggling it never changes results; the golden-seed
    /// suite enforces it.
    pub fn with_tracing(mut self, trace: bool) -> Self {
        self.sim.trace = trace;
        self
    }

    /// Sets the batching policy and sizes the clients' in-flight window to
    /// match, so batches actually fill (builder style).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self.client.max_in_flight = self.client.max_in_flight.max(batch.max_batch_size);
        self
    }

    /// Sets the executor (state-partitioning) configuration (builder style).
    /// Like the thread mode, this is a `SimConfig` knob: every executor mode
    /// produces bit-identical results — the golden-seed suite enforces it —
    /// so it only models the apply-path parallelism.
    pub fn with_executor(mut self, exec: sharper_common::ExecutorConfig) -> Self {
        self.sim.exec = exec;
        self
    }

    /// Sets the ledger retention configuration (builder style). Like the
    /// thread mode, this is a `SimConfig` knob: truncating configurations
    /// produce bit-identical results to retain-all runs — the golden-seed
    /// suite enforces it — so this only bounds retained memory.
    pub fn with_ledger(mut self, ledger: LedgerConfig) -> Self {
        self.sim.ledger = ledger;
        self
    }

    /// Builds the shared replica configuration for these parameters.
    pub fn replica_config(&self, num_clients: usize) -> Arc<ReplicaConfig> {
        let system = SystemConfig::uniform(self.failure_model, self.clusters, self.f)
            .expect("valid uniform configuration")
            .with_initiation_policy(self.initiation_policy);
        let signers = system
            .node_ids()
            .map(node_signer_id)
            .chain((0..num_clients as u64).map(|c| client_signer_id(ClientId(c))))
            .collect::<Vec<_>>();
        let (registry, _) = KeyRegistry::generate(self.seed, signers);
        let partitioner = Partitioner::range(self.clusters as u32, self.accounts_per_shard);
        Arc::new(ReplicaConfig {
            cost: self.cost,
            timers: self.timers,
            batch: self.batch,
            exec: self.sim.exec,
            ledger: self.sim.ledger,
            reshard: self.reshard.clone(),
            ..ReplicaConfig::new(system, partitioner, registry)
        })
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Steady-state throughput/latency summary over the measurement window.
    pub summary: LatencySummary,
    /// Ledger safety audit over every replica's view.
    pub audit: AuditReport,
    /// The simulator's own counters (delivered/dropped messages, ...).
    pub simulation: SimulationReport,
    /// Per-replica protocol statistics.
    pub replica_stats: Vec<(NodeId, ReplicaStats)>,
    /// Total transactions completed by the clients.
    pub client_completed: usize,
    /// Total client retransmissions (an indicator of stalls/faults).
    pub retransmissions: usize,
    /// Total shard-map redirects received by the clients (stale-epoch
    /// routing; advisory, never counted as retransmissions).
    pub client_redirects: usize,
    /// Client completions broken down by the initiator cluster each request
    /// was routed to — the cross-shard fairness table.
    pub completed_by_initiator: std::collections::BTreeMap<ClusterId, usize>,
    /// Total reshard handovers applied across all replicas (counted per
    /// replica, so `clusters × cluster_size × moves` for a clean run).
    pub reshards_applied: usize,
}

impl RunReport {
    /// Max/min ratio of per-initiator-cluster completions, the fairness
    /// gate's metric. `None` with fewer than two initiator clusters;
    /// `+inf` when some cluster initiated commits and another initiated
    /// none.
    pub fn initiator_spread(&self) -> Option<f64> {
        if self.completed_by_initiator.len() < 2 {
            return None;
        }
        let max = self.completed_by_initiator.values().copied().max()? as f64;
        let min = self.completed_by_initiator.values().copied().min()? as f64;
        if min == 0.0 {
            return Some(f64::INFINITY);
        }
        Some(max / min)
    }
}

/// A fully assembled SharPer deployment ready to run.
pub struct SharperSystem {
    params: SystemParams,
    cfg: Arc<ReplicaConfig>,
    sim: Simulation<Msg, SharperActor>,
    stats: StatsHandle,
}

impl SharperSystem {
    /// Builds a deployment with `num_clients` closed-loop clients whose
    /// workloads are produced by `workload_for` (one script per client).
    pub fn build<W, I>(params: SystemParams, num_clients: usize, mut workload_for: W) -> Self
    where
        W: FnMut(ClientId) -> I,
        I: Iterator<Item = Transaction> + Send + 'static,
    {
        let cfg = params.replica_config(num_clients);
        let mut topology = Topology::from_config(&cfg.system);
        let stats = StatsHandle::with_warmup(params.warmup);

        let mut sim: Simulation<Msg, SharperActor> = {
            // Register client homes round-robin across clusters ("the load is
            // equally distributed among all the nodes", §4).
            for c in 0..num_clients {
                topology.add_client(ClientId(c as u64), ClusterId((c % params.clusters) as u32));
            }
            Simulation::new(topology, params.latency, params.faults.clone(), params.seed)
                .with_threads(params.sim.threads)
                .with_tracing(params.sim.trace)
        };

        for node in cfg.system.node_ids() {
            sim.add_actor(SharperActor::Replica(Replica::with_genesis(
                node,
                Arc::clone(&cfg),
                params.accounts_per_shard,
                params.initial_balance,
            )));
        }
        for c in 0..num_clients {
            let client = ClientId(c as u64);
            sim.add_actor(SharperActor::Client(ClientActor::new(
                client,
                Arc::clone(&cfg),
                params.client,
                workload_for(client),
                stats.clone(),
            )));
        }
        Self {
            params,
            cfg,
            sim,
            stats,
        }
    }

    /// The shared replica configuration of this deployment.
    pub fn config(&self) -> &Arc<ReplicaConfig> {
        &self.cfg
    }

    /// Runs the deployment for `duration` of simulated time and reports the
    /// steady-state results.
    pub fn run(&mut self, duration: SimTime) -> RunReport {
        self.stats.begin_measurement(duration);
        let mut report = self.sim.run_until(duration);
        let window = duration.saturating_since(self.params.warmup);
        let summary = self.stats.summarize(self.params.warmup, window);

        // The audit reads every replica's view where it lives.
        let mut views: Vec<(ClusterId, &LedgerView)> = Vec::new();
        let mut replica_stats = Vec::new();
        let mut client_completed = 0usize;
        let mut retransmissions = 0usize;
        let mut client_redirects = 0usize;
        let mut reshards_applied = 0usize;
        let mut completed_by_initiator: std::collections::BTreeMap<ClusterId, usize> =
            std::collections::BTreeMap::new();
        let mut waits = StreamingHistogram::new();
        for actor in self.sim.actors() {
            match actor {
                SharperActor::Replica(r) => {
                    views.push((r.cluster(), r.ledger()));
                    replica_stats.push((r.node(), r.stats()));
                    // Mempool ingestion metrics: sums / maxima over replicas,
                    // wait percentiles over the merged per-replica histograms
                    // (bounded memory regardless of run length). Per-replica
                    // values are deterministic and the merge is commutative,
                    // so these are thread-mode and executor-mode independent
                    // like every other report field.
                    let m = r.mempool().metrics();
                    report.mempool_admitted += m.admitted;
                    report.mempool_evicted += m.evicted;
                    report.mempool_peak_depth = report.mempool_peak_depth.max(m.peak_depth);
                    waits.merge(r.mempool().wait_histogram());
                    reshards_applied += r.stats().reshards_applied;
                }
                SharperActor::Client(c) => {
                    client_completed += c.completed();
                    retransmissions += c.retransmissions();
                    client_redirects += c.redirects();
                    for (&cluster, &n) in c.completed_by_initiator() {
                        *completed_by_initiator.entry(cluster).or_default() += n;
                    }
                }
            }
        }
        report.mempool_wait_p50_us = waits.percentile(50);
        report.mempool_wait_p95_us = waits.percentile(95);
        report.mempool_wait_p99_us = waits.percentile(99);
        let audit = audit_replica_views(&views).expect("ledger safety audit must pass");
        RunReport {
            summary,
            audit,
            simulation: report,
            replica_stats,
            client_completed,
            retransmissions,
            client_redirects,
            completed_by_initiator,
            reshards_applied,
        }
    }

    /// Read access to a replica after (or before) a run.
    pub fn replica(&self, node: NodeId) -> Option<&Replica> {
        self.sim.actor(node).and_then(SharperActor::as_replica)
    }

    /// A digest over every replica's entire ledger view: cluster, node, hash
    /// chain head and length of each view, folded in ascending node order.
    /// Any divergence in commit order anywhere in the deployment changes this
    /// value, which makes it the oracle of the golden-seed determinism suite
    /// and of the CI gate comparing sequential against parallel runs.
    pub fn ledger_digest(&self) -> Digest {
        let mut parts: Vec<Vec<u8>> = Vec::new();
        for actor in self.sim.actors() {
            if let SharperActor::Replica(r) = actor {
                parts.push(r.cluster().0.to_le_bytes().to_vec());
                parts.push(r.node().0.to_le_bytes().to_vec());
                parts.push(r.ledger().head().as_bytes().to_vec());
                parts.push((r.ledger().len() as u64).to_le_bytes().to_vec());
            }
        }
        let slices: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        hash_parts(&slices)
    }

    /// Sums `(retained, logical)` block counts over every replica's ledger
    /// view. With truncation on, `retained` stays bounded while `logical`
    /// keeps growing — the fig8xl scaling sweep reports both per curve point.
    pub fn ledger_footprint(&self) -> (usize, usize) {
        let mut retained = 0usize;
        let mut logical = 0usize;
        for actor in self.sim.actors() {
            if let SharperActor::Replica(r) = actor {
                retained += r.ledger().retained_blocks();
                logical += r.ledger().len();
            }
        }
        (retained, logical)
    }

    /// Read access to a client after (or before) a run.
    pub fn client(&self, client: ClientId) -> Option<&ClientActor> {
        self.sim.actor(client).and_then(SharperActor::as_client)
    }

    /// The statistics handle shared with the clients.
    pub fn stats(&self) -> &StatsHandle {
        &self.stats
    }

    /// Drains the trace events recorded so far (empty unless the deployment
    /// was built with [`SystemParams::with_tracing`]), in the canonical
    /// `(sim_time, actor_rank, actor_seq)` order — identical across all
    /// threading modes.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sim.take_trace()
    }
}

/// The evaluation workload: transfers between accounts of the accounting
/// application with a configurable fraction of cross-shard transactions,
/// each cross-shard transaction touching two (randomly chosen) shards (§4).
///
/// `client` seeds the generator so different clients submit different
/// transactions; accounts are drawn uniformly from each shard.
pub fn simple_workload(
    client: ClientId,
    clusters: usize,
    transactions: u64,
    cross_shard_ratio: f64,
) -> impl Iterator<Item = Transaction> + Send {
    workload_with(client, clusters, 10_000, transactions, cross_shard_ratio, 2)
}

/// Like [`simple_workload`] but with every knob exposed: number of accounts
/// per shard, number of shards each cross-shard transaction touches.
pub fn workload_with(
    client: ClientId,
    clusters: usize,
    accounts_per_shard: u64,
    transactions: u64,
    cross_shard_ratio: f64,
    shards_per_cross_tx: usize,
) -> impl Iterator<Item = Transaction> + Send {
    assert!((0.0..=1.0).contains(&cross_shard_ratio));
    assert!(clusters >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(0x5AA5_0000 ^ client.0);
    let partitioner = Partitioner::range(clusters as u32, accounts_per_shard);
    // The client owns one account per shard (account index = client id), so
    // every debit it issues passes the ownership check.
    let owned: Vec<AccountId> = (0..clusters as u32)
        .map(|shard| {
            partitioner
                .account_in_shard(ClusterId(shard), client.0 % accounts_per_shard)
                .expect("account index within shard")
        })
        .collect();
    (0..transactions).map(move |seq| {
        let cross = clusters > 1 && rng.gen_bool(cross_shard_ratio);
        let home_shard = rng.gen_range(0..clusters as u32);
        let from = owned[home_shard as usize];
        if cross {
            let involved = shards_per_cross_tx.min(clusters).max(2);
            let mut ops = Vec::with_capacity(involved - 1);
            let mut other = home_shard;
            for _ in 0..involved - 1 {
                // Pick a distinct shard for each additional leg.
                loop {
                    let candidate = rng.gen_range(0..clusters as u32);
                    if candidate != home_shard && candidate != other {
                        other = candidate;
                        break;
                    }
                }
                let to = partitioner
                    .account_in_shard(ClusterId(other), rng.gen_range(0..accounts_per_shard))
                    .expect("account index within shard");
                ops.push(sharper_state::Operation::Transfer {
                    from,
                    to,
                    amount: 1,
                });
            }
            Transaction::new(sharper_common::TxId::new(client, seq), ops)
        } else {
            let to = partitioner
                .account_in_shard(ClusterId(home_shard), rng.gen_range(0..accounts_per_shard))
                .expect("account index within shard");
            Transaction::transfer(client, seq, from, to, 1)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_respects_cross_shard_ratio_and_ownership() {
        let p = Partitioner::range(4, 10_000);
        let txs: Vec<Transaction> = workload_with(ClientId(3), 4, 10_000, 2_000, 0.2, 2).collect();
        assert_eq!(txs.len(), 2_000);
        let cross = txs.iter().filter(|t| t.is_cross_shard(&p)).count();
        let ratio = cross as f64 / txs.len() as f64;
        assert!((0.15..=0.25).contains(&ratio), "observed ratio {ratio}");
        // Every debit account index equals the client id, so ownership holds.
        for tx in &txs {
            for op in &tx.operations {
                if let sharper_state::Operation::Transfer { from, .. } = op {
                    assert_eq!(from.0 % 10_000, 3);
                }
            }
        }
    }

    #[test]
    fn workload_extremes_are_all_intra_or_all_cross() {
        let p = Partitioner::range(4, 10_000);
        let all_intra: Vec<Transaction> =
            workload_with(ClientId(1), 4, 10_000, 200, 0.0, 2).collect();
        assert!(all_intra.iter().all(|t| !t.is_cross_shard(&p)));
        let all_cross: Vec<Transaction> =
            workload_with(ClientId(1), 4, 10_000, 200, 1.0, 2).collect();
        assert!(all_cross.iter().all(|t| t.is_cross_shard(&p)));
        // Cross-shard transactions touch exactly two shards.
        assert!(all_cross.iter().all(|t| t.involved_clusters(&p).len() == 2));
    }

    #[test]
    fn single_cluster_workload_never_produces_cross_shard() {
        let p = Partitioner::range(1, 10_000);
        let txs: Vec<Transaction> = workload_with(ClientId(1), 1, 10_000, 100, 0.9, 2).collect();
        assert!(txs.iter().all(|t| !t.is_cross_shard(&p)));
    }

    #[test]
    fn end_to_end_crash_deployment_commits_transactions() {
        let mut params = SystemParams::new(FailureModel::Crash, 2, 1);
        params.accounts_per_shard = 1_000;
        params.warmup = SimTime::from_millis(100);
        let mut system = SharperSystem::build(params, 4, |client| {
            workload_with(client, 2, 1_000, 200, 0.2, 2)
        });
        let report = system.run(SimTime::from_secs(3));
        assert!(
            report.client_completed > 50,
            "completed {}",
            report.client_completed
        );
        assert!(report.summary.throughput_tps > 0.0);
        assert!(report.audit.distinct_transactions > 0);
        assert_eq!(report.retransmissions, 0);
    }

    #[test]
    fn end_to_end_byzantine_deployment_commits_transactions() {
        let mut params = SystemParams::new(FailureModel::Byzantine, 2, 1);
        params.accounts_per_shard = 1_000;
        params.warmup = SimTime::from_millis(100);
        let mut system = SharperSystem::build(params, 4, |client| {
            workload_with(client, 2, 1_000, 200, 0.2, 2)
        });
        let report = system.run(SimTime::from_secs(3));
        assert!(
            report.client_completed > 20,
            "completed {}",
            report.client_completed
        );
        assert!(report.audit.cross_shard_transactions > 0);
    }

    #[test]
    fn batched_deployment_amortises_rounds_and_passes_audit() {
        let mut params = SystemParams::new(FailureModel::Crash, 2, 1)
            .with_batching(sharper_common::BatchConfig::with_size(8));
        params.accounts_per_shard = 1_000;
        params.warmup = SimTime::from_millis(100);
        let mut system = SharperSystem::build(params, 4, |client| {
            workload_with(client, 2, 1_000, 400, 0.1, 2)
        });
        let report = system.run(SimTime::from_secs(3));
        assert!(
            report.client_completed > 50,
            "completed {}",
            report.client_completed
        );
        // Batching must actually group transactions: fewer blocks than txs.
        let (blocks, txs): (usize, usize) = report
            .replica_stats
            .iter()
            .map(|(_, s)| (s.committed_blocks, s.committed_intra + s.committed_cross))
            .fold((0, 0), |(b, t), (bb, tt)| (b + bb, t + tt));
        assert!(blocks > 0);
        assert!(
            txs >= 2 * blocks,
            "batches stayed singletons: {txs} txs in {blocks} blocks"
        );
        assert_eq!(report.retransmissions, 0);
    }

    #[test]
    fn parallel_deployment_is_bit_identical_to_sequential() {
        let run = |threads: ThreadMode| {
            let mut params = SystemParams::new(FailureModel::Crash, 3, 1).with_threads(threads);
            params.accounts_per_shard = 1_000;
            params.warmup = SimTime::from_millis(100);
            let mut system = SharperSystem::build(params, 6, |client| {
                workload_with(client, 3, 1_000, 300, 0.3, 2)
            });
            let report = system.run(SimTime::from_secs(2));
            (
                report.simulation,
                report.client_completed,
                report.retransmissions,
                report.audit.distinct_transactions,
            )
        };
        let sequential = run(ThreadMode::Sequential);
        assert!(sequential.1 > 50, "completed {}", sequential.1);
        assert_eq!(sequential, run(ThreadMode::PerCluster));
        assert_eq!(sequential, run(ThreadMode::Fixed(2)));
    }

    #[test]
    fn traces_are_bit_identical_across_thread_modes() {
        let run = |threads: ThreadMode| {
            let mut params = SystemParams::new(FailureModel::Crash, 3, 1)
                .with_threads(threads)
                .with_tracing(true);
            params.accounts_per_shard = 1_000;
            params.warmup = SimTime::from_millis(100);
            let mut system = SharperSystem::build(params, 6, |client| {
                workload_with(client, 3, 1_000, 300, 0.3, 2)
            });
            system.run(SimTime::from_secs(2));
            (system.take_trace(), system.ledger_digest())
        };
        let (seq_trace, seq_digest) = run(ThreadMode::Sequential);
        assert!(!seq_trace.is_empty(), "a traced run records events");
        let (par_trace, par_digest) = run(ThreadMode::PerCluster);
        let (fix_trace, fix_digest) = run(ThreadMode::Fixed(2));
        assert_eq!(seq_digest, par_digest);
        assert_eq!(seq_digest, fix_digest);
        // The whole event streams — and their serialized bytes — match.
        assert_eq!(seq_trace, par_trace);
        assert_eq!(seq_trace, fix_trace);
        assert_eq!(
            sharper_common::trace_to_jsonl(&seq_trace),
            sharper_common::trace_to_jsonl(&par_trace)
        );
    }

    #[test]
    fn tracing_never_changes_results() {
        let run = |trace: bool| {
            let mut params = SystemParams::new(FailureModel::Crash, 2, 1).with_tracing(trace);
            params.accounts_per_shard = 1_000;
            params.warmup = SimTime::from_millis(100);
            let mut system = SharperSystem::build(params, 4, |client| {
                workload_with(client, 2, 1_000, 200, 0.2, 2)
            });
            let report = system.run(SimTime::from_secs(2));
            let trace_len = system.take_trace().len();
            (
                system.ledger_digest(),
                report.simulation,
                report.client_completed,
                trace_len,
            )
        };
        let (digest_off, sim_off, completed_off, trace_off) = run(false);
        let (digest_on, sim_on, completed_on, trace_on) = run(true);
        assert_eq!(trace_off, 0, "disabled tracing records nothing");
        assert!(trace_on > 0);
        // Everything the golden-seed suite pins is identical either way.
        assert_eq!(digest_off, digest_on);
        assert_eq!(sim_off, sim_on);
        assert_eq!(completed_off, completed_on);
    }

    fn forced_split_merge(split_ms: u64, merge_ms: u64) -> ReshardConfig {
        ReshardConfig::forced_only(vec![
            sharper_common::ForcedMove {
                at: sharper_common::Duration::from_millis(split_ms),
                start: 0,
                len: 250,
                to: 1,
            },
            sharper_common::ForcedMove {
                at: sharper_common::Duration::from_millis(merge_ms),
                start: 0,
                len: 250,
                to: 0,
            },
        ])
    }

    #[test]
    fn forced_reshard_split_and_merge_commit_and_audit() {
        let mut params = SystemParams::new(FailureModel::Crash, 2, 1)
            .with_reshard(forced_split_merge(600, 1_400));
        params.accounts_per_shard = 1_000;
        params.warmup = SimTime::from_millis(100);
        let mut system = SharperSystem::build(params, 4, |client| {
            workload_with(client, 2, 1_000, 400, 0.1, 2)
        });
        let report = system.run(SimTime::from_secs(4));
        assert!(
            report.client_completed > 100,
            "completed {}",
            report.client_completed
        );
        // Both moves committed on both clusters: every replica applied the
        // split and the merge handover.
        assert_eq!(report.reshards_applied, 12, "6 replicas × 2 handovers");
        for node in system.config().system.node_ids() {
            let r = system.replica(node).expect("replica exists");
            assert_eq!(r.map_epoch(), 2, "replica {node} converged to epoch 2");
            // The merge returned the range to its genesis owner, removing
            // the overlay entirely — the map is exactly the genesis map.
            assert!(r.shard_map().overlays().is_empty());
        }
        // The handover blocks pass the same audit as every other block.
        assert!(report.audit.distinct_transactions > 0);
    }

    #[test]
    fn reshard_runs_are_bit_identical_across_thread_modes() {
        let run = |threads: ThreadMode| {
            let mut params = SystemParams::new(FailureModel::Crash, 3, 1)
                .with_threads(threads)
                .with_reshard(forced_split_merge(500, 1_200));
            params.accounts_per_shard = 1_000;
            params.warmup = SimTime::from_millis(100);
            let mut system = SharperSystem::build(params, 6, |client| {
                workload_with(client, 3, 1_000, 300, 0.3, 2)
            });
            let report = system.run(SimTime::from_secs(3));
            (
                system.ledger_digest(),
                report.reshards_applied,
                report.client_completed,
                report.client_redirects,
            )
        };
        let sequential = run(ThreadMode::Sequential);
        assert!(sequential.1 > 0, "reshards actually ran");
        assert_eq!(sequential, run(ThreadMode::PerCluster));
        assert_eq!(sequential, run(ThreadMode::Fixed(2)));
    }

    #[test]
    fn split_then_merge_restores_pre_split_state_across_checkpoint_intervals() {
        // The moves are scheduled after the finite workload has drained, so
        // the reshard run commits exactly the same client transactions as
        // the control run — the handover round-trip must then restore the
        // exact pre-split application state on every replica, regardless of
        // ledger truncation cadence.
        let balances = |reshard: Option<ReshardConfig>, checkpoint: usize| {
            let mut params = SystemParams::new(FailureModel::Crash, 2, 1);
            if let Some(r) = reshard {
                params = params.with_reshard(r);
            }
            if checkpoint > 0 {
                params = params.with_ledger(LedgerConfig::checkpointed(checkpoint, 8));
            }
            params.accounts_per_shard = 1_000;
            params.warmup = SimTime::from_millis(100);
            let mut system = SharperSystem::build(params, 4, |client| {
                workload_with(client, 2, 1_000, 150, 0.2, 2)
            });
            let report = system.run(SimTime::from_secs(6));
            assert_eq!(
                report.retransmissions, 0,
                "workload must drain before the moves"
            );
            let mut state = Vec::new();
            for node in system.config().system.node_ids() {
                let r = system.replica(node).expect("replica exists");
                let mut accounts: Vec<(AccountId, sharper_state::Account)> =
                    r.store().iter().map(|(id, acct)| (*id, *acct)).collect();
                accounts.sort_by_key(|(id, _)| *id);
                state.push((node, accounts));
            }
            state
        };
        let control = balances(None, 0);
        for checkpoint in [1usize, 8, 64] {
            let resharded = balances(Some(forced_split_merge(3_000, 4_000)), checkpoint);
            assert_eq!(
                control, resharded,
                "state differs after split+merge (checkpoint_interval={checkpoint})"
            );
        }
    }

    #[test]
    fn full_cross_shard_load_is_fair_across_initiator_clusters() {
        // 100% cross-shard load with clients homed on every cluster. Under
        // the old fixed cluster-id priority order, high-numbered initiators
        // lost every conflict and fixed seeds starved them ~5×; with the
        // digest-keyed rotation plus retry jitter the per-initiator spread
        // stays within the fairness gate's 1.5× bound.
        let mut params = SystemParams::new(FailureModel::Crash, 3, 1)
            .with_initiation_policy(InitiationPolicy::AnyInvolvedCluster);
        params.accounts_per_shard = 1_000;
        params.warmup = SimTime::from_millis(200);
        let mut system = SharperSystem::build(params, 6, |client| {
            workload_with(client, 3, 1_000, 2_000, 1.0, 2)
        });
        let report = system.run(SimTime::from_secs(5));
        assert!(
            report.client_completed > 100,
            "completed {}",
            report.client_completed
        );
        assert_eq!(
            report.completed_by_initiator.len(),
            3,
            "every cluster initiates: {:?}",
            report.completed_by_initiator
        );
        let spread = report.initiator_spread().expect("three initiator clusters");
        assert!(
            spread <= 1.5,
            "initiator spread {spread:.2} exceeds the fairness bound: {:?}",
            report.completed_by_initiator
        );
    }

    #[test]
    fn deployment_accessors_expose_replicas_and_clients() {
        let params = SystemParams::new(FailureModel::Crash, 2, 1);
        let system = SharperSystem::build(params, 2, |client| {
            workload_with(client, 2, 10_000, 10, 0.0, 2)
        });
        assert!(system.replica(NodeId(0)).is_some());
        assert!(system.replica(NodeId(99)).is_none());
        assert!(system.client(ClientId(1)).is_some());
        assert_eq!(system.config().system.cluster_count(), 2);
    }
}
