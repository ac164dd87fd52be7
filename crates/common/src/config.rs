//! System configuration: failure model, cluster formation and quorum sizes.
//!
//! SharPer (§2.2) partitions `N` nodes into clusters of exactly `2f + 1`
//! crash-only or `3f + 1` Byzantine nodes and assigns one data shard per
//! cluster. This module captures that partitioning, the derived quorum sizes
//! used by the intra-shard and cross-shard protocols (§3), and the
//! group-aware clustering optimisation of §3.4.

use crate::error::{Error, Result};
use crate::ids::{ClusterId, NodeId};
use crate::time::Duration;
use std::collections::BTreeMap;
use std::fmt;

/// How a primary groups client transactions into blocks.
///
/// The paper's base protocol puts a single transaction in every block
/// (§2.3), which caps throughput at the consensus round rate. The batching
/// layer lets the primary accumulate up to [`max_batch_size`] pending
/// requests and order them as one Merkle-committed block per round.
///
/// `max_batch_size = 1` preserves the paper's per-round semantics exactly:
/// every request is proposed the moment it arrives and no batch timer is
/// ever armed.
///
/// [`max_batch_size`]: BatchConfig::max_batch_size
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum number of transactions per block. A full queue is flushed
    /// immediately; `1` disables batching.
    pub max_batch_size: usize,
    /// How long a partially filled batch may wait for more transactions
    /// before the primary proposes it anyway. Irrelevant when
    /// `max_batch_size` is `1` (batches are always "full").
    pub batch_timeout: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch_size: 1,
            batch_timeout: Duration::from_millis(2),
        }
    }
}

impl BatchConfig {
    /// A batching configuration with the given batch size and the default
    /// timeout.
    pub fn with_size(max_batch_size: usize) -> Self {
        Self {
            max_batch_size: max_batch_size.max(1),
            ..Self::default()
        }
    }
}

/// How many worker threads the discrete-event simulator uses.
///
/// SharPer's clusters only interact through cross-cluster links with a
/// known minimum latency, so the simulator can run one worker per cluster
/// as a *conservative parallel* discrete-event simulation (lookahead = the
/// minimum cross-lane link latency) and still produce results that are
/// bit-identical to a sequential run. The mode only selects the execution
/// strategy — never the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThreadMode {
    /// One worker processes every event in global timestamp order.
    #[default]
    Sequential,
    /// One worker per cluster (clients run on their home cluster's worker).
    PerCluster,
    /// A fixed number of workers; clusters are assigned round-robin.
    /// `Fixed(0)` and `Fixed(1)` behave like [`ThreadMode::Sequential`].
    Fixed(usize),
}

impl ThreadMode {
    /// Parses a command-line value: `seq`/`sequential`/`0`/`1` → sequential,
    /// `per-cluster`/`percluster` → one worker per cluster, `N` → fixed.
    pub fn parse(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "seq" | "sequential" => Ok(ThreadMode::Sequential),
            "per-cluster" | "percluster" => Ok(ThreadMode::PerCluster),
            other => match other.parse::<usize>() {
                Ok(0) | Ok(1) => Ok(ThreadMode::Sequential),
                Ok(n) => Ok(ThreadMode::Fixed(n)),
                Err(_) => Err(Error::InvalidConfig(format!(
                    "invalid thread mode {s:?}: expected `sequential`, `per-cluster` or a count"
                ))),
            },
        }
    }

    /// Whether this mode may run more than one worker.
    pub fn is_parallel(self) -> bool {
        !matches!(self, ThreadMode::Sequential | ThreadMode::Fixed(0 | 1))
    }
}

impl fmt::Display for ThreadMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadMode::Sequential => write!(f, "sequential"),
            ThreadMode::PerCluster => write!(f, "per-cluster"),
            ThreadMode::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// How each replica executes committed batches against its application state.
///
/// `partitions` splits the shard's account store into that many account-range
/// partitions behind a `PartitionedStore`; the executor scheduler then runs
/// sub-batches touching disjoint partitions on up to `exec_threads` workers.
/// Like every other [`SimConfig`] knob, this must never change results:
/// partitioned-parallel apply is required to be bit-identical to serial apply
/// (outcomes, replies, ledger digest), which the golden-digest gate enforces.
/// `partitions = 1` reproduces the seed's serial executor exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecutorConfig {
    /// Number of account-range partitions per shard (`1` = serial apply).
    pub partitions: usize,
    /// Number of worker threads the partitioned executor may use.
    /// `0` and `1` run the partitioned schedule on the calling thread.
    pub exec_threads: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            partitions: 1,
            exec_threads: 1,
        }
    }
}

impl ExecutorConfig {
    /// A partitioned executor configuration.
    pub fn partitioned(partitions: usize, exec_threads: usize) -> Self {
        Self {
            partitions: partitions.max(1),
            exec_threads: exec_threads.max(1),
        }
    }

    /// Whether committed batches run through the partitioned scheduler.
    pub fn is_partitioned(&self) -> bool {
        self.partitions > 1
    }
}

/// How each replica's ledger view retains committed history.
///
/// With the default (`checkpoint_interval = 0`) a view keeps every block
/// forever, reproducing the seed exactly. With checkpointing enabled, blocks
/// whose integrity has been re-verified (the incremental audit) are folded
/// into a rolling digest chain and pruned, keeping only the most recent
/// `retain_blocks` blocks resident. Like every other [`SimConfig`] knob this
/// must never change simulated results: pruning is a pure function of chain
/// length, every consensus-visible query answers identically before and after
/// truncation, and `ledger_digest()` stays bit-identical to the unpruned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LedgerConfig {
    /// Fold-and-prune cadence, in blocks beyond `retain_blocks` that may
    /// accumulate before the next truncation. `0` disables truncation
    /// entirely (retain everything — the default).
    pub checkpoint_interval: usize,
    /// Number of recent blocks kept resident once truncation is enabled.
    /// The head block is always retained regardless of this value.
    pub retain_blocks: usize,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self::retain_all()
    }
}

impl LedgerConfig {
    /// Retain the full chain (the seed's behaviour).
    pub fn retain_all() -> Self {
        Self {
            checkpoint_interval: 0,
            retain_blocks: usize::MAX,
        }
    }

    /// A truncating configuration: audit + prune every `checkpoint_interval`
    /// blocks past the `retain_blocks` resident window.
    pub fn checkpointed(checkpoint_interval: usize, retain_blocks: usize) -> Self {
        Self {
            checkpoint_interval: checkpoint_interval.max(1),
            retain_blocks: retain_blocks.max(1),
        }
    }

    /// Whether truncation is enabled at all.
    pub fn is_truncating(&self) -> bool {
        self.checkpoint_interval > 0
    }
}

/// Simulator execution configuration (independent of the modelled system:
/// none of these knobs may change simulation results, only how fast the
/// simulator produces them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimConfig {
    /// Worker threading mode of the discrete-event engine.
    pub threads: ThreadMode,
    /// How replicas execute committed batches (serial or partitioned).
    pub exec: ExecutorConfig,
    /// How replica ledger views retain committed history (bounded-memory
    /// truncation behind the audit watermark, or the default retain-all).
    pub ledger: LedgerConfig,
    /// Whether the deterministic trace plane records events. Tracing only
    /// observes — it charges no cost, sends nothing and draws no randomness —
    /// so toggling it never changes results (see `sharper_common::obs`).
    pub trace: bool,
}

impl SimConfig {
    /// A configuration running one worker per cluster.
    pub fn per_cluster() -> Self {
        Self {
            threads: ThreadMode::PerCluster,
            ..Self::default()
        }
    }

    /// A configuration with an explicit thread mode.
    pub fn with_threads(threads: ThreadMode) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Sets the executor configuration (builder style).
    pub fn with_executor(mut self, exec: ExecutorConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the ledger retention configuration (builder style).
    pub fn with_ledger(mut self, ledger: LedgerConfig) -> Self {
        self.ledger = ledger;
        self
    }

    /// Enables or disables trace recording (builder style).
    pub fn with_tracing(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// A scheduled range move for deterministic reshard tests: at `at` sim-time
/// the coordinator issues a directive moving `[start, start + len)` to
/// cluster `to`, regardless of observed load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedMove {
    /// Sim-time offset (from run start) at which the move is issued.
    pub at: Duration,
    /// First account of the moved range.
    pub start: u64,
    /// Number of consecutive accounts moved.
    pub len: u64,
    /// Destination cluster id.
    pub to: u32,
}

/// Online resharding: load-driven shard split/merge via an epoch'd shard map.
///
/// When enabled (crash model only), primaries report per-bucket commit
/// counts to the reshard coordinator (cluster 0's primary), which issues
/// split directives moving hot buckets to under-loaded clusters and merge
/// directives returning cooled-off buckets to their genesis owner. Each
/// directive executes as a freeze + cross-shard handover transaction, so
/// reconfiguration is ordered, committed and audited like any other block —
/// and, like every protocol input, is a deterministic function of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReshardConfig {
    /// Master switch; everything below is inert when false.
    pub enabled: bool,
    /// Number of load-tracking buckets per shard (the granularity of range
    /// moves: each bucket is `accounts_per_shard / buckets_per_shard`
    /// consecutive accounts).
    pub buckets_per_shard: u64,
    /// How often primaries report per-bucket load to the coordinator.
    pub report_interval: Duration,
    /// How often the coordinator evaluates split/merge decisions.
    pub check_interval: Duration,
    /// A bucket is split away when its load exceeds `split_factor ×` the
    /// mean bucket load across the system.
    pub split_factor: f64,
    /// A displaced bucket merges home when its load falls below
    /// `merge_factor ×` the mean bucket load.
    pub merge_factor: f64,
    /// Scripted moves executed at fixed sim times (deterministic golden /
    /// property tests); load-driven decisions still apply unless the factors
    /// are set out of reach.
    pub forced: Vec<ForcedMove>,
}

impl Default for ReshardConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            buckets_per_shard: 8,
            report_interval: Duration::from_millis(250),
            check_interval: Duration::from_millis(500),
            split_factor: 2.0,
            merge_factor: 0.5,
            forced: Vec::new(),
        }
    }
}

impl ReshardConfig {
    /// An enabled configuration with the default thresholds.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// An enabled configuration that only executes the given scripted moves
    /// (load-driven decisions are disabled by unreachable thresholds).
    pub fn forced_only(forced: Vec<ForcedMove>) -> Self {
        Self {
            enabled: true,
            split_factor: f64::INFINITY,
            merge_factor: 0.0,
            forced,
            ..Self::default()
        }
    }
}

/// The failure model followed by the replicas (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureModel {
    /// Nodes may fail by stopping (and possibly restarting) but never lie.
    /// Clusters need `2f + 1` nodes and quorums of `f + 1`.
    Crash,
    /// Nodes may behave arbitrarily (equivocate, forge application data,
    /// stay silent). Clusters need `3f + 1` nodes and quorums of `2f + 1`.
    Byzantine,
}

impl FailureModel {
    /// The minimum cluster size required to tolerate `f` simultaneous
    /// failures under this model.
    pub fn cluster_size(self, f: usize) -> usize {
        match self {
            FailureModel::Crash => 2 * f + 1,
            FailureModel::Byzantine => 3 * f + 1,
        }
    }

    /// The per-cluster quorum used by both the intra-shard protocol and each
    /// involved cluster of the flattened cross-shard protocol (§3.2–§3.3).
    pub fn quorum(self, f: usize) -> usize {
        match self {
            FailureModel::Crash => f + 1,
            FailureModel::Byzantine => 2 * f + 1,
        }
    }

    /// Whether messages must carry signatures under this model (§2.1).
    pub fn requires_signatures(self) -> bool {
        matches!(self, FailureModel::Byzantine)
    }
}

impl fmt::Display for FailureModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureModel::Crash => write!(f, "crash"),
            FailureModel::Byzantine => write!(f, "byzantine"),
        }
    }
}

/// Which primary initiates a cross-shard transaction (§3.2, "super primary").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InitiationPolicy {
    /// Any involved cluster that received the client request initiates the
    /// transaction. Concurrent conflicting initiations are resolved by
    /// timers and retries.
    AnyInvolvedCluster,
    /// The primary of the involved cluster with the minimum identifier
    /// initiates every cross-shard transaction over that cluster set. This is
    /// the paper's super-primary optimisation, which removes most conflicts.
    #[default]
    SuperPrimary,
}

/// Configuration of a single cluster: its members and its fault budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// The cluster identifier (doubles as the shard identifier).
    pub id: ClusterId,
    /// Members of the cluster, in primary-election order: the primary of view
    /// `v` is `nodes[v % nodes.len()]`.
    pub nodes: Vec<NodeId>,
    /// The number of simultaneous faults this cluster tolerates.
    pub f: usize,
}

impl ClusterConfig {
    /// Creates a cluster configuration, validating the size against the
    /// failure model.
    pub fn new(id: ClusterId, nodes: Vec<NodeId>, f: usize, model: FailureModel) -> Result<Self> {
        let required = model.cluster_size(f);
        if nodes.len() < required {
            return Err(Error::InvalidConfig(format!(
                "cluster {id} has {} nodes but needs at least {required} for f={f} under the {model} model",
                nodes.len()
            )));
        }
        Ok(Self { id, nodes, f })
    }

    /// Number of replicas in this cluster.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The primary for a given view number.
    pub fn primary_of_view(&self, view: u64) -> NodeId {
        self.nodes[(view as usize) % self.nodes.len()]
    }

    /// The quorum size of this cluster under the given failure model.
    pub fn quorum(&self, model: FailureModel) -> usize {
        model.quorum(self.f)
    }

    /// Whether `node` is a member of this cluster.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }
}

/// A group of nodes with a known, group-specific fault budget (§3.4).
///
/// The clustered-network optimisation observes that if the network is made of
/// groups (e.g. different cloud providers) with individually known `f`, the
/// nodes of each group can be clustered independently, yielding more (and
/// therefore more parallel) clusters than clustering the union with the
/// global worst-case `f`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterGroup {
    /// Human-readable name of the group (e.g. the cloud provider).
    pub name: String,
    /// How many nodes the group contributes.
    pub nodes: usize,
    /// The maximum number of simultaneous faults within this group.
    pub f: usize,
}

/// A description of how the whole network is partitioned into clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterLayout {
    /// `clusters` clusters, each sized for the global fault budget `f`.
    Uniform {
        /// Number of clusters to form.
        clusters: usize,
        /// Global per-cluster fault budget.
        f: usize,
    },
    /// Group-aware clustering (§3.4): each group is clustered independently
    /// with its own fault budget.
    Grouped {
        /// The groups making up the network.
        groups: Vec<ClusterGroup>,
    },
}

impl ClusterLayout {
    /// The total number of nodes this layout requires under `model`.
    pub fn total_nodes(&self, model: FailureModel) -> usize {
        match self {
            ClusterLayout::Uniform { clusters, f } => clusters * model.cluster_size(*f),
            ClusterLayout::Grouped { groups } => groups.iter().map(|g| g.nodes).sum(),
        }
    }

    /// The number of clusters this layout produces under `model`.
    ///
    /// For grouped layouts this is `Σ_g ⌊n_g / size(f_g)⌋`, as in the paper's
    /// example (`n_A = 7, f_A = 2` and `n_B = 16, f_B = 1` gives `1 + 4 = 5`
    /// Byzantine clusters instead of the 2 obtained with the global `f = 3`).
    pub fn cluster_count(&self, model: FailureModel) -> usize {
        match self {
            ClusterLayout::Uniform { clusters, .. } => *clusters,
            ClusterLayout::Grouped { groups } => groups
                .iter()
                .map(|g| g.nodes / model.cluster_size(g.f))
                .sum(),
        }
    }
}

/// The full system configuration shared by every component of the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// The failure model of all replicas.
    pub failure_model: FailureModel,
    /// The clusters, keyed by identifier (iteration order is by id).
    clusters: BTreeMap<ClusterId, ClusterConfig>,
    /// Reverse index: node → owning cluster.
    node_cluster: BTreeMap<NodeId, ClusterId>,
    /// Which primary initiates cross-shard transactions.
    pub initiation_policy: InitiationPolicy,
}

impl SystemConfig {
    /// Builds a uniform configuration: `clusters` clusters, each with the
    /// minimum number of nodes for fault budget `f` under `model`, nodes
    /// numbered consecutively (`n0, n1, ...`).
    ///
    /// This matches the paper's evaluation deployments, e.g. 4 clusters of 3
    /// crash-only nodes (12 nodes, Fig. 6) or 4 clusters of 4 Byzantine nodes
    /// (16 nodes, Fig. 7).
    pub fn uniform(model: FailureModel, clusters: usize, f: usize) -> Result<Self> {
        if clusters == 0 {
            return Err(Error::InvalidConfig(
                "at least one cluster is required".into(),
            ));
        }
        let size = model.cluster_size(f);
        let mut cfgs = Vec::with_capacity(clusters);
        let mut next = 0u32;
        for c in 0..clusters {
            let nodes: Vec<NodeId> = (0..size)
                .map(|_| {
                    let id = NodeId(next);
                    next += 1;
                    id
                })
                .collect();
            cfgs.push(ClusterConfig::new(ClusterId(c as u32), nodes, f, model)?);
        }
        Self::from_clusters(model, cfgs, InitiationPolicy::default())
    }

    /// Builds a configuration from an explicit [`ClusterLayout`].
    pub fn from_layout(model: FailureModel, layout: &ClusterLayout) -> Result<Self> {
        match layout {
            ClusterLayout::Uniform { clusters, f } => Self::uniform(model, *clusters, *f),
            ClusterLayout::Grouped { groups } => {
                let mut cfgs = Vec::new();
                let mut next_node = 0u32;
                let mut next_cluster = 0u32;
                for group in groups {
                    let size = model.cluster_size(group.f);
                    let whole_clusters = group.nodes / size;
                    if whole_clusters == 0 {
                        return Err(Error::InvalidConfig(format!(
                            "group '{}' has {} nodes, fewer than the {} required for f={} under the {} model",
                            group.name, group.nodes, size, group.f, model
                        )));
                    }
                    let mut remaining = group.nodes;
                    for k in 0..whole_clusters {
                        // The paper notes the last cluster may absorb leftover nodes.
                        let take = if k + 1 == whole_clusters {
                            remaining
                        } else {
                            size
                        };
                        let nodes: Vec<NodeId> = (0..take)
                            .map(|_| {
                                let id = NodeId(next_node);
                                next_node += 1;
                                id
                            })
                            .collect();
                        remaining -= take;
                        cfgs.push(ClusterConfig::new(
                            ClusterId(next_cluster),
                            nodes,
                            group.f,
                            model,
                        )?);
                        next_cluster += 1;
                    }
                }
                Self::from_clusters(model, cfgs, InitiationPolicy::default())
            }
        }
    }

    /// Builds a configuration from explicit cluster descriptions.
    pub fn from_clusters(
        model: FailureModel,
        clusters: Vec<ClusterConfig>,
        initiation_policy: InitiationPolicy,
    ) -> Result<Self> {
        if clusters.is_empty() {
            return Err(Error::InvalidConfig(
                "at least one cluster is required".into(),
            ));
        }
        let mut by_id = BTreeMap::new();
        let mut node_cluster = BTreeMap::new();
        for cluster in clusters {
            let required = model.cluster_size(cluster.f);
            if cluster.nodes.len() < required {
                return Err(Error::InvalidConfig(format!(
                    "cluster {} has {} nodes but needs {} under the {} model",
                    cluster.id,
                    cluster.nodes.len(),
                    required,
                    model
                )));
            }
            for &node in &cluster.nodes {
                if node_cluster.insert(node, cluster.id).is_some() {
                    return Err(Error::InvalidConfig(format!(
                        "node {node} appears in more than one cluster"
                    )));
                }
            }
            if by_id.insert(cluster.id, cluster).is_some() {
                return Err(Error::InvalidConfig("duplicate cluster id".into()));
            }
        }
        Ok(Self {
            failure_model: model,
            clusters: by_id,
            node_cluster,
            initiation_policy,
        })
    }

    /// Sets the cross-shard initiation policy (builder style).
    pub fn with_initiation_policy(mut self, policy: InitiationPolicy) -> Self {
        self.initiation_policy = policy;
        self
    }

    /// Number of clusters (= number of shards).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Total number of replicas across all clusters.
    pub fn node_count(&self) -> usize {
        self.node_cluster.len()
    }

    /// All cluster identifiers in ascending order.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.clusters.keys().copied()
    }

    /// All node identifiers in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_cluster.keys().copied()
    }

    /// The configuration of a cluster.
    pub fn cluster(&self, id: ClusterId) -> Result<&ClusterConfig> {
        self.clusters.get(&id).ok_or(Error::UnknownCluster(id))
    }

    /// The cluster a node belongs to.
    pub fn cluster_of(&self, node: NodeId) -> Result<ClusterId> {
        self.node_cluster
            .get(&node)
            .copied()
            .ok_or(Error::UnknownNode(node))
    }

    /// The members of a cluster.
    pub fn members(&self, id: ClusterId) -> Result<&[NodeId]> {
        Ok(&self.cluster(id)?.nodes)
    }

    /// The primary of cluster `id` in view `view`.
    pub fn primary(&self, id: ClusterId, view: u64) -> Result<NodeId> {
        Ok(self.cluster(id)?.primary_of_view(view))
    }

    /// The per-cluster quorum (`f+1` crash, `2f+1` Byzantine) of cluster `id`.
    pub fn quorum(&self, id: ClusterId) -> Result<usize> {
        let c = self.cluster(id)?;
        Ok(c.quorum(self.failure_model))
    }

    /// The cluster responsible for initiating a cross-shard transaction over
    /// `involved` under the configured [`InitiationPolicy`].
    ///
    /// Under [`InitiationPolicy::SuperPrimary`] this is the involved cluster
    /// with the minimum identifier (§3.2). Under
    /// [`InitiationPolicy::AnyInvolvedCluster`] the caller's preference
    /// (`received_by`) wins, as long as it is involved.
    pub fn initiator_cluster(
        &self,
        involved: &[ClusterId],
        received_by: Option<ClusterId>,
    ) -> Result<ClusterId> {
        if involved.is_empty() {
            return Err(Error::InvalidConfig(
                "a cross-shard transaction must involve at least one cluster".into(),
            ));
        }
        for c in involved {
            self.cluster(*c)?;
        }
        match self.initiation_policy {
            InitiationPolicy::SuperPrimary => Ok(*involved.iter().min().expect("non-empty")),
            InitiationPolicy::AnyInvolvedCluster => match received_by {
                Some(c) if involved.contains(&c) => Ok(c),
                _ => Ok(*involved.iter().min().expect("non-empty")),
            },
        }
    }

    /// All members of all the given clusters (deduplicated, sorted).
    pub fn members_of_all(&self, clusters: &[ClusterId]) -> Result<Vec<NodeId>> {
        let mut out = Vec::new();
        for &c in clusters {
            out.extend_from_slice(self.members(c)?);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_config_defaults_to_paper_semantics() {
        let cfg = BatchConfig::default();
        assert_eq!(cfg.max_batch_size, 1);
        assert!(cfg.batch_timeout > Duration::ZERO);
        assert_eq!(BatchConfig::with_size(16).max_batch_size, 16);
        // A nonsensical size of 0 clamps to the unbatched protocol.
        assert_eq!(BatchConfig::with_size(0).max_batch_size, 1);
    }

    #[test]
    fn failure_model_sizes_and_quorums() {
        assert_eq!(FailureModel::Crash.cluster_size(1), 3);
        assert_eq!(FailureModel::Crash.quorum(1), 2);
        assert_eq!(FailureModel::Byzantine.cluster_size(1), 4);
        assert_eq!(FailureModel::Byzantine.quorum(1), 3);
        assert_eq!(FailureModel::Byzantine.cluster_size(3), 10);
        assert!(!FailureModel::Crash.requires_signatures());
        assert!(FailureModel::Byzantine.requires_signatures());
    }

    #[test]
    fn uniform_config_matches_paper_deployments() {
        // Fig. 6: 12 crash-only nodes, 4 clusters of 3, f = 1.
        let crash = SystemConfig::uniform(FailureModel::Crash, 4, 1).unwrap();
        assert_eq!(crash.cluster_count(), 4);
        assert_eq!(crash.node_count(), 12);
        assert_eq!(crash.quorum(ClusterId(0)).unwrap(), 2);

        // Fig. 7: 16 Byzantine nodes, 4 clusters of 4, f = 1 (also Fig. 1).
        let byz = SystemConfig::uniform(FailureModel::Byzantine, 4, 1).unwrap();
        assert_eq!(byz.cluster_count(), 4);
        assert_eq!(byz.node_count(), 16);
        assert_eq!(byz.quorum(ClusterId(3)).unwrap(), 3);
    }

    #[test]
    fn node_to_cluster_mapping_is_consistent() {
        let cfg = SystemConfig::uniform(FailureModel::Byzantine, 3, 1).unwrap();
        for cluster in cfg.cluster_ids() {
            for &node in cfg.members(cluster).unwrap() {
                assert_eq!(cfg.cluster_of(node).unwrap(), cluster);
            }
        }
        assert!(cfg.cluster_of(NodeId(999)).is_err());
        assert!(cfg.cluster(ClusterId(99)).is_err());
    }

    #[test]
    fn primary_rotates_with_view() {
        let cfg = SystemConfig::uniform(FailureModel::Crash, 1, 1).unwrap();
        let members = cfg.members(ClusterId(0)).unwrap().to_vec();
        assert_eq!(cfg.primary(ClusterId(0), 0).unwrap(), members[0]);
        assert_eq!(cfg.primary(ClusterId(0), 1).unwrap(), members[1]);
        assert_eq!(cfg.primary(ClusterId(0), 3).unwrap(), members[0]);
    }

    #[test]
    fn super_primary_is_minimum_involved_cluster() {
        let cfg = SystemConfig::uniform(FailureModel::Crash, 4, 1).unwrap();
        let init = cfg
            .initiator_cluster(
                &[ClusterId(2), ClusterId(1), ClusterId(3)],
                Some(ClusterId(3)),
            )
            .unwrap();
        assert_eq!(init, ClusterId(1));

        let cfg = cfg.with_initiation_policy(InitiationPolicy::AnyInvolvedCluster);
        let init = cfg
            .initiator_cluster(&[ClusterId(2), ClusterId(3)], Some(ClusterId(3)))
            .unwrap();
        assert_eq!(init, ClusterId(3));
        // A receiver that is not involved falls back to the minimum cluster.
        let init = cfg
            .initiator_cluster(&[ClusterId(2), ClusterId(3)], Some(ClusterId(0)))
            .unwrap();
        assert_eq!(init, ClusterId(2));
    }

    #[test]
    fn rejects_undersized_and_overlapping_clusters() {
        let err = ClusterConfig::new(
            ClusterId(0),
            vec![NodeId(0), NodeId(1)],
            1,
            FailureModel::Byzantine,
        );
        assert!(err.is_err());

        let a = ClusterConfig::new(
            ClusterId(0),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            1,
            FailureModel::Crash,
        )
        .unwrap();
        let b = ClusterConfig::new(
            ClusterId(1),
            vec![NodeId(2), NodeId(3), NodeId(4)],
            1,
            FailureModel::Crash,
        )
        .unwrap();
        let err = SystemConfig::from_clusters(FailureModel::Crash, vec![a, b], Default::default());
        assert!(err.is_err(), "overlapping membership must be rejected");
    }

    #[test]
    fn grouped_layout_reproduces_paper_example() {
        // §3.4: n = 23 Byzantine nodes, global f = 3 → 2 clusters, but with
        // groups A (7 nodes, f=2) and B (16 nodes, f=1) → 1 + 4 = 5 clusters.
        let global = ClusterLayout::Uniform { clusters: 2, f: 3 };
        assert_eq!(global.cluster_count(FailureModel::Byzantine), 2);
        assert_eq!(global.total_nodes(FailureModel::Byzantine), 20);

        let grouped = ClusterLayout::Grouped {
            groups: vec![
                ClusterGroup {
                    name: "A".into(),
                    nodes: 7,
                    f: 2,
                },
                ClusterGroup {
                    name: "B".into(),
                    nodes: 16,
                    f: 1,
                },
            ],
        };
        assert_eq!(grouped.cluster_count(FailureModel::Byzantine), 5);
        assert_eq!(grouped.total_nodes(FailureModel::Byzantine), 23);

        let cfg = SystemConfig::from_layout(FailureModel::Byzantine, &grouped).unwrap();
        assert_eq!(cfg.cluster_count(), 5);
        assert_eq!(cfg.node_count(), 23);
        // The single group-A cluster has f = 2 → quorum 5; group-B clusters
        // have f = 1 → quorum 3.
        assert_eq!(cfg.quorum(ClusterId(0)).unwrap(), 5);
        assert_eq!(cfg.quorum(ClusterId(1)).unwrap(), 3);
    }

    #[test]
    fn members_of_all_deduplicates_and_sorts() {
        let cfg = SystemConfig::uniform(FailureModel::Crash, 3, 1).unwrap();
        let all = cfg
            .members_of_all(&[ClusterId(1), ClusterId(0), ClusterId(1)])
            .unwrap();
        assert_eq!(all.len(), 6);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zero_clusters_is_invalid() {
        assert!(SystemConfig::uniform(FailureModel::Crash, 0, 1).is_err());
        assert!(
            SystemConfig::from_clusters(FailureModel::Crash, vec![], Default::default()).is_err()
        );
    }

    #[test]
    fn ledger_config_defaults_to_retain_all() {
        let cfg = LedgerConfig::default();
        assert!(!cfg.is_truncating());
        assert_eq!(cfg, LedgerConfig::retain_all());

        let truncating = LedgerConfig::checkpointed(8, 64);
        assert!(truncating.is_truncating());
        assert_eq!(truncating.checkpoint_interval, 8);
        assert_eq!(truncating.retain_blocks, 64);

        // Nonsensical zeros clamp to the smallest safe truncating config.
        let clamped = LedgerConfig::checkpointed(0, 0);
        assert_eq!(clamped.checkpoint_interval, 1);
        assert_eq!(clamped.retain_blocks, 1);
    }

    #[test]
    fn thread_mode_parses_aliases_and_counts() {
        assert_eq!(
            ThreadMode::parse("sequential").unwrap(),
            ThreadMode::Sequential
        );
        assert_eq!(ThreadMode::parse("seq").unwrap(), ThreadMode::Sequential);
        assert_eq!(
            ThreadMode::parse("per-cluster").unwrap(),
            ThreadMode::PerCluster
        );
        assert_eq!(
            ThreadMode::parse("PerCluster").unwrap(),
            ThreadMode::PerCluster
        );
        // 0 and 1 workers both mean "no parallelism", consistent with
        // Fixed(0 | 1) behaving sequentially in the engine.
        assert_eq!(ThreadMode::parse("0").unwrap(), ThreadMode::Sequential);
        assert_eq!(ThreadMode::parse("1").unwrap(), ThreadMode::Sequential);
        assert_eq!(ThreadMode::parse("4").unwrap(), ThreadMode::Fixed(4));
        assert!(ThreadMode::parse("warp-speed").is_err());
        assert!(!ThreadMode::Sequential.is_parallel());
        assert!(!ThreadMode::Fixed(1).is_parallel());
        assert!(ThreadMode::PerCluster.is_parallel());
        assert!(ThreadMode::Fixed(2).is_parallel());
    }
}
