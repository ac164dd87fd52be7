//! Calibrated latency and CPU-cost model used by the discrete-event simulator.
//!
//! The paper's evaluation (§4) ran on AWS EC2 c4.2xlarge instances. We do not
//! have that testbed, so the simulator replaces it with two models:
//!
//! * [`LatencyModel`] — one-way network delays between clients and replicas,
//!   between replicas of the same cluster (the paper places geographically
//!   close nodes in the same cluster, §2.2) and between replicas of different
//!   clusters.
//! * [`CostModel`] — the CPU time a replica spends handling each message
//!   (deserialisation, digest computation, signature generation/verification
//!   for the Byzantine model, execution of a transfer). Each replica is
//!   modelled as a single-server queue, so the replica handling the most
//!   messages per transaction (the primary) becomes the bottleneck and the
//!   system saturates — exactly the effect that shapes the throughput/latency
//!   curves in Figures 6–8.
//!
//! The default numbers are calibrated so the simulated 4-cluster crash-only
//! deployment saturates in the tens of thousands of transactions per second,
//! the same order of magnitude as the paper. Absolute values are not the
//! claim under test; all systems share one model so relative comparisons are
//! preserved.

use crate::config::FailureModel;
use crate::time::Duration;

/// One-way network latencies (plus jitter bound) for the simulated network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// One-way latency between a client and any replica, in microseconds.
    pub client_to_node_us: u64,
    /// One-way latency between two replicas of the same cluster.
    pub intra_cluster_us: u64,
    /// One-way latency between replicas of different clusters.
    pub cross_cluster_us: u64,
    /// Maximum uniform jitter added to every message, in microseconds.
    pub jitter_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Clusters are formed from geographically close nodes (§2.2): links
        // inside a cluster are LAN-like, links across clusters are WAN-like,
        // clients sit near their home cluster.
        Self {
            client_to_node_us: 2_000,
            intra_cluster_us: 500,
            cross_cluster_us: 10_000,
            jitter_us: 200,
        }
    }
}

impl LatencyModel {
    /// A model with every latency set to zero; useful for unit tests that
    /// only care about message ordering.
    pub fn zero() -> Self {
        Self {
            client_to_node_us: 0,
            intra_cluster_us: 0,
            cross_cluster_us: 0,
            jitter_us: 0,
        }
    }

    /// A LAN-only model (everything co-located), used by micro-benchmarks.
    pub fn lan() -> Self {
        Self {
            client_to_node_us: 200,
            intra_cluster_us: 100,
            cross_cluster_us: 100,
            jitter_us: 20,
        }
    }

    /// The base one-way latency for a link of the given kind.
    pub fn base(&self, kind: LinkKind) -> Duration {
        let us = match kind {
            LinkKind::ClientToNode => self.client_to_node_us,
            LinkKind::IntraCluster => self.intra_cluster_us,
            LinkKind::CrossCluster => self.cross_cluster_us,
            LinkKind::Local => 0,
        };
        Duration::from_micros(us)
    }
}

/// The kind of link a message travels over, from the latency model's point of
/// view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Client ↔ replica.
    ClientToNode,
    /// Replica ↔ replica inside one cluster.
    IntraCluster,
    /// Replica ↔ replica across clusters.
    CrossCluster,
    /// A node sending a message to itself (no network traversal).
    Local,
}

/// Per-message CPU costs charged at the receiving replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Base cost of receiving, parsing and dispatching any protocol message.
    pub message_handling_us: u64,
    /// Additional cost of computing a message/block digest.
    pub digest_us: u64,
    /// Additional cost of generating a signature (Byzantine model only).
    pub sign_us: u64,
    /// Additional cost of verifying a signature (Byzantine model only).
    pub verify_us: u64,
    /// Cost of validating and executing one transfer transaction against the
    /// account store and appending the block to the ledger.
    pub execute_us: u64,
    /// Cost charged at a client for preparing/submitting a request and for
    /// processing a reply.
    pub client_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            message_handling_us: 11,
            digest_us: 2,
            sign_us: 18,
            verify_us: 22,
            execute_us: 6,
            client_us: 2,
        }
    }
}

impl CostModel {
    /// A model with every cost set to zero; useful for logic-only tests.
    pub fn zero() -> Self {
        Self {
            message_handling_us: 0,
            digest_us: 0,
            sign_us: 0,
            verify_us: 0,
            execute_us: 0,
            client_us: 0,
        }
    }

    /// The cost of handling one protocol message that carries `signatures`
    /// signatures to verify and requires `signs` new signatures, under the
    /// given failure model. Signature costs are only charged for the
    /// Byzantine model (§2.1: crash-only deployments do not sign messages).
    pub fn protocol_message(
        &self,
        model: FailureModel,
        signatures_to_verify: usize,
        signatures_to_create: usize,
    ) -> Duration {
        let mut us = self.message_handling_us + self.digest_us;
        if model.requires_signatures() {
            us += self.verify_us * signatures_to_verify as u64;
            us += self.sign_us * signatures_to_create as u64;
        }
        Duration::from_micros(us)
    }

    /// The cost of executing a transaction and appending its block.
    pub fn execution(&self) -> Duration {
        Duration::from_micros(self.execute_us + self.digest_us)
    }

    /// The cost of executing a committed batch of `n` transactions and
    /// appending its block: per-transaction execution plus a single block
    /// digest — the digest is amortised over the whole batch because the
    /// block commits to the batch's Merkle root.
    pub fn execution_batch(&self, n: usize) -> Duration {
        Duration::from_micros(self.execute_us * n as u64 + self.digest_us)
    }

    /// The modelled cost of a *scheduled* (partitioned-parallel) batch apply.
    ///
    /// The executor scheduler expresses a batch as abstract work units
    /// (`units_per_tx` per transaction, split across per-partition queues) and
    /// reports the critical-path length `makespan_units` of its plan. Since
    /// one serial transaction costs `execute_us`, one unit costs
    /// `execute_us / units_per_tx` and the modelled wall time of the parallel
    /// apply is the makespan times the unit cost plus the single block digest.
    /// Rounding is upward so a schedule never models cheaper than its
    /// critical path.
    ///
    /// This is used by the executor benchmark (`figures --fig exec`) to model
    /// apply-path speedups; the simulation pipeline itself always charges
    /// [`CostModel::execution_batch`] so that partitioning cannot perturb
    /// golden seeds.
    pub fn execution_batch_scheduled(&self, makespan_units: u64, units_per_tx: u64) -> Duration {
        let per_tx = units_per_tx.max(1);
        let exec_us = (self.execute_us * makespan_units).div_ceil(per_tx);
        Duration::from_micros(exec_us + self.digest_us)
    }

    /// The cost of verifying one signature (zero in the crash model, which
    /// does not sign messages).
    pub fn verification(&self, model: FailureModel) -> Duration {
        if model.requires_signatures() {
            Duration::from_micros(self.verify_us)
        } else {
            Duration::ZERO
        }
    }

    /// The cost charged at the client per request or reply.
    pub fn client(&self) -> Duration {
        Duration::from_micros(self.client_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_ordered() {
        let lat = LatencyModel::default();
        assert!(lat.cross_cluster_us > lat.intra_cluster_us);
        assert!(lat.client_to_node_us > 0);
        let cost = CostModel::default();
        assert!(cost.verify_us > 0 && cost.sign_us > 0);
    }

    #[test]
    fn link_kinds_map_to_latencies() {
        let lat = LatencyModel::default();
        assert_eq!(lat.base(LinkKind::Local), Duration::ZERO);
        assert_eq!(
            lat.base(LinkKind::IntraCluster),
            Duration::from_micros(lat.intra_cluster_us)
        );
        assert_eq!(
            lat.base(LinkKind::CrossCluster),
            Duration::from_micros(lat.cross_cluster_us)
        );
        assert_eq!(
            lat.base(LinkKind::ClientToNode),
            Duration::from_micros(lat.client_to_node_us)
        );
    }

    #[test]
    fn crash_model_never_pays_for_signatures() {
        let cost = CostModel::default();
        let crash = cost.protocol_message(FailureModel::Crash, 5, 5);
        let byz = cost.protocol_message(FailureModel::Byzantine, 5, 5);
        assert!(byz > crash);
        assert_eq!(
            crash,
            Duration::from_micros(cost.message_handling_us + cost.digest_us)
        );
    }

    #[test]
    fn byzantine_cost_scales_with_signature_count() {
        let cost = CostModel::default();
        let one = cost.protocol_message(FailureModel::Byzantine, 1, 1);
        let three = cost.protocol_message(FailureModel::Byzantine, 3, 1);
        assert_eq!(three.as_micros() - one.as_micros(), 2 * cost.verify_us);
    }

    #[test]
    fn scheduled_batch_cost_tracks_the_critical_path() {
        let cost = CostModel::default();
        // A perfectly serial plan (makespan = 3 units × n txs) costs the same
        // as the flat batched apply.
        for n in [1usize, 4, 16] {
            assert_eq!(
                cost.execution_batch_scheduled(3 * n as u64, 3),
                cost.execution_batch(n)
            );
        }
        // A plan that halves the critical path halves the execution part.
        let serial = cost.execution_batch_scheduled(48, 3);
        let parallel = cost.execution_batch_scheduled(24, 3);
        assert_eq!(
            serial.as_micros() - cost.digest_us,
            2 * (parallel.as_micros() - cost.digest_us)
        );
        // Rounds up: 1 unit of a 3-unit tx is charged at least 1µs × rate.
        let tiny = cost.execution_batch_scheduled(1, 3);
        assert!(tiny.as_micros() > cost.digest_us);
    }

    #[test]
    fn zero_models_are_free() {
        let cost = CostModel::zero();
        assert_eq!(
            cost.protocol_message(FailureModel::Byzantine, 10, 10),
            Duration::ZERO
        );
        assert_eq!(cost.execution(), Duration::ZERO);
        let lat = LatencyModel::zero();
        assert_eq!(lat.base(LinkKind::CrossCluster), Duration::ZERO);
    }
}
