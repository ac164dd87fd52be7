//! Configuration shared by every replica of a deployment.

use sharper_common::{
    BatchConfig, CostModel, Duration, ExecutorConfig, LedgerConfig, ReshardConfig, SystemConfig,
};
use sharper_crypto::KeyRegistry;
use sharper_state::Partitioner;

/// Protocol timer settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerConfig {
    /// How long a node stays reserved for an accepted cross-shard proposal
    /// before giving up on its commit (§3.2's "pre-determined time").
    pub conflict_timeout: Duration,
    /// How long the initiator primary waits for cross-shard quorums before
    /// re-initiating the transaction.
    pub retry_timeout: Duration,
    /// Maximum number of re-initiations before the initiator gives up.
    pub max_retries: u32,
    /// How long a backup waits for the commit of an in-flight request before
    /// suspecting the primary and starting a view change.
    pub view_change_timeout: Duration,
    /// How many times the initiator re-announces an `XAbort` after giving up
    /// on a cross-shard batch (a single lost abort must not wedge a remote
    /// primary's reservation).
    pub xabort_retransmits: u32,
    /// Interval between `XAbort` retransmissions.
    pub xabort_retransmit_interval: Duration,
    /// Number of conflict-timeout renewals a reserved *primary* waits before
    /// probing the initiator cluster for the fate of its reservation
    /// (crash model). The product with `conflict_timeout` should exceed the
    /// initiator's give-up window (`max_retries × retry_timeout`).
    pub reservation_probe_after: u32,
}

impl Default for TimerConfig {
    fn default() -> Self {
        Self {
            // Comfortably above the worst-case cross-shard commit latency of
            // the default latency model (tens of milliseconds), so that in
            // fault-free runs reservations are normally released by commits
            // (or by explicit aborts), and conflicts cost little when they do
            // force a timeout.
            conflict_timeout: Duration::from_millis(400),
            retry_timeout: Duration::from_millis(100),
            max_retries: 6,
            view_change_timeout: Duration::from_millis(1_500),
            xabort_retransmits: 2,
            xabort_retransmit_interval: Duration::from_millis(150),
            // 2 renewals ≈ 800ms+, past the give-up window of
            // max_retries × retry_timeout ≈ 700ms and the abort
            // retransmissions, so probes only fire for genuinely lost
            // commits/aborts.
            reservation_probe_after: 2,
        }
    }
}

/// Everything a replica needs to know about the deployment it is part of.
///
/// Wrapped in an [`Arc`](std::sync::Arc) by the system layer so that the
/// hundreds of replicas of a simulation share one copy.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Cluster membership, failure model, quorum sizes, initiation policy.
    pub system: SystemConfig,
    /// Mapping of accounts to shards.
    pub partitioner: Partitioner,
    /// CPU cost model used for simulation accounting.
    pub cost: CostModel,
    /// Protocol timers.
    pub timers: TimerConfig,
    /// How primaries group transactions into blocks (`max_batch_size = 1`
    /// reproduces the paper's one-transaction blocks).
    pub batch: BatchConfig,
    /// How replicas partition their shard state and apply committed batches
    /// (`partitions = 1` reproduces the seed's flat serial executor; results
    /// are bit-identical in every mode).
    pub exec: ExecutorConfig,
    /// How replica ledger views retain committed history (retain-all by
    /// default; checkpoint + truncate behind the audit watermark when
    /// enabled — results are bit-identical either way).
    pub ledger: LedgerConfig,
    /// Dynamic resharding: load reporting, split/merge thresholds and forced
    /// moves (disabled by default; crash model only).
    pub reshard: ReshardConfig,
    /// The key registry modelling the PKI (§2.1).
    pub registry: KeyRegistry,
}

impl ReplicaConfig {
    /// A configuration with every policy at its default: the default cost
    /// model and timers, one transaction per block, the serial executor, a
    /// retain-all ledger and resharding disabled. Callers override the
    /// public fields they need and share the result.
    pub fn new(system: SystemConfig, partitioner: Partitioner, registry: KeyRegistry) -> Self {
        Self {
            system,
            partitioner,
            cost: CostModel::default(),
            timers: TimerConfig::default(),
            batch: BatchConfig::default(),
            exec: ExecutorConfig::default(),
            ledger: LedgerConfig::default(),
            reshard: ReshardConfig::default(),
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::FailureModel;
    use sharper_crypto::keys::SignerId;
    use std::sync::Arc;

    #[test]
    fn default_timers_are_ordered_sensibly() {
        let t = TimerConfig::default();
        assert!(t.retry_timeout <= t.conflict_timeout);
        assert!(t.view_change_timeout > t.conflict_timeout);
        assert!(t.max_retries > 0);
        // The reservation probe must not fire before the initiator has had a
        // chance to give up and retransmit its abort. Retry timers carry a
        // deterministic jitter of at most retry_timeout/4 per attempt, so
        // the worst-case give-up window is max_retries × 1.25 × retry_timeout
        // (750ms with defaults, still under the 800ms probe).
        let per_attempt = t.retry_timeout + Duration::from_micros(t.retry_timeout.as_micros() / 4);
        let give_up = per_attempt.saturating_mul(u64::from(t.max_retries));
        let probe = t
            .conflict_timeout
            .saturating_mul(u64::from(t.reservation_probe_after));
        assert!(probe > give_up);
        assert!(t.xabort_retransmits > 0);
        assert!(t.xabort_retransmit_interval > sharper_common::Duration::ZERO);
    }

    #[test]
    fn shared_config_is_cheap_to_clone() {
        let system = SystemConfig::uniform(FailureModel::Crash, 2, 1).unwrap();
        let (registry, _) = KeyRegistry::generate(1, (0..6).map(SignerId));
        let cfg = Arc::new(ReplicaConfig::new(
            system,
            Partitioner::range(2, 100),
            registry,
        ));
        let clone = Arc::clone(&cfg);
        assert_eq!(Arc::strong_count(&cfg), 2);
        assert_eq!(clone.system.cluster_count(), 2);
    }
}
