//! Configuration shared by every replica of a deployment.

use sharper_common::{
    BatchConfig, CostModel, ExecutorConfig, LedgerConfig, ReshardConfig, SystemConfig,
};
use sharper_crypto::KeyRegistry;
use sharper_state::Partitioner;

/// Everything a replica needs to know about the deployment it is part of.
/// Protocol timeouts are constants (see [`crate::timeouts`]).
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
    /// moves. `None` (the default) disables it; crash model only.
    pub reshard: Option<ReshardConfig>,
    /// The key registry modelling the PKI (§2.1).
    pub registry: KeyRegistry,
}

impl ReplicaConfig {
    /// A configuration with every policy at its default: the default cost
    /// model, one transaction per block, the serial executor, a retain-all
    /// ledger and resharding disabled. Callers override the public fields
    /// they need and share the result.
    pub fn new(system: SystemConfig, partitioner: Partitioner, registry: KeyRegistry) -> Self {
        Self {
            system,
            partitioner,
            cost: CostModel::default(),
            batch: BatchConfig::default(),
            exec: ExecutorConfig::default(),
            ledger: LedgerConfig::default(),
            reshard: None,
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeouts::*;
    use sharper_common::{Duration, FailureModel};
    use sharper_crypto::keys::SignerId;
    use std::sync::Arc;

    #[test]
    fn default_timers_are_ordered_sensibly() {
        const {
            assert!(RETRY.as_micros() <= CONFLICT.as_micros());
            assert!(VIEW_CHANGE.as_micros() > CONFLICT.as_micros());
            assert!(MAX_RETRIES > 0);
            assert!(XABORT_RETRANSMITS > 0);
            assert!(XABORT_RETRANSMIT_INTERVAL.as_micros() > 0);
            assert!(BATCH.as_micros() > 0);
        }
        // The reservation probe must not fire before the initiator has had a
        // chance to give up and retransmit its abort. Retry timers carry a
        // deterministic jitter of at most RETRY/4 per attempt, so the
        // worst-case give-up window is MAX_RETRIES × 1.25 × RETRY (750ms,
        // still under the 800ms probe).
        let per_attempt = RETRY + Duration::from_micros(RETRY.as_micros() / 4);
        let give_up = per_attempt.saturating_mul(u64::from(MAX_RETRIES));
        let probe = CONFLICT.saturating_mul(u64::from(RESERVATION_PROBE_AFTER));
        assert!(probe > give_up);
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
