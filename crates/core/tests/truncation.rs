//! Ledger truncation only bounds memory: checkpointing + pruning behind
//! the audit watermark must never change simulated results. These tests pin
//! the property the golden-seed CI gate relies on — `retain=all` and every
//! truncating configuration produce bit-identical digests and reports — and
//! regression-test the view-change replay path on the historical fork seeds
//! with truncation enabled.

use sharper_common::{FailureModel, LedgerConfig, NodeId, SimTime};
use sharper_core::{workload_with, SharperSystem, SystemParams};
use sharper_net::FaultPlan;

/// Runs a clean 3-cluster deployment under the given retention config and
/// returns everything the determinism gate pins, plus the summed
/// `(retained, logical)` ledger footprint.
fn clean_run(
    ledger: LedgerConfig,
) -> (
    sharper_crypto::Digest,
    sharper_net::SimulationReport,
    usize,
    (usize, usize),
) {
    let mut params = SystemParams::new(FailureModel::Crash, 3, 1).with_ledger(ledger);
    params.accounts_per_shard = 1_000;
    params.warmup = SimTime::from_millis(100);
    let mut system = SharperSystem::build(params, 6, |client| {
        workload_with(client, 3, 1_000, 1_000, 0.3, 2)
    });
    let report = system.run(SimTime::from_secs(2));
    let footprint = system.ledger_footprint();
    (
        system.ledger_digest(),
        report.simulation,
        report.client_completed,
        footprint,
    )
}

#[test]
fn truncating_ledgers_are_bit_identical_to_retain_all() {
    let baseline = clean_run(LedgerConfig::retain_all());
    assert!(baseline.2 > 50, "completed {}", baseline.2);
    let (retained_all, logical_all) = baseline.3;
    assert_eq!(retained_all, logical_all, "retain-all keeps every block");

    for interval in [1usize, 8, 64] {
        let truncated = clean_run(LedgerConfig::checkpointed(interval, 8));
        assert_eq!(
            baseline.0, truncated.0,
            "ledger digest diverged at checkpoint interval {interval}"
        );
        assert_eq!(
            baseline.1, truncated.1,
            "simulation report diverged at checkpoint interval {interval}"
        );
        assert_eq!(baseline.2, truncated.2);
        let (retained, logical) = truncated.3;
        assert_eq!(logical, logical_all, "logical chain length must not change");
        assert!(
            retained < logical,
            "interval {interval} never pruned: {retained} of {logical} blocks retained"
        );
    }
}

/// The faultsweep regression seeds with truncation on: 1 and 2 once forked a
/// cluster through the ballot-less view-change replay, 42 once livelocked
/// behind a lost `XAbort`. A pruned replica must reject a view-change replay
/// below its checkpoint exactly like a full replica rejects an occupied
/// position, so the loss+crash runs stay bit-identical to retain-all.
#[test]
fn truncation_survives_loss_and_crash_at_former_fork_seeds() {
    for seed in [1u64, 2, 42] {
        let run = |ledger: LedgerConfig| {
            let faults = FaultPlan::none()
                .with_drop_probability(0.02)
                .with_crash(NodeId(1), SimTime::from_millis(300));
            let mut params = SystemParams::new(FailureModel::Crash, 4, 1)
                .with_faults(faults)
                .with_seed(seed)
                .with_ledger(ledger);
            params.accounts_per_shard = 1_000;
            params.warmup = SimTime::from_millis(200);
            let mut system = SharperSystem::build(params, 8, |client| {
                workload_with(client, 4, 1_000, 1_000, 0.1, 2)
            });
            let report = system.run(SimTime::from_secs(3));
            (
                system.ledger_digest(),
                report.simulation,
                report.client_completed,
            )
        };
        let all = run(LedgerConfig::retain_all());
        assert!(all.2 > 20, "seed {seed} completed {}", all.2);
        let truncated = run(LedgerConfig::checkpointed(8, 64));
        assert_eq!(
            all, truncated,
            "truncating run diverged from retain-all at seed {seed}"
        );
    }
}
