//! Workspace-level integration tests: full SharPer deployments, fault
//! injection, baseline comparisons and the reproduction's headline claims.

use sharper_baselines::{BaselineKind, BaselineParams, BaselineSystem};
use sharper_common::{FailureModel, NodeId, SimTime};
use sharper_core::{SharperSystem, SystemParams};
use sharper_net::FaultPlan;
use sharper_workload::{WorkloadConfig, WorkloadGenerator};

const ACCOUNTS: u64 = 1_000;

fn sharper_run(
    model: FailureModel,
    clusters: usize,
    cross_ratio: f64,
    clients: usize,
    faults: FaultPlan,
    secs: u64,
) -> sharper_core::RunReport {
    sharper_run_seeded(model, clusters, cross_ratio, clients, faults, secs, 42)
}

#[allow(clippy::too_many_arguments)]
fn sharper_run_seeded(
    model: FailureModel,
    clusters: usize,
    cross_ratio: f64,
    clients: usize,
    faults: FaultPlan,
    secs: u64,
    seed: u64,
) -> sharper_core::RunReport {
    let mut params = SystemParams::new(model, clusters, 1)
        .with_faults(faults)
        .with_seed(seed);
    params.accounts_per_shard = ACCOUNTS;
    params.warmup = SimTime::from_millis(200);
    let mut system = SharperSystem::build(params, clients, |client| {
        let mut cfg = WorkloadConfig::evaluation(clusters as u32, cross_ratio);
        cfg.accounts_per_shard = ACCOUNTS;
        WorkloadGenerator::new(client, cfg)
    });
    system.run(SimTime::from_secs(secs))
}

fn baseline_run(kind: BaselineKind, cross_ratio: f64, clients: usize, secs: u64) -> f64 {
    let mut params = BaselineParams::paper(kind);
    params.accounts_per_shard = ACCOUNTS;
    params.warmup = SimTime::from_millis(200);
    let clusters = params.clusters as u32;
    let mut system = BaselineSystem::build(params, clients, |client| {
        let mut cfg = WorkloadConfig::evaluation(clusters, cross_ratio);
        cfg.accounts_per_shard = ACCOUNTS;
        WorkloadGenerator::new(client, cfg)
    });
    system.run(SimTime::from_secs(secs)).summary.throughput_tps
}

#[test]
fn crash_deployment_sustains_mixed_workload_and_passes_audit() {
    let report = sharper_run(FailureModel::Crash, 4, 0.2, 16, FaultPlan::none(), 3);
    assert!(report.summary.throughput_tps > 30.0, "{:?}", report.summary);
    assert!(report.audit.cross_shard_transactions > 0);
}

#[test]
fn byzantine_deployment_sustains_mixed_workload_and_passes_audit() {
    // Safety (the audit inside run()) and progress are the assertions here;
    // Byzantine cross-shard throughput under contended concurrent initiators
    // is a known weak spot (benchmark/README.md, "Known failures") and is
    // measured by the figures harness rather than asserted in the test suite.
    let report = sharper_run(FailureModel::Byzantine, 4, 0.2, 16, FaultPlan::none(), 3);
    assert!(report.audit.distinct_transactions > 0, "{:?}", report.audit);
    assert!(report.audit.cross_shard_transactions > 0);
}

#[test]
fn pure_cross_shard_workload_commits_and_stays_consistent() {
    let report = sharper_run(FailureModel::Crash, 4, 1.0, 8, FaultPlan::none(), 3);
    assert!(
        report.audit.cross_shard_transactions > 20,
        "{:?}",
        report.audit
    );
    assert!(report.summary.committed > 0);
}

#[test]
fn safety_holds_under_message_loss_and_a_backup_crash() {
    // 2% message loss plus a crashed backup of cluster 0 (within f = 1),
    // across a spread of seeds (interleavings). The audit inside run()
    // checks chains and cross-shard order on every seed; progress must also
    // continue despite the faults. Seeds 1 and 2 used to fork a cluster via
    // the ballot-less view-change replay and seed 42 used to livelock behind
    // a lost XAbort; the `faultsweep` bench bin sweeps this configuration
    // over a much larger seed range in CI.
    let faults = FaultPlan::none()
        .with_drop_probability(0.02)
        .with_crash(NodeId(1), SimTime::from_millis(300));
    for seed in [1, 2, 7, 12, 42] {
        let report = sharper_run_seeded(FailureModel::Crash, 4, 0.1, 8, faults.clone(), 4, seed);
        assert!(
            report.audit.distinct_transactions > 50,
            "seed {seed}: {:?}",
            report.audit
        );
    }
}

#[test]
fn cascading_primary_crashes_trigger_successive_view_changes_safely() {
    // f = 2 per cluster (5 replicas): cluster 0's view-0 primary (node 0)
    // crashes at 300ms, its successor (node 1, the view-1 primary) crashes
    // at 2.5s. The cluster must complete two view changes — the second new
    // primary's ballot must supersede both predecessors' — and keep
    // committing; the audit inside run() panics on any fork.
    let faults = FaultPlan::none().with_crash_cascade(
        [NodeId(0), NodeId(1)],
        SimTime::from_millis(300),
        sharper_common::Duration::from_millis(2_200),
    );
    let mut params = SystemParams::new(FailureModel::Crash, 4, 2)
        .with_faults(faults)
        .with_seed(7);
    params.accounts_per_shard = ACCOUNTS;
    params.warmup = SimTime::from_millis(200);
    let mut system = SharperSystem::build(params, 8, |client| {
        let mut cfg = WorkloadConfig::evaluation(4, 0.1);
        cfg.accounts_per_shard = ACCOUNTS;
        WorkloadGenerator::new(client, cfg)
    });
    let report = system.run(SimTime::from_secs(6));
    assert!(
        report.audit.distinct_transactions > 50,
        "{:?}",
        report.audit
    );
    // Cluster 0 specifically must have survived both view changes: some
    // surviving member keeps committing blocks.
    let cluster0_best = report
        .replica_stats
        .iter()
        .filter(|(node, _)| node.0 >= 2 && node.0 < 5)
        .map(|(_, stats)| stats.committed_blocks)
        .max()
        .unwrap_or(0);
    assert!(
        cluster0_best > 2,
        "cluster 0 wedged after cascading crashes: best member committed {cluster0_best} blocks"
    );
}

#[test]
fn former_ballotless_view_change_fork_seed_stays_safe() {
    // Seed 2 of the loss + crashed-backup sweep reliably forked a cluster
    // ("replicas of cluster pX diverge at height H") before view changes
    // carried full Paxos ballots: the new primary replayed accepted rounds
    // without a ballot, so a deposed primary's stale proposals could still
    // gather a quorum at a reassigned chain position. The audit inside
    // `SharperSystem::run` panics on any divergence, so this passing run is
    // the regression proof.
    let faults = FaultPlan::none()
        .with_drop_probability(0.02)
        .with_crash(NodeId(1), SimTime::from_millis(300));
    let report = sharper_run_seeded(FailureModel::Crash, 4, 0.1, 8, faults, 4, 2);
    assert!(
        report.audit.distinct_transactions > 50,
        "{:?}",
        report.audit
    );
}

#[test]
#[ignore = "long-running performance comparison; run `cargo run -p sharper-bench --release --bin figures`"]
fn throughput_scales_with_the_number_of_clusters() {
    // Figure 8 shape: more clusters → more throughput at 10% cross-shard.
    // This is a saturation experiment (hundreds of clients, several simulated
    // seconds); it is executed by `cargo run -p sharper-bench --bin figures`
    // and verified there rather than in the default test run.
    let two = sharper_run(FailureModel::Crash, 2, 0.1, 80, FaultPlan::none(), 3);
    let five = sharper_run(FailureModel::Crash, 5, 0.1, 200, FaultPlan::none(), 3);
    assert!(
        five.summary.throughput_tps > 1.5 * two.summary.throughput_tps,
        "2 clusters: {:.0} tps, 5 clusters: {:.0} tps",
        two.summary.throughput_tps,
        five.summary.throughput_tps
    );
}

#[test]
fn sharper_outperforms_non_sharded_baselines_without_cross_shard_load() {
    // Figure 6(a)/7(a) shape: sharding wins big at 0% cross-shard.
    let sharper = sharper_run(FailureModel::Crash, 4, 0.0, 224, FaultPlan::none(), 2)
        .summary
        .throughput_tps;
    let apr = baseline_run(BaselineKind::AprC, 0.0, 224, 2);
    let fpaxos = baseline_run(BaselineKind::FPaxos, 0.0, 224, 2);
    assert!(
        sharper > 1.5 * apr && sharper > 1.5 * fpaxos,
        "SharPer {sharper:.0} vs APR-C {apr:.0} vs FPaxos {fpaxos:.0}"
    );
}

#[test]
#[ignore = "long-running performance comparison; run `cargo run -p sharper-bench --release --bin figures`"]
fn sharper_outperforms_ahl_under_cross_shard_load() {
    // Figure 6(c)/(d) shape: the flattened protocol beats the reference
    // committee when cross-shard transactions dominate. `figures --fig 6c`
    // and `--fig 6d` produce the measured curves; benchmark/README.md
    // ("Known failures") discusses conflict behaviour under highly contended
    // cross-shard workloads.
    let sharper = sharper_run(FailureModel::Crash, 4, 0.8, 96, FaultPlan::none(), 3)
        .summary
        .throughput_tps;
    let ahl = baseline_run(BaselineKind::AhlC, 0.8, 96, 3);
    assert!(
        sharper > ahl,
        "SharPer {sharper:.0} tps must exceed AHL-C {ahl:.0} tps at 80% cross-shard"
    );
}

#[test]
fn ahl_matches_sharper_on_intra_shard_only_workloads() {
    // Figure 6(a) shape: with no cross-shard transactions the two systems use
    // the same intra-shard path, so they should be in the same ballpark.
    let sharper = sharper_run(FailureModel::Crash, 4, 0.0, 48, FaultPlan::none(), 2)
        .summary
        .throughput_tps;
    let ahl = baseline_run(BaselineKind::AhlC, 0.0, 48, 2);
    let ratio = sharper / ahl.max(1.0);
    assert!((0.5..=2.5).contains(&ratio), "ratio {ratio:.2}");
}
