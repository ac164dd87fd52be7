//! Golden-seed determinism: a SharPer run is a pure function of its seed.
//!
//! The figure harness and every protocol test rely on this property, and the
//! zero-copy message plane (shared `Arc` payloads, per-actor defer queues,
//! batched broadcasts) must not introduce any source of nondeterminism. The
//! tests run full deployments twice with identical parameters and require
//! bit-identical simulator reports and ledger digests — and then once more
//! with the conservative parallel scheduler (one worker per cluster), which
//! must also match bit for bit: the golden seeds are the correctness oracle
//! for the parallel engine itself.

use sharper_common::{ExecutorConfig, FailureModel, SimTime, ThreadMode};
use sharper_core::{RunReport, SharperSystem, SystemParams};
use sharper_crypto::Digest;
use sharper_net::FaultPlan;
use sharper_workload::{WorkloadConfig, WorkloadGenerator};

const ACCOUNTS: u64 = 1_000;

fn run_once(model: FailureModel, seed: u64) -> (RunReport, Digest) {
    run_once_threaded(model, seed, 1, ThreadMode::Sequential)
}

fn run_once_batched(model: FailureModel, seed: u64, max_batch: u64) -> (RunReport, Digest) {
    run_once_threaded(model, seed, max_batch, ThreadMode::Sequential)
}

fn run_once_threaded(
    model: FailureModel,
    seed: u64,
    max_batch: u64,
    threads: ThreadMode,
) -> (RunReport, Digest) {
    run_once_exec(model, seed, max_batch, threads, ExecutorConfig::default())
}

fn run_once_exec(
    model: FailureModel,
    seed: u64,
    max_batch: u64,
    threads: ThreadMode,
    exec: ExecutorConfig,
) -> (RunReport, Digest) {
    let clusters = 3usize;
    let mut params = SystemParams::new(model, clusters, 1)
        .with_faults(FaultPlan::none().with_drop_probability(0.01))
        .with_seed(seed)
        .with_batching(sharper_common::BatchConfig::with_size(max_batch as usize))
        .with_threads(threads)
        .with_executor(exec);
    params.accounts_per_shard = ACCOUNTS;
    params.warmup = SimTime::from_millis(100);
    let mut system = SharperSystem::build(params, 6, |client| {
        let mut cfg = WorkloadConfig::evaluation(clusters as u32, 0.3);
        cfg.accounts_per_shard = ACCOUNTS;
        WorkloadGenerator::new(client, cfg)
    });
    let report = system.run(SimTime::from_secs(2));
    let digest = system.ledger_digest();
    (report, digest)
}

#[test]
fn crash_runs_with_the_same_seed_are_bit_identical() {
    let (first, first_digest) = run_once(FailureModel::Crash, 0xC0FFEE);
    let (second, second_digest) = run_once(FailureModel::Crash, 0xC0FFEE);
    assert!(first.client_completed > 0, "the run must make progress");
    assert_eq!(
        first.simulation, second.simulation,
        "simulator reports differ"
    );
    assert_eq!(first_digest, second_digest, "ledger digests differ");
    assert_eq!(first.client_completed, second.client_completed);
    assert_eq!(first.retransmissions, second.retransmissions);
    assert_eq!(first.summary.committed, second.summary.committed);
    // The conservative parallel scheduler must reproduce the golden run
    // bit for bit — same report, same ledger digest.
    let (parallel, parallel_digest) =
        run_once_threaded(FailureModel::Crash, 0xC0FFEE, 1, ThreadMode::PerCluster);
    assert_eq!(first.simulation, parallel.simulation, "parallel diverged");
    assert_eq!(first_digest, parallel_digest, "parallel digest diverged");
    assert_eq!(first.client_completed, parallel.client_completed);
}

#[test]
fn byzantine_runs_with_the_same_seed_are_bit_identical() {
    let (first, first_digest) = run_once(FailureModel::Byzantine, 0xBEEF);
    let (second, second_digest) = run_once(FailureModel::Byzantine, 0xBEEF);
    assert!(first.client_completed > 0, "the run must make progress");
    assert_eq!(
        first.simulation, second.simulation,
        "simulator reports differ"
    );
    assert_eq!(first_digest, second_digest, "ledger digests differ");
    assert_eq!(first.client_completed, second.client_completed);
    let (parallel, parallel_digest) =
        run_once_threaded(FailureModel::Byzantine, 0xBEEF, 1, ThreadMode::PerCluster);
    assert_eq!(first.simulation, parallel.simulation, "parallel diverged");
    assert_eq!(first_digest, parallel_digest, "parallel digest diverged");
}

#[test]
fn batched_runs_with_the_same_seed_are_bit_identical() {
    // The batching pipeline (pending queues, batch timers, Merkle-committed
    // multi-transaction blocks) must stay a pure function of the seed, for
    // both failure models, alongside the max_batch_size = 1 goldens above.
    for model in [FailureModel::Crash, FailureModel::Byzantine] {
        let (first, first_digest) = run_once_batched(model, 0xBA7C4, 16);
        let (second, second_digest) = run_once_batched(model, 0xBA7C4, 16);
        assert!(first.client_completed > 0, "{model}: no progress");
        assert_eq!(
            first.simulation, second.simulation,
            "{model}: simulator reports differ"
        );
        assert_eq!(
            first_digest, second_digest,
            "{model}: ledger digests differ"
        );
        assert_eq!(first.client_completed, second.client_completed);
        let (parallel, parallel_digest) =
            run_once_threaded(model, 0xBA7C4, 16, ThreadMode::PerCluster);
        assert_eq!(
            first.simulation, parallel.simulation,
            "{model}: parallel diverged"
        );
        assert_eq!(
            first_digest, parallel_digest,
            "{model}: parallel digest diverged"
        );
        // Batching actually batched: strictly fewer blocks than transactions.
        let (blocks, txs): (usize, usize) = first
            .replica_stats
            .iter()
            .map(|(_, s)| (s.committed_blocks, s.committed_intra + s.committed_cross))
            .fold((0, 0), |(b, t), (bb, tt)| (b + bb, t + tt));
        assert!(txs > blocks, "{model}: {txs} txs in {blocks} blocks");
    }
}

#[test]
fn partitioned_executor_runs_are_bit_identical_to_serial_apply() {
    // The state-partitioned executor is a pure apply-path reorganisation:
    // per-partition queues and worker threads may reorder the *work*, never
    // the per-account operation order, and the pipeline charges the same
    // execution cost in every mode. Whole-deployment runs under every
    // partition count — applied serially with one executor thread, through
    // the scheduler with two — must therefore reproduce the serial golden
    // run bit for bit — reports, mempool telemetry and ledger digests
    // included.
    for model in [FailureModel::Crash, FailureModel::Byzantine] {
        let (serial, serial_digest) = run_once_batched(model, 0xE4EC, 16);
        assert!(serial.client_completed > 0, "{model}: no progress");
        for partitions in [1usize, 2, 4] {
            for threads in [1usize, 2] {
                let (split, split_digest) = run_once_exec(
                    model,
                    0xE4EC,
                    16,
                    ThreadMode::Sequential,
                    ExecutorConfig::partitioned(partitions, threads),
                );
                assert_eq!(
                    serial.simulation, split.simulation,
                    "{model}: {partitions} partitions x {threads} threads diverged"
                );
                assert_eq!(
                    serial_digest, split_digest,
                    "{model}: {partitions} partitions x {threads} threads: digest diverged"
                );
                assert_eq!(serial.client_completed, split.client_completed);
            }
        }
    }
}

#[test]
fn different_seeds_produce_different_executions() {
    let (first, _) = run_once(FailureModel::Crash, 1);
    let mut any_different = false;
    for seed in 2..6 {
        let (other, _) = run_once(FailureModel::Crash, seed);
        if other.simulation != first.simulation {
            any_different = true;
            break;
        }
    }
    assert!(
        any_different,
        "jitter and drops must depend on the seed, not only on the topology"
    );
}

#[test]
fn cross_shard_ledger_views_agree_between_replicas_of_one_cluster() {
    let (report, _) = run_once(FailureModel::Crash, 7);
    // The audit already ran inside run(); spot-check its shape here so the
    // determinism suite also guards basic cross-shard progress.
    assert!(report.audit.cross_shard_transactions > 0);
    assert!(report.audit.views >= 3);
}

#[test]
fn golden_seeds_match_the_values_pinned_before_the_one_pass_commit_path() {
    // The two unbatched golden seeds, pinned at the commit before replicas
    // kept one block per round, the audit borrowed its views and the engine
    // indexed actors densely. Those are host-side changes: every thread mode
    // must still reproduce the ledger digest and the engine's counters bit
    // for bit. The digests, delivered and dropped counts are the first two
    // lines of the pinned `bench/baselines/golden.txt` (a change that means
    // to alter the protocol or the cost model re-pins that file from
    // `golden --out`, and the counters here from the failing assertion).
    let golden = include_str!("../../../bench/baselines/golden.txt");
    let pinned = |row: &str| {
        let line = golden.lines().find(|l| l.starts_with(row)).expect(row);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let count = |i: usize| -> usize { fields[i].parse().expect("a count") };
        (fields[1].to_string(), count(3), count(4))
    };
    let rows = [
        (
            FailureModel::Crash,
            0xC0FFEE,
            pinned("crash-3c-30cross-drop1-seed-c0ffee "),
            (53, 80, 64),
        ),
        (
            FailureModel::Byzantine,
            0xBEEF,
            pinned("byz-3c-30cross-drop1-seed-beef "),
            (52, 1126, 41),
        ),
    ];
    for (model, seed, (digest, delivered, dropped), (timers, deferred, completed)) in rows {
        let counters = (delivered, dropped, timers, deferred, completed);
        for threads in [
            ThreadMode::Sequential,
            ThreadMode::PerCluster,
            ThreadMode::Fixed(2),
        ] {
            let (report, got) = run_once_threaded(model, seed, 1, threads);
            let sim = report.simulation;
            assert_eq!(got.to_hex(), digest, "{model} {threads:?}");
            assert_eq!(
                (
                    sim.delivered,
                    sim.dropped,
                    sim.timers_fired,
                    sim.deferred,
                    report.client_completed
                ),
                counters,
                "{model} {threads:?}"
            );
        }
    }
}
