//! The determinism gate: runs every golden deployment under every engine,
//! executor and ledger-retention mode and checks that each mode reproduces
//! the deployment's reference line bit for bit.
//!
//! Usage:
//!   cargo run -p sharper-bench --release --bin golden -- --out golden-sequential.txt
//!
//! Each run yields one line `<config> <ledger-digest> <committed>
//! <delivered> <dropped>` (reshard deployments append `reshards=<n>`). The
//! reference is the sequential engine with the serial executor and a
//! retain-all ledger. The matrix:
//!
//! * the four static deployments under the sequential, per-cluster and
//!   fixed two-worker engines, the partitioned executor at 2 and 4
//!   partitions (two worker threads each), and a truncating ledger
//!   (checkpoint every 8 blocks, retain 64);
//! * the two dynamic-resharding deployments (one scripted split + merge,
//!   one load-driven run under a drifting hotspot) under the three engines
//!   and the truncating ledger. Reconfiguration rides the ordinary
//!   consensus path, so these must be just as bit-identical.
//!
//! None of the modes may change a byte: the conservative parallel scheduler
//! is deterministic, the partitioned executor is conflict-ordered and
//! charges the serial cost, and the rolling checkpoint digest keeps a
//! truncating ledger's digest equal to the retain-all one. The binary exits
//! 1 naming the first (config, mode) that differs. `--out` receives the six
//! reference lines, static deployments first; CI diffs them against the
//! pinned `bench/baselines/golden.txt`.

use sharper_bench::{cli_flag_value, golden_divergence, GoldenRun};
use sharper_common::{
    BatchConfig, Duration, ExecutorConfig, FailureModel, ForcedMove, LedgerConfig, ReshardConfig,
    SimTime, ThreadMode,
};
use sharper_core::{SharperSystem, SystemParams};
use sharper_net::FaultPlan;
use sharper_workload::{HotspotConfig, WorkloadConfig, WorkloadGenerator};
use std::io::Write;

struct GoldenConfig {
    name: &'static str,
    model: FailureModel,
    clusters: usize,
    cross_ratio: f64,
    clients: usize,
    max_batch: usize,
    drop_probability: f64,
    seed: u64,
}

/// The golden deployments: both failure models, intra-dominant and pure
/// cross-shard loads, unbatched and batched, clean and lossy networks, and
/// enough clusters that per-cluster mode actually runs several workers.
const CONFIGS: &[GoldenConfig] = &[
    GoldenConfig {
        name: "crash-3c-30cross-drop1-seed-c0ffee",
        model: FailureModel::Crash,
        clusters: 3,
        cross_ratio: 0.3,
        clients: 6,
        max_batch: 1,
        drop_probability: 0.01,
        seed: 0xC0FFEE,
    },
    GoldenConfig {
        name: "byz-3c-30cross-drop1-seed-beef",
        model: FailureModel::Byzantine,
        clusters: 3,
        cross_ratio: 0.3,
        clients: 6,
        max_batch: 1,
        drop_probability: 0.01,
        seed: 0xBEEF,
    },
    GoldenConfig {
        name: "crash-4c-100cross-batch16-seed-7",
        model: FailureModel::Crash,
        clusters: 4,
        cross_ratio: 1.0,
        clients: 8,
        max_batch: 16,
        drop_probability: 0.0,
        seed: 7,
    },
    GoldenConfig {
        name: "byz-4c-0cross-batch8-seed-99",
        model: FailureModel::Byzantine,
        clusters: 4,
        cross_ratio: 0.0,
        clients: 8,
        max_batch: 8,
        drop_probability: 0.0,
        seed: 99,
    },
];

const ACCOUNTS: u64 = 1_000;

/// A golden deployment with the dynamic-resharding plane active (crash model
/// only).
struct ReshardGoldenConfig {
    name: &'static str,
    cross_ratio: f64,
    clients: usize,
    drop_probability: f64,
    seed: u64,
    reshard: ReshardConfig,
    hotspot: Option<HotspotConfig>,
}

/// The reshard golden deployments: one scripted split + merge pair (the
/// merge is the inverse move, restoring the genesis map), and one fully
/// load-driven run under a drifting hotspot. Both must be bit-identical
/// across every thread mode and under ledger truncation.
fn reshard_configs() -> Vec<ReshardGoldenConfig> {
    vec![
        ReshardGoldenConfig {
            name: "reshard-forced-split-merge-drop1-seed-5",
            cross_ratio: 0.2,
            clients: 6,
            drop_probability: 0.01,
            seed: 5,
            // One split mid-run, then the inverse move (a merge) 600 ms
            // later: the catalog range [600, 640) leaves shard 0 for
            // cluster 2 and comes home again.
            reshard: ReshardConfig {
                // A tight check interval keeps the scripted times sharp and
                // re-sends directives lost to the 1% drop rate promptly.
                check_interval: Duration::from_millis(100),
                ..ReshardConfig::forced_only(vec![
                    ForcedMove {
                        at: Duration::from_millis(500),
                        start: 600,
                        len: 40,
                        to: 2,
                    },
                    ForcedMove {
                        at: Duration::from_millis(1_100),
                        start: 600,
                        len: 40,
                        to: 0,
                    },
                ])
            },
            hotspot: None,
        },
        ReshardGoldenConfig {
            name: "reshard-load-driven-hotspot-seed-11",
            cross_ratio: 0.0,
            clients: 8,
            drop_probability: 0.0,
            seed: 11,
            reshard: ReshardConfig {
                buckets_per_shard: 100,
                report_interval: Duration::from_millis(100),
                check_interval: Duration::from_millis(200),
                ..ReshardConfig::default()
            },
            hotspot: Some(HotspotConfig {
                hot_ratio: 0.8,
                s: 1.2,
                span: 60,
                drift_every: 150,
            }),
        },
    ]
}

/// One mode of the matrix: how the simulator, the executor and the ledger
/// run a deployment.
struct Mode {
    name: &'static str,
    threads: ThreadMode,
    exec: ExecutorConfig,
    ledger: LedgerConfig,
    /// Whether the reshard deployments run under this mode too.
    reshard: bool,
}

/// The modes of the matrix, the reference first.
fn modes() -> [Mode; 6] {
    use ThreadMode::{Fixed, PerCluster, Sequential};
    let mode = |name, threads, exec, ledger, reshard| Mode {
        name,
        threads,
        exec,
        ledger,
        reshard,
    };
    let (serial, partitioned) = (ExecutorConfig::default(), ExecutorConfig::partitioned);
    let (all, truncated) = (
        LedgerConfig::retain_all(),
        LedgerConfig::checkpointed(8, 64),
    );
    [
        mode("sequential", Sequential, serial, all, true),
        mode("per-cluster", PerCluster, serial, all, true),
        mode("fixed-2", Fixed(2), serial, all, true),
        mode("exec-2", Sequential, partitioned(2, 2), all, false),
        mode("exec-4", Sequential, partitioned(4, 2), all, false),
        mode("retain-8,64", Sequential, serial, truncated, true),
    ]
}

fn run_reshard_config(cfg: &ReshardGoldenConfig, mode: &Mode) -> String {
    let mut params = SystemParams::new(FailureModel::Crash, 3, 1)
        .with_faults(FaultPlan::none().with_drop_probability(cfg.drop_probability))
        .with_seed(cfg.seed)
        .with_batching(BatchConfig::with_size(1))
        .with_threads(mode.threads)
        .with_executor(mode.exec)
        .with_ledger(mode.ledger)
        .with_reshard(cfg.reshard.clone());
    params.accounts_per_shard = ACCOUNTS;
    params.warmup = SimTime::from_millis(100);
    let (cross_ratio, hotspot) = (cfg.cross_ratio, cfg.hotspot);
    let mut system = SharperSystem::build(params, cfg.clients, move |client| {
        let mut wl = WorkloadConfig::evaluation(3, cross_ratio);
        wl.accounts_per_shard = ACCOUNTS;
        wl.hotspot = hotspot;
        WorkloadGenerator::new(client, wl)
    });
    let report = system.run(SimTime::from_secs(2));
    format!(
        "{} {} {} {} {} reshards={}",
        cfg.name,
        system.ledger_digest().to_hex(),
        report.summary.committed,
        report.simulation.delivered,
        report.simulation.dropped,
        report.reshards_applied
    )
}

fn run_config(cfg: &GoldenConfig, mode: &Mode) -> String {
    let mut params = SystemParams::new(cfg.model, cfg.clusters, 1)
        .with_faults(FaultPlan::none().with_drop_probability(cfg.drop_probability))
        .with_seed(cfg.seed)
        .with_batching(BatchConfig::with_size(cfg.max_batch))
        .with_threads(mode.threads)
        .with_executor(mode.exec)
        .with_ledger(mode.ledger);
    params.accounts_per_shard = ACCOUNTS;
    params.warmup = SimTime::from_millis(100);
    let clusters = cfg.clusters as u32;
    let cross_ratio = cfg.cross_ratio;
    let mut system = SharperSystem::build(params, cfg.clients, |client| {
        let mut wl = WorkloadConfig::evaluation(clusters, cross_ratio);
        wl.accounts_per_shard = ACCOUNTS;
        WorkloadGenerator::new(client, wl)
    });
    let report = system.run(SimTime::from_secs(2));
    format!(
        "{} {} {} {} {}",
        cfg.name,
        system.ledger_digest().to_hex(),
        report.summary.committed,
        report.simulation.delivered,
        report.simulation.dropped
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if !(args.len() == 1 || args.len() == 3 && args[1] == "--out") {
        eprintln!("usage: golden [--out FILE]");
        std::process::exit(2);
    }
    let out = cli_flag_value(&args, "--out");
    let modes = modes();
    let mut runs = Vec::new();
    let mut record = |config, mode: &Mode, line: String| {
        println!("[{}] {line}", mode.name);
        runs.push(GoldenRun {
            config,
            mode: mode.name,
            line,
        });
    };
    for cfg in CONFIGS {
        for mode in &modes {
            record(cfg.name, mode, run_config(cfg, mode));
        }
    }
    for cfg in &reshard_configs() {
        for mode in modes.iter().filter(|m| m.reshard) {
            record(cfg.name, mode, run_reshard_config(cfg, mode));
        }
    }

    let reference = modes[0].name;
    if let Some(path) = out {
        let body: String = runs
            .iter()
            .filter(|r| r.mode == reference)
            .map(|r| format!("{}\n", r.line))
            .collect();
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => println!("GOLDEN {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some((config, mode)) = golden_divergence(&runs) {
        eprintln!("golden: {config} under {mode} differs from its {reference} run");
        std::process::exit(1);
    }
    println!(
        "golden: all {} runs are bit-identical to their {reference} run",
        runs.len()
    );
}
