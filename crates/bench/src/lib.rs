//! # sharper-bench
//!
//! The experiment harness regenerating every figure of the SharPer
//! evaluation (§4). Each figure is a throughput/latency curve obtained by
//! sweeping the number of closed-loop clients until saturation; the harness
//! runs the same sweep on the simulator for SharPer and for every baseline.
//!
//! * The `figures` binary (`cargo run -p sharper-bench --release --bin
//!   figures`) runs the full sweeps and prints the series that correspond to
//!   Figures 6(a)–(d), 7(a)–(d) and 8(a)–(b), plus the two ablations
//!   (`--fig ablation`, see [`figure_ablation`]).
//! * The `golden`, `faultsweep`, `tracecheck` and `perfgate` binaries are
//!   the CI gates: the determinism matrix, the fault sweep, the trace
//!   invariants and the simulated-throughput regression check.
//!
//! Per-layer host timings (hashing, block build, ledger append, message
//! clone, …) live in the repo benchmark, `sharperbench layers`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;

use sharper_baselines::{BaselineKind, BaselineParams, BaselineSystem};
use sharper_common::{
    AccountId, BatchConfig, ClientId, ClusterId, CostModel, Duration, FailureModel,
    InitiationPolicy, LedgerConfig, ReshardConfig, SimTime, ThreadMode,
};
use sharper_core::{SharperSystem, SystemParams};
use sharper_state::{Executor, Partitioner, Transaction, TX_UNITS};
use sharper_workload::{HotspotConfig, WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;
use std::time::Instant;

/// Accounts per shard used by all experiments (smaller than the default so
/// the harness stays fast; the protocols are insensitive to the account count
/// as long as contention stays low).
pub const ACCOUNTS_PER_SHARD: u64 = 2_000;

/// One point of a throughput/latency curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Number of closed-loop clients producing this point.
    pub clients: usize,
    /// Steady-state throughput in transactions per second.
    pub throughput_tps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Number of transactions in the measurement window.
    pub committed: usize,
    /// Maximum primary-mempool depth observed on any replica (ingestion
    /// backpressure indicator; zero for baselines without a mempool).
    pub mempool_peak_depth: usize,
    /// 95th-percentile mempool queueing delay across all proposed
    /// transactions, in simulated microseconds.
    pub mempool_wait_p95_us: u64,
    /// Mean intra-shard consensus latency (batch seal → commit) from the
    /// deterministic trace plane, in milliseconds (zero for baselines,
    /// which are untraced).
    pub phase_consensus_ms: f64,
    /// Mean cross-shard consensus latency (batch seal → xcommit), in
    /// milliseconds.
    pub phase_cross_ms: f64,
    /// Mean commit-to-completion latency (execution plus reply fan-in), in
    /// milliseconds.
    pub phase_exec_ms: f64,
}

/// One system's curve for one figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// The system's label ("SharPer", "AHL-C", ...).
    pub system: String,
    /// The measured curve, one point per client count.
    pub points: Vec<CurvePoint>,
}

impl CurvePoint {
    /// Renders this point as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"clients\":{},\"throughput_tps\":{:.3},\"latency_ms\":{:.3},\"committed\":{},\
             \"mempool_peak_depth\":{},\"mempool_wait_p95_us\":{},\
             \"phase_consensus_ms\":{:.3},\"phase_cross_ms\":{:.3},\"phase_exec_ms\":{:.3}}}",
            self.clients,
            self.throughput_tps,
            self.latency_ms,
            self.committed,
            self.mempool_peak_depth,
            self.mempool_wait_p95_us,
            self.phase_consensus_ms,
            self.phase_cross_ms,
            self.phase_exec_ms
        )
    }
}

impl Series {
    /// Renders this series as a JSON object.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(CurvePoint::to_json).collect();
        format!(
            "{{\"system\":{},\"points\":[{}]}}",
            json_string(&self.system),
            points.join(",")
        )
    }
}

/// Renders a figure (several series) as one machine-readable JSON document,
/// the payload of the `BENCH_<figure>.json` files written by the `figures`
/// binary. The format is intentionally dependency-free and stable so the
/// performance trajectory can be diffed across commits.
pub fn figure_to_json(figure: &str, series: &[Series]) -> String {
    let rendered: Vec<String> = series.iter().map(Series::to_json).collect();
    format!(
        "{{\"figure\":{},\"series\":[{}]}}",
        json_string(figure),
        rendered.join(",")
    )
}

/// Extracts every `"throughput_tps":<number>` value from a BENCH json
/// document. The format is produced by this crate (see [`figure_to_json`]),
/// so a targeted scan is exact — no general JSON parser is needed (or
/// available offline).
pub fn throughput_values(json: &str) -> Vec<f64> {
    const NEEDLE: &str = "\"throughput_tps\":";
    let mut values = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(NEEDLE) {
        rest = &rest[pos + NEEDLE.len()..];
        let end = rest
            .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse::<f64>() {
            values.push(v);
        }
        rest = &rest[end..];
    }
    values
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs a built SharPer deployment for `duration` and folds the report plus
/// the traced per-phase latency breakdown into a [`CurvePoint`]. The system
/// must have been built with tracing enabled; tracing never changes the
/// measured numbers (the golden-seed suite enforces it), it only fills the
/// `phase_*` fields.
fn traced_curve_point(system: &mut SharperSystem, clients: usize, duration: SimTime) -> CurvePoint {
    let report = system.run(duration);
    let breakdown = trace::analyze(&system.take_trace());
    CurvePoint {
        clients,
        throughput_tps: report.summary.throughput_tps,
        latency_ms: report.summary.mean_latency_ms,
        committed: report.summary.committed,
        mempool_peak_depth: report.simulation.mempool_peak_depth,
        mempool_wait_p95_us: report.simulation.mempool_wait_p95_us,
        phase_consensus_ms: breakdown.phase_consensus_ms(),
        phase_cross_ms: breakdown.phase_cross_ms(),
        phase_exec_ms: breakdown.phase_exec_ms(),
    }
}

/// Runs SharPer at one operating point under an explicit simulator thread
/// mode. The mode never changes the measured results — parallel runs are
/// bit-identical to sequential ones — only the harness's wall-clock time.
pub fn sharper_point_threads(
    model: FailureModel,
    clusters: usize,
    cross_ratio: f64,
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> CurvePoint {
    sharper_point_initiated(
        model,
        clusters,
        cross_ratio,
        clients,
        InitiationPolicy::SuperPrimary,
        threads,
        duration,
    )
}

/// Like [`sharper_point_threads`] under an explicit cross-shard initiation
/// policy (ablation A1 compares the two).
fn sharper_point_initiated(
    model: FailureModel,
    clusters: usize,
    cross_ratio: f64,
    clients: usize,
    initiation: InitiationPolicy,
    threads: ThreadMode,
    duration: SimTime,
) -> CurvePoint {
    let mut params = SystemParams::new(model, clusters, 1)
        .with_threads(threads)
        .with_tracing(true);
    params.accounts_per_shard = ACCOUNTS_PER_SHARD;
    params.warmup = SimTime::from_millis(300);
    params.initiation_policy = initiation;
    let mut system = SharperSystem::build(params, clients, |client| {
        let mut cfg = WorkloadConfig::evaluation(clusters as u32, cross_ratio);
        cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
        WorkloadGenerator::new(client, cfg)
    });
    traced_curve_point(&mut system, clients, duration)
}

/// Runs SharPer at one operating point with an explicit batching policy.
/// Clients pipeline `max_batch_size` requests so batches actually fill. The
/// thread mode never changes the measured results.
#[allow(clippy::too_many_arguments)]
pub fn sharper_point_batched_threads(
    model: FailureModel,
    clusters: usize,
    cross_ratio: f64,
    clients: usize,
    max_batch_size: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> CurvePoint {
    let mut params = SystemParams::new(model, clusters, 1)
        .with_batching(BatchConfig::with_size(max_batch_size))
        .with_threads(threads)
        .with_tracing(true);
    params.accounts_per_shard = ACCOUNTS_PER_SHARD;
    params.warmup = SimTime::from_millis(300);
    params.initiation_policy = InitiationPolicy::SuperPrimary;
    // A fixed pipeline depth for every batch size, so the offered load is
    // identical across the sweep and only the batching policy varies.
    params.client.max_in_flight = 16;
    let mut system = SharperSystem::build(params, clients, |client| {
        let mut cfg = WorkloadConfig::evaluation(clusters as u32, cross_ratio);
        cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
        WorkloadGenerator::new(client, cfg)
    });
    traced_curve_point(&mut system, clients, duration)
}

/// One point of the throughput-vs-batch-size sweep.
#[derive(Debug, Clone, Copy)]
pub struct BatchPoint {
    /// `max_batch_size` producing this point.
    pub batch_size: usize,
    /// Number of closed-loop clients (fixed across the sweep).
    pub clients: usize,
    /// Steady-state committed-transaction throughput.
    pub throughput_tps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Transactions committed in the measurement window.
    pub committed: usize,
}

/// One system's throughput-vs-batch-size curve.
#[derive(Debug, Clone)]
pub struct BatchSeries {
    /// The configuration label (failure model and workload).
    pub system: String,
    /// One point per batch size.
    pub points: Vec<BatchPoint>,
    /// Throughput at the largest batch size over the unbatched baseline.
    pub speedup_vs_unbatched: f64,
}

impl BatchSeries {
    fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"batch_size\":{},\"clients\":{},\"throughput_tps\":{:.3},\"latency_ms\":{:.3},\"committed\":{}}}",
                    p.batch_size, p.clients, p.throughput_tps, p.latency_ms, p.committed
                )
            })
            .collect();
        format!(
            "{{\"system\":{},\"points\":[{}],\"speedup_vs_unbatched\":{:.3}}}",
            json_string(&self.system),
            points.join(","),
            self.speedup_vs_unbatched
        )
    }
}

/// Renders the batching sweep as the `BENCH_batching.json` document.
pub fn batching_to_json(series: &[BatchSeries]) -> String {
    let rendered: Vec<String> = series.iter().map(BatchSeries::to_json).collect();
    format!(
        "{{\"figure\":\"batching\",\"series\":[{}]}}",
        rendered.join(",")
    )
}

/// Runs the throughput-vs-batch-size sweep: Byzantine intra-shard load at a
/// fixed client count and pipeline depth, sweeping `max_batch_size`.
///
/// The Byzantine model is the one where batching pays the most: every
/// consensus message costs a signature, so one round per batch amortises the
/// dominant per-transaction cost. (The crash model is not swept here: its
/// primary is bound by per-request handling, which batching cannot
/// amortise, capping the achievable speedup near 2.3× on the default cost
/// model — an analytic ceiling, see README.)
pub fn figure_batching(
    batch_sizes: &[usize],
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> Vec<BatchSeries> {
    let clusters = 2usize;
    let mut series = Vec::new();
    let mut points = Vec::new();
    for &batch in batch_sizes {
        let p = sharper_point_batched_threads(
            FailureModel::Byzantine,
            clusters,
            0.0,
            clients,
            batch,
            threads,
            duration,
        );
        points.push(BatchPoint {
            batch_size: batch,
            clients,
            throughput_tps: p.throughput_tps,
            latency_ms: p.latency_ms,
            committed: p.committed,
        });
    }
    let baseline = points
        .iter()
        .find(|p| p.batch_size == 1)
        .map_or(0.0, |p| p.throughput_tps);
    let best = points.last().map_or(0.0, |p| p.throughput_tps);
    series.push(BatchSeries {
        system: "SharPer byzantine 0% cross-shard".to_string(),
        points,
        speedup_vs_unbatched: if baseline > 0.0 { best / baseline } else { 0.0 },
    });
    series
}

/// Runs one baseline at one operating point.
pub fn baseline_point(
    kind: BaselineKind,
    cross_ratio: f64,
    clients: usize,
    duration: SimTime,
) -> CurvePoint {
    let mut params = BaselineParams::paper(kind);
    params.accounts_per_shard = ACCOUNTS_PER_SHARD;
    params.warmup = SimTime::from_millis(300);
    let clusters = params.clusters as u32;
    let mut system = BaselineSystem::build(params, clients, |client| {
        let mut cfg = WorkloadConfig::evaluation(clusters, cross_ratio);
        cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
        WorkloadGenerator::new(client, cfg)
    });
    let report = system.run(duration);
    CurvePoint {
        clients,
        throughput_tps: report.summary.throughput_tps,
        latency_ms: report.summary.mean_latency_ms,
        committed: report.summary.committed,
        // The baseline systems reuse the seed's flat pending queue, not the
        // instrumented mempool or the trace plane, so there is nothing to
        // report here.
        mempool_peak_depth: 0,
        mempool_wait_p95_us: 0,
        phase_consensus_ms: 0.0,
        phase_cross_ms: 0.0,
        phase_exec_ms: 0.0,
    }
}

/// The systems compared in Figure 6 (crash-only) or Figure 7 (Byzantine).
pub fn figure_systems(model: FailureModel) -> Vec<(String, Option<BaselineKind>)> {
    match model {
        FailureModel::Crash => vec![
            ("SharPer".to_string(), None),
            ("AHL-C".to_string(), Some(BaselineKind::AhlC)),
            ("APR-C".to_string(), Some(BaselineKind::AprC)),
            ("FPaxos".to_string(), Some(BaselineKind::FPaxos)),
        ],
        FailureModel::Byzantine => vec![
            ("SharPer".to_string(), None),
            ("AHL-B".to_string(), Some(BaselineKind::AhlB)),
            ("APR-B".to_string(), Some(BaselineKind::AprB)),
            ("FaB".to_string(), Some(BaselineKind::FaB)),
        ],
    }
}

/// Runs a full figure-6/7 sub-plot: every system, sweeping the client count.
pub fn figure_cross_shard_sweep(
    model: FailureModel,
    cross_ratio: f64,
    client_counts: &[usize],
    threads: ThreadMode,
    duration: SimTime,
) -> Vec<Series> {
    figure_systems(model)
        .into_iter()
        .map(|(label, kind)| {
            let points = client_counts
                .iter()
                .map(|&clients| match kind {
                    None => {
                        sharper_point_threads(model, 4, cross_ratio, clients, threads, duration)
                    }
                    Some(k) => baseline_point(k, cross_ratio, clients, duration),
                })
                .collect();
            Series {
                system: label,
                points,
            }
        })
        .collect()
}

/// Runs Figure 8: SharPer throughput with 2–5 clusters at 90% intra-shard /
/// 10% cross-shard load.
pub fn figure_scalability(
    model: FailureModel,
    cluster_counts: &[usize],
    clients_per_cluster: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> Vec<Series> {
    cluster_counts
        .iter()
        .map(|&clusters| {
            let clients = clients_per_cluster * clusters;
            let point = sharper_point_threads(model, clusters, 0.10, clients, threads, duration);
            Series {
                system: format!("{clusters} clusters"),
                points: vec![point],
            }
        })
        .collect()
}

/// Runs the two ablations of the evaluation (`figures --fig ablation`), one
/// single-point series per arm:
///
/// * **A1, super-primary initiation (§3.2).** Crash model, 4 clusters, 8
///   clients, at 20% and 80% cross-shard load: one super-primary initiates
///   every cross-shard transaction, so conflicting proposals are ordered
///   instead of racing, against any involved cluster initiating.
/// * **A2, group-aware clustering (§3.4).** Byzantine, 10% cross-shard, 4
///   clients per cluster: the 2 clusters a global worst-case fault budget
///   allows against the 5 that group-aware clustering forms from the same
///   nodes (the paper's example).
pub fn figure_ablation(threads: ThreadMode, duration: SimTime) -> Vec<Series> {
    let mut series = Vec::new();
    for ratio in [0.2, 0.8] {
        let pct = (ratio * 100.0) as u32;
        for (arm, initiation) in [
            ("super-primary", InitiationPolicy::SuperPrimary),
            ("any-initiator", InitiationPolicy::AnyInvolvedCluster),
        ] {
            let point = sharper_point_initiated(
                FailureModel::Crash,
                4,
                ratio,
                8,
                initiation,
                threads,
                duration,
            );
            series.push(Series {
                system: format!("{arm} {pct}%"),
                points: vec![point],
            });
        }
    }
    for (arm, clusters) in [("global-f", 2usize), ("group-aware", 5)] {
        let point = sharper_point_threads(
            FailureModel::Byzantine,
            clusters,
            0.10,
            4 * clusters,
            threads,
            duration,
        );
        series.push(Series {
            system: format!("{arm} {clusters} clusters"),
            points: vec![point],
        });
    }
    series
}

/// One point of the parallel-simulation speedup sweep: the same fig8-style
/// deployment executed by the sequential engine and by the conservative
/// parallel engine, with wall-clock times for both.
#[derive(Debug, Clone)]
pub struct ParallelPoint {
    /// Number of clusters (= lanes = workers in per-cluster mode).
    pub clusters: usize,
    /// Total replicas across all clusters.
    pub replicas: usize,
    /// Closed-loop clients driving the deployment.
    pub clients: usize,
    /// Transactions committed in the measurement window (identical across
    /// modes by the determinism guarantee).
    pub committed: usize,
    /// Simulated steady-state throughput (identical across modes).
    pub throughput_tps: f64,
    /// Wall-clock milliseconds of the sequential run.
    pub wall_ms_sequential: f64,
    /// Wall-clock milliseconds of the parallel run.
    pub wall_ms_parallel: f64,
    /// `wall_ms_sequential / wall_ms_parallel`.
    pub speedup: f64,
    /// Whether the two modes produced bit-identical ledger digests and
    /// simulator reports (must always be true; recorded so the bench artifact
    /// double-checks the determinism gate).
    pub identical: bool,
    /// Hex ledger digest of the sequential run (the golden value).
    pub digest: String,
}

/// The parallel speedup sweep: per-point results plus the environment that
/// produced them (wall-clock speedup is meaningless without the core count).
#[derive(Debug, Clone)]
pub struct ParallelSweep {
    /// The parallel thread mode that was measured (e.g. "per-cluster").
    pub threads: String,
    /// Worker threads available to the harness process.
    pub host_cpus: usize,
    /// One point per cluster count.
    pub points: Vec<ParallelPoint>,
}

/// Runs one fig8-style deployment (crash model, 10% cross-shard) under the
/// given thread mode, returning the report, the ledger digest and the
/// wall-clock milliseconds the run took.
fn parallel_probe(
    clusters: usize,
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> (sharper_core::RunReport, sharper_crypto::Digest, f64) {
    let mut params = SystemParams::new(FailureModel::Crash, clusters, 1).with_threads(threads);
    params.accounts_per_shard = ACCOUNTS_PER_SHARD;
    params.warmup = SimTime::from_millis(300);
    params.initiation_policy = InitiationPolicy::SuperPrimary;
    let mut system = SharperSystem::build(params, clients, |client| {
        let mut cfg = WorkloadConfig::evaluation(clusters as u32, 0.10);
        cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
        WorkloadGenerator::new(client, cfg)
    });
    let started = Instant::now();
    let report = system.run(duration);
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    (report, system.ledger_digest(), wall_ms)
}

/// Runs the parallel-simulation speedup sweep: for each cluster count the
/// same deployment is executed sequentially and under `threads`, and both
/// wall-clock times are recorded. The simulated results must be — and are
/// checked to be — bit-identical; only wall-clock time may differ.
pub fn figure_parallel(
    cluster_counts: &[usize],
    clients_per_cluster: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> ParallelSweep {
    let points = cluster_counts
        .iter()
        .map(|&clusters| {
            let clients = clients_per_cluster * clusters;
            let (seq_report, seq_digest, seq_ms) =
                parallel_probe(clusters, clients, ThreadMode::Sequential, duration);
            let (par_report, par_digest, par_ms) =
                parallel_probe(clusters, clients, threads, duration);
            ParallelPoint {
                clusters,
                replicas: clusters * 3, // crash model, f = 1 ⇒ 2f+1 per cluster
                clients,
                committed: seq_report.summary.committed,
                throughput_tps: seq_report.summary.throughput_tps,
                wall_ms_sequential: seq_ms,
                wall_ms_parallel: par_ms,
                speedup: if par_ms > 0.0 { seq_ms / par_ms } else { 0.0 },
                identical: seq_digest == par_digest
                    && seq_report.simulation == par_report.simulation
                    && seq_report.summary.committed == par_report.summary.committed,
                digest: seq_digest.to_hex(),
            }
        })
        .collect();
    ParallelSweep {
        threads: threads.to_string(),
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        points,
    }
}

/// The peak resident-set size (high-water mark) of this process in MiB, read
/// from `/proc/self/status` (`VmHWM`). Returns 0 on platforms without procfs.
/// The kernel counter is process-wide and monotone, so successive curve
/// points report the running maximum — exactly what a memory ceiling gates.
pub fn peak_rss_mb() -> f64 {
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                if let Some(kb) = rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                {
                    return kb / 1024.0;
                }
            }
        }
    }
    0.0
}

/// One point of the fig8xl bounded-memory scaling sweep: a fig8-style
/// deployment pushed to 32–128 clusters and ≥100k closed-loop clients, run
/// with ledger truncation on so retained state — and the harness's peak RSS —
/// stays bounded while the logical chain keeps growing.
#[derive(Debug, Clone)]
pub struct Fig8xlPoint {
    /// Number of clusters (= shards).
    pub clusters: usize,
    /// Total replicas across all clusters (crash model, f = 1 ⇒ 3 each).
    pub replicas: usize,
    /// Closed-loop clients driving the deployment.
    pub clients: usize,
    /// Transactions committed in the measurement window.
    pub committed: usize,
    /// Steady-state simulated throughput.
    pub throughput_tps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Blocks retained across all replica ledger views after the run.
    pub retained_blocks: usize,
    /// Logical chain length across all replica ledger views (what retain-all
    /// would have kept in memory).
    pub logical_blocks: usize,
    /// The checkpoint interval the run truncated with.
    pub checkpoint_interval: usize,
    /// The per-view retained-block floor the run truncated with.
    pub retain_blocks: usize,
    /// Process peak RSS in MiB after this point (running maximum).
    pub peak_rss_mb: f64,
    /// Wall-clock milliseconds the point took.
    pub wall_ms: f64,
}

/// The fig8xl sweep: every point plus the host environment.
#[derive(Debug, Clone)]
pub struct Fig8xlSweep {
    /// The simulator thread mode the sweep ran under.
    pub threads: String,
    /// Worker threads available to the harness process.
    pub host_cpus: usize,
    /// Maximum simulated throughput over all points (the perfgate headline).
    pub max_throughput_tps: f64,
    /// One point per cluster count.
    pub points: Vec<Fig8xlPoint>,
}

/// The truncation policy of the fig8xl sweep: checkpoint every 32 blocks,
/// retain a 64-block tail per view — far above the cross-shard probe horizon,
/// far below the full chain.
pub const FIG8XL_LEDGER: LedgerConfig = LedgerConfig {
    checkpoint_interval: 32,
    retain_blocks: 64,
};

/// Runs the fig8xl bounded-memory scaling sweep: crash model, 10%
/// cross-shard, 16-transaction batches, `clients_per_cluster` closed-loop
/// clients per cluster, ledger truncation per [`FIG8XL_LEDGER`]. Reports
/// peak RSS and retained-vs-logical block counts per curve point so CI can
/// gate both the throughput and the memory ceiling.
pub fn figure_fig8xl(
    cluster_counts: &[usize],
    clients_per_cluster: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> Fig8xlSweep {
    let points: Vec<Fig8xlPoint> = cluster_counts
        .iter()
        .map(|&clusters| {
            let clients = clients_per_cluster * clusters;
            let mut params = SystemParams::new(FailureModel::Crash, clusters, 1)
                .with_batching(BatchConfig::with_size(16))
                .with_threads(threads)
                .with_ledger(FIG8XL_LEDGER);
            params.accounts_per_shard = ACCOUNTS_PER_SHARD;
            params.warmup = SimTime::from_millis(300);
            params.initiation_policy = InitiationPolicy::SuperPrimary;
            let mut system = SharperSystem::build(params, clients, |client| {
                let mut cfg = WorkloadConfig::evaluation(clusters as u32, 0.10);
                cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
                WorkloadGenerator::new(client, cfg)
            });
            let started = Instant::now();
            let report = system.run(duration);
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
            let (retained_blocks, logical_blocks) = system.ledger_footprint();
            Fig8xlPoint {
                clusters,
                replicas: clusters * 3,
                clients,
                committed: report.summary.committed,
                throughput_tps: report.summary.throughput_tps,
                latency_ms: report.summary.mean_latency_ms,
                retained_blocks,
                logical_blocks,
                checkpoint_interval: FIG8XL_LEDGER.checkpoint_interval,
                retain_blocks: FIG8XL_LEDGER.retain_blocks,
                peak_rss_mb: peak_rss_mb(),
                wall_ms,
            }
        })
        .collect();
    let max_throughput_tps = points.iter().fold(0.0f64, |m, p| m.max(p.throughput_tps));
    Fig8xlSweep {
        threads: threads.to_string(),
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        max_throughput_tps,
        points,
    }
}

/// The host fields of every BENCH document that holds wall-clock numbers:
/// they mean nothing without the core count, and are comparable only between
/// hosts hashing on the same SHA-256 kernel.
fn host_json(host_cpus: usize) -> String {
    format!(
        "\"host_cpus\":{host_cpus},\"sha256_kernel\":{}",
        json_string(sharper_crypto::sha256::kernel())
    )
}

/// Renders the fig8xl sweep as the `BENCH_fig8xl.json` document.
pub fn fig8xl_to_json(sweep: &Fig8xlSweep) -> String {
    let points: Vec<String> = sweep
        .points
        .iter()
        .map(|p| {
            format!(
                "{{\"clusters\":{},\"replicas\":{},\"clients\":{},\"committed\":{},\
                 \"throughput_tps\":{:.3},\"latency_ms\":{:.3},\"retained_blocks\":{},\
                 \"logical_blocks\":{},\"checkpoint_interval\":{},\"retain_blocks\":{},\
                 \"peak_rss_mb\":{:.1},\"wall_ms\":{:.1}}}",
                p.clusters,
                p.replicas,
                p.clients,
                p.committed,
                p.throughput_tps,
                p.latency_ms,
                p.retained_blocks,
                p.logical_blocks,
                p.checkpoint_interval,
                p.retain_blocks,
                p.peak_rss_mb,
                p.wall_ms
            )
        })
        .collect();
    format!(
        "{{\"figure\":\"fig8xl\",\"threads\":{},{},\"max_throughput_tps\":{:.3},\
         \"points\":[{}]}}",
        json_string(&sweep.threads),
        host_json(sweep.host_cpus),
        sweep.max_throughput_tps,
        points.join(",")
    )
}

/// One point of the partitioned-executor sweep: the same uniform transfer
/// stream applied through the partitioned scheduler and through the serial
/// executor, with the modelled apply-path cost of each.
#[derive(Debug, Clone)]
pub struct ExecPoint {
    /// State partitions of the shard's account store.
    pub partitions: usize,
    /// Worker threads offered to the partitioned scheduler.
    pub exec_threads: usize,
    /// Transactions per committed batch.
    pub batch_size: usize,
    /// Total transactions applied across all batches.
    pub txs: usize,
    /// Sum of the per-batch critical-path lengths, in scheduler work units.
    pub makespan_units: u64,
    /// Sum of the per-batch serial reference costs, in scheduler work units.
    pub serial_units: u64,
    /// `serial_units / makespan_units` — the plan-level parallelism.
    pub speedup_modeled: f64,
    /// Modelled apply-path throughput of the partitioned schedule
    /// ([`CostModel::execution_batch_scheduled`] per batch).
    pub throughput_tps: f64,
    /// Modelled apply-path throughput of the serial executor
    /// ([`CostModel::execution_batch`] per batch).
    pub serial_tps: f64,
    /// Wall-clock milliseconds of the partitioned pass (host-dependent;
    /// informational only — the gated numbers are the modelled ones).
    pub wall_ms: f64,
    /// Whether the partitioned pass produced bit-identical outcomes and
    /// final state to the serial pass (must always be true).
    pub identical_to_serial: bool,
}

/// The executor sweep: every point plus the host environment.
#[derive(Debug, Clone)]
pub struct ExecSweep {
    /// Worker threads available to the harness process.
    pub host_cpus: usize,
    /// One point per (partitions, exec_threads, batch_size) combination.
    pub points: Vec<ExecPoint>,
}

/// Deterministic SplitMix64 stream used to generate the executor workload.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the partitioned-executor sweep (`figures --fig exec`): a fixed
/// uniform transfer stream over one shard's accounts, applied batch by batch
/// through [`Executor::apply_batch_partitioned`] for every combination of
/// partition count, worker threads and batch size, and differentially
/// checked — outcomes and final state — against the serial
/// [`Executor::apply_batch`].
///
/// Throughput is *modelled* from the schedule's critical path via
/// [`CostModel::execution_batch_scheduled`]; the simulation pipeline always
/// charges the flat serial cost so partitioning can never perturb golden
/// seeds. The headline acceptance claim is ≥1.5× modelled speedup at 4
/// partitions on uniform 16-transaction batches.
pub fn figure_exec(seed: u64, quick: bool) -> ExecSweep {
    let cost = CostModel::default();
    let exec = Executor::new(ClusterId(0), Partitioner::range(1, ACCOUNTS_PER_SHARD));
    let total = if quick { 512 } else { 2_048 };

    // Uniform transfer stream: distinct source/destination accounts drawn
    // uniformly from the shard, amount 1, every source owned by its client
    // (the genesis convention), so under the large genesis balance every
    // transaction applies and the sweep measures scheduling, not aborts.
    let mut rng = seed;
    let txs: Vec<Arc<Transaction>> = (0..total as u64)
        .map(|seq| {
            let from = splitmix64(&mut rng) % ACCOUNTS_PER_SHARD;
            let mut to = splitmix64(&mut rng) % ACCOUNTS_PER_SHARD;
            if to == from {
                to = (to + 1) % ACCOUNTS_PER_SHARD;
            }
            Arc::new(Transaction::transfer(
                ClientId(from),
                seq,
                AccountId(from),
                AccountId(to),
                1,
            ))
        })
        .collect();

    let mut points = Vec::new();
    for &partitions in &[1usize, 2, 4, 8] {
        for &exec_threads in &[1usize, 4] {
            for &batch_size in &[4usize, 16, 64] {
                // Partitioned pass.
                let mut split =
                    exec.genesis_partitioned(partitions, ACCOUNTS_PER_SHARD, 1_000_000, ClientId);
                let mut outcomes = Vec::with_capacity(total);
                let mut makespan_units = 0u64;
                let mut serial_units = 0u64;
                let mut sched_us = 0u64;
                let started = Instant::now();
                for chunk in txs.chunks(batch_size) {
                    let r = exec.apply_batch_partitioned(&mut split, chunk, exec_threads);
                    sched_us += cost
                        .execution_batch_scheduled(r.makespan_units, TX_UNITS)
                        .as_micros();
                    makespan_units += r.makespan_units;
                    serial_units += r.serial_units;
                    outcomes.extend(r.outcomes);
                }
                let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;

                // Serial reference pass on a flat store.
                let mut flat = exec.genesis_store(ACCOUNTS_PER_SHARD, 1_000_000, ClientId);
                let mut serial_outcomes = Vec::with_capacity(total);
                let mut serial_us = 0u64;
                for chunk in txs.chunks(batch_size) {
                    serial_us += cost.execution_batch(chunk.len()).as_micros();
                    serial_outcomes.extend(exec.apply_batch(&mut flat, chunk));
                }

                points.push(ExecPoint {
                    partitions,
                    exec_threads,
                    batch_size,
                    txs: total,
                    makespan_units,
                    serial_units,
                    speedup_modeled: if makespan_units > 0 {
                        serial_units as f64 / makespan_units as f64
                    } else {
                        0.0
                    },
                    throughput_tps: if sched_us > 0 {
                        total as f64 / (sched_us as f64 / 1e6)
                    } else {
                        0.0
                    },
                    serial_tps: if serial_us > 0 {
                        total as f64 / (serial_us as f64 / 1e6)
                    } else {
                        0.0
                    },
                    wall_ms,
                    identical_to_serial: outcomes == serial_outcomes && split.to_store() == flat,
                });
            }
        }
    }
    ExecSweep {
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        points,
    }
}

/// Renders the executor sweep as the `BENCH_exec.json` document.
pub fn exec_to_json(sweep: &ExecSweep) -> String {
    let points: Vec<String> = sweep
        .points
        .iter()
        .map(|p| {
            format!(
                "{{\"partitions\":{},\"exec_threads\":{},\"batch_size\":{},\"txs\":{},\
                 \"makespan_units\":{},\"serial_units\":{},\"speedup_modeled\":{:.3},\
                 \"throughput_tps\":{:.3},\"serial_tps\":{:.3},\"wall_ms\":{:.1},\
                 \"identical_to_serial\":{}}}",
                p.partitions,
                p.exec_threads,
                p.batch_size,
                p.txs,
                p.makespan_units,
                p.serial_units,
                p.speedup_modeled,
                p.throughput_tps,
                p.serial_tps,
                p.wall_ms,
                p.identical_to_serial
            )
        })
        .collect();
    format!(
        "{{\"figure\":\"exec\",{},\"points\":[{}]}}",
        host_json(sweep.host_cpus),
        points.join(",")
    )
}

/// Returns the value following `flag` in `args` — the one tiny piece of CLI
/// parsing shared by this crate's binaries (`figures`, `golden`, `perfgate`).
pub fn cli_flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses the `--threads` flag out of `args` (defaulting to sequential);
/// prints the parse error and exits with status 2 on an invalid value.
pub fn cli_thread_mode(args: &[String]) -> ThreadMode {
    match cli_flag_value(args, "--threads").as_deref() {
        None => ThreadMode::Sequential,
        Some(s) => match ThreadMode::parse(s) {
            Ok(mode) => mode,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    }
}

/// One run of the `golden` determinism matrix: a deployment, the mode
/// (engine, executor or ledger retention) it ran under, and its output line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRun {
    /// The golden deployment's name.
    pub config: &'static str,
    /// The mode the deployment ran under.
    pub mode: &'static str,
    /// `<config> <ledger-digest> <committed> <delivered> <dropped>[ …]`.
    pub line: String,
}

/// The first run of a golden matrix whose line differs from its
/// deployment's reference — the deployment's first run — as
/// `(config, mode)`; `None` when every mode reproduced its reference.
pub fn golden_divergence(runs: &[GoldenRun]) -> Option<(&'static str, &'static str)> {
    let mut references: Vec<&GoldenRun> = Vec::new();
    for run in runs {
        match references.iter().find(|r| r.config == run.config) {
            None => references.push(run),
            Some(reference) if reference.line != run.line => return Some((run.config, run.mode)),
            Some(_) => {}
        }
    }
    None
}

/// Renders the parallel sweep as the `BENCH_parallel.json` document.
pub fn parallel_to_json(sweep: &ParallelSweep) -> String {
    let points: Vec<String> = sweep
        .points
        .iter()
        .map(|p| {
            format!(
                "{{\"clusters\":{},\"replicas\":{},\"clients\":{},\"committed\":{},\
                 \"throughput_tps\":{:.3},\"wall_ms_sequential\":{:.1},\
                 \"wall_ms_parallel\":{:.1},\"speedup\":{:.3},\"identical\":{},\
                 \"digest\":{}}}",
                p.clusters,
                p.replicas,
                p.clients,
                p.committed,
                p.throughput_tps,
                p.wall_ms_sequential,
                p.wall_ms_parallel,
                p.speedup,
                p.identical,
                json_string(&p.digest)
            )
        })
        .collect();
    format!(
        "{{\"figure\":\"parallel\",\"threads\":{},{},\"points\":[{}]}}",
        json_string(&sweep.threads),
        host_json(sweep.host_cpus),
        points.join(",")
    )
}

// ---------------------------------------------------------------------------
// Dynamic resharding under hot-key drift (`figures --fig reshard`)
// ---------------------------------------------------------------------------

/// Clusters in the reshard evaluation deployment (crash model, f = 1).
const RESHARD_CLUSTERS: usize = 3;
/// Width of the drifting hot window in accounts.
const RESHARD_SPAN: u64 = 400;
/// Window drift period in transactions per client stream: short enough that
/// the hot range actually moves a few times within a measurement run, so the
/// figure exercises re-splitting after drift, not just the initial carve-up.
const RESHARD_DRIFT_EVERY: u64 = 300;

/// The hot-window settings of the reshard figure.
fn reshard_hotspot() -> HotspotConfig {
    let mut hs = HotspotConfig::evaluation(RESHARD_SPAN);
    hs.drift_every = RESHARD_DRIFT_EVERY;
    hs
}

/// The reshard policy of the evaluation: single-account load buckets
/// (`buckets_per_shard == ACCOUNTS_PER_SHARD`) so the Zipf head ranks can be
/// carved off the hot shard one by one — a coarser bucket would trap most of
/// the window's mass in one indivisible unit — with tight report/check
/// intervals so the coordinator tracks the drifting window within a fraction
/// of a drift period.
fn reshard_policy() -> ReshardConfig {
    ReshardConfig {
        enabled: true,
        buckets_per_shard: ACCOUNTS_PER_SHARD,
        report_interval: Duration::from_millis(100),
        check_interval: Duration::from_millis(200),
        ..ReshardConfig::enabled()
    }
}

/// The hot-key-drift workload of the reshard figure: 80% of traffic on a
/// drifting [`RESHARD_SPAN`]-account window with Zipf `s = 1.2` (see
/// [`HotspotConfig::evaluation`]), zero baseline cross-shard traffic — every
/// imbalance is the hotspot's.
fn reshard_workload(client: ClientId) -> WorkloadGenerator {
    let mut cfg =
        WorkloadConfig::evaluation(RESHARD_CLUSTERS as u32, 0.0).with_hotspot(reshard_hotspot());
    cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
    WorkloadGenerator::new(client, cfg)
}

/// One operating point of the reshard figure: the same hot-key-drift
/// workload with the resharding plane off ("static") or on ("dynamic").
#[derive(Debug, Clone)]
pub struct ReshardPoint {
    /// "static" (fixed genesis shard map) or "dynamic" (online split/merge).
    pub system: String,
    /// Closed-loop clients driving the deployment.
    pub clients: usize,
    /// Steady-state throughput in transactions per second.
    pub throughput_tps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Transactions committed in the measurement window.
    pub committed: usize,
    /// Reshard handovers applied across all replicas (0 for static).
    pub reshards_applied: usize,
    /// Shard-map redirects clients received (0 for static).
    pub client_redirects: usize,
}

/// One row of the cross-shard fairness table: completions per initiator
/// cluster under 100% cross-shard load.
#[derive(Debug, Clone, Copy)]
pub struct FairnessEntry {
    /// The initiating cluster.
    pub cluster: u32,
    /// Client completions whose request was initiated through this cluster.
    pub completed: usize,
}

/// The full reshard sweep: static vs dynamic under hot-key drift, plus the
/// cross-shard fairness table at 100% cross-shard load.
#[derive(Debug, Clone)]
pub struct ReshardSweep {
    /// Clusters in the deployment.
    pub clusters: usize,
    /// Zipf skew of the hot window.
    pub zipf_s: f64,
    /// Fraction of traffic on the hot window.
    pub hot_ratio: f64,
    /// Hot window width in accounts.
    pub span: u64,
    /// Window drift period in transactions per client stream.
    pub drift_every: u64,
    /// The static and dynamic operating points.
    pub points: Vec<ReshardPoint>,
    /// Dynamic throughput over static throughput (the headline claim is
    /// ≥ 1.3× at Zipf s = 1.2 with a drifting hot range).
    pub dynamic_speedup: f64,
    /// Per-initiator-cluster completions at 100% cross-shard load.
    pub fairness: Vec<FairnessEntry>,
    /// Max/min ratio over the fairness table (the gate is ≤ 1.5×).
    pub fairness_spread: f64,
}

/// Runs one reshard operating point: the hot-key-drift workload with the
/// resharding plane on or off.
pub fn reshard_point(
    dynamic: bool,
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> ReshardPoint {
    let mut params =
        SystemParams::new(FailureModel::Crash, RESHARD_CLUSTERS, 1).with_threads(threads);
    if dynamic {
        params = params.with_reshard(reshard_policy());
    }
    params.accounts_per_shard = ACCOUNTS_PER_SHARD;
    params.warmup = SimTime::from_millis(300);
    let mut system = SharperSystem::build(params, clients, reshard_workload);
    let report = system.run(duration);
    ReshardPoint {
        system: if dynamic { "dynamic" } else { "static" }.to_string(),
        clients,
        throughput_tps: report.summary.throughput_tps,
        latency_ms: report.summary.mean_latency_ms,
        committed: report.summary.committed,
        reshards_applied: report.reshards_applied,
        client_redirects: report.client_redirects,
    }
}

/// Runs the 100% cross-shard fairness deployment (any-involved-cluster
/// initiation, so every cluster initiates) and returns the per-initiator
/// completion table plus its max/min spread.
pub fn reshard_fairness(
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> (Vec<FairnessEntry>, f64) {
    let mut params = SystemParams::new(FailureModel::Crash, RESHARD_CLUSTERS, 1)
        .with_threads(threads)
        .with_initiation_policy(InitiationPolicy::AnyInvolvedCluster);
    params.accounts_per_shard = ACCOUNTS_PER_SHARD;
    params.warmup = SimTime::from_millis(300);
    let mut system = SharperSystem::build(params, clients, |client| {
        let mut cfg = WorkloadConfig::evaluation(RESHARD_CLUSTERS as u32, 1.0);
        cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
        WorkloadGenerator::new(client, cfg)
    });
    let report = system.run(duration);
    let fairness: Vec<FairnessEntry> = report
        .completed_by_initiator
        .iter()
        .map(|(cluster, completed)| FairnessEntry {
            cluster: cluster.0,
            completed: *completed,
        })
        .collect();
    let spread = report.initiator_spread().unwrap_or(f64::INFINITY);
    (fairness, spread)
}

/// Runs the full reshard figure: static vs dynamic under hot-key drift plus
/// the cross-shard fairness table.
pub fn figure_reshard(clients: usize, threads: ThreadMode, duration: SimTime) -> ReshardSweep {
    let hotspot = reshard_hotspot();
    let static_point = reshard_point(false, clients, threads, duration);
    let dynamic_point = reshard_point(true, clients, threads, duration);
    let dynamic_speedup = if static_point.throughput_tps > 0.0 {
        dynamic_point.throughput_tps / static_point.throughput_tps
    } else {
        f64::INFINITY
    };
    // Fairness runs in the conflict-heavy 100% cross-shard regime, where
    // each completion costs a whole-cluster round: 6 clients keeps the run
    // in the regime the rotation fix targets without drowning in timeouts,
    // and a fixed 10-second window accumulates enough completions per
    // initiator (~50+) that the max/min spread measures scheduling bias
    // rather than sampling noise.
    let (fairness, fairness_spread) =
        reshard_fairness(6, threads, duration.max(SimTime::from_secs(10)));
    ReshardSweep {
        clusters: RESHARD_CLUSTERS,
        zipf_s: hotspot.s,
        hot_ratio: hotspot.hot_ratio,
        span: hotspot.span,
        drift_every: hotspot.drift_every,
        points: vec![static_point, dynamic_point],
        dynamic_speedup,
        fairness,
        fairness_spread,
    }
}

/// Renders the reshard sweep as the `BENCH_reshard.json` document.
pub fn reshard_to_json(sweep: &ReshardSweep) -> String {
    let points: Vec<String> = sweep
        .points
        .iter()
        .map(|p| {
            format!(
                "{{\"system\":{},\"clients\":{},\"throughput_tps\":{:.3},\
                 \"latency_ms\":{:.3},\"committed\":{},\"reshards_applied\":{},\
                 \"client_redirects\":{}}}",
                json_string(&p.system),
                p.clients,
                p.throughput_tps,
                p.latency_ms,
                p.committed,
                p.reshards_applied,
                p.client_redirects
            )
        })
        .collect();
    let fairness: Vec<String> = sweep
        .fairness
        .iter()
        .map(|f| {
            format!(
                "{{\"cluster\":{},\"completed\":{}}}",
                f.cluster, f.completed
            )
        })
        .collect();
    format!(
        "{{\"figure\":\"reshard\",\"clusters\":{},\"zipf_s\":{:.2},\"hot_ratio\":{:.2},\
         \"span\":{},\"drift_every\":{},\"points\":[{}],\"dynamic_speedup\":{:.3},\
         \"fairness\":[{}],\"fairness_spread\":{:.3}}}",
        sweep.clusters,
        sweep.zipf_s,
        sweep.hot_ratio,
        sweep.span,
        sweep.drift_every,
        points.join(","),
        sweep.dynamic_speedup,
        fairness.join(","),
        sweep.fairness_spread
    )
}

/// Renders the fairness table as markdown (appended to the CI step summary).
pub fn reshard_fairness_markdown(sweep: &ReshardSweep) -> String {
    let mut body = String::from("### Cross-shard fairness (100% cross-shard load)\n\n");
    body.push_str("| initiator cluster | completed |\n|---:|---:|\n");
    for f in &sweep.fairness {
        body.push_str(&format!("| {} | {} |\n", f.cluster, f.completed));
    }
    body.push_str(&format!(
        "\nmax/min spread {:.3} (gate ≤ 1.5), dynamic/static speedup {:.2}× \
         (gate ≥ 1.3) at Zipf s = {:.1} over a drifting {}-account window\n",
        sweep.fairness_spread, sweep.dynamic_speedup, sweep.zipf_s, sweep.span
    ));
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: SimTime = SimTime(1_500_000); // 1.5 s of simulated time

    #[test]
    fn sharper_point_produces_throughput() {
        let p = sharper_point_threads(
            FailureModel::Crash,
            4,
            0.2,
            8,
            ThreadMode::Sequential,
            QUICK,
        );
        assert!(p.throughput_tps > 0.0);
        assert!(p.latency_ms > 0.0);
        assert!(p.committed > 0);
    }

    #[test]
    fn baseline_point_produces_throughput() {
        let p = baseline_point(BaselineKind::AprC, 0.2, 4, QUICK);
        assert!(p.throughput_tps > 0.0);
    }

    #[test]
    fn figure_systems_cover_four_systems_per_figure() {
        assert_eq!(figure_systems(FailureModel::Crash).len(), 4);
        assert_eq!(figure_systems(FailureModel::Byzantine).len(), 4);
    }

    #[test]
    fn batch_16_gives_at_least_4x_intra_shard_throughput() {
        // The headline acceptance claim of the batching layer: one Byzantine
        // cluster under pure intra-shard load, identical seed/topology and
        // offered load, only max_batch_size varies.
        let point = |batch| {
            sharper_point_batched_threads(
                FailureModel::Byzantine,
                1,
                0.0,
                16,
                batch,
                ThreadMode::Sequential,
                SimTime(1_200_000),
            )
        };
        let (unbatched, batched) = (point(1), point(16));
        assert!(
            batched.throughput_tps >= 4.0 * unbatched.throughput_tps,
            "batch=16 {:.0} tps vs batch=1 {:.0} tps",
            batched.throughput_tps,
            unbatched.throughput_tps
        );
    }

    #[test]
    fn exec_sweep_models_speedup_and_stays_bit_identical() {
        // The headline acceptance claim of the partitioned executor: ≥1.5×
        // modelled apply-path throughput at 4 partitions on uniform 16-tx
        // batches, with every point bit-identical to the serial executor.
        let sweep = figure_exec(0x5EED, true);
        assert!(sweep.points.iter().all(|p| p.identical_to_serial));
        let serial = sweep
            .points
            .iter()
            .find(|p| p.partitions == 1 && p.exec_threads == 1 && p.batch_size == 16)
            .expect("serial point");
        let split = sweep
            .points
            .iter()
            .find(|p| p.partitions == 4 && p.exec_threads == 4 && p.batch_size == 16)
            .expect("partitioned point");
        assert!(
            split.throughput_tps >= 1.5 * serial.serial_tps,
            "partitioned {:.0} tps vs serial {:.0} tps",
            split.throughput_tps,
            serial.serial_tps
        );
        // Its wall-clock numbers are tagged with the host that took them.
        let host = format!(
            "\"host_cpus\":{},\"sha256_kernel\":\"{}\"",
            sweep.host_cpus,
            sharper_crypto::sha256::kernel()
        );
        assert!(exec_to_json(&sweep).contains(&host));
    }

    #[test]
    fn ablation_figure_runs_both_arms_of_both_ablations() {
        let series = figure_ablation(ThreadMode::Sequential, QUICK);
        let labels: Vec<&str> = series.iter().map(|s| s.system.as_str()).collect();
        assert_eq!(
            labels,
            [
                "super-primary 20%",
                "any-initiator 20%",
                "super-primary 80%",
                "any-initiator 80%",
                "global-f 2 clusters",
                "group-aware 5 clusters",
            ]
        );
        let points: Vec<&CurvePoint> = series.iter().flat_map(|s| &s.points).collect();
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| p.committed > 0));
        let clients: Vec<usize> = points.iter().map(|p| p.clients).collect();
        assert_eq!(clients, [8, 8, 8, 8, 8, 20]);
        // The BENCH document is one perfgate can read: one throughput per
        // point, in series order, as rendered (three decimals).
        let parsed = throughput_values(&figure_to_json("ablation", &series));
        let rendered: Vec<f64> = points
            .iter()
            .map(|p| format!("{:.3}", p.throughput_tps).parse().unwrap())
            .collect();
        assert_eq!(parsed, rendered);
    }

    #[test]
    fn golden_divergence_names_the_first_differing_config_and_mode() {
        let run = |config, mode, line: &str| GoldenRun {
            config,
            mode,
            line: line.to_string(),
        };
        let mut runs = vec![
            run("a", "sequential", "a 01 5 9 0"),
            run("a", "per-cluster", "a 01 5 9 0"),
            run("b", "sequential", "b 02 7 3 1"),
            run("b", "per-cluster", "b 02 7 3 1"),
            run("b", "retain-8,64", "b 02 7 3 1"),
        ];
        assert_eq!(golden_divergence(&runs), None);
        // Each deployment is held to its own reference, not to another's.
        runs[3].line = "b 03 7 3 1".to_string();
        runs[4].line = "b 04 7 3 1".to_string();
        assert_eq!(golden_divergence(&runs), Some(("b", "per-cluster")));
    }

    #[test]
    fn sharper_beats_non_sharded_baselines_on_intra_shard_load() {
        // The headline claim behind Fig. 6(a): with no cross-shard
        // transactions, four independent clusters outperform a single
        // consensus group by a wide margin. Enough clients are needed to
        // push the single APR-C group into saturation.
        let sharper = sharper_point_threads(
            FailureModel::Crash,
            4,
            0.0,
            224,
            ThreadMode::Sequential,
            QUICK,
        );
        let apr = baseline_point(BaselineKind::AprC, 0.0, 224, QUICK);
        assert!(
            sharper.throughput_tps > 1.5 * apr.throughput_tps,
            "SharPer {:.0} tps vs APR-C {:.0} tps",
            sharper.throughput_tps,
            apr.throughput_tps
        );
    }
}
