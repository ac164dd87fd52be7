//! Trace invariant analyzer: runs traced deployments through the faultsweep
//! scenarios, verifies the transaction-lifecycle invariants on every trace
//! and writes the per-phase latency breakdown (`BENCH_phases.json`) plus a
//! sample trace artifact.
//!
//! Usage:
//!   cargo run -p sharper-bench --release --bin tracecheck -- \
//!       --secs 3 --seed 42 --out bench-out
//!
//! Scenarios: a clean run, the three faultsweep fault plans (message loss, a
//! crashed backup, both combined), a staggered primary-crash cascade (f = 2),
//! a clean Byzantine run, and a dynamic-resharding run under a drifting
//! Zipfian hotspot (the lifecycle invariants must survive online shard
//! splits/merges, and the trace must actually contain reshard applies for
//! the scenario to pass). Each is checked with
//! [`sharper_bench::trace::check_invariants`]; any violation fails the
//! process. A deliberately corrupted trace is checked last as a negative
//! control — the analyzer must flag it, proving the gate can actually fail.

use sharper_bench::cli_flag_value;
use sharper_bench::trace::{analyze, check_invariants, phases_to_json, PhaseBreakdown};
use sharper_common::{
    trace_to_jsonl, Duration, FailureModel, NodeId, ReshardConfig, SimTime, TraceEvent, TraceKind,
};
use sharper_core::{SharperSystem, SystemParams};
use sharper_net::FaultPlan;
use sharper_workload::{HotspotConfig, WorkloadConfig, WorkloadGenerator};
use std::io::Write;
use std::path::Path;

const ACCOUNTS: u64 = 1_000;
const CLUSTERS: usize = 4;
const CLIENTS: usize = 8;
const CROSS_RATIO: f64 = 0.1;

struct Scenario {
    name: &'static str,
    model: FailureModel,
    f: usize,
    faults: FaultPlan,
    /// Dynamic-resharding plane; disabled for every scenario but "reshard".
    reshard: Option<ReshardConfig>,
    /// Zipfian hotspot driving load-based splits; None = uniform workload.
    hotspot: Option<HotspotConfig>,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean",
            model: FailureModel::Crash,
            f: 1,
            faults: FaultPlan::none(),
            reshard: None,
            hotspot: None,
        },
        Scenario {
            name: "loss",
            model: FailureModel::Crash,
            f: 1,
            faults: FaultPlan::none().with_drop_probability(0.02),
            reshard: None,
            hotspot: None,
        },
        Scenario {
            name: "crash",
            model: FailureModel::Crash,
            f: 1,
            faults: FaultPlan::none().with_crash(NodeId(1), SimTime::from_millis(300)),
            reshard: None,
            hotspot: None,
        },
        Scenario {
            name: "loss+crash",
            model: FailureModel::Crash,
            f: 1,
            faults: FaultPlan::none()
                .with_drop_probability(0.02)
                .with_crash(NodeId(1), SimTime::from_millis(300)),
            reshard: None,
            hotspot: None,
        },
        // Cascading primary crashes: cluster 0's view-0 primary goes down,
        // then its successor. f = 2 (5 replicas per cluster) keeps the
        // cascade within the fault budget; exercises repeated view changes,
        // so the I4 monotonicity check sees real view-change spans.
        Scenario {
            name: "cascade",
            model: FailureModel::Crash,
            f: 2,
            faults: FaultPlan::none().with_crash_cascade(
                [NodeId(0), NodeId(1)],
                SimTime::from_millis(300),
                Duration::from_millis(1_200),
            ),
            reshard: None,
            hotspot: None,
        },
        Scenario {
            name: "byzantine",
            model: FailureModel::Byzantine,
            f: 1,
            faults: FaultPlan::none(),
            reshard: None,
            hotspot: None,
        },
        // Online resharding under a drifting hotspot: load reports trigger
        // real splits/merges mid-run, so every lifecycle invariant is checked
        // across epoch changes, frozen ranges and handover blocks. The run
        // must contain at least one ReshardApply or it proves nothing.
        Scenario {
            name: "reshard",
            model: FailureModel::Crash,
            f: 1,
            faults: FaultPlan::none(),
            reshard: Some(ReshardConfig {
                buckets_per_shard: 100,
                report_interval: Duration::from_millis(100),
                check_interval: Duration::from_millis(200),
                ..ReshardConfig::default()
            }),
            hotspot: Some(HotspotConfig {
                hot_ratio: 0.8,
                s: 1.2,
                span: 60,
                drift_every: 150,
            }),
        },
    ]
}

fn run_scenario(s: &Scenario, seed: u64, secs: u64) -> (Vec<TraceEvent>, PhaseBreakdown) {
    let mut params = SystemParams::new(s.model, CLUSTERS, s.f)
        .with_faults(s.faults.clone())
        .with_seed(seed)
        .with_tracing(true);
    params.reshard = s.reshard.clone();
    params.accounts_per_shard = ACCOUNTS;
    params.warmup = SimTime::from_millis(200);
    let hotspot = s.hotspot;
    let mut system = SharperSystem::build(params, CLIENTS, move |client| {
        let mut cfg = WorkloadConfig::evaluation(CLUSTERS as u32, CROSS_RATIO);
        cfg.accounts_per_shard = ACCOUNTS;
        cfg.hotspot = hotspot;
        WorkloadGenerator::new(client, cfg)
    });
    system.run(SimTime::from_secs(secs));
    let trace = system.take_trace();
    let breakdown = analyze(&trace);
    (trace, breakdown)
}

/// Corrupts a clean trace so the analyzer must flag it: drops every
/// quorum-phase event (propose/accept, xpropose/xaccept) while keeping the
/// commits, the classic "commit without quorum" forgery.
fn corrupt(trace: &[TraceEvent]) -> Vec<TraceEvent> {
    trace
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                TraceKind::Propose { .. }
                    | TraceKind::Accept { .. }
                    | TraceKind::XPropose { .. }
                    | TraceKind::XAccept { .. }
            )
        })
        .cloned()
        .collect()
}

fn write_file(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(body.as_bytes()))
        .unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let secs: u64 = cli_flag_value(&args, "--secs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let seed: u64 = cli_flag_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let out_dir = cli_flag_value(&args, "--out").unwrap_or_else(|| ".".to_string());
    let out_dir = Path::new(&out_dir);

    let mut failed = false;
    let mut breakdowns: Vec<(String, PhaseBreakdown)> = Vec::new();
    let mut clean_trace: Vec<TraceEvent> = Vec::new();

    for s in scenarios() {
        let (trace, breakdown) = run_scenario(&s, seed, secs);
        let violations = check_invariants(&trace);
        let completed = breakdown.completed;
        if violations.is_empty() {
            println!(
                "PASS {}: {} events, {} completed txs, invariants hold",
                s.name,
                trace.len(),
                completed
            );
        } else {
            failed = true;
            println!(
                "FAIL {}: {} violations in {} events",
                s.name,
                violations.len(),
                trace.len()
            );
            for v in violations.iter().take(20) {
                println!("  {v}");
            }
        }
        if completed == 0 {
            failed = true;
            println!(
                "FAIL {}: no transaction completed — nothing verified",
                s.name
            );
        }
        if s.name == "reshard" {
            let applies = trace
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::ReshardApply { .. }))
                .count();
            if applies == 0 {
                failed = true;
                println!("FAIL reshard: no ReshardApply in trace — scenario exercised nothing");
            } else {
                println!("PASS reshard: {applies} reshard applies traced");
            }
        }
        if s.name == "clean" {
            clean_trace = trace;
        }
        breakdowns.push((s.name.to_string(), breakdown));
    }

    // Negative control: the analyzer must reject a forged trace, otherwise
    // every PASS above is meaningless.
    let forged = corrupt(&clean_trace);
    let violations = check_invariants(&forged);
    if violations.is_empty() {
        failed = true;
        println!("FAIL negative control: corrupted trace passed the analyzer");
    } else {
        println!(
            "PASS negative control: corrupted trace rejected with {} violations",
            violations.len()
        );
    }

    write_file(
        &out_dir.join("BENCH_phases.json"),
        &phases_to_json(&breakdowns),
    );
    write_file(
        &out_dir.join("trace-clean-sample.jsonl"),
        &trace_to_jsonl(&clean_trace),
    );
    println!(
        "wrote {} and {}",
        out_dir.join("BENCH_phases.json").display(),
        out_dir.join("trace-clean-sample.jsonl").display()
    );

    if failed {
        std::process::exit(1);
    }
}
