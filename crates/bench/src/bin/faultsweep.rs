//! The fault gate: a seed sweep over faulty deployments in which every run
//! is traced and must pass every oracle.
//!
//! Usage:
//!   cargo run -p sharper-bench --release --bin faultsweep -- \
//!       --seeds 32 --secs 3 --out fault-out
//!
//! Scenarios, each varied from [`Deployment::gate`] (crash model, 4 clusters
//! with f = 1, 8 clients, 10 % cross-shard load): `clean`; `loss` (2 %
//! message loss); `crash` (backup node 1 crashes at 300 ms); `loss+crash`;
//! `cascade` (f = 2, cluster 0's view-0 primary crashes at 300 ms and its
//! successor 1.2 s later); `byzantine` (PBFT clusters); `reshard` (a
//! load-driven reshard plane under a drifting Zipfian hotspot); `fairness`
//! (3 clusters, 6 clients, 100 % cross-shard, any involved cluster
//! initiates, at least 10 simulated seconds). Each runs seeds `0..--seeds`
//! (`fairness` 0–3) plus the pinned seeds: 1 and 2, at which `loss+crash`
//! once forked a cluster through the ballot-less view-change replay, and the
//! trace seed 42, at which it once livelocked behind a lost `XAbort`.
//!
//! Every run must pass the ledger audit inside `SharperSystem::run` (it
//! panics on a forked cluster or a cross-shard commit missing from an
//! involved cluster), commit at least 20 distinct transactions, keep every
//! cluster live (some member commits at least 2 blocks, so a crashed member
//! does not count against its cluster), satisfy the trace invariants I1–I4
//! ([`check_invariants`]) and pass its scenario's own check: `reshard`
//! traces at least one `ReshardApply`; under `fairness` every initiator
//! cluster completes at least 25 transactions and the most at most 1.5x the
//! fewest. As a negative control, the clean trace at the trace seed with its
//! quorum-phase events dropped must fail the invariants.
//!
//! `--out DIR` receives `faultsweep.txt` (one `PASS`/`FAIL` line per run,
//! the negative control and the summary), `BENCH_phases.json` (the
//! per-phase latency breakdown of each scenario at the trace seed, except
//! `fairness`, whose all-cross-shard run is a regime of its own) and
//! `trace-clean-sample.jsonl` (the clean trace at the trace seed). The
//! process exits 1 if any check fails.

use sharper_bench::cli_flag_value;
use sharper_bench::gate::Deployment;
use sharper_bench::trace::{analyze, check_invariants, phases_to_json};
use sharper_common::{
    trace_to_jsonl, ClusterId, Duration, FailureModel, InitiationPolicy, NodeId, SimTime,
    SystemConfig, TraceEvent, TraceKind,
};
use sharper_core::RunReport;
use sharper_net::FaultPlan;
use std::any::Any;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The seed every scenario also runs at. Its traces give the phase
/// breakdowns, and the clean one is the sample artifact.
const TRACE_SEED: u64 = 42;
/// Seeds every scenario runs besides its sweep: past regressions.
const PINNED_SEEDS: [u64; 3] = [1, 2, TRACE_SEED];
/// Minimum committed blocks a cluster's best member must reach to count as
/// live, and minimum distinct transactions for the run overall.
const MIN_BLOCKS_PER_CLUSTER: usize = 2;
const MIN_DISTINCT_TXS: usize = 20;
/// Cross-shard fairness: no initiator cluster may complete more than 1.5x
/// the transactions of the slowest one. Before the digest-rotated conflict
/// priority, cluster 0 starved the high-numbered initiators and this ratio
/// diverged.
const FAIRNESS_SPREAD_LIMIT: f64 = 1.5;
/// Seeds of the fairness scenario: each run is at least 10 simulated
/// seconds, so the set is small and independent of `--seeds`.
const FAIRNESS_SEEDS: u64 = 4;
/// Minimum completions per initiator for the spread to be meaningful.
const FAIRNESS_MIN_COMPLETED: usize = 25;

/// What a scenario checks beyond the oracles every run passes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    Live,
    /// The reshard plane actually moved a range.
    Reshard,
    /// Per-initiator completions stay within [`FAIRNESS_SPREAD_LIMIT`].
    Fairness,
}

struct Scenario {
    deployment: Deployment,
    check: Check,
}

fn scenarios(secs: u64) -> Vec<Scenario> {
    let run_for = SimTime::from_secs(secs);
    let gate = |name, faults| Deployment {
        faults,
        run_for,
        ..Deployment::gate(name)
    };
    let loss = || FaultPlan::none().with_drop_probability(0.02);
    let backup_crash = |plan: FaultPlan| plan.with_crash(NodeId(1), SimTime::from_millis(300));
    let primary_cascade = FaultPlan::none().with_crash_cascade(
        [NodeId(0), NodeId(1)],
        SimTime::from_millis(300),
        Duration::from_millis(1_200),
    );
    let fairness = Deployment {
        clusters: 3,
        clients: 6,
        cross_ratio: 1.0,
        initiation: InitiationPolicy::AnyInvolvedCluster,
        warmup: SimTime::from_millis(300),
        run_for: run_for.max(SimTime::from_secs(10)),
        ..Deployment::gate("fairness")
    };
    let cascade = Deployment {
        f: 2,
        ..gate("cascade", primary_cascade)
    };
    let byzantine = Deployment {
        model: FailureModel::Byzantine,
        ..gate("byzantine", FaultPlan::none())
    };
    let reshard = gate("reshard", FaultPlan::none()).with_drifting_hotspot();
    let scenario = |deployment, check| Scenario { deployment, check };
    vec![
        scenario(gate("clean", FaultPlan::none()), Check::Live),
        scenario(gate("loss", loss()), Check::Live),
        scenario(gate("crash", backup_crash(FaultPlan::none())), Check::Live),
        scenario(gate("loss+crash", backup_crash(loss())), Check::Live),
        scenario(cascade, Check::Live),
        scenario(byzantine, Check::Live),
        scenario(reshard, Check::Reshard),
        scenario(fairness, Check::Fairness),
    ]
}

/// The message of a caught panic: the audit's safety violation.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("run panicked")
}

/// Runs one scenario at one seed, traced: the verdict (the `PASS` detail or
/// the failure) and the trace, empty when the run panicked.
fn run_one(scenario: &Scenario, seed: u64) -> (Result<String, String>, Vec<TraceEvent>) {
    let d = Deployment {
        seed,
        ..scenario.deployment.clone()
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut system = d.build(d.params().with_tracing(true));
        let report = system.run(d.run_for);
        (report, system.take_trace(), system.config().system.clone())
    }));
    match outcome {
        Ok((report, trace, system)) => (check(scenario, &report, &system, &trace), trace),
        Err(panic) => (
            Err(format!("audit panic: {}", panic_message(&*panic))),
            vec![],
        ),
    }
}

/// The oracles of a run that did not panic.
fn check(
    scenario: &Scenario,
    report: &RunReport,
    system: &SystemConfig,
    trace: &[TraceEvent],
) -> Result<String, String> {
    let audit = &report.audit;
    if audit.distinct_transactions < MIN_DISTINCT_TXS {
        let txs = audit.distinct_transactions;
        return Err(format!("insufficient progress: {txs} distinct txs"));
    }
    let mut best = vec![0usize; scenario.deployment.clusters];
    for (node, stats) in &report.replica_stats {
        let cluster = system.cluster_of(*node).expect("a replica's cluster").0 as usize;
        best[cluster] = best[cluster].max(stats.committed_blocks);
    }
    if let Some(c) = best.iter().position(|&b| b < MIN_BLOCKS_PER_CLUSTER) {
        let blocks = best[c];
        return Err(format!(
            "cluster {c} wedged: best member committed {blocks} blocks"
        ));
    }
    let violations = check_invariants(trace);
    if let Some(first) = violations.first() {
        let (n, events) = (violations.len(), trace.len());
        return Err(format!(
            "{n} trace violations in {events} events, first: {first}"
        ));
    }
    let live = format!(
        "{} distinct_txs, {} cross, best blocks {best:?}",
        audit.distinct_transactions, audit.cross_shard_transactions
    );
    match scenario.check {
        Check::Live => Ok(live),
        Check::Reshard => {
            let applies = trace
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::ReshardApply { .. }))
                .count();
            if applies == 0 {
                return Err("no ReshardApply in the trace: the scenario exercised nothing".into());
            }
            Ok(format!("{live}, {applies} reshard applies"))
        }
        Check::Fairness => {
            let initiated = &report.completed_by_initiator;
            let completions: Vec<usize> = (0..scenario.deployment.clusters as u32)
                .map(|c| initiated.get(&ClusterId(c)).copied().unwrap_or(0))
                .collect();
            let spread = report.initiator_spread().unwrap_or(f64::INFINITY);
            let detail = format!("initiator completions {completions:?}, spread {spread:.3}");
            let starved = completions.iter().any(|&c| c < FAIRNESS_MIN_COMPLETED);
            if starved || spread > FAIRNESS_SPREAD_LIMIT {
                return Err(format!("unfair: {detail}"));
            }
            Ok(detail)
        }
    }
}

/// Forges a trace the invariants must reject: drops every quorum-phase
/// event (propose/accept, xpropose/xaccept) while keeping the commits, the
/// classic "commit without quorum".
fn forge(trace: &[TraceEvent]) -> Vec<TraceEvent> {
    let quorum_phase = |kind: &TraceKind| {
        matches!(
            kind,
            TraceKind::Propose { .. }
                | TraceKind::Accept { .. }
                | TraceKind::XPropose { .. }
                | TraceKind::XAccept { .. }
        )
    };
    trace
        .iter()
        .filter(|e| !quorum_phase(&e.kind))
        .cloned()
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name, default| {
        cli_flag_value(&args, name)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let (seeds, scenarios) = (flag("--seeds", 32), scenarios(flag("--secs", 3)));
    let mut jobs = BTreeSet::new();
    for (i, s) in scenarios.iter().enumerate() {
        let sweep = match s.check {
            Check::Fairness => FAIRNESS_SEEDS,
            _ => seeds,
        };
        jobs.extend((0..sweep).chain(PINNED_SEEDS).map(|seed| (i, seed)));
    }
    let jobs: Vec<(usize, u64)> = jobs.into_iter().collect();

    // The audit panics on a safety violation; keep the default hook from
    // spamming a backtrace per failing seed — the sweep reports them itself.
    std::panic::set_hook(Box::new(|_| {}));
    let next = AtomicUsize::new(0);
    type RunOutcome = (usize, u64, Result<String, String>, Vec<TraceEvent>);
    let results: Mutex<Vec<RunOutcome>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(&(i, seed)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let (verdict, trace) = run_one(&scenarios[i], seed);
                    // Only the trace seed's traces are kept for the artifacts.
                    let trace = if seed == TRACE_SEED { trace } else { vec![] };
                    let mut results = results.lock().expect("no worker panics holding the lock");
                    results.push((i, seed, verdict, trace));
                }
            });
        }
    });
    let _ = std::panic::take_hook();

    let mut results = results
        .into_inner()
        .expect("no worker panics holding the lock");
    results.sort_by_key(|&(i, seed, ..)| (i, seed));
    let runs = results.len();
    let (mut lines, mut failures, mut breakdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut clean_trace = Vec::new();
    for (i, seed, verdict, trace) in results {
        let name = scenarios[i].deployment.name;
        lines.push(match verdict {
            Ok(detail) => format!("PASS {name} seed {seed}: {detail}"),
            Err(reason) => {
                failures.push(format!("{name} seed {seed}"));
                format!("FAIL {name} seed {seed}: {reason}")
            }
        });
        if seed == TRACE_SEED && scenarios[i].check != Check::Fairness {
            breakdowns.push((name.to_string(), analyze(&trace)));
        }
        if seed == TRACE_SEED && name == "clean" {
            clean_trace = trace;
        }
    }
    let rejected = check_invariants(&forge(&clean_trace)).len();
    if rejected > 0 {
        lines.push(format!(
            "PASS negative control: corrupted trace rejected with {rejected} violations"
        ));
    } else {
        failures.push("negative control".to_string());
        lines.push("FAIL negative control: corrupted trace passed the analyzer".to_string());
    }
    let (failed, checks) = (failures.len(), runs + 1);
    lines.push(if failures.is_empty() {
        format!("FAULTSWEEP OK: {runs} runs clean")
    } else {
        format!(
            "FAULTSWEEP FAILED: {failed}/{checks} checks failed: {}",
            failures.join(", ")
        )
    });
    println!("{}", lines.join("\n"));

    if let Some(dir) = cli_flag_value(&args, "--out") {
        let files = [
            ("faultsweep.txt", lines.join("\n") + "\n"),
            ("BENCH_phases.json", phases_to_json(&breakdowns)),
            ("trace-clean-sample.jsonl", trace_to_jsonl(&clean_trace)),
        ];
        for (name, body) in files {
            let path = Path::new(&dir).join(name);
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body))
            {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
