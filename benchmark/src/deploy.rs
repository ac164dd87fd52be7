//! Runs one seed of a workload through the public `SharperSystem` calls,
//! timing the build and the run, containing a panic, and checking the outcome.

use crate::simmetrics::{max_stall_us, reservation_holds_us, ClientView, CrossRounds, Window};
use crate::spans::Spans;
use crate::workloads::{Workload, INITIAL_BALANCE, LATENCY_LIMIT_MS};
use sharper_bench::trace::{analyze, PhaseBreakdown};
use sharper_bench::ACCOUNTS_PER_SHARD;
use sharper_common::{percentile_us, ClientId, ClusterId, NodeId, TraceEvent, TraceKind, TxId};
use sharper_consensus::Replica;
use sharper_core::{RunReport, SharperSystem};
use sharper_crypto::Digest;
use sharper_net::{LatencySummary, SimulationReport};
use sharper_state::Operation;
use sharper_workload::WorkloadGenerator;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Everything modelled that an untraced run reports. For one seed it must be
/// equal in every pass, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub digest: Digest,
    pub summary: LatencySummary,
    pub simulation: SimulationReport,
    pub completed: usize,
    pub retransmissions: usize,
    /// Transactions and blocks appended, and view changes started, summed
    /// over the replicas.
    pub appended_txs: usize,
    pub appended_blocks: usize,
    pub view_changes: usize,
    /// Blocks resident and blocks ever appended, summed over the replicas.
    pub retained_blocks: usize,
    pub logical_blocks: usize,
}

/// What the traced pass adds for one seed.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    pub clients: ClientView,
    /// Balances summed over one replica per cluster equal the genesis total,
    /// allowing for cross-shard transactions one side has not executed yet.
    pub money_conserved: bool,
    pub max_stall_us: u64,
    pub reservation_holds_us: Vec<u64>,
    pub cross_rounds: CrossRounds,
    pub phases: PhaseBreakdown,
}

/// One seed of one pass.
#[derive(Debug, Clone)]
pub struct SeedRun {
    pub seed: u64,
    /// Wall seconds of `SharperSystem::build`.
    pub build_s: f64,
    /// Wall seconds of `SharperSystem::run`.
    pub run_s: f64,
    /// `Err` holds the panic message of a run that did not finish.
    pub outcome: Result<SimOutcome, String>,
    pub trace: Option<TraceOutcome>,
}

impl SeedRun {
    pub fn completed(&self) -> usize {
        self.outcome.as_ref().map_or(0, |o| o.completed)
    }
}

/// Builds and runs one seed. With `tracing`, the trace is analysed and
/// `inspect` sees the finished deployment (for the replays) before it is
/// dropped. A panic inside `run` — the ledger audit — is caught: the seed is
/// reported as failed and the process carries on.
pub fn run_seed(
    w: &Workload,
    seed: u64,
    tracing: bool,
    spans: &mut Spans,
    inspect: impl FnOnce(&mut SharperSystem, &SimOutcome, &mut Spans),
) -> SeedRun {
    let started = Instant::now();
    let mut system = spans.scope("core.build", seed, |spans| {
        SharperSystem::build(w.params(seed, tracing), w.clients, |client| {
            spans.scope("workload.generator_new", seed, |_| {
                w.generator(seed, client)
            })
        })
    });
    let build_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let report = spans.scope("core.run", seed, |_| {
        catch_unwind(AssertUnwindSafe(|| system.run(w.end())))
    });
    let run_s = started.elapsed().as_secs_f64();

    let outcome = match report {
        Ok(report) => Ok(sim_outcome(&system, &report, seed, spans)),
        Err(payload) => Err(panic_message(payload.as_ref())),
    };
    // The audit that panics runs after the simulation, so the trace of a
    // failed seed is whole: its requests are still counted, all as missed.
    let trace = tracing.then(|| {
        let events = spans.scope("core.take_trace", seed, |_| system.take_trace());
        trace_outcome(w, &system, &events, seed, spans)
    });
    if let Ok(outcome) = &outcome {
        inspect(&mut system, outcome, spans);
    }
    SeedRun {
        seed,
        build_s,
        run_s,
        outcome,
        trace,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic without a message".to_string())
}

fn sim_outcome(
    system: &SharperSystem,
    report: &RunReport,
    seed: u64,
    spans: &mut Spans,
) -> SimOutcome {
    let digest = spans.scope("core.ledger_digest", seed, |_| system.ledger_digest());
    let (retained_blocks, logical_blocks) = system.ledger_footprint();
    let sum = |f: fn(&sharper_consensus::replica::ReplicaStats) -> usize| {
        report
            .replica_stats
            .iter()
            .map(|(_, s)| f(s))
            .sum::<usize>()
    };
    SimOutcome {
        digest,
        summary: report.summary,
        simulation: report.simulation,
        completed: report.client_completed,
        retransmissions: report.retransmissions,
        appended_txs: sum(|s| s.committed_intra + s.committed_cross),
        appended_blocks: sum(|s| s.committed_blocks),
        view_changes: sum(|s| s.view_changes_started),
        retained_blocks,
        logical_blocks,
    }
}

/// The replica of each cluster with the longest ledger (the crashed replica
/// of a failover run is behind its peers), in cluster order.
pub fn representatives(system: &SharperSystem) -> Vec<&Replica> {
    let cfg = &system.config().system;
    cfg.cluster_ids()
        .map(|cluster| {
            cfg.members(cluster)
                .expect("configured cluster")
                .iter()
                .filter_map(|node| system.replica(*node))
                .max_by_key(|r| (r.ledger().len(), std::cmp::Reverse(r.node())))
                .expect("a cluster has replicas")
        })
        .collect()
}

/// Transfers only move money, so the balances of one replica per cluster sum
/// to the genesis total — except that a cross-shard transaction one involved
/// cluster has executed and another has not yet has moved only one leg. The
/// trace says which representative executed which cross-shard transaction;
/// the transaction itself is generated again from the seed, because a
/// truncating ledger may already have pruned the block that carried it.
fn money_conserved(w: &Workload, system: &SharperSystem, events: &[TraceEvent], seed: u64) -> bool {
    let reps = representatives(system);
    let partitioner = &system.config().partitioner;
    let genesis = w.clusters as i128 * ACCOUNTS_PER_SHARD as i128 * INITIAL_BALANCE as i128;
    let held: i128 = reps.iter().map(|r| r.store().total_balance() as i128).sum();

    let cluster_of_rep: HashMap<u64, ClusterId> = reps
        .iter()
        .map(|r| (u64::from(r.node().0), r.cluster()))
        .collect();
    let mut executed_by: BTreeMap<TxId, Vec<ClusterId>> = BTreeMap::new();
    for e in events {
        if let (
            TraceKind::Execute {
                txs, cross: true, ..
            },
            Some(cluster),
        ) = (&e.kind, cluster_of_rep.get(&e.rank))
        {
            for tx in txs {
                executed_by.entry(*tx).or_default().push(*cluster);
            }
        }
    }
    // Ordered by client, then sequence number: one generator per client,
    // stepped forward.
    let mut in_flight: i128 = 0;
    let mut stream: Option<(ClientId, u64, WorkloadGenerator)> = None;
    for (id, clusters) in &executed_by {
        let (_, next_seq, generator) = match &mut stream {
            Some(s) if s.0 == id.client => s,
            _ => stream.insert((id.client, 0, w.generator(seed, id.client))),
        };
        let tx = generator
            .nth((id.seq - *next_seq) as usize)
            .expect("an endless stream");
        *next_seq = id.seq + 1;
        assert_eq!(
            tx.id, *id,
            "the stream generates the transaction the client submitted"
        );
        for op in &tx.operations {
            if let Operation::Transfer { from, to, amount } = op {
                let debited = clusters.contains(&partitioner.shard_of(*from));
                let credited = clusters.contains(&partitioner.shard_of(*to));
                in_flight += (credited as i128 - debited as i128) * *amount as i128;
            }
        }
    }
    held == genesis + in_flight
}

fn trace_outcome(
    w: &Workload,
    system: &SharperSystem,
    events: &[TraceEvent],
    seed: u64,
    spans: &mut Spans,
) -> TraceOutcome {
    let window = Window {
        warmup: crate::workloads::WARMUP,
        end: w.end(),
        limit_us: LATENCY_LIMIT_MS * 1_000,
    };
    let cfg = &system.config().system;
    let cluster_of = |rank: u64| {
        u32::try_from(rank)
            .ok()
            .and_then(|n| cfg.cluster_of(NodeId(n)).ok())
            .map(|c| c.0)
    };
    TraceOutcome {
        clients: ClientView::of(events, window),
        money_conserved: money_conserved(w, system, events, seed),
        max_stall_us: max_stall_us(events, window, w.clusters as u32, cluster_of),
        reservation_holds_us: reservation_holds_us(events, w.end()),
        cross_rounds: CrossRounds::of(events),
        phases: spans.scope("bench.trace_analyze", seed, |_| analyze(events)),
    }
}

/// Nearest-rank percentile of sorted microsecond samples in milliseconds, 0
/// without samples.
pub fn percentile_ms(sorted_us: &[u64], pct: u64) -> f64 {
    percentile_us(sorted_us, pct) as f64 / 1_000.0
}
