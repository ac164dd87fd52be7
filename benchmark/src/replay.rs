//! Where a run's wall time goes, estimated from outside the program: the
//! blocks a finished deployment retained are pushed back through each layer's
//! public calls, one layer at a time, and the time is scaled to what every
//! replica did over the whole run. What the replays do not cover — replica
//! handlers, signatures, the message plane — is the unattributed remainder
//! that spans inside the program will have to split.

use crate::deploy::{representatives, SimOutcome};
use crate::nullsim::{null_simulation, NullLoad};
use crate::spans::Spans;
use crate::workloads::{Workload, INITIAL_BALANCE};
use sharper_bench::ACCOUNTS_PER_SHARD;
use sharper_common::{ClientId, ClusterId, ThreadMode};
use sharper_core::SharperSystem;
use sharper_ledger::{audit_replica_views, Batch, Block, LedgerView};
use sharper_state::Executor;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Estimated wall seconds one seed's `core.run` spent in each replayed part.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCosts {
    pub network_engine_s: f64,
    pub state_apply_s: f64,
    pub ledger_block_build_s: f64,
    pub ledger_append_s: f64,
    pub run_epilogue_s: f64,
}

impl ReplayCosts {
    pub fn add(&mut self, other: &ReplayCosts) {
        self.network_engine_s += other.network_engine_s;
        self.state_apply_s += other.state_apply_s;
        self.ledger_block_build_s += other.ledger_block_build_s;
        self.ledger_append_s += other.ledger_append_s;
        self.run_epilogue_s += other.run_epilogue_s;
    }

    /// Everything the replays account for.
    pub fn total_s(&self) -> f64 {
        self.network_engine_s
            + self.state_apply_s
            + self.ledger_block_build_s
            + self.ledger_append_s
            + self.run_epilogue_s
    }
}

fn timed<R>(spans: &mut Spans, name: &'static str, seed: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = spans.scope(name, seed, |_| f());
    (out, started.elapsed().as_secs_f64())
}

pub fn replay(
    w: &Workload,
    system: &mut SharperSystem,
    outcome: &SimOutcome,
    seed: u64,
    spans: &mut Spans,
) -> ReplayCosts {
    let mut costs = ReplayCosts::default();
    let cfg = system.config().clone();

    for rep in representatives(system) {
        let cluster = rep.cluster();
        let retained: Vec<&Block> = rep.ledger().blocks().filter(|b| !b.is_genesis()).collect();
        if retained.is_empty() {
            continue;
        }
        // Every replica of the cluster appended its whole chain; the replay
        // covers the retained blocks of one of them.
        let appended: usize = cfg
            .system
            .members(cluster)
            .expect("configured cluster")
            .iter()
            .filter_map(|node| system.replica(*node))
            .map(|r| r.ledger().len() - 1)
            .sum();
        let scale = appended as f64 / retained.len() as f64;

        // Re-chained on a fresh view, so a truncated ledger replays too.
        let (rebuilt, build_s) = timed(spans, "replay.ledger_block_build", seed, || {
            let mut head = Block::genesis().digest();
            retained
                .iter()
                .map(|block| {
                    let batch = Batch::new(block.txs().to_vec());
                    let rebuilt = Block::batch(batch, BTreeMap::from([(cluster, head)]));
                    head = rebuilt.digest();
                    rebuilt
                })
                .collect::<Vec<Block>>()
        });
        costs.ledger_block_build_s += build_s * scale;

        let ((), append_s) = timed(spans, "replay.ledger_append", seed, || {
            let mut view = LedgerView::new(cluster);
            for block in rebuilt {
                view.append(block).expect("rebuilt chain appends");
                view.maybe_checkpoint(&w.ledger)
                    .expect("rebuilt chain folds");
            }
            black_box(view.head());
        });
        costs.ledger_append_s += append_s * scale;

        let exec = Executor::new(cluster, cfg.partitioner.clone());
        let mut store = exec.genesis_partitioned(
            w.exec.partitions,
            ACCOUNTS_PER_SHARD,
            INITIAL_BALANCE,
            ClientId,
        );
        let ((), apply_s) = timed(spans, "replay.state_apply", seed, || {
            for block in &retained {
                if w.exec.is_partitioned() {
                    black_box(exec.apply_batch_partitioned(
                        &mut store,
                        block.txs(),
                        w.exec.exec_threads,
                    ));
                } else {
                    black_box(exec.apply_batch(&mut store, block.txs()));
                }
            }
        });
        costs.state_apply_s += apply_s * scale;
    }

    let report = &outcome.simulation;
    let events = report.delivered + report.timers_fired + report.deferred;
    let mut null = null_simulation(
        w.clusters,
        w.clients,
        NullLoad::Messages,
        ThreadMode::Sequential,
        seed,
    );
    let (delivered, engine_s) = timed(spans, "replay.network_engine", seed, || {
        null.run_to_quiescence(events).delivered
    });
    // The start-up sends are not events, so the null run delivers `events`.
    costs.network_engine_s = engine_s * events as f64 / delivered.max(1) as f64;

    // A second run to the same time delivers nothing: what it costs is the
    // end of every run — summarise, clone every ledger view, audit them.
    let ((), epilogue_s) = timed(spans, "replay.run_epilogue", seed, || {
        black_box(system.run(w.end()));
    });
    costs.run_epilogue_s = epilogue_s;

    // The same audit through the ledger crate's own entry point, for the trace.
    let views: Vec<(ClusterId, LedgerView)> = spans.scope("ledger.view_clone", seed, |_| {
        cfg.system
            .node_ids()
            .filter_map(|node| system.replica(node))
            .map(|r| (r.cluster(), r.ledger().clone()))
            .collect()
    });
    spans.scope("ledger.audit_replica_views", seed, |_| {
        audit_replica_views(&views).expect("a run that finished passes its audit")
    });
    costs
}
