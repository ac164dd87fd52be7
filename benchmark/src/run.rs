//! One workload run: an untimed warm-up pass, timed passes, one traced pass.
//! Every pass simulates the workload's K seeds; the modelled numbers must be
//! equal in all of them.

use crate::deploy::{percentile_ms, run_seed, SeedRun, SimOutcome, TraceOutcome};
use crate::replay::{replay, ReplayCosts};
use crate::spans::Spans;
use crate::stats::Sample;
use crate::workloads::Workload;
use sharper_bench::peak_rss_mb;
use std::time::Instant;

/// The replays of the traced pass cover its first seeds only; the shares
/// they give are shares of those seeds' run time.
const REPLAYED_SEEDS: usize = 8;
/// The driver ends a run after 180 s; stop adding passes well before.
const RUN_CEILING_S: f64 = 120.0;

/// What one workload run produced. Metric values are `(name, sample)`.
#[derive(Debug)]
pub struct WorkloadRun {
    pub workload: &'static str,
    pub seed: u64,
    /// Audit passed and money conserved on every seed, every pass equal,
    /// traced equal to untraced.
    pub correct: bool,
    /// Requests submitted inside the accounting window, over the K seeds.
    pub attempted: usize,
    /// Requests of seeds whose run did not finish or did not repeat: they
    /// have no result to trust.
    pub failed: usize,
    pub end_to_end: Vec<(&'static str, Sample)>,
    /// Empty unless the run was asked for detail.
    pub per_layer: Vec<(&'static str, Sample)>,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    pub timed_passes: usize,
    /// Wall seconds and simulator events of one timed pass (median).
    pub pass_s: f64,
    pub pass_events: usize,
    pub spans: Spans,
}

struct Pass {
    seeds: Vec<SeedRun>,
}

impl Pass {
    fn setup_s(&self) -> f64 {
        self.seeds.iter().map(|s| s.build_s).sum()
    }
    fn run_s(&self) -> f64 {
        self.seeds.iter().map(|s| s.run_s).sum()
    }
    fn commits(&self) -> usize {
        self.seeds.iter().map(SeedRun::completed).sum()
    }
}

fn trace_of(seed: &SeedRun) -> &TraceOutcome {
    seed.trace.as_ref().expect("a seed of the traced pass")
}

fn median_of(values: impl Iterator<Item = f64>) -> Sample {
    Sample::of(&values.collect::<Vec<_>>())
}

/// Runs `w` from `seed`. Timed passes repeat until they have measured for
/// `seconds`, and at least `min_passes` times. With `detail`, the traced pass
/// also replays each layer and the per-layer metrics of the workload are
/// filled in.
pub fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    detail: bool,
) -> WorkloadRun {
    let process_started = Instant::now();
    let mut off = Spans::new(w.name, false);
    let pass = |tracing: bool, spans: &mut Spans, costs: &mut ReplayCosts| Pass {
        seeds: (0..w.seeds)
            .map(|k| {
                let s = seed.wrapping_add(k as u64);
                run_seed(w, s, tracing, spans, |system, outcome, spans| {
                    if detail && tracing && k < REPLAYED_SEEDS {
                        costs.add(&replay(w, system, outcome, s, spans));
                    }
                })
            })
            .collect(),
    };
    let mut costs = ReplayCosts::default();

    // The first repetition in a process runs slower: one seed runs untimed.
    run_seed(w, seed, false, &mut off, |_, _, _| ());
    let mut timed: Vec<Pass> = Vec::new();
    let measuring = Instant::now();
    while timed.len() < min_passes.max(1)
        || (measuring.elapsed().as_secs_f64() < seconds
            && process_started.elapsed().as_secs_f64() < RUN_CEILING_S)
    {
        timed.push(pass(false, &mut off, &mut costs));
    }
    let reference = &timed[0];
    let peak_rss_mib = peak_rss_mb();
    let mut spans = Spans::new(w.name, true);
    let traced = pass(true, &mut spans, &mut costs);

    // ---- correctness ------------------------------------------------------
    let mut problems = Vec::new();
    let mut seed_ok = vec![true; w.seeds];
    let mut fail = |k: usize, what: String| {
        seed_ok[k] = false;
        problems.push(format!("seed {}: {what}", reference.seeds[k].seed));
    };
    for (k, first) in reference.seeds.iter().enumerate() {
        let outcome = match &first.outcome {
            Ok(outcome) => outcome,
            Err(panic) => {
                fail(k, format!("run panicked: {panic}"));
                continue;
            }
        };
        let same = |p: &Pass| p.seeds[k].outcome.as_ref().ok() == Some(outcome);
        if !timed[1..].iter().all(same) {
            fail(k, "a modelled result differs between passes".into());
        }
        if !same(&traced) {
            fail(k, "traced and untraced results differ".into());
        }
        let trace = trace_of(&traced.seeds[k]);
        if !trace.money_conserved {
            fail(k, "money is not conserved".into());
        }
        let in_window = trace.clients.latencies_us.len();
        if in_window != outcome.summary.committed {
            fail(
                k,
                format!(
                    "the trace holds {in_window} completions in the window, the report {}",
                    outcome.summary.committed
                ),
            );
        }
    }
    let correct = seed_ok.iter().all(|ok| *ok);

    // ---- modelled, per seed: median over the K seeds ------------------------
    let per_seed = |f: &dyn Fn(usize, &SeedRun) -> f64| {
        median_of(traced.seeds.iter().enumerate().map(|(k, s)| f(k, s)))
    };
    // A seed without a trustworthy result commits nothing, answers nothing
    // in time and is without service for its whole run.
    let whole_run_ms = w.sim_ms as f64;
    let sim_tps = per_seed(&|k, s| match (&s.outcome, seed_ok[k]) {
        (Ok(o), true) => o.summary.throughput_tps,
        _ => 0.0,
    });
    let latency = |pct: u64| {
        per_seed(&|k, s| {
            let view = &trace_of(s).clients;
            if seed_ok[k] && !view.latencies_us.is_empty() {
                percentile_ms(&view.latencies_us, pct)
            } else {
                whole_run_ms
            }
        })
    };
    // A healthy cluster's longest pause is about a millisecond and differs by
    // a quarter from seed to seed; it says nothing. A pause shorter than the
    // median request latency is service as usual and reads as that latency.
    let stall = per_seed(&|k, s| {
        let trace = trace_of(s);
        if seed_ok[k] {
            (trace.max_stall_us as f64 / 1_000.0)
                .max(percentile_ms(&trace.clients.latencies_us, 50))
        } else {
            whole_run_ms
        }
    });
    let ok_ratio = per_seed(&|k, s| {
        if seed_ok[k] {
            1.0 - trace_of(s).clients.missed_ratio()
        } else {
            0.0
        }
    });
    let attempted: usize = traced
        .seeds
        .iter()
        .map(|s| trace_of(s).clients.attempted)
        .sum();
    let failed: usize = traced
        .seeds
        .iter()
        .enumerate()
        .filter(|(k, _)| !seed_ok[*k])
        .map(|(_, s)| trace_of(s).clients.attempted)
        .sum();

    // ---- measured: median over the timed passes -----------------------------
    let setup_s = median_of(timed.iter().map(Pass::setup_s));
    let run_s = median_of(timed.iter().map(Pass::run_s));
    let us_per_commit = median_of(
        timed
            .iter()
            .map(|p| p.run_s() * 1e6 / p.commits().max(1) as f64),
    );
    let pass_s = median_of(timed.iter().map(|p| p.setup_s() + p.run_s())).median;

    let end_to_end = vec![
        ("setup_s", setup_s),
        ("sim_tps", sim_tps),
        ("sim_p50_ms", latency(50)),
        ("sim_p99_ms", latency(99)),
        ("sim_max_stall_ms", stall),
        ("ok_ops_ratio", ok_ratio),
        ("host_us_per_commit", us_per_commit),
        ("host_peak_rss_mib", Sample::single(peak_rss_mib)),
        ("audit_ok", Sample::single(if correct { 1.0 } else { 0.0 })),
    ];

    // ---- per layer, for this workload ---------------------------------------
    let finished: Vec<_> = reference
        .seeds
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
        .collect();
    let total =
        |f: &dyn Fn(&SimOutcome) -> usize| finished.iter().map(|o| f(o)).sum::<usize>() as f64;
    let events =
        total(&|o| o.simulation.delivered + o.simulation.timers_fired + o.simulation.deferred);
    let mut per_layer = Vec::new();
    if detail {
        let ratio = |num: f64, den: f64| Sample::single(if den > 0.0 { num / den } else { 0.0 });
        let commits = total(&|o| o.completed);
        let delivered = total(&|o| o.simulation.delivered);
        let outcome_median = |f: &dyn Fn(&SimOutcome) -> f64| {
            if finished.is_empty() {
                Sample::single(0.0)
            } else {
                median_of(finished.iter().map(|o| f(o)))
            }
        };
        let traces: Vec<_> = traced.seeds.iter().map(trace_of).collect();
        let mut holds: Vec<u64> = traces
            .iter()
            .flat_map(|t| t.reservation_holds_us.iter().copied())
            .collect();
        holds.sort_unstable();
        let rounds = |f: &dyn Fn(&crate::simmetrics::CrossRounds) -> usize| {
            traces.iter().map(|t| f(&t.cross_rounds)).sum::<usize>() as f64
        };
        let phase = |f: &dyn Fn(&sharper_bench::trace::PhaseBreakdown) -> f64| {
            median_of(traces.iter().map(|t| f(&t.phases)))
        };
        let traced_run_s = spans.total_s("core.run");
        let replayed_run_s: f64 = traced
            .seeds
            .iter()
            .take(REPLAYED_SEEDS)
            .map(|s| s.run_s)
            .sum();
        let share = |s: f64| Sample::single(s / replayed_run_s);
        per_layer = vec![
            ("network.events_per_commit", ratio(events, commits)),
            ("network.msgs_per_commit", ratio(delivered, commits)),
            (
                "network.timers_per_commit",
                ratio(total(&|o| o.simulation.timers_fired), commits),
            ),
            (
                "network.deferred_per_event",
                ratio(total(&|o| o.simulation.deferred), events),
            ),
            (
                "network.dropped_per_msg",
                ratio(
                    total(&|o| o.simulation.dropped),
                    delivered + total(&|o| o.simulation.dropped),
                ),
            ),
            (
                "network.events_per_s",
                median_of(timed.iter().map(|p| events / p.run_s())),
            ),
            (
                "network.sim_s_per_wall_s",
                median_of(
                    timed
                        .iter()
                        .map(|p| w.seeds as f64 * w.sim_ms as f64 / 1e3 / p.run_s()),
                ),
            ),
            (
                "consensus.batch_fill",
                ratio(total(&|o| o.appended_txs), total(&|o| o.appended_blocks)),
            ),
            (
                "consensus.mempool_wait_p50_us",
                outcome_median(&|o| o.simulation.mempool_wait_p50_us as f64),
            ),
            (
                "consensus.mempool_wait_p99_us",
                outcome_median(&|o| o.simulation.mempool_wait_p99_us as f64),
            ),
            (
                "consensus.mempool_peak_depth",
                outcome_median(&|o| o.simulation.mempool_peak_depth as f64),
            ),
            (
                "consensus.view_changes",
                outcome_median(&|o| o.view_changes as f64),
            ),
            (
                "consensus.xabort_per_xcommit",
                ratio(rounds(&|r| r.aborts_sent), rounds(&|r| r.committed)),
            ),
            (
                "consensus.xpropose_retries_per_xcommit",
                ratio(rounds(&|r| r.repropose), rounds(&|r| r.committed)),
            ),
            (
                "consensus.reservation_hold_p50_ms",
                Sample::single(percentile_ms(&holds, 50)),
            ),
            (
                "consensus.reservation_hold_p99_ms",
                Sample::single(percentile_ms(&holds, 99)),
            ),
            (
                "core.client_retrans_per_commit",
                ratio(total(&|o| o.retransmissions), commits),
            ),
            (
                "sim.phase.submit_to_seal_p50_ms",
                phase(&|p| p.submit_to_seal.percentile_ms(50)),
            ),
            (
                "sim.phase.consensus_intra_p50_ms",
                phase(&|p| p.consensus_intra.percentile_ms(50)),
            ),
            (
                "sim.phase.consensus_cross_p50_ms",
                phase(&|p| p.consensus_cross.percentile_ms(50)),
            ),
            (
                "sim.phase.commit_to_complete_p50_ms",
                phase(&|p| p.commit_to_complete.percentile_ms(50)),
            ),
            (
                "ledger.retained_block_ratio",
                ratio(total(&|o| o.retained_blocks), total(&|o| o.logical_blocks)),
            ),
            (
                "host.span.core_build_s",
                Sample::single(spans.total_s("core.build")),
            ),
            ("host.span.core_run_s", Sample::single(traced_run_s)),
            (
                "host.span.take_trace_s",
                Sample::single(spans.total_s("core.take_trace")),
            ),
            (
                "host.span.trace_analyze_s",
                Sample::single(spans.total_s("bench.trace_analyze")),
            ),
            (
                "host.trace_overhead_ratio",
                Sample::single(traced_run_s / run_s.median),
            ),
            ("host.share.network_engine", share(costs.network_engine_s)),
            ("host.share.state_apply", share(costs.state_apply_s)),
            (
                "host.share.ledger_block_build",
                share(costs.ledger_block_build_s),
            ),
            ("host.share.ledger_append", share(costs.ledger_append_s)),
            ("host.share.run_epilogue", share(costs.run_epilogue_s)),
            (
                "host.share.unattributed",
                share(replayed_run_s - costs.total_s()),
            ),
        ];
    }

    WorkloadRun {
        workload: w.name,
        seed,
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
        problems,
        timed_passes: timed.len(),
        pass_s,
        pass_events: events as usize,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::layers::{self, Timing};
    use crate::report;
    use crate::spec::Spec;
    use crate::workloads::find;
    use sharper_common::FailureModel;
    use std::collections::{BTreeMap, BTreeSet};
    use std::time::Duration;

    fn value(metrics: &[(&'static str, Sample)], name: &str) -> f64 {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is reported"))
            .1
            .median
    }

    /// Known failure, for ROADMAP item 3 (not fixed here): under this
    /// configuration the replicas of one cluster diverge at seed 1 and the
    /// audit at the end of `SharperSystem::run` panics with a
    /// `SafetyViolation`. The harness must report the seed as failed and
    /// carry on. Seeds 7 and 42 pass.
    #[test]
    fn a_seed_whose_audit_panics_is_reported_as_failed_and_the_process_carries_on() {
        let w = Workload {
            name: "byz_cross20_b1",
            model: FailureModel::Byzantine,
            cross_ratio: 0.2,
            seeds: 1,
            sim_ms: 5_000,
            ..find("intra_crash_b1").expect("declared workload")
        };
        let run = run_workload(&w, 1, 0.0, 1, false);
        assert!(!run.correct);
        assert_eq!(value(&run.end_to_end, "audit_ok"), 0.0);
        assert_eq!(
            value(&run.end_to_end, "ok_ops_ratio"),
            0.0,
            "every request of the seed counts as failed"
        );
        assert_eq!(value(&run.end_to_end, "sim_tps"), 0.0);
        assert!(run.attempted > 0 && run.failed == run.attempted);
        assert!(
            run.problems
                .iter()
                .any(|p| p.contains("SafetyViolation") && p.contains("diverge")),
            "{:?}",
            run.problems
        );
    }

    #[test]
    fn every_name_a_run_reports_is_declared_and_every_declared_name_is_reported() {
        let spec = Spec::load();
        let w = Workload {
            clusters: 2,
            clients: 8,
            cross_ratio: 0.1,
            seeds: 2,
            sim_ms: 1_400,
            ..find("intra_crash_b1").expect("declared workload")
        };
        let run = run_workload(&w, 1, 0.0, 1, true);
        assert!(run.correct, "{:?}", run.problems);
        let timing = Timing {
            batch: Duration::from_micros(100),
            batches: 1,
        };
        let layers = layers::run_all(timing);
        let results = report::results_json(
            &spec,
            1,
            BTreeMap::from([(w.name.to_string(), report::run_json(&spec, &w, &run))]),
            &layers,
        );
        let names = |json: Option<&Json>| -> BTreeSet<String> {
            match json {
                Some(Json::Obj(metrics)) => metrics.keys().cloned().collect(),
                other => panic!("expected an object of metrics, found {other:?}"),
            }
        };
        let of_run = results.get("workloads").and_then(|ws| ws.get(w.name));
        let declared = |metrics: &[crate::spec::MetricSpec]| -> BTreeSet<String> {
            metrics.iter().map(|m| m.name.clone()).collect()
        };
        assert_eq!(
            names(of_run.and_then(|r| r.get("end_to_end"))),
            declared(&spec.end_to_end)
        );
        let mut per_layer = names(of_run.and_then(|r| r.get("per_layer")));
        let micro = names(results.get("layers"));
        assert!(per_layer.is_disjoint(&micro));
        per_layer.extend(micro);
        assert_eq!(per_layer, declared(&spec.per_layer));
        // The shares of the replayed run time add up, the remainder included.
        let shares: f64 = run
            .per_layer
            .iter()
            .filter(|(name, _)| name.starts_with("host.share."))
            .map(|(_, s)| s.median)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
    }
}
