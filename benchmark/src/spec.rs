//! The benchmark's declaration. `BENCHMARK.json` at the root of the repo is
//! compiled in and is the one place that names the workloads and metrics and
//! fixes units, directions and regression bounds; the glossary below adds
//! what that file's format has no key for: the kind of each number and what
//! it is expected to move.

use crate::json::Json;

/// Which kind of number a metric holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simulated time or a count under `CostModel::default()` and
    /// `LatencyModel::default()`: repeats exactly for a given seed.
    Modelled,
    /// Host wall clock or memory on this machine.
    Measured,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Modelled => "modelled",
            Kind::Measured => "measured",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("`{key}` must be a list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` must be a string"))
        };
        let metric = |item: &Json| -> Result<MetricSpec, String> {
            Ok(MetricSpec {
                name: text_of(item, "name")?,
                unit: text_of(item, "unit")?,
                higher_is_better: match text_of(item, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: item.get("bound").and_then(Json::as_f64),
            })
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("`run_seconds` must be a number")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

const HOST: &str = "host_us_per_commit";
const ON_B1: &str = "host_us_per_commit on intra_crash_b1; nothing on sim_* anywhere";
const ON_BYZ: &str = "host_us_per_commit on intra_byz_b16, little on intra_crash_b1";
const ON_FAR: &str = "host_us_per_commit on cross10_crash_b16 and failover_lossy_b16";
const ON_RSS: &str =
    "host_peak_rss_mib (retain-all workloads against cross10_crash_b16) and host_us_per_commit on short runs";
const ON_CROSS: &str = "sim_tps, sim_p99_ms and ok_ops_ratio on cross10_crash_b16 only";
const ON_FAILOVER: &str = "sim_max_stall_ms and ok_ops_ratio on failover_lossy_b16 only";
const ON_BATCHING: &str =
    "sim_p50_ms (batching delays the first tx of a batch) and sim_tps on intra_byz_b16 and failover_lossy_b16";
const NONE: &str = "nothing end to end: it splits host time, it does not add to it";

/// `(metric, kind, note)`. For an end-to-end metric the note says which
/// public call is timed or read; for a per-layer metric, which end-to-end
/// metric it should move, on which workload.
pub const GLOSSARY: &[(&str, Kind, &str)] = &[
    (
        "setup_s",
        Kind::Measured,
        "wall time of the K SharperSystem::build calls of a pass",
    ),
    (
        "sim_tps",
        Kind::Modelled,
        "RunReport.summary.throughput_tps",
    ),
    (
        "sim_p50_ms",
        Kind::Modelled,
        "client submit to reply quorum, exact, from the trace of the traced pass",
    ),
    (
        "sim_p99_ms",
        Kind::Modelled,
        "as sim_p50_ms; every workload has well over 1 000 samples",
    ),
    (
        "sim_max_stall_ms",
        Kind::Modelled,
        "longest time a cluster executed nothing (at least sim_p50_ms), from the trace",
    ),
    (
        "ok_ops_ratio",
        Kind::Modelled,
        "share of requests answered within 1 000 sim-ms, from the trace",
    ),
    (
        HOST,
        Kind::Measured,
        "wall time of the K SharperSystem::run calls of a pass / sum of RunReport.client_completed",
    ),
    (
        "host_peak_rss_mib",
        Kind::Measured,
        "VmHWM after the last timed pass, before the traced pass",
    ),
    (
        "audit_ok",
        Kind::Modelled,
        "ledger audit passed, money conserved, every pass equal, traced equal to untraced",
    ),
    ("crypto.sha256_64b_ns", Kind::Measured, ON_BYZ),
    (
        "crypto.sha256_1kib_ns",
        Kind::Measured,
        "nothing by itself: the host's reference speed",
    ),
    ("crypto.hash_parts_3_ns", Kind::Measured, ON_BYZ),
    ("crypto.sign_ns", Kind::Measured, ON_BYZ),
    ("crypto.verify_ns", Kind::Measured, ON_BYZ),
    ("crypto.merkle_root_16_ns", Kind::Measured, ON_BYZ),
    ("crypto.merkle_verify_proof_16_ns", Kind::Measured, ON_BYZ),
    ("crypto.quorum_cert_verify_3_ns", Kind::Measured, ON_BYZ),
    (
        "state.tx_digest_ns",
        Kind::Measured,
        "host_us_per_commit on every workload: each block build and append re-derives it",
    ),
    ("state.rw_set_ns", Kind::Measured, ON_BYZ),
    ("state.apply_transfer_ns", Kind::Measured, ON_B1),
    ("state.apply_batch16_p1_ns_per_tx", Kind::Measured, ON_FAR),
    (
        "state.apply_batch16_p4_t1_ns_per_tx",
        Kind::Measured,
        ON_BYZ,
    ),
    (
        "state.apply_batch64_p4_t2_ns_per_tx",
        Kind::Measured,
        "no workload yet: the only place real exec_threads are timed",
    ),
    (
        "state.apply_batch16_hot_p4_t1_ns_per_tx",
        Kind::Measured,
        ON_BYZ,
    ),
    ("state.plan_build_batch16_p4_ns", Kind::Measured, ON_BYZ),
    ("ledger.batch_new_16_ns", Kind::Measured, ON_BYZ),
    ("ledger.block_build_b1_ns", Kind::Measured, ON_B1),
    ("ledger.block_build_b16_ns", Kind::Measured, ON_BYZ),
    ("ledger.append_b1_ns", Kind::Measured, ON_B1),
    ("ledger.append_b16_ns_per_tx", Kind::Measured, ON_BYZ),
    ("ledger.append_trunc_b16_ns_per_tx", Kind::Measured, ON_RSS),
    ("ledger.view_clone_ns_per_block", Kind::Measured, ON_RSS),
    (
        "ledger.audit_replica_views_ns_per_block",
        Kind::Measured,
        ON_RSS,
    ),
    ("ledger.verify_chain_ns_per_block", Kind::Measured, ON_RSS),
    ("network.wheel_push_pop_near_ns", Kind::Measured, ON_B1),
    ("network.wheel_push_pop_far_ns", Kind::Measured, ON_FAR),
    ("network.sim_null_event_seq_ns", Kind::Measured, ON_B1),
    ("network.sim_null_timer_ns", Kind::Measured, ON_B1),
    (
        "network.sim_null_event_fixed2_ns",
        Kind::Measured,
        "no workload: every workload runs ThreadMode::Sequential",
    ),
    ("network.ctx_broadcast_4_ns", Kind::Measured, ON_B1),
    ("network.stats_record_commit_ns", Kind::Measured, ON_B1),
    ("consensus.msg_clone_b16_ns", Kind::Measured, ON_BYZ),
    (
        "consensus.mempool_admit_pop_ns_per_tx",
        Kind::Measured,
        ON_BYZ,
    ),
    (
        "consensus.mempool_admit_pop_cross_ns_per_tx",
        Kind::Measured,
        "host_us_per_commit on cross10_crash_b16",
    ),
    ("consensus.sigcache_hit_ns", Kind::Measured, ON_BYZ),
    ("consensus.sigcache_miss_insert_ns", Kind::Measured, ON_BYZ),
    (
        "consensus.paxos_1cluster_b1_us_per_commit",
        Kind::Measured,
        ON_B1,
    ),
    (
        "consensus.paxos_1cluster_b16_us_per_commit",
        Kind::Measured,
        ON_FAR,
    ),
    (
        "consensus.pbft_1cluster_b1_us_per_commit",
        Kind::Measured,
        ON_BYZ,
    ),
    (
        "consensus.pbft_1cluster_b16_us_per_commit",
        Kind::Measured,
        ON_BYZ,
    ),
    (
        "core.build_us_per_actor",
        Kind::Measured,
        "setup_s on every workload",
    ),
    (
        "core.ledger_digest_us",
        Kind::Measured,
        "nothing end to end: the harness's own check after each run",
    ),
    ("core.run_epilogue_ms", Kind::Measured, ON_RSS),
    (
        "workload.next_uniform_ns",
        Kind::Measured,
        "host_us_per_commit on every workload: one call per submitted request",
    ),
    (
        "workload.next_zipf_ns",
        Kind::Measured,
        "no workload: hot-key resharding is left out",
    ),
    (
        "common.histogram_record_ns",
        Kind::Measured,
        "host_us_per_commit on every workload: one call per commit and per mempool pop",
    ),
    ("common.histogram_percentile_ns", Kind::Measured, ON_RSS),
    ("network.events_per_commit", Kind::Modelled, ON_FAR),
    ("network.msgs_per_commit", Kind::Modelled, ON_FAR),
    ("network.timers_per_commit", Kind::Modelled, ON_FAR),
    (
        "network.deferred_per_event",
        Kind::Modelled,
        "sim_p50_ms on intra_byz_b16 and intra_crash_b1: work that waited for a busy actor",
    ),
    ("network.dropped_per_msg", Kind::Modelled, ON_FAILOVER),
    (
        "network.events_per_s",
        Kind::Measured,
        "not gated: a protocol fix that commits more per simulated second lowers it",
    ),
    (
        "network.sim_s_per_wall_s",
        Kind::Measured,
        "not gated, as network.events_per_s",
    ),
    ("consensus.batch_fill", Kind::Modelled, ON_BATCHING),
    ("consensus.mempool_wait_p50_us", Kind::Modelled, ON_BATCHING),
    ("consensus.mempool_wait_p99_us", Kind::Modelled, ON_BATCHING),
    ("consensus.mempool_peak_depth", Kind::Modelled, ON_BATCHING),
    ("consensus.view_changes", Kind::Modelled, ON_FAILOVER),
    ("consensus.xabort_per_xcommit", Kind::Modelled, ON_CROSS),
    (
        "consensus.xpropose_retries_per_xcommit",
        Kind::Modelled,
        ON_CROSS,
    ),
    (
        "consensus.reservation_hold_p50_ms",
        Kind::Modelled,
        ON_CROSS,
    ),
    (
        "consensus.reservation_hold_p99_ms",
        Kind::Modelled,
        ON_CROSS,
    ),
    ("core.client_retrans_per_commit", Kind::Modelled, ON_FAR),
    (
        "sim.phase.submit_to_seal_p50_ms",
        Kind::Modelled,
        ON_FAILOVER,
    ),
    (
        "sim.phase.consensus_intra_p50_ms",
        Kind::Modelled,
        "sim_p50_ms on the three intra-shard workloads",
    ),
    ("sim.phase.consensus_cross_p50_ms", Kind::Modelled, ON_CROSS),
    (
        "sim.phase.commit_to_complete_p50_ms",
        Kind::Modelled,
        "sim_p50_ms on every workload",
    ),
    ("ledger.retained_block_ratio", Kind::Modelled, ON_RSS),
    ("host.span.core_build_s", Kind::Measured, "setup_s"),
    ("host.span.core_run_s", Kind::Measured, HOST),
    ("host.span.take_trace_s", Kind::Measured, NONE),
    ("host.span.trace_analyze_s", Kind::Measured, NONE),
    ("host.trace_overhead_ratio", Kind::Measured, NONE),
    ("host.share.network_engine", Kind::Measured, NONE),
    ("host.share.state_apply", Kind::Measured, NONE),
    ("host.share.ledger_block_build", Kind::Measured, NONE),
    ("host.share.ledger_append", Kind::Measured, NONE),
    ("host.share.run_epilogue", Kind::Measured, NONE),
    ("host.share.unattributed", Kind::Measured, NONE),
];

pub fn glossary(name: &str) -> Option<(Kind, &'static str)> {
    GLOSSARY
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, kind, note)| (*kind, *note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn the_declaration_meets_the_contract_limits() {
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(well_formed_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is one line of at most 200"
            );
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(well_formed_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} is used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}: unit `{}`",
                m.name,
                m.unit
            );
        }
        for m in &spec.end_to_end {
            let bound = m
                .bound
                .unwrap_or_else(|| panic!("{} needs a bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
    }

    #[test]
    fn every_declared_name_has_a_glossary_entry_and_the_other_way_round() {
        let spec = Spec::load();
        let declared: BTreeSet<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let explained: BTreeSet<&str> = GLOSSARY.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            explained.len(),
            GLOSSARY.len(),
            "a glossary name is used twice"
        );
        assert_eq!(declared, explained);
    }

    #[test]
    fn the_readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        let spec = Spec::load();
        let names = spec.workloads.iter().map(|(name, _)| name).chain(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| &m.name),
        );
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not name `{name}`"
            );
        }
    }

    #[test]
    fn the_declared_workloads_are_the_ones_the_harness_runs() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let run: Vec<&str> = crate::workloads::workloads()
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(declared, run);
    }
}
