//! The deployments of the CI gates: `golden` and `faultsweep` both describe
//! what they run as a [`Deployment`] and build it the same way. The golden
//! rows live here because `cargo test` checks them against the pinned
//! `bench/baselines/golden.txt` too.

use sharper_common::{
    BatchConfig, Duration, FailureModel, ForcedMove, InitiationPolicy, ReshardConfig, SimTime,
};
use sharper_core::{SharperSystem, SystemParams};
use sharper_net::FaultPlan;
use sharper_workload::{HotspotConfig, WorkloadConfig, WorkloadGenerator};

/// Accounts per shard in every gate deployment.
const GATE_ACCOUNTS: u64 = 1_000;

/// One deployment of a CI gate: topology, load, faults and run length.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The name the gate reports the deployment under.
    pub name: &'static str,
    /// Crash (Paxos) or Byzantine (PBFT) clusters.
    pub model: FailureModel,
    /// Number of clusters (= shards).
    pub clusters: usize,
    /// Faults tolerated per cluster; clusters have the minimum size for it.
    pub f: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Fraction of cross-shard transactions.
    pub cross_ratio: f64,
    /// A drifting Zipfian hotspot on top of the uniform load, if any.
    pub hotspot: Option<HotspotConfig>,
    /// Transactions per block.
    pub max_batch: usize,
    /// Who initiates a cross-shard transaction.
    pub initiation: InitiationPolicy,
    /// Message loss and crashes.
    pub faults: FaultPlan,
    /// The dynamic-resharding plane; `None` keeps the genesis shard map.
    pub reshard: Option<ReshardConfig>,
    /// Start of the measurement window.
    pub warmup: SimTime,
    /// Simulated run length.
    pub run_for: SimTime,
    /// The seed of every random stream.
    pub seed: u64,
}

impl Deployment {
    /// The deployment the fault sweep varies: crash model, 4 clusters with
    /// f = 1, 8 clients at 10 % cross-shard load over 1 000 accounts per
    /// shard, one-transaction blocks, super-primary initiation, a clean
    /// network and a static shard map, a 200 ms warm-up and 3 simulated
    /// seconds at seed 0.
    pub fn gate(name: &'static str) -> Self {
        Self {
            name,
            model: FailureModel::Crash,
            clusters: 4,
            f: 1,
            clients: 8,
            cross_ratio: 0.1,
            hotspot: None,
            max_batch: 1,
            initiation: InitiationPolicy::SuperPrimary,
            faults: FaultPlan::none(),
            reshard: None,
            warmup: SimTime::from_millis(200),
            run_for: SimTime::from_secs(3),
            seed: 0,
        }
    }

    /// This deployment with a load-driven reshard plane under a drifting
    /// Zipfian hotspot: 80 % of the load on a 60-account window that moves
    /// every 150 transactions, so the plane splits and merges shards mid-run.
    pub fn with_drifting_hotspot(self) -> Self {
        Self {
            hotspot: Some(HotspotConfig {
                hot_ratio: 0.8,
                s: 1.2,
                span: 60,
                drift_every: 150,
            }),
            reshard: Some(ReshardConfig {
                buckets_per_shard: 100,
                report_interval: Duration::from_millis(100),
                check_interval: Duration::from_millis(200),
                ..ReshardConfig::default()
            }),
            ..self
        }
    }

    /// The deployment's parameters, in the reference modes: sequential
    /// engine, serial executor, retain-all ledger, untraced. A gate sets
    /// the modes it varies on the result before [`build`](Self::build).
    pub fn params(&self) -> SystemParams {
        let mut params = SystemParams::new(self.model, self.clusters, self.f)
            .with_faults(self.faults.clone())
            .with_seed(self.seed)
            .with_batching(BatchConfig::with_size(self.max_batch))
            .with_initiation_policy(self.initiation);
        params.reshard = self.reshard.clone();
        params.accounts_per_shard = GATE_ACCOUNTS;
        params.warmup = self.warmup;
        params
    }

    /// Builds the deployment from `params` (its own [`params`](Self::params)
    /// with the gate's modes), every client running the evaluation workload.
    pub fn build(&self, params: SystemParams) -> SharperSystem {
        let mut workload = WorkloadConfig::evaluation(self.clusters as u32, self.cross_ratio);
        workload.accounts_per_shard = GATE_ACCOUNTS;
        workload.hotspot = self.hotspot;
        SharperSystem::build(params, self.clients, |client| {
            WorkloadGenerator::new(client, workload)
        })
    }

    /// Builds and runs the deployment under `params` and returns its golden
    /// line: `<name> <ledger-digest> <committed> <delivered> <dropped>`, with
    /// ` reshards=<n>` appended when the reshard plane is on.
    pub fn golden_line(&self, params: SystemParams) -> String {
        let mut system = self.build(params);
        let report = system.run(self.run_for);
        let mut line = format!(
            "{} {} {} {} {}",
            self.name,
            system.ledger_digest().to_hex(),
            report.summary.committed,
            report.simulation.delivered,
            report.simulation.dropped
        );
        if self.reshard.is_some() {
            line.push_str(&format!(" reshards={}", report.reshards_applied));
        }
        line
    }
}

/// The golden deployments, static ones first: both failure models,
/// intra-dominant and pure cross-shard loads, unbatched and batched, clean
/// and lossy networks, enough clusters that per-cluster mode runs several
/// workers, and two with the reshard plane on — one scripted split + merge
/// (the merge is the inverse move, restoring the genesis map) and one
/// load-driven run under a drifting hotspot.
pub fn golden_rows() -> Vec<Deployment> {
    let row = |name, seed| Deployment {
        seed,
        warmup: SimTime::from_millis(100),
        run_for: SimTime::from_secs(2),
        ..Deployment::gate(name)
    };
    let lossy = || FaultPlan::none().with_drop_probability(0.01);
    let forced = |at_ms, to| ForcedMove {
        at: Duration::from_millis(at_ms),
        start: 600,
        len: 40,
        to,
    };
    vec![
        Deployment {
            clusters: 3,
            clients: 6,
            cross_ratio: 0.3,
            faults: lossy(),
            ..row("crash-3c-30cross-drop1-seed-c0ffee", 0xC0FFEE)
        },
        Deployment {
            model: FailureModel::Byzantine,
            clusters: 3,
            clients: 6,
            cross_ratio: 0.3,
            faults: lossy(),
            ..row("byz-3c-30cross-drop1-seed-beef", 0xBEEF)
        },
        Deployment {
            cross_ratio: 1.0,
            max_batch: 16,
            ..row("crash-4c-100cross-batch16-seed-7", 7)
        },
        Deployment {
            model: FailureModel::Byzantine,
            cross_ratio: 0.0,
            max_batch: 8,
            ..row("byz-4c-0cross-batch8-seed-99", 99)
        },
        Deployment {
            clusters: 3,
            clients: 6,
            cross_ratio: 0.2,
            faults: lossy(),
            // One split mid-run, then the inverse move (a merge) 600 ms
            // later: the catalog range [600, 640) leaves shard 0 for
            // cluster 2 and comes home again.
            reshard: Some(ReshardConfig {
                // A tight check interval keeps the scripted times sharp and
                // re-sends directives lost to the 1% drop rate promptly.
                check_interval: Duration::from_millis(100),
                ..ReshardConfig::forced_only(vec![forced(500, 2), forced(1_100, 0)])
            }),
            ..row("reshard-forced-split-merge-drop1-seed-5", 5)
        },
        Deployment {
            clusters: 3,
            cross_ratio: 0.0,
            ..row("reshard-load-driven-hotspot-seed-11", 11)
        }
        .with_drifting_hotspot(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_rows_reproduce_the_pinned_reference_lines() {
        // Every golden row in the reference mode against the file CI diffs
        // `golden --out` with. A change that moves a digest on purpose
        // re-pins that file from `golden --out`.
        let pinned: Vec<&str> = include_str!("../../../bench/baselines/golden.txt")
            .lines()
            .collect();
        let rows = golden_rows();
        assert_eq!(rows.len(), pinned.len());
        for (row, pinned) in rows.iter().zip(pinned) {
            assert_eq!(row.golden_line(row.params()), pinned);
        }
    }
}
