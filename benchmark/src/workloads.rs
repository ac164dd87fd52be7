//! The four deployments the benchmark runs. `BENCHMARK.json` names them and
//! says why each exists; the sizes are fixed here.

use sharper_bench::ACCOUNTS_PER_SHARD;
use sharper_common::{
    BatchConfig, ClientId, ExecutorConfig, FailureModel, InitiationPolicy, LedgerConfig, NodeId,
    SimTime,
};
use sharper_core::SystemParams;
use sharper_net::FaultPlan;
use sharper_workload::{WorkloadConfig, WorkloadGenerator};

/// Simulated warm-up excluded from every window.
pub const WARMUP: SimTime = SimTime::from_millis(300);
/// The latency limit L: a request not completed within it counts as missed.
pub const LATENCY_LIMIT_MS: u64 = 1_000;
/// Balance every account starts with (`SystemParams::new`'s default).
pub const INITIAL_BALANCE: u64 = 1_000_000;

/// One seeded deployment: f = 1, 2 000 accounts per shard, super-primary
/// initiation, closed-loop clients.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub model: FailureModel,
    pub clusters: usize,
    /// Share of cross-shard transactions (two shards each).
    pub cross_ratio: f64,
    /// Closed-loop clients, homed round-robin on the clusters.
    pub clients: usize,
    /// Requests each client keeps in flight.
    pub in_flight: usize,
    pub batch: usize,
    pub exec: ExecutorConfig,
    pub ledger: LedgerConfig,
    /// Probability that a message is lost.
    pub loss: f64,
    /// Crash of node 0 (the first primary of cluster 0), in simulated ms.
    pub crash_node0_at_ms: Option<u64>,
    /// K: a pass simulates the seeds `S, S+1, …, S+K-1`.
    pub seeds: usize,
    /// Simulated length of each seed's run.
    pub sim_ms: u64,
}

impl Workload {
    /// The deployment parameters for one seed. The seed feeds the simulator
    /// (network jitter, fault draws, key registry) and, in
    /// [`Workload::generator`], the transaction streams.
    pub fn params(&self, seed: u64, tracing: bool) -> SystemParams {
        let mut params = SystemParams::new(self.model, self.clusters, 1)
            .with_seed(seed)
            .with_tracing(tracing)
            .with_initiation_policy(InitiationPolicy::SuperPrimary)
            .with_batching(BatchConfig::with_size(self.batch))
            .with_executor(self.exec)
            .with_ledger(self.ledger);
        params.client.max_in_flight = self.in_flight;
        params.accounts_per_shard = ACCOUNTS_PER_SHARD;
        params.warmup = WARMUP;
        let mut faults = FaultPlan::none();
        if self.loss > 0.0 {
            faults = faults.with_drop_probability(self.loss);
        }
        if let Some(ms) = self.crash_node0_at_ms {
            faults = faults.with_crash(NodeId(0), SimTime::from_millis(ms));
        }
        params.with_faults(faults)
    }

    /// The transaction stream of one client.
    pub fn generator(&self, seed: u64, client: ClientId) -> WorkloadGenerator {
        let mut cfg = WorkloadConfig::evaluation(self.clusters as u32, self.cross_ratio);
        cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
        // Seed 1 keeps the stream seed every figure of the repo runs with
        // (`WorkloadConfig`'s default); every other seed shifts it.
        cfg.seed = cfg.seed.wrapping_add(seed).wrapping_sub(1);
        WorkloadGenerator::new(client, cfg)
    }

    pub fn end(&self) -> SimTime {
        SimTime::from_millis(self.sim_ms)
    }

    /// One line for the output: what load this is.
    pub fn describe(&self) -> String {
        format!(
            "{:?}, {} clusters, {}% cross-shard, closed loop of {} clients x {} in flight, batch {}, \
             {} partition(s), ledger {}, loss {}, {}; K={} seeds x {} sim-ms (warm-up {} ms excluded)",
            self.model,
            self.clusters,
            self.cross_ratio * 100.0,
            self.clients,
            self.in_flight,
            self.batch,
            self.exec.partitions,
            if self.ledger.is_truncating() {
                format!(
                    "checkpoint {} / retain {}",
                    self.ledger.checkpoint_interval, self.ledger.retain_blocks
                )
            } else {
                "retain-all".to_string()
            },
            self.loss,
            self.crash_node0_at_ms
                .map_or("no crash".to_string(), |ms| format!("node 0 crashes at {ms} ms")),
            self.seeds,
            self.sim_ms,
            WARMUP.as_micros() / 1_000,
        )
    }
}

/// The benchmark's workloads, in the order of `BENCHMARK.json`.
pub fn workloads() -> Vec<Workload> {
    let base = Workload {
        name: "",
        model: FailureModel::Crash,
        clusters: 4,
        cross_ratio: 0.0,
        clients: 128,
        in_flight: 1,
        batch: 1,
        exec: ExecutorConfig::default(),
        ledger: LedgerConfig::retain_all(),
        loss: 0.0,
        crash_node0_at_ms: None,
        seeds: 3,
        sim_ms: 1_500,
    };
    vec![
        Workload {
            name: "intra_crash_b1",
            ..base.clone()
        },
        Workload {
            name: "intra_byz_b16",
            model: FailureModel::Byzantine,
            clusters: 2,
            clients: 64,
            sim_ms: 1_400,
            in_flight: 16,
            batch: 16,
            exec: ExecutorConfig::partitioned(4, 1),
            ..base.clone()
        },
        Workload {
            name: "cross10_crash_b16",
            clusters: 8,
            cross_ratio: 0.10,
            clients: 256,
            batch: 16,
            ledger: LedgerConfig::checkpointed(32, 64),
            seeds: 40,
            sim_ms: 10_000,
            ..base.clone()
        },
        Workload {
            name: "failover_lossy_b16",
            clients: 32,
            in_flight: 16,
            batch: 16,
            loss: 0.001,
            crash_node0_at_ms: Some(1_000),
            seeds: 5,
            sim_ms: 3_500,
            ..base
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}
