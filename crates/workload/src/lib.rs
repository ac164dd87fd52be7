//! # sharper-workload
//!
//! Workload generation for the SharPer evaluation (§4): the accounting
//! application with a configurable fraction of cross-shard transactions, the
//! number of shards each cross-shard transaction touches, and an optional
//! drifting Zipfian hotspot.
//!
//! The generator is deterministic per `(seed, client)` pair so experiment
//! runs are reproducible, and it guarantees that every debit is issued by the
//! owner of the debited account (so transactions never abort for ownership
//! reasons — aborts in an experiment would be a sign of a protocol bug, not
//! of the workload).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sharper_common::{AccountId, ClientId, ClusterId, TxId};
use sharper_state::{Operation, Partitioner, Transaction};

/// A drifting Zipfian hotspot layered over the base workload: a fraction of
/// the stream reads accounts from a narrow "hot" window, ranked by a Zipf(s)
/// distribution, and the window slides across the keyspace as the stream
/// progresses. This is the hot-key-drift workload of the dynamic resharding
/// evaluation: it concentrates load on whichever shard currently hosts the
/// window, then moves on, so a static range assignment is always saturating
/// one cluster while the others idle.
///
/// The hot window drifts over the **upper half** of each shard's key range
/// (the read-mostly "catalog" rows), while base transfers debit and credit
/// accounts in the lower half. The two populations are disjoint by
/// construction, so a resharder that migrates hot ranges moves read traffic
/// between clusters without ever converting the transfer traffic pinned to
/// client-owned accounts into cross-shard transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotConfig {
    /// Fraction of transactions that target the hot window, in `[0, 1]`.
    pub hot_ratio: f64,
    /// Zipf skew parameter `s` over ranks inside the window (`0` = uniform
    /// within the window; the reshard evaluation uses `1.2`).
    pub s: f64,
    /// Width of the hot window in accounts.
    pub span: u64,
    /// The window advances by `span` accounts every `drift_every`
    /// transactions of each client's stream (`0` = the window never moves).
    /// Closed-loop clients progress their streams monotonically with
    /// simulated time, so per-stream drift is drift over sim time — and
    /// stays deterministic per `(seed, client)`.
    pub drift_every: u64,
}

impl HotspotConfig {
    /// The hot-key-drift settings of the resharding evaluation: 80% of
    /// traffic on a `span`-account window with Zipf `s = 1.2`, drifting
    /// every 400 transactions per client.
    pub fn evaluation(span: u64) -> Self {
        Self {
            hot_ratio: 0.8,
            s: 1.2,
            span,
            drift_every: 400,
        }
    }
}

/// Parameters of the evaluation workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of shards (clusters) in the deployment.
    pub shards: u32,
    /// Number of accounts per shard.
    pub accounts_per_shard: u64,
    /// Fraction of cross-shard transactions in `[0, 1]`.
    pub cross_shard_ratio: f64,
    /// Number of shards each cross-shard transaction touches (the paper uses
    /// 2 throughout the evaluation).
    pub shards_per_cross_tx: usize,
    /// Optional drifting Zipfian hotspot (hot-key-drift workloads).
    pub hotspot: Option<HotspotConfig>,
    /// Seed mixed with the client id for reproducibility.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The workload used by Figures 6 and 7: `shards` shards, the given
    /// cross-shard ratio, two shards per cross-shard transaction.
    pub fn evaluation(shards: u32, cross_shard_ratio: f64) -> Self {
        Self {
            shards,
            accounts_per_shard: 10_000,
            cross_shard_ratio,
            shards_per_cross_tx: 2,
            hotspot: None,
            seed: 0x5AA5,
        }
    }

    /// The workload used by Figure 8: 90% intra-shard / 10% cross-shard,
    /// "the typical settings in partitioned database systems".
    pub fn scaling(shards: u32) -> Self {
        Self::evaluation(shards, 0.10)
    }

    /// Layers a drifting Zipfian hotspot over this workload (builder style).
    pub fn with_hotspot(mut self, hotspot: HotspotConfig) -> Self {
        self.hotspot = Some(hotspot);
        self
    }
}

/// A deterministic stream of transactions for one client.
pub struct WorkloadGenerator {
    client: ClientId,
    config: WorkloadConfig,
    partitioner: Partitioner,
    rng: ChaCha8Rng,
    next_seq: u64,
    generated_cross: u64,
    generated_total: u64,
    /// Precomputed Zipf normalisation constants for the hotspot sampler
    /// (`(zeta(span, s), 1 + 0.5^s)`), unused without a hotspot.
    zipf: Option<(f64, f64)>,
}

impl WorkloadGenerator {
    /// Creates the generator for `client`.
    pub fn new(client: ClientId, config: WorkloadConfig) -> Self {
        assert!(config.shards >= 1, "at least one shard");
        assert!(
            (0.0..=1.0).contains(&config.cross_shard_ratio),
            "ratio must be a probability"
        );
        let partitioner = Partitioner::range(config.shards, config.accounts_per_shard);
        let rng = ChaCha8Rng::seed_from_u64(config.seed ^ (client.0.rotate_left(17)));
        let zipf = config.hotspot.map(|hs| {
            assert!((0.0..=1.0).contains(&hs.hot_ratio), "hot ratio");
            assert!(hs.span >= 1, "hot window must not be empty");
            let s = Self::effective_s(hs.s);
            let zetan: f64 = (1..=hs.span).map(|k| 1.0 / (k as f64).powf(s)).sum();
            (zetan, 1.0 + 0.5f64.powf(s))
        });
        Self {
            client,
            config,
            partitioner,
            rng,
            next_seq: 0,
            generated_cross: 0,
            generated_total: 0,
            zipf,
        }
    }

    /// Zipf exponents are nudged off the `s = 1` singularity of the
    /// inverse-CDF sampler (the distribution is indistinguishable).
    fn effective_s(s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-6 {
            1.0 + 1e-6
        } else {
            s.max(0.0)
        }
    }

    /// The partitioner matching this workload's account layout.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Fraction of cross-shard transactions generated so far.
    pub fn observed_cross_ratio(&self) -> f64 {
        if self.generated_total == 0 {
            0.0
        } else {
            self.generated_cross as f64 / self.generated_total as f64
        }
    }

    /// Shard-local extent of the cold (base-transfer) region: the whole
    /// shard without a hotspot, the lower half with one — the upper half is
    /// reserved for the hot catalog (see [`HotspotConfig`]).
    fn cold_span(&self) -> u64 {
        let aps = self.config.accounts_per_shard;
        if self.config.hotspot.is_some() {
            (aps / 2).max(1)
        } else {
            aps
        }
    }

    /// Shard-local start and length of the hot catalog region.
    fn hot_region(&self) -> (u64, u64) {
        let aps = self.config.accounts_per_shard;
        let base = (aps / 2).min(aps.saturating_sub(1));
        (base, (aps - base).max(1))
    }

    /// A uniformly drawn account of the cold region of `shard`.
    fn pick_account(&mut self, shard: ClusterId) -> AccountId {
        let idx = self.rng.gen_range(0..self.cold_span());
        self.partitioner
            .account_in_shard(shard, idx)
            .expect("index within shard")
    }

    /// The account this client owns in `shard` (debits always come from an
    /// owned account so the ownership check in the executor passes).
    fn owned_account(&self, shard: ClusterId) -> AccountId {
        self.partitioner
            .account_in_shard(shard, self.client.0 % self.config.accounts_per_shard)
            .expect("client account exists")
    }

    /// Offset of the hot window at position `generated` of the stream,
    /// within the virtual hot domain (the concatenated catalog halves of
    /// every shard): the window slides by `span` every `drift_every`
    /// transactions, wrapping around the domain.
    pub fn hot_window_start(&self, generated: u64) -> u64 {
        let hs = self.config.hotspot.expect("hotspot configured");
        let (_, hot_len) = self.hot_region();
        let domain = u64::from(self.config.shards) * hot_len;
        let step = generated.checked_div(hs.drift_every).unwrap_or(0);
        step.wrapping_mul(hs.span) % domain.max(1)
    }

    /// Maps a virtual hot-domain offset to the physical catalog account it
    /// names: domain offset `v` lands in shard `v / hot_len`, at shard-local
    /// index `base + v % hot_len`.
    pub fn hot_account(&self, virt: u64) -> AccountId {
        let (base, hot_len) = self.hot_region();
        let shard = ClusterId((virt / hot_len) as u32 % self.config.shards);
        self.partitioner
            .account_in_shard(shard, base + virt % hot_len)
            .expect("hot catalog index within shard")
    }

    /// Samples a Zipf(s) rank in `[0, span)` (rank 0 is the most popular)
    /// using the inverse-CDF approximation of Gray et al.
    fn zipf_rank(&mut self, span: u64, s: f64) -> u64 {
        let (zetan, zeta2) = self.zipf.expect("zipf constants precomputed");
        let s = Self::effective_s(s);
        if s == 0.0 {
            return self.rng.gen_range(0..span);
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let uz = u * zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < zeta2 {
            return 1;
        }
        let n = span as f64;
        let alpha = 1.0 / (1.0 - s);
        let eta = (1.0 - (2.0 / n).powf(1.0 - s)) / (1.0 - zeta2 / zetan);
        ((n * (eta * u - eta + 1.0).powf(alpha)) as u64).min(span - 1)
    }

    /// Generates the next transaction.
    pub fn next_transaction(&mut self) -> Transaction {
        let seq = self.next_seq;
        self.next_seq += 1;
        let generated = self.generated_total;
        self.generated_total += 1;
        // Hot-key path: a read of one account from the drifting Zipfian
        // window. Reads carry no ownership requirement and touch exactly one
        // shard under ANY map, so when resharding moves the hot range the
        // load follows the accounts to their new owner cluster.
        if let Some(hs) = self.config.hotspot {
            if self.rng.gen_bool(hs.hot_ratio) {
                let (_, hot_len) = self.hot_region();
                let domain = (u64::from(self.config.shards) * hot_len).max(1);
                let rank = self.zipf_rank(hs.span, hs.s);
                let start = self.hot_window_start(generated);
                let account = self.hot_account((start + rank) % domain);
                return Transaction::new(
                    TxId::new(self.client, seq),
                    vec![Operation::Read { account }],
                );
            }
        }
        let shards = self.config.shards;
        let home = ClusterId(self.rng.gen_range(0..shards));
        let from = self.owned_account(home);
        let cross = shards > 1 && self.rng.gen_bool(self.config.cross_shard_ratio);
        if !cross {
            let to = self.pick_account(home);
            return Transaction::transfer(self.client, seq, from, to, 1);
        }
        self.generated_cross += 1;
        let legs = self.config.shards_per_cross_tx.clamp(2, shards as usize);
        let mut chosen = vec![home];
        while chosen.len() < legs {
            let candidate = ClusterId(self.rng.gen_range(0..shards));
            if !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        let ops: Vec<Operation> = chosen[1..]
            .iter()
            .map(|shard| Operation::Transfer {
                from,
                to: self.pick_account(*shard),
                amount: 1,
            })
            .collect();
        Transaction::new(TxId::new(self.client, seq), ops)
    }

    /// Generates a batch of `n` transactions.
    pub fn take_vec(&mut self, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| self.next_transaction()).collect()
    }
}

impl Iterator for WorkloadGenerator {
    type Item = Transaction;

    fn next(&mut self) -> Option<Transaction> {
        Some(self.next_transaction())
    }
}

/// Summary statistics over a generated batch, used to validate workloads in
/// tests and experiment manifests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStats {
    /// Number of transactions inspected.
    pub transactions: usize,
    /// Number of cross-shard transactions.
    pub cross_shard: usize,
    /// Mean number of shards per transaction.
    pub mean_shards_per_tx: f64,
}

/// Computes [`WorkloadStats`] for a batch of transactions.
pub fn analyze(transactions: &[Transaction], partitioner: &Partitioner) -> WorkloadStats {
    let mut cross = 0usize;
    let mut shard_sum = 0usize;
    for tx in transactions {
        let involved = tx.involved_clusters(partitioner).len();
        shard_sum += involved;
        if involved > 1 {
            cross += 1;
        }
    }
    WorkloadStats {
        transactions: transactions.len(),
        cross_shard: cross,
        mean_shards_per_tx: if transactions.is_empty() {
            0.0
        } else {
            shard_sum as f64 / transactions.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_respected_within_tolerance() {
        for ratio in [0.0, 0.2, 0.8, 1.0] {
            let mut gen = WorkloadGenerator::new(ClientId(7), WorkloadConfig::evaluation(4, ratio));
            let batch = gen.take_vec(4_000);
            let stats = analyze(&batch, gen.partitioner());
            let observed = stats.cross_shard as f64 / stats.transactions as f64;
            assert!(
                (observed - ratio).abs() < 0.03,
                "ratio {ratio}, observed {observed}"
            );
            assert!((gen.observed_cross_ratio() - observed).abs() < 1e-9);
        }
    }

    #[test]
    fn cross_shard_transactions_touch_exactly_the_configured_legs() {
        let mut cfg = WorkloadConfig::evaluation(5, 1.0);
        cfg.shards_per_cross_tx = 3;
        let mut gen = WorkloadGenerator::new(ClientId(2), cfg);
        let batch = gen.take_vec(500);
        for tx in &batch {
            assert_eq!(tx.involved_clusters(gen.partitioner()).len(), 3);
        }
        let stats = analyze(&batch, gen.partitioner());
        assert_eq!(stats.cross_shard, 500);
        assert!((stats.mean_shards_per_tx - 3.0).abs() < 1e-9);
    }

    #[test]
    fn debits_are_always_owned_by_the_client() {
        let mut gen = WorkloadGenerator::new(ClientId(11), WorkloadConfig::evaluation(4, 0.5));
        for tx in gen.take_vec(1_000) {
            for op in &tx.operations {
                if let Operation::Transfer { from, .. } = op {
                    assert_eq!(from.0 % 10_000, 11, "debited account must be owned");
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_client() {
        let a: Vec<_> =
            WorkloadGenerator::new(ClientId(1), WorkloadConfig::evaluation(4, 0.3)).take_vec(100);
        let b: Vec<_> =
            WorkloadGenerator::new(ClientId(1), WorkloadConfig::evaluation(4, 0.3)).take_vec(100);
        let c: Vec<_> =
            WorkloadGenerator::new(ClientId(2), WorkloadConfig::evaluation(4, 0.3)).take_vec(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn iterator_interface_and_scaling_preset() {
        let cfg = WorkloadConfig::scaling(4);
        assert!((cfg.cross_shard_ratio - 0.10).abs() < 1e-9);
        let gen = WorkloadGenerator::new(ClientId(1), cfg);
        let first: Vec<Transaction> = gen.take(5).collect();
        assert_eq!(first.len(), 5);
        assert_eq!(first[0].id, TxId::new(ClientId(1), 0));
        assert_eq!(first[4].id, TxId::new(ClientId(1), 4));
    }

    #[test]
    fn hotspot_concentrates_load_on_the_window() {
        let hs = HotspotConfig {
            hot_ratio: 1.0,
            s: 1.2,
            span: 100,
            drift_every: 0,
        };
        let mut gen = WorkloadGenerator::new(
            ClientId(3),
            WorkloadConfig::evaluation(4, 0.0).with_hotspot(hs),
        );
        let batch = gen.take_vec(2_000);
        let mut rank0 = 0usize;
        // The window starts at virtual offset 0 without drift, which maps to
        // the base of shard 0's catalog half (local index 5 000).
        let window = gen.hot_account(0).0..gen.hot_account(100).0;
        for tx in &batch {
            let Operation::Read { account } = tx.operations[0] else {
                panic!("hot transactions are reads");
            };
            assert!(window.contains(&account.0), "account {account:?} in window");
            if account.0 == window.start {
                rank0 += 1;
            }
        }
        assert_eq!(window.start, 5_000, "catalog half starts mid-shard");
        // Zipf(1.2) over 100 ranks puts well over a quarter of the mass on
        // rank 0; uniform would put 1%.
        assert!(
            rank0 as f64 > 0.25 * batch.len() as f64,
            "rank-0 hits {rank0}"
        );
    }

    #[test]
    fn hotspot_drifts_across_the_global_keyspace() {
        let hs = HotspotConfig {
            hot_ratio: 1.0,
            s: 0.0,
            span: 50,
            drift_every: 100,
        };
        let cfg = WorkloadConfig::evaluation(2, 0.0).with_hotspot(hs);
        let mut gen = WorkloadGenerator::new(ClientId(1), cfg);
        assert_eq!(gen.hot_window_start(0), 0);
        assert_eq!(gen.hot_window_start(100), 50);
        assert_eq!(gen.hot_window_start(250), 100);
        // The window wraps around the 2 × 5_000-slot virtual hot domain.
        assert_eq!(gen.hot_window_start(100 * 200), 0);
        // The virtual domain maps onto the catalog half of each shard: the
        // first 5 000 offsets cover shard 0's accounts 5 000..10 000, the
        // next 5 000 cover shard 1's accounts 15 000..20 000.
        assert_eq!(gen.hot_account(0).0, 5_000);
        assert_eq!(gen.hot_account(4_999).0, 9_999);
        assert_eq!(gen.hot_account(5_000).0, 15_000);
        let early = gen.take_vec(100);
        let late = gen.take_vec(100);
        let in_window = |txs: &[Transaction], lo: u64, hi: u64| {
            txs.iter().all(|tx| {
                let Operation::Read { account } = tx.operations[0] else {
                    panic!("hot transactions are reads")
                };
                account.0 >= lo && account.0 < hi
            })
        };
        assert!(in_window(&early, 5_000, 5_050));
        assert!(in_window(&late, 5_050, 5_100));
    }

    #[test]
    fn hot_catalog_is_disjoint_from_transfer_accounts() {
        let hs = HotspotConfig::evaluation(300);
        let cfg = WorkloadConfig::evaluation(3, 0.4).with_hotspot(hs);
        let mut gen = WorkloadGenerator::new(ClientId(9), cfg);
        for tx in gen.take_vec(3_000) {
            for op in &tx.operations {
                match op {
                    Operation::Read { account } => {
                        assert!(
                            account.0 % 10_000 >= 5_000,
                            "hot reads stay in the catalog half: {account:?}"
                        );
                    }
                    Operation::Transfer { from, to, .. } => {
                        assert!(from.0 % 10_000 < 5_000, "debits in the cold half");
                        assert!(to.0 % 10_000 < 5_000, "credits in the cold half");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn hotspot_streams_are_deterministic_and_mix_with_base_traffic() {
        let hs = HotspotConfig::evaluation(200);
        let cfg = WorkloadConfig::evaluation(3, 0.5).with_hotspot(hs);
        let a: Vec<_> = WorkloadGenerator::new(ClientId(5), cfg).take_vec(500);
        let b: Vec<_> = WorkloadGenerator::new(ClientId(5), cfg).take_vec(500);
        assert_eq!(a, b);
        let reads = a
            .iter()
            .filter(|t| matches!(t.operations[0], Operation::Read { .. }))
            .count();
        let observed = reads as f64 / a.len() as f64;
        assert!(
            (observed - hs.hot_ratio).abs() < 0.06,
            "hot ratio {observed}"
        );
        // The cold remainder still honours the cross-shard ratio machinery.
        assert!(a.len() - reads > 0);
    }

    #[test]
    fn analyze_handles_empty_batches() {
        let stats = analyze(&[], &Partitioner::range(2, 10));
        assert_eq!(stats.transactions, 0);
        assert_eq!(stats.cross_shard, 0);
        assert_eq!(stats.mean_shards_per_tx, 0.0);
    }
}
