//! Per-layer timings: host nanoseconds per operation of each crate's public
//! calls, outside any deployment. The layers are the crates.

use crate::nullsim::{null_simulation, NullLoad};
use crate::stats::Sample;
use crate::workloads::{find, Workload, INITIAL_BALANCE};
use sharper_bench::ACCOUNTS_PER_SHARD;
use sharper_common::{
    AccountId, ClientId, ClusterId, FailureModel, LatencyModel, LedgerConfig, NodeId, SimTime,
    StreamingHistogram, ThreadMode, TxId,
};
use sharper_consensus::messages::Ballot;
use sharper_consensus::{Mempool, Msg, SigCache};
use sharper_core::SharperSystem;
use sharper_crypto::keys::SignerId;
use sharper_crypto::{
    hash, hash_parts, merkle_proof, merkle_root, verify_proof, Digest, KeyRegistry, QuorumCert,
    Sha256, Signature,
};
use sharper_ledger::{audit_replica_views, Batch, Block, LedgerView};
use sharper_net::{ActorId, CommitSample, Context, EventWheel, StatsHandle};
use sharper_state::{ExecPlan, Executor, PartitionedStore, Partitioner, Transaction};
use sharper_workload::{HotspotConfig, WorkloadConfig, WorkloadGenerator};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one timed batch runs and how many batches make a sample.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub batch: Duration,
    pub batches: usize,
}

impl Timing {
    /// The `layers` command's own setting: 9 batches of 50 ms.
    pub fn full() -> Timing {
        Timing {
            batch: Duration::from_millis(50),
            batches: 9,
        }
    }
}

/// Host nanoseconds per operation: the median over the batches. `run(n)`
/// does any set-up it needs untimed, performs `n` operations and returns the
/// time they took. The calibration that sizes a batch is also the warm-up.
fn ns_per_op(timing: Timing, mut run: impl FnMut(u64) -> Duration) -> Sample {
    let mut iters = 1u64;
    let mut took = run(iters);
    while took < timing.batch / 8 && iters < 1 << 28 {
        iters *= 2;
        took = run(iters);
    }
    let per_op = took.as_secs_f64() / iters as f64;
    let iters = ((timing.batch.as_secs_f64() / per_op) as u64).clamp(1, 1 << 28);
    let samples: Vec<f64> = (0..timing.batches)
        .map(|_| run(iters).as_secs_f64() * 1e9 / iters as f64)
        .collect();
    Sample::of(&samples)
}

/// `n` repetitions of an operation that needs no set-up.
fn repeat<R>(n: u64, mut op: impl FnMut() -> R) -> Duration {
    let started = Instant::now();
    for _ in 0..n {
        black_box(op());
    }
    started.elapsed()
}

fn scaled(sample: Sample, factor: f64) -> Sample {
    Sample {
        n: sample.n,
        q1: sample.q1 * factor,
        median: sample.median * factor,
        q3: sample.q3 * factor,
    }
}

/// Account `index` of shard 0; client `index` owns it at genesis.
fn account(index: u64) -> AccountId {
    AccountId(index % ACCOUNTS_PER_SHARD)
}

/// Transfers inside shard 0 among its first `span` accounts, each debiting an
/// account its client owns.
fn transfers(count: usize, first_seq: u64, span: u64) -> Vec<Arc<Transaction>> {
    (0..count as u64)
        .map(|i| {
            let from = (i * 13) % span;
            let to = (from + 7) % span;
            Arc::new(Transaction::transfer(
                ClientId(from),
                first_seq + i,
                account(from),
                account(to),
                1,
            ))
        })
        .collect()
}

fn shard0() -> Executor {
    Executor::new(ClusterId(0), Partitioner::range(4, ACCOUNTS_PER_SHARD))
}

fn genesis(exec: &Executor, partitions: usize) -> PartitionedStore {
    exec.genesis_partitioned(partitions, ACCOUNTS_PER_SHARD, INITIAL_BALANCE, ClientId)
}

/// A chain of `blocks` intra-shard blocks of `batch` fresh transactions each
/// for cluster 0, ready to append to a new view.
fn chain(blocks: usize, batch: usize) -> Vec<Block> {
    let mut head = Block::genesis().digest();
    (0..blocks)
        .map(|b| {
            let txs = transfers(batch, (b * batch) as u64, ACCOUNTS_PER_SHARD);
            let block = Block::batch(Batch::new(txs), BTreeMap::from([(ClusterId(0), head)]));
            head = block.digest();
            block
        })
        .collect()
}

/// A view of `blocks` single-transaction blocks; the transactions of
/// different clusters' views are distinct.
fn view_of(cluster: ClusterId, blocks: usize) -> LedgerView {
    let mut view = LedgerView::new(cluster);
    let mut head = view.head();
    for b in 0..blocks {
        let txs = transfers(1, u64::from(cluster.0) << 32 | b as u64, ACCOUNTS_PER_SHARD);
        let block = Block::batch(Batch::new(txs), BTreeMap::from([(cluster, head)]));
        head = block.digest();
        view.append(block).expect("fresh chain appends");
    }
    view
}

/// Appends prebuilt chains to fresh views; the chains are built untimed.
fn append_ns(timing: Timing, batch: usize, ledger: LedgerConfig) -> Sample {
    let sample = ns_per_op(timing, |n| {
        let blocks = chain(n.min(1 << 15) as usize, batch);
        let count = blocks.len() as u32;
        let mut view = LedgerView::new(ClusterId(0));
        let started = Instant::now();
        for block in blocks {
            view.append(block).expect("fresh chain appends");
            view.maybe_checkpoint(&ledger).expect("fresh chain folds");
        }
        black_box(view.head());
        // Report the time as if `n` blocks had been appended.
        started.elapsed() * (n as u32) / count
    });
    scaled(sample, 1.0 / batch as f64)
}

fn apply_ns_per_tx(
    timing: Timing,
    partitions: usize,
    threads: usize,
    batch: usize,
    span: u64,
) -> Sample {
    let exec = shard0();
    let batches: Vec<Vec<Arc<Transaction>>> = (0..64)
        .map(|b| transfers(batch, (b * batch) as u64, span))
        .collect();
    let sample = ns_per_op(timing, |n| {
        let mut store = genesis(&exec, partitions);
        let started = Instant::now();
        for i in 0..n as usize {
            let txs = &batches[i % batches.len()];
            if partitions > 1 {
                black_box(exec.apply_batch_partitioned(&mut store, txs, threads));
            } else {
                black_box(exec.apply_batch(&mut store, txs));
            }
        }
        started.elapsed()
    });
    scaled(sample, 1.0 / batch as f64)
}

/// Host microseconds per committed transaction of a single-cluster deployment
/// under `LatencyModel::zero()`: the replica handler path with no cross-cluster
/// work and no network delay to wait out.
fn one_cluster_us_per_commit(timing: Timing, model: FailureModel, batch: usize) -> Sample {
    let w = Workload {
        name: "one_cluster",
        model,
        clusters: 1,
        clients: 32,
        in_flight: batch,
        batch,
        seeds: 1,
        sim_ms: 100,
        ..find("intra_crash_b1").expect("declared workload")
    };
    // Every repetition runs seed 1, so the commits per run are one number.
    let mut commits = 0usize;
    let per_run = ns_per_op(timing, |n| {
        let mut total = Duration::ZERO;
        for _ in 0..n {
            let mut params = w.params(1, false);
            params.latency = LatencyModel::zero();
            let mut system =
                SharperSystem::build(params, w.clients, |client| w.generator(1, client));
            let started = Instant::now();
            commits = system.run(w.end()).client_completed;
            total += started.elapsed();
        }
        total
    });
    scaled(per_run, 1e-3 / commits.max(1) as f64)
}

/// Runs every layer microbenchmark and returns `(metric name, sample)`.
pub fn run_all(timing: Timing) -> Vec<(&'static str, Sample)> {
    let mut out: Vec<(&'static str, Sample)> = Vec::new();
    let mut put = |name: &'static str, sample: Sample| out.push((name, sample));

    // ---- crypto ---------------------------------------------------------
    let bytes64 = [0xabu8; 64];
    let bytes1k = vec![0xabu8; 1024];
    put(
        "crypto.sha256_64b_ns",
        ns_per_op(timing, |n| {
            repeat(n, || Sha256::digest(black_box(&bytes64)))
        }),
    );
    put(
        "crypto.sha256_1kib_ns",
        ns_per_op(timing, |n| {
            repeat(n, || Sha256::digest(black_box(&bytes1k)))
        }),
    );
    let (d1, d2) = (hash(b"parent"), hash(b"digest"));
    put(
        "crypto.hash_parts_3_ns",
        ns_per_op(timing, |n| {
            repeat(n, || {
                hash_parts(black_box(&[
                    &7u64.to_le_bytes()[..],
                    &d1.as_bytes()[..],
                    &d2.as_bytes()[..],
                ]))
            })
        }),
    );
    let (registry, signers) = KeyRegistry::generate(1, (0..4).map(SignerId));
    let statement = hash_parts(&[d1.as_bytes(), d2.as_bytes()]);
    let sig = signers[0].sign(statement.as_bytes());
    put(
        "crypto.sign_ns",
        ns_per_op(timing, |n| {
            repeat(n, || signers[0].sign(black_box(statement.as_bytes())))
        }),
    );
    put(
        "crypto.verify_ns",
        ns_per_op(timing, |n| {
            repeat(n, || registry.verify(black_box(statement.as_bytes()), &sig))
        }),
    );
    let leaves: Vec<Digest> = (0..16u64).map(|i| hash(&i.to_le_bytes())).collect();
    put(
        "crypto.merkle_root_16_ns",
        ns_per_op(timing, |n| repeat(n, || merkle_root(black_box(&leaves)))),
    );
    let (root, proof) = merkle_proof(&leaves, 5).expect("index in range");
    put(
        "crypto.merkle_verify_proof_16_ns",
        ns_per_op(timing, |n| {
            repeat(n, || verify_proof(leaves[5], 5, black_box(&proof), root))
        }),
    );
    let cert =
        QuorumCert::from_signatures(signers.iter().take(3).map(|s| s.sign(statement.as_bytes())));
    put(
        "crypto.quorum_cert_verify_3_ns",
        ns_per_op(timing, |n| {
            repeat(n, || {
                cert.verify_quorum(&registry, 3, |_| Some(statement.as_bytes().to_vec()))
            })
        }),
    );

    // ---- state ----------------------------------------------------------
    let exec = shard0();
    let ring = transfers(1024, 0, ACCOUNTS_PER_SHARD);
    put(
        "state.tx_digest_ns",
        ns_per_op(timing, |n| repeat(n, || black_box(&ring[0]).digest())),
    );
    put(
        "state.rw_set_ns",
        ns_per_op(timing, |n| repeat(n, || exec.rw_set(black_box(&ring[0])))),
    );
    put(
        "state.apply_transfer_ns",
        ns_per_op(timing, |n| {
            let mut store = exec.genesis_store(ACCOUNTS_PER_SHARD, INITIAL_BALANCE, ClientId);
            let mut i = 0usize;
            repeat(n, || {
                i = (i + 1) % ring.len();
                exec.apply(&mut store, &ring[i])
            })
        }),
    );
    put(
        "state.apply_batch16_p1_ns_per_tx",
        apply_ns_per_tx(timing, 1, 1, 16, ACCOUNTS_PER_SHARD),
    );
    put(
        "state.apply_batch16_p4_t1_ns_per_tx",
        apply_ns_per_tx(timing, 4, 1, 16, ACCOUNTS_PER_SHARD),
    );
    put(
        "state.apply_batch64_p4_t2_ns_per_tx",
        apply_ns_per_tx(timing, 4, 2, 64, ACCOUNTS_PER_SHARD),
    );
    // Every account of the batch inside the first of the four partitions.
    put(
        "state.apply_batch16_hot_p4_t1_ns_per_tx",
        apply_ns_per_tx(timing, 4, 1, 16, ACCOUNTS_PER_SHARD / 4),
    );
    let map = genesis(&exec, 4).partition_map();
    let batch16 = transfers(16, 0, ACCOUNTS_PER_SHARD);
    put(
        "state.plan_build_batch16_p4_ns",
        ns_per_op(timing, |n| {
            repeat(n, || ExecPlan::build(&exec, map, black_box(&batch16)))
        }),
    );

    // ---- ledger ---------------------------------------------------------
    let parents = Arc::new(BTreeMap::from([(ClusterId(0), Block::genesis().digest())]));
    put(
        "ledger.batch_new_16_ns",
        ns_per_op(timing, |n| {
            repeat(n, || Batch::new(black_box(&batch16).clone()))
        }),
    );
    put(
        "ledger.block_build_b1_ns",
        ns_per_op(timing, |n| {
            repeat(n, || {
                Block::batch(
                    Batch::new(vec![Arc::clone(&batch16[0])]),
                    Arc::clone(&parents),
                )
            })
        }),
    );
    put(
        "ledger.block_build_b16_ns",
        ns_per_op(timing, |n| {
            repeat(n, || {
                Block::batch(Batch::new(batch16.clone()), Arc::clone(&parents))
            })
        }),
    );
    put(
        "ledger.append_b1_ns",
        append_ns(timing, 1, LedgerConfig::retain_all()),
    );
    put(
        "ledger.append_b16_ns_per_tx",
        append_ns(timing, 16, LedgerConfig::retain_all()),
    );
    put(
        "ledger.append_trunc_b16_ns_per_tx",
        append_ns(timing, 16, LedgerConfig::checkpointed(32, 64)),
    );
    const VIEW_BLOCKS: usize = 2_048;
    let view = view_of(ClusterId(0), VIEW_BLOCKS);
    put(
        "ledger.view_clone_ns_per_block",
        scaled(
            ns_per_op(timing, |n| repeat(n, || view.clone())),
            1.0 / VIEW_BLOCKS as f64,
        ),
    );
    put(
        "ledger.verify_chain_ns_per_block",
        scaled(
            ns_per_op(timing, |n| {
                repeat(n, || view.verify_chain().expect("valid chain"))
            }),
            1.0 / VIEW_BLOCKS as f64,
        ),
    );
    const AUDIT_BLOCKS: usize = 512;
    let views: Vec<(ClusterId, LedgerView)> = (0..4)
        .flat_map(|c| {
            let view = view_of(ClusterId(c), AUDIT_BLOCKS);
            (0..3).map(move |_| (ClusterId(c), view.clone()))
        })
        .collect();
    put(
        "ledger.audit_replica_views_ns_per_block",
        scaled(
            ns_per_op(timing, |n| {
                repeat(n, || audit_replica_views(&views).expect("agreeing views"))
            }),
            1.0 / (views.len() * AUDIT_BLOCKS) as f64,
        ),
    );

    // ---- network --------------------------------------------------------
    // 10 000 pending events; each step pops the earliest and schedules one
    // more a pseudo-random ≤ 4 ms (protocol messages) or a fixed 2 s (client
    // retry timers) ahead of it.
    for (name, near) in [
        ("network.wheel_push_pop_near_ns", true),
        ("network.wheel_push_pop_far_ns", false),
    ] {
        let mut wheel: EventWheel<u64> = EventWheel::new();
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut seq = 0u64;
        let mut ahead = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if near {
                (lcg >> 33) % 4_000
            } else {
                2_000_000
            }
        };
        for _ in 0..10_000 {
            seq += 1;
            wheel.push(SimTime(ahead() + seq % 4_000), (0, seq), seq);
        }
        put(
            name,
            ns_per_op(timing, |n| {
                repeat(n, || {
                    let (at, _, value) = wheel.pop().expect("the wheel never drains");
                    seq += 1;
                    wheel.push(SimTime(at.as_micros() + ahead()), (0, seq), value);
                })
            }),
        );
    }
    let w = find("intra_crash_b1").expect("declared workload");
    for (name, load) in [
        ("network.sim_null_event_seq_ns", NullLoad::Messages),
        ("network.sim_null_timer_ns", NullLoad::Timers),
    ] {
        let mut sim = null_simulation(w.clusters, w.clients, load, ThreadMode::Sequential, 1);
        let mut done = 0usize;
        put(
            name,
            ns_per_op(timing, |n| {
                let started = Instant::now();
                let report = sim.run_to_quiescence(n as usize);
                let took = started.elapsed();
                let events = report.delivered + report.timers_fired;
                let took = took.mul_f64(n as f64 / (events - done).max(1) as f64);
                done = events;
                took
            }),
        );
    }
    {
        // The parallel driver only runs under `run_until`, so a batch is a
        // stretch of simulated time: ~60 null events per simulated ms.
        let mut sim = null_simulation(
            w.clusters,
            w.clients,
            NullLoad::Messages,
            ThreadMode::Fixed(2),
            1,
        );
        let (mut end_us, mut done) = (0u64, 0usize);
        put(
            "network.sim_null_event_fixed2_ns",
            ns_per_op(timing, |n| {
                end_us += (n * 1_000 / 60).max(1_000);
                let started = Instant::now();
                let report = sim.run_until(SimTime(end_us));
                let took = started.elapsed();
                let took = took.mul_f64(n as f64 / (report.delivered - done).max(1) as f64);
                done = report.delivered;
                took
            }),
        );
    }
    let accept = Msg::PaxosAccept {
        ballot: Ballot::new(0, NodeId(0)),
        parent: Block::genesis().digest(),
        batch: Batch::new(batch16.clone()),
    };
    let recipients: Vec<ActorId> = (0..4).map(|n| ActorId::Node(NodeId(n))).collect();
    put(
        "network.ctx_broadcast_4_ns",
        ns_per_op(timing, |n| {
            repeat(n, || {
                let mut ctx: Context<Msg> =
                    Context::detached(SimTime::ZERO, ActorId::Node(NodeId(9)));
                ctx.broadcast(recipients.clone(), accept.clone());
                ctx.outbox_len()
            })
        }),
    );
    put(
        "network.stats_record_commit_ns",
        ns_per_op(timing, |n| {
            let stats = StatsHandle::with_warmup(SimTime::ZERO);
            let mut seq = 0u64;
            repeat(n, || {
                seq += 1;
                stats.record_commit(CommitSample {
                    tx: TxId::new(ClientId(seq % 128), seq),
                    submitted_at: SimTime(seq),
                    committed_at: SimTime(seq + 5_000 + seq % 1_000),
                    cross_shard: false,
                })
            })
        }),
    );

    // ---- consensus ------------------------------------------------------
    put(
        "consensus.msg_clone_b16_ns",
        ns_per_op(timing, |n| repeat(n, || black_box(&accept).clone())),
    );
    let unsigned = Signature::unsigned(0);
    put(
        "consensus.mempool_admit_pop_ns_per_tx",
        scaled(
            ns_per_op(timing, |n| {
                let mut pool = Mempool::new();
                let mut now = 0u64;
                repeat(n, || {
                    now += 100;
                    for tx in &batch16 {
                        pool.admit_intra(Arc::clone(tx), unsigned, SimTime(now));
                    }
                    pool.pop_intra(16, SimTime(now + 50))
                })
            }),
            1.0 / 16.0,
        ),
    );
    let involved = vec![ClusterId(0), ClusterId(1)];
    put(
        "consensus.mempool_admit_pop_cross_ns_per_tx",
        scaled(
            ns_per_op(timing, |n| {
                let mut pool = Mempool::new();
                let mut now = 0u64;
                repeat(n, || {
                    now += 100;
                    for tx in &batch16 {
                        pool.admit_cross(Arc::clone(tx), unsigned, involved.clone(), SimTime(now));
                    }
                    pool.pop_cross(&involved, 16, SimTime(now + 50))
                })
            }),
            1.0 / 16.0,
        ),
    );
    let keys: Vec<(u64, Digest)> = (0..1024u64)
        .map(|i| (i % 128, hash(&i.to_le_bytes())))
        .collect();
    put(
        "consensus.sigcache_hit_ns",
        ns_per_op(timing, |n| {
            let mut cache = SigCache::new(4_096);
            for key in &keys {
                cache.insert(*key, key.1);
            }
            let mut i = 0usize;
            repeat(n, || {
                i = (i + 1) % keys.len();
                cache.check(keys[i], keys[i].1)
            })
        }),
    );
    put(
        "consensus.sigcache_miss_insert_ns",
        ns_per_op(timing, |n| {
            // 1 024 keys cycling through 256 slots: every check misses.
            let mut cache = SigCache::new(256);
            let mut i = 0usize;
            repeat(n, || {
                i = (i + 1) % keys.len();
                let hit = cache.check(keys[i], keys[i].1);
                cache.insert(keys[i], keys[i].1);
                hit
            })
        }),
    );
    put(
        "consensus.paxos_1cluster_b1_us_per_commit",
        one_cluster_us_per_commit(timing, FailureModel::Crash, 1),
    );
    put(
        "consensus.paxos_1cluster_b16_us_per_commit",
        one_cluster_us_per_commit(timing, FailureModel::Crash, 16),
    );
    put(
        "consensus.pbft_1cluster_b1_us_per_commit",
        one_cluster_us_per_commit(timing, FailureModel::Byzantine, 1),
    );
    put(
        "consensus.pbft_1cluster_b16_us_per_commit",
        one_cluster_us_per_commit(timing, FailureModel::Byzantine, 16),
    );

    // ---- core -----------------------------------------------------------
    let actors = (w.clusters * FailureModel::Crash.cluster_size(1) + w.clients) as f64;
    put(
        "core.build_us_per_actor",
        scaled(
            ns_per_op(timing, |n| {
                repeat(n, || {
                    SharperSystem::build(w.params(1, false), w.clients, |c| w.generator(1, c))
                })
            }),
            1e-3 / actors,
        ),
    );
    let mut finished = SharperSystem::build(w.params(1, false), w.clients, |c| w.generator(1, c));
    let end = SimTime::from_millis(500);
    finished.run(end);
    put(
        "core.ledger_digest_us",
        scaled(
            ns_per_op(timing, |n| repeat(n, || finished.ledger_digest())),
            1e-3,
        ),
    );
    // A second run to the same time delivers nothing: summarise, clone every
    // ledger view, audit.
    put(
        "core.run_epilogue_ms",
        scaled(ns_per_op(timing, |n| repeat(n, || finished.run(end))), 1e-6),
    );

    // ---- workload, common -------------------------------------------------
    let mut cfg = WorkloadConfig::evaluation(4, 0.1);
    cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
    let mut uniform = WorkloadGenerator::new(ClientId(1), cfg);
    put(
        "workload.next_uniform_ns",
        ns_per_op(timing, |n| repeat(n, || uniform.next_transaction())),
    );
    let mut zipf = WorkloadGenerator::new(
        ClientId(1),
        cfg.with_hotspot(HotspotConfig::evaluation(300)),
    );
    put(
        "workload.next_zipf_ns",
        ns_per_op(timing, |n| repeat(n, || zipf.next_transaction())),
    );
    let mut histogram = StreamingHistogram::new();
    let mut value = 1u64;
    put(
        "common.histogram_record_ns",
        ns_per_op(timing, |n| {
            repeat(n, || {
                value = value
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                histogram.record(value >> 40)
            })
        }),
    );
    put(
        "common.histogram_percentile_ns",
        ns_per_op(timing, |n| {
            repeat(n, || histogram.percentile(black_box(99)))
        }),
    );

    out
}
